//! Engine error type.

use gcx_query::QueryError;
use gcx_xml::XmlError;
use std::fmt;

/// Anything that can go wrong while compiling or running a query.
#[derive(Debug)]
pub enum EngineError {
    /// XML input (or output serialization) failure.
    Xml(XmlError),
    /// Query compilation failure.
    Query(QueryError),
    /// The run crossed its buffer byte budget
    /// ([`crate::EngineOptions::max_buffer_bytes`]). A typed, recoverable
    /// rejection — the primitive behind the server's 413 path — never a
    /// panic or abort.
    BufferLimitExceeded {
        /// The configured budget in bytes.
        limit: u64,
        /// Estimated live buffer bytes at the moment the budget tripped.
        used: u64,
    },
    /// The query needs more roles than a buffered node can count
    /// ([`crate::buffer::MAX_ROLES`]): compilation refuses it.
    TooManyRoles {
        /// The roles the query's analysis derived.
        roles: usize,
    },
    /// An internal invariant was violated — a bug in the engine, reported
    /// instead of panicking so callers can recover.
    Internal(String),
}

impl EngineError {
    /// True for [`EngineError::BufferLimitExceeded`] — the rejection
    /// servers map to "request too expensive" instead of "request broken".
    pub fn is_buffer_limit(&self) -> bool {
        matches!(self, EngineError::BufferLimitExceeded { .. })
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Xml(e) => write!(f, "XML error: {e}"),
            EngineError::Query(e) => write!(f, "query error: {e}"),
            EngineError::BufferLimitExceeded { limit, used } => write!(
                f,
                "buffer limit exceeded: {used} bytes live, budget {limit}"
            ),
            EngineError::TooManyRoles { roles } => write!(
                f,
                "query needs {roles} roles, more than the {} a buffered node counts",
                crate::buffer::MAX_ROLES
            ),
            EngineError::Internal(m) => write!(f, "internal engine error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Xml(e) => Some(e),
            EngineError::Query(e) => Some(e),
            EngineError::BufferLimitExceeded { .. } => None,
            EngineError::TooManyRoles { .. } => None,
            EngineError::Internal(_) => None,
        }
    }
}

impl From<XmlError> for EngineError {
    fn from(e: XmlError) -> Self {
        EngineError::Xml(e)
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_wrap_sources() {
        let q = gcx_query::compile("$unbound").unwrap_err();
        let e: EngineError = q.into();
        assert!(e.to_string().contains("unbound"));
        let e = EngineError::Internal("oops".into());
        assert_eq!(e.to_string(), "internal engine error: oops");
        let e = EngineError::BufferLimitExceeded {
            limit: 10,
            used: 42,
        };
        assert!(e.is_buffer_limit());
        assert_eq!(
            e.to_string(),
            "buffer limit exceeded: 42 bytes live, budget 10"
        );
    }
}
