//! The role table: one role per projection path, with provenance.

use gcx_query::ast::{RoleId, Step, VarId};
use std::fmt;

/// Why a role exists — provenance for `explain()` and for the evaluator's
/// signOff semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleOrigin {
    /// The document root role (the paper's `r1: /`).
    DocumentRoot,
    /// Binding role of a for-loop: keeps nodes alive until iterated.
    ForBinding(VarId),
    /// A path emitted in output position (subtree retention).
    Output,
    /// An `exists(...)` witness (first-match retention).
    ExistsWitness,
    /// A comparison operand (string-value retention).
    ComparisonOperand,
    /// An aggregate argument (extension).
    AggregateArg,
}

impl fmt::Display for RoleOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoleOrigin::DocumentRoot => write!(f, "document root"),
            RoleOrigin::ForBinding(v) => write!(f, "for-binding of var #{}", v.0),
            RoleOrigin::Output => write!(f, "output"),
            RoleOrigin::ExistsWitness => write!(f, "exists witness"),
            RoleOrigin::ComparisonOperand => write!(f, "comparison operand"),
            RoleOrigin::AggregateArg => write!(f, "aggregate argument"),
        }
    }
}

/// Where a role's signOff statement is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// End of the body of the loop binding this variable: the signOff
    /// executes once per binding of that variable.
    Var(VarId),
    /// End of the whole query (used for paths rooted at the document and
    /// for roles that would otherwise be signed off inside a re-executed
    /// loop).
    QueryEnd,
}

/// Everything the engine knows about one role.
#[derive(Debug, Clone)]
pub struct RoleInfo {
    /// The role id (`r1` is `RoleId(0)`).
    pub id: RoleId,
    /// Absolute projection path from the document root. This is what the
    /// stream matcher runs.
    pub abs: Vec<Step>,
    /// Provenance.
    pub origin: RoleOrigin,
    /// Where its signOff executes.
    pub anchor: Anchor,
    /// Path of the signOff target relative to the anchor (empty = the
    /// anchor binding itself, as in `signOff($x, r3)`).
    pub rel: Vec<Step>,
}

impl RoleInfo {
    /// Whether the role keeps a copy's subtree: an output path's
    /// `descendant-or-self::node()` retention. Only a copy reads what
    /// carries it, and only by serializing; a value use's subtree role
    /// (a comparison operand, an aggregate) is read as a string value.
    pub fn retains_copy(&self) -> bool {
        self.origin == RoleOrigin::Output
            && self.abs.last() == Some(&Step::descendant_or_self_node())
    }

    /// Format the absolute path the way the paper prints roles
    /// (e.g. `/bib/*/price[1]`, `/bib/*/descendant-or-self::node()`).
    pub fn path_display(&self) -> String {
        if self.abs.is_empty() {
            return "/".to_string();
        }
        let mut out = String::new();
        for step in &self.abs {
            out.push('/');
            out.push_str(&step.to_string());
        }
        out
    }
}

/// All roles of a query, indexed by [`RoleId`].
#[derive(Debug, Clone, Default)]
pub struct RoleTable {
    roles: Vec<RoleInfo>,
}

impl RoleTable {
    /// Create an empty table.
    pub fn new() -> Self {
        RoleTable::default()
    }

    /// Register a role; returns its id.
    pub fn push(
        &mut self,
        abs: Vec<Step>,
        origin: RoleOrigin,
        anchor: Anchor,
        rel: Vec<Step>,
    ) -> RoleId {
        let id = RoleId(self.roles.len() as u32);
        self.roles.push(RoleInfo {
            id,
            abs,
            origin,
            anchor,
            rel,
        });
        id
    }

    /// Number of roles.
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// True when no roles are registered.
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// Look up one role.
    pub fn get(&self, id: RoleId) -> &RoleInfo {
        &self.roles[id.index()]
    }

    /// Iterate roles in id order.
    pub fn iter(&self) -> impl Iterator<Item = &RoleInfo> {
        self.roles.iter()
    }

    /// The paper-style role listing (Figure "r1: / ... r7: ..."):
    /// one `rN: /path` line per role.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for role in &self.roles {
            out.push_str(&format!("{}: {}\n", role.id, role.path_display()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_query::ast::{Axis, NodeTest, Pred};

    #[test]
    fn listing_matches_paper_format() {
        let mut t = RoleTable::new();
        t.push(vec![], RoleOrigin::DocumentRoot, Anchor::QueryEnd, vec![]);
        t.push(
            vec![Step::child("bib")],
            RoleOrigin::ForBinding(VarId(0)),
            Anchor::Var(VarId(0)),
            vec![],
        );
        t.push(
            vec![
                Step::child("bib"),
                Step {
                    axis: Axis::Child,
                    test: NodeTest::Star,
                    pred: None,
                },
                Step {
                    axis: Axis::Child,
                    test: NodeTest::Name("price".into()),
                    pred: Some(Pred::Position(1)),
                },
            ],
            RoleOrigin::ExistsWitness,
            Anchor::Var(VarId(1)),
            vec![Step {
                axis: Axis::Child,
                test: NodeTest::Name("price".into()),
                pred: Some(Pred::Position(1)),
            }],
        );
        assert_eq!(t.listing(), "r1: /\nr2: /bib\nr3: /bib/*/price[1]\n");
    }

    #[test]
    fn desc_or_self_prints_like_paper() {
        let mut t = RoleTable::new();
        let id = t.push(
            vec![
                Step::child("bib"),
                Step::child("book"),
                Step::descendant_or_self_node(),
            ],
            RoleOrigin::Output,
            Anchor::QueryEnd,
            vec![],
        );
        assert_eq!(
            t.get(id).path_display(),
            "/bib/book/descendant-or-self::node()"
        );
    }

    #[test]
    fn ids_are_dense() {
        let mut t = RoleTable::new();
        for i in 0..5 {
            let id = t.push(vec![], RoleOrigin::Output, Anchor::QueryEnd, vec![]);
            assert_eq!(id, RoleId(i));
        }
        assert_eq!(t.len(), 5);
    }
}
