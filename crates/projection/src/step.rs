//! The compiled path step: one form for both sides of the buffer.
//!
//! The stream matcher runs a query's projection paths over the tag stream
//! and the evaluator walks its paths over the buffer; both read the same
//! [`EvalStep`], compiled once by [`EvalStep::compile`] against the
//! query's symbol table. Attribute steps never become one: the analysis
//! strips them from projection paths (roles land on the owning element)
//! and the lowering splits them off into a path's attribute selector.

use gcx_query::ast::{Axis, NodeTest, Pred, Step};
use gcx_xml::{Symbol, SymbolTable};

/// A node test compiled against a symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ETest {
    /// Element with this tag.
    Name(Symbol),
    /// Any element.
    Star,
    /// Any text node.
    Text,
    /// Any node (element or text).
    AnyNode,
}

impl ETest {
    /// Does an element with tag `name` pass?
    #[inline]
    pub fn matches_element(self, name: Symbol) -> bool {
        match self {
            ETest::Name(s) => s == name,
            ETest::Star | ETest::AnyNode => true,
            ETest::Text => false,
        }
    }

    /// Does a text node pass?
    #[inline]
    pub fn matches_text(self) -> bool {
        matches!(self, ETest::Text | ETest::AnyNode)
    }
}

/// The axes a compiled step navigates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EAxis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `self::`
    SelfAxis,
}

/// One compiled step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalStep {
    /// Axis.
    pub axis: EAxis,
    /// Node test.
    pub test: ETest,
    /// 1-based `[k]` positional predicate (child axis only).
    pub pos: Option<u32>,
}

impl EvalStep {
    /// Compile an element step, interning its name into `symbols`.
    ///
    /// # Panics
    /// On an attribute step: the normalizer makes them terminal and both
    /// the analysis and the lowering split them off before compiling.
    pub fn compile(step: &Step, symbols: &mut SymbolTable) -> EvalStep {
        EvalStep {
            axis: match step.axis {
                Axis::Child => EAxis::Child,
                Axis::Descendant => EAxis::Descendant,
                Axis::DescendantOrSelf => EAxis::DescendantOrSelf,
                Axis::SelfAxis => EAxis::SelfAxis,
                Axis::Attribute => unreachable!("attribute steps are split off before compiling"),
            },
            test: match &step.test {
                NodeTest::Name(n) => ETest::Name(symbols.intern(n)),
                NodeTest::Star => ETest::Star,
                NodeTest::Text => ETest::Text,
                NodeTest::AnyNode => ETest::AnyNode,
            },
            pos: step.pred.map(|Pred::Position(k)| k),
        }
    }

    /// A step a search set's states may sit at: `descendant` or
    /// `descendant-or-self` with a name test and no position.
    pub fn waits(&self) -> bool {
        matches!(self.axis, EAxis::Descendant | EAxis::DescendantOrSelf)
            && matches!(self.test, ETest::Name(_))
            && self.pos.is_none()
    }
}
