//! Schema-derived descendant reachability for the streaming matcher.
//!
//! A DTD fixes, for each declared element, the set of names that can ever
//! appear in its subtree. The matcher's descendant axes are speculative:
//! a `descendant::t` state propagates into *every* kept subtree in case a
//! `t` shows up deeper. With a [`ReachFilter`] the propagation is gated —
//! if the schema proves no `t` can occur below the entered element, the
//! state is dropped, the frame can come up empty, and the whole subtree is
//! skipped instead of walked on the chance of a match.
//!
//! The filter is **closed-world per element**: an element with an entry
//! lists exactly the names (and whether text) reachable below it; elements
//! without an entry (undeclared, `ANY`, or reaching such content) allow
//! everything. Dropping a propagation is sound for schema-valid input —
//! the dropped state could only have matched nodes the DTD forbids — so
//! outputs and role assignments are unchanged while buffer peaks can only
//! shrink.
//!
//! The table is keyed by [`Symbol`] and built against the same symbol
//! table the paths were compiled with (`gcx-schema` interns the DTD names
//! on top before any document bytes arrive).

use crate::step::ETest;
use gcx_xml::Symbol;

/// What can appear among the proper descendants of one declared element.
#[derive(Debug, Clone)]
pub(crate) struct ReachInfo {
    /// Bitset over symbol indices: element names reachable below.
    names: Box<[u64]>,
    /// True when a text node can appear below.
    text: bool,
    /// True when at least one element name is reachable below.
    any_elem: bool,
}

impl ReachInfo {
    #[inline]
    fn contains(&self, name: Symbol) -> bool {
        let idx = name.index();
        match self.names.get(idx / 64) {
            Some(word) => word & (1u64 << (idx % 64)) != 0,
            // A symbol interned after the filter was built: the document
            // uses a name the schema never mentions, which a closed
            // content model cannot produce.
            None => false,
        }
    }
}

/// Per-element descendant reachability, indexed by element [`Symbol`].
///
/// `None` for an element means "no information — allow everything"; the
/// matcher behaves exactly as without a schema there.
#[derive(Debug, Clone, Default)]
pub struct ReachFilter {
    per_elem: Vec<Option<ReachInfo>>,
    /// Number of symbols the name bitsets cover.
    n_syms: usize,
}

impl ReachFilter {
    /// An empty filter covering `n_syms` interned symbols. All elements
    /// start unconstrained.
    pub fn new(n_syms: usize) -> ReachFilter {
        ReachFilter {
            per_elem: vec![None; n_syms],
            n_syms,
        }
    }

    /// Close the world for `elem`: exactly `names` (plus text iff `text`)
    /// can appear among its proper descendants.
    pub fn close(&mut self, elem: Symbol, names: &[Symbol], text: bool) {
        let words = self.n_syms.div_ceil(64).max(1);
        let mut bits = vec![0u64; words].into_boxed_slice();
        for &n in names {
            let idx = n.index();
            debug_assert!(idx < self.n_syms, "reach name interned after build");
            if idx / 64 < bits.len() {
                bits[idx / 64] |= 1u64 << (idx % 64);
            }
        }
        if elem.index() >= self.per_elem.len() {
            self.per_elem.resize(elem.index() + 1, None);
        }
        self.per_elem[elem.index()] = Some(ReachInfo {
            names: bits,
            text,
            any_elem: !names.is_empty(),
        });
    }

    /// Reach info for `elem`, if its world is closed.
    #[inline]
    pub(crate) fn info(&self, elem: Symbol) -> Option<&ReachInfo> {
        self.per_elem.get(elem.index())?.as_ref()
    }

    /// Symbols the table has a slot for: a name interned later has no
    /// entry, like any other name the schema does not constrain.
    pub(crate) fn n_elems(&self) -> usize {
        self.per_elem.len()
    }

    /// Number of elements with a closed world.
    pub fn closed_count(&self) -> usize {
        self.per_elem.iter().filter(|e| e.is_some()).count()
    }
}

/// Can a state whose next step carries this compiled test still match
/// somewhere below an element with reach info `ri`?
#[inline]
pub(crate) fn test_reachable(ri: &ReachInfo, test: ETest) -> bool {
    match test {
        ETest::Name(s) => ri.contains(s),
        ETest::Star => ri.any_elem,
        ETest::Text => ri.text,
        ETest::AnyNode => ri.any_elem || ri.text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_xml::SymbolTable;

    #[test]
    fn closed_world_contains_only_listed_names() {
        let mut sy = SymbolTable::new();
        let a = sy.intern("a");
        let b = sy.intern("b");
        let c = sy.intern("c");
        let mut f = ReachFilter::new(sy.len());
        f.close(a, &[b], false);
        let ri = f.info(a).unwrap();
        assert!(ri.contains(b));
        assert!(!ri.contains(c));
        assert!(!ri.text);
        assert!(ri.any_elem);
        assert!(f.info(b).is_none(), "b's world is open");
        assert_eq!(f.closed_count(), 1);
    }

    #[test]
    fn empty_closure_blocks_everything() {
        let mut sy = SymbolTable::new();
        let leaf = sy.intern("leaf");
        let x = sy.intern("x");
        let mut f = ReachFilter::new(sy.len());
        f.close(leaf, &[], false);
        let ri = f.info(leaf).unwrap();
        assert!(!ri.contains(x));
        assert!(!ri.any_elem && !ri.text);
    }

    #[test]
    fn late_interned_symbols_are_outside_every_closed_world() {
        let mut sy = SymbolTable::new();
        let a = sy.intern("a");
        let mut f = ReachFilter::new(sy.len());
        f.close(a, &[a], true);
        // Simulates a document name first seen after the filter was built.
        let late = sy.intern("late");
        assert!(!f.info(a).unwrap().contains(late));
    }
}
