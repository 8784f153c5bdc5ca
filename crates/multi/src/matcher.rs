//! The merged projection matcher: one NFA over the union of a batch's
//! projection paths, with per-query outcomes.
//!
//! Merging is exact, not approximate: path states never interact across
//! queries (derivation counts merge only on identical `(path, state)`
//! pairs, and every path belongs to one query), so restricting the merged
//! matcher's outcome to one query's tag reproduces that query's standalone
//! [`StreamMatcher`](gcx_projection::StreamMatcher) behaviour — keep/skip
//! decisions, role assignments *and* descendant-axis multiplicities. The
//! property suite in `tests/merge_props.rs` asserts this equivalence on
//! randomized documents.

use gcx_core::CompiledQuery;
use gcx_projection::{
    Automaton, CompiledPaths, QueryTag, TaggedMatcher, TaggedOutcome, TaggedPaths, TaggedRole,
};
use gcx_xml::{Symbol, SymbolTable};
use std::sync::Arc;

/// A batch's compiled, shareable projection artifacts: the merged
/// automaton (under the optional DTD reachability filter, with the
/// transitions earlier runs memoised) plus the symbol table all the
/// batch's path tests were interned against. Prepared once per batch
/// ([`crate::SharedRun::prepare`]), it makes every further run of the
/// same batch compile nothing: each document starts a matcher on the
/// shared automaton and a clone of the pre-interned table, so repeated
/// batches (a service, a bench loop) pay only per-run frame state.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    pub(crate) symbols: SymbolTable,
    pub(crate) automaton: Arc<Automaton>,
    /// `(pruned, total)` projection-path counts per query (with a schema).
    pub(crate) pruned_paths: Option<Vec<(u32, u32)>>,
    pub(crate) n_queries: usize,
}

impl BatchPlan {
    /// Compile the batch's paths against one fresh symbol table, merge,
    /// and (with a schema) prune + build the reachability filter.
    pub fn new(queries: &[CompiledQuery], schema: Option<&gcx_schema::Dtd>) -> BatchPlan {
        BatchPlan::compile(queries, SymbolTable::new(), schema)
    }

    /// Compile every query's paths against `symbols`, prune against the
    /// schema when present, merge into one tagged automaton, and derive
    /// the schema's reachability filter.
    fn compile(
        queries: &[CompiledQuery],
        mut symbols: SymbolTable,
        schema: Option<&gcx_schema::Dtd>,
    ) -> BatchPlan {
        let mut pruned_paths = schema.map(|_| Vec::with_capacity(queries.len()));
        let parts: Vec<CompiledPaths> = queries
            .iter()
            .map(|q| {
                let paths = CompiledPaths::compile(&q.analysis.roles, &mut symbols);
                match (schema, &mut pruned_paths) {
                    (Some(dtd), Some(counts)) => {
                        let prune = dtd.prune(&paths, &symbols);
                        counts.push((prune.pruned.len() as u32, prune.total as u32));
                        prune.paths
                    }
                    _ => paths,
                }
            })
            .collect();
        let merged = TaggedPaths::merge(parts.iter());
        debug_assert_eq!(merged.n_tags() as usize, queries.len());
        let reach = schema.map(|dtd| Arc::new(dtd.reach_filter(&mut symbols)));
        BatchPlan {
            symbols,
            automaton: Arc::new(Automaton::new(merged, reach)),
            pruned_paths,
            n_queries: queries.len(),
        }
    }

    /// Number of queries the plan was prepared for. A plan is only valid
    /// for the exact batch (same queries, same order) it was built from.
    pub fn n_queries(&self) -> usize {
        self.n_queries
    }
}

/// Union-of-batches projection matcher. One instance per shared pass.
#[derive(Debug)]
pub struct MergedMatcher {
    inner: TaggedMatcher,
    outcome: TaggedOutcome,
    text_scratch: Vec<TaggedRole>,
    n_queries: u32,
}

impl MergedMatcher {
    /// Build the merged matcher for a batch. All queries' paths are
    /// compiled against the same `symbols` table (required: the NFA
    /// compares interned names). Returns the matcher and the tagged roles
    /// of the virtual document root (per query; inert for the standard
    /// engine, reported for completeness).
    pub fn build(
        queries: &[CompiledQuery],
        symbols: &mut SymbolTable,
    ) -> (MergedMatcher, Vec<TaggedRole>) {
        let plan = BatchPlan::compile(queries, std::mem::take(symbols), None);
        let built = MergedMatcher::from_plan(&plan);
        *symbols = plan.symbols;
        built
    }

    /// Start a matcher on a prepared plan's automaton: only per-run
    /// frame state is allocated.
    pub fn from_plan(plan: &BatchPlan) -> (MergedMatcher, Vec<TaggedRole>) {
        let n_queries = plan.automaton.n_tags();
        (
            MergedMatcher {
                inner: TaggedMatcher::start(Arc::clone(&plan.automaton)),
                outcome: TaggedOutcome::for_tags(n_queries),
                text_scratch: Vec::new(),
                n_queries,
            },
            plan.automaton.root_roles().to_vec(),
        )
    }

    /// Number of queries in the batch.
    pub fn n_queries(&self) -> u32 {
        self.n_queries
    }

    /// Current nesting depth (document root excluded).
    pub fn depth(&self) -> usize {
        self.inner.depth()
    }

    /// Subtrees skipped on the DTD's descendant-reachability proof (0
    /// without a schema-built matcher).
    pub fn reach_cuts(&self) -> u64 {
        self.inner.reach_cuts()
    }

    /// Process an element start tag. The returned outcome is valid until
    /// the next call. `any_keep == false` means **no** query can match
    /// this element or anything below it: the caller skips the subtree and
    /// must not call [`MergedMatcher::leave_element`] for it.
    pub fn enter_element(&mut self, name: Symbol) -> &TaggedOutcome {
        self.inner.enter_element(name, &mut self.outcome);
        &self.outcome
    }

    /// Process the end tag of a kept element.
    pub fn leave_element(&mut self) {
        self.inner.leave_element();
    }

    /// Tagged roles for a text child of the current element. A query with
    /// no roles in the result does not buffer the text.
    pub fn text(&mut self) -> &[TaggedRole] {
        let mut scratch = std::mem::take(&mut self.text_scratch);
        self.inner.text_into(&mut scratch);
        self.text_scratch = scratch;
        &self.text_scratch
    }

    /// Roles of query `tag` in the last `enter_element` outcome.
    pub fn roles_of(&self, tag: QueryTag) -> Vec<(gcx_query::ast::RoleId, u32)> {
        self.outcome.roles_of(tag).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::CompiledQuery;

    fn build(queries: &[&str]) -> (MergedMatcher, SymbolTable) {
        let compiled: Vec<CompiledQuery> = queries
            .iter()
            .map(|q| CompiledQuery::compile(q).unwrap())
            .collect();
        let mut symbols = SymbolTable::new();
        let (m, _) = MergedMatcher::build(&compiled, &mut symbols);
        (m, symbols)
    }

    #[test]
    fn disjoint_queries_keep_disjoint_subtrees() {
        let (mut m, mut sy) = build(&["for $a in /r/x return $a", "for $b in /r/y return $b"]);
        let r = sy.intern("r");
        let x = sy.intern("x");
        let y = sy.intern("y");
        let o = m.enter_element(r);
        assert!(o.any_keep);
        assert!(o.kept[0] && o.kept[1], "both queries keep the shared root");

        let o = m.enter_element(x);
        assert!(o.any_keep);
        assert!(o.kept[0] && !o.kept[1], "only query 0 wants /r/x");
        m.leave_element();

        let o = m.enter_element(y);
        assert!(!o.kept[0] && o.kept[1], "only query 1 wants /r/y");
        m.leave_element();
    }

    #[test]
    fn subtree_wanted_by_nobody_is_skipped_once() {
        let (mut m, mut sy) = build(&["for $a in /r/x return $a", "for $b in /r/y return $b"]);
        m.enter_element(sy.intern("r"));
        let o = m.enter_element(sy.intern("z"));
        assert!(!o.any_keep, "no query matches under /r/z");
    }

    #[test]
    fn identical_queries_get_independent_tags() {
        let q = "for $a in /r//v return $a";
        let (mut m, mut sy) = build(&[q, q]);
        let o = m.enter_element(sy.intern("r"));
        assert!(o.kept[0] && o.kept[1]);
        let o = m.enter_element(sy.intern("v"));
        let r0: Vec<_> = o.roles_of(0).collect();
        let r1: Vec<_> = o.roles_of(1).collect();
        assert_eq!(r0, r1, "identical queries see identical roles");
        assert!(!r0.is_empty());
    }

    #[test]
    fn text_roles_are_tagged_per_query() {
        let (mut m, mut sy) = build(&["for $a in /r return $a/text()", "for $b in /r/x return $b"]);
        m.enter_element(sy.intern("r"));
        let roles = m.text();
        assert!(roles.iter().any(|&(t, _, _)| t == 0), "query 0 wants text");
        // Query 1 also assigns subtree roles to text under /r? No: its
        // binding subtree role starts at /r/x, so text directly under r
        // carries no query-1 role.
        assert!(
            roles.iter().all(|&(t, _, _)| t == 0),
            "query 1 must not claim text under /r: {roles:?}"
        );
    }
}
