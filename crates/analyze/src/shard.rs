//! Shard-safety analysis over the optimized IR.
//!
//! Decides, per compiled query, whether partition-parallel evaluation can
//! reproduce the serial output byte for byte — and if so, what the merge
//! has to do. The analysis never looks at the document; it produces
//! *guard paths* that gcx-par's splitter later checks against the
//! concrete ancestor chain of every candidate split point.
//!
//! Shard safety is a corollary of the streamability lattice: a
//! [`Document`](crate::StreamClass::Document)-class query retains
//! cross-item state (a value join, an unbounded aggregate, a positional
//! predicate, a root re-entry) that no partition of the input can
//! preserve, so [`analyze`] short-circuits to `Unsafe` with the
//! classifier's own diagnostic before any structural matching runs. The
//! structural walk below then only has to recognize the *shape* that
//! partitions — it can assume document-level state is already ruled out.
//!
//! Benchmark-only: its one consumer, `gcx-par`, is reached by no product
//! surface, only by the benchmark's `par_shards` workload. This module
//! goes with `gcx-par` when that workload is retired.
//!
//! ## The safe shape
//!
//! A query is shard-safe when, after peeling static wrappers, it is a
//! chain of `for` loops whose composed binding path is rooted at the
//! document root, with a body confined to the innermost binding:
//!
//! ```text
//! <w1><w2> {                        static wrappers (prefix/suffix)
//!   for $a in /s1/s2 return        spine: Root-rooted,
//!     for $b in $a//s3 return      chained through the previous var
//!       BODY($b)                   every path rooted at $b (or vars
//! } </w2></w1>                     bound from it); no joins
//! ```
//!
//! Run over a sub-document that contains a *contiguous, complete* subset
//! of the spine bindings (plus re-opened ancestors that the guard check
//! proves can never themselves be bindings), such a query emits exactly
//! `prefix · (its bindings' output) · suffix` — so shard outputs
//! concatenate, in shard order, into the serial output. `signOff`
//! statements anywhere are exempt from confinement: they only touch the
//! shard-local buffer, never the output.
//!
//! Innermost bindings must stay whole, but an *intermediate* spine
//! binding (Q6's `regions`) may be divided: its body is the rest of the
//! spine, whose per-fragment outputs concatenate back in order. That
//! holds only while bindings of one level cannot nest: XQuery orders
//! output by binding — the outer binding's whole group before the
//! nested one's — so dividing a binding whose subtree holds another
//! binding of its own level would splice the nested group into the
//! middle of the outer's. (Today's streaming engine flattens nested
//! groups — each node is consumed by its outermost binding, unlike the
//! dom/full reference engines — which happens to make such a division
//! byte-invisible; shard safety must not lean on that attribution
//! quirk.) A spine level reached purely by `child` steps has a fixed
//! match depth and can never nest; any `descendant` step on the
//! composed prefix can (`//a` under `<a><a>…`), so such prefixes become
//! guards of their own (`spine`) and the splitter refuses to cut
//! through their bindings.
//!
//! Whole-document `count(...)` aggregates take the two-phase route
//! instead: each shard counts its own matches and the merge sums — exact,
//! because count is associative over a partition of the match set (no
//! float re-association, unlike `sum`/`avg`, which stay serial).
//!
//! Everything else — cross-shard joins (Q8's `HashJoin`), bodies that
//! re-enter the document root, positional predicates on the spine,
//! multiple dynamic items per level (output interleaving would change) —
//! reports `Unsafe` and the runtime falls back to the serial path.

use gcx_ir::{
    walk_from, AttrPlan, EAxis, ETest, EvalStep, Instr, InstrId, IrVisitor, PathId, PathUse,
    PlanRoot, Program, WalkCtx,
};
use gcx_query::ast::VarId;

use crate::{analyze_program, Severity, StreamClass};

/// How shard results recombine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Concatenate shard cores between the static prefix/suffix.
    Concat,
    /// Parse each shard core as an integer count and emit the sum.
    SumCount,
}

/// One static wrapper element peeled off the query root.
#[derive(Debug, Clone)]
pub struct Wrapper {
    /// Element name (raw program string).
    pub name: String,
    /// Literal attributes, in emission order (raw, unescaped).
    pub attrs: Vec<(String, String)>,
}

/// A guard step: an [`EvalStep`] with its name test resolved to a string,
/// so the splitter can match it against raw document bytes.
#[derive(Debug, Clone)]
pub struct GStep {
    /// Axis.
    pub axis: EAxis,
    /// Resolved node test.
    pub test: GTest,
}

/// Resolved node test of a guard step.
#[derive(Debug, Clone)]
pub enum GTest {
    /// Element with this name.
    Name(String),
    /// Any element.
    Star,
    /// Any text node (never matches an element).
    Text,
    /// Any node.
    AnyNode,
}

/// One guard path: a split point is unsafe if any element left open at
/// the split (any ancestor of the cut) could be selected by this path —
/// its subtree, or its attributes, would then be divided or duplicated
/// across shards.
#[derive(Debug, Clone)]
pub struct GuardPath {
    /// Element steps, root-context first.
    pub steps: Vec<GStep>,
}

impl GuardPath {
    /// Whether two elements selected by this path can be nested in one
    /// another. `child`/`self` steps pin every match to one fixed depth,
    /// so matches are siblings-or-cousins and can never nest; any
    /// descendant step lets the path select both `<a>` and an `<a>`
    /// inside it.
    pub fn can_nest(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s.axis, EAxis::Descendant | EAxis::DescendantOrSelf))
    }
}

/// The analysis result for a shard-safe query.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Merge mode.
    pub mode: ShardMode,
    /// Static wrappers, outermost first.
    pub wrappers: Vec<Wrapper>,
    /// Guard paths the splitter must respect.
    pub guards: Vec<GuardPath>,
}

/// Whether (and how) a program can run partition-parallel.
#[derive(Debug, Clone)]
pub enum Analysis {
    /// Shard-safe; the plan drives splitting and merging.
    Safe(ShardPlan),
    /// Not shard-safe, with the human-readable reason the CLI reports.
    Unsafe(String),
}

/// Analyze an optimized program for shard safety.
pub fn analyze(p: &Program) -> Analysis {
    // Lattice first: Document-class retention can never partition, and
    // the classifier's diagnostic names the construct responsible.
    let classes = analyze_program(p, None);
    if classes.class == StreamClass::Document {
        let reason = classes
            .lints
            .iter()
            .find(|l| l.severity == Severity::Warning)
            .map(|l| l.message.clone())
            .unwrap_or_else(|| "the query retains document-level state".to_string());
        return Analysis::Unsafe(reason);
    }
    match analyze_inner(p) {
        Ok(plan) => Analysis::Safe(plan),
        Err(reason) => Analysis::Unsafe(reason.to_string()),
    }
}

type AResult<T> = Result<T, &'static str>;

fn analyze_inner(p: &Program) -> AResult<ShardPlan> {
    let mut wrappers = Vec::new();
    let mut cur = p.root();
    // Peel static wrappers: constructed elements and sequences whose
    // other items are output-free (signOffs, the optimizer's Nops).
    let core = loop {
        match p.instr(cur) {
            Instr::Seq { first, len } => {
                cur =
                    single_dynamic_item(p, first, len)?.ok_or("the query emits nothing dynamic")?;
            }
            Instr::Element {
                name,
                attrs_first,
                attrs_len,
                content,
            } => {
                wrappers.push(Wrapper {
                    name: p.str_(name).to_string(),
                    attrs: p
                        .attr_pairs(attrs_first, attrs_len)
                        .iter()
                        .map(|&(k, v)| (p.str_(k).to_string(), p.str_(v).to_string()))
                        .collect(),
                });
                cur = content;
            }
            Instr::For { .. } | Instr::OutputPath { .. } | Instr::Aggregate { .. } => break cur,
            Instr::Nop | Instr::SignOff { .. } => return Err("the query emits nothing dynamic"),
            Instr::Text(_) => return Err("static text at the query root"),
            Instr::If { .. } => return Err("a top-level conditional over the whole document"),
            Instr::HashJoin(_) => return Err("a join over the whole document"),
        }
    };
    match p.instr(core) {
        Instr::For { .. } => {
            let guards = spine(p, core)?;
            Ok(ShardPlan {
                mode: ShardMode::Concat,
                wrappers,
                guards,
            })
        }
        Instr::OutputPath { path, .. } => {
            let guard = root_guard(p, path)?;
            Ok(ShardPlan {
                mode: ShardMode::Concat,
                wrappers,
                guards: vec![guard],
            })
        }
        Instr::Aggregate { func, path, .. } => {
            if func != gcx_query::ast::AggFunc::Count {
                return Err("only count() aggregates partition exactly");
            }
            let guard = root_guard(p, path)?;
            Ok(ShardPlan {
                mode: ShardMode::SumCount,
                wrappers,
                guards: vec![guard],
            })
        }
        _ => unreachable!("peel loop only breaks on For/OutputPath/Aggregate"),
    }
}

/// Of a Seq's items, the single one that can produce output. `Ok(None)`
/// when every item is output-free; `Err` when two could emit (their
/// outputs would interleave differently across a shard seam).
fn single_dynamic_item(p: &Program, first: u32, len: u32) -> AResult<Option<InstrId>> {
    let mut dynamic = None;
    for &item in p.seq_items(first, len) {
        match p.instr(item) {
            Instr::Nop | Instr::SignOff { .. } => {}
            _ => {
                if dynamic.replace(item).is_some() {
                    return Err("two output-producing items at the same level");
                }
            }
        }
    }
    Ok(dynamic)
}

/// Follow the chain of `for`s from the query core: the first must bind a
/// Root-rooted path, each next one the previous variable; the final body
/// must be confined to the innermost binding. Returns the guards for the
/// spine: the fully composed path (innermost bindings must never be cut)
/// plus every intermediate composed prefix whose matches could nest
/// (see the module docs — dividing a binding that contains another
/// binding of its own level reorders the serial per-binding groups).
fn spine(p: &Program, head: InstrId) -> AResult<Vec<GuardPath>> {
    let mut composed: Vec<EvalStep> = Vec::new();
    let mut guards: Vec<GuardPath> = Vec::new();
    let mut innermost: Option<VarId> = None;
    let mut cur = head;
    loop {
        let Instr::For {
            var, path, body, ..
        } = p.instr(cur)
        else {
            unreachable!("spine() is only called on For instructions");
        };
        let plan = p.path(path);
        match (plan.root, innermost) {
            (PlanRoot::Root, None) => {}
            (PlanRoot::Var(v), Some(inner)) if v == inner => {}
            _ => return Err("a loop binds a path off the shard spine"),
        }
        composed.extend_from_slice(p.path_steps(plan));
        innermost = Some(var);
        let binds_attrs = plan.attr != AttrPlan::None;
        // The body: either extends the spine with one more For over the
        // fresh variable, or is a general body confined to it.
        let next = match p.instr(body) {
            Instr::Seq { first, len } => single_dynamic_item(p, first, len)?,
            Instr::Nop | Instr::SignOff { .. } => None,
            _ => Some(body),
        };
        match next {
            Some(next_for)
                if !binds_attrs
                    && matches!(
                        p.instr(next_for),
                        Instr::For { path: np, .. }
                            if p.path(np).root == PlanRoot::Var(var)
                    ) =>
            {
                // `var` is an intermediate binding: the spine continues
                // below it, so the splitter may divide its subtree —
                // unless bindings of this level can nest, in which case
                // the composed prefix becomes a guard of its own.
                let prefix = finish_guard(composed.clone(), p)?;
                if prefix.can_nest() {
                    guards.push(prefix);
                }
                cur = next_for;
            }
            Some(other) => {
                confined(p, other, var)?;
                break;
            }
            None => break,
        }
    }
    guards.push(finish_guard(composed, p)?);
    Ok(guards)
}

/// Guard for a Root-rooted output/aggregate path at the query core.
fn root_guard(p: &Program, path: PathId) -> AResult<GuardPath> {
    let plan = p.path(path);
    if plan.root != PlanRoot::Root {
        return Err("a core path not rooted at the document");
    }
    finish_guard(p.path_steps(plan).to_vec(), p)
}

fn finish_guard(steps: Vec<EvalStep>, p: &Program) -> AResult<GuardPath> {
    if steps.is_empty() {
        return Err("the query binds the document root itself");
    }
    if steps.iter().any(|s| s.pos.is_some()) {
        return Err("a positional predicate on the spine path");
    }
    let steps = steps
        .iter()
        .map(|s| GStep {
            axis: s.axis,
            test: match s.test {
                ETest::Name(sym) => GTest::Name(p.symbols().resolve(sym).to_string()),
                ETest::Star => GTest::Star,
                ETest::Text => GTest::Text,
                ETest::AnyNode => GTest::AnyNode,
            },
        })
        .collect();
    Ok(GuardPath { steps })
}

/// Check that every path an instruction subtree evaluates is rooted at a
/// variable bound (transitively) from the spine's innermost binding —
/// i.e. the body never re-enters the document outside its binding's
/// subtree. signOffs are exempt: they mutate the shard-local buffer only.
fn confined(p: &Program, id: InstrId, base: VarId) -> AResult<()> {
    struct Confined {
        base: VarId,
        err: Option<&'static str>,
    }
    impl IrVisitor for Confined {
        fn enter_instr(&mut self, p: &Program, id: InstrId, _ctx: &WalkCtx) -> bool {
            if self.err.is_some() {
                return false;
            }
            if matches!(p.instr(id), Instr::HashJoin(_)) {
                self.err = Some("a join against the whole document inside a loop body");
                return false;
            }
            true
        }

        fn visit_path(&mut self, p: &Program, id: PathId, use_: PathUse, ctx: &WalkCtx) {
            if self.err.is_some() || use_ == PathUse::SignOff {
                return;
            }
            // The walk's frames carry exactly the loops opened inside
            // the body, so a path is confined iff its root is the
            // spine's innermost binding or a variable bound below it.
            // Frames pop when a loop body is left, so a sibling item in
            // an enclosing Seq never passes on the strength of them.
            match p.path(id).root {
                PlanRoot::Var(v) if v == self.base || ctx.in_scope(v) => {}
                _ => self.err = Some("a loop body reads outside its binding's subtree"),
            }
        }
    }
    let mut v = Confined { base, err: None };
    walk_from(p, id, &mut v);
    match v.err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzed(q: &str) -> Analysis {
        let query = gcx_query::compile(q).expect("query compiles");
        let analysis = gcx_projection::analyze(&query);
        let p = Program::compile(&query, &analysis);
        let (opt, _) = gcx_ir::optimize(&p);
        analyze(&opt)
    }

    fn expect_safe(q: &str) -> ShardPlan {
        match analyzed(q) {
            Analysis::Safe(plan) => plan,
            Analysis::Unsafe(reason) => panic!("expected shard-safe, got: {reason}"),
        }
    }

    fn expect_unsafe(q: &str) -> String {
        match analyzed(q) {
            Analysis::Unsafe(reason) => reason,
            Analysis::Safe(_) => panic!("expected unsafe: {q}"),
        }
    }

    #[test]
    fn simple_spine_is_concat_with_one_guard() {
        let plan = expect_safe("for $p in /site/people/person return $p/name");
        assert_eq!(plan.mode, ShardMode::Concat);
        assert!(plan.wrappers.is_empty());
        assert_eq!(plan.guards.len(), 1);
        assert_eq!(plan.guards[0].steps.len(), 3);
    }

    #[test]
    fn wrappers_are_peeled_outermost_first() {
        let plan =
            expect_safe("<out><list>{ for $p in /site/people/person return $p/name }</list></out>");
        let names: Vec<_> = plan.wrappers.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["out", "list"]);
    }

    #[test]
    fn descendant_intermediate_binding_adds_prefix_guard() {
        let plan = expect_safe("for $r in /site/regions return for $i in $r//item return $i/name");
        // The composed prefix `/site/regions` is child-only (cannot
        // nest), so only the full spine path guards.
        assert_eq!(plan.guards.len(), 1);
        assert!(plan.guards[0].can_nest());
    }

    #[test]
    fn count_aggregate_goes_two_phase() {
        let plan = expect_safe("<count>{ count(/site/regions//item) }</count>");
        assert_eq!(plan.mode, ShardMode::SumCount);
        assert_eq!(plan.wrappers.len(), 1);
    }

    #[test]
    fn value_join_is_unsafe_via_document_class() {
        // Q8's shape: the classifier calls this Document (value join),
        // which short-circuits the structural walk.
        let reason = expect_unsafe(
            "for $p in /site/people/person return \
               for $t in /site/closed_auctions/closed_auction return \
                 if ($t/buyer/@person = $p/@id) then $p/name else ()",
        );
        assert!(!reason.is_empty());
    }

    #[test]
    fn sum_aggregate_is_unsafe() {
        let reason = expect_unsafe("<s>{ sum(/site/open_auctions/open_auction/current) }</s>");
        assert!(!reason.is_empty());
    }

    #[test]
    fn body_escaping_its_binding_is_unsafe() {
        let reason = expect_unsafe(
            "for $p in /site/people/person return \
               if (exists(/site/regions)) then $p/name else ()",
        );
        assert!(!reason.is_empty());
    }

    #[test]
    fn nested_body_loops_stay_confined() {
        expect_safe(
            "for $p in /site/people/person return \
               for $w in $p/watches/watch return $w/@open_auction",
        );
    }
}
