//! The plan-level optimizer: a pass pipeline over the lowered
//! [`Program`].
//!
//! The lowering in `lower.rs` is deliberately 1:1 — it preserves the
//! rewritten query's shape so the listing reads like the query. The
//! passes here are the place where plan-level rewrites happen:
//!
//! 1. **step-fusion** — peephole over each path's step window: drop
//!    identity `self::node()` steps and collapse adjacent
//!    `descendant-or-self::node()` pairs (the cursor's emitted-set
//!    dedup makes the pair equivalent to one step, and a single
//!    descendant step scans without the dedup set entirely).
//! 2. **shared-steps** — rebuild the step arena so paths sharing a
//!    prefix (or any contiguous step window) share storage; the Q8
//!    plan, for example, spells `child::site` four times.
//! 3. **exists-cache** — an `exists(path)` probed inside a loop whose
//!    context does not depend on the innermost loop variable re-probes
//!    the same region once per iteration. Exists answers are definitive
//!    the moment they are produced (the probe blocks until a witness
//!    arrives or its region is exhausted, and roles keep witnesses
//!    alive while the probe can still run), so the answer is memoized
//!    per resolved context node in a cache slot.
//! 4. **hash-join** — the tentpole: a nested `for $v in /path` whose
//!    body is `if ($v/key = probe) then .. else ()` is the paper
//!    benchmark's Q8 shape, quadratic under cursor re-scans. The pass
//!    replaces the `for` with [`Instr::HashJoin`]: the executor builds
//!    a keyed index during the first execution (mirroring the original
//!    loop token for token) and probes it on every later one.
//!
//! Every pass is required to keep outputs **and** buffer peaks
//! bit-identical; the invariants each pass relies on are documented
//! inline and enforced end-to-end by `tests/optimizer_differential.rs`.

use crate::program::{
    CondId, CondIr, Instr, InstrId, JoinPlan, OperandIr, PathId, PlanRoot, Program, ProgramStats,
};
use crate::step::{EAxis, ETest, EvalStep};
use crate::walk::{walk, walk_from, IrVisitor, WalkCtx};
use gcx_query::ast::{CmpOp, VarId};

/// What one optimizer pass did, for `gcx explain` and `--stats-json`.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// Pass name (`"step-fusion"`, ...).
    pub name: &'static str,
    /// Number of rewrites the pass performed (0 = no-op on this plan).
    pub changes: usize,
    /// One-line human-readable summary of the rewrites.
    pub detail: String,
}

/// The optimizer's report: per-pass diffs plus before/after program
/// shape, surfaced by `gcx explain` and the `--stats-json` schema.
#[derive(Debug, Clone)]
pub struct OptReport {
    /// Per-pass statistics, in pipeline order.
    pub passes: Vec<PassStat>,
    /// Program shape before any pass ran.
    pub before: ProgramStats,
    /// Program shape after the full pipeline.
    pub after: ProgramStats,
    /// Static cost estimate before optimization (see [`cost_estimate`]).
    pub cost_before: u64,
    /// Static cost estimate after optimization.
    pub cost_after: u64,
}

/// Run the full pass pipeline over a lowered program, returning the
/// optimized program and the report. The input program is not modified;
/// callers keep it as a differential reference and for explain diffs.
pub fn optimize(input: &Program) -> (Program, OptReport) {
    let mut p = input.clone();
    let before = p.stats();
    let cost_before = cost_estimate(&p);
    let passes = vec![
        fuse_steps(&mut p),
        share_steps(&mut p),
        cache_exists(&mut p),
        hash_joins(&mut p),
    ];
    let after = p.stats();
    let cost_after = cost_estimate(&p);
    (
        p,
        OptReport {
            passes,
            before,
            after,
            cost_before,
            cost_after,
        },
    )
}

/// Static per-plan cost estimate: each instruction's weight multiplied
/// by 100 per enclosing loop level (a crude stand-in for expected
/// iteration counts). Only useful as a *relative* number — explain
/// prints it before/after so the join rewrite's effect is visible
/// without running anything.
pub fn cost_estimate(p: &Program) -> u64 {
    fn instr_cost(p: &Program, id: InstrId, depth: u32) -> u64 {
        let scale = 100u64.saturating_pow(depth.min(4));
        match p.instr(id) {
            Instr::Nop => 0,
            Instr::Text(_) => scale,
            Instr::Seq { first, len } => {
                let mut c = 0;
                for &item in p.seq_items(first, len) {
                    c += instr_cost(p, item, depth);
                }
                c
            }
            Instr::Element { content, .. } => scale + instr_cost(p, content, depth),
            Instr::For { path, body, .. } => {
                let steps = p.path(path).step_len as u64 + 1;
                scale * (10 + steps) + instr_cost(p, body, depth + 1)
            }
            // A built index amortizes the inner scan: charge the body at
            // the *current* depth (it runs once per candidate, not once
            // per inner node) plus a flat probe cost.
            Instr::HashJoin(j) => {
                let plan = p.join(j);
                scale * 12 + instr_cost(p, plan.then_branch, depth)
            }
            Instr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                scale * cond_cost(p, cond)
                    + instr_cost(p, then_branch, depth)
                    + instr_cost(p, else_branch, depth)
            }
            Instr::OutputPath { path, .. } | Instr::Aggregate { path, .. } => {
                scale * (2 + p.path(path).step_len as u64)
            }
            Instr::SignOff { path, .. } => scale * (1 + p.path(path).step_len as u64),
        }
    }
    fn cond_cost(p: &Program, id: CondId) -> u64 {
        match p.cond(id) {
            CondIr::Const(_) => 1,
            CondIr::Not(a) => 1 + cond_cost(p, a),
            CondIr::And(a, b) | CondIr::Or(a, b) => 1 + cond_cost(p, a) + cond_cost(p, b),
            CondIr::Exists(path) => 2 + p.path(path).step_len as u64,
            // Memoized: charged as a lookup.
            CondIr::CachedExists { .. } => 1,
            CondIr::Compare { .. } | CondIr::StringFn { .. } => 4,
        }
    }
    instr_cost(p, p.root(), 0)
}

// ---- pass 1: step fusion ----------------------------------------------------

/// True for the identity step `self::node()` (no positional predicate).
fn is_self_node(s: EvalStep) -> bool {
    s.axis == EAxis::SelfAxis && s.test == ETest::AnyNode && s.pos.is_none()
}

/// True for `descendant-or-self::node()` (no positional predicate).
fn is_dos_node(s: EvalStep) -> bool {
    s.axis == EAxis::DescendantOrSelf && s.test == ETest::AnyNode && s.pos.is_none()
}

/// Paths referenced by `signOff` instructions. SignOff derivation
/// counting multiplies per-step derivations, so its paths must keep
/// their exact step sequence — fusion skips them.
fn signoff_paths(p: &Program) -> Vec<bool> {
    let mut used = vec![false; p.path_count()];
    for instr in &p.instrs {
        if let Instr::SignOff { path, .. } = *instr {
            used[path.index()] = true;
        }
    }
    used
}

/// Pass 1: peephole each evaluator path's steps.
///
/// Both rewrites preserve the evaluator cursor's match sequence (order
/// and multiplicity), verified by unit tests below:
/// - `self::node()` matches exactly the context node and can never
///   suspend, so dropping it changes nothing observable. It is kept
///   when it is the path's only step (a bare `$x/self::node()` binding
///   stays recognizable in the listing).
/// - `dos::node()/dos::node()` engages the cursor's emitted-set dedup,
///   which makes it emit every descendant-or-self node exactly once in
///   scan order — the same sequence a single `dos::node()` step emits
///   without any dedup set.
fn fuse_steps(p: &mut Program) -> PassStat {
    let skip = signoff_paths(p);
    let mut dropped_self = 0usize;
    let mut collapsed_dos = 0usize;
    let mut fused = 0usize;
    for (i, &skip_path) in skip.iter().enumerate() {
        if skip_path {
            continue;
        }
        let plan = p.paths[i];
        let steps: Vec<EvalStep> = p.path_steps(plan).to_vec();
        let mut out: Vec<EvalStep> = Vec::with_capacity(steps.len());
        for &s in &steps {
            if is_self_node(s) {
                dropped_self += 1;
                continue;
            }
            if is_dos_node(s) && out.last().copied().is_some_and(is_dos_node) {
                collapsed_dos += 1;
                continue;
            }
            out.push(s);
        }
        if out.is_empty() && !steps.is_empty() {
            // Keep a bare `self::node()` path intact.
            dropped_self -= steps.len();
            continue;
        }
        if out.len() == steps.len() {
            continue;
        }
        fused += 1;
        // Append the fused window; pass 2 rebuilds the arena and drops
        // the now-dead original window.
        let first = p.steps.len() as u32;
        let len = out.len() as u32;
        p.steps.extend(out);
        p.paths[i].first_step = first;
        p.paths[i].step_len = len;
    }
    PassStat {
        name: "step-fusion",
        changes: dropped_self + collapsed_dos,
        detail: format!(
            "{fused} paths rewritten ({dropped_self} self::node() dropped, \
             {collapsed_dos} adjacent dos::node() collapsed)"
        ),
    }
}

// ---- pass 2: shared step windows --------------------------------------------

/// Pass 2: rebuild the step arena so path plans share contiguous
/// windows. Lowering dedups *identical* paths only; distinct paths with
/// a common prefix (`/site/people/person` vs `/site/people/person/name`)
/// each get their own copy. Window reuse is purely a storage rewrite —
/// `first_step`/`step_len` move, the step sequences do not.
fn share_steps(p: &mut Program) -> PassStat {
    let before = p.steps.len();
    let mut arena: Vec<EvalStep> = Vec::with_capacity(before);
    for i in 0..p.paths.len() {
        let plan = p.paths[i];
        let want: Vec<EvalStep> = p.path_steps(plan).to_vec();
        if want.is_empty() {
            p.paths[i].first_step = 0;
            p.paths[i].step_len = 0;
            continue;
        }
        let n = want.len();
        let found =
            (0..arena.len().saturating_sub(n - 1)).find(|&at| arena[at..at + n] == want[..]);
        let first = match found {
            Some(at) => at,
            None => {
                // Extend a shared prefix off the arena's tail if one
                // lines up, otherwise append the whole window.
                let overlap = (1..n)
                    .rev()
                    .find(|&k| arena.ends_with(&want[..k]))
                    .unwrap_or(0);
                let at = arena.len() - overlap;
                arena.extend_from_slice(&want[overlap..]);
                at
            }
        };
        p.paths[i].first_step = first as u32;
        p.paths[i].step_len = n as u32;
    }
    let saved = before - arena.len();
    p.steps = arena;
    PassStat {
        name: "shared-steps",
        changes: saved,
        detail: format!(
            "step arena {before} -> {} ({saved} steps shared)",
            p.steps.len()
        ),
    }
}

// ---- pass 3: loop-invariant exists caching ----------------------------------

/// Pass 3: memoize `exists` probes that are loop-invariant under the
/// innermost enclosing `for`.
///
/// Soundness: an exists answer is definitive once produced. `true`
/// stays true — the role attached to the probed path keeps a witness
/// buffered for as long as the same context can be re-probed (signOffs
/// are placed after last use). `false` requires the probe's region to
/// be exhausted, which means every scanned subtree is closed, and
/// closed regions never gain nodes. The skipped re-probes were
/// non-blocking scans over buffered data whose only side effects are
/// transient cursor pins within a single resume, so peaks are
/// unchanged.
fn cache_exists(p: &mut Program) -> PassStat {
    /// Collects loop-invariant `exists` probes in traversal order; the
    /// mutation below assigns cache slots in that same order.
    struct Invariant {
        found: Vec<CondId>,
    }
    impl IrVisitor for Invariant {
        fn enter_instr(&mut self, p: &Program, id: InstrId, _ctx: &WalkCtx) -> bool {
            // A join's preserved fallback was vetted by its own pass;
            // probes inside it are evaluated by the join machinery, not
            // re-scanned per iteration.
            !matches!(p.instr(id), Instr::HashJoin(_))
        }
        fn visit_cond(&mut self, p: &Program, id: CondId, ctx: &WalkCtx) {
            if let CondIr::Exists(path) = p.cond(id) {
                let invariant = match p.path(path).root {
                    // Probing from the document root: same context on
                    // every iteration.
                    PlanRoot::Root => ctx.depth() > 0,
                    // Probing from an outer loop's binding: invariant
                    // under the innermost loop.
                    PlanRoot::Var(v) => ctx.innermost().is_some_and(|inner| inner != v),
                };
                if invariant {
                    self.found.push(id);
                }
            }
        }
    }
    let mut v = Invariant { found: Vec::new() };
    walk(p, &mut v);
    let cached = v.found.len();
    for id in v.found {
        let CondIr::Exists(path) = p.cond(id) else {
            unreachable!("collected conds are Exists nodes");
        };
        let slot = p.exists_slots;
        p.exists_slots += 1;
        p.conds[id.index()] = CondIr::CachedExists { path, slot };
    }
    PassStat {
        name: "exists-cache",
        changes: cached,
        detail: format!("{cached} loop-invariant exists probes memoized"),
    }
}

// ---- pass 4: hash join ------------------------------------------------------

/// True if the instruction subtree contains a `signOff`. A join's then
/// branch may contain anything *except* signOffs of roles the index
/// depends on; excluding all of them keeps the gate simple.
fn has_signoff(p: &Program, id: InstrId) -> bool {
    struct HasSignoff(bool);
    impl IrVisitor for HasSignoff {
        fn enter_instr(&mut self, p: &Program, id: InstrId, _ctx: &WalkCtx) -> bool {
            if matches!(p.instr(id), Instr::SignOff { .. }) {
                self.0 = true;
            }
            !self.0
        }
    }
    let mut v = HasSignoff(false);
    walk_from(p, id, &mut v);
    v.0
}

/// Roles signed off *inside* some `for` body. The join's multiplicity
/// snapshot (`role_count` at build time) stays valid only if the join
/// role's signOffs all sit in straight-line code — those run either
/// entirely before the outer loop starts or after it completes, never
/// between build and probe.
fn roles_signed_off_in_loops(p: &Program) -> Vec<bool> {
    struct InLoops(Vec<bool>);
    impl IrVisitor for InLoops {
        fn enter_instr(&mut self, p: &Program, id: InstrId, ctx: &WalkCtx) -> bool {
            if let Instr::SignOff { role, .. } = p.instr(id) {
                if ctx.depth() > 0 {
                    if self.0.len() <= role.index() {
                        self.0.resize(role.index() + 1, false);
                    }
                    self.0[role.index()] = true;
                }
            }
            true
        }
    }
    let mut v = InLoops(Vec::new());
    walk(p, &mut v);
    v.0
}

/// True if the operand is independent of `var` (a literal, or a path
/// rooted elsewhere) — i.e. usable as the probe side.
fn operand_independent_of(p: &Program, op: OperandIr, var: VarId) -> bool {
    match op {
        OperandIr::Lit { .. } => true,
        OperandIr::Path { path, .. } => p.path(path).root != PlanRoot::Var(var),
    }
}

/// The key side of an operand pair: a path rooted at `var`.
fn operand_rooted_at(p: &Program, op: OperandIr, var: VarId) -> Option<PathId> {
    match op {
        OperandIr::Path { path, .. } if p.path(path).root == PlanRoot::Var(var) => Some(path),
        _ => None,
    }
}

/// Pass 4: replace eligible nested for-loops with [`Instr::HashJoin`].
///
/// Eligibility (all checked structurally):
/// - the `for` sits inside at least one enclosing loop (otherwise it
///   runs once and there is nothing to amortize);
/// - its binding path is rooted at the document root with no attribute
///   selector — the indexed sequence is identical on every execution;
/// - its body is `if (key = probe) then .. else ()` where `key` is a
///   path rooted at the loop variable and `probe` does not mention it;
/// - the then branch contains no signOff, and the loop's binding role
///   is never signed off inside any loop (see
///   [`roles_signed_off_in_loops`]) — so the multiplicity recorded per
///   index entry at build time is still correct at probe time.
///
/// The executor builds the index during the join's *first* execution by
/// running the original iteration verbatim (same cursor, same operand
/// evaluation order, same then/else branching), teeing key values into
/// the index as a side effect — which is why outputs, token interleaving
/// and buffer peaks are identical by construction. Later executions
/// probe: stale index entries (generation-tagged node ids) divert to
/// `fallback`, the preserved original loop.
fn hash_joins(p: &mut Program) -> PassStat {
    struct Candidate {
        instr: InstrId,
        plan: JoinPlan,
    }
    /// Detects candidates in `leave_instr` — post-order, so inner loops
    /// are examined (and later rewritten) before outer ones.
    struct Finder<'a> {
        in_loop_roles: &'a [bool],
        out: Vec<Candidate>,
    }
    impl IrVisitor for Finder<'_> {
        fn enter_instr(&mut self, p: &Program, id: InstrId, _ctx: &WalkCtx) -> bool {
            // An existing join's fallback is the exact loop this pass
            // already rewrote — descending would re-detect it on every
            // re-optimization.
            !matches!(p.instr(id), Instr::HashJoin(_))
        }
        fn leave_instr(&mut self, p: &Program, id: InstrId, ctx: &WalkCtx) {
            let Instr::For {
                var,
                path,
                role,
                body,
            } = p.instr(id)
            else {
                return;
            };
            // The frame for this loop popped before `leave`, so depth()
            // counts *enclosing* loops only.
            if ctx.depth() == 0 {
                return;
            }
            let plan = p.path(path);
            if plan.root != PlanRoot::Root || plan.attr != crate::program::AttrPlan::None {
                return;
            }
            let Instr::If {
                cond,
                then_branch,
                else_branch,
            } = p.instr(body)
            else {
                return;
            };
            if !matches!(p.instr(else_branch), Instr::Nop) {
                return;
            }
            let CondIr::Compare {
                op: CmpOp::Eq,
                lhs,
                rhs,
            } = p.cond(cond)
            else {
                return;
            };
            let key_is_lhs = match (
                operand_rooted_at(p, p.operand(lhs), var),
                operand_rooted_at(p, p.operand(rhs), var),
            ) {
                (Some(_), None) => true,
                (None, Some(_)) => false,
                _ => return,
            };
            let probe = if key_is_lhs { rhs } else { lhs };
            if !operand_independent_of(p, p.operand(probe), var) {
                return;
            }
            if has_signoff(p, then_branch) {
                return;
            }
            if self
                .in_loop_roles
                .get(role.index())
                .copied()
                .unwrap_or(false)
            {
                return;
            }
            self.out.push(Candidate {
                instr: id,
                plan: JoinPlan {
                    var,
                    path,
                    role,
                    lhs,
                    rhs,
                    key_is_lhs,
                    then_branch,
                    // Patched below once the fallback copy exists.
                    fallback: id,
                },
            });
        }
    }
    let in_loop_roles = roles_signed_off_in_loops(p);
    let mut finder = Finder {
        in_loop_roles: &in_loop_roles,
        out: Vec::new(),
    };
    walk(p, &mut finder);
    let found = finder.out;
    let n = found.len();
    let mut names = Vec::new();
    for mut cand in found {
        // Preserve the original loop verbatim as the stale-index
        // fallback, then overwrite it in place with the join so every
        // existing reference picks the join up.
        let fallback = InstrId(p.instrs.len() as u32);
        p.instrs.push(p.instr(cand.instr));
        cand.plan.fallback = fallback;
        let j = p.joins.len() as u32;
        p.joins.push(cand.plan);
        p.instrs[cand.instr.index()] = Instr::HashJoin(j);
        names.push(format!("${}", p.var_name(cand.plan.var)));
    }
    PassStat {
        name: "hash-join",
        changes: n,
        detail: if n == 0 {
            "no eligible nested equality loops".to_string()
        } else {
            format!(
                "nested loops over {} now build+probe a keyed index",
                names.join(", ")
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_projection::analyze;
    use gcx_query::compile as compile_query;

    fn optimized(q: &str) -> (Program, Program, OptReport) {
        let query = compile_query(q).expect("query compiles");
        let analysis = analyze(&query);
        let p = Program::compile(&query, &analysis);
        let (opt, report) = optimize(&p);
        (p, opt, report)
    }

    fn pass<'r>(r: &'r OptReport, name: &str) -> &'r PassStat {
        r.passes.iter().find(|p| p.name == name).expect("pass ran")
    }

    #[test]
    fn self_node_steps_are_dropped() {
        let (_, opt, report) =
            optimized("for $x in /site/self::node()/child::item return <i>{$x/child::name}</i>");
        assert!(pass(&report, "step-fusion").changes >= 1);
        // The fused binding path no longer spells the self step.
        let listing = opt.listing();
        assert!(
            !listing.contains("= self::node()"),
            "self step survived:\n{listing}"
        );
    }

    #[test]
    fn adjacent_dos_steps_collapse() {
        let (plain, opt, report) = optimized(
            "for $x in /descendant-or-self::node()/descendant-or-self::node() return <n/>",
        );
        assert_eq!(pass(&report, "step-fusion").changes, 1);
        assert!(opt.stats().steps < plain.stats().steps);
    }

    #[test]
    fn bare_self_node_path_is_kept() {
        let (plain, opt, _) =
            optimized("for $x in /a return for $y in $x/self::node() return <n/>");
        // `$x/self::node()` must keep its only step.
        assert_eq!(plain.stats().steps, opt.stats().steps);
        assert!(opt.listing().contains("= self::node()"));
    }

    #[test]
    fn shared_prefixes_share_arena_windows() {
        let (plain, opt, report) = optimized(
            "for $x in /site/people/person return <p>{$x/child::name}</p>, \
             for $y in /site/people/person/child::address return <a/>",
        );
        let shared = pass(&report, "shared-steps");
        assert!(shared.changes > 0, "no sharing: {}", shared.detail);
        assert!(opt.stats().steps < plain.stats().steps);
        // Sharing moves windows but never changes any path's steps.
        for i in 0..plain.path_count() {
            let id = crate::PathId(i as u32);
            assert_eq!(plain.path_display(id), opt.path_display(id), "path p{i}");
        }
    }

    #[test]
    fn loop_invariant_exists_is_cached() {
        let (_, opt, report) = optimized(
            "for $x in /site/person return \
               if (exists(/site/open_auctions/auction)) then <y/> else <n/>",
        );
        assert_eq!(pass(&report, "exists-cache").changes, 1);
        assert_eq!(opt.exists_slots(), 1);
        assert!(opt.listing().contains("[cache slot 0]"));
    }

    #[test]
    fn innermost_var_exists_is_not_cached() {
        let (_, opt, report) = optimized(
            "for $x in /site/person return \
               if (exists($x/child::name)) then <y/> else <n/>",
        );
        assert_eq!(pass(&report, "exists-cache").changes, 0);
        assert_eq!(opt.exists_slots(), 0);
    }

    #[test]
    fn q8_shape_becomes_a_hash_join() {
        let (plain, opt, report) = optimized(
            "for $p in /site/people/person return \
               for $t in /site/closed_auctions/closed_auction return \
                 if ($t/child::buyer/@person = $p/@id) then <item/> else ()",
        );
        assert_eq!(pass(&report, "hash-join").changes, 1);
        assert_eq!(opt.join_count(), 1);
        let j = opt.join(0);
        assert!(j.key_is_lhs);
        // The fallback is a verbatim copy of the original For.
        assert!(matches!(opt.instr(j.fallback), Instr::For { .. }));
        assert!(report.cost_after < report.cost_before);
        assert_eq!(plain.join_count(), 0);
    }

    #[test]
    fn top_level_loop_is_not_a_join() {
        let (_, _, report) = optimized(
            "for $t in /site/closed_auction return \
               if ($t/child::buyer/@person = \"p0\") then <i/> else ()",
        );
        assert_eq!(pass(&report, "hash-join").changes, 0);
    }

    #[test]
    fn var_rooted_inner_path_is_not_a_join() {
        let (_, _, report) = optimized(
            "for $p in /site/people/person return \
               for $t in $p/child::watches/child::watch return \
                 if ($t/@id = $p/@id) then <i/> else ()",
        );
        assert_eq!(pass(&report, "hash-join").changes, 0);
    }

    #[test]
    fn join_with_else_branch_is_rejected() {
        let (_, _, report) = optimized(
            "for $p in /site/people/person return \
               for $t in /site/closed_auctions/closed_auction return \
                 if ($t/child::buyer/@person = $p/@id) then <item/> else <miss/>",
        );
        assert_eq!(pass(&report, "hash-join").changes, 0);
    }

    #[test]
    fn optimizing_twice_is_idempotent_on_joins() {
        let (_, opt, _) = optimized(
            "for $p in /site/people/person return \
               for $t in /site/closed_auctions/closed_auction return \
                 if ($t/child::buyer/@person = $p/@id) then <item/> else ()",
        );
        let (opt2, report2) = optimize(&opt);
        assert_eq!(pass(&report2, "hash-join").changes, 0);
        assert_eq!(opt2.join_count(), opt.join_count());
    }
}
