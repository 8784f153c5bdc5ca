//! The plan-level optimizer: one rewrite over the lowered [`Program`].
//!
//! The lowering in `lower.rs` is deliberately 1:1 — it preserves the
//! rewritten query's shape so the listing reads like the query. The one
//! plan-level rewrite is here:
//!
//! **hash-join** — a nested `for $v in /path` whose body is
//! `if ($v/key = probe) then .. else ()` is the paper benchmark's Q8
//! shape, quadratic under cursor re-scans. The pass replaces the `for`
//! with [`Instr::HashJoin`]: the executor builds a keyed index during
//! the first execution (mirroring the original loop token for token)
//! and probes it on every later one.
//!
//! The rewrite is required to keep outputs **and** buffer peaks
//! bit-identical; the invariants it relies on are documented inline and
//! enforced end-to-end by `tests/optimizer_differential.rs`, which also
//! checks that every plan without a join shape is left exactly as
//! lowered.

use crate::program::{
    CondId, CondIr, Instr, InstrId, JoinPlan, OperandIr, PathId, PlanRoot, Program, ProgramStats,
};
use crate::walk::{walk, walk_from, IrVisitor, WalkCtx};
use gcx_query::ast::{CmpOp, VarId};

/// What one optimizer pass did, for `gcx explain` and `--stats-json`.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// Pass name (`"hash-join"`).
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

/// Run the optimizer (the hash-join rewrite) over a lowered program,
/// returning the optimized program and the report. The input program is
/// not modified; callers keep it as a differential reference and for
/// explain diffs.
pub fn optimize(input: &Program) -> (Program, OptReport) {
    let mut p = input.clone();
    let before = p.stats();
    let cost_before = cost_estimate(&p);
    let passes = vec![hash_joins(&mut p)];
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
            CondIr::Compare { .. } | CondIr::StringFn { .. } => 4,
        }
    }
    instr_cost(p, p.root(), 0)
}

// ---- the hash join ---------------------------------------------------------

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

/// Replace eligible nested for-loops with [`Instr::HashJoin`].
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
