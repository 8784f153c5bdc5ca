//! A shared, read-only traversal of the compiled [`Program`].
//!
//! Several layers walk the instruction tree with the same scaffolding
//! and different questions: the optimizer looks for signOffs and join
//! candidates, the shard-safety analysis checks that loop bodies stay
//! confined to their binding, and the streamability classifier assigns
//! buffer-bound classes. Before this module each walk re-implemented
//! the recursion (and each had to remember the same traps: `Seq` item
//! order, `for` scoping, what a `HashJoin` hides). The driver here owns
//! the recursion once; callers implement [`IrVisitor`] and read the
//! loop context off [`WalkCtx`].
//!
//! Traversal order is fixed and documented, because two users depend on
//! it: the exists-cache pass numbers its slots in visit order, and the
//! join pass collects candidates in post-order (`leave_instr`) so inner
//! loops are rewritten before outer ones. For every instruction:
//! `enter_instr` first (return `false` to skip the subtree), then its
//! paths/conditions/children — `Seq` items in sequence order, `If` as
//! condition tree, then branch, else branch, `For` as binding path,
//! then the body inside the new frame — and `leave_instr` last.
//!
//! A [`Instr::HashJoin`] is walked through its `fallback`: the
//! preserved original `for`, whose body covers the join's then branch,
//! so by default a visitor sees the loop exactly as it was before the
//! rewrite. Visitors that must treat joins specially (or must not see
//! the fallback twice) intercept them in `enter_instr` and return
//! `false`.

use crate::program::{CondId, CondIr, Instr, InstrId, OperandIr, PathId, Program};
use gcx_query::ast::VarId;

/// Why a path is being visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathUse {
    /// The binding path of a `for` (visited before its frame opens).
    Binding,
    /// A path in output position: the matching nodes are emitted.
    Output,
    /// The argument of an aggregate.
    Aggregate,
    /// The path of a `signOff` statement — buffer-local, never output.
    SignOff,
    /// The path probed by `exists` (cached or not).
    Exists,
    /// A path operand of a comparison or string predicate.
    Operand,
}

/// Traversal state: the stack of `for` frames enclosing the current
/// visit, outermost first.
#[derive(Debug, Default)]
pub struct WalkCtx {
    frames: Vec<(VarId, PathId)>,
}

impl WalkCtx {
    /// Number of enclosing loops.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.frames.len() as u32
    }

    /// The innermost enclosing loop variable, if any.
    #[inline]
    pub fn innermost(&self) -> Option<VarId> {
        self.frames.last().map(|&(v, _)| v)
    }

    /// Whether `v` is bound by an enclosing loop. Frames pop when their
    /// body is left, so a sibling later in a `Seq` never sees them.
    #[inline]
    pub fn in_scope(&self, v: VarId) -> bool {
        self.frames.iter().any(|&(f, _)| f == v)
    }

    /// The enclosing loop frames (variable, binding path), outermost
    /// first.
    #[inline]
    pub fn frames(&self) -> &[(VarId, PathId)] {
        &self.frames
    }
}

/// A visitor over the instruction tree. Every hook has a default no-op
/// body, so an implementation states only the events it cares about.
pub trait IrVisitor {
    /// Called before an instruction's paths, conditions and children.
    /// Return `false` to skip the whole subtree, including the matching
    /// [`IrVisitor::leave_instr`].
    fn enter_instr(&mut self, _p: &Program, _id: InstrId, _ctx: &WalkCtx) -> bool {
        true
    }

    /// Called after an instruction's children (post-order position).
    fn leave_instr(&mut self, _p: &Program, _id: InstrId, _ctx: &WalkCtx) {}

    /// Called for every condition node, parents before children.
    fn visit_cond(&mut self, _p: &Program, _id: CondId, _ctx: &WalkCtx) {}

    /// Called for every path reference, with the position it is used in.
    fn visit_path(&mut self, _p: &Program, _id: PathId, _use_: PathUse, _ctx: &WalkCtx) {}
}

/// Walk the whole program from its root.
pub fn walk<V: IrVisitor>(p: &Program, v: &mut V) {
    let mut ctx = WalkCtx::default();
    walk_instr(p, p.root(), v, &mut ctx);
}

/// Walk one instruction subtree. The context starts empty: `depth()`
/// counts loops *below* `id`, not loops enclosing it in the program.
pub fn walk_from<V: IrVisitor>(p: &Program, id: InstrId, v: &mut V) {
    let mut ctx = WalkCtx::default();
    walk_instr(p, id, v, &mut ctx);
}

fn walk_instr<V: IrVisitor>(p: &Program, id: InstrId, v: &mut V, ctx: &mut WalkCtx) {
    if !v.enter_instr(p, id, ctx) {
        return;
    }
    match p.instr(id) {
        Instr::Nop | Instr::Text(_) => {}
        Instr::Seq { first, len } => {
            for &item in p.seq_items(first, len) {
                walk_instr(p, item, v, ctx);
            }
        }
        Instr::Element { content, .. } => walk_instr(p, content, v, ctx),
        Instr::For {
            var, path, body, ..
        } => {
            v.visit_path(p, path, PathUse::Binding, ctx);
            ctx.frames.push((var, path));
            walk_instr(p, body, v, ctx);
            ctx.frames.pop();
        }
        Instr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            walk_cond(p, cond, v, ctx);
            walk_instr(p, then_branch, v, ctx);
            walk_instr(p, else_branch, v, ctx);
        }
        Instr::OutputPath { path, .. } => v.visit_path(p, path, PathUse::Output, ctx),
        Instr::Aggregate { path, .. } => v.visit_path(p, path, PathUse::Aggregate, ctx),
        Instr::SignOff { path, .. } => v.visit_path(p, path, PathUse::SignOff, ctx),
        Instr::HashJoin(j) => walk_instr(p, p.join(j).fallback, v, ctx),
    }
    v.leave_instr(p, id, ctx);
}

fn walk_cond<V: IrVisitor>(p: &Program, id: CondId, v: &mut V, ctx: &mut WalkCtx) {
    v.visit_cond(p, id, ctx);
    match p.cond(id) {
        CondIr::Const(_) => {}
        CondIr::Not(a) => walk_cond(p, a, v, ctx),
        CondIr::And(a, b) | CondIr::Or(a, b) => {
            walk_cond(p, a, v, ctx);
            walk_cond(p, b, v, ctx);
        }
        CondIr::Exists(path) | CondIr::CachedExists { path, .. } => {
            v.visit_path(p, path, PathUse::Exists, ctx);
        }
        CondIr::Compare { lhs, rhs, .. }
        | CondIr::StringFn {
            haystack: lhs,
            needle: rhs,
            ..
        } => {
            for op in [lhs, rhs] {
                if let OperandIr::Path { path, .. } = p.operand(op) {
                    v.visit_path(p, path, PathUse::Operand, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_projection::analyze;
    use gcx_query::compile as compile_query;

    fn program(q: &str) -> Program {
        let query = compile_query(q).expect("query compiles");
        let analysis = analyze(&query);
        Program::compile(&query, &analysis)
    }

    /// Records every event in order, as compact strings.
    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
    }

    impl IrVisitor for Recorder {
        fn enter_instr(&mut self, p: &Program, id: InstrId, ctx: &WalkCtx) -> bool {
            let kind = match p.instr(id) {
                Instr::Nop => "nop",
                Instr::Text(_) => "text",
                Instr::Seq { .. } => "seq",
                Instr::Element { .. } => "element",
                Instr::For { .. } => "for",
                Instr::If { .. } => "if",
                Instr::OutputPath { .. } => "output",
                Instr::Aggregate { .. } => "aggregate",
                Instr::SignOff { .. } => "signoff",
                Instr::HashJoin(_) => "hashjoin",
            };
            self.events.push(format!("enter {kind}@{}", ctx.depth()));
            true
        }

        fn leave_instr(&mut self, p: &Program, id: InstrId, ctx: &WalkCtx) {
            if let Instr::For { .. } = p.instr(id) {
                self.events.push(format!("leave for@{}", ctx.depth()));
            }
        }

        fn visit_path(&mut self, p: &Program, id: PathId, use_: PathUse, ctx: &WalkCtx) {
            self.events
                .push(format!("{use_:?}@{} {}", ctx.depth(), p.path_display(id)));
        }
    }

    #[test]
    fn frames_open_after_binding_and_close_before_leave() {
        let mut v = Recorder::default();
        walk(
            &program("for $a in /x/y return for $b in $a/z return $b/w"),
            &mut v,
        );
        let log = v.events.join("\n");
        // The binding path is visited at the *enclosing* depth; the body
        // runs one deeper; leave fires after the frame pops.
        assert!(log.contains("Binding@0 /child::x/child::y"), "{log}");
        assert!(log.contains("Binding@1 $a/child::z"), "{log}");
        assert!(log.contains("Output@2 $b/child::w"), "{log}");
        assert!(log.contains("leave for@1"), "{log}");
        assert!(log.contains("leave for@0"), "{log}");
    }

    #[test]
    fn cond_paths_are_visited_with_their_use() {
        let mut v = Recorder::default();
        walk(
            &program(
                "for $a in /x return \
                   if (exists($a/k) and $a/v = \"3\") then $a/out else ()",
            ),
            &mut v,
        );
        let log = v.events.join("\n");
        assert!(log.contains("Exists@1 $a/child::k"), "{log}");
        assert!(log.contains("Operand@1 $a/child::v"), "{log}");
        assert!(log.contains("Output@1 $a/child::out"), "{log}");
    }

    #[test]
    fn sibling_seq_items_do_not_inherit_frames() {
        struct Scope {
            saw_second_binding_depth: Option<u32>,
        }
        impl IrVisitor for Scope {
            fn visit_path(&mut self, p: &Program, id: PathId, use_: PathUse, ctx: &WalkCtx) {
                if use_ == PathUse::Binding && p.path_display(id).contains("child::b") {
                    self.saw_second_binding_depth = Some(ctx.depth());
                }
            }
        }
        let mut v = Scope {
            saw_second_binding_depth: None,
        };
        walk(
            &program("(for $x in /r/a return $x, for $y in /r/b return $y)"),
            &mut v,
        );
        // The second loop is a sibling of the first, not nested in it.
        assert_eq!(v.saw_second_binding_depth, Some(0));
    }
}
