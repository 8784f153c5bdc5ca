//! Lazy document-order path iteration over the buffer, with blocking.
//!
//! A [`PathCursor`] enumerates the nodes matching a step sequence below a
//! context node, in document order, *while the document is still
//! streaming in*. When iteration reaches the end of a node's currently
//! buffered children and that node is still open, the cursor reports
//! [`CursorState::NeedInput`]; the engine pulls one token from the
//! preprojector and retries. This is exactly the paper's blocking protocol:
//! "query evaluation remains blocked until the buffer manager has
//! responded", with the buffer manager issuing `nextNode()` requests.
//!
//! Every node the cursor references (frame contexts and scan positions) is
//! **pinned** in the buffer, so active garbage collection — which may run
//! between two `advance` calls as signOffs from the loop body execute —
//! never frees a node the cursor will touch again. A match stays pinned as
//! the scan position of its parent frame until the cursor advances past it,
//! which is what keeps a for-loop's current binding alive through the body.

use crate::buffer::{BufferTree, NodeId};
use gcx_xml::{FxBuildHasher, Symbol};
use std::collections::HashSet;

pub use gcx_ir::{EAxis, ETest, EvalStep};

/// Buffer-side behaviour of a compiled node test. The data type lives in
/// `gcx-ir` (steps are compiled once, at query-compile time); this trait
/// supplies the half that needs the run's [`BufferTree`].
pub trait StepTest {
    /// Does `node` satisfy the test?
    fn matches(self, buf: &BufferTree, node: NodeId) -> bool;

    /// The document ordinal of `node` relevant to a `[k]` predicate on a
    /// child step with this test: same-name position for name tests,
    /// element position for `*`, text position for `text()`, any-sibling
    /// position for `node()`.
    fn pred_ordinal(self, buf: &BufferTree, node: NodeId) -> u32;
}

impl StepTest for ETest {
    fn matches(self, buf: &BufferTree, node: NodeId) -> bool {
        match self {
            ETest::Name(s) => buf.name(node) == Some(s),
            ETest::Star => !buf.is_text(node),
            ETest::Text => buf.is_text(node),
            ETest::AnyNode => true,
        }
    }

    fn pred_ordinal(self, buf: &BufferTree, node: NodeId) -> u32 {
        let o = buf.ordinals(node);
        match self {
            ETest::Name(_) | ETest::Text => o.same_kind,
            ETest::Star => o.elem,
            ETest::AnyNode => o.any,
        }
    }
}

/// Result of one [`PathCursor::advance`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorState {
    /// The next match in document order.
    Match(NodeId),
    /// More input is needed: pull a token and call `advance` again.
    NeedInput,
    /// Iteration complete.
    Done,
}

#[derive(Debug, Clone, Copy)]
enum FrameKind {
    /// Dispatch `steps[step..]` against `node` (one-shot).
    Eval,
    /// Child-axis scan over `node`'s children.
    ChildScan {
        /// Last child examined (pinned); None = before the first.
        last: Option<NodeId>,
    },
    /// Descendant scan: each child is evaluated descendant-or-self.
    DescScan {
        /// Last child examined (pinned).
        last: Option<NodeId>,
    },
    /// Descendant-or-self entry at `node`: check self, then descend.
    DosEntry,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    node: NodeId,
    step: usize,
    kind: FrameKind,
}

/// Recycled cursor innards: the evaluator creates one cursor per path
/// evaluation (per loop binding for conditions), so the frame stack would
/// otherwise be allocated and dropped at binding rate. Owned by the
/// evaluator, threaded through [`PathCursor::new_pooled`] /
/// [`PathCursor::dispose`].
#[derive(Debug, Default)]
pub struct CursorPool {
    stacks: Vec<Vec<Frame>>,
}

/// A lazy, pinned, blocking path iterator. Create with
/// [`PathCursor::new_pooled`], drive with [`PathCursor::advance`], and
/// always dispose with [`PathCursor::finish`] / [`PathCursor::dispose`]
/// (or run it to `Done`) so pins are released.
///
/// A cursor does not hold its steps: it remembers which range of the
/// compiled program's step arena they are, and every call that reads them
/// is lent the arena — the same one each time. Opening a cursor copies and
/// counts nothing.
#[derive(Debug)]
pub struct PathCursor {
    /// The cursor's steps: `arena[first..first + len]`.
    first: u32,
    len: u32,
    stack: Vec<Frame>,
    done: bool,
    /// XQuery paths select *distinct* nodes, but two or more descendant
    /// axes in one path can reach a node through several derivations.
    /// Only then is the (purge-safe: ids are generation-tagged) dedup set
    /// engaged. Boxed so the common cursor stays small: cursors live
    /// inside the resumable evaluator's continuation frames, which are
    /// moved on and off the task stack as loops suspend and resume.
    #[allow(clippy::box_collection)] // deliberate: shrinks every cursor for a rare feature
    emitted: Option<Box<HashSet<NodeId, FxBuildHasher>>>,
}

impl PathCursor {
    /// Start iterating matches of `arena[steps]` below `ctx`, with a
    /// recycled frame stack from `pool`.
    pub fn new_pooled(
        buf: &mut BufferTree,
        ctx: NodeId,
        arena: &[EvalStep],
        steps: std::ops::Range<u32>,
        pool: &mut CursorPool,
    ) -> PathCursor {
        buf.pin(ctx);
        let descendant_steps = arena[steps.start as usize..steps.end as usize]
            .iter()
            .filter(|s| matches!(s.axis, EAxis::Descendant | EAxis::DescendantOrSelf))
            .count();
        let mut stack = pool.stacks.pop().unwrap_or_default();
        stack.push(Frame {
            node: ctx,
            step: 0,
            kind: FrameKind::Eval,
        });
        PathCursor {
            first: steps.start,
            len: steps.end - steps.start,
            stack,
            done: false,
            emitted: (descendant_steps >= 2).then(|| Box::new(HashSet::default())),
        }
    }

    /// Release pins and return the frame stack to `pool`.
    pub fn dispose(mut self, buf: &mut BufferTree, pool: &mut CursorPool) {
        self.finish(buf);
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        pool.stacks.push(stack);
    }

    /// Release every pin. Idempotent; must be called when abandoning the
    /// cursor before `Done`.
    pub fn finish(&mut self, buf: &mut BufferTree) {
        while let Some(f) = self.stack.pop() {
            if let FrameKind::ChildScan { last: Some(c) } | FrameKind::DescScan { last: Some(c) } =
                f.kind
            {
                buf.unpin(c);
            }
            buf.unpin(f.node);
        }
        self.done = true;
    }

    /// Produce the next match, request input, or finish.
    pub fn advance(&mut self, buf: &mut BufferTree, arena: &[EvalStep]) -> CursorState {
        if self.done {
            return CursorState::Done;
        }
        let steps = &arena[self.first as usize..][..self.len as usize];
        loop {
            let Some(top_idx) = self.stack.len().checked_sub(1) else {
                self.done = true;
                return CursorState::Done;
            };
            // Copy the frame out so the stack can be mutated freely below.
            let Frame { node, step, kind } = self.stack[top_idx];
            match kind {
                FrameKind::Eval => {
                    if step == steps.len() {
                        self.pop(buf);
                        if let Some(emitted) = self.emitted.as_mut() {
                            if !emitted.insert(node) {
                                continue; // duplicate derivation of a node
                            }
                        }
                        return CursorState::Match(node);
                    }
                    let s = steps[step];
                    match s.axis {
                        EAxis::Child => {
                            self.stack[top_idx].kind = FrameKind::ChildScan { last: None };
                        }
                        EAxis::Descendant => {
                            self.stack[top_idx].kind = FrameKind::DescScan { last: None };
                        }
                        EAxis::DescendantOrSelf => {
                            self.stack[top_idx].kind = FrameKind::DosEntry;
                        }
                        EAxis::SelfAxis => {
                            if s.test.matches(buf, node) {
                                self.stack[top_idx].step += 1;
                                // kind stays Eval: re-dispatch next round.
                            } else {
                                self.pop(buf);
                            }
                        }
                    }
                }
                FrameKind::DosEntry => {
                    // Become the descendant scan; but first, the self part
                    // (pushed on top so it is handled before descending —
                    // document order).
                    self.stack[top_idx].kind = FrameKind::DescScan { last: None };
                    let s = steps[step];
                    if s.test.matches(buf, node) {
                        self.push(buf, node, step + 1);
                    }
                }
                FrameKind::ChildScan { last } => {
                    let next = match last {
                        None => buf.first_child(node),
                        Some(c) => buf.next_sibling(c),
                    };
                    match next {
                        Some(c) => {
                            // Move the scan-position pin forward.
                            buf.pin(c);
                            if let Some(old) = last {
                                buf.unpin(old);
                            }
                            let s = steps[step];
                            let mut emit = false;
                            let mut exhausted = false;
                            if s.test.matches(buf, c) {
                                // Positional predicates compare against
                                // *document* ordinals: projection may have
                                // dropped earlier matching siblings.
                                match s.pos {
                                    Some(k) => {
                                        let ord = s.test.pred_ordinal(buf, c);
                                        emit = ord == k;
                                        exhausted = ord >= k;
                                    }
                                    None => emit = true,
                                }
                            }
                            self.stack[top_idx].kind = FrameKind::ChildScan { last: Some(c) };
                            if emit {
                                self.push(buf, c, step + 1);
                            }
                            if exhausted && !emit {
                                self.pop(buf);
                            }
                        }
                        None => {
                            if buf.is_closed(node) {
                                self.pop(buf);
                            } else if let ETest::Name(want) = steps[step].test {
                                // Earliest scan end: `node` is still open,
                                // but a DTD sibling-order cutoff can prove
                                // no further `want` child will arrive.
                                if buf.schema_sibling_exhausted(node, want) {
                                    buf.schema_count_scan_end();
                                    self.pop(buf);
                                } else {
                                    return CursorState::NeedInput;
                                }
                            } else {
                                return CursorState::NeedInput;
                            }
                        }
                    }
                }
                FrameKind::DescScan { last } => {
                    let next = match last {
                        None => buf.first_child(node),
                        Some(c) => buf.next_sibling(c),
                    };
                    match next {
                        Some(c) => {
                            buf.pin(c);
                            if let Some(old) = last {
                                buf.unpin(old);
                            }
                            self.stack[top_idx].kind = FrameKind::DescScan { last: Some(c) };
                            // The child is evaluated descendant-or-self at
                            // the same step (its own frame pin).
                            buf.pin(c);
                            self.stack.push(Frame {
                                node: c,
                                step,
                                kind: FrameKind::DosEntry,
                            });
                        }
                        None => {
                            if buf.is_closed(node) {
                                self.pop(buf);
                            } else {
                                return CursorState::NeedInput;
                            }
                        }
                    }
                }
            }
        }
    }

    /// After [`CursorState::NeedInput`]: the scan the cursor is blocked
    /// on, as `(parent, last-examined-child, wanted-child-name)`. The
    /// cursor can only make progress once `parent` gains a child after
    /// `last` or closes — the engine uses this to batch token application
    /// between suspension checks instead of re-entering the evaluator per
    /// token. The wanted name is `Some` only for a child-axis name scan:
    /// there, a schema sibling-order cutoff proving `want` exhausted also
    /// unblocks the scan (it will end early on resume). Both nodes are
    /// pinned by the blocked frame, so the hint stays valid across
    /// garbage collection.
    pub fn wait_hint(
        &self,
        arena: &[EvalStep],
    ) -> Option<(NodeId, Option<NodeId>, Option<Symbol>)> {
        let steps = &arena[self.first as usize..][..self.len as usize];
        let f = self.stack.last()?;
        match f.kind {
            FrameKind::ChildScan { last } => {
                let want = match steps[f.step].test {
                    ETest::Name(s) => Some(s),
                    _ => None,
                };
                Some((f.node, last, want))
            }
            FrameKind::DescScan { last } => Some((f.node, last, None)),
            _ => None,
        }
    }

    fn push(&mut self, buf: &mut BufferTree, node: NodeId, step: usize) {
        buf.pin(node);
        self.stack.push(Frame {
            node,
            step,
            kind: FrameKind::Eval,
        });
    }

    fn pop(&mut self, buf: &mut BufferTree) {
        let f = self.stack.pop().expect("pop on empty cursor stack");
        if let FrameKind::ChildScan { last: Some(c) } | FrameKind::DescScan { last: Some(c) } =
            f.kind
        {
            buf.unpin(c);
        }
        buf.unpin(f.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Ordinals;
    use gcx_query::ast::RoleId;
    use gcx_xml::SymbolTable;

    impl PathCursor {
        /// Start iterating matches of all of `arena` below `ctx`, with a
        /// frame stack of its own.
        fn new(buf: &mut BufferTree, ctx: NodeId, arena: &[EvalStep]) -> PathCursor {
            let mut pool = CursorPool::default();
            PathCursor::new_pooled(buf, ctx, arena, 0..arena.len() as u32, &mut pool)
        }
    }

    /// Ordinal helper: position k among same-name siblings, same among all.
    fn ord(k: u32) -> Ordinals {
        Ordinals {
            same_kind: k,
            elem: k,
            any: k,
        }
    }

    /// Build a small closed tree:
    /// <a><b/><c><b>text</b></c><b/></a>  (all nodes role-pinned alive)
    fn build() -> (BufferTree, SymbolTable, NodeId) {
        let mut sy = SymbolTable::new();
        let (a, b, c) = (sy.intern("a"), sy.intern("b"), sy.intern("c"));
        let mut buf = BufferTree::new(true);
        let r = &[(RoleId(0), 1)][..];
        let na = buf.append_element(NodeId::ROOT, a, r, ord(1));
        let nb1 = buf.append_element(na, b, r, ord(1));
        buf.close(nb1);
        let nc = buf.append_element(
            na,
            c,
            r,
            Ordinals {
                same_kind: 1,
                elem: 2,
                any: 2,
            },
        );
        let nb2 = buf.append_element(nc, b, r, ord(1));
        buf.append_text(nb2, "text", r, ord(1));
        buf.close(nb2);
        buf.close(nc);
        let nb3 = buf.append_element(
            na,
            b,
            r,
            Ordinals {
                same_kind: 2,
                elem: 3,
                any: 3,
            },
        );
        buf.close(nb3);
        buf.close(na);
        buf.close(NodeId::ROOT);
        (buf, sy, na)
    }

    /// Every match of `steps` below `ctx`, in the order produced.
    fn drain(buf: &mut BufferTree, ctx: NodeId, steps: &[EvalStep]) -> Vec<NodeId> {
        let mut cur = PathCursor::new(buf, ctx, steps);
        let mut out = Vec::new();
        loop {
            match cur.advance(buf, steps) {
                CursorState::Match(n) => out.push(n),
                CursorState::Done => break,
                CursorState::NeedInput => panic!("closed tree cannot need input"),
            }
        }
        out
    }

    #[test]
    fn child_axis_in_document_order() {
        let (mut buf, sy, na) = build();
        let b = sy.get("b").unwrap();
        let steps = vec![EvalStep {
            axis: EAxis::Child,
            test: ETest::Name(b),
            pos: None,
        }];
        let matches = drain(&mut buf, na, &steps);
        assert_eq!(matches.len(), 2, "b1 and b3 are children; nested b is not");
        buf.check_integrity();
    }

    #[test]
    fn descendant_axis_finds_nested() {
        let (mut buf, sy, na) = build();
        let b = sy.get("b").unwrap();
        let steps = vec![EvalStep {
            axis: EAxis::Descendant,
            test: ETest::Name(b),
            pos: None,
        }];
        let matches = drain(&mut buf, na, &steps);
        assert_eq!(matches.len(), 3);
        buf.check_integrity();
    }

    #[test]
    fn descendant_or_self_node_counts_everything() {
        let (mut buf, _, na) = build();
        let steps = vec![EvalStep {
            axis: EAxis::DescendantOrSelf,
            test: ETest::AnyNode,
            pos: None,
        }];
        let matches = drain(&mut buf, na, &steps);
        // a, b1, c, b2, text, b3
        assert_eq!(matches.len(), 6);
        buf.check_integrity();
    }

    #[test]
    fn positional_predicate_selects_kth() {
        let (mut buf, sy, na) = build();
        let b = sy.get("b").unwrap();
        for (k, expect) in [(1u32, 1usize), (2, 1), (3, 0)] {
            let steps = vec![EvalStep {
                axis: EAxis::Child,
                test: ETest::Name(b),
                pos: Some(k),
            }];
            assert_eq!(drain(&mut buf, na, &steps).len(), expect, "k={k}");
        }
        buf.check_integrity();
    }

    #[test]
    fn text_test_matches_text_nodes() {
        let (mut buf, _, na) = build();
        let steps = vec![EvalStep {
            axis: EAxis::Descendant,
            test: ETest::Text,
            pos: None,
        }];
        let matches = drain(&mut buf, na, &steps);
        assert_eq!(matches.len(), 1);
        assert!(buf.is_text(matches[0]));
    }

    #[test]
    fn self_axis_filters_context() {
        let (mut buf, sy, na) = build();
        let a = sy.get("a").unwrap();
        let b = sy.get("b").unwrap();
        let hit = vec![EvalStep {
            axis: EAxis::SelfAxis,
            test: ETest::Name(a),
            pos: None,
        }];
        assert_eq!(drain(&mut buf, na, &hit).len(), 1);
        let miss = vec![EvalStep {
            axis: EAxis::SelfAxis,
            test: ETest::Name(b),
            pos: None,
        }];
        assert_eq!(drain(&mut buf, na, &miss).len(), 0);
        buf.check_integrity();
    }

    #[test]
    fn empty_steps_match_context_itself() {
        let (mut buf, _, na) = build();
        let matches = drain(&mut buf, na, &[]);
        assert_eq!(matches, vec![na]);
    }

    #[test]
    fn needs_input_on_open_node() {
        let mut sy = SymbolTable::new();
        let a = sy.intern("a");
        let b = sy.intern("b");
        let mut buf = BufferTree::new(true);
        let r = &[(RoleId(0), 1)][..];
        let na = buf.append_element(NodeId::ROOT, a, r, ord(1));
        let steps = vec![EvalStep {
            axis: EAxis::Child,
            test: ETest::Name(b),
            pos: None,
        }];
        let mut cur = PathCursor::new(&mut buf, na, &steps);
        assert_eq!(
            cur.advance(&mut buf, &steps),
            CursorState::NeedInput,
            "a is still open"
        );
        // Stream delivers a matching child.
        let nb = buf.append_element(na, b, r, ord(1));
        buf.close(nb);
        assert_eq!(cur.advance(&mut buf, &steps), CursorState::Match(nb));
        assert_eq!(
            cur.advance(&mut buf, &steps),
            CursorState::NeedInput,
            "a still open"
        );
        buf.close(na);
        assert_eq!(cur.advance(&mut buf, &steps), CursorState::Done);
        buf.check_integrity();
    }

    #[test]
    fn match_stays_pinned_until_cursor_advances() {
        let mut sy = SymbolTable::new();
        let a = sy.intern("a");
        let b = sy.intern("b");
        let mut buf = BufferTree::new(true);
        let role = RoleId(0);
        let na = buf.append_element(NodeId::ROOT, a, &[(role, 1)], ord(1));
        let nb1 = buf.append_element(na, b, &[(role, 1)], ord(1));
        buf.close(nb1);
        let nb2 = buf.append_element(na, b, &[(role, 1)], ord(2));
        buf.close(nb2);
        buf.close(na);
        buf.close(NodeId::ROOT);
        let steps = vec![EvalStep {
            axis: EAxis::Child,
            test: ETest::Name(b),
            pos: None,
        }];
        let mut cur = PathCursor::new(&mut buf, na, &steps);
        let CursorState::Match(m1) = cur.advance(&mut buf, &steps) else {
            panic!()
        };
        assert_eq!(m1, nb1);
        // Loop body signs off the binding: without the cursor pin this
        // would free nb1 and break iteration.
        buf.decrement_role(nb1, role, 1);
        assert_eq!(buf.stats().live, 3, "pin defers the purge");
        let CursorState::Match(m2) = cur.advance(&mut buf, &steps) else {
            panic!()
        };
        assert_eq!(m2, nb2, "iteration continues past the signed-off node");
        assert_eq!(
            buf.stats().live,
            2,
            "nb1 reclaimed once the cursor moved on"
        );
        buf.decrement_role(nb2, role, 1);
        assert_eq!(cur.advance(&mut buf, &steps), CursorState::Done);
        buf.check_integrity();
    }

    #[test]
    fn finish_releases_all_pins() {
        let (mut buf, sy, na) = build();
        let b = sy.get("b").unwrap();
        let steps = vec![EvalStep {
            axis: EAxis::Descendant,
            test: ETest::Name(b),
            pos: None,
        }];
        let mut cur = PathCursor::new(&mut buf, na, &steps);
        let _ = cur.advance(&mut buf, &steps); // partial progress
        cur.finish(&mut buf);
        buf.check_integrity(); // the hold counts agree once the pins are gone
        assert_eq!(
            cur.advance(&mut buf, &steps),
            CursorState::Done,
            "finished cursor stays done"
        );
    }

    #[test]
    fn double_descendant_path_yields_distinct_nodes() {
        // /descendant::a/descendant::b with nested a's: b is reachable via
        // two derivations but must be bound once.
        let mut sy = SymbolTable::new();
        let a = sy.intern("a");
        let b = sy.intern("b");
        let mut buf = BufferTree::new(true);
        let r = &[(RoleId(0), 1)][..];
        let na1 = buf.append_element(NodeId::ROOT, a, r, ord(1));
        let na2 = buf.append_element(na1, a, r, ord(1));
        let nb = buf.append_element(na2, b, r, ord(1));
        buf.close(nb);
        buf.close(na2);
        buf.close(na1);
        buf.close(NodeId::ROOT);
        let steps = vec![
            EvalStep {
                axis: EAxis::Descendant,
                test: ETest::Name(a),
                pos: None,
            },
            EvalStep {
                axis: EAxis::Descendant,
                test: ETest::Name(b),
                pos: None,
            },
        ];
        let matches = drain(&mut buf, NodeId::ROOT, &steps);
        assert_eq!(matches, vec![nb], "one binding despite two derivations");
        buf.check_integrity();
    }

    #[test]
    fn multi_step_path() {
        let (mut buf, sy, na) = build();
        let c = sy.get("c").unwrap();
        let b = sy.get("b").unwrap();
        let steps = vec![
            EvalStep {
                axis: EAxis::Child,
                test: ETest::Name(c),
                pos: None,
            },
            EvalStep {
                axis: EAxis::Child,
                test: ETest::Name(b),
                pos: None,
            },
        ];
        let matches = drain(&mut buf, na, &steps);
        assert_eq!(matches.len(), 1, "only the b nested under c");
        buf.check_integrity();
    }
}
