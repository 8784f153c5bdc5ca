//! Projection-path extraction, role derivation and signOff insertion.
//!
//! ## Role derivation (paper §2, §3 "Static analysis")
//!
//! Walking the normalized query with an environment mapping variables to the
//! absolute paths they were bound from:
//!
//! * the document root gets role r1 (path `/`);
//! * every for-loop contributes a **binding role** on its absolute source
//!   path (the paper's r2, r3, r6);
//! * a path in output position contributes a role on
//!   `path/descendant-or-self::node()` — whole subtrees must remain
//!   emittable (r5, r7);
//! * an `exists` argument contributes a **first-witness** role: `[1]` is
//!   appended to the final child step (r4);
//! * comparison operands and aggregate arguments contribute value-retention
//!   roles (subtree text; attribute-terminated paths only retain the owner
//!   element, since attributes travel with their start tag).
//!
//! A value use rooted at `/` and outside every `for` body runs at most
//! once, and it reads each match once: its role is recorded in
//! [`Analysis::value_roles`], and the evaluator removes a match's instances
//! of it as soon as it has consumed the match. The query-end signOff then
//! removes only what evaluation never reached.
//!
//! A copy may write the part of its subtree that has not yet arrived
//! straight to the output, unbuffered, only if no later evaluation reads
//! the same role instances again: its role is recorded in
//! [`Analysis::output_roles`] only when the copy runs at most once per
//! instance of that role.
//!
//! ## signOff placement
//!
//! A role's signOff is **anchored** at a variable `$v` when the statement
//! `signOff($v/rel, r)` placed at the end of `$v`'s loop body executes
//! exactly once per binding of `$v`. That holds when the loop binding `$v`
//! is *unique*: its statement runs exactly once per binding of its source
//! root, transitively up to the query root, and is not under a conditional.
//! Loops that re-execute (the inner side of a join — their source is rooted
//! at a variable bound further out than the immediately enclosing loop) and
//! loops under `if` branches anchor at the nearest unique ancestor on their
//! source chain, or at query end. This is what makes XMark Q8's buffer grow
//! while Q1/Q6/Q13/Q20 stay flat — exactly the behaviour in the paper's
//! Figures 4 and 5.
//!
//! ## Balance invariant
//!
//! The runtime decrements role instances with derivation multiplicities
//! (see `gcx-core`): over a whole run, every role instance assigned by the
//! stream matcher is removed by exactly one signOff execution. Tests in
//! `gcx-core` assert the buffer drains to the virtual root.

use crate::roles::{Anchor, RoleOrigin, RoleTable};
use gcx_query::ast::*;

/// Result of static analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The role table (projection paths).
    pub roles: RoleTable,
    /// The query with signOff statements inserted.
    pub rewritten: Query,
    /// Binding role per variable (every for-variable has one).
    pub binding_roles: Vec<Option<RoleId>>,
    /// One entry per path in output position, in the order a pre-order
    /// walk of `rewritten` meets them (sequence items in order, an `if`'s
    /// condition, then branch, else branch): the role its copied subtree
    /// carries (`path/descendant-or-self::node()` for a path selecting
    /// elements) when the copy runs at most once per instance of that
    /// role — the role is signed off at the end of the innermost
    /// enclosing loop's body, or at query end with no enclosing loop — so
    /// that the copy may write the subtree's later part straight through;
    /// `None` otherwise.
    pub output_roles: Vec<Option<RoleId>>,
    /// One entry per aggregate argument and path operand of a condition,
    /// in the same pre-order as `output_roles` (an operator's left operand
    /// before its right): the use's role when the use runs at most once —
    /// rooted at `/`, outside every `for` body — so that each match may
    /// lose it as soon as it is consumed; `None` otherwise.
    pub value_roles: Vec<Option<RoleId>>,
}

impl Analysis {
    /// Whether some value use releases `role` as it consumes each match
    /// (see [`Analysis::value_roles`]).
    pub fn releases(&self, role: RoleId) -> bool {
        self.value_roles.contains(&Some(role))
    }

    /// The paper-style mapping listing: roles and their paths.
    pub fn roles_listing(&self) -> String {
        self.roles.listing()
    }
}

/// Analyze a normalized query: derive roles and insert signOff statements.
pub fn analyze(query: &Query) -> Analysis {
    let n = query.var_names.len();
    let mut cx = Cx {
        roles: RoleTable::new(),
        vars: vec![None; n],
        var_names: query.var_names.clone(),
        binding_roles: vec![None; n],
        output_roles: Vec::new(),
        value_roles: Vec::new(),
        query_end: Vec::new(),
        loop_stack: Vec::new(),
        cond_depth: 0,
    };
    // r1: the document root.
    let r1 = cx.roles.push(
        Vec::new(),
        RoleOrigin::DocumentRoot,
        Anchor::QueryEnd,
        Vec::new(),
    );
    cx.query_end.push((root_path(Vec::new()), r1));

    let rewritten_root = cx.expr(&query.root);
    // Append the query-end signOffs after the whole query.
    let mut items = vec![rewritten_root];
    let signoffs = std::mem::take(&mut cx.query_end);
    items.extend(
        signoffs
            .into_iter()
            .map(|(target, role)| Expr::SignOff { target, role }),
    );
    let rewritten = Query {
        root: Expr::seq(items),
        var_names: query.var_names.clone(),
        uses_aggregates: query.uses_aggregates,
    };
    Analysis {
        roles: cx.roles,
        rewritten,
        binding_roles: cx.binding_roles,
        output_roles: cx.output_roles,
        value_roles: cx.value_roles,
    }
}

/// Per-variable info established when its loop is entered.
#[derive(Debug, Clone)]
struct VarInfo {
    /// Absolute path from the document root.
    abs: Vec<Step>,
    /// True when the loop body runs exactly once per bound node over the
    /// whole evaluation.
    unique: bool,
    /// Variable the source path is rooted at (None = document root).
    source_root: Option<VarId>,
    /// signOffs to append at the end of this loop's body, in order.
    signoffs: Vec<(PathExpr, RoleId)>,
}

struct Cx {
    roles: RoleTable,
    vars: Vec<Option<VarInfo>>,
    var_names: Vec<String>,
    binding_roles: Vec<Option<RoleId>>,
    output_roles: Vec<Option<RoleId>>,
    value_roles: Vec<Option<RoleId>>,
    query_end: Vec<(PathExpr, RoleId)>,
    /// Enclosing loops, innermost last, with the conditional depth at which
    /// each body started.
    loop_stack: Vec<(VarId, u32)>,
    /// Number of enclosing `if` branches.
    cond_depth: u32,
}

fn root_path(steps: Vec<Step>) -> PathExpr {
    PathExpr {
        root: PathRoot::Root,
        steps,
        span: Span::default(),
    }
}

/// How a syntactic use turns into a role path.
enum UseKind {
    Output,
    Exists,
    Comparison,
    Aggregate(AggFunc),
}

impl Cx {
    fn info(&self, v: VarId) -> &VarInfo {
        self.vars[v.index()]
            .as_ref()
            .expect("variable used before its loop was analyzed")
    }

    /// Absolute path of a path expression.
    fn abs_of(&self, p: &PathExpr) -> Vec<Step> {
        let mut abs = match &p.root {
            PathRoot::Root => Vec::new(),
            PathRoot::Var(v) => self.info(v.id).abs.clone(),
        };
        abs.extend(p.steps.iter().cloned());
        abs
    }

    /// Find the anchor for a role rooted at `root`: the nearest variable on
    /// the source chain whose loop is unique, else query end.
    fn anchor_of(&self, root: Option<VarId>) -> Anchor {
        let mut cur = root;
        loop {
            match cur {
                None => return Anchor::QueryEnd,
                Some(v) => {
                    let info = self.info(v);
                    if info.unique {
                        return Anchor::Var(v);
                    }
                    cur = info.source_root;
                }
            }
        }
    }

    /// Register a role with its signOff at the right anchor.
    fn add_role(&mut self, abs: Vec<Step>, origin: RoleOrigin, rooted_at: Option<VarId>) -> RoleId {
        let anchor = self.anchor_of(rooted_at);
        let (rel, target) = match anchor {
            Anchor::QueryEnd => (abs.clone(), root_path(abs.clone())),
            Anchor::Var(v) => {
                let prefix_len = self.info(v).abs.len();
                debug_assert!(
                    prefix_len <= abs.len(),
                    "anchor path must prefix the role path"
                );
                let rel: Vec<Step> = abs[prefix_len..].to_vec();
                let target = PathExpr {
                    root: PathRoot::Var(Var {
                        name: self.var_names[v.index()].clone(),
                        id: v,
                    }),
                    steps: rel.clone(),
                    span: Span::default(),
                };
                (rel, target)
            }
        };
        let id = self.roles.push(abs, origin, anchor, rel);
        match anchor {
            Anchor::QueryEnd => self.query_end.push((target, id)),
            Anchor::Var(v) => {
                self.vars[v.index()]
                    .as_mut()
                    .unwrap()
                    .signoffs
                    .push((target, id));
            }
        }
        id
    }

    /// Derive the role path for a use of `p` and register it.
    /// Returns `None` when no role is needed (bare variable in a context
    /// already covered by its binding role).
    fn add_use_role(&mut self, p: &PathExpr, kind: UseKind) -> Option<RoleId> {
        let rooted_at = match &p.root {
            PathRoot::Root => None,
            PathRoot::Var(v) => Some(v.id),
        };
        let mut abs = self.abs_of(p);
        let origin = match kind {
            UseKind::Output => RoleOrigin::Output,
            UseKind::Exists => RoleOrigin::ExistsWitness,
            UseKind::Comparison => RoleOrigin::ComparisonOperand,
            UseKind::Aggregate(_) => RoleOrigin::AggregateArg,
        };
        if p.ends_in_attribute() {
            // Attributes travel with their element's start tag: retaining
            // the owner element suffices for every kind of use.
            abs.pop();
            return Some(self.add_role(abs, origin, rooted_at));
        }
        match kind {
            UseKind::Output
            | UseKind::Comparison
            | UseKind::Aggregate(AggFunc::Sum)
            | UseKind::Aggregate(AggFunc::Min)
            | UseKind::Aggregate(AggFunc::Max)
            | UseKind::Aggregate(AggFunc::Avg) => {
                // Whole-subtree retention — unless the path already selects
                // text nodes, whose value is themselves.
                let ends_in_text = matches!(
                    abs.last(),
                    Some(Step {
                        test: NodeTest::Text,
                        ..
                    })
                );
                if !ends_in_text {
                    abs.push(Step::descendant_or_self_node());
                }
                Some(self.add_role(abs, origin, rooted_at))
            }
            UseKind::Exists => {
                if abs.is_empty() {
                    // exists($root) / exists(/) is constant true; no role.
                    return None;
                }
                // First witness suffices: add `[1]` to a final child step.
                if let Some(last) = abs.last_mut() {
                    if last.axis == Axis::Child && last.pred.is_none() {
                        last.pred = Some(Pred::Position(1));
                    }
                }
                Some(self.add_role(abs, origin, rooted_at))
            }
            UseKind::Aggregate(AggFunc::Count) => {
                // Counting needs each matching node, not its subtree.
                Some(self.add_role(abs, origin, rooted_at))
            }
        }
    }

    /// Register the role of a value use (aggregate argument, path
    /// operand) and record it in `value_roles`.
    fn add_value_role(&mut self, p: &PathExpr, kind: UseKind) {
        let role = self
            .add_use_role(p, kind)
            .expect("a value use always gets a role");
        let once = matches!(p.root, PathRoot::Root) && self.loop_stack.is_empty();
        self.value_roles.push(once.then_some(role));
    }

    fn cond(&mut self, c: &Cond) -> Cond {
        match c {
            Cond::True => Cond::True,
            Cond::False => Cond::False,
            Cond::Exists(p) => {
                self.add_use_role(p, UseKind::Exists);
                Cond::Exists(p.clone())
            }
            Cond::Not(inner) => Cond::Not(Box::new(self.cond(inner))),
            Cond::And(a, b) => Cond::And(Box::new(self.cond(a)), Box::new(self.cond(b))),
            Cond::Or(a, b) => Cond::Or(Box::new(self.cond(a)), Box::new(self.cond(b))),
            Cond::Compare { op, lhs, rhs } => {
                for operand in [lhs, rhs] {
                    if let Operand::Path(p) = operand {
                        self.add_value_role(p, UseKind::Comparison);
                    }
                }
                Cond::Compare {
                    op: *op,
                    lhs: lhs.clone(),
                    rhs: rhs.clone(),
                }
            }
            Cond::StringFn {
                func,
                haystack,
                needle,
            } => {
                for operand in [haystack, needle] {
                    if let Operand::Path(p) = operand {
                        self.add_value_role(p, UseKind::Comparison);
                    }
                }
                Cond::StringFn {
                    func: *func,
                    haystack: haystack.clone(),
                    needle: needle.clone(),
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> Expr {
        match e {
            Expr::Empty => Expr::Empty,
            Expr::StringLit(s) => Expr::StringLit(s.clone()),
            Expr::NumberLit(v) => Expr::NumberLit(*v),
            Expr::Sequence(items) => Expr::seq(items.iter().map(|i| self.expr(i)).collect()),
            Expr::Element {
                name,
                attrs,
                content,
            } => Expr::Element {
                name: name.clone(),
                attrs: attrs.clone(),
                content: Box::new(self.expr(content)),
            },
            Expr::Path(p) => {
                let role = self
                    .add_use_role(p, UseKind::Output)
                    .expect("an output use always gets a role");
                // The output twin of `add_value_role`'s `once`: a copy that
                // runs again over the same instances (an inner loop, or a
                // root path in a loop body) must find them buffered.
                let innermost = self.loop_stack.last().map(|&(v, _)| v);
                let once = match self.roles.get(role).anchor {
                    Anchor::Var(v) => innermost == Some(v),
                    Anchor::QueryEnd => innermost.is_none(),
                };
                self.output_roles.push(once.then_some(role));
                Expr::Path(p.clone())
            }
            Expr::Aggregate { func, arg } => {
                self.add_value_role(arg, UseKind::Aggregate(*func));
                Expr::Aggregate {
                    func: *func,
                    arg: arg.clone(),
                }
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.cond(cond);
                self.cond_depth += 1;
                let then_branch = self.expr(then_branch);
                let else_branch = self.expr(else_branch);
                self.cond_depth -= 1;
                Expr::If {
                    cond,
                    then_branch: Box::new(then_branch),
                    else_branch: Box::new(else_branch),
                }
            }
            Expr::For {
                var,
                source,
                where_clause,
                body,
            } => {
                debug_assert!(where_clause.is_none(), "normalization desugars where");
                let source_root = match &source.root {
                    PathRoot::Root => None,
                    PathRoot::Var(v) => Some(v.id),
                };
                // Unique = statement executes exactly once per binding of
                // its source root: the source root's loop must be the
                // immediately enclosing loop (itself unique), with no
                // conditional in between.
                let unique = match source_root {
                    None => self.loop_stack.is_empty() && self.cond_depth == 0,
                    Some(u) => match self.loop_stack.last() {
                        Some(&(top, body_cond_depth)) => {
                            top == u && self.info(u).unique && self.cond_depth == body_cond_depth
                        }
                        None => false,
                    },
                };
                let abs = self.abs_of(source);
                self.vars[var.id.index()] = Some(VarInfo {
                    abs: abs.clone(),
                    unique,
                    source_root,
                    signoffs: Vec::new(),
                });
                // Binding role, anchored via the variable itself: if the
                // loop is unique this yields the paper's per-iteration
                // `signOff($x, rN)`; otherwise it anchors further out.
                let role = self.add_role_for_binding(abs, var.id);
                self.binding_roles[var.id.index()] = Some(role);

                self.loop_stack.push((var.id, self.cond_depth));
                let body = self.expr(body);
                self.loop_stack.pop();

                // Append this variable's signOffs at the end of its body.
                let pending =
                    std::mem::take(&mut self.vars[var.id.index()].as_mut().unwrap().signoffs);
                let mut items = vec![body];
                items.extend(
                    pending
                        .into_iter()
                        .map(|(target, role)| Expr::SignOff { target, role }),
                );
                Expr::For {
                    var: var.clone(),
                    source: source.clone(),
                    where_clause: None,
                    body: Box::new(Expr::seq(items)),
                }
            }
            Expr::SignOff { .. } => {
                unreachable!("signOff cannot appear in a normalized user query")
            }
        }
    }

    /// Register the binding role of `var`, anchored at `var` itself when its
    /// loop is unique (paper-style `signOff($x, rN)`), else up the chain.
    fn add_role_for_binding(&mut self, abs: Vec<Step>, var: VarId) -> RoleId {
        self.add_role(abs, RoleOrigin::ForBinding(var), Some(var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_query::compile;

    const PAPER_QUERY: &str = r#"
        <r> {
          for $bib in /bib return
            (for $x in $bib/* return
               if (not(exists($x/price))) then $x else (),
             for $b in $bib/book return $b/title)
        } </r>
    "#;

    fn analyze_str(q: &str) -> Analysis {
        analyze(&compile(q).unwrap())
    }

    #[test]
    fn paper_roles_derived_exactly() {
        let a = analyze_str(PAPER_QUERY);
        assert_eq!(
            a.roles_listing(),
            "\
r1: /
r2: /bib
r3: /bib/*
r4: /bib/*/price[1]
r5: /bib/*/descendant-or-self::node()
r6: /bib/book
r7: /bib/book/title/descendant-or-self::node()
"
        );
    }

    #[test]
    fn paper_signoffs_inserted_at_preemption_points() {
        let a = analyze_str(PAPER_QUERY);
        let printed = a.rewritten.to_string();
        // The three per-iteration signOffs of the $x loop.
        assert!(printed.contains("signOff($x, r3)"), "{printed}");
        assert!(printed.contains("signOff($x/price[1], r4)"), "{printed}");
        assert!(
            printed.contains("signOff($x/descendant-or-self::node(), r5)"),
            "{printed}"
        );
        // The $b loop's signOffs.
        assert!(printed.contains("signOff($b, r6)"), "{printed}");
        assert!(
            printed.contains("signOff($b/title/descendant-or-self::node(), r7)"),
            "{printed}"
        );
        // The outer loop's own binding role.
        assert!(printed.contains("signOff($bib, r2)"), "{printed}");
        // The document-root role is signed off at query end.
        assert!(printed.contains("signOff(/, r1)"), "{printed}");
    }

    #[test]
    fn rewritten_query_reparses() {
        let a = analyze_str(PAPER_QUERY);
        let printed = a.rewritten.to_string();
        gcx_query::parse(&printed)
            .unwrap_or_else(|e| panic!("rewritten query does not reparse: {e}\n{printed}"));
    }

    #[test]
    fn binding_roles_recorded_per_var() {
        let a = analyze_str(PAPER_QUERY);
        // vars: bib=0, x=1, b=2
        assert_eq!(a.binding_roles[0], Some(RoleId(1))); // r2
        assert_eq!(a.binding_roles[1], Some(RoleId(2))); // r3
        assert_eq!(a.binding_roles[2], Some(RoleId(5))); // r6
    }

    #[test]
    fn chained_loops_are_unique_and_anchor_locally() {
        let a = analyze_str("for $a in /x return for $b in $a/y return $b");
        let printed = a.rewritten.to_string();
        assert!(printed.contains("signOff($b, r3)"), "{printed}");
        assert!(printed.contains("signOff($a, r2)"), "{printed}");
    }

    #[test]
    fn join_inner_loop_anchors_at_outer_unique_context() {
        // The person loop re-executes the auction loop: auction roles must
        // not be anchored inside the person loop.
        let a = analyze_str(
            "for $s in /site return
               for $p in $s/person return
                 for $t in $s/auction return
                   if ($t/buyer = $p/name) then $t",
        );
        // Role of $t's binding must anchor at $s (its source root), not $t.
        let t_bind = a.binding_roles[2].unwrap();
        assert_eq!(a.roles.get(t_bind).anchor, Anchor::Var(VarId(0)));
        let printed = a.rewritten.to_string();
        // The signOff for the auction binding role appears as $s/auction.
        assert!(printed.contains("signOff($s/auction,"), "{printed}");
        // And it is inside $s's body (after the person loop), not the
        // person loop body: the person binding role signs off per person.
        assert!(printed.contains("signOff($p, "), "{printed}");
    }

    #[test]
    fn absolute_path_loop_nested_in_loop_anchors_at_query_end() {
        let a = analyze_str(
            "for $p in /site/person return
               for $t in /site/auction return
                 if ($t/buyer = $p/name) then $t",
        );
        let t_bind = a.binding_roles[1].unwrap();
        assert_eq!(a.roles.get(t_bind).anchor, Anchor::QueryEnd);
        let printed = a.rewritten.to_string();
        assert!(printed.contains("signOff(/site/auction,"), "{printed}");
    }

    #[test]
    fn loop_under_conditional_is_not_unique() {
        let a = analyze_str(
            "for $a in /x return
               if (exists($a/flag)) then
                 for $b in $a/y return $b",
        );
        let b_bind = a.binding_roles[1].unwrap();
        // $b's loop is conditional: anchored at $a, not at $b.
        assert_eq!(a.roles.get(b_bind).anchor, Anchor::Var(VarId(0)));
    }

    #[test]
    fn exists_gets_first_witness_predicate() {
        let a = analyze_str("for $a in /x return if (exists($a/p)) then 'y'");
        let listing = a.roles_listing();
        assert!(listing.contains("/x/p[1]"), "{listing}");
    }

    #[test]
    fn exists_with_descendant_step_keeps_path_as_is() {
        let a = analyze_str("for $a in /x return if (exists($a//p)) then 'y'");
        let listing = a.roles_listing();
        assert!(listing.contains("/x/descendant::p\n"), "{listing}");
    }

    #[test]
    fn attribute_paths_retain_owner_element() {
        let a = analyze_str(
            "for $p in /site/person return if ($p/profile/@income > 5000) then $p/name",
        );
        let listing = a.roles_listing();
        // The comparison role is on .../profile, not on the attribute.
        assert!(listing.contains("/site/person/profile\n"), "{listing}");
        assert!(!listing.contains("@income"), "{listing}");
    }

    #[test]
    fn text_terminated_output_does_not_add_subtree_role() {
        let a = analyze_str("for $b in /bib/book return $b/title/text()");
        let listing = a.roles_listing();
        assert!(listing.contains("/bib/book/title/text()\n"), "{listing}");
    }

    #[test]
    fn count_aggregate_retains_nodes_not_subtrees() {
        let a = analyze_str("count(/site/people/person)");
        let listing = a.roles_listing();
        assert!(listing.contains("/site/people/person\n"), "{listing}");
        assert!(!listing.contains("person/descendant-or-self"), "{listing}");
    }

    #[test]
    fn only_root_value_uses_outside_loops_release() {
        // In pre-order: the root count, the root comparison's path operand
        // (the literal has no entry), then the loop body's root and
        // variable-rooted counts.
        let a = analyze_str(
            "<r>{ count(/a/b), if (/a/c = 1) then 'y' else (),
                  for $x in /a/d return (count(/a/e), count($x/f)) }</r>",
        );
        let listing = a.roles_listing();
        let role = |path: &str| {
            a.roles
                .iter()
                .find(|r| r.path_display() == path)
                .unwrap_or_else(|| panic!("{path}: {listing}"))
                .id
        };
        assert_eq!(
            a.value_roles,
            [
                Some(role("/a/b")),
                Some(role("/a/c/descendant-or-self::node()")),
                None,
                None,
            ]
        );
        assert!(a.releases(role("/a/b")) && !a.releases(role("/a/e")));
    }

    #[test]
    fn only_copies_that_run_once_per_role_instance_write_through() {
        // In pre-order: a root copy outside loops, a copy of the innermost
        // binding, an outer binding's path in an inner loop, a root path
        // in a loop body, and the outer binding's own path after the
        // inner loop.
        let a = analyze_str(
            "<r>{ /a/z, for $o in /a/p return (
                    for $x in $o/* return ($x, $o/n, /a/z), $o/n) }</r>",
        );
        let once: Vec<bool> = a.output_roles.iter().map(Option::is_some).collect();
        assert_eq!(once, [true, true, false, false, true]);
    }

    #[test]
    fn sum_aggregate_retains_subtrees() {
        let a = analyze_str("sum(/site/auction/price)");
        let listing = a.roles_listing();
        assert!(
            listing.contains("/site/auction/price/descendant-or-self::node()"),
            "{listing}"
        );
    }

    #[test]
    fn root_role_always_first() {
        let a = analyze_str("'hello'");
        assert_eq!(a.roles.len(), 1);
        assert_eq!(a.roles.get(RoleId(0)).path_display(), "/");
    }

    #[test]
    fn comparison_between_two_paths_makes_two_roles() {
        let a = analyze_str("for $a in /x return for $b in $a/y return if ($b/l = $a/r) then $b");
        let listing = a.roles_listing();
        assert!(
            listing.contains("/x/y/l/descendant-or-self::node()"),
            "{listing}"
        );
        assert!(
            listing.contains("/x/r/descendant-or-self::node()"),
            "{listing}"
        );
    }
}
