//! Lowering: the signoff-rewritten AST becomes a flat [`Program`].
//!
//! Lowering happens exactly once per compiled query. It interns every
//! name the query mentions (element tests, attribute selectors,
//! projection-path names) into the program's private symbol table,
//! compiles every path's element steps into the shared [`EvalStep`] arena
//! (deduplicating identical paths — conditions inside loop bodies used to
//! re-lower their paths per binding behind an address-keyed cache), and
//! pre-formats literals (number literals atomize at compile time).

use crate::program::{
    fmt_number, AttrPlan, CondId, CondIr, Instr, InstrId, OperandId, OperandIr, PathId, PathPlan,
    PlanRoot, Program, StrId,
};
use crate::step::{EAxis, ETest, EvalStep};
use gcx_projection::{Analysis, Automaton, CompiledPaths, TaggedPaths};
use gcx_query::ast::{
    Axis, Cond, Expr, NodeTest, Operand, PathExpr, PathRoot, Pred, Query, RoleId, Step, VarId,
};
use gcx_xml::{FxBuildHasher, SymbolTable};
use std::collections::HashMap;
use std::sync::Arc;

impl Program {
    /// Lower a compiled query (its normalized AST plus the static
    /// analysis) into its executable program. `query` must be the query
    /// `analysis` was produced from.
    ///
    /// # Panics
    /// Panics on ASTs that violate the normalizer's invariants (signOff
    /// targets with attribute steps, for-variables without binding roles)
    /// — these cannot come out of `gcx_query::compile` + `analyze`.
    pub fn compile(query: &Query, analysis: &Analysis) -> Program {
        let mut symbols = SymbolTable::new();
        // Projection-NFA paths first: the preprojector's matcher is as
        // much a part of the compiled artifact as the evaluator's steps.
        let matcher_paths = CompiledPaths::compile(&analysis.roles, &mut symbols);
        let mut cx = Lower {
            analysis,
            symbols,
            instrs: Vec::new(),
            seq_items: Vec::new(),
            conds: Vec::new(),
            operands: Vec::new(),
            paths: Vec::new(),
            steps: Vec::new(),
            strings: Vec::new(),
            attrs: Vec::new(),
            path_dedup: HashMap::default(),
            str_dedup: HashMap::default(),
            outputs: 0,
            values: 0,
        };
        let root = cx.expr(&analysis.rewritten.root);
        assert_eq!(
            cx.outputs,
            analysis.output_roles.len(),
            "one output role per output path"
        );
        assert_eq!(
            cx.values,
            analysis.value_roles.len(),
            "one value-role entry per aggregate argument and path operand"
        );
        Program {
            symbols: cx.symbols,
            instrs: cx.instrs,
            seq_items: cx.seq_items,
            conds: cx.conds,
            operands: cx.operands,
            paths: cx.paths,
            steps: cx.steps,
            strings: cx.strings,
            attrs: cx.attrs,
            automaton: Arc::new(Automaton::new(TaggedPaths::merge([&matcher_paths]), None)),
            matcher_paths,
            var_names: query.var_names.clone(),
            root,
            joins: Vec::new(),
        }
    }
}

/// Dedup key of a compiled path: root, element steps, attribute selector.
type PathKey = (PlanRoot, Vec<Step>, AttrPlan);

struct Lower<'a> {
    analysis: &'a Analysis,
    symbols: SymbolTable,
    instrs: Vec<Instr>,
    seq_items: Vec<InstrId>,
    conds: Vec<CondIr>,
    operands: Vec<OperandIr>,
    paths: Vec<PathPlan>,
    steps: Vec<EvalStep>,
    strings: Vec<Box<str>>,
    attrs: Vec<(StrId, StrId)>,
    path_dedup: HashMap<PathKey, PathId, FxBuildHasher>,
    str_dedup: HashMap<Box<str>, StrId, FxBuildHasher>,
    /// Output paths lowered so far: the next one's role is
    /// `analysis.output_roles[outputs]` (both walks are pre-order).
    outputs: usize,
    /// Aggregate arguments and path operands lowered so far: the next
    /// one's release role is `analysis.value_roles[values]`.
    values: usize,
}

impl Lower<'_> {
    fn push_instr(&mut self, i: Instr) -> InstrId {
        let id = InstrId(self.instrs.len() as u32);
        self.instrs.push(i);
        id
    }

    fn push_cond(&mut self, c: CondIr) -> CondId {
        let id = CondId(self.conds.len() as u32);
        self.conds.push(c);
        id
    }

    fn intern_str(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.str_dedup.get(s) {
            return id;
        }
        let id = StrId(self.strings.len() as u32);
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.str_dedup.insert(boxed, id);
        id
    }

    /// Compile a path expression into (or find) its plan.
    fn path(&mut self, p: &PathExpr) -> PathId {
        let root = match &p.root {
            PathRoot::Root => PlanRoot::Root,
            PathRoot::Var(v) => PlanRoot::Var(v.id),
        };
        let (elem_steps, attr) = if p.ends_in_attribute() {
            let (last, rest) = p
                .steps
                .split_last()
                .expect("ends_in_attribute => non-empty");
            let sel = match &last.test {
                NodeTest::Name(n) => AttrPlan::Name(self.symbols.intern(n)),
                _ => AttrPlan::Any,
            };
            (rest, sel)
        } else {
            (&p.steps[..], AttrPlan::None)
        };
        let key: PathKey = (root, elem_steps.to_vec(), attr);
        if let Some(&id) = self.path_dedup.get(&key) {
            return id;
        }
        let first_step = self.steps.len() as u32;
        for s in elem_steps {
            let compiled = EvalStep {
                axis: match s.axis {
                    Axis::Child => EAxis::Child,
                    Axis::Descendant => EAxis::Descendant,
                    Axis::DescendantOrSelf => EAxis::DescendantOrSelf,
                    Axis::SelfAxis => EAxis::SelfAxis,
                    Axis::Attribute => unreachable!("attribute steps are terminal (normalizer)"),
                },
                test: match &s.test {
                    NodeTest::Name(n) => ETest::Name(self.symbols.intern(n)),
                    NodeTest::Star => ETest::Star,
                    NodeTest::Text => ETest::Text,
                    NodeTest::AnyNode => ETest::AnyNode,
                },
                pos: s.pred.map(|Pred::Position(k)| k),
            };
            self.steps.push(compiled);
        }
        let id = PathId(self.paths.len() as u32);
        self.paths.push(PathPlan {
            root,
            first_step,
            step_len: elem_steps.len() as u32,
            attr,
        });
        self.path_dedup.insert(key, id);
        id
    }

    /// The release role of the next value use (see
    /// [`Analysis::value_roles`]).
    fn next_release(&mut self) -> Option<RoleId> {
        let release = self.analysis.value_roles[self.values];
        self.values += 1;
        release
    }

    fn operand(&mut self, o: &Operand) -> OperandId {
        let ir = match o {
            Operand::StringLit(s) => OperandIr::Lit {
                text: self.intern_str(s),
                num: s.trim().parse::<f64>().ok(),
            },
            Operand::NumberLit(v) => OperandIr::Lit {
                text: self.intern_str(&fmt_number(*v)),
                num: Some(*v),
            },
            Operand::Path(p) => OperandIr::Path {
                path: self.path(p),
                release: self.next_release(),
            },
        };
        let id = OperandId(self.operands.len() as u32);
        self.operands.push(ir);
        id
    }

    fn cond(&mut self, c: &Cond) -> CondId {
        let ir = match c {
            Cond::True => CondIr::Const(true),
            Cond::False => CondIr::Const(false),
            Cond::Not(inner) => {
                let i = self.cond(inner);
                CondIr::Not(i)
            }
            Cond::And(a, b) => {
                let (a, b) = (self.cond(a), self.cond(b));
                CondIr::And(a, b)
            }
            Cond::Or(a, b) => {
                let (a, b) = (self.cond(a), self.cond(b));
                CondIr::Or(a, b)
            }
            Cond::Exists(p) => CondIr::Exists(self.path(p)),
            Cond::Compare { op, lhs, rhs } => CondIr::Compare {
                op: *op,
                lhs: self.operand(lhs),
                rhs: self.operand(rhs),
            },
            Cond::StringFn {
                func,
                haystack,
                needle,
            } => CondIr::StringFn {
                func: *func,
                haystack: self.operand(haystack),
                needle: self.operand(needle),
            },
        };
        self.push_cond(ir)
    }

    fn expr(&mut self, e: &Expr) -> InstrId {
        match e {
            Expr::Empty => self.push_instr(Instr::Nop),
            Expr::Sequence(items) => {
                let children: Vec<InstrId> = items.iter().map(|i| self.expr(i)).collect();
                let first = self.seq_items.len() as u32;
                let len = children.len() as u32;
                self.seq_items.extend(children);
                self.push_instr(Instr::Seq { first, len })
            }
            Expr::StringLit(s) => {
                let s = self.intern_str(s);
                self.push_instr(Instr::Text(s))
            }
            // Number literals atomize at compile time: the run emits text.
            Expr::NumberLit(v) => {
                let s = self.intern_str(&fmt_number(*v));
                self.push_instr(Instr::Text(s))
            }
            Expr::Element {
                name,
                attrs,
                content,
            } => {
                let name = self.intern_str(name);
                let pairs: Vec<(StrId, StrId)> = attrs
                    .iter()
                    .map(|(k, v)| (self.intern_str(k), self.intern_str(v)))
                    .collect();
                let attrs_first = self.attrs.len() as u32;
                let attrs_len = pairs.len() as u32;
                self.attrs.extend(pairs);
                let content = self.expr(content);
                self.push_instr(Instr::Element {
                    name,
                    attrs_first,
                    attrs_len,
                    content,
                })
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.cond(cond);
                let then_branch = self.expr(then_branch);
                let else_branch = self.expr(else_branch);
                self.push_instr(Instr::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            Expr::For {
                var, source, body, ..
            } => {
                let path = self.path(source);
                let role = self.binding_role(var.id);
                let body = self.expr(body);
                self.push_instr(Instr::For {
                    var: var.id,
                    path,
                    role,
                    body,
                })
            }
            Expr::Path(p) => {
                let path = self.path(p);
                let role = self.analysis.output_roles[self.outputs];
                self.outputs += 1;
                self.push_instr(Instr::OutputPath { path, role })
            }
            Expr::Aggregate { func, arg } => {
                let path = self.path(arg);
                let release = self.next_release();
                self.push_instr(Instr::Aggregate {
                    func: *func,
                    path,
                    release,
                })
            }
            Expr::SignOff { target, role } => {
                debug_assert!(
                    !target.ends_in_attribute(),
                    "analysis strips attribute steps from signOff targets"
                );
                let path = self.path(target);
                self.push_instr(Instr::SignOff { path, role: *role })
            }
        }
    }

    fn binding_role(&self, var: VarId) -> RoleId {
        self.analysis.binding_roles[var.index()]
            .expect("analysis assigns a binding role to every for-variable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_projection::analyze;

    const PAPER_QUERY: &str = r#"
        <r> {
          for $bib in /bib return
            (for $x in $bib/* return
               if (not(exists($x/price))) then $x else (),
             for $b in $bib/book return $b/title)
        } </r>
    "#;

    fn program(q: &str) -> Program {
        let query = gcx_query::compile(q).unwrap();
        let analysis = analyze(&query);
        Program::compile(&query, &analysis)
    }

    #[test]
    fn paper_query_lowers_to_flat_program() {
        let p = program(PAPER_QUERY);
        let st = p.stats();
        assert!(st.instructions > 10, "{st:?}");
        assert_eq!(st.matcher_paths, 7, "the paper's r1..r7");
        assert!(st.symbols >= 4, "bib, book, title, price at least");
        // The root instruction is the last one lowered (the outer seq of
        // query + query-end signoffs).
        assert_eq!(p.root().index(), st.instructions - 1);
    }

    #[test]
    fn identical_paths_are_deduplicated() {
        // $x appears as a for-source once, but $x/price is used both for
        // the exists witness and ... here: the same path twice.
        let p = program("for $x in /a return if (exists($x/b)) then $x/b else ()");
        // paths: /a, $x/b (deduped between exists and output), $x (signoffs),
        // plus signoff targets. Count $x/b only once:
        let n_xb = p
            .paths
            .iter()
            .filter(|pl| {
                pl.step_len == 1
                    && matches!(pl.root, PlanRoot::Var(_))
                    && matches!(
                        p.path_steps(**pl),
                        [EvalStep {
                            test: ETest::Name(s),
                            ..
                        }] if p.symbols().resolve(*s) == "b"
                    )
            })
            .count();
        // $x/b (exists+output, deduped) and the signOff target $x/b[1]… —
        // predicates differ, so count plans whose step has no predicate.
        assert!(n_xb >= 1);
        let dup = p.paths.iter().enumerate().any(|(i, a)| {
            p.paths[..i].iter().any(|b| {
                a.root == b.root && a.attr == b.attr && steps_eq(p.path_steps(*a), p.path_steps(*b))
            })
        });
        assert!(!dup, "no two path plans may be structurally identical");
    }

    fn steps_eq(a: &[EvalStep], b: &[EvalStep]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.axis == y.axis && x.test == y.test && x.pos == y.pos)
    }

    #[test]
    fn number_literals_preformat() {
        let p = program("3.0");
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Text(s) if p.str_(*s) == "3")));
    }

    #[test]
    fn listing_is_stable_and_complete() {
        let p = program(PAPER_QUERY);
        let listing = p.listing();
        assert!(listing.contains("instrs:"), "{listing}");
        assert!(listing.contains("paths:"), "{listing}");
        assert!(listing.contains("steps:"), "{listing}");
        assert!(listing.contains("signOff"), "{listing}");
        assert!(listing.contains("for $bib in p"), "{listing}");
        assert_eq!(listing, p.listing(), "listing must be deterministic");
    }

    #[test]
    fn attribute_paths_split_into_selector() {
        let p = program("for $x in /a return $x/@id");
        assert!(p
            .paths
            .iter()
            .any(|pl| matches!(pl.attr, AttrPlan::Name(s) if p.symbols().resolve(s) == "id")));
    }
}
