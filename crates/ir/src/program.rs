//! The flat program representation and its accessors.

use crate::step::{EAxis, ETest, EvalStep};
use gcx_projection::{Automaton, CompiledPaths};
use gcx_query::ast::{AggFunc, CmpOp, RoleId, StrFunc, VarId};
use gcx_xml::{Symbol, SymbolTable};
use std::fmt::Write as _;
use std::sync::Arc;

/// Index of an instruction in the program's instruction arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstrId(pub u32);

/// Index of a condition in the program's condition arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CondId(pub u32);

/// Index of a comparison operand in the program's operand arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperandId(pub u32);

/// Index of a path plan in the program's path table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(pub u32);

/// Index of an interned string in the program's string arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrId(pub u32);

macro_rules! index_impl {
    ($($t:ty),*) => {$(
        impl $t {
            /// Index into the owning arena.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    )*};
}
index_impl!(InstrId, CondId, OperandId, PathId, StrId);

/// What a compiled path is rooted at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanRoot {
    /// The document root (`/...`).
    Root,
    /// A for-variable's current binding (`$x/...`).
    Var(VarId),
}

/// Attribute selector of an attribute-terminated path (split off the step
/// sequence at lowering time; the remaining steps select elements only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrPlan {
    /// The path does not end in an attribute step.
    None,
    /// `@*` — every attribute of the selected elements.
    Any,
    /// `@name` — one attribute by (pre-interned) name.
    Name(Symbol),
}

/// One compiled path: root, a range of the shared [`EvalStep`] arena, and
/// the attribute selector. Identical paths are deduplicated at lowering
/// time, so a path that appears several times in a query (or shares its
/// element prefix with an attribute-terminated variant) compiles once.
#[derive(Debug, Clone, Copy)]
pub struct PathPlan {
    /// Context the path starts from.
    pub root: PlanRoot,
    /// First step in the program's step arena (see
    /// [`Program::path_steps`]).
    pub first_step: u32,
    /// Number of element steps.
    pub step_len: u32,
    /// Trailing attribute selector, if any.
    pub attr: AttrPlan,
}

impl PathPlan {
    /// True when the path has at least one step (element or attribute) —
    /// the signOff wait rule keys on this.
    pub fn has_steps(&self) -> bool {
        self.step_len > 0 || self.attr != AttrPlan::None
    }
}

/// One instruction of the flat program. All operands are arena indices;
/// instructions are `Copy` so the executor reads them by value.
#[derive(Debug, Clone, Copy)]
pub enum Instr {
    /// `()` — no output.
    Nop,
    /// A sequence: execute `len` children starting at `first` in
    /// [`Program::seq_items`].
    Seq {
        /// First child in the sequence-item arena.
        first: u32,
        /// Number of children.
        len: u32,
    },
    /// Emit literal text (string literals and pre-formatted number
    /// literals both lower to this).
    Text(StrId),
    /// Emit a constructed element around its content.
    Element {
        /// Element name.
        name: StrId,
        /// First literal attribute in [`Program::attr_pairs`].
        attrs_first: u32,
        /// Number of literal attributes.
        attrs_len: u32,
        /// Content instruction.
        content: InstrId,
    },
    /// `for $var in path return body`.
    For {
        /// The bound variable.
        var: VarId,
        /// The binding path.
        path: PathId,
        /// The variable's binding role (resolved at lowering time).
        role: RoleId,
        /// Loop body.
        body: InstrId,
    },
    /// `if (cond) then .. else ..`.
    If {
        /// Condition.
        cond: CondId,
        /// Then branch.
        then_branch: InstrId,
        /// Else branch.
        else_branch: InstrId,
    },
    /// A path in output position: emit the matching nodes.
    OutputPath {
        /// The path.
        path: PathId,
        /// The role a matched element's descendants carry for this copy
        /// (`path/descendant-or-self::node()`), when the copy runs at most
        /// once per instance of it: while the evaluator waits at the
        /// copy's frontier, a node holding only this role may go straight
        /// to the writer. `None`: the copy is serialized from the buffer.
        role: Option<RoleId>,
    },
    /// Aggregate over a path, emitting a single text value.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Path argument.
        path: PathId,
        /// The argument's role, when the aggregate runs at most once
        /// (rooted at `/`, outside every `for` body): each match loses its
        /// instances of it as soon as it is folded in.
        release: Option<RoleId>,
    },
    /// `signOff(path, role)` — the compile-time-placed buffer-minimization
    /// statement.
    SignOff {
        /// Nodes losing the role.
        path: PathId,
        /// The role being signed off.
        role: RoleId,
    },
    /// Optimizer-emitted join: a nested `for` whose body is an
    /// equality-filtered `if` runs through a keyed index over the inner
    /// sequence instead of re-scanning the cursor per outer binding. The
    /// payload indexes [`Program::join`].
    HashJoin(u32),
}

/// The side table of one [`Instr::HashJoin`]: everything the executor
/// needs to build the index on the first execution (mirroring the
/// original loop exactly) and to probe it on every later one. The
/// original `for` instruction is preserved as `fallback` so the executor
/// can bail out to the unoptimized loop if index entries went stale.
#[derive(Debug, Clone, Copy)]
pub struct JoinPlan {
    /// The inner loop variable.
    pub var: VarId,
    /// The inner binding path (always rooted at [`PlanRoot::Root`]).
    pub path: PathId,
    /// The inner variable's binding role.
    pub role: RoleId,
    /// Left operand of the join's `=` comparison.
    pub lhs: OperandId,
    /// Right operand of the join's `=` comparison.
    pub rhs: OperandId,
    /// Which operand is the key side (the one rooted at `var`); the other
    /// operand is the probe side.
    pub key_is_lhs: bool,
    /// The `then` branch executed per matching binding.
    pub then_branch: InstrId,
    /// The original `for` instruction, kept verbatim for the stale-index
    /// fallback.
    pub fallback: InstrId,
}

impl JoinPlan {
    /// The probe-side operand (the one *not* rooted at the join variable).
    #[inline]
    pub fn probe(&self) -> OperandId {
        if self.key_is_lhs {
            self.rhs
        } else {
            self.lhs
        }
    }
}

/// One compiled condition.
#[derive(Debug, Clone, Copy)]
pub enum CondIr {
    /// `true()` / `false()`.
    Const(bool),
    /// `not(c)`.
    Not(CondId),
    /// `c1 and c2`.
    And(CondId, CondId),
    /// `c1 or c2`.
    Or(CondId, CondId),
    /// `exists(path)`.
    Exists(PathId),
    /// General comparison with existential sequence semantics.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: OperandId,
        /// Right operand.
        rhs: OperandId,
    },
    /// String predicate with existential sequence semantics.
    StringFn {
        /// Which predicate.
        func: StrFunc,
        /// The string searched in.
        haystack: OperandId,
        /// The string searched for.
        needle: OperandId,
    },
}

/// One compiled comparison operand.
#[derive(Debug, Clone, Copy)]
pub enum OperandIr {
    /// A literal, atomized at compile time: its text plus the numeric
    /// value it parses to (if any).
    Lit {
        /// Canonical text form.
        text: StrId,
        /// Pre-parsed numeric form.
        num: Option<f64>,
    },
    /// Node sequence selected by a path; atomized to string values at
    /// runtime.
    Path {
        /// The path.
        path: PathId,
        /// The operand's role, when its condition runs at most once
        /// (rooted at `/`, outside every `for` body): each match loses its
        /// instances of it as soon as its value is taken.
        release: Option<RoleId>,
    },
}

/// A query compiled to its executable form: flat instruction, condition,
/// operand, path and step arenas plus the pre-interned symbol table and
/// the pre-compiled projection-NFA paths. Immutable after
/// [`Program::compile`]; `Send + Sync`, so one instance is shared across
/// request threads and batch workers.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) symbols: SymbolTable,
    pub(crate) instrs: Vec<Instr>,
    pub(crate) seq_items: Vec<InstrId>,
    pub(crate) conds: Vec<CondIr>,
    pub(crate) operands: Vec<OperandIr>,
    pub(crate) paths: Vec<PathPlan>,
    pub(crate) steps: Vec<EvalStep>,
    pub(crate) strings: Vec<Box<str>>,
    pub(crate) attrs: Vec<(StrId, StrId)>,
    pub(crate) matcher_paths: CompiledPaths,
    pub(crate) automaton: Arc<Automaton>,
    pub(crate) var_names: Vec<String>,
    pub(crate) root: InstrId,
    pub(crate) joins: Vec<JoinPlan>,
}

/// Size counters of a compiled program, for `--stats-json` and benches.
#[derive(Debug, Clone, Copy)]
pub struct ProgramStats {
    /// Instructions in the arena.
    pub instructions: usize,
    /// Pre-compiled evaluator steps.
    pub steps: usize,
    /// Distinct compiled paths.
    pub paths: usize,
    /// Conditions.
    pub conds: usize,
    /// Projection-NFA paths (one per role).
    pub matcher_paths: usize,
    /// Pre-interned symbols.
    pub symbols: usize,
}

impl Program {
    /// The root instruction (the whole rewritten query).
    #[inline]
    pub fn root(&self) -> InstrId {
        self.root
    }

    /// Read one instruction.
    #[inline]
    pub fn instr(&self, id: InstrId) -> Instr {
        self.instrs[id.index()]
    }

    /// Children of a [`Instr::Seq`].
    #[inline]
    pub fn seq_items(&self, first: u32, len: u32) -> &[InstrId] {
        &self.seq_items[first as usize..(first + len) as usize]
    }

    /// Read one condition.
    #[inline]
    pub fn cond(&self, id: CondId) -> CondIr {
        self.conds[id.index()]
    }

    /// Read one operand.
    #[inline]
    pub fn operand(&self, id: OperandId) -> OperandIr {
        self.operands[id.index()]
    }

    /// Read one path plan.
    #[inline]
    pub fn path(&self, id: PathId) -> PathPlan {
        self.paths[id.index()]
    }

    /// Number of compiled paths.
    #[inline]
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Read one join plan (payload of [`Instr::HashJoin`]).
    #[inline]
    pub fn join(&self, idx: u32) -> JoinPlan {
        self.joins[idx as usize]
    }

    /// Number of join plans (zero on unoptimized programs).
    #[inline]
    pub fn join_count(&self) -> usize {
        self.joins.len()
    }

    /// The element steps of a path plan.
    #[inline]
    pub fn path_steps(&self, plan: PathPlan) -> &[EvalStep] {
        &self.steps[plan.first_step as usize..(plan.first_step + plan.step_len) as usize]
    }

    /// The whole step arena: what a path cursor, which remembers its
    /// plan's range, is lent on every call.
    #[inline]
    pub fn steps(&self) -> &[EvalStep] {
        &self.steps
    }

    /// Whether a step carries a positional predicate `[k]`: only such a
    /// step reads a node's sibling ordinals.
    pub fn positional(&self) -> bool {
        self.steps.iter().any(|s| s.pos.is_some())
    }

    /// Resolve an interned program string.
    #[inline]
    pub fn str_(&self, id: StrId) -> &str {
        &self.strings[id.index()]
    }

    /// Literal attributes of an [`Instr::Element`].
    #[inline]
    pub fn attr_pairs(&self, first: u32, len: u32) -> &[(StrId, StrId)] {
        &self.attrs[first as usize..(first + len) as usize]
    }

    /// The pre-interned symbol table. A run clones this as its starting
    /// table, which maps every query symbol into the stream tokenizer's
    /// table once — the only symbol work a run performs.
    #[inline]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The pre-compiled projection-NFA paths (compiled against
    /// [`Program::symbols`]); the preprojector builds its per-run matcher
    /// state from these without re-lowering anything.
    #[inline]
    pub fn matcher_paths(&self) -> &CompiledPaths {
        &self.matcher_paths
    }

    /// [`Program::matcher_paths`] prepared for matching, with everything
    /// the runs so far learnt of its determinisation: the schema-blind
    /// run's matcher starts here (`TaggedMatcher::start`).
    #[inline]
    pub fn automaton(&self) -> &Arc<Automaton> {
        &self.automaton
    }

    /// Name of a for-variable (for diagnostics).
    #[inline]
    pub fn var_name(&self, var: VarId) -> &str {
        &self.var_names[var.index()]
    }

    /// Number of for-variables (the executor's environment size).
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Size counters.
    pub fn stats(&self) -> ProgramStats {
        ProgramStats {
            instructions: self.instrs.len(),
            steps: self.steps.len(),
            paths: self.paths.len(),
            conds: self.conds.len(),
            matcher_paths: self.matcher_paths.len(),
            symbols: self.symbols.len(),
        }
    }

    /// Human-readable program listing: instructions, conditions, path
    /// plans and the step table, with arena indices (`%i` instructions,
    /// `c` conditions, `o` operands, `p` paths, `s` steps). Surfaced by
    /// `gcx explain` and covered by a golden-file test.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        let st = self.stats();
        let _ = writeln!(
            out,
            "program: {} instrs, {} conds, {} paths, {} steps, {} matcher paths, {} symbols; root=%{}",
            st.instructions, st.conds, st.paths, st.steps, st.matcher_paths, st.symbols,
            self.root.0
        );
        out.push_str("instrs:\n");
        for (i, instr) in self.instrs.iter().enumerate() {
            let _ = write!(out, "  %{i:<3} = ");
            match *instr {
                Instr::Nop => out.push_str("nop"),
                Instr::Seq { first, len } => {
                    out.push_str("seq [");
                    for (k, item) in self.seq_items(first, len).iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "%{}", item.0);
                    }
                    out.push(']');
                }
                Instr::Text(s) => {
                    let _ = write!(out, "text {:?}", self.str_(s));
                }
                Instr::Element {
                    name,
                    attrs_first,
                    attrs_len,
                    content,
                } => {
                    let _ = write!(out, "element <{}", self.str_(name));
                    for &(k, v) in self.attr_pairs(attrs_first, attrs_len) {
                        let _ = write!(out, " {}={:?}", self.str_(k), self.str_(v));
                    }
                    let _ = write!(out, "> content=%{}", content.0);
                }
                Instr::For {
                    var,
                    path,
                    role,
                    body,
                } => {
                    let _ = write!(
                        out,
                        "for ${} in p{} role={role} body=%{}",
                        self.var_name(var),
                        path.0,
                        body.0
                    );
                }
                Instr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let _ = write!(
                        out,
                        "if c{} then %{} else %{}",
                        cond.0, then_branch.0, else_branch.0
                    );
                }
                Instr::OutputPath { path, role } => {
                    let _ = write!(out, "output p{}", path.0);
                    if let Some(role) = role {
                        let _ = write!(out, " copying {role}");
                    }
                }
                Instr::Aggregate {
                    func,
                    path,
                    release,
                } => {
                    let _ = write!(out, "aggregate {}(p{})", func.name(), path.0);
                    write_release(&mut out, release);
                }
                Instr::SignOff { path, role } => {
                    let _ = write!(out, "signOff(p{}, {role})", path.0);
                }
                Instr::HashJoin(j) => {
                    let _ = write!(out, "hashjoin j{j}");
                }
            }
            out.push('\n');
        }
        if !self.joins.is_empty() {
            out.push_str("joins:\n");
            for (i, j) in self.joins.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  j{i:<3} = for ${} in p{} role={} key={} probe={} then=%{} fallback=%{}",
                    self.var_name(j.var),
                    j.path.0,
                    j.role,
                    self.operand_display(if j.key_is_lhs { j.lhs } else { j.rhs }),
                    self.operand_display(j.probe()),
                    j.then_branch.0,
                    j.fallback.0,
                );
            }
        }
        if !self.conds.is_empty() {
            out.push_str("conds:\n");
            for (i, c) in self.conds.iter().enumerate() {
                let _ = write!(out, "  c{i:<3} = ");
                match *c {
                    CondIr::Const(b) => {
                        let _ = write!(out, "{b}()");
                    }
                    CondIr::Not(a) => {
                        let _ = write!(out, "not c{}", a.0);
                    }
                    CondIr::And(a, b) => {
                        let _ = write!(out, "c{} and c{}", a.0, b.0);
                    }
                    CondIr::Or(a, b) => {
                        let _ = write!(out, "c{} or c{}", a.0, b.0);
                    }
                    CondIr::Exists(p) => {
                        let _ = write!(out, "exists p{}", p.0);
                    }
                    CondIr::Compare { op, lhs, rhs } => {
                        let _ = write!(
                            out,
                            "compare {} {op:?} {}",
                            self.operand_display(lhs),
                            self.operand_display(rhs)
                        );
                    }
                    CondIr::StringFn {
                        func,
                        haystack,
                        needle,
                    } => {
                        let _ = write!(
                            out,
                            "{}({}, {})",
                            func.name(),
                            self.operand_display(haystack),
                            self.operand_display(needle)
                        );
                    }
                }
                out.push('\n');
            }
        }
        out.push_str("paths:\n");
        for (i, p) in self.paths.iter().enumerate() {
            let root = match p.root {
                PlanRoot::Root => "/".to_string(),
                PlanRoot::Var(v) => format!("${}", self.var_name(v)),
            };
            let attr = match p.attr {
                AttrPlan::None => String::new(),
                AttrPlan::Any => "/@*".to_string(),
                AttrPlan::Name(s) => format!("/@{}", self.symbols.resolve(s)),
            };
            let _ = writeln!(
                out,
                "  p{i:<3} = root={root} steps=s{}..s{}{attr}",
                p.first_step,
                p.first_step + p.step_len,
            );
        }
        out.push_str("steps:\n");
        for (i, s) in self.steps.iter().enumerate() {
            let axis = match s.axis {
                EAxis::Child => "child",
                EAxis::Descendant => "descendant",
                EAxis::DescendantOrSelf => "descendant-or-self",
                EAxis::SelfAxis => "self",
            };
            let test = match s.test {
                ETest::Name(sym) => self.symbols.resolve(sym).to_string(),
                ETest::Star => "*".to_string(),
                ETest::Text => "text()".to_string(),
                ETest::AnyNode => "node()".to_string(),
            };
            let pos = s.pos.map(|k| format!("[{k}]")).unwrap_or_default();
            let _ = writeln!(out, "  s{i:<3} = {axis}::{test}{pos}");
        }
        out
    }

    /// Human-readable form of one compiled path (`$b/child::title`,
    /// `/descendant-or-self::node()/@id`) — the plan-level span names the
    /// observability layer attaches to traces and per-query metrics.
    pub fn path_display(&self, id: PathId) -> String {
        let p = self.path(id);
        let mut out = match p.root {
            PlanRoot::Root => String::new(),
            PlanRoot::Var(v) => format!("${}", self.var_name(v)),
        };
        if p.step_len == 0 && p.attr == AttrPlan::None && out.is_empty() {
            out.push('/');
        }
        for s in self.path_steps(p) {
            let axis = match s.axis {
                EAxis::Child => "child",
                EAxis::Descendant => "descendant",
                EAxis::DescendantOrSelf => "descendant-or-self",
                EAxis::SelfAxis => "self",
            };
            let test = match s.test {
                ETest::Name(sym) => self.symbols.resolve(sym).to_string(),
                ETest::Star => "*".to_string(),
                ETest::Text => "text()".to_string(),
                ETest::AnyNode => "node()".to_string(),
            };
            let _ = write!(out, "/{axis}::{test}");
            if let Some(k) = s.pos {
                let _ = write!(out, "[{k}]");
            }
        }
        match p.attr {
            AttrPlan::None => {}
            AttrPlan::Any => out.push_str("/@*"),
            AttrPlan::Name(s) => {
                let _ = write!(out, "/@{}", self.symbols.resolve(s));
            }
        }
        out
    }

    fn operand_display(&self, id: OperandId) -> String {
        match self.operand(id) {
            OperandIr::Lit { text, .. } => format!("{:?}", self.str_(text)),
            OperandIr::Path { path, release } => {
                let mut out = format!("p{}", path.0);
                write_release(&mut out, release);
                out
            }
        }
    }
}

/// The listing's mark of a value use that releases each match as it
/// consumes it.
fn write_release(out: &mut String, release: Option<RoleId>) {
    if let Some(role) = release {
        let _ = write!(out, " releasing {role}");
    }
}

/// Print a number the way the output model expects (no trailing `.0`).
/// Used at lowering time (number literals pre-format to text) and at
/// runtime (aggregates, atomization).
pub fn fmt_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_number(3.0), "3");
        assert_eq!(fmt_number(3.5), "3.5");
        assert_eq!(fmt_number(0.0), "0");
        assert_eq!(fmt_number(-2.0), "-2");
    }
}
