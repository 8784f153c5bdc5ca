//! The streamability classifier: one [`IrVisitor`] pass over the
//! optimized program, folding per-construct contributions into the
//! query's class and lint list.

use gcx_ir::{
    walk, AttrPlan, CondId, CondIr, EAxis, ETest, EvalStep, Instr, InstrId, IrVisitor, OperandIr,
    PathId, PathUse, PlanRoot, Program, WalkCtx,
};
use gcx_query::ast::{AggFunc, RoleId, VarId};
use gcx_schema::Dtd;
use std::fmt::Write as _;

/// Worst-case buffer growth of a query or one of its constructs, as a
/// function of the input document. Ordered: `Constant < PerItem <
/// Subtree < Document`, so the query class is the `max` of its
/// contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StreamClass {
    /// O(1) — no document-dependent state.
    Constant,
    /// Bounded by the largest bound item: one iteration's nodes, or one
    /// released match.
    PerItem,
    /// Proportional to a selected region of the document.
    Subtree,
    /// Whole-document retention in the worst case.
    Document,
}

impl StreamClass {
    /// Kebab-case name, as printed by the CLI and the
    /// `X-Gcx-Streamability` header.
    pub fn as_str(self) -> &'static str {
        match self {
            StreamClass::Constant => "constant",
            StreamClass::PerItem => "per-item",
            StreamClass::Subtree => "subtree",
            StreamClass::Document => "document",
        }
    }

    /// Parse the kebab-case name (the `--max-static-class` argument).
    pub fn parse(s: &str) -> Option<StreamClass> {
        match s {
            "constant" => Some(StreamClass::Constant),
            "per-item" => Some(StreamClass::PerItem),
            "subtree" => Some(StreamClass::Subtree),
            "document" => Some(StreamClass::Document),
            _ => None,
        }
    }
}

/// Lint severity. `Warning` marks a construct that forces `Document`
/// class; `Info` explains a `Subtree` contribution or a DTD tightening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Explanatory: the construct is handled, its cost is named.
    Info,
    /// The construct forces whole-document retention.
    Warning,
}

impl Severity {
    /// Lowercase name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
        }
    }
}

/// One structured lint: which construct (`span`, a compiled-path
/// display) forces which behaviour, and why.
#[derive(Debug, Clone)]
pub struct GcxLint {
    /// Stable code (`GCX-JOIN`, `GCX-POS`, `GCX-ROOT`, `GCX-AGG`,
    /// `GCX-SUBTREE`, `GCX-DTD`).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// The construct's plan-level span (compiled path display).
    pub span: String,
    /// What the lint is about.
    pub message: String,
    /// Why the classifier assigns the cost it does.
    pub why: String,
}

/// Per-binding (or per-buffer-feeding-construct) classification.
#[derive(Debug, Clone)]
pub struct BindingReport {
    /// `$var` for loop bindings, `output` / `count()` / ... otherwise.
    pub name: String,
    /// The binding path (compiled display form).
    pub path: String,
    /// This construct's own class.
    pub class: StreamClass,
    /// One-line reason.
    pub reason: String,
}

/// The full analysis of one compiled query.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// The query's class: the lattice join of every contribution.
    pub class: StreamClass,
    /// Symbolic worst-case buffer bound, e.g. `O(|document|)`.
    pub bound: String,
    /// Per-construct classifications, in program order.
    pub bindings: Vec<BindingReport>,
    /// Structured diagnostics, in program order.
    pub lints: Vec<GcxLint>,
}

impl QueryAnalysis {
    /// Human-readable report (`gcx analyze`, the explain section).
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "streamability: {}", self.class.as_str());
        let _ = writeln!(out, "bound: {}", self.bound);
        if self.bindings.is_empty() {
            let _ = writeln!(out, "bindings: none");
        } else {
            out.push_str("bindings:\n");
            for b in &self.bindings {
                let _ = writeln!(
                    out,
                    "  {}: {} -> {} ({})",
                    b.name,
                    b.path,
                    b.class.as_str(),
                    b.reason
                );
            }
        }
        if self.lints.is_empty() {
            let _ = writeln!(out, "lints: none");
        } else {
            out.push_str("lints:\n");
            for l in &self.lints {
                let _ = writeln!(
                    out,
                    "  [{}] {} at {}: {}",
                    l.severity.as_str(),
                    l.code,
                    l.span,
                    l.message
                );
                let _ = writeln!(out, "        why: {}", l.why);
            }
        }
        out
    }

    /// The lint lines alone (the server appends these to registration
    /// responses), one per line, `code: message (span)` form.
    pub fn lint_lines(&self) -> Vec<String> {
        self.lints
            .iter()
            .map(|l| {
                format!(
                    "{}: [{}] {}: {} ({})",
                    l.severity.as_str(),
                    l.code,
                    l.span,
                    l.message,
                    l.why
                )
            })
            .collect()
    }
}

/// Classify an optimized program, with an optional DTD for its
/// cardinalities: one walk records each role's anchor and reader and
/// applies the floors, then each role is classed by its holding scope
/// (see the crate docs).
pub fn analyze_program(p: &Program, dtd: Option<&Dtd>) -> QueryAnalysis {
    let paths = p.matcher_paths();
    let mut v = Classifier {
        dtd,
        class: StreamClass::Constant,
        bound_span: None,
        bindings: Vec::new(),
        lints: Vec::new(),
        loops: vec![None; p.n_vars()],
        signoffs: vec![None; paths.len()],
        readers: vec![None; paths.len()],
        read: Vec::new(),
    };
    walk(p, &mut v);
    for i in 0..paths.len() {
        // Path `i` assigns role `i`: the table compiles the roles in order.
        debug_assert_eq!(paths.role_of(i).index(), i);
        v.role(p, paths.role_of(i));
    }
    let bound = match v.class {
        StreamClass::Constant => "O(1)".to_string(),
        StreamClass::PerItem => format!(
            "O(|one {} item|)",
            v.bound_span.as_deref().unwrap_or("binding")
        ),
        StreamClass::Subtree => format!(
            "O(|{} region|)",
            v.bound_span.as_deref().unwrap_or("selected")
        ),
        StreamClass::Document => "O(|document|)".to_string(),
    };
    QueryAnalysis {
        class: v.class,
        bound,
        bindings: v.bindings,
        lints: v.lints,
    }
}

/// The construct that reads a role, where the program names it: a loop's
/// binding, a root output copy, a released root value use.
#[derive(Clone)]
struct Reader {
    span: String,
    report: Option<usize>,
    /// Whether it is the first path its body reads.
    first: bool,
    /// Whether each match is released as it is consumed.
    released: bool,
    /// Whether the use ends in an attribute (the role is on its owner).
    attr: bool,
    /// Whether it folds its matches' values (`sum`, `avg`, `min`, `max`).
    folds: bool,
}

/// How a role's region is held: its class, then the lint's code, message
/// and why, and the report's reason. A lint with no code is not emitted.
type Held = (
    StreamClass,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

/// One released match.
const RELEASED: Held = (
    StreamClass::PerItem,
    "",
    "",
    "",
    "streamed: each match is released as it is folded in",
);

/// One item of a loop over the document element is the whole document.
const DOCUMENT_ELEMENT: Held = (
    StreamClass::Document,
    "GCX-ROOT",
    "the loop binds the document element",
    "a document has one element at its root, so one binding covers the whole document and releasing per iteration releases nothing",
    "binds the document element",
);

/// One item of a loop the DTD proves has one match is its whole region.
const SINGLETON: Held = (
    StreamClass::Subtree,
    "GCX-SUBTREE",
    "the loop binds a singleton",
    "the content models allow one match, so what one iteration holds is held across that match's whole region",
    "binds a singleton: its one item is a whole region",
);

/// A role held until its reader is done with the whole document.
const UNTIL_END: Held = (
    StreamClass::Subtree,
    "GCX-SUBTREE",
    "buffers a document-level region",
    "nothing releases the matches before the reader is done with the whole region; the role is signed off at query end",
    "held until query end",
);

/// A role whose reader runs after an earlier reader of the document.
const WAITS: Held = (
    StreamClass::Subtree,
    "GCX-SUBTREE",
    "buffers a document-level region",
    "an earlier reader of the document runs first, and these matches wait in the buffer while it blocks on input",
    "waits behind an earlier reader of the document",
);

/// A root aggregate that cannot release its matches as it folds them.
const AGGREGATE: Held = (
    StreamClass::Document,
    "GCX-AGG",
    "over a document-level sequence",
    "the aggregated values form an unbounded sequence the engine cannot release before the document ends",
    "aggregate over an unbounded document-level sequence",
);

/// A region the DTD bounds.
const BOUNDED: Held = (
    StreamClass::PerItem,
    "GCX-DTD",
    "DTD bounds this region to constant size",
    "the content models cap the match count, and every matched subtree the role holds, so the region tightens to PerItem",
    "region bounded by the DTD",
);

struct Classifier<'a> {
    dtd: Option<&'a Dtd>,
    class: StreamClass,
    /// Span of the first contribution that reached the current class.
    bound_span: Option<String>,
    bindings: Vec<BindingReport>,
    lints: Vec<GcxLint>,
    /// Per variable: the enclosing loop's variable (`None` at the query
    /// level) and the binding role, for a loop that is not floored.
    loops: Vec<Option<(Option<VarId>, RoleId)>>,
    /// Per role: the path of its `signOff` (`$v/...` or rooted at `/`).
    signoffs: Vec<Option<PathId>>,
    /// Per role: its reader, where the program names it.
    readers: Vec<Option<Reader>>,
    /// Per body (the query's, then one per enclosing loop): whether a
    /// path has read it yet.
    read: Vec<bool>,
}

/// What one released match holds, or `None` when one match can span a
/// region. `elem` is the role path without its trailing
/// `descendant-or-self::node()`, and `subtree` whether it had one. An
/// attribute's owner element or a text node is released at the match
/// (`constant`), and so is a counted element, which waits for its end
/// tag, when no match can nest in another (child and self steps only).
/// Otherwise one match is held with its subtree until it is consumed
/// (`per-item`), with the matches nested in it. A wildcard under a
/// descendant step can match an element that holds every later match
/// (`//*` first matches the document element), and a path with no steps
/// is the document root itself: `None` for both.
fn released_match(elem: &[EvalStep], subtree: bool, attr: bool) -> Option<StreamClass> {
    let last = elem.last()?;
    let nests = elem
        .iter()
        .any(|s| matches!(s.axis, EAxis::Descendant | EAxis::DescendantOrSelf));
    if attr || last.test == ETest::Text || (!subtree && !nests) {
        Some(StreamClass::Constant)
    } else if nests && !matches!(last.test, ETest::Name(_)) {
        None
    } else {
        Some(StreamClass::PerItem)
    }
}

/// The floor of a path use: a construct that holds the whole document
/// whatever its roles, as (code, message, why, reason).
fn floor(
    p: &Program,
    path: PathId,
    use_: PathUse,
    ctx: &WalkCtx,
) -> Option<(&'static str, &'static str, &'static str, &'static str)> {
    let plan = p.path(path);
    if plan.root != PlanRoot::Root {
        return None;
    }
    let whole = !plan.has_steps();
    Some(match use_ {
        PathUse::Binding if whole => (
            "GCX-ROOT",
            "the loop binds the document root itself",
            "one binding covers the whole document, so releasing per iteration releases nothing",
            "binds the document root",
        ),
        PathUse::Output if whole => (
            "GCX-ROOT",
            "the query copies the whole document",
            "the output is the document itself; nothing can be released before it is emitted",
            "copies the document root",
        ),
        _ if p.path_steps(plan).iter().any(|s| s.pos.is_some()) => (
            "GCX-POS",
            "positional predicate on a document-level path",
            "deciding the k-th match can require holding earlier candidates of an unbounded sequence",
            "positional predicate on a document-level path",
        ),
        PathUse::Binding if ctx.depth() > 0 => (
            "GCX-JOIN",
            "document-level loop nested inside another loop (join shape)",
            "the inner sequence is re-scanned once per outer binding, so its nodes cannot be released before the outer loop ends",
            "document-level sequence re-scanned per outer binding",
        ),
        PathUse::Output if ctx.depth() > 0 => (
            "GCX-ROOT",
            "loop body re-enters the document root",
            "nodes outside the binding's subtree must stay buffered across iterations",
            "loop body re-enters the document root",
        ),
        PathUse::Aggregate if ctx.depth() > 0 => (
            "GCX-ROOT",
            "loop body aggregates over the document root",
            "the aggregated region lies outside the binding's subtree and stays buffered across iterations",
            "loop body aggregates over the document root",
        ),
        PathUse::Operand if ctx.depth() > 0 => (
            "GCX-JOIN",
            "comparison against a document-level sequence inside a loop",
            "a value join: the compared sequence must stay available for every outer binding",
            "",
        ),
        PathUse::Exists if ctx.depth() > 0 => (
            "GCX-ROOT",
            "loop condition probes the document root",
            "the probed region must stay available across iterations",
            "",
        ),
        PathUse::Operand if whole => (
            "GCX-ROOT",
            "comparison atomizes the document root",
            "the operand's string value is the whole document's text, held until the document ends",
            "",
        ),
        _ => return None,
    })
}

impl Classifier<'_> {
    fn raise(&mut self, class: StreamClass, span: &str) {
        if class > self.class {
            self.class = class;
            self.bound_span = Some(span.to_string());
        }
    }

    fn lint(&mut self, code: &'static str, span: &str, message: &str, why: &str) {
        let severity = match code {
            "GCX-SUBTREE" | "GCX-DTD" => Severity::Info,
            _ => Severity::Warning,
        };
        self.lints.push(GcxLint {
            code,
            severity,
            span: span.to_string(),
            message: message.to_string(),
            why: why.to_string(),
        });
    }

    fn report(&mut self, name: &str, span: &str, class: StreamClass, reason: &str) -> usize {
        self.raise(class, span);
        self.bindings.push(BindingReport {
            name: name.to_string(),
            path: span.to_string(),
            class,
            reason: reason.to_string(),
        });
        self.bindings.len() - 1
    }

    /// Whether the path about to be read is the first its body reads.
    fn first(&mut self, ctx: &WalkCtx) -> bool {
        let d = ctx.depth() as usize;
        self.read.truncate(d + 1);
        self.read.resize(d + 1, false);
        !std::mem::replace(&mut self.read[d], true)
    }

    /// Read one path use: note whether it is the first path its body
    /// reads and apply its floor. A binding, or a root use that is not
    /// floored, becomes the reader of `role`, reported under `name`
    /// unless that is empty.
    fn read(
        &mut self,
        p: &Program,
        path: PathId,
        use_: PathUse,
        ctx: &WalkCtx,
        role: Option<RoleId>,
        name: &str,
    ) -> Option<&mut Reader> {
        let plan = p.path(path);
        // An attribute of a loop variable is read off its bound node, which
        // is there: the read waits on no input, so it takes no later
        // reader's place as the body's first.
        let at_once = matches!(plan.root, PlanRoot::Var(_))
            && plan.step_len == 0
            && plan.attr != AttrPlan::None;
        let first = !at_once && self.first(ctx);
        let span = p.path_display(path);
        if let Some((code, message, why, reason)) = floor(p, path, use_, ctx) {
            self.lint(code, &span, message, why);
            if reason.is_empty() {
                self.raise(StreamClass::Document, &span);
            } else {
                self.report(name, &span, StreamClass::Document, reason);
            }
            return None;
        }
        let (class, reason) = match (use_, plan.root) {
            (PathUse::Binding, PlanRoot::Var(_)) => (
                StreamClass::PerItem,
                "nested: ranges inside the enclosing binding's subtree",
            ),
            (PathUse::Binding, PlanRoot::Root) => (
                StreamClass::PerItem,
                "streamed: each binding is released when its iteration ends",
            ),
            (_, PlanRoot::Var(_)) => return None,
            _ => (StreamClass::Constant, ""),
        };
        let report = (!name.is_empty()).then(|| self.report(name, &span, class, reason));
        let reader = &mut self.readers[role?.index()];
        *reader = Some(Reader {
            span,
            report,
            first,
            released: matches!(use_, PathUse::Aggregate | PathUse::Operand),
            attr: plan.attr != AttrPlan::None,
            folds: false,
        });
        reader.as_mut()
    }

    /// Charge one role's class to its report (or to the query alone),
    /// linting it when it raises what it is charged to.
    fn charge(&mut self, report: Option<usize>, span: &str, class: StreamClass, held: Held) {
        let (_, code, message, why, reason) = held;
        let raises = match report {
            Some(i) => {
                let b = &mut self.bindings[i];
                let raises = class > b.class;
                if raises || b.reason.is_empty() {
                    b.class = b.class.max(class);
                    b.reason = reason.to_string();
                }
                raises
            }
            None => class > self.class,
        };
        if raises && !code.is_empty() {
            // An aggregate's lint names the function, as its report does.
            let message = match report {
                Some(i) if code == "GCX-AGG" => format!("{} {message}", self.bindings[i].name),
                _ => message.to_string(),
            };
            self.lint(code, span, &message, why);
        }
        self.raise(class, span);
    }

    /// A region held as a unit: `per-item` where the DTD bounds it
    /// (`nodes_only`: without the matches' subtrees), else as `held` says.
    /// The one place the DTD tightens a class.
    fn region(
        &mut self,
        p: &Program,
        at: (Option<usize>, &str),
        steps: &[EvalStep],
        nodes_only: bool,
        held: Held,
    ) {
        let bounded = self
            .dtd
            .is_some_and(|dtd| dtd.path_is_bounded(steps, nodes_only, p.symbols()));
        let held = if bounded { BOUNDED } else { held };
        self.charge(at.0, at.1, held.0, held);
    }

    /// The loop binding `v`: its parent loop and its binding's reader.
    fn loop_of(&self, v: VarId) -> Option<(Option<VarId>, RoleId, &Reader)> {
        let (parent, role) = self.loops[v.index()]?;
        Some((parent, role, self.readers[role.index()].as_ref()?))
    }

    /// Classify one role by its holding scope.
    fn role(&mut self, p: &Program, role: RoleId) {
        let steps = p.matcher_paths().steps_of(role.index());
        let (elem, subtree) = match steps.split_last() {
            Some((last, elem))
                if last.axis == EAxis::DescendantOrSelf && last.test == ETest::AnyNode =>
            {
                (elem, true)
            }
            _ => (steps, false),
        };
        if elem.is_empty() && !subtree {
            // The document root alone, which is never purged.
            return;
        }
        let reader = self.readers[role.index()].clone();
        if let Some(r) = reader.as_ref().filter(|r| r.released && r.first) {
            if let Some(class) = released_match(elem, subtree, r.attr) {
                return self.charge(r.report, &r.span, class, RELEASED);
            }
        }
        // The anchor's item, raised past every loop that waits behind an
        // earlier reader of its parent body.
        let signoff = self.signoffs[role.index()];
        let mut scope = signoff.and_then(|s| match p.path(s).root {
            PlanRoot::Var(v) => Some(v),
            PlanRoot::Root => None,
        });
        let mut waits = None;
        let mut at = scope;
        while let Some(v) = at {
            let Some((parent, _, r)) = self.loop_of(v) else {
                scope = None;
                break;
            };
            if !r.first {
                (scope, waits) = (parent, Some((r.report, r.span.clone())));
            }
            at = parent;
        }
        if let Some(v) = scope {
            return self.item(p, v, role);
        }
        // The whole document: the region of the role's path.
        let (report, span, held) = match (waits, &reader) {
            (Some((report, span)), _) => (report, span, WAITS),
            (None, Some(r)) if r.released && !r.first => (r.report, r.span.clone(), WAITS),
            (None, Some(r)) => (r.report, r.span.clone(), UNTIL_END),
            (None, None) => {
                let span = signoff.map_or_else(|| "/".to_string(), |s| p.path_display(s));
                (None, span, UNTIL_END)
            }
        };
        let held = match reader {
            Some(r) if r.folds => AGGREGATE,
            // `/` itself: every use of it that holds it is floored.
            _ if elem.is_empty() => return self.raise(StreamClass::Document, &span),
            _ => held,
        };
        self.region(p, (report, &span), elem, !subtree, held);
    }

    /// A role whose matches are held over one item of `$v`.
    fn item(&mut self, p: &Program, v: VarId, role: RoleId) {
        let (_, bind_role, r) = self.loop_of(v).expect("a scope is a loop the walk met");
        let (report, span) = (r.report, r.span.clone());
        let bind = p.matcher_paths().steps_of(bind_role.index());
        // One child step from `/` matches the document element.
        let element = matches!(bind, [s] if s.axis == EAxis::Child && s.pos.is_none());
        let singleton = match self.dtd {
            Some(dtd) => dtd.occurs(bind, p.symbols()).1 == Some(1),
            None => element,
        };
        if !singleton || role == bind_role {
            // One item of many, or the item's own node.
            return self.raise(StreamClass::PerItem, &span);
        }
        let held = if element { DOCUMENT_ELEMENT } else { SINGLETON };
        self.region(p, (report, &span), bind, false, held);
    }
}

impl IrVisitor for Classifier<'_> {
    fn enter_instr(&mut self, p: &Program, id: InstrId, ctx: &WalkCtx) -> bool {
        match p.instr(id) {
            Instr::For {
                var, path, role, ..
            } => {
                let name = format!("${}", p.var_name(var));
                if self
                    .read(p, path, PathUse::Binding, ctx, Some(role), &name)
                    .is_some()
                {
                    self.loops[var.index()] = Some((ctx.innermost(), role));
                }
            }
            Instr::OutputPath { path, role } => {
                self.read(p, path, PathUse::Output, ctx, role, "output");
            }
            Instr::Aggregate {
                func,
                path,
                release,
            } => {
                let name = format!("{}()", func.name());
                if let Some(r) = self.read(p, path, PathUse::Aggregate, ctx, release, &name) {
                    r.folds = func != AggFunc::Count;
                }
            }
            Instr::SignOff { path, role } => self.signoffs[role.index()] = Some(path),
            Instr::HashJoin(j) => {
                // Classified as a unit: the preserved fallback would
                // re-report the same loop.
                self.first(ctx);
                let plan = p.join(j);
                let span = p.path_display(plan.path);
                self.lint(
                    "GCX-JOIN",
                    &span,
                    "value join over a document-level sequence",
                    "the equality pairs bindings from different document regions; the indexed side stays buffered until the document ends",
                );
                self.report(
                    &format!("${}", p.var_name(plan.var)),
                    &span,
                    StreamClass::Document,
                    "value join: the keyed index retains document-level candidates",
                );
                return false;
            }
            _ => {}
        }
        true
    }

    fn visit_cond(&mut self, p: &Program, id: CondId, ctx: &WalkCtx) {
        // Operands are read here, where their release role is known.
        if let CondIr::Compare { lhs, rhs, .. }
        | CondIr::StringFn {
            haystack: lhs,
            needle: rhs,
            ..
        } = p.cond(id)
        {
            for op in [lhs, rhs] {
                if let OperandIr::Path { path, release } = p.operand(op) {
                    self.read(p, path, PathUse::Operand, ctx, release, "");
                }
            }
        }
    }

    fn visit_path(&mut self, p: &Program, id: PathId, use_: PathUse, ctx: &WalkCtx) {
        // Bindings, outputs and aggregates are read in `enter_instr`
        // (they need the instruction), operands in `visit_cond`; a
        // signOff reads nothing.
        if use_ == PathUse::Exists {
            self.read(p, id, use_, ctx, None, "");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_query::compile as compile_query;

    fn analyzed(q: &str) -> QueryAnalysis {
        analyzed_with(q, None)
    }

    fn analyzed_with(q: &str, dtd: Option<&Dtd>) -> QueryAnalysis {
        let query = compile_query(q).expect("query compiles");
        let analysis = gcx_projection::analyze(&query);
        let p = Program::compile(&query, &analysis);
        let (opt, _) = gcx_ir::optimize(&p);
        analyze_program(&opt, dtd)
    }

    #[test]
    fn static_output_is_constant() {
        let a = analyzed("<a>{ \"hi\" }</a>");
        assert_eq!(a.class, StreamClass::Constant);
        assert_eq!(a.bound, "O(1)");
        assert!(a.lints.is_empty(), "{:?}", a.lints);
    }

    #[test]
    fn streamed_loop_is_per_item() {
        let a = analyzed("for $b in /site/people/person return $b/name");
        assert_eq!(a.class, StreamClass::PerItem);
        assert!(a.bound.contains("person"), "{}", a.bound);
        assert_eq!(a.bindings.len(), 1);
        assert!(a.lints.is_empty(), "{:?}", a.lints);
    }

    #[test]
    fn nested_var_rooted_loops_stay_per_item() {
        let a =
            analyzed("for $b in /site/regions return for $i in $b//item return <i>{ $i/name }</i>");
        assert_eq!(a.class, StreamClass::PerItem);
        assert_eq!(a.bindings.len(), 2);
    }

    #[test]
    fn var_rooted_positional_stays_per_item() {
        // Q2's shape: the positional sits below the binding, bounded by
        // one item's subtree.
        let a = analyzed(
            "for $b in /site/open_auctions/open_auction return \
               <i>{ $b/bidder[1]/increase/text() }</i>",
        );
        assert_eq!(a.class, StreamClass::PerItem);
    }

    #[test]
    fn root_positional_is_document() {
        let a = analyzed("for $b in /site/people/person[2] return $b/name");
        assert_eq!(a.class, StreamClass::Document);
        assert!(a.lints.iter().any(|l| l.code == "GCX-POS"), "{:?}", a.lints);
    }

    #[test]
    fn a_loop_over_the_document_element_is_document() {
        // One child step from `/` has one match, the document element:
        // like a loop over `/`, one binding covers the whole document.
        for q in [
            "for $s in /site return sum($s//item/quantity)",
            "for $b in /bib return $b/book",
            "for $e in /* return $e",
        ] {
            let a = analyzed(q);
            assert_eq!(a.class, StreamClass::Document, "{q}");
            assert_eq!(a.bindings[0].reason, "binds the document element", "{q}");
            assert!(
                a.lints.iter().any(|l| l.code == "GCX-ROOT"),
                "{q}: {:?}",
                a.lints
            );
        }
        // Two child steps may have many matches: per item, as before.
        let a = analyzed("for $r in /site/regions return $r");
        assert_eq!(a.class, StreamClass::PerItem);
        assert!(a.lints.is_empty(), "{:?}", a.lints);
    }

    #[test]
    fn join_shape_is_document_with_gcx_join() {
        let a = analyzed(
            "for $p in /site/people/person return \
               for $t in /site/closed_auctions/closed_auction return \
                 if ($t/buyer/@person = $p/@id) then $t/itemref else ()",
        );
        assert_eq!(a.class, StreamClass::Document);
        assert_eq!(a.bound, "O(|document|)");
        assert!(
            a.lints.iter().any(|l| l.code == "GCX-JOIN"),
            "{:?}",
            a.lints
        );
        // The join loop appears in the binding reports as Document.
        assert!(a
            .bindings
            .iter()
            .any(|b| b.name == "$t" && b.class == StreamClass::Document));
    }

    #[test]
    fn count_over_document_region_is_subtree() {
        // The first count is the query's first reader and releases each
        // match; the second runs only once the first has read its whole
        // region, and the matches of its own region wait in the buffer
        // meanwhile.
        let a = analyzed("<r>{ count(/site/people/person), count(/site/regions//item) }</r>");
        assert_eq!(a.class, StreamClass::Subtree);
        assert!(a.bound.contains("item region"), "{}", a.bound);
        let lints: Vec<_> = a.lints.iter().map(|l| (l.code, l.span.as_str())).collect();
        assert_eq!(
            lints,
            [(
                "GCX-SUBTREE",
                "/child::site/child::regions/descendant::item"
            )]
        );
        // A later root loop waits the same way while the count blocks.
        let a = analyzed(
            "<r>{ count(/site/regions//item) }\
               { for $p in /site/people/person return $p/name }</r>",
        );
        assert_eq!(a.class, StreamClass::Subtree);
        assert!(a.bound.contains("person region"), "{}", a.bound);
    }

    #[test]
    fn sole_root_count_releases_each_match() {
        // Nothing else reads the document: each match is released as it
        // is counted. An item waits for its end tag, with any item nested
        // in it, so one match holds one item's subtree.
        let a = analyzed("<count>{ count(/site/regions//item) }</count>");
        assert_eq!(a.class, StreamClass::PerItem);
        assert!(a.bound.contains("item item"), "{}", a.bound);
        assert!(a.lints.is_empty(), "{:?}", a.lints);
        assert_eq!(a.bindings.len(), 1);
        assert!(
            a.bindings[0].reason.contains("released"),
            "{:?}",
            a.bindings
        );
        // Child steps alone cannot nest: one match is the node alone.
        let a = analyzed("<count>{ count(/site/people/person) }</count>");
        assert_eq!(a.class, StreamClass::Constant);
        assert_eq!(a.bound, "O(1)");
    }

    #[test]
    fn sole_root_value_use_holds_one_match() {
        // An atomized element holds its subtree until its value is taken;
        // an attribute its owner element.
        for (q, class) in [
            (
                "<s>{ sum(/site/open_auctions/open_auction/current) }</s>",
                StreamClass::PerItem,
            ),
            (
                "<s>{ max(/site/people/person/@id) }</s>",
                StreamClass::Constant,
            ),
            ("<s>{ avg(/site/a/b/text()) }</s>", StreamClass::Constant),
            ("<s>{ count(//item/@id) }</s>", StreamClass::Constant),
            (
                "if (/site/regions//item/name = \"x\") then \"y\" else ()",
                StreamClass::PerItem,
            ),
            (
                "if (/site/people/person/@id = \"x\") then \"y\" else ()",
                StreamClass::Constant,
            ),
        ] {
            let a = analyzed(q);
            assert_eq!(a.class, class, "{q}");
            assert!(a.lints.is_empty(), "{q}: {:?}", a.lints);
        }
        // Two root operands: the right one runs after the left one has
        // read its region, so its matches wait in the buffer.
        let a = analyzed("if (/site/a = /site/b) then \"y\" else ()");
        assert_eq!(a.class, StreamClass::Subtree);
        assert!(a.bound.contains("child::b"), "{}", a.bound);
    }

    #[test]
    fn a_match_that_can_span_a_region_is_not_one_match() {
        // `//*` first matches the document element, which holds every
        // later match until its end tag; `/` is the root itself.
        for (q, class, code) in [
            ("<c>{ count(//*) }</c>", StreamClass::Subtree, "GCX-SUBTREE"),
            (
                "<c>{ count(/site//*) }</c>",
                StreamClass::Subtree,
                "GCX-SUBTREE",
            ),
            ("<c>{ sum(//*) }</c>", StreamClass::Document, "GCX-AGG"),
            ("<s>{ sum(/) }</s>", StreamClass::Document, "GCX-AGG"),
            (
                "if (/ = \"x\") then \"y\" else ()",
                StreamClass::Document,
                "GCX-ROOT",
            ),
        ] {
            let a = analyzed(q);
            assert_eq!(a.class, class, "{q}");
            assert!(a.lints.iter().any(|l| l.code == code), "{q}: {:?}", a.lints);
        }
    }

    #[test]
    fn sum_over_document_sequence_is_document() {
        // After a count has blocked on its region, the sum cannot release
        // its matches as it goes.
        let a = analyzed(
            "<s>{ count(/site/people/person), \
                  sum(/site/open_auctions/open_auction/current) }</s>",
        );
        assert_eq!(a.class, StreamClass::Document);
        assert!(a.lints.iter().any(|l| l.code == "GCX-AGG"), "{:?}", a.lints);
    }

    #[test]
    fn loop_body_reentering_root_is_document() {
        let a = analyzed("for $p in /site/people/person return /site/regions");
        assert_eq!(a.class, StreamClass::Document);
        assert!(
            a.lints.iter().any(|l| l.code == "GCX-ROOT"),
            "{:?}",
            a.lints
        );
    }

    #[test]
    fn dtd_tightens_bounded_region_to_per_item() {
        let dtd = Dtd::parse("<!ELEMENT r (a)><!ELEMENT a (b?)><!ELEMENT b (#PCDATA)>").unwrap();
        let with = analyzed_with("<n>{ /r/a }</n>", Some(&dtd));
        assert_eq!(with.class, StreamClass::PerItem);
        assert!(
            with.lints.iter().any(|l| l.code == "GCX-DTD"),
            "{:?}",
            with.lints
        );
        // Without the DTD the same query is Subtree-class.
        let without = analyzed("<n>{ /r/a }</n>");
        assert_eq!(without.class, StreamClass::Subtree);
    }

    #[test]
    fn dtd_tightens_bounded_count_after_an_earlier_reader() {
        // The count is not the query's one root reader, so it holds its
        // region; the DTD caps that region.
        let dtd = Dtd::parse(
            "<!ELEMENT r (x, a)><!ELEMENT x (#PCDATA)><!ELEMENT a (b?)><!ELEMENT b (#PCDATA)>",
        )
        .unwrap();
        let q = "<n>{ /r/x, count(/r/a) }</n>";
        let with = analyzed_with(q, Some(&dtd));
        assert_eq!(with.class, StreamClass::PerItem);
        assert!(
            with.lints
                .iter()
                .any(|l| l.code == "GCX-DTD" && l.span.ends_with("child::a")),
            "{:?}",
            with.lints
        );
        let count = with.bindings.iter().find(|b| b.name == "count()").unwrap();
        assert_eq!(count.class, StreamClass::PerItem);
        assert_eq!(analyzed(q).class, StreamClass::Subtree);
    }

    #[test]
    fn dtd_does_not_tighten_unbounded_regions() {
        let dtd = Dtd::parse("<!ELEMENT r (a*)><!ELEMENT a (b?)><!ELEMENT b (#PCDATA)>").unwrap();
        let a = analyzed_with("<n>{ /r/a }</n>", Some(&dtd));
        assert_eq!(a.class, StreamClass::Subtree);
        assert!(!a.lints.iter().any(|l| l.code == "GCX-DTD"));
    }

    #[test]
    fn a_loop_under_a_condition_is_held_until_query_end() {
        // The engine signs the loop's roles off at query end: its
        // statement may not run once per binding.
        let q = "if (\"a\" = \"a\") then for $p in /site/people/person return $p/name else ()";
        let xmark = Dtd::xmark();
        for dtd in [None, Some(&*xmark)] {
            let a = analyzed_with(q, dtd);
            assert_eq!(a.class, StreamClass::Subtree, "DTD {}", dtd.is_some());
            assert!(a.bound.contains("person region"), "{}", a.bound);
            assert_eq!(a.bindings[0].reason, "held until query end");
        }
    }

    #[test]
    fn a_later_root_loop_waits_behind_the_first() {
        let a = analyzed(
            "<r>{ for $a in /site/people/person return $a/name }\
               { for $i in /site/regions/africa/item return $i/name }</r>",
        );
        assert_eq!(a.class, StreamClass::Subtree);
        assert!(a.bound.contains("child::africa/child::item"), "{}", a.bound);
        let classes: Vec<_> = a.bindings.iter().map(|b| b.class).collect();
        assert_eq!(classes, [StreamClass::PerItem, StreamClass::Subtree]);
    }

    #[test]
    fn a_loop_below_the_document_element_streams_its_items() {
        // Nothing is held across the one `site` item: the person loop is
        // the first reader of its body and signs each person off.
        let a = analyzed("for $s in /site return for $p in $s/people/person return $p/name");
        assert_eq!(a.class, StreamClass::PerItem);
        assert!(a.lints.is_empty(), "{:?}", a.lints);
        // A second reader in the body holds the first loop's region.
        let a = analyzed(
            "for $s in /site return \
               (for $p in $s/people/person return $p/name, $s/regions)",
        );
        assert_eq!(a.class, StreamClass::Document);
        assert_eq!(a.bindings[0].reason, "binds the document element");
    }

    #[test]
    fn a_bound_attribute_read_first_waits_on_nothing() {
        // The `@id` test reads `$r`'s own node: the item loop after it is
        // still the first reader of the body, and streams its items within
        // the one `regions` the DTD allows.
        let xmark = Dtd::xmark();
        let q = "for $r in /site/regions return (if ($r/@id = \"x\") then <x/> else (), \
                   for $i in $r//item return $i/name)";
        for dtd in [None, Some(&*xmark)] {
            assert_eq!(analyzed_with(q, dtd).class, StreamClass::PerItem);
        }
        // An element step does wait: the same test on a child holds the
        // region.
        let q = q.replace("$r/@id", "$r/africa/@id");
        assert_eq!(analyzed_with(&q, Some(&xmark)).class, StreamClass::Subtree);
    }

    #[test]
    fn dtd_singleton_binding_is_classed_by_its_region() {
        let xmark = Dtd::xmark();
        for q in [
            "for $r in /site/regions return <c>{ count($r//item) }</c>",
            "for $s in /site/regions return if (exists($s//item/mailbox)) then <y/> else <n/>",
            "for $r in /site/regions return \
               (for $x in $r/africa/item return $x/name, for $y in $r/asia/item return $y/name)",
            "for $r in /site/regions return $r",
        ] {
            assert_eq!(analyzed(q).class, StreamClass::PerItem, "{q}");
            let a = analyzed_with(q, Some(&xmark));
            assert_eq!(a.class, StreamClass::Subtree, "{q}");
            assert!(a.bound.contains("regions region"), "{q}: {}", a.bound);
            let lints: Vec<_> = a.lints.iter().map(|l| (l.code, l.span.as_str())).collect();
            assert_eq!(
                lints,
                [("GCX-SUBTREE", "/child::site/child::regions")],
                "{q}"
            );
        }
        // Q6 binds the same singleton, but signs each item off in its
        // inner loop: nothing is held across the `regions` item.
        let (_, q6) = gcx_xmark::queries::paper_queries()[1];
        assert_eq!(analyzed_with(q6, Some(&xmark)).class, StreamClass::PerItem);
    }

    #[test]
    fn dtd_bounds_a_waiting_count_by_its_matches() {
        // A count holds its matches, not their subtrees: one `regions`.
        let q = "<r>{ count(/site/people/person), count(/site/regions) }</r>";
        assert_eq!(analyzed(q).class, StreamClass::Subtree);
        let a = analyzed_with(q, Some(&Dtd::xmark()));
        assert_eq!(a.class, StreamClass::PerItem);
        assert!(a.lints.iter().any(|l| l.code == "GCX-DTD"), "{:?}", a.lints);
    }

    #[test]
    fn paper_query_classes_match_measured_behavior() {
        // The pinned expectations behind the soundness suite: nine
        // streaming queries, the join, and the counting ablation, which
        // releases each item as it counts it and holds one item at most.
        let expect = [
            ("Q1", StreamClass::PerItem),
            ("Q6", StreamClass::PerItem),
            ("Q8", StreamClass::Document),
            ("Q13", StreamClass::PerItem),
            ("Q20", StreamClass::PerItem),
            ("Q2", StreamClass::PerItem),
            ("Q3", StreamClass::PerItem),
            ("Q14", StreamClass::PerItem),
            ("Q17", StreamClass::PerItem),
            ("Q19", StreamClass::PerItem),
            ("Q6_COUNT", StreamClass::PerItem),
        ];
        let queries = gcx_xmark::queries::paper_queries();
        assert_eq!(queries.len(), expect.len());
        for ((name, q), (ename, eclass)) in queries.iter().zip(expect) {
            assert_eq!(*name, ename);
            let a = analyzed(q);
            assert_eq!(a.class, eclass, "{name} classified {:?}", a.class);
        }
    }
}
