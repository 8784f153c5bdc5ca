//! The streamability classifier: one [`IrVisitor`] pass over the
//! optimized program, folding per-construct contributions into the
//! query's class and lint list.

use gcx_ir::{
    walk, AttrPlan, CondId, CondIr, EAxis, ETest, Instr, InstrId, IrVisitor, OperandIr, PathId,
    PathPlan, PathUse, PlanRoot, Program, WalkCtx,
};
use gcx_query::ast::{AggFunc, RoleId};
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
    /// Bounded by one binding's subtree; peaks do not scale with the
    /// document.
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

/// Classify an optimized program, with an optional DTD for tightening.
pub fn analyze_program(p: &Program, dtd: Option<&Dtd>) -> QueryAnalysis {
    let mut readers = RootReaders(0);
    walk(p, &mut readers);
    let mut v = Classifier {
        dtd,
        class: StreamClass::Constant,
        bound_span: None,
        bindings: Vec::new(),
        lints: Vec::new(),
        shared: readers.0 > 1,
    };
    walk(p, &mut v);
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

struct Classifier<'a> {
    dtd: Option<&'a Dtd>,
    class: StreamClass,
    /// Span of the first contribution that reached the current class.
    bound_span: Option<String>,
    bindings: Vec<BindingReport>,
    lints: Vec<GcxLint>,
    /// More than one path rooted at `/` reads the document. Whichever
    /// runs first may block on input before the others run, and their
    /// matches accumulate in the buffer meanwhile: a root value use is
    /// released as it is consumed only when it is the query's one root
    /// reader.
    shared: bool,
}

/// Counts the path uses rooted at `/` that read the document.
struct RootReaders(usize);

impl IrVisitor for RootReaders {
    fn visit_path(&mut self, p: &Program, id: PathId, use_: PathUse, _ctx: &WalkCtx) {
        if use_ != PathUse::SignOff && p.path(id).root == PlanRoot::Root {
            self.0 += 1;
        }
    }
}

/// The DTD proves the rooted path `plan` selects a constant-size region
/// (see [`Dtd::path_is_bounded`]).
fn bounded(dtd: &Dtd, p: &Program, plan: PathPlan) -> bool {
    let has_attr = plan.attr != AttrPlan::None;
    plan.root == PlanRoot::Root && dtd.path_is_bounded(p.path_steps(plan), has_attr, p.symbols())
}

fn has_positional(p: &Program, plan: PathPlan) -> bool {
    p.path_steps(plan).iter().any(|s| s.pos.is_some())
}

/// A path of one child step from `/` (`/site`, `/bib`): its one match is
/// the document element — a document has exactly one — so it covers the
/// whole document, as `/` does.
fn document_element(p: &Program, plan: PathPlan) -> bool {
    plan.root == PlanRoot::Root
        && plan.attr == AttrPlan::None
        && matches!(p.path_steps(plan), [s] if s.axis == EAxis::Child && s.pos.is_none())
}

/// What one match of a value use that releases each match as it is
/// consumed holds in the buffer, or `None` when one match can span a
/// whole region. An attribute's owner element or a text node is released
/// at the match (`constant`), and so is a counted element, which waits
/// for its end tag, when no match can nest in another (child and self
/// steps only). Otherwise one match is held with its subtree until it is
/// consumed (`per-item`): an atomized element until its string value is
/// taken, a counted one until its end tag, with the matches nested in it.
/// A wildcard under a descendant step can match an element that holds
/// every later match (`//*` first matches the document element), and a
/// path with no steps is the document root itself: `None` for both.
fn one_match(p: &Program, plan: PathPlan, atomized: bool) -> Option<StreamClass> {
    let steps = p.path_steps(plan);
    let leaf =
        plan.attr != AttrPlan::None || matches!(steps.last(), Some(s) if s.test == ETest::Text);
    let nests = steps
        .iter()
        .any(|s| matches!(s.axis, EAxis::Descendant | EAxis::DescendantOrSelf));
    let named = matches!(steps.last(), Some(s) if matches!(s.test, ETest::Name(_)));
    if !plan.has_steps() {
        None
    } else if leaf || (!atomized && !nests) {
        Some(StreamClass::Constant)
    } else if nests && !named {
        None
    } else {
        Some(StreamClass::PerItem)
    }
}

impl Classifier<'_> {
    fn raise(&mut self, class: StreamClass, span: &str) {
        if class > self.class {
            self.class = class;
            self.bound_span = Some(span.to_string());
        }
    }

    fn lint(
        &mut self,
        code: &'static str,
        severity: Severity,
        span: &str,
        message: &str,
        why: &str,
    ) {
        self.lints.push(GcxLint {
            code,
            severity,
            span: span.to_string(),
            message: message.to_string(),
            why: why.to_string(),
        });
    }

    fn report(&mut self, name: &str, span: &str, class: StreamClass, reason: &str) {
        self.raise(class, span);
        self.bindings.push(BindingReport {
            name: name.to_string(),
            path: span.to_string(),
            class,
            reason: reason.to_string(),
        });
    }

    /// A `for` binding path.
    fn binding(&mut self, p: &Program, path: PathId, name: &str, ctx: &WalkCtx) {
        let plan = p.path(path);
        let span = p.path_display(path);
        match plan.root {
            PlanRoot::Var(_) => self.report(
                name,
                &span,
                StreamClass::PerItem,
                "nested: ranges inside the enclosing binding's subtree",
            ),
            PlanRoot::Root if !plan.has_steps() => {
                self.lint(
                    "GCX-ROOT",
                    Severity::Warning,
                    &span,
                    "the loop binds the document root itself",
                    "one binding covers the whole document, so releasing per iteration releases nothing",
                );
                self.report(
                    name,
                    &span,
                    StreamClass::Document,
                    "binds the document root",
                );
            }
            PlanRoot::Root if document_element(p, plan) => {
                self.lint(
                    "GCX-ROOT",
                    Severity::Warning,
                    &span,
                    "the loop binds the document element",
                    "a document has one element at its root, so one binding covers the whole document and releasing per iteration releases nothing",
                );
                self.report(
                    name,
                    &span,
                    StreamClass::Document,
                    "binds the document element",
                );
            }
            PlanRoot::Root if has_positional(p, plan) => {
                self.lint(
                    "GCX-POS",
                    Severity::Warning,
                    &span,
                    "positional predicate on a document-level path",
                    "deciding the k-th match can require holding earlier candidates of an unbounded sequence",
                );
                self.report(
                    name,
                    &span,
                    StreamClass::Document,
                    "positional predicate on a document-level path",
                );
            }
            PlanRoot::Root if ctx.depth() > 0 => {
                self.lint(
                    "GCX-JOIN",
                    Severity::Warning,
                    &span,
                    "document-level loop nested inside another loop (join shape)",
                    "the inner sequence is re-scanned once per outer binding, so its nodes cannot be released before the outer loop ends",
                );
                self.report(
                    name,
                    &span,
                    StreamClass::Document,
                    "document-level sequence re-scanned per outer binding",
                );
            }
            PlanRoot::Root => self.report(
                name,
                &span,
                StreamClass::PerItem,
                "streamed: each binding is released when its iteration ends",
            ),
        }
    }

    /// A Root-rooted region held as a unit (top-level output copy,
    /// aggregate argument): `Subtree`, unless the DTD caps it.
    fn region(&mut self, p: &Program, plan: PathPlan, span: &str, name: &str, why: &str) {
        if let Some(dtd) = self.dtd {
            if bounded(dtd, p, plan) {
                self.lint(
                    "GCX-DTD",
                    Severity::Info,
                    span,
                    "DTD bounds this region to constant size",
                    "the content models cap both the match count and every matched subtree, so Subtree tightens to PerItem",
                );
                self.report(
                    name,
                    span,
                    StreamClass::PerItem,
                    "subtree selection, DTD-bounded",
                );
                return;
            }
        }
        self.lint(
            "GCX-SUBTREE",
            Severity::Info,
            span,
            "buffers a document-level region",
            why,
        );
        self.report(name, span, StreamClass::Subtree, why);
    }

    /// A path in output position.
    fn emission(&mut self, p: &Program, path: PathId, ctx: &WalkCtx) {
        let plan = p.path(path);
        let span = p.path_display(path);
        match plan.root {
            PlanRoot::Var(_) => self.raise(StreamClass::PerItem, &span),
            PlanRoot::Root if !plan.has_steps() => {
                self.lint(
                    "GCX-ROOT",
                    Severity::Warning,
                    &span,
                    "the query copies the whole document",
                    "the output is the document itself; nothing can be released before it is emitted",
                );
                self.report(
                    "output",
                    &span,
                    StreamClass::Document,
                    "copies the document root",
                );
            }
            PlanRoot::Root if has_positional(p, plan) => {
                self.lint(
                    "GCX-POS",
                    Severity::Warning,
                    &span,
                    "positional predicate on a document-level path",
                    "deciding the k-th match can require holding earlier candidates of an unbounded sequence",
                );
                self.report(
                    "output",
                    &span,
                    StreamClass::Document,
                    "positional predicate on a document-level path",
                );
            }
            PlanRoot::Root if ctx.depth() > 0 => {
                self.lint(
                    "GCX-ROOT",
                    Severity::Warning,
                    &span,
                    "loop body re-enters the document root",
                    "nodes outside the binding's subtree must stay buffered across iterations",
                );
                self.report(
                    "output",
                    &span,
                    StreamClass::Document,
                    "loop body re-enters the document root",
                );
            }
            PlanRoot::Root => self.region(
                p,
                plan,
                &span,
                "output",
                "the selected region is emitted as one unit and buffered until complete",
            ),
        }
    }

    /// An aggregate argument.
    fn aggregate(
        &mut self,
        p: &Program,
        func: AggFunc,
        path: PathId,
        release: Option<RoleId>,
        ctx: &WalkCtx,
    ) {
        let plan = p.path(path);
        let span = p.path_display(path);
        let name = format!("{}()", func.name());
        match plan.root {
            PlanRoot::Var(_) => self.raise(StreamClass::PerItem, &span),
            PlanRoot::Root if has_positional(p, plan) => {
                self.lint(
                    "GCX-POS",
                    Severity::Warning,
                    &span,
                    "positional predicate on a document-level path",
                    "deciding the k-th match can require holding earlier candidates of an unbounded sequence",
                );
                self.report(
                    &name,
                    &span,
                    StreamClass::Document,
                    "positional predicate on a document-level path",
                );
            }
            PlanRoot::Root if ctx.depth() > 0 => {
                self.lint(
                    "GCX-ROOT",
                    Severity::Warning,
                    &span,
                    "loop body aggregates over the document root",
                    "the aggregated region lies outside the binding's subtree and stays buffered across iterations",
                );
                self.report(
                    &name,
                    &span,
                    StreamClass::Document,
                    "loop body aggregates over the document root",
                );
            }
            PlanRoot::Root => {
                if release.is_some() && !self.shared {
                    if let Some(class) = one_match(p, plan, func != AggFunc::Count) {
                        self.report(
                            &name,
                            &span,
                            class,
                            "streamed: each match is released as it is folded in",
                        );
                        return;
                    }
                }
                if func == AggFunc::Count {
                    return self.region(
                        p,
                        plan,
                        &span,
                        &name,
                        "count() retains the counted region until the total is known",
                    );
                }
                if let Some(dtd) = self.dtd {
                    if bounded(dtd, p, plan) {
                        self.lint(
                            "GCX-DTD",
                            Severity::Info,
                            &span,
                            "DTD bounds the aggregated sequence to constant size",
                            "the content models cap the match count, so the aggregate's retention tightens to PerItem",
                        );
                        self.report(
                            &name,
                            &span,
                            StreamClass::PerItem,
                            "aggregate over a DTD-bounded sequence",
                        );
                        return;
                    }
                }
                self.lint(
                    "GCX-AGG",
                    Severity::Warning,
                    &span,
                    &format!("{}() over a document-level sequence", func.name()),
                    "the aggregated values form an unbounded sequence the engine cannot release before the document ends",
                );
                self.report(
                    &name,
                    &span,
                    StreamClass::Document,
                    "aggregate over an unbounded document-level sequence",
                );
            }
        }
    }

    /// An `exists` probe or comparison operand (`release`: the operand's
    /// release role).
    fn probe(
        &mut self,
        p: &Program,
        path: PathId,
        use_: PathUse,
        release: Option<RoleId>,
        ctx: &WalkCtx,
    ) {
        let plan = p.path(path);
        let span = p.path_display(path);
        match plan.root {
            PlanRoot::Var(_) => self.raise(StreamClass::PerItem, &span),
            PlanRoot::Root if has_positional(p, plan) => {
                self.lint(
                    "GCX-POS",
                    Severity::Warning,
                    &span,
                    "positional predicate on a document-level path",
                    "deciding the k-th match can require holding earlier candidates of an unbounded sequence",
                );
                self.raise(StreamClass::Document, &span);
            }
            PlanRoot::Root if ctx.depth() > 0 => {
                if use_ == PathUse::Operand {
                    self.lint(
                        "GCX-JOIN",
                        Severity::Warning,
                        &span,
                        "comparison against a document-level sequence inside a loop",
                        "a value join: the compared sequence must stay available for every outer binding",
                    );
                } else {
                    self.lint(
                        "GCX-ROOT",
                        Severity::Warning,
                        &span,
                        "loop condition probes the document root",
                        "the probed region must stay available across iterations",
                    );
                }
                self.raise(StreamClass::Document, &span);
            }
            PlanRoot::Root if use_ == PathUse::Operand && !plan.has_steps() => {
                self.lint(
                    "GCX-ROOT",
                    Severity::Warning,
                    &span,
                    "comparison atomizes the document root",
                    "the operand's string value is the whole document's text, held until the document ends",
                );
                self.raise(StreamClass::Document, &span);
            }
            PlanRoot::Root => {
                // The query's one root reader: each match is released
                // once its value is taken.
                if release.is_some() && !self.shared {
                    if let Some(class) = one_match(p, plan, true) {
                        self.raise(class, &span);
                        return;
                    }
                }
                // A top-level condition over a document region: held as
                // a unit, like a top-level output.
                if let Some(dtd) = self.dtd {
                    if bounded(dtd, p, plan) {
                        self.raise(StreamClass::PerItem, &span);
                        return;
                    }
                }
                self.raise(StreamClass::Subtree, &span);
            }
        }
    }
}

impl IrVisitor for Classifier<'_> {
    fn enter_instr(&mut self, p: &Program, id: InstrId, ctx: &WalkCtx) -> bool {
        match p.instr(id) {
            Instr::For { var, path, .. } => {
                let name = format!("${}", p.var_name(var));
                self.binding(p, path, &name, ctx);
                true
            }
            Instr::OutputPath { path, .. } => {
                self.emission(p, path, ctx);
                true
            }
            Instr::Aggregate {
                func,
                path,
                release,
            } => {
                self.aggregate(p, func, path, release, ctx);
                true
            }
            Instr::HashJoin(j) => {
                // Classified as a unit: the preserved fallback would
                // re-report the same loop.
                let plan = p.join(j);
                let span = p.path_display(plan.path);
                self.lint(
                    "GCX-JOIN",
                    Severity::Warning,
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
                false
            }
            _ => true,
        }
    }

    fn visit_cond(&mut self, p: &Program, id: CondId, ctx: &WalkCtx) {
        // Operands are classified here, where their release role is
        // known.
        if let CondIr::Compare { lhs, rhs, .. }
        | CondIr::StringFn {
            haystack: lhs,
            needle: rhs,
            ..
        } = p.cond(id)
        {
            for op in [lhs, rhs] {
                if let OperandIr::Path { path, release } = p.operand(op) {
                    self.probe(p, path, PathUse::Operand, release, ctx);
                }
            }
        }
    }

    fn visit_path(&mut self, p: &Program, id: PathId, use_: PathUse, ctx: &WalkCtx) {
        // Bindings, outputs and aggregates are classified from
        // `enter_instr` (they need the instruction's context), and
        // operands from `visit_cond`; signOffs are buffer-local and free.
        if use_ == PathUse::Exists {
            self.probe(p, id, use_, None, ctx);
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
        // The second count runs only once the first has read its whole
        // region: the matches of its own region wait in the buffer
        // meanwhile. With two root readers neither is released.
        let a = analyzed("<r>{ count(/site/people/person), count(/site/regions//item) }</r>");
        assert_eq!(a.class, StreamClass::Subtree);
        assert!(a.bound.contains("person region"), "{}", a.bound);
        let lints: Vec<_> = a.lints.iter().map(|l| (l.code, l.span.as_str())).collect();
        assert_eq!(
            lints,
            [
                ("GCX-SUBTREE", "/child::site/child::people/child::person"),
                (
                    "GCX-SUBTREE",
                    "/child::site/child::regions/descendant::item"
                )
            ]
        );
        // A later root loop waits the same way while the count blocks.
        let a = analyzed(
            "<r>{ count(/site/regions//item) }\
               { for $p in /site/people/person return $p/name }</r>",
        );
        assert_eq!(a.class, StreamClass::Subtree);
        assert!(a.bound.contains("item region"), "{}", a.bound);
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
        // read its region, so neither is released.
        let a = analyzed("if (/site/a = /site/b) then \"y\" else ()");
        assert_eq!(a.class, StreamClass::Subtree);
        assert!(a.bound.contains("child::a"), "{}", a.bound);
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
