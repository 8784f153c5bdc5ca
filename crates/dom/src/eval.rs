//! Recursive XQuery evaluation over a fully materialized DOM.
//!
//! Semantics are identical to `gcx-core`'s streaming evaluator (same output
//! model, same comparison rules, same deduplicated document-order path
//! semantics) but the code is written independently, top-down and eagerly —
//! the classic in-memory evaluation strategy.

use crate::tree::{Dom, DomId};
use gcx_query::ast::{
    AggFunc, Axis, CmpOp, Cond, Expr, NodeTest, Operand, PathExpr, PathRoot, Pred, Query, Step,
};
use gcx_query::QueryError;
use gcx_xml::{XmlError, XmlWriter};
use std::collections::HashSet;
use std::io::{Read, Write};

/// Errors from the DOM baseline.
#[derive(Debug)]
pub enum DomError {
    /// XML parse/serialize failure.
    Xml(XmlError),
    /// Query compilation failure.
    Query(QueryError),
    /// Internal invariant violation.
    Internal(String),
}

impl std::fmt::Display for DomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomError::Xml(e) => write!(f, "XML error: {e}"),
            DomError::Query(e) => write!(f, "query error: {e}"),
            DomError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for DomError {}

impl From<XmlError> for DomError {
    fn from(e: XmlError) -> Self {
        DomError::Xml(e)
    }
}

impl From<QueryError> for DomError {
    fn from(e: QueryError) -> Self {
        DomError::Query(e)
    }
}

/// What the baseline measured.
#[derive(Debug, Clone, Copy)]
pub struct DomReport {
    /// Total DOM nodes materialized (the memory proxy).
    pub nodes: usize,
    /// Serialized output size.
    pub output_bytes: u64,
}

/// A node of the data model: the document node or a node of the DOM. It
/// is what a path selects, a variable binds and a copy writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ctx {
    Document,
    Node(DomId),
}

/// Run a normalized query against an input stream (fully materialized
/// first), writing the result to `output`.
pub fn run<R: Read, W: Write>(query: &Query, input: R, output: W) -> Result<DomReport, DomError> {
    let dom = Dom::parse(input)?;
    let mut out = XmlWriter::new(output);
    let mut ev = Evaluator {
        dom: &dom,
        env: vec![None; query.var_names.len()],
    };
    ev.eval(&query.root, &mut out)?;
    out.flush()?;
    Ok(DomReport {
        nodes: dom.len(),
        output_bytes: out.bytes_written(),
    })
}

/// Convenience: compile + run, returning the output string.
pub fn run_query(query_text: &str, input: &str) -> Result<String, DomError> {
    let q = gcx_query::compile(query_text)?;
    let mut out = Vec::new();
    run(&q, input.as_bytes(), &mut out)?;
    String::from_utf8(out).map_err(|_| DomError::Internal("non-UTF8 output".into()))
}

struct Evaluator<'d> {
    dom: &'d Dom,
    env: Vec<Option<Ctx>>,
}

impl<'d> Evaluator<'d> {
    fn resolve_root(&self, root: &PathRoot) -> Result<Ctx, DomError> {
        match root {
            PathRoot::Root => Ok(Ctx::Document),
            PathRoot::Var(v) => self.env[v.id.index()]
                .ok_or_else(|| DomError::Internal(format!("${} unbound", v.name))),
        }
    }

    fn children_of(&self, ctx: Ctx) -> &'d [DomId] {
        match ctx {
            Ctx::Document => &self.dom.roots,
            Ctx::Node(n) => self.dom.children(n),
        }
    }

    fn test_matches(&self, test: &NodeTest, n: DomId) -> bool {
        match test {
            NodeTest::Name(name) => self.dom.name(n) == Some(name.as_str()),
            NodeTest::Star => !self.dom.is_text(n),
            NodeTest::Text => self.dom.is_text(n),
            NodeTest::AnyNode => true,
        }
    }

    /// Serialize `c`: a node, or the document node's children.
    fn serialize<W: Write>(&self, c: Ctx, out: &mut XmlWriter<W>) -> Result<(), DomError> {
        match c {
            Ctx::Node(n) => self.dom.serialize(n, out)?,
            Ctx::Document => {
                for &n in &self.dom.roots {
                    self.dom.serialize(n, out)?;
                }
            }
        }
        Ok(())
    }

    /// XPath string value of `c`.
    fn string_value(&self, c: Ctx, out: &mut String) {
        match c {
            Ctx::Node(n) => self.dom.string_value(n, out),
            Ctx::Document => {
                for &n in &self.dom.roots {
                    self.dom.string_value(n, out);
                }
            }
        }
    }

    /// All nodes matching `steps` from `ctx`, distinct, in document order.
    fn eval_steps(&self, ctx: Ctx, steps: &[Step]) -> Vec<Ctx> {
        let mut acc = Vec::new();
        self.step_rec(ctx, steps, &mut acc);
        // Multiple descendant axes can produce duplicate derivations;
        // XQuery sequences are distinct nodes in document order.
        let mut seen = HashSet::new();
        acc.retain(|id| seen.insert(*id));
        acc
    }

    fn step_rec(&self, ctx: Ctx, steps: &[Step], acc: &mut Vec<Ctx>) {
        let Some((step, rest)) = steps.split_first() else {
            acc.push(ctx);
            return;
        };
        match step.axis {
            Axis::Child => {
                let mut seen = 0u32;
                for &c in self.children_of(ctx) {
                    if self.test_matches(&step.test, c) {
                        seen += 1;
                        match step.pred {
                            Some(Pred::Position(k)) if seen != k => {}
                            _ => self.step_rec(Ctx::Node(c), rest, acc),
                        }
                    }
                }
            }
            Axis::Descendant => {
                for &c in self.children_of(ctx) {
                    self.dos_rec(c, step, rest, acc);
                }
            }
            Axis::DescendantOrSelf => match ctx {
                Ctx::Node(n) => self.dos_rec(n, step, rest, acc),
                Ctx::Document => {
                    for &c in self.children_of(ctx) {
                        self.dos_rec(c, step, rest, acc);
                    }
                }
            },
            Axis::SelfAxis => {
                if let Ctx::Node(n) = ctx {
                    if self.test_matches(&step.test, n) {
                        self.step_rec(ctx, rest, acc);
                    }
                }
            }
            Axis::Attribute => {
                unreachable!("attribute steps are handled by the caller")
            }
        }
    }

    /// Descendant-or-self dispatch. Iterative over the subtree (an explicit
    /// stack, popped in document order): descendant axes see the whole
    /// document depth, which must not become native stack depth. The
    /// `step_rec` recursion it feeds is bounded by the path length.
    fn dos_rec(&self, n: DomId, step: &Step, rest: &[Step], acc: &mut Vec<Ctx>) {
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            if self.test_matches(&step.test, m) {
                self.step_rec(Ctx::Node(m), rest, acc);
            }
            stack.extend(self.dom.children(m).iter().rev());
        }
    }

    /// Matches of a full path expression; attribute-terminated paths return
    /// the owner elements plus the selector.
    fn eval_path<'p>(&self, p: &'p PathExpr) -> Result<(Vec<Ctx>, Option<&'p Step>), DomError> {
        let ctx = self.resolve_root(&p.root)?;
        if p.ends_in_attribute() {
            let (last, rest) = p.steps.split_last().unwrap();
            Ok((self.eval_steps(ctx, rest), Some(last)))
        } else {
            Ok((self.eval_steps(ctx, &p.steps), None))
        }
    }

    /// Attribute values selected by an attribute step on `c` (the
    /// document node has none).
    fn attr_values(&self, c: Ctx, attr_step: &Step, out: &mut Vec<String>) {
        let Ctx::Node(n) = c else { return };
        match &attr_step.test {
            NodeTest::Name(name) => {
                if let Some(v) = self.dom.attr(n, name) {
                    out.push(v.to_string());
                }
            }
            _ => {
                for (_, v) in self.dom.attrs(n) {
                    out.push(v.clone());
                }
            }
        }
    }

    fn eval<W: Write>(&mut self, e: &Expr, out: &mut XmlWriter<W>) -> Result<(), DomError> {
        match e {
            Expr::Empty => Ok(()),
            Expr::Sequence(items) => {
                for item in items {
                    self.eval(item, out)?;
                }
                Ok(())
            }
            Expr::StringLit(s) => {
                out.text(s)?;
                Ok(())
            }
            Expr::NumberLit(v) => {
                out.text(&fmt_number(*v))?;
                Ok(())
            }
            Expr::Element {
                name,
                attrs,
                content,
            } => {
                out.start_element(name)?;
                for (k, v) in attrs {
                    out.attribute(k, v)?;
                }
                self.eval(content, out)?;
                out.end_element()?;
                Ok(())
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval_cond(cond)? {
                    self.eval(then_branch, out)
                } else {
                    self.eval(else_branch, out)
                }
            }
            Expr::For {
                var, source, body, ..
            } => {
                let (matches, attr) = self.eval_path(source)?;
                debug_assert!(attr.is_none(), "normalize rejects attribute loops");
                for m in matches {
                    self.env[var.id.index()] = Some(m);
                    self.eval(body, out)?;
                    self.env[var.id.index()] = None;
                }
                Ok(())
            }
            Expr::Path(p) => {
                let (matches, attr) = self.eval_path(p)?;
                for m in matches {
                    match attr {
                        Some(step) => {
                            let mut vals = Vec::new();
                            self.attr_values(m, step, &mut vals);
                            for v in vals {
                                out.text(&v)?;
                            }
                        }
                        None => self.serialize(m, out)?,
                    }
                }
                Ok(())
            }
            Expr::Aggregate { func, arg } => {
                let values = self.collect_values(&Operand::Path(arg.clone()))?;
                let text = match func {
                    AggFunc::Count => Some(fmt_number(values.len() as f64)),
                    AggFunc::Sum => {
                        Some(fmt_number(values.iter().filter_map(|v| v.num).sum::<f64>()))
                    }
                    AggFunc::Min => values
                        .iter()
                        .filter_map(|v| v.num)
                        .fold(None, |acc: Option<f64>, v| {
                            Some(acc.map_or(v, |a| a.min(v)))
                        })
                        .map(fmt_number),
                    AggFunc::Max => values
                        .iter()
                        .filter_map(|v| v.num)
                        .fold(None, |acc: Option<f64>, v| {
                            Some(acc.map_or(v, |a| a.max(v)))
                        })
                        .map(fmt_number),
                    AggFunc::Avg => {
                        let nums: Vec<f64> = values.iter().filter_map(|v| v.num).collect();
                        if nums.is_empty() {
                            None
                        } else {
                            Some(fmt_number(nums.iter().sum::<f64>() / nums.len() as f64))
                        }
                    }
                };
                if let Some(t) = text {
                    out.text(&t)?;
                }
                Ok(())
            }
            // signOff is a no-op outside the streaming engine: the DOM
            // baseline evaluates the *un-rewritten* query, but tolerate it.
            Expr::SignOff { .. } => Ok(()),
        }
    }

    fn eval_cond(&mut self, c: &Cond) -> Result<bool, DomError> {
        match c {
            Cond::True => Ok(true),
            Cond::False => Ok(false),
            Cond::Not(inner) => Ok(!self.eval_cond(inner)?),
            Cond::And(a, b) => Ok(self.eval_cond(a)? && self.eval_cond(b)?),
            Cond::Or(a, b) => Ok(self.eval_cond(a)? || self.eval_cond(b)?),
            Cond::Exists(p) => {
                let (matches, attr) = self.eval_path(p)?;
                match attr {
                    None => Ok(!matches.is_empty()),
                    Some(step) => {
                        let mut vals = Vec::new();
                        for m in matches {
                            self.attr_values(m, step, &mut vals);
                            if !vals.is_empty() {
                                return Ok(true);
                            }
                        }
                        Ok(false)
                    }
                }
            }
            Cond::Compare { op, lhs, rhs } => {
                let l = self.collect_values(lhs)?;
                let r = self.collect_values(rhs)?;
                Ok(compare_existential(*op, &l, &r))
            }
            Cond::StringFn {
                func,
                haystack,
                needle,
            } => {
                let h = self.collect_values(haystack)?;
                let n = self.collect_values(needle)?;
                Ok(h.iter()
                    .any(|hv| n.iter().any(|nv| func.apply(&hv.text, &nv.text))))
            }
        }
    }

    fn collect_values(&mut self, op: &Operand) -> Result<Vec<Value>, DomError> {
        match op {
            Operand::StringLit(s) => Ok(vec![Value::new(s.clone())]),
            Operand::NumberLit(v) => Ok(vec![Value {
                text: fmt_number(*v),
                num: Some(*v),
            }]),
            Operand::Path(p) => {
                let (matches, attr) = self.eval_path(p)?;
                let mut values = Vec::new();
                for m in matches {
                    match attr {
                        Some(step) => {
                            let mut vals = Vec::new();
                            self.attr_values(m, step, &mut vals);
                            values.extend(vals.into_iter().map(Value::new));
                        }
                        None => {
                            let mut s = String::new();
                            self.string_value(m, &mut s);
                            values.push(Value::new(s));
                        }
                    }
                }
                Ok(values)
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Value {
    text: String,
    num: Option<f64>,
}

impl Value {
    fn new(text: String) -> Value {
        let num = text.trim().parse::<f64>().ok();
        Value { text, num }
    }
}

fn compare_existential(op: CmpOp, lhs: &[Value], rhs: &[Value]) -> bool {
    lhs.iter().any(|l| {
        rhs.iter().any(|r| {
            let ord = match (l.num, r.num) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => Some(l.text.cmp(&r.text)),
            };
            let Some(ord) = ord else { return false };
            use std::cmp::Ordering::*;
            match op {
                CmpOp::Eq => ord == Equal,
                CmpOp::Ne => ord != Equal,
                CmpOp::Lt => ord == Less,
                CmpOp::Le => ord != Greater,
                CmpOp::Gt => ord == Greater,
                CmpOp::Ge => ord != Less,
            }
        })
    })
}

fn fmt_number(v: f64) -> String {
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
    fn paper_example() {
        let out = run_query(
            r#"<r> {
              for $bib in /bib return
                (for $x in $bib/* return
                   if (not(exists($x/price))) then $x else (),
                 for $b in $bib/book return $b/title)
            } </r>"#,
            "<bib><book><title/><author/></book></bib>",
        )
        .unwrap();
        assert_eq!(out, "<r><book><title/><author/></book><title/></r>");
    }

    #[test]
    fn joins_and_comparisons() {
        let out = run_query(
            "for $p in /db/p return for $q in /db/q return \
             if ($q/ref = $p/id) then <m>{ $q/ref/text() }</m> else ()",
            "<db><p><id>1</id></p><p><id>2</id></p><q><ref>2</ref></q></db>",
        )
        .unwrap();
        assert_eq!(out, "<m>2</m>");
    }

    #[test]
    fn attributes() {
        let out = run_query(
            "for $p in /s/p return if ($p/@id = 'x') then $p/@id else ()",
            "<s><p id=\"x\"/><p id=\"y\"/></s>",
        )
        .unwrap();
        assert_eq!(out, "x");
    }

    #[test]
    fn double_descendant_distinct() {
        let out = run_query(
            "for $b in //a//b return $b/text()",
            "<r><a><a><b>once</b></a></a></r>",
        )
        .unwrap();
        assert_eq!(out, "once");
    }

    #[test]
    fn aggregates() {
        let out = run_query(
            "count(//v), ' ', sum(//v)",
            "<l><v>2</v><x><v>3</v></x></l>",
        )
        .unwrap();
        assert_eq!(out, "2 5");
    }

    #[test]
    fn the_document_node_is_a_value() {
        // `/` selects the document node, a variable can bind it, and it is
        // written as its children.
        let doc = "<a><b>x</b></a>";
        for (query, want) in [
            ("/", "<a><b>x</b></a>"),
            ("for $x in / return $x", "<a><b>x</b></a>"),
            ("<r>{ / }</r>", "<r><a><b>x</b></a></r>"),
            ("for $x in / return $x/a/b", "<b>x</b>"),
            ("count(/)", "1"),
        ] {
            assert_eq!(run_query(query, doc).unwrap(), want, "{query}");
        }
    }

    #[test]
    fn report_counts_nodes() {
        let q = gcx_query::compile("'x'").unwrap();
        let report = run(&q, "<a><b/><c>t</c></a>".as_bytes(), &mut Vec::new()).unwrap();
        assert_eq!(report.nodes, 4);
    }
}
