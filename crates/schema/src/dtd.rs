//! Content-model cardinality: how many nodes a root-rooted path can
//! select ([`Dtd::occurs`]), which `gcx-analyze` reads twice: a binding
//! that selects at most one node is a singleton, whose one item is its
//! whole region, and a path the DTD bounds ([`Dtd::path_is_bounded`])
//! holds a constant-size region, which tightens its class to `PerItem`.
//!
//! Both read one walk of the content models, and both are conservative:
//! a descendant axis, a wildcard below the document element, `ANY`,
//! mixed content naming the child, and a starred particle all give an
//! unbounded count, and a bounded region also needs the selected
//! element's whole subtree bounded (star-free content models, no
//! recursion, text-only leaves). "Bounded" counts *nodes*, matching the
//! engine's `peak_live` accounting — a single text node of any length
//! is one node.

use crate::{ContentExpr, ContentModel, Dtd, Rep};
use gcx_projection::{EAxis, ETest, EvalStep};
use gcx_xml::SymbolTable;

/// The least and the greatest number of nodes; `None` is unbounded.
type Occurs = (u32, Option<u32>);

impl Dtd {
    /// The least and the greatest number of nodes (`None`: unbounded)
    /// the path `steps`, taken from the document root, can select in a
    /// document that validates against this DTD. No steps is the root
    /// itself, `(1, 1)`. The first child step matches at most the
    /// document element, a well-formed document's one element at its
    /// root; each further `child::name` step multiplies by the name's
    /// occurrences in its parent's content model. Names resolve against
    /// `symbols`.
    pub fn occurs(&self, steps: &[EvalStep], symbols: &SymbolTable) -> (u32, Option<u32>) {
        let Some((first, rest)) = steps.split_first() else {
            return (1, Some(1));
        };
        let (mut occurs, mut cur): (Occurs, _) = match (first.axis, first.test) {
            (EAxis::Child, ETest::Star) => ((1, Some(1)), self.root()),
            (EAxis::Child, ETest::Name(sym)) => {
                let name = symbols.resolve(sym);
                match self.root() {
                    // The first step misses the document element.
                    Some(root) if root != name => return (0, Some(0)),
                    Some(_) => ((1, Some(1)), Some(name)),
                    None => ((0, Some(1)), Some(name)),
                }
            }
            _ => return (0, None),
        };
        for s in rest {
            // Only a `child::name` step under a declared element is read.
            let (EAxis::Child, ETest::Name(sym), Some(decl)) =
                (s.axis, s.test, cur.and_then(|c| self.get(c)))
            else {
                return (0, None);
            };
            let name = symbols.resolve(sym);
            let (min, max) = model_occurs(&decl.model, name);
            occurs = (
                occurs.0.saturating_mul(min),
                occurs.1.zip(max).map(|(a, b)| a.saturating_mul(b)),
            );
            if occurs.1 == Some(0) {
                // The models cannot produce this child: the path selects
                // nothing.
                return (0, Some(0));
            }
            cur = Some(name);
        }
        occurs
    }

    /// True when the DTD proves that the path `steps`, taken from the
    /// document root, selects a node set of constant size (independent
    /// of the document's length): [`Dtd::occurs`] bounds its matches,
    /// and each match's subtree is bounded too, unless `nodes_only` — the
    /// region is the matched nodes alone, as for an attribute's owner or
    /// a counted element. Every step must be `child::name`. Names resolve
    /// against `symbols`.
    pub fn path_is_bounded(
        &self,
        steps: &[EvalStep],
        nodes_only: bool,
        symbols: &SymbolTable,
    ) -> bool {
        // Descendant axes and wildcard tests select open-ended sets; give
        // up.
        let named = |s: &EvalStep| match (s.axis, s.test) {
            (EAxis::Child, ETest::Name(sym)) => Some(symbols.resolve(sym)),
            _ => None,
        };
        let Some(last) = steps.last().and_then(named) else {
            return false;
        };
        if !steps.iter().all(|s| named(s).is_some()) {
            return false;
        }
        match self.occurs(steps, symbols).1 {
            None => false,
            Some(0) => true,
            Some(_) => nodes_only || self.subtree_bounded(last, &mut Vec::new()),
        }
    }

    /// True when every document subtree rooted at an element named `name`
    /// has a bounded node count: star-free content models, non-recursive,
    /// with text-only or empty leaves. `visiting` holds the declarations
    /// on the way down.
    fn subtree_bounded(&self, name: &str, visiting: &mut Vec<usize>) -> bool {
        let Some(&i) = self.index.get(name) else {
            return false;
        };
        if visiting.contains(&i) {
            // Recursive content nests unboundedly.
            return false;
        }
        match &self.decls[i].model {
            ContentModel::Empty => true,
            ContentModel::Any => false,
            // `(#PCDATA)` alone: one text node. Mixed content with element
            // names repeats freely.
            ContentModel::Mixed(names) => names.is_empty(),
            ContentModel::Children(e) => {
                if !expr_star_free(e) {
                    return false;
                }
                visiting.push(i);
                let kids = &self.facts[i].child_refs;
                let ok = kids.iter().all(|k| self.subtree_bounded(k, visiting));
                visiting.pop();
                ok
            }
        }
    }
}

/// The least and greatest occurrences of `name` as a direct child under
/// `model`.
fn model_occurs(model: &ContentModel, name: &str) -> Occurs {
    match model {
        ContentModel::Empty => (0, Some(0)),
        ContentModel::Any => (0, None),
        // Mixed content repeats freely: a named element can occur
        // arbitrarily often, or not at all.
        ContentModel::Mixed(names) if names.iter().any(|n| n == name) => (0, None),
        ContentModel::Mixed(_) => (0, Some(0)),
        ContentModel::Children(e) => expr_occurs(e, name),
    }
}

fn expr_occurs(e: &ContentExpr, name: &str) -> Occurs {
    let add = |a: Option<u32>, b: Option<u32>| a.zip(b).map(|(a, b)| a.saturating_add(b));
    match e {
        ContentExpr::Name(n) => {
            let k = u32::from(n == name);
            (k, Some(k))
        }
        ContentExpr::Seq(items) => items.iter().fold((0, Some(0)), |(lo, hi), c| {
            let (l, h) = expr_occurs(c, name);
            (lo.saturating_add(l), add(hi, h))
        }),
        ContentExpr::Choice(items) => items
            .iter()
            .map(|c| expr_occurs(c, name))
            .reduce(|(lo, hi), (l, h)| (lo.min(l), hi.zip(h).map(|(a, b)| a.max(b))))
            .unwrap_or((0, Some(0))),
        ContentExpr::Repeat(inner, rep) => {
            let (lo, hi) = expr_occurs(inner, name);
            let hi = match rep {
                Rep::Opt => hi,
                Rep::Star | Rep::Plus => hi.filter(|&h| h == 0),
            };
            (if *rep == Rep::Plus { lo } else { 0 }, hi)
        }
    }
}

/// No `*` or `+` particle anywhere in the expression.
fn expr_star_free(e: &ContentExpr) -> bool {
    match e {
        ContentExpr::Name(_) => true,
        ContentExpr::Seq(items) | ContentExpr::Choice(items) => items.iter().all(expr_star_free),
        ContentExpr::Repeat(inner, rep) => *rep == Rep::Opt && expr_star_free(inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_query::compile as compile_query;

    /// The first rooted path with steps of `q`, compiled: these probe
    /// queries bind one loop variable and read nothing of it.
    fn first_path(q: &str) -> (Vec<EvalStep>, SymbolTable) {
        let query = compile_query(q).expect("query compiles");
        let analysis = gcx_projection::analyze(&query);
        let role = analysis
            .roles
            .iter()
            .find(|r| !r.abs.is_empty())
            .expect("query has a root path");
        let mut symbols = SymbolTable::new();
        let steps = role
            .abs
            .iter()
            .map(|s| EvalStep::compile(s, &mut symbols))
            .collect();
        (steps, symbols)
    }

    fn bounded(dtd_text: &str, q: &str) -> bool {
        let dtd = Dtd::parse(dtd_text).unwrap();
        let (steps, symbols) = first_path(q);
        dtd.path_is_bounded(&steps, false, &symbols)
    }

    fn occurs(dtd: &Dtd, path: &str) -> (u32, Option<u32>) {
        let (steps, symbols) = first_path(&format!("for $x in {path} return <n/>"));
        dtd.occurs(&steps, &symbols)
    }

    const TOY: &str = "<!ELEMENT r (a)><!ELEMENT a (b?)><!ELEMENT b (#PCDATA)>";

    #[test]
    fn fixed_cardinality_chain_is_bounded() {
        assert!(bounded(TOY, "for $x in /r/a return <n/>"));
        assert!(bounded(TOY, "for $x in /r/a/b return <n/>"));
    }

    #[test]
    fn starred_children_are_unbounded() {
        let dtd = "<!ELEMENT r (a*)><!ELEMENT a (b?)><!ELEMENT b (#PCDATA)>";
        assert!(!bounded(dtd, "for $x in /r/a return <n/>"));
    }

    #[test]
    fn recursive_content_is_unbounded() {
        let dtd = "<!ELEMENT r (a)><!ELEMENT a (a?)>";
        assert!(!bounded(dtd, "for $x in /r/a return <n/>"));
    }

    #[test]
    fn descendant_axis_gives_up() {
        assert!(!bounded(TOY, "for $x in /r//b return <n/>"));
    }

    #[test]
    fn undeclared_child_selects_nothing_and_is_bounded() {
        assert!(bounded(TOY, "for $x in /r/z return <n/>"));
    }

    #[test]
    fn choice_and_opt_stay_bounded() {
        let dtd = "<!ELEMENT r ((a | b), c?)><!ELEMENT a EMPTY>\
                   <!ELEMENT b EMPTY><!ELEMENT c (#PCDATA)>";
        assert!(bounded(dtd, "for $x in /r/a return <n/>"));
        assert!(bounded(dtd, "for $x in /r/c return <n/>"));
    }

    #[test]
    fn occurs_reads_the_xmark_cardinalities() {
        let xmark = Dtd::xmark();
        assert_eq!(occurs(&xmark, "/site"), (1, Some(1)));
        assert_eq!(occurs(&xmark, "/site/regions"), (1, Some(1)));
        assert_eq!(occurs(&xmark, "/site/people/person"), (0, None));
        // Not the document element: nothing.
        assert_eq!(occurs(&xmark, "/regions"), (0, Some(0)));
        // Open-ended steps are unbounded.
        assert_eq!(occurs(&xmark, "/site/regions//item"), (0, None));
        assert_eq!(occurs(&xmark, "/site/*"), (0, None));
    }

    #[test]
    fn occurs_reads_toy_content_models() {
        // With the document element named, the first step is one node.
        let toy = Dtd::from_doctype_parts("r", Some(TOY)).unwrap();
        assert_eq!(occurs(&toy, "/r/a"), (1, Some(1)));
        assert_eq!(occurs(&toy, "/r/a/b"), (0, Some(1)), "`b?`");
        assert_eq!(occurs(&toy, "/r/z"), (0, Some(0)), "undeclared child");
        assert_eq!(occurs(&toy, "/*"), (1, Some(1)));
        let choice = Dtd::from_doctype_parts(
            "r",
            Some(
                "<!ELEMENT r ((a | b), c+, (a, a)?)><!ELEMENT a EMPTY>\
                 <!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
            ),
        )
        .unwrap();
        assert_eq!(
            occurs(&choice, "/r/a"),
            (0, Some(3)),
            "a choice gives min 0"
        );
        assert_eq!(occurs(&choice, "/r/c"), (1, None));
        // Without a named document element, the first step may miss it.
        assert_eq!(occurs(&Dtd::parse(TOY).unwrap(), "/r/a"), (0, Some(1)));
    }
}
