//! Content-model cardinality: a DTD can prove that a root-rooted path
//! selects a constant-size region, which lets `gcx-analyze` downgrade a
//! `Subtree` (or aggregate `Document`) contribution to `PerItem`.
//!
//! The check is deliberately conservative: every step must be
//! `child::name`, every traversed content model must cap the next
//! name's occurrence count (no `*`/`+`, no `ANY`, no mixed content
//! naming it), and the finally selected element's whole subtree must be
//! bounded (star-free content models, no recursion, text-only leaves).
//! "Bounded" counts *nodes*, matching the engine's `peak_live`
//! accounting — a single text node of any length is one node.

use crate::{ContentExpr, ContentModel, Dtd, Rep};
use gcx_projection::{EAxis, ETest, EvalStep};
use gcx_xml::SymbolTable;

impl Dtd {
    /// True when the DTD proves that the path `steps`, taken from the
    /// document root and ending in an attribute when `has_attr`, selects
    /// a node set of constant size (independent of the document's
    /// length). Names resolve against `symbols`.
    pub fn path_is_bounded(
        &self,
        steps: &[EvalStep],
        has_attr: bool,
        symbols: &SymbolTable,
    ) -> bool {
        let mut names = Vec::with_capacity(steps.len());
        for s in steps {
            match (s.axis, s.test) {
                (EAxis::Child, ETest::Name(sym)) => names.push(symbols.resolve(sym)),
                // Descendant axes and wildcard tests select open-ended
                // sets; give up.
                _ => return false,
            }
        }
        let Some((&first, rest)) = names.split_first() else {
            return false;
        };
        if let Some(root) = self.root() {
            if first != root {
                // In a document governed by this DTD the first step misses
                // the (unique) document element: the path selects nothing.
                return true;
            }
        }
        // Whether or not the DTD names its root, a well-formed document has
        // exactly one document element, so the first child step from the
        // root context matches at most one node.
        let mut cur = first;
        for &next in rest {
            let Some(decl) = self.get(cur) else {
                return false;
            };
            match model_max_occurs(&decl.model, next) {
                None => return false,
                // The model cannot produce this child at all: the path
                // selects nothing, which is as bounded as it gets.
                Some(0) => return true,
                Some(_) => cur = next,
            }
        }
        // One attribute node per selected element.
        has_attr || self.subtree_bounded(cur, &mut Vec::new())
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

/// Max occurrences of `name` as a direct child under `model`; `None`
/// means unbounded.
fn model_max_occurs(model: &ContentModel, name: &str) -> Option<u32> {
    match model {
        ContentModel::Empty => Some(0),
        ContentModel::Any => None,
        ContentModel::Mixed(names) => {
            // Mixed content repeats freely: any named element can occur
            // arbitrarily often.
            if names.iter().any(|n| n == name) {
                None
            } else {
                Some(0)
            }
        }
        ContentModel::Children(e) => expr_max_occurs(e, name),
    }
}

fn expr_max_occurs(e: &ContentExpr, name: &str) -> Option<u32> {
    match e {
        ContentExpr::Name(n) => Some(u32::from(n == name)),
        ContentExpr::Seq(items) => items.iter().try_fold(0u32, |acc, c| {
            Some(acc.saturating_add(expr_max_occurs(c, name)?))
        }),
        ContentExpr::Choice(items) => items
            .iter()
            .try_fold(0u32, |acc, c| Some(acc.max(expr_max_occurs(c, name)?))),
        ContentExpr::Repeat(inner, rep) => {
            let n = expr_max_occurs(inner, name)?;
            match rep {
                Rep::Opt => Some(n),
                Rep::Star | Rep::Plus => {
                    if n == 0 {
                        Some(0)
                    } else {
                        None
                    }
                }
            }
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

    fn bounded(dtd_text: &str, q: &str) -> bool {
        let dtd = Dtd::parse(dtd_text).unwrap();
        let query = compile_query(q).expect("query compiles");
        let analysis = gcx_projection::analyze(&query);
        // The first rooted path with steps is the one under test: these
        // probe queries bind one loop variable and read nothing of it.
        let role = analysis
            .roles
            .iter()
            .find(|r| !r.abs.is_empty())
            .expect("query has a root path");
        let mut symbols = SymbolTable::new();
        let steps: Vec<EvalStep> = role
            .abs
            .iter()
            .map(|s| EvalStep::compile(s, &mut symbols))
            .collect();
        dtd.path_is_bounded(&steps, false, &symbols)
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
}
