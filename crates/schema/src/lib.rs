#![deny(unsafe_code)]
//! # gcx-schema — DTD model and schema analyses for GCX
//!
//! GCX's projection is schema-blind: the matcher must keep data alive
//! against matches the DTD provably forbids, and the evaluator must wait
//! for a parent's close tag before it can be sure no further sibling
//! match arrives. This crate supplies the schema knowledge that removes
//! both sources of slack (in the spirit of FluX's schema-based buffer
//! minimization and of earliest query answering over streamed trees):
//!
//! 1. **Projection pruning** — [`Dtd::prune`] intersects each compiled
//!    projection path (the matcher's own [`EvalStep`]s) with the DTD's
//!    content models and drops paths the schema proves unsatisfiable, so
//!    the matcher tracks fewer states and the buffer admits fewer roles.
//! 2. **Descendant reachability** — [`Dtd::reach_filter`] closes the
//!    world below each declared element; the matcher uses it to stop
//!    propagating descendant-axis states into subtrees where their test
//!    can never match (see `gcx_projection::ReachFilter`).
//! 3. **Sibling orders** — [`Dtd::ord_table`] extracts, from content
//!    models that are pure sequences (`(location, quantity, name, ...)`),
//!    a per-parent child ordinal table. The engine uses it to derive "no
//!    further `name` child can arrive once a later sibling started" facts
//!    and to emit / sign off / purge at that point instead of waiting for
//!    the parent's close tag.
//!
//! All three are **sound for schema-valid input**: on valid documents
//! outputs and role assignments are unchanged while buffer peaks can only
//! shrink. On documents violating the DTD, behaviour may differ — a
//! schema is a promise about the input.
//!
//! A fourth reading of the content models serves `gcx-analyze`:
//! [`Dtd::occurs`] bounds how many nodes a rooted path can select (a
//! binding that selects one is a singleton), and [`Dtd::path_is_bounded`]
//! reads the same count to prove that a rooted path selects a
//! constant-size region. The content models themselves
//! are private to this crate, so every analysis of them lives here.
//!
//! The DTD itself is parsed from the internal subset of a `<!DOCTYPE>`
//! declaration (the tokenizer captures it verbatim) or from an external
//! DTD file (`--schema FILE`); [`Dtd::xmark`] bundles a DTD matching the
//! `gcx-xmark` generator exactly.

use gcx_projection::{CompiledPaths, EAxis, ETest, EvalStep, ReachFilter};
use gcx_query::ast::RoleId;
use gcx_xml::{Symbol, SymbolTable};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

mod dtd;
mod parse;

/// The bundled DTD for `gcx-xmark` generator output (`--schema xmark`).
pub const XMARK_DTD: &str = include_str!("xmark.dtd");

/// Error from DTD parsing or doctype interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    msg: String,
    pos: usize,
}

impl SchemaError {
    pub(crate) fn new(msg: &str, pos: usize) -> SchemaError {
        SchemaError {
            msg: msg.to_string(),
            pos,
        }
    }

    /// What went wrong.
    pub fn message(&self) -> &str {
        &self.msg
    }

    /// Byte offset into the DTD text where the error was detected.
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DTD error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for SchemaError {}

/// Repetition suffix of a content particle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rep {
    /// `?` — zero or one.
    Opt,
    /// `*` — zero or more.
    Star,
    /// `+` — one or more.
    Plus,
}

/// A children content expression (the inside of a `(...)` group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ContentExpr {
    /// An element name.
    Name(String),
    /// `(a, b, c)` — sequence.
    Seq(Vec<ContentExpr>),
    /// `(a | b | c)` — choice.
    Choice(Vec<ContentExpr>),
    /// A particle with a repetition suffix.
    Repeat(Box<ContentExpr>, Rep),
}

/// The content model of one element declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ContentModel {
    /// `EMPTY` — no children, no text.
    Empty,
    /// `ANY` — unconstrained content.
    Any,
    /// `(#PCDATA | a | b)*` — text interleaved with the listed elements.
    Mixed(Vec<String>),
    /// An element-content group.
    Children(ContentExpr),
}

/// One `<!ELEMENT name model>` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ElementDecl {
    /// Element name.
    pub(crate) name: String,
    /// Its content model.
    pub(crate) model: ContentModel,
}

/// Per-declaration facts derived once at [`Dtd`] construction.
#[derive(Debug, Clone, Default)]
struct ElemFacts {
    /// Names referenced as possible children (elements only, deduped).
    child_refs: Vec<String>,
    /// Direct text children possible (`#PCDATA` or `ANY`).
    pcdata: bool,
    /// Content is `ANY` or references an undeclared element: the world
    /// below is open.
    child_open: bool,
    /// Declared elements reachable as proper descendants (decl indices).
    desc_decls: Vec<usize>,
    /// Undeclared names reachable as proper descendants.
    desc_undecl: Vec<String>,
    /// Some reachable subtree is open — the descendant world cannot be
    /// closed for this element.
    desc_open: bool,
    /// A text node can appear among proper descendants.
    desc_text: bool,
    /// `child name -> ordinal` when the content model is a pure top-level
    /// sequence of (possibly repeated) names; the engine's cutoff facts.
    orders: Option<Vec<(String, u32)>>,
}

/// A parsed DTD with derived analyses.
#[derive(Debug, Clone)]
pub struct Dtd {
    /// Document element name, when known (from the DOCTYPE declaration).
    root: Option<String>,
    decls: Vec<ElementDecl>,
    index: HashMap<String, usize>,
    facts: Vec<ElemFacts>,
}

impl Dtd {
    /// Parse a bare DTD (markup declarations only — an external DTD file
    /// or an internal subset without its `DOCTYPE` wrapper).
    pub fn parse(text: &str) -> Result<Dtd, SchemaError> {
        Dtd::build(None, parse::parse_subset(text)?)
    }

    /// Interpret a captured `DOCTYPE` declaration given its parsed parts:
    /// the document element name and the internal subset, if any. A
    /// DOCTYPE without an internal subset (e.g. `SYSTEM "..."` only)
    /// yields a [`Dtd`] that knows the root name but constrains nothing.
    pub fn from_doctype_parts(name: &str, subset: Option<&str>) -> Result<Dtd, SchemaError> {
        let decls = match subset {
            Some(s) => parse::parse_subset(s)?,
            None => Vec::new(),
        };
        Dtd::build(Some(name.to_string()), decls)
    }

    /// The bundled XMark DTD (matches the `gcx-xmark` generator).
    pub fn xmark() -> Arc<Dtd> {
        static CELL: OnceLock<Arc<Dtd>> = OnceLock::new();
        Arc::clone(CELL.get_or_init(|| {
            let mut dtd = Dtd::parse(XMARK_DTD).expect("bundled XMark DTD parses");
            dtd.root = Some("site".to_string());
            Arc::new(dtd)
        }))
    }

    fn build(root: Option<String>, decls: Vec<ElementDecl>) -> Result<Dtd, SchemaError> {
        let mut index = HashMap::new();
        for (i, d) in decls.iter().enumerate() {
            if index.insert(d.name.clone(), i).is_some() {
                return Err(SchemaError::new(
                    &format!("element '{}' declared twice", d.name),
                    0,
                ));
            }
        }
        let mut dtd = Dtd {
            root,
            decls,
            index,
            facts: Vec::new(),
        };
        dtd.derive_facts();
        Ok(dtd)
    }

    /// Document element name, when the DOCTYPE supplied one.
    pub fn root(&self) -> Option<&str> {
        self.root.as_deref()
    }

    /// Number of element declarations.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// True when the DTD declares nothing (all analyses are no-ops).
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// Look up one declaration.
    pub(crate) fn get(&self, name: &str) -> Option<&ElementDecl> {
        self.index.get(name).map(|&i| &self.decls[i])
    }

    /// The sequence ordinals of `name`'s children, when its content model
    /// is a pure top-level sequence (`child name -> ordinal`).
    pub fn sequence_orders(&self, name: &str) -> Option<&[(String, u32)]> {
        let &i = self.index.get(name)?;
        self.facts[i].orders.as_deref()
    }

    // ---- derived facts ------------------------------------------------

    fn derive_facts(&mut self) {
        let n = self.decls.len();
        let mut facts: Vec<ElemFacts> = Vec::with_capacity(n);
        for d in &self.decls {
            let mut f = ElemFacts::default();
            match &d.model {
                ContentModel::Empty => {}
                ContentModel::Any => {
                    f.pcdata = true;
                    f.child_open = true;
                }
                ContentModel::Mixed(names) => {
                    f.pcdata = true;
                    for nm in names {
                        push_unique(&mut f.child_refs, nm);
                    }
                }
                ContentModel::Children(expr) => collect_names(expr, &mut f.child_refs),
            }
            f.child_open |= f.child_refs.iter().any(|nm| !self.index.contains_key(nm));
            f.orders = sequence_orders_of(&d.model);
            facts.push(f);
        }
        // Fixpoint closure for descendant sets. DTDs can be recursive, so
        // iterate until stable; the universe is tiny (tens of decls).
        let mut desc: Vec<Vec<bool>> = vec![vec![false; n]; n];
        let mut open: Vec<bool> = facts.iter().map(|f| f.child_open).collect();
        let mut text: Vec<bool> = facts.iter().map(|f| f.pcdata).collect();
        loop {
            let mut changed = false;
            for e in 0..n {
                for nm in &facts[e].child_refs {
                    let Some(&c) = self.index.get(nm) else {
                        continue;
                    };
                    if !desc[e][c] {
                        desc[e][c] = true;
                        changed = true;
                    }
                    if c != e {
                        // Split borrow: rows c (read) and e (written).
                        let row_c = std::mem::take(&mut desc[c]);
                        for (g, d) in desc[e].iter_mut().enumerate() {
                            if row_c[g] && !*d {
                                *d = true;
                                changed = true;
                            }
                        }
                        desc[c] = row_c;
                    }
                    if open[c] && !open[e] {
                        open[e] = true;
                        changed = true;
                    }
                    if text[c] && !text[e] {
                        text[e] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for e in 0..n {
            facts[e].desc_decls = (0..n).filter(|&g| desc[e][g]).collect();
            facts[e].desc_open = open[e];
            facts[e].desc_text = text[e];
            // Undeclared names below: own refs plus those of reachable decls.
            let mut undecl = Vec::new();
            let sources = std::iter::once(e).chain(facts[e].desc_decls.iter().copied());
            for src in sources {
                for nm in &facts[src].child_refs {
                    if !self.index.contains_key(nm) {
                        push_unique(&mut undecl, nm);
                    }
                }
            }
            facts[e].desc_undecl = undecl;
        }
        self.facts = facts;
    }

    // ---- analysis 1: projection-path satisfiability -------------------

    /// Intersect every compiled projection path with the content models
    /// and drop the unsatisfiable ones. Zero-step (document root) paths
    /// are always kept. Returns the filtered paths plus what was pruned,
    /// for `explain` and the stats report.
    pub fn prune(&self, paths: &CompiledPaths, symbols: &SymbolTable) -> Prune {
        let total = paths.len();
        let mut keep = vec![true; total];
        let mut pruned = Vec::new();
        if !self.is_empty() {
            for (p, kept) in keep.iter_mut().enumerate() {
                let steps = paths.steps_of(p);
                if !steps.is_empty() && !self.satisfiable(steps, symbols) {
                    *kept = false;
                    pruned.push(paths.role_of(p));
                }
            }
        }
        Prune {
            paths: paths.filtered(&keep),
            pruned,
            total,
        }
    }

    /// Can `steps` (an absolute path from the document root) select any
    /// node in a document valid against this DTD?
    fn satisfiable(&self, steps: &[EvalStep], symbols: &SymbolTable) -> bool {
        // Context: the set of nodes the already-consumed prefix may have
        // landed on. `None` elems + open=false would mean "nowhere".
        let mut virtual_root = true;
        let mut elems: Vec<usize> = Vec::new();
        let mut open = false;
        for (si, step) in steps.iter().enumerate() {
            let mut nelems: Vec<usize> = Vec::new();
            let mut nopen = false;
            let mut text_possible = false;
            let collect = |set: &mut Vec<usize>, idx: usize| {
                if !set.contains(&idx) {
                    set.push(idx);
                }
            };
            // Candidate element/text targets per axis, from each context.
            let from_children = |refs: &[String],
                                 child_open: bool,
                                 pcdata: bool,
                                 nelems: &mut Vec<usize>,
                                 nopen: &mut bool,
                                 text_possible: &mut bool| {
                match step.test {
                    ETest::Name(s) => {
                        let name = symbols.resolve(s);
                        if child_open || refs.iter().any(|r| r == name) {
                            match self.index.get(name) {
                                Some(&i) => collect(nelems, i),
                                None => *nopen = true,
                            }
                        }
                    }
                    ETest::Star | ETest::AnyNode => {
                        for r in refs {
                            match self.index.get(r) {
                                Some(&i) => collect(nelems, i),
                                None => *nopen = true,
                            }
                        }
                        *nopen |= child_open;
                    }
                    ETest::Text => {}
                }
                if matches!(step.test, ETest::Text | ETest::AnyNode) {
                    *text_possible |= pcdata || child_open;
                }
            };
            let from_self = |idx: usize, nelems: &mut Vec<usize>| match step.test {
                ETest::Name(s) => {
                    if self.decls[idx].name == symbols.resolve(s) {
                        collect(nelems, idx);
                    }
                }
                ETest::Star | ETest::AnyNode => collect(nelems, idx),
                ETest::Text => {}
            };
            if virtual_root {
                // Children of the virtual root: the document element.
                let doc_elems: Vec<usize> = match &self.root {
                    Some(r) => match self.index.get(r) {
                        Some(&i) => vec![i],
                        None => Vec::new(),
                    },
                    None => (0..self.decls.len()).collect(),
                };
                let root_open = match &self.root {
                    Some(r) => !self.index.contains_key(r),
                    // No root name: any declared element (or an undeclared
                    // one) could be the document element.
                    None => true,
                };
                let refs: Vec<String> = doc_elems
                    .iter()
                    .map(|&i| self.decls[i].name.clone())
                    .collect();
                match step.axis {
                    EAxis::Child | EAxis::SelfAxis => {
                        // `self` on the virtual root only matters for the
                        // leading descendant-or-self::node() of subtree
                        // roles, which AnyNode handles below; a plain self
                        // step from the root behaves like staying put.
                        if step.axis == EAxis::SelfAxis {
                            // Stay on the virtual root; only node() passes.
                            if matches!(step.test, ETest::AnyNode) {
                                continue;
                            }
                            return false;
                        }
                        from_children(
                            &refs,
                            root_open,
                            false,
                            &mut nelems,
                            &mut nopen,
                            &mut text_possible,
                        );
                    }
                    EAxis::Descendant | EAxis::DescendantOrSelf => {
                        if step.axis == EAxis::DescendantOrSelf
                            && matches!(step.test, ETest::AnyNode)
                        {
                            // May also stay on the virtual root itself.
                            // Approximate by keeping the root context AND
                            // all element targets: the union is what the
                            // matcher's closure does.
                            // (Handled by falling through: targets below
                            // plus continuing from the root is equivalent
                            // to nopen when the root world is open.)
                        }
                        from_children(
                            &refs,
                            root_open,
                            false,
                            &mut nelems,
                            &mut nopen,
                            &mut text_possible,
                        );
                        for &d in &doc_elems {
                            let f = &self.facts[d];
                            let drefs: Vec<String> = f
                                .desc_decls
                                .iter()
                                .map(|&g| self.decls[g].name.clone())
                                .chain(f.desc_undecl.iter().cloned())
                                .collect();
                            from_children(
                                &drefs,
                                f.desc_open,
                                f.desc_text,
                                &mut nelems,
                                &mut nopen,
                                &mut text_possible,
                            );
                        }
                        if step.axis == EAxis::DescendantOrSelf
                            && matches!(step.test, ETest::AnyNode)
                        {
                            // Self part: next step still starts at the root.
                            if si + 1 < steps.len() {
                                // Conservatively keep satisfiability by
                                // checking the suffix from the root too.
                                if self.satisfiable(&steps[si + 1..], symbols) {
                                    return true;
                                }
                            } else {
                                return true;
                            }
                        }
                    }
                }
                virtual_root = false;
            } else {
                match step.axis {
                    EAxis::Child => {
                        for &e in &elems {
                            let f = &self.facts[e];
                            from_children(
                                &f.child_refs,
                                f.child_open,
                                f.pcdata,
                                &mut nelems,
                                &mut nopen,
                                &mut text_possible,
                            );
                        }
                        if open {
                            from_children(
                                &[],
                                true,
                                true,
                                &mut nelems,
                                &mut nopen,
                                &mut text_possible,
                            );
                        }
                    }
                    EAxis::Descendant | EAxis::DescendantOrSelf => {
                        for &e in &elems {
                            let f = &self.facts[e];
                            let drefs: Vec<String> = f
                                .desc_decls
                                .iter()
                                .map(|&g| self.decls[g].name.clone())
                                .chain(f.desc_undecl.iter().cloned())
                                .collect();
                            from_children(
                                &drefs,
                                f.desc_open,
                                f.desc_text,
                                &mut nelems,
                                &mut nopen,
                                &mut text_possible,
                            );
                            if step.axis == EAxis::DescendantOrSelf {
                                from_self(e, &mut nelems);
                            }
                        }
                        if open {
                            from_children(
                                &[],
                                true,
                                true,
                                &mut nelems,
                                &mut nopen,
                                &mut text_possible,
                            );
                        }
                        nopen |= open && step.axis == EAxis::DescendantOrSelf;
                    }
                    EAxis::SelfAxis => {
                        for &e in &elems {
                            from_self(e, &mut nelems);
                        }
                        nopen |= open;
                        if matches!(step.test, ETest::Text | ETest::AnyNode) && open {
                            text_possible = true;
                        }
                    }
                }
            }
            if nelems.is_empty() && !nopen && !text_possible {
                return false;
            }
            elems = nelems;
            open = nopen;
        }
        true
    }

    // ---- analysis 2: descendant reachability --------------------------

    /// Build the matcher's descendant-reachability filter. Interns every
    /// DTD name into `symbols` (before any document bytes arrive) so the
    /// filter and the stream speak the same symbols.
    pub fn reach_filter(&self, symbols: &mut SymbolTable) -> ReachFilter {
        let elem_syms: Vec<Symbol> = self.decls.iter().map(|d| symbols.intern(&d.name)).collect();
        // Also intern undeclared-but-referenced names: they are legal
        // descendants and must be present in the closed worlds.
        let undecl_syms: Vec<Vec<Symbol>> = self
            .facts
            .iter()
            .map(|f| f.desc_undecl.iter().map(|n| symbols.intern(n)).collect())
            .collect();
        let mut filter = ReachFilter::new(symbols.len());
        for (e, f) in self.facts.iter().enumerate() {
            if f.desc_open {
                continue;
            }
            let mut names: Vec<Symbol> = f.desc_decls.iter().map(|&g| elem_syms[g]).collect();
            names.extend(&undecl_syms[e]);
            filter.close(elem_syms[e], &names, f.desc_text);
        }
        filter
    }

    // ---- analysis 3: sibling orders -----------------------------------

    /// Build the engine's sibling-order table. Interns the participating
    /// names into `symbols` (must happen before document bytes arrive so
    /// symbols agree with the stream).
    pub fn ord_table(&self, symbols: &mut SymbolTable) -> OrdTable {
        let mut per_parent: Vec<Option<OrdRow>> = Vec::new();
        let mut n_parents = 0usize;
        for (d, f) in self.decls.iter().zip(&self.facts) {
            let Some(orders) = &f.orders else { continue };
            let parent = symbols.intern(&d.name);
            let mut row: Vec<(Symbol, u32)> = orders
                .iter()
                .map(|(nm, ord)| (symbols.intern(nm), *ord))
                .collect();
            row.sort_unstable_by_key(|&(s, _)| s);
            if parent.index() >= per_parent.len() {
                per_parent.resize(parent.index() + 1, None);
            }
            per_parent[parent.index()] = Some(row.into_boxed_slice());
            n_parents += 1;
        }
        OrdTable {
            per_parent,
            n_parents,
        }
    }

    /// One-line summary for `explain` and logs.
    pub fn summary(&self) -> String {
        let sequenced = self.facts.iter().filter(|f| f.orders.is_some()).count();
        let closed = self.facts.iter().filter(|f| !f.desc_open).count();
        format!(
            "{} element declaration(s), root {}, {} with sequenced children, {} with closed descendant world",
            self.decls.len(),
            self.root.as_deref().unwrap_or("(unknown)"),
            sequenced,
            closed,
        )
    }
}

/// Outcome of [`Dtd::prune`].
#[derive(Debug, Clone)]
pub struct Prune {
    /// The surviving paths, to build the matcher from.
    pub paths: CompiledPaths,
    /// The roles whose paths were dropped.
    pub pruned: Vec<RoleId>,
    /// Paths examined (pruned + kept).
    pub total: usize,
}

impl Prune {
    /// Number of surviving paths.
    pub fn kept(&self) -> usize {
        self.total - self.pruned.len()
    }
}

/// One parent's child names with their sequence ordinals, sorted by symbol.
type OrdRow = Box<[(Symbol, u32)]>;

/// Per-parent child sequence ordinals, keyed by [`Symbol`]. Built once per
/// run by [`Dtd::ord_table`]; the engine consults it on every start tag.
#[derive(Debug, Clone, Default)]
pub struct OrdTable {
    per_parent: Vec<Option<OrdRow>>,
    n_parents: usize,
}

impl OrdTable {
    /// True when no element has usable orders.
    pub fn is_empty(&self) -> bool {
        self.n_parents == 0
    }

    /// The sequence ordinal of a `child` element under `parent`, when the
    /// parent's content model is a pure sequence and the child appears in
    /// it.
    #[inline]
    pub fn ord(&self, parent: Symbol, child: Symbol) -> Option<u32> {
        let row = self.per_parent.get(parent.index())?.as_deref()?;
        row.binary_search_by_key(&child, |&(s, _)| s)
            .ok()
            .map(|i| row[i].1)
    }
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}

fn collect_names(expr: &ContentExpr, out: &mut Vec<String>) {
    match expr {
        ContentExpr::Name(n) => push_unique(out, n),
        ContentExpr::Seq(items) | ContentExpr::Choice(items) => {
            for i in items {
                collect_names(i, out);
            }
        }
        ContentExpr::Repeat(inner, _) => collect_names(inner, out),
    }
}

/// `child name -> ordinal` for pure top-level sequences of (possibly
/// repeated) names; `None` for anything with choices or nested groups.
fn sequence_orders_of(model: &ContentModel) -> Option<Vec<(String, u32)>> {
    let particle_name = |e: &ContentExpr| -> Option<String> {
        match e {
            ContentExpr::Name(n) => Some(n.clone()),
            ContentExpr::Repeat(inner, _) => match inner.as_ref() {
                ContentExpr::Name(n) => Some(n.clone()),
                _ => None,
            },
            _ => None,
        }
    };
    let items: Vec<String> = match model {
        ContentModel::Children(ContentExpr::Seq(items)) => {
            items.iter().map(&particle_name).collect::<Option<_>>()?
        }
        ContentModel::Children(other) => vec![particle_name(other)?],
        _ => return None,
    };
    let mut orders: Vec<(String, u32)> = Vec::with_capacity(items.len());
    for (i, nm) in items.into_iter().enumerate() {
        // A name in several particles keeps its LAST ordinal: it stays
        // arrivable until the last particle containing it has passed.
        match orders.iter_mut().find(|(n, _)| *n == nm) {
            Some((_, o)) => *o = i as u32,
            None => orders.push((nm, i as u32)),
        }
    }
    Some(orders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_projection::{analyze, RoleTable};

    fn compiled_for(query: &str) -> (CompiledPaths, SymbolTable, RoleTable) {
        let q = gcx_query::compile(query).unwrap();
        let a = analyze(&q);
        let mut symbols = SymbolTable::new();
        let paths = CompiledPaths::compile(&a.roles, &mut symbols);
        (paths, symbols, a.roles)
    }

    #[test]
    fn parses_the_bundled_xmark_dtd() {
        let dtd = Dtd::xmark();
        assert_eq!(dtd.root(), Some("site"));
        assert!(dtd.len() > 40, "got {}", dtd.len());
        assert!(dtd.get("person").is_some());
        assert!(dtd.get("homepage").is_none());
    }

    #[test]
    fn xmark_person_orders() {
        let dtd = Dtd::xmark();
        let orders = dtd.sequence_orders("person").expect("person is a sequence");
        let ord = |n: &str| orders.iter().find(|(m, _)| m == n).map(|&(_, o)| o);
        assert_eq!(ord("name"), Some(0));
        assert_eq!(ord("emailaddress"), Some(1));
        assert_eq!(ord("watches"), Some(6));
        assert_eq!(ord("homepage"), None);
        // Starred lists are still sequences.
        assert!(dtd.sequence_orders("people").is_some());
        // Mixed/EMPTY content has no orders.
        assert!(dtd.sequence_orders("name").is_none());
        assert!(dtd.sequence_orders("incategory").is_none());
    }

    #[test]
    fn prune_drops_schema_impossible_paths() {
        let dtd = Dtd::xmark();
        // person has no `item` child: the binding path is unsatisfiable.
        let (paths, symbols, roles) =
            compiled_for("for $p in /site/people/person return for $i in $p/item return $i");
        let prune = dtd.prune(&paths, &symbols);
        assert!(
            !prune.pruned.is_empty(),
            "at least the $p/item paths must go"
        );
        assert!(prune.kept() < prune.total);
        assert!(
            prune
                .pruned
                .iter()
                .any(|&r| roles.get(r).path_display().contains("item")),
            "{:?}",
            prune.pruned
        );
    }

    #[test]
    fn prune_keeps_satisfiable_paper_shapes() {
        let dtd = Dtd::xmark();
        for q in [
            "for $p in /site/people/person return $p/name",
            "for $i in /site/regions/australia/item return $i/name",
            "for $b in /site/regions return $b//item/name",
            "for $i in //item return $i/name",
            "for $p in /site/people/person return if (exists($p/address)) then $p/name else ()",
        ] {
            let (paths, symbols, _) = compiled_for(q);
            let prune = dtd.prune(&paths, &symbols);
            assert!(
                prune.pruned.is_empty(),
                "query {q} lost paths: {:?}",
                prune.pruned
            );
        }
    }

    #[test]
    fn prune_is_inert_without_declarations() {
        let dtd = Dtd::from_doctype_parts("site", None).unwrap();
        let (paths, symbols, _) = compiled_for("for $x in /nowhere/at/all return $x");
        let prune = dtd.prune(&paths, &symbols);
        assert!(prune.pruned.is_empty());
        assert_eq!(prune.kept(), prune.total);
    }

    #[test]
    fn q17_homepage_is_pruned() {
        let dtd = Dtd::xmark();
        let (paths, symbols, roles) = compiled_for(
            "for $p in /site/people/person return \
             if (not(exists($p/homepage))) then $p/name else ()",
        );
        let prune = dtd.prune(&paths, &symbols);
        assert!(
            prune
                .pruned
                .iter()
                .any(|&r| roles.get(r).path_display().contains("/homepage")),
            "{:?}",
            prune.pruned
        );
    }

    #[test]
    fn reach_filter_closes_xmark_worlds() {
        let dtd = Dtd::xmark();
        let mut symbols = SymbolTable::new();
        let filter = dtd.reach_filter(&mut symbols);
        // Every XMark element has closed content (mail is declared).
        assert_eq!(filter.closed_count(), dtd.len());
        assert!(symbols.get("emailaddress").is_some());
    }

    #[test]
    fn ord_table_round_trips_symbols() {
        let dtd = Dtd::xmark();
        let mut symbols = SymbolTable::new();
        let t = dtd.ord_table(&mut symbols);
        assert!(!t.is_empty());
        let person = symbols.get("person").unwrap();
        let name = symbols.get("name").unwrap();
        let email = symbols.get("emailaddress").unwrap();
        assert_eq!(t.ord(person, name), Some(0));
        assert_eq!(t.ord(person, email), Some(1));
        let site = symbols.get("site").unwrap();
        assert_eq!(t.ord(site, symbols.get("people").unwrap()), Some(3));
        // Unknown pairs answer None.
        assert_eq!(t.ord(name, person), None);
    }

    #[test]
    fn doctype_without_subset_knows_only_the_root() {
        let dtd = Dtd::from_doctype_parts("site", None).unwrap();
        assert_eq!(dtd.root(), Some("site"));
        assert!(dtd.is_empty());
        let mut symbols = SymbolTable::new();
        assert!(dtd.ord_table(&mut symbols).is_empty());
        assert_eq!(dtd.reach_filter(&mut symbols).closed_count(), 0);
    }

    #[test]
    fn parse_errors_are_typed_not_panics() {
        for bad in [
            "<!ELEMENT a (b,>",
            "<!ELEMENT a",
            "<!ELEMENT a (#PCDATA | b)>",
            "%param;",
            "<!BOGUS x>",
            "<!ELEMENT a (b) junk>",
        ] {
            let err = Dtd::parse(bad).expect_err(bad);
            assert!(!err.message().is_empty());
        }
    }

    #[test]
    fn recursive_dtds_reach_fixpoint() {
        // a -> b -> a cycles must terminate and close correctly.
        let dtd =
            Dtd::parse("<!ELEMENT a (b*)> <!ELEMENT b (a*, c?)> <!ELEMENT c (#PCDATA)>").unwrap();
        let mut symbols = SymbolTable::new();
        let f = dtd.reach_filter(&mut symbols);
        assert_eq!(f.closed_count(), 3);
        let (paths, qsyms) = {
            let q = gcx_query::compile("for $x in /a//c return $x").unwrap();
            let a = analyze(&q);
            let mut s = SymbolTable::new();
            (CompiledPaths::compile(&a.roles, &mut s), s)
        };
        // c is reachable from a through the cycle: nothing pruned.
        let prune = dtd.prune(&paths, &qsyms);
        assert!(prune.pruned.is_empty(), "{:?}", prune.pruned);
    }
}
