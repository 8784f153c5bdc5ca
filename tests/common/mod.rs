//! What a query's projection makes of a document, counted by a walk with
//! the projection matcher alone — no lane, no buffer, no evaluator. The
//! suites that pin buffer counts derive their expectations from this
//! instead of copying them from a run.
#![allow(dead_code)] // every suite uses its own subset

use gcx::projection::{Automaton, StreamMatcher, TaggedPaths};
use gcx::schema::Dtd;
use gcx::xmark::{generate_string, XmarkConfig};
use gcx::xml::{Token, Tokenizer};
use gcx::CompiledQuery;
use std::sync::Arc;

#[path = "../../crates/xml/tests/common/mod.rs"]
mod generated;
use generated::{gen_doc, XorShift};

/// An XMark document of about `kb` KiB.
pub fn xmark(kb: u64, seed: u64) -> String {
    let mut cfg = XmarkConfig::sized(kb * 1024);
    cfg.seed = seed;
    generate_string(&cfg)
}

/// The corpus of the pending chain: generated documents (comments, CDATA,
/// PIs, DOCTYPEs, attributes, non-ASCII names; elements `a`, `b`, `x`,
/// `item`, … at every depth under `<r>`), a few shapes written for the
/// chain, and one XMark document.
pub fn pending_corpus() -> Vec<String> {
    let mut rng = XorShift(0x1A2B_3C4D_5E6F);
    let mut docs: Vec<String> = (0..40).map(|_| gen_doc(&mut rng)).collect();
    docs.extend(
        [
            // b[2] is the fourth child of an `a` nothing else wants.
            "<r><a k='1'><x/>t<b>1</b><junk><b>no</b></junk><b>2</b></a></r>",
            // Nested a's: derivation counts, ancestors pending at two levels.
            "<r><a><c><a u='v'><d><b>deep</b></d></a></c></a><a><b/><b>two</b></a></r>",
            // Speculative chains that close without ever being needed.
            "<r><p><q><s k='v'>text</s></q></p><x>kept<y><x>inner</x></y></x></r>",
            "<r/>",
        ]
        .map(String::from),
    );
    docs.push(xmark(24, 42));
    docs
}

/// Counts of one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Projection {
    /// Start tags shown to the matcher (those outside refused subtrees).
    pub visited: u64,
    /// Nodes — elements and texts — that carry a role or stand above a
    /// node that does: what the buffer must be handed, no more.
    pub needed: u64,
    /// Elements the matcher keeps without a role, no descendant of which
    /// earns one either: kept on speculation, never needed.
    pub never_needed: u64,
}

/// Walk `doc` with the matcher of `q`, built the way a session builds it:
/// with `dtd`, unsatisfiable paths pruned and the reach filter armed.
pub fn project(q: &CompiledQuery, dtd: Option<&Dtd>, doc: &str) -> Projection {
    let mut symbols = q.program.symbols().clone();
    let mut matcher = match dtd {
        Some(dtd) => {
            let prune = dtd.prune(q.program.matcher_paths(), &symbols);
            let reach = Arc::new(dtd.reach_filter(&mut symbols));
            let paths = TaggedPaths::merge([&prune.paths]);
            StreamMatcher::start(Arc::new(Automaton::new(paths, Some(reach))))
        }
        None => StreamMatcher::new(q.program.matcher_paths()).0,
    };
    let mut tok = Tokenizer::from_str(doc);
    let mut roles = Vec::new();
    // Per open kept element: whether a role sits at or below it.
    let mut open: Vec<bool> = Vec::new();
    let mut hidden_depth = 0u32;
    let mut counts = Projection {
        visited: 0,
        needed: 0,
        never_needed: 0,
    };
    let close = |open: &mut Vec<bool>, counts: &mut Projection| {
        let role_below = open.pop().expect("balanced");
        counts.needed += u64::from(role_below);
        counts.never_needed += u64::from(!role_below);
        if let Some(parent) = open.last_mut() {
            *parent |= role_below;
        }
    };
    while let Some(token) = tok.next_token().expect("well-formed") {
        match token {
            Token::StartTag(tag) if hidden_depth > 0 => {
                hidden_depth += u32::from(!tag.self_closing)
            }
            Token::StartTag(tag) => {
                counts.visited += 1;
                if matcher.enter_element_into(symbols.intern(tag.name), &mut roles) {
                    open.push(!roles.is_empty());
                    if tag.self_closing {
                        matcher.leave_element();
                        close(&mut open, &mut counts);
                    }
                } else {
                    hidden_depth = u32::from(!tag.self_closing);
                }
            }
            Token::EndTag { .. } if hidden_depth > 0 => hidden_depth -= 1,
            Token::EndTag { .. } => {
                matcher.leave_element();
                close(&mut open, &mut counts);
            }
            Token::Text(_) if hidden_depth == 0 => {
                matcher.text_into(&mut roles);
                if !roles.is_empty() {
                    counts.needed += 1;
                    if let Some(parent) = open.last_mut() {
                        *parent = true;
                    }
                }
            }
            _ => {}
        }
    }
    counts
}
