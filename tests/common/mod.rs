//! What a query's projection makes of a document, counted by a walk with
//! the projection matcher alone — no lane, no buffer, no evaluator. The
//! suites that pin buffer counts derive their expectations from this
//! instead of copying them from a run.
#![allow(dead_code)] // every suite uses its own subset

use gcx::projection::{Automaton, StreamMatcher, TaggedPaths};
use gcx::query::ast::RoleId;
use gcx::schema::Dtd;
use gcx::xmark::{generate_string, XmarkConfig};
use gcx::xml::{PushTokenizer, SymbolTable, Token, TokenStep, Tokenizer, XmlWriter};
use gcx::{CompiledQuery, EngineOptions};
use std::sync::Arc;

#[path = "../../crates/xml/tests/common/mod.rs"]
pub mod generated;
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
    /// Nodes — elements and texts — that carry a role the writer has not
    /// already served, or stand above a node that does: what the buffer
    /// must be handed, no more. A node the lane wrote through
    /// ([`written_through`]) needs no place of its own.
    pub needed: u64,
    /// Elements the matcher keeps without a role, no descendant of which
    /// earns one either: kept on speculation, never needed.
    pub never_needed: u64,
    /// Nodes written through instead of appended ([`written_through`]).
    pub written_through: u64,
}

/// The matcher a session builds for `q`: with `dtd`, unsatisfiable paths
/// pruned and the reach filter armed.
fn matcher(q: &CompiledQuery, dtd: Option<&Dtd>) -> (StreamMatcher, SymbolTable) {
    let mut symbols = q.program.symbols().clone();
    let matcher = match dtd {
        Some(dtd) => {
            let prune = dtd.prune(q.program.matcher_paths(), &symbols);
            let reach = Arc::new(dtd.reach_filter(&mut symbols));
            let paths = TaggedPaths::merge([&prune.paths]);
            StreamMatcher::start(Arc::new(Automaton::new(paths, Some(reach))))
        }
        None => StreamMatcher::new(q.program.matcher_paths()).0,
    };
    (matcher, symbols)
}

/// Walk `doc` with the matcher of `q`, built the way a session builds it:
/// with `dtd`, unsatisfiable paths pruned and the reach filter armed.
pub fn project(q: &CompiledQuery, dtd: Option<&Dtd>, doc: &str) -> Projection {
    let written = written_through(q, dtd, doc);
    let (mut matcher, mut symbols) = matcher(q, dtd);
    let mut tok = Tokenizer::from_str(doc);
    let mut roles = Vec::new();
    // Per open kept element: whether a role sits at or below it, and
    // whether a role the writer has not served does.
    let mut open: Vec<(bool, bool)> = Vec::new();
    let mut hidden_depth = 0u32;
    // Index of the next visited node (start tag or text) in `written`.
    let mut node = 0;
    let mut counts = Projection {
        visited: 0,
        needed: 0,
        never_needed: 0,
        written_through: written.iter().filter(|&&w| w).count() as u64,
    };
    let close = |open: &mut Vec<(bool, bool)>, counts: &mut Projection| {
        let (role_below, handed) = open.pop().expect("balanced");
        counts.needed += u64::from(handed);
        counts.never_needed += u64::from(!role_below);
        if let Some(parent) = open.last_mut() {
            parent.0 |= role_below;
            parent.1 |= handed;
        }
    };
    while let Some(token) = tok.next_token().expect("well-formed") {
        match token {
            Token::StartTag(tag) if hidden_depth > 0 => {
                hidden_depth += u32::from(!tag.self_closing)
            }
            Token::StartTag(tag) => {
                counts.visited += 1;
                node += 1;
                if matcher.enter_element_into(symbols.intern(tag.name), &mut roles) {
                    open.push((!roles.is_empty(), !roles.is_empty() && !written[node - 1]));
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
                node += 1;
                if !roles.is_empty() && !written[node - 1] {
                    counts.needed += 1;
                    if let Some(parent) = open.last_mut() {
                        parent.1 = true;
                    }
                }
                if !roles.is_empty() {
                    if let Some(parent) = open.last_mut() {
                        parent.0 = true;
                    }
                }
            }
            _ => {}
        }
    }
    counts
}

/// The events a batch lane of `q` is charged when every token is stepped
/// to it — each start tag its query keeps (a self-closing one once) and
/// that element's end tag, each text that gets a role, and the end of
/// input: what [`gcx::RunReport::tokens`] of the lane must read, however
/// much of the stream the driver passed in bulk.
pub fn lane_events(q: &CompiledQuery, doc: &str) -> u64 {
    let (mut matcher, mut symbols) = matcher(q, None);
    let mut tok = Tokenizer::from_str(doc);
    let mut roles = Vec::new();
    let (mut events, mut hidden_depth) = (1, 0u32);
    while let Some(token) = tok.next_token().expect("well-formed") {
        match token {
            Token::StartTag(tag) if hidden_depth > 0 => {
                hidden_depth += u32::from(!tag.self_closing)
            }
            Token::StartTag(tag) => {
                if matcher.enter_element_into(symbols.intern(tag.name), &mut roles) {
                    events += 1;
                    if tag.self_closing {
                        matcher.leave_element();
                    }
                } else {
                    hidden_depth = u32::from(!tag.self_closing);
                }
            }
            Token::EndTag { .. } if hidden_depth > 0 => hidden_depth -= 1,
            Token::EndTag { .. } => {
                matcher.leave_element();
                events += 1;
            }
            Token::Text(_) if hidden_depth == 0 => {
                matcher.text_into(&mut roles);
                events += u64::from(!roles.is_empty());
            }
            _ => {}
        }
    }
    events
}

/// Which nodes `project` visits — start tags and texts outside refused
/// subtrees, in document order — the gcx engine writes through instead of
/// appending: a node holding one instance of one role, inside an element
/// that holds that role too (the subtree of a copy), whose own
/// serialization is the last thing the output gained when the byte that
/// completed it was fed. Observed on the output of a session fed one byte
/// at a time (with `dtd`, or with no schema at all); no buffer count is
/// read.
pub fn written_through(q: &CompiledQuery, dtd: Option<&Dtd>, doc: &str) -> Vec<bool> {
    let mut opts = EngineOptions::gcx();
    opts.schema_from_doctype = false;
    if let Some(dtd) = dtd {
        opts = opts.with_schema(Arc::new(dtd.clone()));
    }
    // What each byte added to the output.
    let mut session = q.session(&opts);
    let mut out = Vec::new();
    let mut added = Vec::with_capacity(doc.len());
    for byte in doc.as_bytes().chunks(1) {
        let from = out.len();
        session.feed(byte).expect("feed");
        session.take_output(&mut out).expect("drain");
        added.push(from..out.len());
    }
    session.finish().expect("finish");
    let ends_with = |at: usize, want: &[u8]| {
        added
            .get(at)
            .is_some_and(|range| out[range.clone()].ends_with(want))
    };
    let serialized = |token: &Token<'_>| {
        let mut w = XmlWriter::new(Vec::new());
        match token {
            Token::StartTag(tag) => {
                w.start_element(tag.name).unwrap();
                for a in tag.attrs.iter() {
                    w.attribute(a.name, a.value).unwrap();
                }
                if tag.self_closing {
                    w.end_element().unwrap();
                }
            }
            Token::Text(content) => w.text(content).unwrap(),
            _ => unreachable!("only nodes are written"),
        }
        w.get_ref().clone()
    };
    let (mut matcher, mut symbols) = matcher(q, dtd);
    let mut tok = PushTokenizer::new();
    tok.feed(doc.as_bytes());
    tok.finish_input();
    let mut roles = Vec::new();
    // The roles of the open kept elements.
    let mut open: Vec<Vec<(RoleId, u32)>> = Vec::new();
    let mut hidden_depth = 0u32;
    let mut written = Vec::new();
    let copied = |roles: &[(RoleId, u32)], open: &[Vec<(RoleId, u32)>]| match roles {
        [(role, 1)] => open
            .last()
            .is_some_and(|p| p.iter().any(|(r, _)| r == role)),
        _ => false,
    };
    loop {
        let start = tok.position().offset as usize;
        if tok.step().expect("well-formed") != TokenStep::Token {
            break;
        }
        let token = tok.token();
        // The byte that completes a token: a tag's `>`, a CDATA section's
        // closing `>`, and for character data the `<` that follows it.
        let end = tok.position().offset as usize;
        match token {
            Token::StartTag(tag) if hidden_depth > 0 => {
                hidden_depth += u32::from(!tag.self_closing)
            }
            Token::StartTag(tag) => {
                if matcher.enter_element_into(symbols.intern(tag.name), &mut roles) {
                    written.push(copied(&roles, &open) && ends_with(end - 1, &serialized(&token)));
                    if tag.self_closing {
                        matcher.leave_element();
                    } else {
                        open.push(roles.clone());
                    }
                } else {
                    written.push(false);
                    hidden_depth = u32::from(!tag.self_closing);
                }
            }
            Token::EndTag { .. } if hidden_depth > 0 => hidden_depth -= 1,
            Token::EndTag { .. } => {
                matcher.leave_element();
                open.pop();
            }
            Token::Text(_) if hidden_depth == 0 => {
                matcher.text_into(&mut roles);
                let at = if doc[start..].starts_with("<![CDATA[") {
                    end - 1
                } else {
                    end
                };
                written.push(copied(&roles, &open) && ends_with(at, &serialized(&token)));
            }
            _ => {}
        }
    }
    written
}
