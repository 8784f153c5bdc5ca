//! The per-layer ledger of the traced run. Every layer is timed from
//! outside, through its public functions. The pipeline layers are
//! separated by cumulative prefixes over the same bytes — tokenizer;
//! tokenizer + matcher; the full session — and a layer's self time is its
//! prefix minus the previous one. Each prefix is timed once per ledger
//! round; medians over the rounds enter the metrics. Like the end-to-end
//! timings, every time is divided by the speed factor measured beside it.

use crate::drive::{self, Bench, Section, CHUNK};
use crate::inputs::{Expect, Kind, Setup};
use crate::spec::{Driver, MIB};
use crate::stats::{median, prefix_self, HashSink, Pacer};
use crate::trace::{Trace, NO_SPAN};
use gcx_core::{EngineOptions, RunReport};
use gcx_projection::{CompiledPaths, StreamMatcher};
use gcx_schema::Dtd;
use gcx_xml::{PushTokenizer, SymbolTable, Token, TokenStep, XmlResult, XmlWriter};
use std::hint::black_box;
use std::time::Instant;

#[derive(Default)]
struct DocCost {
    memscan_ns: Vec<f64>,
    scan_ns: Vec<f64>,
    tokens: u64,
}

/// What one (document, query) pair costs, plus the counts that repeat
/// exactly and are therefore taken once.
#[derive(Default)]
struct PairCost {
    /// The tokenizer alone, timed right before the prefixes that build on
    /// it, so that drift of the host cancels in the subtractions.
    tokenize_ns: Vec<f64>,
    match_ns: Vec<f64>,
    session_ns: Vec<f64>,
    schema_ns: Vec<f64>,
    /// Output re-tokenised and re-emitted through `XmlWriter`, and the
    /// re-tokenising alone.
    rewrite_ns: Vec<f64>,
    retokenize_ns: Vec<f64>,
    facts: Option<PairFacts>,
}

struct PairFacts {
    /// The pair's output inside a `<w>` wrapper (a query result need not
    /// have a single root), kept for the write prefix.
    wrapped: Vec<u8>,
    kept_tokens: u64,
    report: RunReport,
    schema: RunReport,
    allocs: u64,
    alloc_bytes: u64,
    heap: u64,
}

#[derive(Default)]
struct KindCost {
    compile_us: Vec<f64>,
    analyze_us: Vec<f64>,
    session_new_us: Vec<f64>,
}

pub struct Ledger {
    docs: Vec<DocCost>,
    pairs: Vec<Vec<PairCost>>,
    kinds: Vec<KindCost>,
    pacer: Pacer,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
}

/// Nanoseconds since `t0` at the quiet reference box's speed.
fn ns(t0: Instant, speed: f64) -> f64 {
    t0.elapsed().as_nanos() as f64 / speed
}

/// Run `tok` over `doc` in session-sized chunks, handing every token to
/// `on_token`; returns the number of tokens.
fn tokenize(doc: &[u8], mut on_token: impl FnMut(Token<'_>)) -> XmlResult<u64> {
    let mut tok = PushTokenizer::new();
    let mut tokens = 0;
    let mut chunks = doc.chunks(CHUNK);
    loop {
        match tok.step()? {
            TokenStep::Token => {
                tokens += 1;
                on_token(tok.token());
            }
            TokenStep::NeedMoreData => match chunks.next() {
                Some(chunk) => tok.feed(chunk),
                None => tok.finish_input(),
            },
            TokenStep::End => return Ok(tokens),
        }
    }
}

/// The tokenizer + matcher prefix: what `gcx_core`'s projector does with
/// a token before anything reaches the buffer (intern the name, step the
/// NFA, skip unmatched subtrees). Returns the tokens the buffer would be
/// handed.
fn match_prefix(kind: &Kind, doc: &[u8]) -> XmlResult<u64> {
    let mut symbols = SymbolTable::new();
    let paths = CompiledPaths::compile(&kind.q.analysis.roles, &mut symbols);
    let (mut matcher, _) = StreamMatcher::new(&paths);
    let mut roles = Vec::new();
    let mut skip_depth = 0u32;
    let mut kept = 0u64;
    tokenize(doc, |token| match token {
        Token::StartTag(start) => {
            if skip_depth > 0 {
                skip_depth += u32::from(!start.self_closing);
            } else if matcher.enter_element_into(symbols.intern(start.name), &mut roles) {
                kept += 1;
                if start.self_closing {
                    matcher.leave_element();
                }
            } else {
                skip_depth = u32::from(!start.self_closing);
            }
        }
        Token::EndTag { .. } => {
            if skip_depth > 0 {
                skip_depth -= 1;
            } else {
                matcher.leave_element();
            }
        }
        Token::Text(_) if skip_depth == 0 => {
            matcher.text_into(&mut roles);
            kept += u64::from(!roles.is_empty());
        }
        _ => {}
    })?;
    Ok(kept)
}

/// Re-emit a tokenised document through `XmlWriter` into `out`.
fn rewrite(doc: &[u8], out: &mut Vec<u8>) -> XmlResult<()> {
    out.clear();
    let mut writer = XmlWriter::new(out);
    let mut failed = None;
    tokenize(doc, |token| {
        let r = match token {
            Token::StartTag(start) => writer
                .start_element(start.name)
                .and_then(|()| {
                    start
                        .attrs
                        .iter()
                        .try_for_each(|a| writer.attribute(a.name, a.value))
                })
                .and_then(|()| {
                    if start.self_closing {
                        writer.end_element()
                    } else {
                        Ok(())
                    }
                }),
            Token::EndTag { .. } => writer.end_element(),
            Token::Text(text) => writer.text(text),
            _ => Ok(()),
        };
        if let Err(e) = r {
            failed.get_or_insert(e);
        }
    })?;
    failed.map_or(Ok(()), Err)
}

impl Ledger {
    pub fn new(setup: &Setup) -> Ledger {
        Ledger {
            docs: setup.docs.iter().map(|_| DocCost::default()).collect(),
            pairs: setup
                .docs
                .iter()
                .map(|_| setup.kinds.iter().map(|_| PairCost::default()).collect())
                .collect(),
            kinds: setup.kinds.iter().map(|_| KindCost::default()).collect(),
            pacer: Pacer::default(),
            attempted: 0,
            failed: 0,
            rounds: 0,
        }
    }

    fn check(&mut self, got: Option<Expect>, want: Expect) {
        self.attempted += 1;
        if got != Some(want) {
            self.failed += 1;
        }
    }

    /// One ledger round: every prefix of every pair once.
    pub fn round(&mut self, setup: &Setup, trace: &mut Trace) {
        let plain = EngineOptions::gcx();
        let with_schema = EngineOptions::gcx().with_schema(Dtd::xmark());
        let round = self.rounds as u32;
        self.rounds += 1;
        let mut speed = self.pacer.speed();

        for (k, kind) in setup.kinds.iter().enumerate() {
            let t0 = Instant::now();
            let compiled = black_box(gcx_core::CompiledQuery::compile(kind.text));
            self.kinds[k].compile_us.push(ns(t0, speed) / 1e3);
            drop(compiled);
            let t0 = Instant::now();
            black_box(gcx_analyze::analyze_program(&kind.q.program, None));
            self.kinds[k].analyze_us.push(ns(t0, speed) / 1e3);
            let t0 = Instant::now();
            let mut session = kind.q.session(&plain);
            let fed = session.feed(b"<site/>").and_then(|_| session.finish());
            self.kinds[k].session_new_us.push(ns(t0, speed) / 1e3);
            self.attempted += 1;
            self.failed += u64::from(fed.is_err());
        }

        for (d, doc) in setup.docs.iter().enumerate() {
            let t0 = Instant::now();
            black_box(doc.iter().map(|&b| u64::from(b)).sum::<u64>());
            self.docs[d].memscan_ns.push(ns(t0, speed));

            let span = trace.open("par.scan", NO_SPAN, round);
            let t0 = Instant::now();
            let outline = black_box(gcx_xml::scan_boundaries(doc, 3));
            self.docs[d].scan_ns.push(ns(t0, speed));
            trace.close(span);
            self.attempted += 1;
            self.failed += u64::from(outline.is_err());

            for (k, kind) in setup.kinds.iter().enumerate() {
                let want = setup.expect[d][k];
                speed = self.pacer.speed();

                let span = trace.open("xml.tokenize", NO_SPAN, round);
                let t0 = Instant::now();
                let tokens = tokenize(doc, |token| {
                    black_box(token);
                });
                self.pairs[d][k].tokenize_ns.push(ns(t0, speed));
                trace.close(span);
                self.docs[d].tokens = tokens.unwrap_or(0);

                let span = trace.open("projection.match", NO_SPAN, round);
                let t0 = Instant::now();
                let kept = match_prefix(kind, doc);
                self.pairs[d][k].match_ns.push(ns(t0, speed));
                trace.close(span);

                // The full session, with the allocator watched.
                let span = trace.open("core.session", NO_SPAN, round);
                let mut sink = HashSink::default();
                let live = gcx_memtrack::live_bytes();
                let allocs = gcx_memtrack::total_allocs();
                let alloc_bytes = gcx_memtrack::total_bytes();
                gcx_memtrack::reset_peak();
                let t0 = Instant::now();
                let run = drive::run_session(
                    &kind.q,
                    &plain,
                    doc,
                    &mut sink,
                    &mut Trace::off(),
                    NO_SPAN,
                    0,
                );
                self.pairs[d][k].session_ns.push(ns(t0, speed));
                let allocs = gcx_memtrack::total_allocs() - allocs;
                let alloc_bytes = gcx_memtrack::total_bytes() - alloc_bytes;
                let heap = gcx_memtrack::peak_bytes().saturating_sub(live);
                trace.close(span);
                self.check(run.is_ok().then(|| Expect::of_sink(&sink)), want);

                // The same with the XMark DTD attached: same bytes out.
                let span = trace.open("schema.session", NO_SPAN, round);
                let mut sink = HashSink::default();
                let t0 = Instant::now();
                let schema_run = drive::run_session(
                    &kind.q,
                    &with_schema,
                    doc,
                    &mut sink,
                    &mut Trace::off(),
                    NO_SPAN,
                    0,
                );
                self.pairs[d][k].schema_ns.push(ns(t0, speed));
                trace.close(span);
                self.check(schema_run.is_ok().then(|| Expect::of_sink(&sink)), want);

                if self.pairs[d][k].facts.is_none() {
                    if let (Ok(kept), Ok((report, _)), Ok((schema, _))) = (kept, run, schema_run) {
                        let mut wrapped = b"<w>".to_vec();
                        if let Ok(out) = drive::session_bytes(&kind.q, &plain, doc) {
                            wrapped.extend(out);
                        }
                        wrapped.extend(b"</w>");
                        self.pairs[d][k].facts = Some(PairFacts {
                            wrapped,
                            kept_tokens: kept,
                            report,
                            schema,
                            allocs,
                            alloc_bytes,
                            heap,
                        });
                    }
                }

                if let Some(facts) = &self.pairs[d][k].facts {
                    let mut out = Vec::with_capacity(facts.wrapped.len() + 64);
                    let span = trace.open("xml.write", NO_SPAN, round);
                    let t0 = Instant::now();
                    let written = rewrite(&facts.wrapped, &mut out);
                    let rewrite_ns = ns(t0, speed);
                    trace.close(span);
                    let t0 = Instant::now();
                    let _ = tokenize(&facts.wrapped, |token| {
                        black_box(token);
                    });
                    let retokenize_ns = ns(t0, speed);
                    self.attempted += 1;
                    self.failed += u64::from(written.is_err());
                    self.pairs[d][k].rewrite_ns.push(rewrite_ns);
                    self.pairs[d][k].retokenize_ns.push(retokenize_ns);
                }
            }
        }
    }

    /// Median stand-alone session time per query, summed over the
    /// workload's documents; milliseconds.
    pub fn session_ms(&self) -> Vec<f64> {
        (0..self.kinds.len())
            .map(|k| {
                self.pairs
                    .iter()
                    .map(|row| median(&row[k].session_ns) / 1e6)
                    .sum()
            })
            .collect()
    }

    /// Per query: (tokenize, match, eval) self times, the session prefix
    /// they were cut from, and the session with the DTD attached, in
    /// milliseconds; then the tokens the matcher let through to the
    /// buffer. All summed over the documents.
    pub fn breakdown(&self) -> Vec<[f64; 6]> {
        (0..self.kinds.len())
            .map(|k| {
                let mut row = [0.0; 6];
                for pairs in &self.pairs {
                    let tok = median(&pairs[k].tokenize_ns);
                    let mat = median(&pairs[k].match_ns);
                    let ses = median(&pairs[k].session_ns);
                    row[0] += tok / 1e6;
                    row[1] += prefix_self(mat, tok) / 1e6;
                    row[2] += prefix_self(ses, mat) / 1e6;
                    row[3] += ses / 1e6;
                    row[4] += median(&pairs[k].schema_ns) / 1e6;
                    row[5] += pairs[k]
                        .facts
                        .as_ref()
                        .map_or(0.0, |f| f.kept_tokens as f64);
                }
                row
            })
            .collect()
    }

    /// The per-layer metrics by name, in `spec::PER_LAYER` order. `untraced`
    /// and `traced` are the two driver sections of the traced run.
    pub fn metrics(
        &self,
        bench: &Bench,
        untraced: &Section,
        traced: &Section,
    ) -> Vec<(&'static str, f64)> {
        let setup = bench.setup;
        let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let doc_bytes: f64 = setup.docs.iter().map(|d| d.len() as f64).sum();
        let doc_sum =
            |f: fn(&DocCost) -> &Vec<f64>| -> f64 { self.docs.iter().map(|d| median(f(d))).sum() };
        let doc_tokens: u64 = self.docs.iter().map(|d| d.tokens).sum();

        // Sums over all pairs.
        let mut pair_bytes = 0.0;
        let mut pair_tokens = 0.0;
        let (mut tokenize, mut match_self, mut eval_self) = (0.0, 0.0, 0.0);
        let (mut session, mut schema) = (0.0, 0.0);
        let (mut write_self, mut out_bytes) = (0.0, 0.0);
        let (mut kept, mut appended, mut purged, mut feed_calls) = (0u64, 0u64, 0u64, 0u64);
        let (mut peak_nodes, mut pending) = (0u64, 0u64);
        let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
        let (mut peak_bytes, mut schema_peak_bytes) = (0u64, 0u64);
        let (mut reach_cuts, mut early_signoffs) = (0u64, 0u64);
        let (mut dom_heap, mut gcx_heap) = (0u64, 0u64);
        let mut fattest = (0u64, 0u64); // (peak buffer bytes, heap) of the largest buffer
        for (d, row) in self.pairs.iter().enumerate() {
            for (k, pair) in row.iter().enumerate() {
                let tok = median(&pair.tokenize_ns);
                let mat = median(&pair.match_ns);
                let ses = median(&pair.session_ns);
                pair_bytes += setup.docs[d].len() as f64;
                pair_tokens += self.docs[d].tokens as f64;
                tokenize += tok;
                match_self += prefix_self(mat, tok);
                eval_self += prefix_self(ses, mat);
                session += ses;
                schema += median(&pair.schema_ns);
                write_self += prefix_self(median(&pair.rewrite_ns), median(&pair.retokenize_ns));
                let Some(f) = &pair.facts else { continue };
                out_bytes += f.report.output_bytes as f64;
                kept += f.kept_tokens;
                appended += f.report.buffer.allocated;
                purged += f.report.buffer.purged;
                feed_calls += f.report.feed_calls;
                peak_nodes = peak_nodes.max(f.report.buffer.peak_live);
                pending = pending.max(f.report.max_pending_bytes);
                allocs += f.allocs;
                alloc_bytes += f.alloc_bytes;
                peak_bytes += f.report.buffer.peak_live_bytes;
                schema_peak_bytes += f.schema.buffer.peak_live_bytes;
                if let Some(s) = &f.schema.schema {
                    reach_cuts += s.reach_cuts;
                    early_signoffs += s.early_signoffs;
                }
                if setup.dom_heap[d][k] > 0 {
                    dom_heap += setup.dom_heap[d][k];
                    gcx_heap += f.heap;
                }
                if f.report.buffer.peak_live_bytes >= fattest.0 {
                    fattest = (f.report.buffer.peak_live_bytes, f.heap);
                }
            }
        }
        let kinds = self.kinds.len() as f64;
        let kind_mean = |f: fn(&KindCost) -> &Vec<f64>| {
            self.kinds.iter().map(|k| median(f(k))).sum::<f64>() / kinds
        };
        let instructions: usize = setup
            .kinds
            .iter()
            .map(|k| k.q.program.stats().instructions)
            .sum();

        // Driver-specific layers; 0 on workloads that bypass them.
        let driver = bench.w.driver;
        let standalone_ms: f64 = self.session_ms().iter().sum();
        let driver_ms: f64 = untraced.acc.kind_medians(setup.kinds.len()).iter().sum();
        let on = |d: Driver, v: f64| if driver == d { v } else { 0.0 };
        // A batch's samples all carry kind 0 and 1/Nth of the batch time.
        let batch_ms = driver_ms * kinds;
        let phase = |i: usize| {
            let v: Vec<f64> = traced.acc.phases.iter().map(|p| p[i]).collect();
            median(&v)
        };
        let e2e_untraced = bench.end_to_end(untraced);
        let e2e_traced = bench.end_to_end(traced);

        vec![
            ("op_ms_p95", e2e_untraced.op_ms_p95),
            (
                "xml.memscan_ns_per_byte",
                div(doc_sum(|d| &d.memscan_ns), doc_bytes),
            ),
            (
                "xml.scan_ns_per_byte",
                div(doc_sum(|d| &d.scan_ns), doc_bytes),
            ),
            ("xml.tokenize_ns_per_byte", div(tokenize, pair_bytes)),
            ("xml.tokens", doc_tokens as f64),
            ("xml.write_ns_per_out_byte", div(write_self, out_bytes)),
            (
                "projection.match_ns_per_token",
                div(match_self, pair_tokens),
            ),
            ("projection.matched_frac", div(kept as f64, pair_tokens)),
            ("ir.compile_us", kind_mean(|k| &k.compile_us)),
            ("ir.instructions", instructions as f64),
            ("analyze.analyze_us", kind_mean(|k| &k.analyze_us)),
            ("core.session_new_us", kind_mean(|k| &k.session_new_us)),
            ("core.eval_ns_per_byte", div(eval_self, pair_bytes)),
            ("core.eval_ns_per_node", div(eval_self, appended as f64)),
            ("core.nodes_appended", appended as f64),
            ("core.nodes_purged", purged as f64),
            ("core.peak_live_nodes", peak_nodes as f64),
            ("core.output_bytes", out_bytes),
            ("core.feed_calls", feed_calls as f64),
            ("core.max_pending_bytes", pending as f64),
            (
                "core.heap_over_buffer",
                div(fattest.1 as f64, fattest.0 as f64),
            ),
            (
                "memtrack.allocs_per_ktoken",
                div(allocs as f64 * 1e3, pair_tokens),
            ),
            (
                "memtrack.alloc_kb_per_mb",
                div(alloc_bytes as f64 / 1024.0, pair_bytes / MIB as f64),
            ),
            ("schema.time_ratio", div(schema, session)),
            (
                "schema.peak_ratio",
                div(schema_peak_bytes as f64, peak_bytes as f64),
            ),
            ("schema.reach_cuts", reach_cuts as f64),
            ("schema.early_signoffs", early_signoffs as f64),
            ("dom.run_ms", setup.dom_ms / setup.speed),
            ("dom.heap_ratio", div(dom_heap as f64, gcx_heap as f64)),
            (
                "multi.batch_over_sum",
                on(Driver::Batch, div(batch_ms, standalone_ms)),
            ),
            (
                "multi.share_factor",
                on(Driver::Batch, traced.acc.share_factor),
            ),
            (
                "multi.fanout_events",
                on(Driver::Batch, traced.acc.fanout_events as f64),
            ),
            (
                "par.speedup",
                on(Driver::Par, div(standalone_ms, driver_ms)),
            ),
            ("par.shards", on(Driver::Par, traced.acc.par_shards as f64)),
            ("par.path", on(Driver::Par, traced.acc.par_sharded as f64)),
            ("par.shard_skew", on(Driver::Par, traced.acc.par_skew)),
            (
                "server.overhead_ms",
                on(
                    Driver::Server,
                    (driver_ms - standalone_ms / setup.docs.len() as f64) / kinds,
                ),
            ),
            ("server.connect_ms", phase(0)),
            ("server.upload_ms", phase(1)),
            ("server.first_byte_ms", phase(2)),
            ("server.download_ms", phase(3)),
            ("server.rejected", traced.acc.rejected as f64),
            (
                "trace.overhead_pct",
                100.0 * (div(e2e_untraced.throughput_mb_s, e2e_traced.throughput_mb_s) - 1.0),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &[u8] = b"<site><people><person id=\"person0\"><name>A &amp; B</name>\
        <profile income=\"5\"/></person><person id=\"p1\"><name>C</name></person></people>\
        <regions><africa><item><name>x</name></item></africa></regions></site>";

    #[test]
    fn tokenize_hands_over_every_token() {
        let mut names = Vec::new();
        let n = tokenize(DOC, |t| {
            if let Token::StartTag(s) = t {
                names.push(s.name.to_string());
            }
        })
        .unwrap();
        // 11 start tags (one self-closing), 10 end tags, and the texts (an
        // entity may split one).
        assert_eq!(names.len(), 11);
        assert!((24..=26).contains(&n), "{n} tokens");
    }

    #[test]
    fn rewrite_round_trips_through_the_writer() {
        let mut out = Vec::new();
        rewrite(DOC, &mut out).unwrap();
        assert_eq!(out, DOC);
    }

    #[test]
    fn match_prefix_keeps_only_projected_tokens() {
        let kind = Kind {
            name: "Q1",
            text: gcx_xmark::queries::Q1,
            q: gcx_core::CompiledQuery::compile(gcx_xmark::queries::Q1).unwrap(),
        };
        let kept = match_prefix(&kind, DOC).unwrap();
        let all = tokenize(DOC, |_| {}).unwrap();
        // site, people, both persons and their names (+ texts) are on the
        // query's paths; the regions subtree is skipped whole.
        assert!(kept >= 6 && kept < all / 2, "kept {kept} of {all}");
    }
}
