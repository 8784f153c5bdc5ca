//! The sans-IO evaluation session: the push-driven public form of the
//! engine.
//!
//! GCX's defining property is that evaluation is driven by the *arrival*
//! of stream events, with buffers purged the instant active-rule signoffs
//! allow. [`EvalSession`] is that property as an API: the caller owns all
//! I/O and pushes document bytes in with [`EvalSession::feed`] whenever
//! they happen to arrive — from a socket, a file, a test vector — and the
//! session advances tokenization, projection and evaluation exactly as far
//! as the bytes allow, suspending at any byte boundary (mid-tag, mid-UTF-8
//! sequence, mid-CDATA). Query output accumulates in a caller-drainable
//! buffer ([`EvalSession::output`] / [`EvalSession::take_output`]); the
//! engine never touches `Read` or `Write` internally.
//!
//! One `feed` call interleaves the three stages at the same granularity as
//! the blocking engine — evaluator runs until it blocks, one token is
//! applied, evaluator resumes — so outputs *and buffer peaks* are
//! bit-identical to [`run`](crate::run) regardless of how the input is
//! chunked (pinned by the `chunk_splits` differential suite).
//!
//! ```
//! use gcx_core::{CompiledQuery, EngineOptions};
//!
//! let q = CompiledQuery::compile(
//!     "<books>{ for $b in /bib/book return $b/title }</books>",
//! ).unwrap();
//! let mut session = q.session(&EngineOptions::gcx());
//!
//! // Bytes arrive in arbitrary chunks — here, split mid-tag.
//! let doc = b"<bib><book><title>Streams</title><price>10</price></book></bib>";
//! let (a, b) = doc.split_at(17);
//! let emitted = session.feed(a).unwrap();
//! assert!(!emitted.done, "mid-document: evaluation is suspended");
//! session.feed(b).unwrap();
//!
//! let report = session.finish().unwrap();
//! let mut out = Vec::new();
//! session.take_output(&mut out).unwrap();
//! assert_eq!(out, b"<books><title>Streams</title></books>");
//! assert_eq!(report.buffer.live, 0); // the buffer drained completely
//! assert_eq!(report.feed_calls, 2);
//! ```

use crate::driver::Driver;
use crate::engine::{CompiledQuery, EngineOptions, RunReport};
use crate::error::EngineError;
use crate::lane::Lane;
use gcx_projection::TaggedMatcher;
use std::io::Write;
use std::sync::Arc;

/// What one [`EvalSession::feed`] (or [`EvalSession::finish`]) call
/// produced.
#[derive(Debug, Clone, Copy)]
pub struct Emitted {
    /// Output bytes currently pending in the session's buffer (including
    /// bytes emitted by earlier calls and not yet drained).
    pub output_bytes: usize,
    /// The program ran to completion: no further output will be produced;
    /// the rest of the input is still read to its end and validated.
    pub done: bool,
}

/// A resumable, push-driven evaluation of one compiled query over one
/// document. Create with [`CompiledQuery::session`]; see the
/// [module docs](self) for the protocol.
///
/// The session is the paper's pipeline with the I/O inverted: the
/// driver's tokenizer and stream preprojector in front of one lane — the
/// buffer with active garbage collection and the resumable evaluator —
/// all suspended together between `feed` calls, holding exactly the GCX
/// buffer plus the current partial token. It is the driver's one-lane
/// face (a [`BatchSession`](crate::batch::BatchSession) is its N-lane
/// one): its lane is charged every token of the stream, adopts an
/// in-stream DOCTYPE's cutoffs, and fails the feed when it fails.
pub struct EvalSession {
    driver: Driver,
}

impl EvalSession {
    pub(crate) fn new(q: &CompiledQuery, opts: &EngineOptions) -> EvalSession {
        // Nothing is compiled here: the automaton was prepared with the
        // query and each run's matcher only instantiates frame state over
        // it (root roles — the paper's r1 — are not materialized: the
        // virtual root is never purged, so its bookkeeping would be
        // inert). With a schema the query's plan for it supplies an
        // automaton without the DTD-unsatisfiable paths and under the
        // descendant-reachability filter, the sibling-order cutoffs for
        // the buffer, and a table that already holds the DTD's names.
        let plan = opts.schema.as_ref().map(|dtd| q.schema_plan(dtd));
        let lane = Lane::start(q, opts, plan.as_deref());
        let automaton = plan
            .as_ref()
            .map_or(q.program.automaton(), |p| &p.automaton);
        let matcher = TaggedMatcher::start(Arc::clone(automaton));
        EvalSession {
            driver: Driver::new(vec![lane], matcher, None),
        }
    }

    /// Push one chunk of document bytes and advance evaluation as far as
    /// they allow. Any amount is fine, including empty; the session
    /// carries partial-token spillover across calls internally.
    ///
    /// Output produced by this call is buffered — read it with
    /// [`EvalSession::output`] or drain it with
    /// [`EvalSession::take_output`].
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Emitted, EngineError> {
        self.driver.feed(chunk)?;
        Ok(self.emitted())
    }

    /// Zero-copy variant of [`EvalSession::feed`]: borrow at least `min`
    /// writable bytes of the tokenizer window to read input into directly
    /// (e.g. straight from a socket), then [`EvalSession::commit`] however
    /// many arrived. Invalidates pending borrowed state like `feed` does.
    pub fn space(&mut self, min: usize) -> &mut [u8] {
        self.driver.space(min)
    }

    /// Declare `n` bytes of [`EvalSession::space`] filled and advance
    /// evaluation, exactly like [`EvalSession::feed`] on that slice.
    pub fn commit(&mut self, n: usize) -> Result<Emitted, EngineError> {
        self.driver.commit(n)?;
        Ok(self.emitted())
    }

    /// Declare the end of input and run evaluation to completion,
    /// returning the run's measurements. Fails with the same errors the
    /// blocking engine would (malformed XML, truncated document, buffer
    /// budget). Pending output remains drainable afterwards. A session
    /// whose `feed`, `commit` or `finish` failed stays failed, and one that
    /// finished takes no more input: every later call returns an error.
    pub fn finish(&mut self) -> Result<RunReport, EngineError> {
        let mut reports = self.driver.finish()?;
        reports.pop().expect("a session has one lane")
    }

    /// Borrowed view of the output bytes pending in the session.
    pub fn output(&self) -> &[u8] {
        self.lane().output()
    }

    /// Drain pending output into `sink`; returns the bytes written.
    /// Callers stream results while the document is still arriving by
    /// interleaving this with [`EvalSession::feed`].
    ///
    /// On a sink error, the bytes that *were* written are removed from
    /// the pending buffer before the error returns, so retrying (on the
    /// same or a replacement sink) never emits a byte twice.
    pub fn take_output<W: Write>(&mut self, sink: &mut W) -> Result<usize, EngineError> {
        self.driver.take_output(0, sink)
    }

    /// Largest partial-token spillover held across a `feed` boundary so
    /// far (see [`RunReport::max_pending_bytes`]).
    pub fn max_pending_bytes(&self) -> u64 {
        self.driver.scan.max_pending_bytes
    }

    /// Wrap an input-side I/O failure the way the blocking engine's
    /// tokenizer would have reported it, carrying the current position.
    pub fn input_io_error(&self, e: std::io::Error) -> EngineError {
        self.driver.input_io_error(e)
    }

    fn lane(&self) -> &Lane {
        &self.driver.pre.lanes[0].lane
    }

    fn emitted(&self) -> Emitted {
        Emitted {
            output_bytes: self.output().len(),
            done: self.lane().done(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchOptions, BatchSession};
    use crate::engine::run;
    use gcx_xml::{Token, XmlErrorKind};

    const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";
    const DOC: &str = "<bib><book><title>T1</title><price>9</price></book>\
                       <article><title>skip</title></article>\
                       <book><title>T2</title></book></bib>";

    fn single_shot(query: &str, doc: &str) -> (Vec<u8>, RunReport) {
        let q = CompiledQuery::compile(query).unwrap();
        let mut out = Vec::new();
        let report = run(&q, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
        (out, report)
    }

    /// Feed `doc` in `chunk`-byte pieces; return (output, report).
    fn chunked(query: &str, doc: &str, chunk: usize) -> (Vec<u8>, RunReport) {
        let q = CompiledQuery::compile(query).unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        for piece in doc.as_bytes().chunks(chunk.max(1)) {
            session.feed(piece).unwrap();
        }
        let report = session.finish().unwrap();
        let mut out = Vec::new();
        session.take_output(&mut out).unwrap();
        (out, report)
    }

    /// Run `query` over `xml` to the end; return the report.
    fn report(query: &str, xml: &str, opts: &EngineOptions) -> RunReport {
        let q = CompiledQuery::compile(query).unwrap();
        run(&q, opts, xml.as_bytes(), std::io::sink()).unwrap()
    }

    const PAPER_QUERY: &str = r#"
        <r> {
          for $bib in /bib return
            (for $x in $bib/* return
               if (not(exists($x/price))) then $x else (),
             for $b in $bib/book return $b/title)
        } </r>
    "#;

    #[test]
    fn projects_paper_prefix() {
        // <bib><book><title/><author/></book></bib>: all five nodes carry
        // roles (figure 1a), so bib, book, title and author are buffered.
        let r = report(
            PAPER_QUERY,
            "<bib><book><title/><author/></book></bib>",
            &EngineOptions::gcx(),
        );
        assert_eq!(r.buffer.allocated, 4);
        assert_eq!(r.tokens, 8);
    }

    #[test]
    fn skips_irrelevant_subtrees() {
        let r = report(
            "for $a in /x/y return $a",
            "<x><junk><deep><deeper/></deep></junk><y>keep</y></x>",
            &EngineOptions::gcx(),
        );
        // junk subtree skipped entirely; x and y buffered, and "keep"
        // written through: the copy of y started at its start tag, and
        // the text holds nothing but the copy's role. Skipped tokens
        // still count.
        assert_eq!(r.buffer.allocated, 2);
        assert_eq!(r.tokens, 11);
    }

    #[test]
    fn speculative_prefixes_never_reach_the_buffer() {
        // /x/y: an x matches the path prefix but carries no role. It used
        // to be appended at its start tag and purged at its end tag
        // (allocated 1, live 0); now it waits outside the buffer for a y,
        // and with none it is never appended — in any projecting mode.
        // Derivation of the re-pin: old 1 − 1 role-less element without a
        // role-carrying descendant = 0.
        for opts in [EngineOptions::projection_only(), EngineOptions::gcx()] {
            let r = report("for $a in /x/y return 'found'", "<x><z/></x>", &opts);
            assert_eq!(r.buffer.allocated, 0, "the speculative x stays out");
            assert_eq!(r.tokens, 4, "and still counts as delivered");
            // A y makes x needed after all: both are appended, x first.
            let r = report("for $a in /x/y return 'found'", "<x><z/><y/></x>", &opts);
            assert_eq!(r.buffer.allocated, 2);
            assert_eq!(r.buffer.peak_live, 2);
        }
        // Without projection nothing is speculative.
        let r = report(
            "for $a in /x/y return 'found'",
            "<x><z/></x>",
            &EngineOptions::full_buffering(),
        );
        assert_eq!(r.buffer.allocated, 2);
    }

    #[test]
    fn document_element_not_on_any_path_skips_whole_input() {
        let r = report(
            "for $a in /x/y return 'found'",
            "<root><x><y/></x></root>",
            &EngineOptions::gcx(),
        );
        // `/x` requires the document element to be named x; <root> fails
        // the very first transition, so nothing at all is buffered.
        assert_eq!(r.buffer.allocated, 0);
        // <root>, <x>, <y/> (counts twice), </x>, </root>
        assert_eq!(r.tokens, 6);
    }

    #[test]
    fn full_buffering_keeps_everything() {
        let r = report(
            "for $a in /x/y return $a",
            "<x><junk><deep/></junk><y>keep</y></x>",
            &EngineOptions::full_buffering(),
        );
        // x, junk, deep, y, text all buffered; nothing is reclaimed.
        assert_eq!(r.buffer.allocated, 5);
        assert_eq!(r.buffer.live, 5);
    }

    #[test]
    fn whitespace_runs_are_dropped_unless_a_role_keeps_them() {
        // Projecting: only x and the two y elements; whitespace runs
        // carry no roles.
        let r = report(
            "for $a in /x/y return 'z'",
            "<x>\n  <y/>\n  <y/>\n</x>",
            &EngineOptions::gcx(),
        );
        assert_eq!(r.buffer.allocated, 3);
        // Full buffering keeps role-less text too — but not whitespace
        // runs: x, junk, "t", y.
        let r = report(
            "for $a in /x/y return 'z'",
            "<x>\n  <junk>t</junk>\n  <y/>\n</x>",
            &EngineOptions::full_buffering(),
        );
        assert_eq!(r.buffer.allocated, 4);
        // Whitespace a role asks for is kept in every mode.
        let q = CompiledQuery::compile("for $a in /x/y return $a").unwrap();
        for opts in [EngineOptions::gcx(), EngineOptions::full_buffering()] {
            let mut out = Vec::new();
            run(&q, &opts, "<x> <y> </y> </x>".as_bytes(), &mut out).unwrap();
            assert_eq!(out, b"<y> </y>");
        }
    }

    #[test]
    fn token_counting_matches_paper_arithmetic() {
        // The paper's micro documents: 10 children of 3 subelements each =
        // 82 tags; all tags count, text would too (none here).
        let mut doc = String::from("<bib>");
        for i in 0..10 {
            let t = if i == 9 { "book" } else { "article" };
            doc.push_str(&format!(
                "<{t}><author></author><title></title><price></price></{t}>"
            ));
        }
        doc.push_str("</bib>");
        assert_eq!(report(PAPER_QUERY, &doc, &EngineOptions::gcx()).tokens, 82);
    }

    #[test]
    fn timeline_records_buffer_growth_at_its_stride() {
        let query = "for $a in /x/y return 'z'";
        let doc = "<x><w/><w/><y/></x>";
        let opts = EngineOptions::projection_only();
        let tl = report(query, doc, &opts.clone().with_timeline(1))
            .timeline
            .unwrap();
        // One sample per structural token, the skipped <w/>s included.
        assert_eq!(tl.points.len(), 8);
        assert!(tl.peak() >= 2);
        // The last sample has x + y buffered (no signOffs executed here).
        assert_eq!(tl.points.last().unwrap().1, 2);
        // At stride 3 the grid starts at the first charged token: tokens 1,
        // 1 + 3 and 1 + 2 × 3 of the 8 (`<x>` 1, each `<w/>` and `<y/>` 2,
        // `</x>` 1).
        let tl = report(query, doc, &opts.with_timeline(3)).timeline.unwrap();
        let at: Vec<u64> = tl.points.iter().map(|&(token, _)| token).collect();
        assert_eq!(at, [1, 4, 7]);
        assert!(report(query, doc, &EngineOptions::gcx()).timeline.is_none());
    }

    #[test]
    fn self_closing_counts_as_two_tokens() {
        let r = report("for $a in /x return $a", "<x/>", &EngineOptions::gcx());
        assert_eq!(r.tokens, 2);
    }

    #[test]
    fn ordinals_count_skipped_siblings() {
        // Positional predicates see document positions: the skipped
        // <junk> subtrees and the unbuffered text do not renumber the
        // items, and `*[4]` counts the skipped elements too.
        let doc = "<l><junk><item>no</item></junk><item>a</item>t<junk/><item>b</item></l>";
        for opts in [EngineOptions::gcx(), EngineOptions::full_buffering()] {
            let q = CompiledQuery::compile("for $b in /l/item[2] return $b").unwrap();
            let mut out = Vec::new();
            run(&q, &opts, doc.as_bytes(), &mut out).unwrap();
            assert_eq!(out, b"<item>b</item>");
            let q = CompiledQuery::compile("for $b in /l/*[4] return $b").unwrap();
            let mut out = Vec::new();
            run(&q, &opts, doc.as_bytes(), &mut out).unwrap();
            assert_eq!(out, b"<item>b</item>");
        }
    }

    #[test]
    fn doctype_is_adopted_unless_a_schema_is_explicit() {
        let doc = "<!DOCTYPE a [<!ELEMENT a (b*, c)><!ELEMENT b (#PCDATA)>\
                   <!ELEMENT c (#PCDATA)>]><a><b>1</b><c>2</c></a>";
        let query = "for $b in /a/b return $b";
        let adopted = report(query, doc, &EngineOptions::gcx());
        assert!(adopted.schema.expect("DOCTYPE adopted").doctype_adopted);
        // An explicit schema wins: the in-stream subset is ignored.
        let dtd = Arc::new(
            gcx_schema::Dtd::parse(
                "<!ELEMENT a (b*, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>",
            )
            .unwrap(),
        );
        let explicit = report(query, doc, &EngineOptions::gcx().with_schema(dtd));
        assert!(!explicit.schema.expect("explicit schema").doctype_adopted);
    }

    #[test]
    fn chunking_matches_single_shot_bit_for_bit() {
        let (want_out, want_report) = single_shot(QUERY, DOC);
        for chunk in [1, 2, 3, 7, 16, DOC.len()] {
            let (out, report) = chunked(QUERY, DOC, chunk);
            assert_eq!(out, want_out, "chunk size {chunk}");
            assert_eq!(report.tokens, want_report.tokens, "chunk size {chunk}");
            assert_eq!(
                report.buffer.peak_live, want_report.buffer.peak_live,
                "chunk size {chunk}"
            );
            assert_eq!(
                report.buffer.peak_live_bytes, want_report.buffer.peak_live_bytes,
                "chunk size {chunk}"
            );
            assert_eq!(report.buffer.live, 0, "chunk size {chunk}");
        }
    }

    #[test]
    fn telemetry_reports_buffer_lifecycle_without_changing_results() {
        let (want_out, want_report) = single_shot(QUERY, DOC);
        let q = CompiledQuery::compile(QUERY).unwrap();
        let mut session = q.session(&EngineOptions::gcx().with_telemetry());
        for piece in DOC.as_bytes().chunks(7) {
            session.feed(piece).unwrap();
        }
        let report = session.finish().unwrap();
        let mut out = Vec::new();
        session.take_output(&mut out).unwrap();
        // Telemetry must be pure observation: outputs and buffer peaks
        // stay bit-identical to the untraced run.
        assert_eq!(out, want_out);
        assert_eq!(
            report.buffer.peak_live_bytes,
            want_report.buffer.peak_live_bytes
        );
        assert_eq!(report.buffer.purged, want_report.buffer.purged);
        let obs = report.obs.as_ref().expect("telemetry enabled");
        assert_eq!(
            obs.residency_tokens.count(),
            report.buffer.purged,
            "one residency observation per purged node"
        );
        assert_eq!(obs.purged_node_bytes.count(), report.buffer.purged);
        assert!(obs.purged_node_bytes.sum() > 0);
        assert!(obs.purges_on_signoff + obs.purges_on_close + obs.purges_on_unpin > 0);
        assert!(!obs.roles.is_empty(), "role lifecycle recorded");
        assert!(obs.roles.iter().any(|r| r.signoffs > 0));
        assert!(!obs.tasks.is_empty(), "frame timing recorded");
        assert_eq!(obs.feed_spans.len() as u64, report.feed_calls);
        assert!(obs.tokenizer_window_peak > 0);
        let timeline = report.timeline.as_ref().expect("telemetry samples");
        assert!(!timeline.bytes.is_empty());
        // Telemetry off: the report carries no obs section.
        assert!(want_report.obs.is_none());
    }

    #[test]
    fn output_streams_while_document_arrives() {
        let q = CompiledQuery::compile("for $b in /bib/book return $b/title").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session
            .feed(b"<bib><book><title>early</title></book>")
            .unwrap();
        // The first result is available before the document ends.
        let mut streamed = Vec::new();
        session.take_output(&mut streamed).unwrap();
        assert_eq!(streamed, b"<title>early</title>");
        session
            .feed(b"<book><title>late</title></book></bib>")
            .unwrap();
        session.finish().unwrap();
        session.take_output(&mut streamed).unwrap();
        assert_eq!(
            streamed,
            b"<title>early</title><title>late</title>".as_slice()
        );
    }

    #[test]
    fn emitted_reports_completion() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        // A constant query completes as soon as the root closes.
        let emitted = session.feed(b"<doc/>").unwrap();
        assert!(emitted.done);
        assert_eq!(emitted.output_bytes, 1);
        let report = session.finish().unwrap();
        assert_eq!(report.output_bytes, 1);
    }

    #[test]
    fn spillover_is_observable() {
        let q = CompiledQuery::compile("for $b in /a/b return $b").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<a><b att").unwrap(); // suspended mid-tag
        assert_eq!(session.max_pending_bytes(), 6, "`<b att` spills");
        session.feed(b"r=\"1\"/></a>").unwrap();
        let report = session.finish().unwrap();
        assert_eq!(report.max_pending_bytes, 6);
        assert_eq!(report.feed_calls, 2);
    }

    #[test]
    fn malformed_input_fails_like_the_blocking_engine() {
        let q = CompiledQuery::compile("for $b in /a/b return $b").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<a><b></b>").unwrap();
        // Truncated document: the error surfaces at finish.
        let err = session.finish().unwrap_err();
        assert!(matches!(err, EngineError::Xml(_)), "{err}");
    }

    #[test]
    fn take_output_never_duplicates_bytes_across_a_failed_sink() {
        use std::io::Write;

        /// Accepts `budget` bytes, then fails every write.
        struct Flaky {
            got: Vec<u8>,
            budget: usize,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    return Err(std::io::Error::other("sink broke"));
                }
                let n = buf.len().min(self.budget);
                self.got.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let q = CompiledQuery::compile("for $t in /b/t return $t").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<b><t>hello world</t></b>").unwrap();
        session.finish().unwrap();
        let want = session.output().to_vec();
        assert!(!want.is_empty());

        let mut sink = Flaky {
            got: Vec::new(),
            budget: 5,
        };
        assert!(session.take_output(&mut sink).is_err());
        // Retry on a healthy sink: the already-delivered prefix must not
        // be re-sent.
        let mut rest = Vec::new();
        session.take_output(&mut rest).unwrap();
        let mut combined = sink.got;
        combined.extend_from_slice(&rest);
        assert_eq!(combined, want);
    }

    #[test]
    fn feed_after_finish_is_an_error() {
        let q = CompiledQuery::compile("'x'").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(b"<doc/>").unwrap();
        session.finish().unwrap();
        assert!(session.feed(b"more").is_err());
    }

    #[test]
    fn buffer_budget_trips_mid_feed() {
        let q = CompiledQuery::compile("for $x in /a/b return $x").unwrap();
        // Full buffering accumulates every node, so the budget must trip.
        let opts = EngineOptions::full_buffering().with_max_buffer_bytes(64);
        let mut session = q.session(&opts);
        let mut doc = String::from("<a>");
        for i in 0..64 {
            doc.push_str(&format!("<b>payload payload {i}</b>"));
        }
        doc.push_str("</a>");
        let mut fed = doc.as_bytes().chunks(16).map(|piece| session.feed(piece));
        let first = fed.find_map(Result::err);
        let first = first.expect("the byte budget must trip during feeding");
        assert!(first.is_buffer_limit(), "{first}");
        // The session stays failed: every later feed, and the end of input,
        // report that the run failed — none is accepted, and none is a
        // second budget error.
        for later in fed {
            let err = later.expect_err("a failed session takes no more input");
            assert!(matches!(err, EngineError::Internal(_)), "{err}");
        }
        let err = session
            .finish()
            .expect_err("a failed session has no report");
        assert!(
            matches!(&err, EngineError::Internal(m) if m.contains("failed")),
            "{err}"
        );
    }

    #[test]
    fn a_session_fed_malformed_input_stays_failed() {
        let q = CompiledQuery::compile("for $b in /a/b return $b").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        let err = session.feed(b"<a><b>x</c>").expect_err("mismatched tag");
        assert!(
            matches!(&err, EngineError::Xml(e) if matches!(e.kind, XmlErrorKind::MismatchedTag { .. })),
            "{err}"
        );
        // The tokenizer stopped inside the document: going on would
        // report a garbled tag, or the stray end tag at the end.
        for more in [&b"</b></a>"[..], b""] {
            let err = session.feed(more).expect_err("failed before");
            assert!(matches!(err, EngineError::Internal(_)), "{err}");
        }
        let err = session.finish().expect_err("failed before");
        assert!(matches!(err, EngineError::Internal(_)), "{err}");
    }

    /// The structural tokens of `doc`, and those a matcher under `//item`
    /// must see: the tags of the items and of the elements that hold one.
    fn tokens_and_item_paths(doc: &str) -> (u64, u64) {
        let (mut all, mut needed) = (0u64, 0u64);
        // Per open element outside an item: whether it holds an item.
        let (mut open, mut in_item) = (Vec::new(), 0u32);
        let mut tok = gcx_xml::Tokenizer::from_str(doc);
        while let Some(token) = tok.next_token().unwrap() {
            all += u64::from(token.is_structural());
            match token {
                Token::StartTag(tag) if in_item > 0 => {
                    assert_ne!(tag.name, "item", "XMark nests no items");
                    in_item += u32::from(!tag.self_closing);
                }
                Token::StartTag(tag) if tag.name == "item" => {
                    needed += 1;
                    in_item += u32::from(!tag.self_closing);
                    open.iter_mut().for_each(|holds| *holds = true);
                }
                Token::StartTag(tag) if !tag.self_closing => open.push(false),
                Token::EndTag { .. } if in_item > 0 => {
                    in_item -= 1;
                    needed += u64::from(in_item == 0);
                }
                Token::EndTag { .. } => needed += 2 * u64::from(open.pop().unwrap()),
                _ => {}
            }
        }
        (all, needed)
    }

    /// Run `q` over `doc` in one session, with the bulk passes on or off;
    /// returns what the matcher saw, the output and the report.
    fn solo(q: &CompiledQuery, doc: &str, bulk: bool) -> (u64, Vec<u8>, RunReport) {
        let mut session = q.session(&EngineOptions::gcx());
        session.driver.pre.bulk = bulk;
        session.feed(doc.as_bytes()).unwrap();
        let report = session.finish().unwrap();
        let matched = session.driver.pre.matcher_tokens;
        (matched, session.output().to_vec(), report)
    }

    /// What a bulk pass may not change about a run: output, token count,
    /// peaks, appends and the schema's counters.
    fn assert_same_run(
        label: &str,
        got: &(u64, Vec<u8>, RunReport),
        want: &(u64, Vec<u8>, RunReport),
    ) {
        let ((_, out, got), (_, want_out, want)) = (got, want);
        assert!(out == want_out, "{label}: output");
        assert_eq!(got.tokens, want.tokens, "{label}: tokens");
        assert_eq!(got.buffer.peak_live, want.buffer.peak_live, "{label}: peak");
        assert_eq!(
            got.buffer.peak_live_bytes, want.buffer.peak_live_bytes,
            "{label}: peak bytes"
        );
        assert_eq!(
            got.buffer.allocated, want.buffer.allocated,
            "{label}: appends"
        );
        let counters = |r: &RunReport| {
            r.schema
                .as_ref()
                .map(|s| (s.early_scan_ends, s.early_signoffs, s.doctype_adopted))
        };
        assert_eq!(counters(got), counters(want), "{label}: schema counters");
    }

    #[test]
    fn a_search_shows_the_matcher_only_items_and_their_ancestors() {
        // XMark holds its items under regions/<continent>. Under `//item`
        // the matcher must see the tags of the items and of the elements
        // that hold one — and, with the search and the copy pass inside
        // each item, nothing else, where stepping showed it every token of
        // the document.
        let size = if cfg!(miri) { 8 * 1024 } else { 1 << 20 };
        let doc = gcx_xmark::generate_string(&gcx_xmark::XmarkConfig::sized(size));
        let (all, needed) = tokens_and_item_paths(&doc);
        let q = CompiledQuery::compile("for $i in //item return $i").unwrap();
        let mut session = q.session(&EngineOptions::gcx());
        session.feed(doc.as_bytes()).unwrap();
        session.finish().unwrap();
        assert_eq!(session.driver.pre.matcher_tokens, needed);
        assert!(needed < all / 2, "{needed} of {all} tokens");
        // A batch that adds `count(//item)`: the same search, and inside
        // each item a copy set of lane 0 that stops at `item` — a copy
        // pass in which lane 1, waiting for items, is shown nothing
        // either. Whole, and in 7-byte pieces (a pass left in flight at a
        // feed's end); and every token stepped.
        let batch = [q, CompiledQuery::compile("count(//item)").unwrap()];
        let drive = |chunk: usize, bulk: bool| {
            let mut session = BatchSession::new(&batch, &BatchOptions::default());
            session.driver.pre.bulk = bulk;
            for piece in doc.as_bytes().chunks(chunk) {
                session.feed(piece).unwrap();
            }
            // The root's end tag, the document's last token, is applied
            // by the feed that completes it.
            let matched = session.driver.pre.matcher_tokens;
            let report = session.finish().unwrap();
            let (mut outs, mut tokens) = (Vec::new(), Vec::new());
            for run in report.queries {
                let report = run.report.unwrap();
                assert_eq!(report.buffer.live, 0);
                outs.push(String::from_utf8(run.output).unwrap());
                tokens.push(report.tokens);
            }
            (matched, tokens, outs)
        };
        let (matched, tokens, outs) = drive(doc.len(), true);
        assert_eq!(matched, needed);
        // The lanes answer what they answer alone, and are charged what
        // stepping charges them.
        let mut alone = Vec::new();
        run(&batch[0], &EngineOptions::gcx(), doc.as_bytes(), &mut alone).unwrap();
        assert!(outs[0].as_bytes() == alone);
        assert_eq!(outs[1], doc.matches("<item ").count().to_string());
        let stepped = drive(doc.len(), false);
        assert_eq!(stepped.0, all);
        assert_eq!(tokens, stepped.1, "stepped");
        assert!(outs == stepped.2, "stepped");
        let pieces = drive(7, true);
        assert_eq!((pieces.0, &pieces.1), (matched, &tokens), "7-byte pieces");
        assert!(pieces.2 == outs, "7-byte pieces");
        // A document's own DOCTYPE turns neither pass off: the session
        // adopts its cutoffs, the matcher still sees only the items and
        // their ancestors, and the run is the one stepping makes.
        let config = gcx_xmark::XmarkConfig::sized(size).with_doctype();
        let doc = gcx_xmark::generate_string(&config);
        let (_, needed) = tokens_and_item_paths(&doc);
        let bulk = solo(&batch[0], &doc, true);
        assert_eq!(bulk.0, needed);
        let adopted = bulk.2.schema.as_ref().is_some_and(|s| s.doctype_adopted);
        assert!(adopted, "the DOCTYPE is adopted");
        assert_same_run("DOCTYPE", &bulk, &solo(&batch[0], &doc, false));
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn under_an_adopted_doctype_the_bulk_passes_change_nothing() {
        // The paper queries and two copy queries over a document with a
        // DOCTYPE: with the search and the copy pass on, every run is the
        // one stepping makes — output, peaks and the cutoffs' early ends
        // and signOffs (see `Preprojector::bulk_or_step`).
        let config = gcx_xmark::XmarkConfig::sized(256 * 1024).with_doctype();
        let doc = gcx_xmark::generate_string(&config);
        let copies = [
            (
                "COPY_AUCTIONS",
                "<all>{ for $a in /site/open_auctions/open_auction return $a }</all>",
            ),
            (
                "COPY_ITEMS",
                "<all>{ for $i in /site/regions//item return $i }</all>",
            ),
        ];
        for (name, text) in gcx_xmark::queries::paper_queries()
            .into_iter()
            .chain(copies)
        {
            let q = CompiledQuery::compile(text).unwrap();
            let bulk = solo(&q, &doc, true);
            assert!(
                bulk.2.schema.as_ref().is_some_and(|s| s.doctype_adopted),
                "{name}"
            );
            assert_same_run(name, &bulk, &solo(&q, &doc, false));
        }
    }

    #[test]
    fn buffer_budget_covers_role_less_open_elements() {
        // Under `//item` every open element is kept for what may lie below
        // it. None of these ever reaches the buffer, but a deep nest of
        // them is held all the same: the budget must stop it — though the
        // search passes them unseen. A pending element is charged its
        // 72-byte slot (not the attribute, which it does not keep), and the
        // run's table the one byte of `a`: 56 × 72 + 1 = 4033 fits, the
        // 57th open element crosses 4096.
        let q = CompiledQuery::compile("for $i in //item return $i").unwrap();
        let open = format!("<a x=\"{}\">", "v".repeat(1000));
        for opts in [EngineOptions::gcx(), EngineOptions::projection_only()] {
            let mut session = q.session(&opts.with_max_buffer_bytes(4096));
            let err = (1..=64)
                .find_map(|depth| session.feed(open.as_bytes()).err().map(|e| (depth, e)))
                .expect("64 open elements under a 4 KiB budget");
            assert_eq!(err.0, 57, "stopped at the element that crossed");
            assert!(err.1.is_buffer_limit(), "{}", err.1);
        }
    }
}
