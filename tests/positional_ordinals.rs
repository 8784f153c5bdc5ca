//! Positional steps read sibling ordinals, which a buffer keeps only when
//! its program has such a step (at the head of each node's payload):
//!
//! * `name[k]`, `*[k]`, `text()[k]` and `node()[k]` equal the DOM oracle
//!   at chunkings 1, 7 and the whole input, over documents whose earlier
//!   siblings the projection drops;
//! * under full buffering, which holds every node whatever the query, a
//!   positional program's byte peak is a plain one's plus 12 bytes of
//!   ordinals per node;
//! * a batch that mixes positional and plain lanes gives each lane its
//!   stand-alone output and buffer.
//!
//! (`node()` and `node()[k]` also hold the projection to its text
//! children: a text child completes a `node()` step that only the copy's
//! `descendant-or-self::node()` follows.)

mod common;

use common::xmark;
use gcx::core::batch::{BatchOptions, BatchSession};
use gcx::xmark::queries;
use gcx::{CompiledQuery, EngineOptions, RunReport};

/// `(name, query, positional)`.
const QUERIES: [(&str, &str, bool); 8] = [
    ("name[k]", "for $a in /r/a return <x>{ $a/b[2] }</x>", true),
    ("*[k]", "for $a in /r/a return <x>{ $a/*[3] }</x>", true),
    (
        "text()[k]",
        "for $a in /r/a return <x>{ $a/text()[2] }</x>",
        true,
    ),
    (
        "node()[k]",
        "for $a in /r/a return <x>{ $a/node()[4] }</x>",
        true,
    ),
    ("Q2", queries::extra::Q2, true),
    ("plain", "for $a in /r/a return <x>{ $a/b }</x>", false),
    ("Q1", queries::Q1, false),
    (
        "node()",
        "for $a in /r/a return <x>{ $a/node() }</x>",
        false,
    ),
];

/// Siblings of every kind before the k-th, some of them projected away.
fn documents() -> Vec<String> {
    let mut docs: Vec<String> = [
        "<r><a>t1<b>1</b><c k='v'/>t2<b>2</b><skip>s</skip>t3<b>3</b></a>\
         <a><c>only</c>u<b>x</b><!-- c --><b>y</b>v</a><a/><a>w</a></r>",
        "<r><a><z/><z/><b>one</b>p<z/>q<b>two</b><b>three</b></a></r>",
    ]
    .map(String::from)
    .to_vec();
    docs.push(xmark(32, 4242));
    docs
}

fn fed(q: &CompiledQuery, opts: &EngineOptions, doc: &[u8], chunk: usize) -> (Vec<u8>, RunReport) {
    let mut session = q.session(opts);
    for piece in doc.chunks(chunk) {
        session.feed(piece).expect("feed");
    }
    let report = session.finish().expect("finish");
    let mut out = Vec::new();
    session.take_output(&mut out).expect("drain");
    (out, report)
}

fn buffer(r: &RunReport) -> (u64, u64, u64, u64) {
    (
        r.buffer.allocated,
        r.buffer.purged,
        r.buffer.peak_live,
        r.buffer.peak_live_bytes,
    )
}

#[test]
fn positional_steps_equal_the_oracle_at_every_chunking() {
    for (d, doc) in documents().iter().enumerate() {
        let bytes = doc.as_bytes();
        for (name, text, positional) in QUERIES {
            let q = CompiledQuery::compile(text).expect(name);
            assert_eq!(q.program.positional(), positional, "{name}");
            let want = gcx::dom::run_query(text, doc).expect("oracle");
            for chunk in [1, 7, bytes.len()] {
                let (out, report) = fed(&q, &EngineOptions::gcx(), bytes, chunk);
                assert_eq!(
                    String::from_utf8_lossy(&out),
                    want,
                    "{name} on document {d}, chunks of {chunk}"
                );
                assert_eq!(report.buffer.live, 0, "{name} on document {d}");
            }
        }
    }
}

#[test]
fn only_a_positional_program_pays_for_ordinals() {
    let full = EngineOptions::full_buffering();
    for (d, doc) in documents().iter().enumerate() {
        let bytes = doc.as_bytes();
        let plain = CompiledQuery::compile(QUERIES[5].1).unwrap();
        let (_, base) = fed(&plain, &full, bytes, bytes.len());
        for (name, text, positional) in QUERIES {
            let q = CompiledQuery::compile(text).unwrap();
            let (_, r) = fed(&q, &full, bytes, bytes.len());
            let nodes = r.buffer.peak_live;
            assert_eq!(nodes, base.buffer.peak_live, "{name} on document {d}");
            let ordinals = if positional { 12 * nodes } else { 0 };
            assert_eq!(
                r.buffer.peak_live_bytes,
                base.buffer.peak_live_bytes + ordinals,
                "{name} on document {d}"
            );
        }
    }
}

#[test]
fn a_mixed_batch_gives_each_lane_its_stand_alone_run() {
    let compiled: Vec<CompiledQuery> = QUERIES
        .iter()
        .map(|&(name, text, _)| CompiledQuery::compile(text).expect(name))
        .collect();
    for (d, doc) in documents().iter().enumerate() {
        let bytes = doc.as_bytes();
        let alone: Vec<(Vec<u8>, RunReport)> = compiled
            .iter()
            .map(|q| fed(q, &EngineOptions::gcx(), bytes, bytes.len()))
            .collect();
        for chunk in [7, bytes.len()] {
            let mut session = BatchSession::new(&compiled, &BatchOptions::default());
            for piece in bytes.chunks(chunk) {
                session.feed(piece).expect("batch feed");
            }
            let report = session.finish().expect("batch");
            for (((name, ..), lane), (out, alone)) in QUERIES.iter().zip(report.queries).zip(&alone)
            {
                let label = format!("{name} on document {d} as a lane, chunks of {chunk}");
                assert_eq!(&lane.output, out, "{label}");
                let lane = lane.report.expect("lane report");
                assert_eq!(buffer(&lane), buffer(alone), "{label}");
            }
        }
    }
}
