//! One compiled query, many sessions: what the query keeps from one
//! session for the next — the projection automaton's memoised transitions
//! and the plan of the schema last attached — must be invisible in every
//! output and every count, whether the sessions run one after the other
//! or at the same time on two threads.

use gcx::schema::Dtd;
use gcx::xmark::{generate_string, queries, XmarkConfig};
use gcx::{CompiledQuery, EngineOptions, RunReport};
use std::sync::{Arc, Barrier};

/// What a caller can observe of one run.
#[derive(Debug, PartialEq)]
struct Observed {
    output: Vec<u8>,
    counts: [u64; 8],
    reach_cuts: Option<u64>,
}

fn observe(q: &CompiledQuery, opts: &EngineOptions, doc: &str) -> Observed {
    let mut output = Vec::new();
    let report: RunReport = gcx::run(q, opts, doc.as_bytes(), &mut output).expect("run");
    Observed {
        output,
        counts: [
            report.tokens,
            report.output_bytes,
            report.buffer.allocated,
            report.buffer.purged,
            report.buffer.live,
            report.buffer.peak_live,
            report.buffer.peak_live_bytes,
            report.schema.as_ref().map_or(0, |s| s.early_signoffs),
        ],
        reach_cuts: report.schema.map(|s| s.reach_cuts),
    }
}

#[test]
fn two_threads_sharing_a_compiled_query_see_what_a_cold_query_sees() {
    // Documents with different vocabularies in different orders (the
    // generator's regions and categories vary with the seed and the
    // size), so the run-local symbols of one session mean other names in
    // the next.
    let docs: Vec<String> = [(11, 8), (12, 24), (13, 8), (14, 48), (15, 16), (16, 8)]
        .iter()
        .map(|&(seed, kib)| {
            generate_string(&XmarkConfig {
                seed,
                ..XmarkConfig::sized(kib * 1024)
            })
        })
        .collect();
    let blind = EngineOptions::gcx();
    let schema = EngineOptions::gcx().with_schema(Dtd::xmark());
    // A second DTD object with the same content: attaching it replaces
    // the query's schema plan, mid-flight for the other thread.
    let other = EngineOptions::gcx().with_schema(Arc::new((*Dtd::xmark()).clone()));
    for (name, text) in queries::paper_queries() {
        // The reference: every run on a query compiled for it alone.
        let cold = |opts: &EngineOptions, doc: &str| {
            observe(&CompiledQuery::compile(text).unwrap(), opts, doc)
        };
        let want: Vec<[Observed; 2]> = docs
            .iter()
            .map(|doc| [cold(&blind, doc), cold(&schema, doc)])
            .collect();
        let shared = CompiledQuery::compile(text).unwrap();
        // One after the other: every session but the first starts warm.
        for (doc, want) in docs.iter().zip(&want) {
            assert_eq!(observe(&shared, &blind, doc), want[0], "{name}, serial");
            assert_eq!(observe(&shared, &schema, doc), want[1], "{name}, serial");
        }
        // At the same time, on a query nobody has run yet: both threads
        // start cold, learn, and offer what they learnt; each round
        // starts on a barrier so that the sessions overlap.
        let shared = CompiledQuery::compile(text).unwrap();
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for thread in 0..2 {
                let (shared, barrier, docs, want) = (&shared, &barrier, &docs, &want);
                let (blind, schema, other) = (&blind, &schema, &other);
                scope.spawn(move || {
                    for round in 0..docs.len() {
                        // The threads walk the documents in opposite
                        // directions.
                        let d = if thread == 0 {
                            round
                        } else {
                            docs.len() - 1 - round
                        };
                        let with_dtd = if (round + thread) % 2 == 0 {
                            schema
                        } else {
                            other
                        };
                        barrier.wait();
                        let got = observe(shared, blind, &docs[d]);
                        assert_eq!(got, want[d][0], "{name}, thread {thread}");
                        let got = observe(shared, with_dtd, &docs[d]);
                        assert_eq!(got, want[d][1], "{name}, thread {thread}");
                    }
                });
            }
        });
    }
}
