//! Set-up: everything a workload needs before its timed section —
//! documents generated from the seed, queries compiled, expected outputs
//! from the independent DOM engine, and (for `server_loopback`) the
//! service started with its queries registered. `setup_s` times this.

use crate::drive;
use crate::spec::{Driver, Workload, MIB};
use crate::stats::{self, HashSink};
use gcx_core::{CompiledQuery, EngineOptions};
use gcx_server::client;
use gcx_xmark::XmarkConfig;
use std::time::Instant;

/// One query of a workload, compiled once.
pub struct Kind {
    pub name: &'static str,
    pub text: &'static str,
    pub q: CompiledQuery,
}

/// What an operation's output must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub hash: u64,
    pub len: u64,
}

impl Expect {
    pub fn of_sink(sink: &HashSink) -> Expect {
        Expect {
            hash: sink.digest(),
            len: sink.len(),
        }
    }

    pub fn of_bytes(bytes: &[u8]) -> Expect {
        Expect {
            hash: HashSink::of(bytes),
            len: bytes.len() as u64,
        }
    }
}

pub struct Setup {
    pub docs: Vec<Vec<u8>>,
    pub kinds: Vec<Kind>,
    /// `expect[doc][kind]`.
    pub expect: Vec<Vec<Expect>>,
    /// DOM heap high-water per `[doc][kind]`; 0 where the DOM engine ran
    /// on the small stand-in document instead (Q8).
    pub dom_heap: Vec<Vec<u64>>,
    /// Wall time of all DOM oracle runs of this set-up.
    pub dom_ms: f64,
    /// Set-up cross-checks that failed (they count as failed operations).
    pub oracle_failures: u64,
    pub server: Option<gcx_server::ServerHandle>,
    /// Wall time of this set-up, and the machine's speed factor around it
    /// (`stats::speed_factor`; reported times are divided by it).
    pub seconds: f64,
    pub speed: f64,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(handle) = self.server.take() {
            handle.shutdown();
        }
    }
}

/// The DOM engine evaluates the Q8 join as a nested loop: quadratic in the
/// document (41 s at 16 MiB). It is DOM-checked on a document of at most
/// this size from the same seed, and at full size against the generator's
/// entity counts.
const DOM_JOIN_LIMIT: u64 = MIB;

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn generate(target_bytes: u64, seed: u64) -> (Vec<u8>, XmarkConfig) {
    let mut cfg = XmarkConfig::sized(target_bytes);
    cfg.seed = seed;
    let mut doc = Vec::with_capacity(target_bytes as usize + (target_bytes as usize >> 3));
    gcx_xmark::generate(&cfg, &mut doc).expect("writing to a Vec cannot fail");
    (doc, cfg)
}

fn count(hay: &[u8], needle: &[u8]) -> u64 {
    hay.windows(needle.len()).filter(|w| w == &needle).count() as u64
}

/// Expected output of `kind` over `doc` from the DOM engine, which
/// interprets the normalised AST (not the lowered program the streaming
/// engine runs). Returns the DOM run's heap high-water as well.
fn dom_expect(kind: &Kind, doc: &[u8]) -> Result<(Expect, u64), String> {
    let mut sink = HashSink::default();
    let live = gcx_memtrack::live_bytes();
    gcx_memtrack::reset_peak();
    gcx_dom::run(&kind.q.query, doc, &mut sink).map_err(|e| format!("dom {}: {e}", kind.name))?;
    let heap = gcx_memtrack::peak_bytes().saturating_sub(live);
    Ok((Expect::of_sink(&sink), heap))
}

impl Setup {
    /// Build the inputs of `w` for `seed`. `Err` means the benchmark
    /// itself is broken (a query does not compile, the server does not
    /// start); a wrong *output* is counted, not raised.
    pub fn build(w: &Workload, seed: u64, smoke: bool) -> Result<Setup, String> {
        let speed_before = stats::speed_factor();
        let started = Instant::now();
        let doc_bytes = if smoke { w.smoke_bytes } else { w.doc_bytes };

        // Document i of every workload comes from `seed * 1000 + i`: the
        // four single-document workloads see the same bytes.
        let mut docs = Vec::with_capacity(w.docs);
        let mut cfgs = Vec::with_capacity(w.docs);
        for i in 0..w.docs {
            let (doc, cfg) = generate(doc_bytes, seed.wrapping_mul(1000).wrapping_add(i as u64));
            docs.push(doc);
            cfgs.push(cfg);
        }

        let mut kinds = Vec::new();
        for (name, text) in (w.queries)() {
            let q = CompiledQuery::compile(text).map_err(|e| format!("{name}: {e}"))?;
            kinds.push(Kind { name, text, q });
        }

        let mut expect = Vec::with_capacity(docs.len());
        let mut dom_heap = Vec::with_capacity(docs.len());
        let mut dom_ms = 0.0;
        let mut oracle_failures = 0;
        for (doc, cfg) in docs.iter().zip(&cfgs) {
            let mut row = Vec::with_capacity(kinds.len());
            let mut heaps = Vec::with_capacity(kinds.len());
            for kind in &kinds {
                let t0 = Instant::now();
                if kind.name == "Q8" && doc_bytes > DOM_JOIN_LIMIT {
                    let (small, _) = generate(DOM_JOIN_LIMIT, cfg.seed);
                    let (want, _) = dom_expect(kind, &small)?;
                    dom_ms += t0.elapsed().as_secs_f64() * 1e3;
                    let opts = EngineOptions::gcx();
                    let got = drive::session_bytes(&kind.q, &opts, &small);
                    if got.as_deref().map(Expect::of_bytes) != Ok(want) {
                        oracle_failures += 1;
                    }
                    // Full size: one <items> per person, and every closed
                    // auction's <itemref> under exactly one buyer.
                    let full = drive::session_bytes(&kind.q, &opts, doc).unwrap_or_default();
                    let counts = cfg.counts();
                    if count(&full, b"<items>") != counts.persons
                        || count(&full, b"<itemref") != counts.closed_auctions
                    {
                        oracle_failures += 1;
                    }
                    row.push(Expect::of_bytes(&full));
                    heaps.push(0);
                } else {
                    let (want, heap) = dom_expect(kind, doc)?;
                    dom_ms += t0.elapsed().as_secs_f64() * 1e3;
                    row.push(want);
                    heaps.push(heap);
                }
            }
            expect.push(row);
            dom_heap.push(heaps);
        }

        // From here on `Drop` stops the server, also on the error paths.
        let mut setup = Setup {
            docs,
            kinds,
            expect,
            dom_heap,
            dom_ms,
            oracle_failures,
            server: None,
            seconds: 0.0,
            speed: 1.0,
        };
        if w.driver == Driver::Server {
            let n = threads();
            let handle = gcx_server::serve(gcx_server::ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: n,
                queue_depth: 2 * n,
                ..gcx_server::ServerConfig::default()
            })
            .map_err(|e| format!("cannot start server: {e}"))?;
            let addr = handle.addr();
            setup.server = Some(handle);
            for kind in &setup.kinds {
                let r = client::put_query(addr, kind.name, kind.text)
                    .map_err(|e| format!("registering {}: {e}", kind.name))?;
                if r.status != 201 {
                    return Err(format!("registering {}: status {}", kind.name, r.status));
                }
            }
        }
        setup.seconds = started.elapsed().as_secs_f64();
        setup.speed = (speed_before + stats::speed_factor()) / 2.0;
        Ok(setup)
    }
}
