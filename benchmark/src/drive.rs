//! The timed section: how each workload's operations are driven, checked
//! and accounted. One *operation* is one query evaluated over one
//! document (or one HTTP request); one *round* is every (document, query)
//! pair of the workload once. Rounds repeat until `--seconds` have passed.
//!
//! Every time recorded here is divided by the machine's speed factor
//! measured right beside it (`stats::speed_factor`), so it reads as the
//! time on the quiet reference box.

use crate::inputs::{threads, Expect, Setup};
use crate::spec::{Driver, Workload, MIB};
use crate::stats::{self, HashSink};
use crate::trace::{SpanId, Trace, NO_SPAN};
use gcx_core::{CompiledQuery, EngineError, EngineOptions, RunReport};
use gcx_par::{ParOptions, ShardPath};
use gcx_server::client::{self, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sessions are fed in chunks of this size — what `gcx_core::run` does.
pub const CHUNK: usize = 64 * 1024;

/// Evaluate `q` over `doc` through a fresh session, draining output into
/// `sink` after every feed. Returns the run report and the number of
/// input bytes that had been fed when output was first pending.
pub fn run_session<W: Write>(
    q: &CompiledQuery,
    opts: &EngineOptions,
    doc: &[u8],
    sink: &mut W,
    trace: &mut Trace,
    parent: SpanId,
    op: u32,
) -> Result<(RunReport, u64), EngineError> {
    let mut session = q.session(opts);
    let mut fed = 0u64;
    let mut first_output = None;
    for chunk in doc.chunks(CHUNK) {
        let span = trace.open("core.feed", parent, op);
        let emitted = session.feed(chunk)?;
        fed += chunk.len() as u64;
        if first_output.is_none() && emitted.output_bytes > 0 {
            first_output = Some(fed);
        }
        session.take_output(sink)?;
        trace.close(span);
    }
    let report = session.finish()?;
    session.take_output(sink)?;
    Ok((report, first_output.unwrap_or(fed)))
}

/// [`run_session`] collecting the output bytes.
pub fn session_bytes(
    q: &CompiledQuery,
    opts: &EngineOptions,
    doc: &[u8],
) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    run_session(q, opts, doc, &mut out, &mut Trace::off(), NO_SPAN, 0)
        .map_err(|e| e.to_string())?;
    Ok(out)
}

/// When each phase of one request ended, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct RequestTimes {
    pub start: Instant,
    pub connected: Instant,
    pub uploaded: Instant,
    pub first_byte: Instant,
    pub end: Instant,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// `POST /eval/{name}` on a fresh connection, timing the client-side
/// phases. The body is written from a scoped thread while the response is
/// read here, because the service streams its result while the document
/// is still arriving. The reply is parsed by the repository's own
/// `client::read_response`.
pub fn post_eval(
    addr: SocketAddr,
    name: &str,
    doc: &[u8],
    chunked: bool,
) -> io::Result<(Response, RequestTimes)> {
    let start = Instant::now();
    let mut reader = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    reader.set_nodelay(true)?;
    reader.set_read_timeout(Some(Duration::from_secs(120)))?;
    let mut writer = reader.try_clone()?;
    let connected = Instant::now();
    let framing = if chunked {
        "Transfer-Encoding: chunked".to_string()
    } else {
        format!("Content-Length: {}", doc.len())
    };
    let head = format!(
        "POST /eval/{name} HTTP/1.1\r\nHost: gcx\r\n{framing}\r\nConnection: close\r\n\r\n"
    );

    std::thread::scope(|scope| {
        let send = scope.spawn(move || -> io::Result<Instant> {
            writer.write_all(head.as_bytes())?;
            if chunked {
                for piece in doc.chunks(256 * 1024) {
                    write!(writer, "{:x}\r\n", piece.len())?;
                    writer.write_all(piece)?;
                    writer.write_all(b"\r\n")?;
                }
                writer.write_all(b"0\r\n\r\n")?;
            } else {
                writer.write_all(doc)?;
            }
            writer.flush()?;
            Ok(Instant::now())
        });
        let mut raw = vec![0u8; CHUNK];
        let n = reader.read(&mut raw);
        let first_byte = Instant::now();
        let read = n.and_then(|n| {
            raw.truncate(n);
            reader.read_to_end(&mut raw)
        });
        let end = Instant::now();
        // An early rejection arrives while the body is still in flight and
        // kills the sender with a broken pipe: the response still counts.
        let uploaded = send.join().expect("sender panicked").unwrap_or(end);
        read?;
        let response = client::read_response(&mut &raw[..])?;
        Ok((
            response,
            RequestTimes {
                start,
                connected,
                uploaded,
                first_byte,
                end,
            },
        ))
    })
}

/// What a timed section observed.
#[derive(Default)]
pub struct Acc {
    /// `(kind, milliseconds)` per operation.
    pub samples: Vec<(u32, f64)>,
    /// Seconds of each complete round.
    pub rounds: Vec<f64>,
    /// The speed factors measured beside the operations.
    pub pacer: stats::Pacer,
    pub attempted: u64,
    pub failed: u64,
    /// Input bytes consumed by all operations.
    pub bytes: u64,
    /// Heap high-water of one operation minus the live bytes at its start
    /// (so the harness's own document copy is excluded), per query. The
    /// server's requests overlap, so it has one entry for the whole section.
    pub peak_heap: Vec<u64>,
    pub peak_buffer: u64,
    first_output_pct_sum: f64,
    first_output_n: u64,
    /// `run_batch`: per-query events of the last batch and its share factor.
    pub fanout_events: u64,
    pub share_factor: f64,
    /// `run_parallel`, summed over one round: shards, queries that ran
    /// sharded, and the worst max/mean shard token ratio.
    pub par_shards: u64,
    pub par_sharded: u64,
    pub par_skew: f64,
    /// Client-side phases per request: connect, upload, first byte
    /// (from connect), download (from first byte); milliseconds.
    pub phases: Vec<[f64; 4]>,
    /// Requests answered with another status than 200.
    pub rejected: u64,
}

impl Acc {
    /// Divide every recorded time by `speed`.
    fn rescale(&mut self, speed: f64) {
        self.samples.iter_mut().for_each(|s| s.1 /= speed);
        self.rounds.iter_mut().for_each(|r| *r /= speed);
        self.phases.iter_mut().flatten().for_each(|p| *p /= speed);
        self.pacer.readings.push(speed);
    }

    fn check(&mut self, got: Expect, want: Expect) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
        }
    }

    fn error(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    fn heap(&mut self, kind: usize, live_before: u64) {
        if self.peak_heap.len() <= kind {
            self.peak_heap.resize(kind + 1, 0);
        }
        let peak = gcx_memtrack::peak_bytes().saturating_sub(live_before);
        self.peak_heap[kind] = self.peak_heap[kind].max(peak);
    }

    fn first_output(&mut self, pct: f64) {
        self.first_output_pct_sum += pct;
        self.first_output_n += 1;
    }

    /// Fold in what another closed-loop client, or a later slice of the
    /// same section, observed: counts add up, samples pool, peaks take the
    /// maximum, and the per-call facts of `run_batch` / `run_parallel`
    /// keep their latest reading.
    pub fn merge(&mut self, other: Acc) {
        self.samples.extend(other.samples);
        self.rounds.extend(other.rounds);
        self.pacer.readings.extend(other.pacer.readings);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bytes += other.bytes;
        if self.peak_heap.len() < other.peak_heap.len() {
            self.peak_heap.resize(other.peak_heap.len(), 0);
        }
        for (mine, theirs) in self.peak_heap.iter_mut().zip(&other.peak_heap) {
            *mine = (*mine).max(*theirs);
        }
        self.peak_buffer = self.peak_buffer.max(other.peak_buffer);
        self.first_output_pct_sum += other.first_output_pct_sum;
        self.first_output_n += other.first_output_n;
        if other.share_factor > 0.0 {
            self.fanout_events = other.fanout_events;
            self.share_factor = other.share_factor;
        }
        if other.par_shards > 0 {
            self.par_shards = other.par_shards;
            self.par_sharded = other.par_sharded;
        }
        self.par_skew = self.par_skew.max(other.par_skew);
        self.phases.extend(other.phases);
        self.rejected += other.rejected;
    }

    /// Median operation time per query, in the workload's query order
    /// (0.0 for a query that produced no sample).
    pub fn kind_medians(&self, kinds: usize) -> Vec<f64> {
        (0..kinds as u32)
            .map(|k| {
                let v: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.0 == k)
                    .map(|s| s.1)
                    .collect();
                stats::median(&v)
            })
            .collect()
    }

    pub fn first_output_pct(&self) -> f64 {
        if self.first_output_n == 0 {
            100.0
        } else {
            self.first_output_pct_sum / self.first_output_n as f64
        }
    }
}

/// A measured section with its clock readings.
#[derive(Default)]
pub struct Section {
    pub acc: Acc,
    /// Wall time of the section, as the clock read it.
    pub wall_s: f64,
    /// Process CPU time at the reference box's speed, and as read.
    pub cpu_ms: f64,
    pub raw_cpu_ms: f64,
}

impl Section {
    /// Median speed factor over the section (1.0 = quiet reference box).
    pub fn speed(&self) -> f64 {
        self.acc.pacer.median()
    }

    /// Append a later slice of the same section.
    pub fn merge(&mut self, other: Section) {
        self.acc.merge(other.acc);
        self.wall_s += other.wall_s;
        self.cpu_ms += other.cpu_ms;
        self.raw_cpu_ms += other.raw_cpu_ms;
    }
}

/// The end-to-end figures of one section.
pub struct EndToEnd {
    pub throughput_mb_s: f64,
    pub ops_per_s: f64,
    pub op_ms_p50: f64,
    pub op_ms_p95: f64,
    /// The percentile `op_ms_p95` actually stands at (95 from 200 samples).
    pub tail_percentile: f64,
    pub peak_heap_mb: f64,
    pub peak_buffer_kb: f64,
    pub first_output_pct: f64,
    pub cpu_ms_per_mb: f64,
}

pub struct Bench<'a> {
    pub w: &'a Workload,
    pub setup: &'a Setup,
    /// The workload's queries as the slice `run_batch` takes.
    batch: Vec<CompiledQuery>,
}

impl<'a> Bench<'a> {
    pub fn new(w: &'a Workload, setup: &'a Setup) -> Bench<'a> {
        Bench {
            w,
            setup,
            batch: setup.kinds.iter().map(|k| k.q.clone()).collect(),
        }
    }

    /// Closed-loop load sources: `nproc` clients against the server, one
    /// caller everywhere else.
    pub fn clients(&self) -> usize {
        match self.w.driver {
            Driver::Server => threads(),
            _ => 1,
        }
    }

    /// Threads handed to `run_parallel`.
    pub fn par_threads() -> usize {
        threads().min(4)
    }

    /// Operations per round, per client.
    pub fn round_ops(&self) -> u64 {
        (self.setup.docs.len() * self.setup.kinds.len()) as u64
    }

    /// Input bytes one round consumes, per client. A batch reads its
    /// document once for all queries; every other driver once per query.
    pub fn round_bytes(&self) -> u64 {
        let docs: u64 = self.setup.docs.iter().map(|d| d.len() as u64).sum();
        match self.w.driver {
            Driver::Batch => docs,
            _ => docs * self.setup.kinds.len() as u64,
        }
    }

    /// Run rounds for `seconds` (at least one round) and account them.
    pub fn run_for(&self, seconds: f64, trace: &mut Trace) -> Section {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let mut acc = Acc::default();
        // CPU time comes in 10 ms ticks, too coarse to read beside every
        // operation: it is read in slices of about a second, each divided
        // by the median speed factor of that slice.
        let (mut cpu_ms, mut raw_cpu_ms) = (0.0, 0.0);
        let mut slice = (started, stats::process_cpu_ms(), 0);
        loop {
            if self.w.driver == Driver::Server {
                // Requests overlap, so the speed factor is taken around a
                // slice instead of beside each operation.
                let before = stats::speed_factor();
                let slice_end = deadline.min(Instant::now() + Duration::from_secs(1));
                let mut served = self.serve_clients(slice_end, trace);
                served.rescale((before + stats::speed_factor()) / 2.0);
                acc.merge(served);
            } else {
                let round_ms = self.round(&mut acc, trace);
                acc.rounds.push(round_ms / 1e3);
            }
            let done = Instant::now() >= deadline;
            if done || slice.0.elapsed() >= Duration::from_secs(1) {
                let cpu_now = stats::process_cpu_ms();
                let readings = &acc.pacer.readings[slice.2..];
                let speed = if readings.is_empty() {
                    acc.pacer.median()
                } else {
                    stats::median(readings)
                };
                raw_cpu_ms += cpu_now - slice.1;
                cpu_ms += (cpu_now - slice.1) / speed;
                slice = (Instant::now(), cpu_now, acc.pacer.readings.len());
            }
            if done {
                break;
            }
        }
        Section {
            acc,
            wall_s: started.elapsed().as_secs_f64(),
            cpu_ms,
            raw_cpu_ms,
        }
    }

    /// One round of a single-caller driver; returns the sum of its
    /// operation times in milliseconds.
    fn round(&self, acc: &mut Acc, trace: &mut Trace) -> f64 {
        let Setup {
            docs,
            kinds,
            expect,
            ..
        } = self.setup;
        let opts = EngineOptions::gcx();
        acc.par_shards = 0;
        acc.par_sharded = 0;
        let mut round_ms = 0.0;
        for (doc, want) in docs.iter().zip(expect) {
            if self.w.driver == Driver::Batch {
                round_ms += self.batch_op(acc, doc, want, trace);
                continue;
            }
            for (k, kind) in kinds.iter().enumerate() {
                let op = acc.attempted as u32;
                let speed = acc.pacer.speed();
                let live = gcx_memtrack::live_bytes();
                gcx_memtrack::reset_peak();
                let t0 = Instant::now();
                let outcome = if self.w.driver == Driver::Par {
                    let span = trace.open("par.run_parallel", NO_SPAN, op);
                    let par = ParOptions::with_threads(Self::par_threads());
                    let r = gcx_par::run_parallel(&kind.q, &opts, &par, doc);
                    trace.close(span);
                    r.map(|o| {
                        acc.par_shards += o.shards as u64;
                        if o.path != ShardPath::Serial {
                            acc.par_sharded += 1;
                        }
                        let tokens: Vec<f64> =
                            o.shard_reports.iter().map(|r| r.tokens as f64).collect();
                        if let Some(max) = tokens.iter().copied().reduce(f64::max) {
                            let mean = tokens.iter().sum::<f64>() / tokens.len() as f64;
                            acc.par_skew = acc.par_skew.max(max / mean.max(1.0));
                        }
                        (Expect::of_bytes(&o.output), o.report, 100.0)
                    })
                } else {
                    let span = trace.open("core.session", NO_SPAN, op);
                    let mut sink = HashSink::default();
                    let r = run_session(&kind.q, &opts, doc, &mut sink, trace, span, op);
                    trace.close(span);
                    r.map(|(report, first)| {
                        let pct = 100.0 * first as f64 / doc.len() as f64;
                        (Expect::of_sink(&sink), report, pct)
                    })
                };
                let op_ms = t0.elapsed().as_secs_f64() * 1e3 / speed;
                acc.heap(k, live);
                acc.samples.push((k as u32, op_ms));
                round_ms += op_ms;
                acc.bytes += doc.len() as u64;
                match outcome {
                    Ok((got, report, first_pct)) => {
                        acc.check(got, want[k]);
                        acc.peak_buffer = acc.peak_buffer.max(report.buffer.peak_live_bytes);
                        acc.first_output(first_pct);
                    }
                    Err(_) => acc.error(),
                }
            }
        }
        round_ms
    }

    /// One `run_batch` call: as many operations as the batch has queries,
    /// each accounted the batch's time divided by their number. Returns
    /// the call's time in milliseconds.
    fn batch_op(&self, acc: &mut Acc, doc: &[u8], want: &[Expect], trace: &mut Trace) -> f64 {
        let queries = &self.batch;
        let op = acc.attempted as u32;
        let speed = acc.pacer.speed();
        let live = gcx_memtrack::live_bytes();
        gcx_memtrack::reset_peak();
        let t0 = Instant::now();
        let span = trace.open("multi.run_batch", NO_SPAN, op);
        let result = gcx_multi::run_batch(queries, doc);
        trace.close(span);
        let batch_ms = t0.elapsed().as_secs_f64() * 1e3 / speed;
        let each_ms = batch_ms / queries.len() as f64;
        acc.heap(0, live);
        acc.bytes += doc.len() as u64;
        acc.first_output(100.0);
        // One sample per call: the queries of a batch are not independent.
        acc.samples.push((0, each_ms));
        match result {
            Ok(batch) => {
                acc.fanout_events = batch.fanout_events;
                acc.share_factor = batch.share_factor();
                for (run, want) in batch.queries.iter().zip(want) {
                    match &run.report {
                        Ok(report) => {
                            acc.check(Expect::of_bytes(&run.output), *want);
                            acc.peak_buffer = acc.peak_buffer.max(report.buffer.peak_live_bytes);
                        }
                        Err(_) => acc.error(),
                    }
                }
            }
            Err(_) => want.iter().for_each(|_| acc.error()),
        }
        batch_ms
    }

    /// `nproc` closed-loop clients: each sends its next request when the
    /// previous reply is complete, walking all (document, query) pairs
    /// from its own starting offset, until the deadline.
    fn serve_clients(&self, deadline: Instant, trace: &mut Trace) -> Acc {
        let addr = self
            .setup
            .server
            .as_ref()
            .expect("server workload has a server")
            .addr();
        let clients = self.clients();
        let pairs: Vec<(usize, usize)> = (0..self.setup.docs.len())
            .flat_map(|d| (0..self.setup.kinds.len()).map(move |k| (d, k)))
            .collect();
        let live = gcx_memtrack::live_bytes();
        gcx_memtrack::reset_peak();
        let results: Vec<(Acc, Trace)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let pairs = &pairs;
                    let mut trace = trace.fork(c as u32 + 1);
                    scope.spawn(move || {
                        let mut acc = Acc::default();
                        let offset = c * pairs.len() / clients;
                        loop {
                            let t0 = Instant::now();
                            for i in 0..pairs.len() {
                                if Instant::now() >= deadline && !acc.rounds.is_empty() {
                                    return (acc, trace);
                                }
                                let (d, k) = pairs[(i + offset) % pairs.len()];
                                self.request(addr, d, k, (i + c) % 2 == 1, &mut acc, &mut trace);
                            }
                            acc.rounds.push(t0.elapsed().as_secs_f64());
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect()
        });
        let mut acc = Acc::default();
        for (client, client_trace) in results {
            acc.merge(client);
            trace.absorb(client_trace);
        }
        acc.heap(0, live);
        acc
    }

    fn request(
        &self,
        addr: SocketAddr,
        d: usize,
        k: usize,
        chunked: bool,
        acc: &mut Acc,
        trace: &mut Trace,
    ) {
        let doc = &self.setup.docs[d];
        let result = post_eval(addr, self.setup.kinds[k].name, doc, chunked);
        acc.bytes += doc.len() as u64;
        acc.first_output(100.0);
        let Ok((response, t)) = result else {
            acc.samples.push((k as u32, 0.0));
            return acc.error();
        };
        acc.samples.push((k as u32, ms(t.start, t.end)));
        acc.phases.push([
            ms(t.start, t.connected),
            ms(t.connected, t.uploaded),
            ms(t.connected, t.first_byte),
            ms(t.first_byte, t.end),
        ]);
        let op = acc.attempted as u32;
        let parent = trace.record("server.request", NO_SPAN, op, t.start, t.end);
        trace.record("server.connect", parent, op, t.start, t.connected);
        // The upload runs on the sender thread beside the other phases, so
        // it is not a child that tiles the request.
        trace.record("server.upload", NO_SPAN, op, t.connected, t.uploaded);
        trace.record("server.first_byte", parent, op, t.connected, t.first_byte);
        trace.record("server.download", parent, op, t.first_byte, t.end);
        if response.status != 200 {
            acc.rejected += 1;
            return acc.error();
        }
        acc.check(Expect::of_bytes(&response.body), self.setup.expect[d][k]);
        acc.peak_buffer = acc
            .peak_buffer
            .max(response.trailer_u64("x-gcx-peak-buffer-bytes").unwrap_or(0));
    }

    /// Turn a section into the end-to-end metrics. Throughput and
    /// operation rate come from the *median* round (times the number of
    /// closed-loop clients, each of which completes its own rounds), so
    /// one stalled round does not move them. A round of a single caller
    /// is the sum of its operation times; a round of a server client is
    /// its wall time.
    pub fn end_to_end(&self, s: &Section) -> EndToEnd {
        let acc = &s.acc;
        let round_s = stats::median(&acc.rounds).max(1e-9);
        let clients = self.clients() as f64;
        let medians: Vec<f64> = acc
            .kind_medians(self.setup.kinds.len())
            .into_iter()
            .filter(|m| *m > 0.0)
            .collect();
        let all: Vec<f64> = acc.samples.iter().map(|s| s.1).collect();
        let (tail, tail_percentile) = stats::tail(&all);
        let mib = acc.bytes as f64 / MIB as f64;
        EndToEnd {
            throughput_mb_s: clients * self.round_bytes() as f64 / MIB as f64 / round_s,
            ops_per_s: clients * self.round_ops() as f64 / round_s,
            op_ms_p50: medians.iter().sum::<f64>() / medians.len().max(1) as f64,
            op_ms_p95: tail,
            tail_percentile,
            peak_heap_mb: acc.peak_heap.iter().sum::<u64>() as f64
                / acc.peak_heap.len().max(1) as f64
                / MIB as f64,
            peak_buffer_kb: acc.peak_buffer as f64 / 1024.0,
            first_output_pct: acc.first_output_pct(),
            cpu_ms_per_mb: s.cpu_ms / mib.max(1e-9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_clients_add_counts_and_pool_samples() {
        let mut a = Acc::default();
        a.check(Expect { hash: 1, len: 1 }, Expect { hash: 1, len: 1 });
        a.samples.push((0, 2.0));
        a.rounds.push(1.0);
        a.bytes = 10;
        a.peak_buffer = 7;
        a.peak_heap = vec![5];
        a.first_output(100.0);
        let mut b = Acc::default();
        b.check(Expect { hash: 1, len: 1 }, Expect { hash: 2, len: 1 });
        b.error();
        b.samples.extend([(0, 4.0), (1, 9.0)]);
        b.rounds.push(3.0);
        b.bytes = 20;
        b.peak_buffer = 5;
        b.peak_heap = vec![3, 9];
        b.rejected = 1;
        b.first_output(50.0);
        a.merge(b);
        assert_eq!((a.attempted, a.failed, a.rejected), (3, 2, 1));
        assert_eq!(a.bytes, 30);
        assert_eq!(a.peak_buffer, 7);
        assert_eq!(a.peak_heap, [5, 9]);
        assert_eq!(a.rounds, [1.0, 3.0]);
        assert_eq!(a.kind_medians(3), [3.0, 9.0, 0.0]);
        assert_eq!(a.first_output_pct(), 75.0);
        assert_eq!(Acc::default().first_output_pct(), 100.0);
    }
}
