#![deny(unsafe_code)]
//! # gcx-server — streaming XQuery as a bounded-memory network service
//!
//! GCX's buffer minimization makes XQuery evaluation possible on streams
//! too large (or too live) to materialize — exactly the regime of a
//! network service. This crate turns the engine into one, on `std` alone:
//! a threaded HTTP/1.1 service where
//!
//! * `PUT /queries/{name}` compiles a query **once** into a shared
//!   registry ([`gcx_core::CompiledQuery`] is reused across requests);
//! * `POST /eval/{name}` pushes the request body into a sans-IO
//!   [`gcx_core::EvalSession`] chunk by chunk as bytes come off the
//!   socket (no blocking `Read` adapter anywhere on the path) and streams
//!   the result back *while the document is still arriving* — a request's
//!   resident memory is the GCX buffer plus at most one partial token;
//! * `Expect: 100-continue` is honored properly: `100 Continue` is sent
//!   only once the query lookup and option checks pass, so a rejected
//!   request never uploads its document at all;
//! * the paper's buffer-minimality guarantee becomes an enforceable
//!   resource budget: [`ServerConfig::max_buffer_bytes`] (or the
//!   `X-Gcx-Max-Buffer-Bytes` request header) rejects runaway requests
//!   with `413` instead of letting one query OOM the process;
//! * a bounded worker pool with a bounded admission queue provides
//!   backpressure: connections beyond the queue get an immediate `503`;
//! * `GET /stats` (JSON), `GET /metrics` (Prometheus text exposition),
//!   and per-response trailers surface the engine's measurements
//!   (tokens, buffer peaks, purge counts) and the service's own
//!   (request latency by outcome, admission-queue wait, worker
//!   utilization, per-query eval counts);
//! * every eval carries an `X-Gcx-Trace-Id`: the client's (validated)
//!   or a generated one, echoed in the response head, the trailers, and
//!   the server's log line, so one id follows a request end to end.
//!
//! ## Protocol sketch
//!
//! ```text
//! PUT  /queries/{name}      body = query text          → 201 / 400
//!      headers: X-Gcx-Schema: xmark|none   (per-name DTD attachment;
//!               overrides the server-wide --schema default; `none`
//!               drops it, an in-stream DOCTYPE is still adopted)
//! GET  /queries             newline-separated names    → 200
//! GET  /queries/{name}      static-analysis report     → 200 / 404
//! DELETE /queries/{name}                               → 204 / 404
//! POST /eval/{name}         body = XML document        → 200 (chunked) / 4xx / 5xx
//!      headers: X-Gcx-Engine: gcx|projection|full
//!               X-Gcx-Max-Buffer-Bytes: N   (tightens the server budget)
//!               X-Gcx-Trace-Id: id          (propagated if [A-Za-z0-9._-]{1,64})
//!      response headers: X-Gcx-Trace-Id
//!      response trailers: X-Gcx-Tokens, X-Gcx-Peak-Buffered-Nodes,
//!               X-Gcx-Peak-Buffer-Bytes, X-Gcx-Purged-Nodes, X-Gcx-Output-Bytes,
//!               X-Gcx-Trace-Id
//! GET  /stats               aggregate JSON             → 200
//! GET  /metrics             Prometheus text (0.0.4)    → 200
//! GET  /healthz                                        → 200
//! POST /shutdown            graceful drain + exit      → 200
//! ```
//!
//! Failure semantics on `/eval`: errors detected before any output has
//! been streamed get real status codes (`400` malformed XML / `408`
//! body deadline / `413` buffer budget / `500` internal; `505` for
//! HTTP/1.0 peers, which must not be sent chunked framing); errors after
//! streaming began terminate the chunked body with an `X-Gcx-Error`
//! trailer and close the connection. Either way the worker survives and
//! in-flight peers are untouched.

pub mod client;
pub mod http;
mod metrics;
mod stats;

pub use stats::ServerStats;

use metrics::ServerMetrics;

use gcx_core::{CompiledQuery, EngineError, EngineOptions, RunReport};
use gcx_obs::Counter;
use http::{BodyReader, DeferredBody, RequestHead};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on `PUT /queries` bodies (query text, not documents).
const MAX_QUERY_BYTES: usize = 1024 * 1024;

/// Output buffered before the `200` head of an eval response is committed
/// (see [`http::DeferredBody`]); also the chunk coalescing size after.
const COMMIT_THRESHOLD: usize = 8 * 1024;

/// Reads a trailer's value from the run report and the request's trace id.
type TrailerValue = fn(&RunReport, &str) -> String;

/// The trailers a successful eval ends with. The response head's
/// `Trailer:` line announces these same names.
#[rustfmt::skip]
const EVAL_TRAILERS: [(&str, TrailerValue); 6] = [
    ("X-Gcx-Tokens", |r, _| r.tokens.to_string()),
    ("X-Gcx-Peak-Buffered-Nodes", |r, _| r.buffer.peak_live.to_string()),
    ("X-Gcx-Peak-Buffer-Bytes", |r, _| r.buffer.peak_live_bytes.to_string()),
    ("X-Gcx-Purged-Nodes", |r, _| r.buffer.purged.to_string()),
    ("X-Gcx-Output-Bytes", |r, _| r.output_bytes.to_string()),
    ("X-Gcx-Trace-Id", |_, trace_id| trace_id.to_string()),
];

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7007` (port 0 picks an ephemeral
    /// port; see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads — the request-level concurrency bound.
    pub workers: usize,
    /// Accepted connections waiting for a worker; beyond this, `503`.
    pub queue_depth: usize,
    /// Default per-request buffer byte budget (None = unlimited). The
    /// `X-Gcx-Max-Buffer-Bytes` request header can tighten, never loosen.
    pub max_buffer_bytes: Option<u64>,
    /// Socket read timeout: bounds how long any *single* read may stall
    /// (idle keep-alive connections, a silent peer).
    pub read_timeout: Option<Duration>,
    /// Total wall-clock budget for one eval request's body. The read
    /// timeout alone would let a client trickle one byte per interval and
    /// pin a worker forever; crossing this deadline answers `408`.
    pub max_request_duration: Option<Duration>,
    /// Registered-query cap. Each entry holds a compiled query for the
    /// process lifetime, so an uncapped registry would be a slow OOM any
    /// client could drive; registering a new name past the cap answers
    /// `429` (replacing an existing name always works).
    pub max_queries: usize,
    /// Default DTD every eval's document is promised to be valid
    /// against (`gcx serve --schema`). A query registered with an
    /// `X-Gcx-Schema` header overrides this per name; `X-Gcx-Schema:
    /// none` drops this default for a query, though a document's in-stream
    /// `<!DOCTYPE ...>` is still adopted (as in any run without a schema).
    /// Outputs are identical with or without — the schema only shrinks
    /// buffers and latency.
    pub schema: Option<Arc<gcx_schema::Dtd>>,
    /// Admission policy (`gcx serve --max-static-class`): the loosest
    /// streamability class a query may have to be registered. A PUT
    /// whose static class exceeds the cap answers `422` with the
    /// analyzer's lint diagnostics and registers nothing. A `per-item`
    /// cap bounds memory only as far as the bound items are bounded.
    /// `None` (default) admits everything; every successful registration
    /// still reports its class in the `X-Gcx-Streamability` response
    /// header.
    pub admission_class: Option<gcx_analyze::StreamClass>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7007".to_string(),
            workers: 4,
            queue_depth: 64,
            max_buffer_bytes: None,
            read_timeout: Some(Duration::from_secs(30)),
            max_request_duration: Some(Duration::from_secs(300)),
            max_queries: 1024,
            schema: None,
            admission_class: None,
        }
    }
}

/// Admission queue: accepted connections waiting for a worker, each
/// stamped with its admission time so the wait becomes a histogram.
struct Queue {
    conns: VecDeque<(TcpStream, Instant)>,
    shutdown: bool,
}

/// One registry slot: the shared compiled program plus its own eval
/// counter (surfaced per name by `/stats` and `/metrics`).
struct QueryEntry {
    query: CompiledQuery,
    evals: Counter,
    /// Per-name schema attachment: `Some(Some(dtd))` pins a DTD,
    /// `Some(None)` opts out of the server default, `None` inherits it.
    schema: Option<Option<Arc<gcx_schema::Dtd>>>,
}

/// State shared by the acceptor and every worker.
struct Shared {
    config: ServerConfig,
    registry: RwLock<HashMap<String, Arc<QueryEntry>>>,
    stats: ServerStats,
    metrics: ServerMetrics,
    started: Instant,
    queue: Mutex<Queue>,
    ready: Condvar,
    local_addr: SocketAddr,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.queue.lock().expect("queue poisoned").shutdown
    }

    /// Flip the shutdown flag, wake every parked worker, and poke the
    /// acceptor loose from its blocking `accept`.
    fn begin_shutdown(&self) {
        {
            let mut q = self.queue.lock().expect("queue poisoned");
            if q.shutdown {
                return;
            }
            q.shutdown = true;
        }
        self.ready.notify_all();
        // A throwaway connection unblocks accept(); the acceptor sees the
        // flag and exits. Errors are fine — the listener may be gone.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
    }
}

/// A running service: the bound address plus join control.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the service exits (a `POST /shutdown` or
    /// [`ServerHandle::shutdown`] from another thread).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Graceful shutdown: stop accepting, drain admitted connections,
    /// finish in-flight requests, then join every thread.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.join();
    }
}

/// Bind and start the service: one acceptor thread plus
/// [`ServerConfig::workers`] worker threads. Returns immediately.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        config: config.clone(),
        registry: RwLock::new(HashMap::new()),
        stats: ServerStats::default(),
        metrics: ServerMetrics::default(),
        started: Instant::now(),
        queue: Mutex::new(Queue {
            conns: VecDeque::new(),
            shutdown: false,
        }),
        ready: Condvar::new(),
        local_addr,
    });

    let mut threads = Vec::with_capacity(config.workers.max(1) + 1);
    for i in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("gcx-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("gcx-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared))?,
        );
    }
    Ok(ServerHandle {
        addr: local_addr,
        shared,
        threads,
    })
}

/// Accept connections, admitting each to the bounded queue or rejecting
/// it with an immediate `503` — backpressure the client can see.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // EMFILE under a connection flood returns instantly; a
                // bare `continue` would busy-spin the acceptor. Back off
                // briefly so workers can release descriptors.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let mut q = shared.queue.lock().expect("queue poisoned");
        if q.shutdown {
            // The shutdown poke (or an unlucky late client) — drop it.
            drop(stream);
            break;
        }
        shared.stats.accepted.inc();
        if q.conns.len() >= shared.config.queue_depth {
            drop(q);
            shared.stats.rejected_busy.inc();
            let mut stream = stream;
            let _ = http::write_response(
                &mut stream,
                503,
                "Service Unavailable",
                &[("Retry-After", "1")],
                b"server saturated: admission queue full\n",
                true,
            );
        } else {
            q.conns.push_back((stream, Instant::now()));
            drop(q);
            shared.ready.notify_one();
        }
    }
}

/// Worker: pull admitted connections off the queue until shutdown *and*
/// the queue is drained — admitted work always completes.
fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(c) = q.conns.pop_front() {
                    break Some(c);
                }
                if q.shutdown {
                    break None;
                }
                q = shared.ready.wait(q).expect("queue poisoned");
            }
        };
        let Some((conn, admitted)) = conn else { break };
        shared
            .metrics
            .admission_wait_us
            .observe(admitted.elapsed().as_micros() as u64);
        shared.stats.in_flight.inc();
        let _ = handle_connection(shared, conn);
        shared.stats.in_flight.dec_saturating();
    }
}

/// What a request handler tells the connection loop to do next.
enum Outcome {
    KeepAlive,
    Close,
}

/// Poll interval while a worker waits for the next request on an idle
/// connection — the bound on how long idle peers can delay shutdown.
const IDLE_POLL: Duration = Duration::from_millis(500);

/// Wait until request bytes are available. Returns `false` when the
/// connection should be dropped instead: the peer closed, the idle time
/// exceeded the read timeout, or shutdown began. Peeking (not reading)
/// keeps partial data intact, so a slow client loses nothing.
fn wait_for_request(shared: &Shared, reader: &mut BufReader<TcpStream>) -> io::Result<bool> {
    if !reader.buffer().is_empty() {
        return Ok(true); // a pipelined request is already buffered
    }
    let mut idle = Duration::ZERO;
    let mut byte = [0u8; 1];
    loop {
        let stream = reader.get_ref();
        stream.set_read_timeout(Some(IDLE_POLL))?;
        match stream.peek(&mut byte) {
            Ok(0) => return Ok(false), // peer closed
            Ok(_) => {
                stream.set_read_timeout(shared.config.read_timeout)?;
                return Ok(true);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutting_down() {
                    return Ok(false); // no request in flight: safe to drop
                }
                idle += IDLE_POLL;
                if shared.config.read_timeout.is_some_and(|t| idle >= t) {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Serve one connection: a keep-alive loop of request/response exchanges.
fn handle_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(shared.config.read_timeout).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    // Classify each exchange for the latency histograms: the status the
    // write path noted, measured from the first request byte.
    let observe = |start: Instant| {
        shared
            .metrics
            .observe_request(http::take_last_status(), start.elapsed().as_micros() as u64);
    };
    loop {
        // Interruptible idle wait: a worker parked on a keep-alive
        // connection must still notice shutdown.
        if !wait_for_request(shared, &mut reader)? {
            return Ok(());
        }
        let started = Instant::now();
        let head = match http::read_request_head(&mut reader) {
            Ok(Some(head)) => head,
            Ok(None) => return Ok(()), // clean keep-alive end
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shared.stats.client_errors.inc();
                let msg = format!("bad request: {e}\n");
                http::write_response(&mut writer, 400, "Bad Request", &[], msg.as_bytes(), true)?;
                shared.stats.served.inc();
                observe(started);
                return Ok(());
            }
            Err(e) => return Err(e), // timeout / reset: nothing to say
        };
        let keep = head.keep_alive();
        let outcome = match handle_request(shared, &head, &mut reader, &mut writer) {
            Ok(outcome) => outcome,
            // Malformed body framing (bad Content-Length, broken chunk
            // syntax) deserves the same clean 400 as a malformed head,
            // not a silent connection drop. Response-write failures carry
            // other kinds (BrokenPipe etc.) and still just close.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shared.stats.client_errors.inc();
                let msg = format!("bad request: {e}\n");
                http::write_response(&mut writer, 400, "Bad Request", &[], msg.as_bytes(), true)?;
                shared.stats.served.inc();
                observe(started);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        shared.stats.served.inc();
        observe(started);
        match outcome {
            Outcome::KeepAlive if keep && !shared.shutting_down() => continue,
            _ => return Ok(()),
        }
    }
}

/// Route one request. Handlers must leave the connection either fully
/// consumed (body read to its end) or report [`Outcome::Close`].
fn handle_request<R: BufRead, W: Write>(
    shared: &Shared,
    head: &RequestHead,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<Outcome> {
    let path = head.target.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (head.method.as_str(), segments.as_slice()) {
        // Routes that consume their own body.
        ("PUT", ["queries", name]) => put_query(shared, head, name, reader, writer),
        ("POST", ["eval", name]) => eval(shared, head, name, reader, writer),
        // Bodyless routes: a client may still attach a (small) body, and
        // leaving it unread would desync the keep-alive stream — the next
        // head parse would start mid-body. Consume it first; anything
        // oversized forces a close instead.
        _ => {
            let consumed = http::read_body_limited(head, reader, MAX_QUERY_BYTES)?.is_some();
            let outcome = route_bodyless(shared, head, &segments, writer)?;
            Ok(if consumed { outcome } else { Outcome::Close })
        }
    }
}

/// Dispatch the routes whose request body carries no meaning (already
/// consumed by the caller).
fn route_bodyless<W: Write>(
    shared: &Shared,
    head: &RequestHead,
    segments: &[&str],
    writer: &mut W,
) -> io::Result<Outcome> {
    match (head.method.as_str(), segments) {
        ("GET", ["queries"]) => list_queries(shared, writer),
        ("GET", ["queries", name]) => explain_query(shared, name, writer),
        ("DELETE", ["queries", name]) => delete_query(shared, name, writer),
        ("GET", ["stats"]) => {
            let body = stats::render(&shared.stats, &snapshot(shared));
            http::write_response(
                writer,
                200,
                "OK",
                &[("Content-Type", "application/json")],
                body.as_bytes(),
                false,
            )?;
            Ok(Outcome::KeepAlive)
        }
        ("GET", ["metrics"]) => {
            let body = metrics::render(&shared.metrics, &shared.stats, &snapshot(shared));
            http::write_response(
                writer,
                200,
                "OK",
                &[("Content-Type", "text/plain; version=0.0.4; charset=utf-8")],
                body.as_bytes(),
                false,
            )?;
            Ok(Outcome::KeepAlive)
        }
        ("GET", ["healthz"]) => {
            http::write_response(writer, 200, "OK", &[], b"ok\n", false)?;
            Ok(Outcome::KeepAlive)
        }
        ("POST", ["shutdown"]) => {
            http::write_response(writer, 200, "OK", &[], b"draining\n", true)?;
            shared.begin_shutdown();
            Ok(Outcome::Close)
        }
        _ => {
            shared.stats.client_errors.inc();
            let msg = format!("no route for {} {}\n", head.method, head.target);
            http::write_response(writer, 404, "Not Found", &[], msg.as_bytes(), true)?;
            Ok(Outcome::Close)
        }
    }
}

/// What `/stats` and `/metrics` report besides the counters, read once.
fn snapshot(shared: &Shared) -> stats::Snapshot {
    let mut per_query: Vec<(String, u64)> = shared
        .registry
        .read()
        .expect("registry poisoned")
        .iter()
        .map(|(name, entry)| (name.clone(), entry.evals.get()))
        .collect();
    per_query.sort();
    stats::Snapshot {
        uptime: shared.started.elapsed(),
        workers: shared.config.workers,
        queue_depth: shared.config.queue_depth,
        queue_len: shared.queue.lock().expect("queue poisoned").conns.len(),
        max_buffer_bytes: shared.config.max_buffer_bytes,
        per_query,
    }
}

/// Valid registry names: short, path- and header-safe.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

fn put_query<R: BufRead, W: Write>(
    shared: &Shared,
    head: &RequestHead,
    name: &str,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<Outcome> {
    if !valid_name(name) {
        shared.stats.client_errors.inc();
        http::write_response(
            writer,
            400,
            "Bad Request",
            &[],
            b"invalid query name\n",
            true,
        )?;
        return Ok(Outcome::Close);
    }
    if head.expects_continue() {
        writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        writer.flush()?;
    }
    let Some(body) = http::read_body_limited(head, reader, MAX_QUERY_BYTES)? else {
        shared.stats.client_errors.inc();
        http::write_response(
            writer,
            413,
            "Payload Too Large",
            &[],
            b"query text too large\n",
            true,
        )?;
        return Ok(Outcome::Close);
    };
    let text = match String::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            shared.stats.client_errors.inc();
            http::write_response(
                writer,
                400,
                "Bad Request",
                &[],
                b"query text must be UTF-8\n",
                false,
            )?;
            return Ok(Outcome::KeepAlive);
        }
    };
    // Per-query schema attachment: `X-Gcx-Schema: xmark` promises every
    // document evaluated under this name validates against the bundled
    // XMark DTD; `none` drops any server-wide default (a document's own
    // DOCTYPE is still adopted, as in any run without a schema).
    let schema = match head.header("x-gcx-schema") {
        None => None,
        Some("xmark") => Some(Some(gcx_schema::Dtd::xmark())),
        Some("none") => Some(None),
        Some(other) => {
            shared.stats.client_errors.inc();
            let msg = format!("unknown X-Gcx-Schema {other:?} (xmark|none)\n");
            http::write_response(writer, 400, "Bad Request", &[], msg.as_bytes(), false)?;
            return Ok(Outcome::KeepAlive);
        }
    };
    match CompiledQuery::compile(&text) {
        Ok(q) => {
            shared.stats.queries_compiled.inc();
            // Static admission: classify against the DTD this name's
            // evals will actually run under (the per-query X-Gcx-Schema
            // override, else the server-wide default).
            let effective_dtd = match &schema {
                Some(over) => over.clone(),
                None => shared.config.schema.clone(),
            };
            let analysis = gcx_analyze::analyze_program(&q.program, effective_dtd.as_deref());
            let class = analysis.class.as_str();
            if let Some(cap) = shared.config.admission_class {
                if analysis.class > cap {
                    shared.stats.client_errors.inc();
                    let msg = format!(
                        "query refused: static streamability class `{class}` exceeds the \
                         server's `{}` admission cap\n{}",
                        cap.as_str(),
                        analysis.lint_lines().join("\n")
                    );
                    http::write_response(
                        writer,
                        422,
                        "Unprocessable Entity",
                        &[("X-Gcx-Streamability", class)],
                        msg.as_bytes(),
                        false,
                    )?;
                    return Ok(Outcome::KeepAlive);
                }
            }
            let mut registry = shared.registry.write().expect("registry poisoned");
            if !registry.contains_key(name) && registry.len() >= shared.config.max_queries {
                drop(registry);
                shared.stats.client_errors.inc();
                let msg = format!(
                    "query registry full ({} entries); DELETE unused queries first\n",
                    shared.config.max_queries
                );
                http::write_response(writer, 429, "Too Many Requests", &[], msg.as_bytes(), false)?;
                return Ok(Outcome::KeepAlive);
            }
            let entry = QueryEntry {
                query: q,
                evals: Counter::default(),
                schema,
            };
            // Replacing a name keeps its eval count: the counter tracks
            // the name's traffic, not one compilation's.
            if let Some(old) = registry.get(name) {
                entry.evals.add(old.evals.get());
            }
            let replaced = registry.insert(name.to_string(), Arc::new(entry)).is_some();
            drop(registry);
            let (status, reason) = if replaced {
                (200, "OK")
            } else {
                (201, "Created")
            };
            // The analyzer's warnings (join buffering, unbounded
            // aggregates, ...) ride along after the confirmation line;
            // info-severity lints stay out of the body.
            let warnings: String = analysis
                .lints
                .iter()
                .filter(|l| l.severity == gcx_analyze::Severity::Warning)
                .map(|l| format!("warning: [{}] {}: {}\n", l.code, l.span, l.message))
                .collect();
            let msg = format!("compiled query {name:?}\n{warnings}");
            http::write_response(
                writer,
                status,
                reason,
                &[("X-Gcx-Streamability", class)],
                msg.as_bytes(),
                false,
            )?;
            Ok(Outcome::KeepAlive)
        }
        Err(e) => {
            shared.stats.client_errors.inc();
            let msg = format!("query does not compile: {e}\n");
            http::write_response(writer, 400, "Bad Request", &[], msg.as_bytes(), false)?;
            Ok(Outcome::KeepAlive)
        }
    }
}

fn list_queries<W: Write>(shared: &Shared, writer: &mut W) -> io::Result<Outcome> {
    let mut names: Vec<String> = shared
        .registry
        .read()
        .expect("registry poisoned")
        .keys()
        .cloned()
        .collect();
    names.sort();
    let mut body = names.join("\n");
    if !body.is_empty() {
        body.push('\n');
    }
    http::write_response(writer, 200, "OK", &[], body.as_bytes(), false)?;
    Ok(Outcome::KeepAlive)
}

fn explain_query<W: Write>(shared: &Shared, name: &str, writer: &mut W) -> io::Result<Outcome> {
    let q = shared
        .registry
        .read()
        .expect("registry poisoned")
        .get(name)
        .cloned();
    match q {
        Some(q) => {
            http::write_response(writer, 200, "OK", &[], q.query.explain().as_bytes(), false)?;
            Ok(Outcome::KeepAlive)
        }
        None => {
            shared.stats.client_errors.inc();
            let msg = format!("no query named {name:?}\n");
            http::write_response(writer, 404, "Not Found", &[], msg.as_bytes(), false)?;
            Ok(Outcome::KeepAlive)
        }
    }
}

fn delete_query<W: Write>(shared: &Shared, name: &str, writer: &mut W) -> io::Result<Outcome> {
    let removed = shared
        .registry
        .write()
        .expect("registry poisoned")
        .remove(name)
        .is_some();
    if removed {
        http::write_response(writer, 204, "No Content", &[], b"", false)?;
    } else {
        shared.stats.client_errors.inc();
        let msg = format!("no query named {name:?}\n");
        http::write_response(writer, 404, "Not Found", &[], msg.as_bytes(), false)?;
    }
    Ok(Outcome::KeepAlive)
}

/// Parse a byte size: a plain number with an optional k/m/g suffix
/// (binary units), e.g. `65536`, `64k`, `16m`, `2g`. Used for the
/// `X-Gcx-Max-Buffer-Bytes` header and re-exported for the CLI's
/// `--max-buffer-bytes` flag so the two stay in sync.
pub fn parse_byte_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, shift) = match text.as_bytes().last()? {
        b'k' | b'K' => (&text[..text.len() - 1], 10u32),
        b'm' | b'M' => (&text[..text.len() - 1], 20),
        b'g' | b'G' => (&text[..text.len() - 1], 30),
        _ => (text, 0),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_shl(shift).filter(|v| v >> shift == n)
}

/// The effective buffer budget: the server default, tightened (never
/// loosened) by the request's `X-Gcx-Max-Buffer-Bytes` header.
fn effective_budget(server: Option<u64>, header: Option<&str>) -> Result<Option<u64>, String> {
    let requested = match header {
        Some(v) => Some(
            parse_byte_size(v).ok_or_else(|| format!("bad X-Gcx-Max-Buffer-Bytes value {v:?}"))?,
        ),
        None => None,
    };
    Ok(match (server, requested) {
        (Some(s), Some(r)) => Some(s.min(r)),
        (s, r) => r.or(s),
    })
}

/// Bounded best-effort drain of an unread (remainder of a) request body.
/// Closing with unread bytes in flight makes the kernel send a TCP reset,
/// which can destroy a just-written error response before the client
/// reads it; draining a few MB first makes early rejections readable.
fn drain_reader<R: io::Read>(body: &mut R) {
    let mut scratch = [0u8; 8192];
    let mut budget: usize = 4 << 20;
    while budget > 0 {
        match body.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// [`drain_reader`] for a request whose body was never opened.
fn drain_request_body<R: BufRead>(head: &RequestHead, reader: &mut R) {
    if let Ok(mut body) = BodyReader::for_request(head, reader) {
        drain_reader(&mut body);
    }
}

/// Best-effort drain for an eval request rejected before its body was
/// read. A client that asked for `Expect: 100-continue` has not sent the
/// body yet — we never sent `100 Continue`, which is the whole point of
/// honoring the header: rejected requests don't upload the document.
/// Draining would only stall on the silent socket until the read timeout;
/// the rejection (with `Connection: close`) is the complete answer.
fn drain_rejected<R: BufRead>(head: &RequestHead, reader: &mut R) {
    if !head.expects_continue() {
        drain_request_body(head, reader);
    }
}

/// Caps the total wall-clock time a request body may take to arrive.
/// `ServerConfig::read_timeout` bounds each individual socket read; a
/// client trickling one byte per interval would pass every such check and
/// pin a worker forever, so the deadline bounds the sum. It layers
/// *under* the body reader (as the `BufRead` the framing parser reads
/// from), so chunk-size lines and trailers are covered too, not just
/// chunk data. The trip is reported through a shared cell because the
/// reader is buried inside the body reader when the caller needs it.
struct DeadlineReader<'f, R> {
    inner: R,
    deadline: Option<Instant>,
    expired: &'f std::cell::Cell<bool>,
}

impl<R> DeadlineReader<'_, R> {
    fn check(&self) -> io::Result<()> {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.expired.set(true);
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request body deadline exceeded",
            ));
        }
        Ok(())
    }
}

impl<R: io::Read> io::Read for DeadlineReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.check()?;
        self.inner.read(buf)
    }
}

impl<R: BufRead> BufRead for DeadlineReader<'_, R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.check()?;
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

/// One log line on stderr in a single `write`. Stderr is unbuffered, so
/// `eprintln!` issues one `write` per format fragment (eleven for an eval
/// line), each waking whoever reads the other end — while the client of a
/// `Connection: close` request still waits for this worker to hang up.
fn log_line(line: std::fmt::Arguments<'_>) {
    let mut text = line.to_string();
    text.push('\n');
    eprint!("{text}");
}

/// `POST /eval/{name}`: stream the request body through the engine and
/// the result back out, reporting the run's measurements as trailers.
fn eval<R: BufRead, W: Write>(
    shared: &Shared,
    head: &RequestHead,
    name: &str,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<Outcome> {
    // One id follows the request end to end: the client's (when it is
    // header-, log-, and JSON-safe) or a generated one. It rides on the
    // response head, the trailers, and the server's log line.
    let trace_id = match head.header("x-gcx-trace-id") {
        Some(v) if gcx_obs::valid_trace_id(v) => v.to_string(),
        _ => gcx_obs::trace_id(),
    };
    let traced: [(&str, &str); 1] = [("X-Gcx-Trace-Id", &trace_id)];
    if head.version != "HTTP/1.1" {
        // Streaming results require chunked transfer-encoding, which an
        // HTTP/1.0 peer must never be sent (RFC 7230 §3.3.1).
        shared.stats.client_errors.inc();
        let msg = "eval streams its result with chunked transfer-encoding; use HTTP/1.1\n";
        http::write_response(
            writer,
            505,
            "HTTP Version Not Supported",
            &traced,
            msg.as_bytes(),
            true,
        )?;
        drain_rejected(head, reader);
        return Ok(Outcome::Close);
    }
    let Some(entry) = shared
        .registry
        .read()
        .expect("registry poisoned")
        .get(name)
        .cloned()
    else {
        shared.stats.client_errors.inc();
        let msg = format!("no query named {name:?} (register with PUT /queries/{name})\n");
        http::write_response(writer, 404, "Not Found", &traced, msg.as_bytes(), true)?;
        drain_rejected(head, reader);
        return Ok(Outcome::Close);
    };

    let mut opts = match head.header("x-gcx-engine").unwrap_or("gcx") {
        "gcx" => EngineOptions::gcx(),
        "projection" => EngineOptions::projection_only(),
        "full" => EngineOptions::full_buffering(),
        other => {
            shared.stats.client_errors.inc();
            let msg = format!("unknown engine {other:?} (gcx|projection|full)\n");
            http::write_response(writer, 400, "Bad Request", &traced, msg.as_bytes(), true)?;
            drain_rejected(head, reader);
            return Ok(Outcome::Close);
        }
    };
    // Schema resolution: the query's own attachment wins (including an
    // explicit opt-out), otherwise the server-wide default applies.
    opts.schema = match &entry.schema {
        Some(per_query) => per_query.clone(),
        None => shared.config.schema.clone(),
    };
    opts.max_buffer_bytes = match effective_budget(
        shared.config.max_buffer_bytes,
        head.header("x-gcx-max-buffer-bytes"),
    ) {
        Ok(b) => b,
        Err(msg) => {
            shared.stats.client_errors.inc();
            let msg = format!("{msg}\n");
            http::write_response(writer, 400, "Bad Request", &traced, msg.as_bytes(), true)?;
            drain_rejected(head, reader);
            return Ok(Outcome::Close);
        }
    };

    if head.expects_continue() {
        writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        writer.flush()?;
    }

    let started = Instant::now();
    let success_head = format!(
        "HTTP/1.1 200 OK\r\n\
        Content-Type: application/xml\r\n\
        Transfer-Encoding: chunked\r\n\
        X-Gcx-Trace-Id: {trace_id}\r\n\
        Trailer: {}\r\n\r\n",
        EVAL_TRAILERS.map(|(name, _)| name).join(", ")
    )
    .into_bytes();

    let expired = std::cell::Cell::new(false);
    let mut timed = DeadlineReader {
        inner: reader,
        deadline: shared
            .config
            .max_request_duration
            .map(|d| Instant::now() + d),
        expired: &expired,
    };
    let mut body = BodyReader::for_request(head, &mut timed)?;
    let mut out = DeferredBody::new(&mut *writer, success_head, COMMIT_THRESHOLD);
    match eval_push(&entry.query, &opts, &mut body, &mut out) {
        Ok(report) => {
            out.finish(&EVAL_TRAILERS.map(|(name, value)| (name, value(&report, &trace_id))))?;
            // The run total last: whoever sees it sees the rest as well.
            entry.evals.inc();
            shared
                .metrics
                .eval_peak_buffer_bytes
                .observe(report.buffer.peak_live_bytes);
            shared.stats.record_eval(&report);
            log_line(format_args!(
                "gcx-server: eval query={name} trace={trace_id} status=200 \
                 tokens={} peak_buffer_bytes={} dur_us={}",
                report.tokens,
                report.buffer.peak_live_bytes,
                started.elapsed().as_micros()
            ));
            // The run read the body to its end (every run reads its input
            // to the end), so the connection is positioned at the next
            // request.
            if body.fully_consumed() {
                Ok(Outcome::KeepAlive)
            } else {
                Ok(Outcome::Close)
            }
        }
        Err(e) => {
            let (status, reason) = if expired.get() {
                (408, "Request Timeout")
            } else {
                match &e {
                    EngineError::BufferLimitExceeded { .. } => (413, "Payload Too Large"),
                    EngineError::Xml(_)
                    | EngineError::Query(_)
                    | EngineError::TooManyRoles { .. } => (400, "Bad Request"),
                    EngineError::Internal(_) => (500, "Internal Server Error"),
                }
            };
            match status {
                413 => shared.stats.rejected_buffer.inc(),
                400 | 408 => shared.stats.client_errors.inc(),
                _ => shared.stats.server_errors.inc(),
            }
            let msg = if expired.get() {
                "request body deadline exceeded\n".to_string()
            } else {
                format!("{e}\n")
            };
            log_line(format_args!(
                "gcx-server: eval query={name} trace={trace_id} status={status} \
                 error={:?} dur_us={}",
                msg.trim_end(),
                started.elapsed().as_micros()
            ));
            match out.fail(msg.trim_end())? {
                Some(w) => {
                    // Nothing was streamed yet: a clean, typed rejection.
                    http::write_response(w, status, reason, &traced, msg.as_bytes(), true)?;
                }
                None => {
                    // Mid-stream failure: the chunked body was terminated
                    // with an X-Gcx-Error trailer; closing is the signal.
                }
            }
            // Drain only a body that is still readable: an expired or
            // poisoned one (framing error, dead peer) would just stall
            // on the socket until the read timeout.
            if !expired.get() && !body.poisoned() {
                drain_reader(&mut body);
            }
            Ok(Outcome::Close)
        }
    }
}

/// Drive one eval request sans-IO: body chunks are pushed into the engine
/// session exactly as they come off the socket — straight out of the
/// connection's read buffer, with no `Read` adapter in between — and
/// pending output is drained to the (deferred) response writer between
/// chunks, so result bytes flow while the document is still uploading.
/// Each chunk is lent to the session's tokenizer where it lies, in the
/// connection's read buffer: the session copies only a token the chunk's
/// end cuts, so what it holds is the GCX buffer plus at most that one
/// partial token.
fn eval_push<R: BufRead, W: Write>(
    q: &CompiledQuery,
    opts: &EngineOptions,
    body: &mut BodyReader<'_, R>,
    out: &mut W,
) -> Result<RunReport, EngineError> {
    let mut session = q.session(opts);
    loop {
        let fed = {
            let chunk = body.fill().map_err(|e| session.input_io_error(e))?;
            if chunk.is_empty() {
                break;
            }
            session.feed(chunk)?;
            chunk.len()
        };
        body.consume(fed);
        session.take_output(out)?;
    }
    let report = session.finish()?;
    session.take_output(out)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_header_tightens_but_never_loosens() {
        assert_eq!(effective_budget(None, None).unwrap(), None);
        assert_eq!(effective_budget(Some(100), None).unwrap(), Some(100));
        assert_eq!(effective_budget(None, Some("50")).unwrap(), Some(50));
        assert_eq!(effective_budget(Some(100), Some("50")).unwrap(), Some(50));
        assert_eq!(
            effective_budget(Some(100), Some("5000")).unwrap(),
            Some(100),
            "header must not loosen the server budget"
        );
        assert!(effective_budget(Some(100), Some("lots")).is_err());
        assert_eq!(
            effective_budget(None, Some("64k")).unwrap(),
            Some(64 * 1024),
            "suffixes work in the header, as the CLI help promises"
        );
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("65536"), Some(65536));
        assert_eq!(parse_byte_size(" 64k "), Some(64 << 10));
        assert_eq!(parse_byte_size("16M"), Some(16 << 20));
        assert_eq!(parse_byte_size("2g"), Some(2 << 30));
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("k"), None);
        assert_eq!(parse_byte_size("1.5m"), None);
        assert_eq!(parse_byte_size(&format!("{}g", u64::MAX)), None, "overflow");
    }

    #[test]
    fn names_are_validated() {
        assert!(valid_name("q1"));
        assert!(valid_name("paper.Q6-count_2"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(129)));
    }
}
