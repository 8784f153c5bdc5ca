//! Loopback integration tests of the whole service: correctness under
//! concurrency, clean failure isolation, admission control, budget
//! rejection, and graceful shutdown.

use gcx_server::client::{self, BodyMode};
use gcx_server::{serve, ServerConfig, ServerHandle};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(config: ServerConfig) -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Some(Duration::from_secs(10)),
        ..config
    })
    .expect("bind")
}

fn offline(query: &str, doc: &[u8]) -> (Vec<u8>, gcx_core::RunReport) {
    let q = gcx_core::CompiledQuery::compile(query).unwrap();
    let mut out = Vec::new();
    let report = gcx_core::run(&q, &gcx_core::EngineOptions::gcx(), doc, &mut out).unwrap();
    (out, report)
}

const TITLES: &str = "for $b in /bib/book return $b/title";
const DOC: &[u8] = b"<bib><book><title>On Streams</title><price>9</price></book>\
    <book><title>Buffers</title></book></bib>";

#[test]
fn register_eval_roundtrip_with_trailer_stats() {
    let h = start(ServerConfig::default());
    let addr = h.addr();

    let r = client::put_query(addr, "titles", TITLES).unwrap();
    assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.body));
    // Re-registering replaces.
    let r = client::put_query(addr, "titles", TITLES).unwrap();
    assert_eq!(r.status, 200);

    let (expected, report) = offline(TITLES, DOC);
    for mode in [BodyMode::Sized, BodyMode::Chunked { chunk_size: 7 }] {
        let r = client::eval(addr, "titles", DOC, &[], mode).unwrap();
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        assert_eq!(r.body, expected, "mode {mode:?}");
        assert_eq!(r.trailer_u64("x-gcx-tokens"), Some(report.tokens));
        assert_eq!(
            r.trailer_u64("x-gcx-peak-buffered-nodes"),
            Some(report.buffer.peak_live)
        );
        assert_eq!(
            r.trailer_u64("x-gcx-peak-buffer-bytes"),
            Some(report.buffer.peak_live_bytes)
        );
        assert_eq!(
            r.trailer_u64("x-gcx-purged-nodes"),
            Some(report.buffer.purged)
        );
        assert_eq!(
            r.trailer_u64("x-gcx-output-bytes"),
            Some(expected.len() as u64)
        );
    }

    let r = client::get(addr, "/queries").unwrap();
    assert_eq!(String::from_utf8_lossy(&r.body), "titles\n");
    let r = client::get(addr, "/queries/titles").unwrap();
    assert!(String::from_utf8_lossy(&r.body).contains("signOff"));
    h.shutdown();
}

#[test]
fn expect_continue_is_gated_on_the_checks() {
    use std::io::{BufRead, BufReader, Read};

    let h = start(ServerConfig::default());
    let addr = h.addr();
    let r = client::put_query(addr, "titles", TITLES).unwrap();
    assert_eq!(r.status, 201);

    // Reject path: unknown query. The server must answer 404 straight
    // away WITHOUT sending `100 Continue` — the client then never uploads
    // the document (we deliberately send no body here; the server must
    // not stall waiting for one).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        b"POST /eval/nope HTTP/1.1\r\nHost: x\r\nContent-Length: 1000000\r\n\
          Expect: 100-continue\r\n\r\n",
    )
    .unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reply = Vec::new();
    s.read_to_end(&mut reply).unwrap();
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
    assert!(!reply.contains("100 Continue"), "{reply}");

    // Accept path: the interim `100 Continue` arrives only after the
    // lookup and option checks passed; the body is uploaded after it.
    let doc = b"<bib><book><title>T</title></book></bib>";
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(
        format!(
            "POST /eval/titles HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
             Expect: 100-continue\r\nConnection: close\r\n\r\n",
            doc.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut interim = String::new();
    reader.read_line(&mut interim).unwrap();
    assert!(interim.starts_with("HTTP/1.1 100"), "{interim}");
    let mut blank = String::new();
    reader.read_line(&mut blank).unwrap(); // end of the interim response
    s.write_all(doc).unwrap();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    let rest = String::from_utf8_lossy(&rest);
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
    assert!(rest.contains("<title>T</title>"), "{rest}");
    h.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_results() {
    // A real XMark document and three queries with different buffering
    // profiles, hammered by concurrent clients; every response must be
    // byte-identical to the offline engine.
    let mut doc = Vec::new();
    gcx_xmark::generate(&gcx_xmark::XmarkConfig::sized(300 * 1024), &mut doc).unwrap();
    let queries: Vec<(&str, &str)> = vec![
        ("q1", gcx_xmark::queries::Q1),
        ("q13", gcx_xmark::queries::Q13),
        ("q20", gcx_xmark::queries::Q20),
    ];

    let h = start(ServerConfig {
        workers: 6,
        ..ServerConfig::default()
    });
    let addr = h.addr();
    for (name, text) in &queries {
        let r = client::put_query(addr, name, text).unwrap();
        assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.body));
    }
    let expected: Vec<(String, Vec<u8>, u64)> = queries
        .iter()
        .map(|(name, text)| {
            let (out, report) = offline(text, &doc);
            (name.to_string(), out, report.buffer.peak_live)
        })
        .collect();

    std::thread::scope(|scope| {
        for client_id in 0..6 {
            let doc = &doc;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..3 {
                    let (name, want, peak) = &expected[(client_id + round) % expected.len()];
                    let mode = if client_id % 2 == 0 {
                        BodyMode::Sized
                    } else {
                        BodyMode::Chunked {
                            chunk_size: 64 * 1024,
                        }
                    };
                    let r = client::eval(addr, name, doc, &[], mode).unwrap();
                    assert_eq!(r.status, 200);
                    assert_eq!(
                        r.body, *want,
                        "client {client_id} round {round} ({name}) diverged"
                    );
                    assert_eq!(
                        r.trailer_u64("x-gcx-peak-buffered-nodes"),
                        Some(*peak),
                        "buffer peak must match the offline engine exactly"
                    );
                }
            });
        }
    });

    // The trailers reach the client a hair before the server folds the
    // run into its counters; poll instead of racing.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let r = client::get(addr, "/stats").unwrap();
        let stats = String::from_utf8_lossy(&r.body).to_string();
        if stats.contains("\"runs\":18") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stats never reached 18 runs: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    h.shutdown();
}

#[test]
fn concurrent_requests_share_one_compiled_program_without_recompiling() {
    // The registry stores the fully lowered program (`gcx-ir`); the eval
    // hot path must not compile or lower anything. Two concurrent
    // requests against one registry entry: identical bytes, and the
    // compilation counter stays at the single PUT.
    let h = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = h.addr();
    let r = client::put_query(addr, "titles", TITLES).unwrap();
    assert_eq!(r.status, 201);

    let (expected, _) = offline(TITLES, DOC);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let expected = &expected;
                scope.spawn(move || {
                    let r = client::eval(addr, "titles", DOC, &[], BodyMode::Sized).unwrap();
                    assert_eq!(r.status, 200, "request {i}");
                    assert_eq!(&r.body, expected, "request {i}");
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("concurrent eval panicked");
        }
    });

    // The response is on the wire before the worker folds its counters
    // in; poll briefly for the second run to land.
    let mut stats = String::new();
    for _ in 0..50 {
        let r = client::get(addr, "/stats").unwrap();
        stats = String::from_utf8_lossy(&r.body).to_string();
        if stats.contains("\"runs\":2") {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(stats.contains("\"runs\":2"), "{stats}");
    assert!(
        stats.contains("\"queries_compiled\":1"),
        "evals must not recompile: {stats}"
    );
    h.shutdown();
}

#[test]
fn malformed_xml_is_a_clean_error_and_the_server_survives() {
    let h = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = h.addr();
    client::put_query(addr, "titles", TITLES).unwrap();

    // Mismatched end tag: rejected before any output streamed.
    let r = client::eval(addr, "titles", b"<bib><book></bib>", &[], BodyMode::Sized).unwrap();
    assert_eq!(r.status, 400, "{}", String::from_utf8_lossy(&r.body));
    assert!(
        String::from_utf8_lossy(&r.body).contains("XML"),
        "{}",
        String::from_utf8_lossy(&r.body)
    );

    // Truncated body (connection dies mid-document): the worker survives.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /eval/titles HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n<bib>")
            .unwrap();
        s.flush().unwrap();
        // Drop mid-body.
    }

    // The same server keeps serving correct results afterwards.
    let (expected, _) = offline(TITLES, DOC);
    let r = client::eval(addr, "titles", DOC, &[], BodyMode::Sized).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, expected);
    h.shutdown();
}

#[test]
fn buffer_budget_rejects_with_413_without_killing_peers() {
    // A document big enough to cross a small budget (each book peaks at
    // four 48-byte slots and its title text, 200 bytes and more: the
    // second copy of its title needs the title buffered, where a single
    // copy would be written through as it arrives and hold three slots,
    // 144 bytes), while an unbudgeted peer runs the same document.
    let mut doc = String::from("<bib>");
    for i in 0..2_000 {
        doc.push_str(&format!("<book><title>number {i}</title></book>"));
    }
    doc.push_str("</bib>");
    let blocking = "<r>{ for $b in /bib/book return ($b/title, $b/title) }</r>";

    let h = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = h.addr();
    client::put_query(addr, "q", blocking).unwrap();

    let doc = doc.into_bytes();
    std::thread::scope(|scope| {
        let capped = scope.spawn(|| {
            client::eval(
                addr,
                "q",
                &doc,
                &[("X-Gcx-Max-Buffer-Bytes", "160")],
                BodyMode::Sized,
            )
            .unwrap()
        });
        let free = scope.spawn(|| client::eval(addr, "q", &doc, &[], BodyMode::Sized).unwrap());

        let capped = capped.join().unwrap();
        assert_eq!(
            capped.status,
            413,
            "{}",
            String::from_utf8_lossy(&capped.body)
        );
        assert!(
            String::from_utf8_lossy(&capped.body).contains("buffer limit exceeded"),
            "{}",
            String::from_utf8_lossy(&capped.body)
        );

        let free = free.join().unwrap();
        assert_eq!(free.status, 200, "peer must be unaffected by the 413");
        let (expected, _) = offline(blocking, &doc);
        assert_eq!(free.body, expected);
    });

    let r = client::get(addr, "/stats").unwrap();
    assert!(
        String::from_utf8_lossy(&r.body).contains("\"rejected_buffer\":1"),
        "{}",
        String::from_utf8_lossy(&r.body)
    );
    h.shutdown();
}

#[test]
fn a_deep_descendant_document_is_a_413_under_a_budget() {
    // 100 000 nested <x> under `//item`: every one is held on the pending
    // chain, none ever buffered, and a descendant search passes them
    // unseen — yet the chain is charged a slot per element, so the budget
    // stops the request with a 413 before the document ends.
    let depth = 100_000;
    let doc = format!("{}{}", "<x>".repeat(depth), "</x>".repeat(depth)).into_bytes();
    let h = start(ServerConfig::default());
    let addr = h.addr();
    client::put_query(addr, "items", "for $i in //item return $i").unwrap();
    let budget = [("X-Gcx-Max-Buffer-Bytes", "65536")];
    let r = client::eval(addr, "items", &doc, &budget, BodyMode::Sized).unwrap();
    assert_eq!(r.status, 413, "{}", String::from_utf8_lossy(&r.body));
    // Without the budget the same document is fine.
    let r = client::eval(addr, "items", &doc, &[], BodyMode::Sized).unwrap();
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    assert!(r.body.is_empty());
    h.shutdown();
}

/// `GET path` against a server that may be saturated. The acceptor
/// answers 503 and closes without reading the request, so the reply can
/// be lost to the reset that the unread request provokes: ask again.
fn get_through_resets(addr: std::net::SocketAddr, path: &str) -> client::Response {
    for _ in 0..100 {
        match client::get(addr, path) {
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            r => return r.unwrap(),
        }
    }
    panic!("GET {path}: connection reset 100 times in a row");
}

/// Poll `GET /stats` until a worker answers it (a saturated server
/// bounces the probe with 503) and return the body.
fn wait_for_stats(addr: std::net::SocketAddr) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = get_through_resets(addr, "/stats");
        if r.status == 200 {
            return String::from_utf8(r.body).unwrap();
        }
        assert_eq!(r.status, 503);
        assert!(Instant::now() < deadline, "server never left saturation");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn saturation_yields_immediate_503() {
    let h = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = h.addr();
    client::put_query(addr, "titles", TITLES).unwrap();

    // Occupy the single worker. A `/stats` answer on this connection
    // proves the worker has picked it up; the eval whose body never
    // finishes then keeps it there.
    let mut held = TcpStream::connect(addr).unwrap();
    held.write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut held_reader = BufReader::new(held.try_clone().unwrap());
    let stats = client::read_response(&mut held_reader).unwrap();
    assert_eq!(stats.status, 200);
    let stats = String::from_utf8(stats.body).unwrap();
    assert!(stats.contains("\"in_flight\":1"), "{stats}");
    held.write_all(b"POST /eval/titles HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n<bib>")
        .unwrap();
    held.flush().unwrap();

    // Fill the admission queue with a second idle connection. Nobody
    // pops the queue while the worker is held, and the acceptor admits
    // connections in the order they were established...
    let queued = TcpStream::connect(addr).unwrap();

    // ...so the third connection must be bounced immediately.
    let r = get_through_resets(addr, "/healthz");
    assert_eq!(r.status, 503);
    assert_eq!(r.header("retry-after"), Some("1"));

    // Release the worker and the queued connection so shutdown drains
    // without waiting out read timeouts, then verify recovery: once the
    // worker is through both, the probe is the only request in flight.
    drop(held_reader);
    drop(held);
    drop(queued);
    let stats = wait_for_stats(addr);
    assert!(stats.contains("\"in_flight\":1"), "{stats}");
    let r = client::get(addr, "/healthz").unwrap();
    assert_eq!(r.status, 200, "server must recover once the pool frees up");
    h.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let h = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = h.addr();
    client::put_query(addr, "titles", TITLES).unwrap();

    // A request whose body arrives slowly, still in flight when shutdown
    // lands on the other worker.
    let slow = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        writer
            .write_all(
                format!(
                    "POST /eval/titles HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                    DOC.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let (head, tail) = DOC.split_at(DOC.len() / 2);
        writer.write_all(head).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(300));
        writer.write_all(tail).unwrap();
        writer.flush().unwrap();
        client::read_response(&mut reader).unwrap()
    });

    std::thread::sleep(Duration::from_millis(100));
    let r = client::request(addr, "POST", "/shutdown", &[], b"", BodyMode::Sized).unwrap();
    assert_eq!(r.status, 200);

    let response = slow.join().unwrap();
    assert_eq!(response.status, 200, "in-flight request must complete");
    let (expected, _) = offline(TITLES, DOC);
    assert_eq!(response.body, expected);

    h.join();
    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "server must stop accepting after shutdown"
    );
}

#[test]
fn unknown_routes_queries_and_engines_fail_cleanly() {
    let h = start(ServerConfig::default());
    let addr = h.addr();

    let r = client::get(addr, "/nope").unwrap();
    assert_eq!(r.status, 404);

    let r = client::eval(addr, "ghost", DOC, &[], BodyMode::Sized).unwrap();
    assert_eq!(r.status, 404);

    let r = client::put_query(addr, "bad", "for $x in").unwrap();
    assert_eq!(r.status, 400);
    assert!(String::from_utf8_lossy(&r.body).contains("does not compile"));

    let r = client::put_query(addr, "weird/name", TITLES).unwrap();
    assert_eq!(r.status, 404, "slash in name changes the route");

    client::put_query(addr, "titles", TITLES).unwrap();
    let r = client::eval(
        addr,
        "titles",
        DOC,
        &[("X-Gcx-Engine", "quantum")],
        BodyMode::Sized,
    )
    .unwrap();
    assert_eq!(r.status, 400);

    let r = client::request(addr, "DELETE", "/queries/titles", &[], b"", BodyMode::Sized).unwrap();
    assert_eq!(r.status, 204);
    let r = client::request(addr, "DELETE", "/queries/titles", &[], b"", BodyMode::Sized).unwrap();
    assert_eq!(r.status, 404);
    h.shutdown();
}

#[test]
fn alternate_engines_and_healthz() {
    let h = start(ServerConfig::default());
    let addr = h.addr();
    let r = client::get(addr, "/healthz").unwrap();
    assert_eq!(r.status, 200);

    client::put_query(addr, "titles", TITLES).unwrap();
    let (expected, _) = offline(TITLES, DOC);
    for engine in ["projection", "full"] {
        let r = client::eval(
            addr,
            "titles",
            DOC,
            &[("X-Gcx-Engine", engine)],
            BodyMode::Sized,
        )
        .unwrap();
        assert_eq!(r.status, 200, "engine {engine}");
        assert_eq!(r.body, expected, "engine {engine} output");
    }
    h.shutdown();
}

#[test]
fn bodyless_routes_consume_stray_bodies_on_keep_alive() {
    use std::io::Read;

    // A client that attaches a body to GET must not desync the keep-alive
    // stream: the next request on the same connection still parses.
    let h = start(ServerConfig::default());
    let addr = h.addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello\
          GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut wire = String::new();
    s.read_to_string(&mut wire).unwrap();
    assert_eq!(
        wire.matches("HTTP/1.1 200").count(),
        2,
        "both requests must succeed on one connection: {wire}"
    );
    assert!(
        wire.contains("\"accepted\""),
        "second response is the stats JSON: {wire}"
    );
    assert_eq!(
        wire.matches("Content-Type:").count(),
        2,
        "exactly one Content-Type per response: {wire}"
    );
    h.shutdown();
}

#[test]
fn trickled_uploads_hit_the_request_deadline() {
    let h = start(ServerConfig {
        workers: 2,
        max_request_duration: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let addr = h.addr();
    client::put_query(addr, "titles", TITLES).unwrap();

    // One byte at a time, each gap under the socket read timeout: only
    // the total-duration deadline can stop this.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    writer
        .write_all(b"POST /eval/titles HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n<bib>")
        .unwrap();
    writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(450));
    let _ = writer.write_all(b"<");
    let _ = writer.flush();
    let r = client::read_response(&mut reader).unwrap();
    assert_eq!(r.status, 408, "{}", String::from_utf8_lossy(&r.body));

    // The worker is free again immediately.
    let (expected, _) = offline(TITLES, DOC);
    let r = client::eval(addr, "titles", DOC, &[], BodyMode::Sized).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, expected);
    h.shutdown();
}

#[test]
fn early_rejection_with_large_body_is_still_readable() {
    // A 404 for an unregistered query must survive a multi-megabyte body
    // already in flight (the server drains before closing, so no TCP
    // reset destroys the response).
    let h = start(ServerConfig::default());
    let addr = h.addr();
    let big = vec![b'x'; 2 * 1024 * 1024];
    let r = client::eval(addr, "ghost", &big, &[], BodyMode::Sized).unwrap();
    assert_eq!(r.status, 404);
    assert!(String::from_utf8_lossy(&r.body).contains("no query named"));
    h.shutdown();
}

#[test]
fn shutdown_interrupts_idle_keepalive_connections() {
    // With no read timeout at all, a worker parked on an idle keep-alive
    // connection can only exit if shutdown interrupts its wait.
    let h = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        read_timeout: None,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = h.addr();

    // Park a worker: one completed request, then the connection idles.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    writer.flush().unwrap();
    let r = client::read_response(&mut reader).unwrap();
    assert_eq!(r.status, 200);

    let started = std::time::Instant::now();
    h.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must interrupt the idle wait, took {:?}",
        started.elapsed()
    );
}

#[test]
fn registry_is_bounded() {
    let h = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_queries: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = h.addr();
    assert_eq!(client::put_query(addr, "a", TITLES).unwrap().status, 201);
    assert_eq!(client::put_query(addr, "b", TITLES).unwrap().status, 201);
    let r = client::put_query(addr, "c", TITLES).unwrap();
    assert_eq!(r.status, 429, "{}", String::from_utf8_lossy(&r.body));
    assert!(String::from_utf8_lossy(&r.body).contains("registry full"));
    // Replacing an existing entry is always allowed ...
    assert_eq!(client::put_query(addr, "a", TITLES).unwrap().status, 200);
    // ... and deleting frees a slot.
    let r = client::request(addr, "DELETE", "/queries/b", &[], b"", BodyMode::Sized).unwrap();
    assert_eq!(r.status, 204);
    assert_eq!(client::put_query(addr, "c", TITLES).unwrap().status, 201);
    h.shutdown();
}

#[test]
fn http10_eval_is_rejected_not_garbled() {
    use std::io::Read;

    let h = start(ServerConfig::default());
    let addr = h.addr();
    client::put_query(addr, "titles", TITLES).unwrap();
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        format!(
            "POST /eval/titles HTTP/1.0\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            DOC.len()
        )
        .as_bytes(),
    )
    .unwrap();
    s.write_all(DOC).unwrap();
    let mut wire = String::new();
    s.read_to_string(&mut wire).unwrap();
    assert!(
        wire.starts_with("HTTP/1.1 505"),
        "HTTP/1.0 peers must never receive chunked framing: {wire}"
    );
    h.shutdown();
}

#[test]
fn metrics_exposition_is_valid_prometheus() {
    let h = start(ServerConfig::default());
    let addr = h.addr();
    client::put_query(addr, "titles", TITLES).unwrap();
    let r = client::eval(addr, "titles", DOC, &[], BodyMode::Sized).unwrap();
    assert_eq!(r.status, 200);

    // The response reaches the wire a hair before the worker folds its
    // counters in; poll for the eval to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let text = loop {
        let r = client::get(addr, "/metrics").unwrap();
        assert_eq!(r.status, 200);
        assert!(
            r.header("content-type")
                .is_some_and(|v| v.contains("version=0.0.4")),
            "exposition content type: {:?}",
            r.header("content-type")
        );
        let text = String::from_utf8(r.body).unwrap();
        if text.contains("gcx_eval_runs_total 1") {
            break text;
        }
        assert!(std::time::Instant::now() < deadline, "eval never landed");
        std::thread::sleep(Duration::from_millis(20));
    };

    // Format validation: every line is a HELP/TYPE comment or a
    // `name{labels} value` sample with a numeric value.
    for line in text.lines() {
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line:?}");
    }
    for needle in [
        "# TYPE gcx_request_duration_microseconds histogram",
        "gcx_request_duration_microseconds_bucket{outcome=\"2xx\",le=\"+Inf\"}",
        "gcx_query_evals_total{query=\"titles\"} 1",
        "gcx_workers 4",
        "gcx_admission_wait_microseconds_count",
        "gcx_eval_peak_buffer_bytes_bucket",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The /stats JSON grew per-query eval counts and integer uptime.
    let r = client::get(addr, "/stats").unwrap();
    let stats = String::from_utf8(r.body).unwrap();
    assert!(
        stats.contains("\"per_query\":{\"titles\":1}"),
        "per-query counts in /stats: {stats}"
    );
    assert!(stats.contains("\"uptime_secs\":"), "{stats}");
    h.shutdown();
}

#[test]
fn trace_ids_flow_end_to_end() {
    let h = start(ServerConfig::default());
    let addr = h.addr();
    client::put_query(addr, "titles", TITLES).unwrap();

    // A well-formed client id is propagated verbatim: response header,
    // trailer, both.
    let r = client::eval(
        addr,
        "titles",
        DOC,
        &[("X-Gcx-Trace-Id", "req-abc.123")],
        BodyMode::Sized,
    )
    .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-gcx-trace-id"), Some("req-abc.123"));
    assert_eq!(r.trailer("x-gcx-trace-id"), Some("req-abc.123"));

    // No client id: the server mints one (16 hex digits).
    let r = client::eval(addr, "titles", DOC, &[], BodyMode::Sized).unwrap();
    let minted = r
        .header("x-gcx-trace-id")
        .expect("generated id")
        .to_string();
    assert_eq!(minted.len(), 16, "{minted}");
    assert!(minted.bytes().all(|b| b.is_ascii_hexdigit()), "{minted}");
    assert_eq!(r.trailer("x-gcx-trace-id"), Some(minted.as_str()));

    // A malformed id (header-splitting material) is replaced, never echoed.
    let r = client::eval(
        addr,
        "titles",
        DOC,
        &[("X-Gcx-Trace-Id", "bad id?")],
        BodyMode::Sized,
    )
    .unwrap();
    let replaced = r.header("x-gcx-trace-id").expect("replacement id");
    assert_ne!(replaced, "bad id?");
    assert!(
        replaced
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"._-".contains(&b)),
        "{replaced}"
    );

    // Error responses carry the id too.
    let r = client::eval(
        addr,
        "ghost",
        DOC,
        &[("X-Gcx-Trace-Id", "lost-req-7")],
        BodyMode::Sized,
    )
    .unwrap();
    assert_eq!(r.status, 404);
    assert_eq!(r.header("x-gcx-trace-id"), Some("lost-req-7"));
    h.shutdown();
}

#[test]
fn malformed_body_framing_gets_a_400_not_a_reset() {
    use std::io::Read;

    let h = start(ServerConfig::default());
    let addr = h.addr();
    client::put_query(addr, "titles", TITLES).unwrap();
    for req in [
        // Unparseable Content-Length.
        "POST /eval/titles HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n",
        // Broken chunk-size line.
        "POST /eval/titles HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
    ] {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(req.as_bytes()).unwrap();
        let mut wire = String::new();
        s.read_to_string(&mut wire).unwrap();
        assert!(
            wire.starts_with("HTTP/1.1 400"),
            "bad framing must get a response, got: {wire:?}"
        );
    }
    h.shutdown();
}

/// Q8's shape: a value join the classifier marks `document`.
const JOIN_QUERY: &str = "for $p in /site/people/person return \
     for $t in /site/closed_auctions/closed_auction return \
       if ($t/buyer/@person = $p/@id) then $p/name else ()";

#[test]
fn admission_policy_rejects_document_class_queries() {
    let h = start(ServerConfig {
        admission_class: Some(gcx_analyze::StreamClass::PerItem),
        ..ServerConfig::default()
    });
    let addr = h.addr();

    // Streaming query: admitted, class reported.
    let r = client::put_query(addr, "titles", TITLES).unwrap();
    assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.body));
    assert_eq!(r.header("x-gcx-streamability"), Some("per-item"));

    // Document-class join: refused with diagnostics, nothing registered.
    let r = client::put_query(addr, "join", JOIN_QUERY).unwrap();
    assert_eq!(r.status, 422, "{}", String::from_utf8_lossy(&r.body));
    assert_eq!(r.header("x-gcx-streamability"), Some("document"));
    let body = String::from_utf8_lossy(&r.body);
    assert!(
        body.contains("exceeds the server's `per-item` admission cap"),
        "{body}"
    );
    assert!(body.contains("GCX-JOIN"), "{body}");
    let r = client::get(addr, "/queries").unwrap();
    assert_eq!(String::from_utf8_lossy(&r.body), "titles\n");
    // The refused name does not evaluate.
    let r = client::eval(addr, "join", DOC, &[], BodyMode::Sized).unwrap();
    assert_eq!(r.status, 404);
    h.shutdown();
}

#[test]
fn default_policy_admits_everything_and_reports_class() {
    let h = start(ServerConfig::default());
    let addr = h.addr();
    let r = client::put_query(addr, "join", JOIN_QUERY).unwrap();
    assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.body));
    assert_eq!(r.header("x-gcx-streamability"), Some("document"));
    // The warning rides along in the body, after the confirmation line.
    let body = String::from_utf8_lossy(&r.body);
    assert!(body.starts_with("compiled query \"join\"\n"), "{body}");
    assert!(body.contains("warning: [GCX-JOIN]"), "{body}");
    h.shutdown();
}
