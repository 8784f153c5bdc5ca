//! Sans-IO evaluation: push document bytes into an `EvalSession` as they
//! "arrive" and stream results back out between chunks.
//!
//! ```text
//! cargo run --example push_session
//! ```
//!
//! The engine never sees a `Read` or `Write`: the caller owns both sides.
//! This is the exact shape an async server (or any event loop) uses — on
//! every readable socket event, feed the bytes, drain the output. A fed
//! chunk is tokenized where it lies, in the caller's buffer: the session
//! copies only a token the chunk's end cuts (the spillover), and carries
//! that across the boundary.

use gcx::{CompiledQuery, EngineOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let query = CompiledQuery::compile(
        "<books>{ for $b in /bib/book return
             if (exists($b/price)) then $b/title else () }</books>",
    )?;

    let document = "<bib>\
        <book><title>Streaming XQuery</title><price>10</price></book>\
        <article><title>not a book</title></article>\
        <book><title>Buffer Minimization</title><price>12</price></book>\
        <book><title>no price, no output</title></book>\
        </bib>";

    let mut session = query.session(&EngineOptions::gcx());
    let mut result = Vec::new();

    // Simulate network arrival: 24-byte chunks, boundaries landing wherever
    // they land (mid-tag, mid-text — the session does not care).
    for (i, chunk) in document.as_bytes().chunks(24).enumerate() {
        let emitted = session.feed(chunk)?;
        let drained = session.take_output(&mut result)?;
        println!(
            "chunk {i:>2}: fed {:>2} bytes, max spillover {:>2}, drained {drained} output bytes{}",
            chunk.len(),
            session.max_pending_bytes(),
            if emitted.done { " (done)" } else { "" },
        );
    }

    let report = session.finish()?;
    session.take_output(&mut result)?;

    println!("\nresult: {}", String::from_utf8_lossy(&result));
    println!(
        "tokens: {}   peak buffered nodes: {}   feed calls: {}   max spillover: {} bytes",
        report.tokens, report.buffer.peak_live, report.feed_calls, report.max_pending_bytes
    );
    assert_eq!(report.buffer.live, 0, "buffer drains to the virtual root");
    Ok(())
}
