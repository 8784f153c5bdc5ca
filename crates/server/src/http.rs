//! Minimal HTTP/1.1 plumbing on `std` alone: request-head parsing,
//! streaming body readers (`Content-Length` and chunked transfer-encoding),
//! and chunked response writing with trailers.
//!
//! This is deliberately not a general HTTP implementation — it covers
//! exactly what the GCX service needs, with the property the service is
//! built around: **bodies are never materialized**. The eval path borrows
//! request-body bytes straight out of the connection buffer through
//! [`BodyReader::fill`]/[`BodyReader::consume`] (push mode — the handler
//! feeds them to the sans-IO engine session; no `Read` adapter wraps the
//! body) and writes the result through [`DeferredBody`] (chunked output
//! that starts flowing while the document is still arriving), so a
//! request's resident memory is the GCX buffer, not the document. The
//! `io::Read` impl on [`BodyReader`] remains for small bodies (query
//! registration) and best-effort drains.

use std::cell::Cell;
use std::io::{self, BufRead, Read, Write};

thread_local! {
    /// Status of the last response this thread started writing (0 =
    /// none). Workers serve one request at a time, so recording the
    /// status at the write site and reading it back in the connection
    /// loop classifies the outcome without threading a status code
    /// through every handler signature.
    static LAST_STATUS: Cell<u16> = const { Cell::new(0) };
}

/// Take (and reset) the last status this thread wrote.
pub(crate) fn take_last_status() -> u16 {
    LAST_STATUS.with(|c| c.replace(0))
}

fn note_status(status: u16) {
    LAST_STATUS.with(|c| c.set(status));
}

/// Upper bound on the request line + headers, total.
pub const MAX_HEAD_BYTES: usize = 32 * 1024;

/// Upper bound on a chunked body's whole trailer section.
pub const MAX_TRAILER_BYTES: usize = 8 * 1024;

/// A parsed request line plus headers (names lowercased).
#[derive(Debug)]
pub struct RequestHead {
    /// Request method, uppercase (`GET`, `PUT`, ...).
    pub method: String,
    /// Request target as sent (path only; no scheme/authority support).
    pub target: String,
    /// `HTTP/1.1` or `HTTP/1.0`.
    pub version: String,
    /// Header fields in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
}

impl RequestHead {
    /// First value of the header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange
    /// (HTTP/1.1 defaults to keep-alive, 1.0 to close).
    pub fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        if self.version == "HTTP/1.0" {
            conn.eq_ignore_ascii_case("keep-alive")
        } else {
            !conn.eq_ignore_ascii_case("close")
        }
    }

    /// Whether the client asked for a `100 Continue` before sending the
    /// body (curl does for large uploads).
    pub fn expects_continue(&self) -> bool {
        self.header("expect")
            .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read one CRLF- (or LF-)terminated line without the terminator, bounded
/// by `limit` bytes. `Ok(None)` on clean EOF before any byte.
pub(crate) fn read_line<R: BufRead>(r: &mut R, limit: usize) -> io::Result<Option<Vec<u8>>> {
    let mut line = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                ))
            };
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            // The limit must hold however the bytes were fragmented: a
            // line that fits in one buffered chunk is no more welcome
            // than one that arrived split.
            if line.len() + pos > limit {
                return Err(bad_data("header line too long"));
            }
            line.extend_from_slice(&buf[..pos]);
            r.consume(pos + 1);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(line));
        }
        line.extend_from_slice(buf);
        let n = buf.len();
        r.consume(n);
        if line.len() > limit {
            return Err(bad_data("header line too long"));
        }
    }
}

/// Parse a request head off the connection. `Ok(None)` when the peer
/// closed the connection cleanly between requests (keep-alive end).
pub fn read_request_head<R: BufRead>(r: &mut R) -> io::Result<Option<RequestHead>> {
    let Some(line) = read_line(r, MAX_HEAD_BYTES)? else {
        return Ok(None);
    };
    let line = String::from_utf8(line).map_err(|_| bad_data("non-UTF-8 request line"))?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => {
            (m.to_ascii_uppercase(), t.to_string(), v.to_string())
        }
        _ => return Err(bad_data(format!("malformed request line: {line:?}"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(bad_data(format!("unsupported HTTP version {version:?}")));
    }
    let mut headers = Vec::new();
    let mut budget = MAX_HEAD_BYTES;
    loop {
        let line = read_line(r, budget)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF in headers"))?;
        if line.is_empty() {
            break;
        }
        budget = budget.saturating_sub(line.len());
        if budget == 0 {
            return Err(bad_data("request head too large"));
        }
        let line = String::from_utf8(line).map_err(|_| bad_data("non-UTF-8 header"))?;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad_data(format!("malformed header: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Some(RequestHead {
        method,
        target,
        version,
        headers,
    }))
}

/// How the request body is framed on the wire.
#[derive(Debug)]
enum BodyKind {
    Empty,
    Sized {
        remaining: u64,
    },
    Chunked {
        remaining: u64,
        /// Before the first chunk-size line (which has no preceding CRLF).
        first: bool,
        done: bool,
    },
}

/// Streaming body reader: an `io::Read` over the message body that stops
/// exactly at the body's end, leaving the connection positioned at the
/// next request. Chunked trailers are collected (the client side reads
/// the engine's stats out of them).
pub struct BodyReader<'a, R: BufRead> {
    inner: &'a mut R,
    kind: BodyKind,
    trailers: Vec<(String, String)>,
    /// Set once any read fails: the stream is desynchronized and further
    /// reads (e.g. a best-effort drain) would only stall on the socket.
    poisoned: bool,
}

impl<'a, R: BufRead> BodyReader<'a, R> {
    /// Body framing from a request head (RFC 9112 §6: chunked wins over
    /// Content-Length; neither means no body).
    pub fn for_request(head: &RequestHead, inner: &'a mut R) -> io::Result<BodyReader<'a, R>> {
        if head
            .header("transfer-encoding")
            .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
        {
            return Ok(BodyReader::chunked(inner));
        }
        match head.header("content-length") {
            Some(v) => {
                let n: u64 = v
                    .parse()
                    .map_err(|_| bad_data(format!("bad Content-Length {v:?}")))?;
                Ok(BodyReader::sized(inner, n))
            }
            None => Ok(BodyReader {
                inner,
                kind: BodyKind::Empty,
                trailers: Vec::new(),
                poisoned: false,
            }),
        }
    }

    /// A body of exactly `len` bytes.
    pub fn sized(inner: &'a mut R, len: u64) -> BodyReader<'a, R> {
        BodyReader {
            inner,
            kind: BodyKind::Sized { remaining: len },
            trailers: Vec::new(),
            poisoned: false,
        }
    }

    /// A chunked-transfer-encoded body.
    pub fn chunked(inner: &'a mut R) -> BodyReader<'a, R> {
        BodyReader {
            inner,
            kind: BodyKind::Chunked {
                remaining: 0,
                first: true,
                done: false,
            },
            trailers: Vec::new(),
            poisoned: false,
        }
    }

    /// True once a read has failed — the remaining body is unreadable and
    /// must not be drained or reused.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Trailer fields (chunked bodies only), available after EOF.
    pub fn take_trailers(&mut self) -> Vec<(String, String)> {
        std::mem::take(&mut self.trailers)
    }

    /// True once the whole body (and, for chunked, its trailers) has been
    /// consumed — the connection is reusable for the next request.
    pub fn fully_consumed(&self) -> bool {
        match self.kind {
            BodyKind::Empty => true,
            BodyKind::Sized { remaining } => remaining == 0,
            BodyKind::Chunked { done, .. } => done,
        }
    }

    /// Parse the next chunk-size line; returns the chunk length.
    fn next_chunk(&mut self, first: bool) -> io::Result<u64> {
        if !first {
            // The CRLF that terminates the previous chunk's data.
            let sep = read_line(self.inner, 16)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF in chunk"))?;
            if !sep.is_empty() {
                return Err(bad_data("missing CRLF after chunk data"));
            }
        }
        let line = read_line(self.inner, 1024)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF in chunk size"))?;
        let line = String::from_utf8(line).map_err(|_| bad_data("non-UTF-8 chunk size"))?;
        let size = line.split(';').next().unwrap_or("").trim();
        u64::from_str_radix(size, 16).map_err(|_| bad_data(format!("bad chunk size {size:?}")))
    }

    /// Consume trailer lines after the terminal chunk. The whole trailer
    /// section shares one byte budget: the server never *uses* request
    /// trailers, so an uncapped section would be free memory growth for
    /// any client.
    fn read_trailers(&mut self) -> io::Result<()> {
        let mut budget = MAX_TRAILER_BYTES;
        loop {
            let line = read_line(self.inner, budget)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF in trailers"))?;
            if line.is_empty() {
                return Ok(());
            }
            budget = budget
                .checked_sub(line.len() + 2)
                .ok_or_else(|| bad_data("trailer section too large"))?;
            if let Ok(line) = String::from_utf8(line) {
                if let Some((name, value)) = line.split_once(':') {
                    self.trailers
                        .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
                }
            }
        }
    }
}

impl<R: BufRead> Read for BodyReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.read_body(buf) {
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
            ok => ok,
        }
    }
}

impl<R: BufRead> BodyReader<'_, R> {
    /// Push-mode access: borrow the next run of body bytes straight out of
    /// the connection's read buffer — no copy, no `Read` adapter. An empty
    /// slice means the body is complete (for chunked bodies, the trailers
    /// were consumed too). Follow with [`BodyReader::consume`] for however
    /// many of the returned bytes were actually used.
    ///
    /// This is the wire side of the sans-IO eval path: the handler feeds
    /// the returned slice to the engine session as it arrives, so the
    /// document is never wrapped in a blocking reader.
    pub fn fill(&mut self) -> io::Result<&[u8]> {
        // Poison on failure like `read`: a failed body is desynchronized
        // and must not be drained or reused. (Two-step shape: computing
        // the usable length first lets the error arm mutate `self`, then
        // the connection buffer — already filled, so this is a plain
        // re-borrow, not a second read — is sliced for the caller.)
        let n = match self.fill_len() {
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
            Ok(n) => n,
        };
        if n == 0 {
            return Ok(&[]);
        }
        let chunk = self.inner.fill_buf()?;
        Ok(&chunk[..n])
    }

    /// How many body bytes the connection buffer currently holds (filling
    /// it if empty, decoding chunk framing as needed). 0 = body complete.
    fn fill_len(&mut self) -> io::Result<usize> {
        loop {
            match &mut self.kind {
                BodyKind::Empty => return Ok(0),
                BodyKind::Sized { remaining } => {
                    if *remaining == 0 {
                        return Ok(0);
                    }
                    let want = *remaining;
                    let chunk = self.inner.fill_buf()?;
                    if chunk.is_empty() {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-body",
                        ));
                    }
                    return Ok((chunk.len() as u64).min(want) as usize);
                }
                BodyKind::Chunked {
                    remaining,
                    first,
                    done,
                } => {
                    if *done {
                        return Ok(0);
                    }
                    if *remaining == 0 {
                        let first_chunk = *first;
                        let len = self.next_chunk(first_chunk)?;
                        if let BodyKind::Chunked {
                            remaining,
                            first,
                            done,
                        } = &mut self.kind
                        {
                            *first = false;
                            if len == 0 {
                                *done = true;
                            } else {
                                *remaining = len;
                            }
                        }
                        if len == 0 {
                            self.read_trailers()?;
                            return Ok(0);
                        }
                        continue;
                    }
                    let want = *remaining;
                    let chunk = self.inner.fill_buf()?;
                    if chunk.is_empty() {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-chunk",
                        ));
                    }
                    return Ok((chunk.len() as u64).min(want) as usize);
                }
            }
        }
    }

    /// Mark `n` bytes of the last [`BodyReader::fill`] slice as used.
    pub fn consume(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.inner.consume(n);
        match &mut self.kind {
            BodyKind::Empty => unreachable!("consume on an empty body"),
            BodyKind::Sized { remaining } | BodyKind::Chunked { remaining, .. } => {
                debug_assert!(n as u64 <= *remaining, "consume past the fill slice");
                *remaining -= n as u64;
            }
        }
    }
}

impl<R: BufRead> BodyReader<'_, R> {
    /// The pull (`io::Read`) path, built on the same push-mode framing
    /// decoder ([`BodyReader::fill_len`]/[`BodyReader::consume`]) so the
    /// sized/chunked state machine exists exactly once.
    fn read_body(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let avail = self.fill_len()?;
        if avail == 0 {
            return Ok(0);
        }
        let want = avail.min(buf.len());
        let chunk = self.inner.fill_buf()?;
        buf[..want].copy_from_slice(&chunk[..want]);
        self.consume(want);
        Ok(want)
    }
}

/// Read a whole (small) body into memory, rejecting anything over `limit`
/// bytes — used for query registration, never for documents.
pub fn read_body_limited<R: BufRead>(
    head: &RequestHead,
    inner: &mut R,
    limit: usize,
) -> io::Result<Option<Vec<u8>>> {
    let mut body = BodyReader::for_request(head, inner)?;
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = body.read(&mut chunk)?;
        if n == 0 {
            return Ok(Some(out));
        }
        out.extend_from_slice(&chunk[..n]);
        if out.len() > limit {
            return Ok(None);
        }
    }
}

/// Write a complete, sized response — in one `write`: the peer is an
/// unbuffered socket with `TCP_NODELAY`, where every fragment would be a
/// system call, a segment and a wake-up of the reader.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    note_status(status);
    let mut wire = Vec::with_capacity(256 + body.len());
    write!(wire, "HTTP/1.1 {status} {reason}\r\n")?;
    write!(wire, "Content-Length: {}\r\n", body.len())?;
    if !extra_headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("content-type"))
    {
        write!(wire, "Content-Type: text/plain; charset=utf-8\r\n")?;
    }
    for (name, value) in extra_headers {
        write!(wire, "{name}: {value}\r\n")?;
    }
    if close {
        write!(wire, "Connection: close\r\n")?;
    }
    write!(wire, "\r\n")?;
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()
}

/// Chunked response writer that withholds the status line until the run
/// proves it can produce output.
///
/// Output bytes buffer up to `threshold`; the first overflow **commits**
/// the prepared `200` head and starts streaming chunks. A run that fails
/// before the commit (compile-stage errors, early parse errors, a tripped
/// buffer budget) can therefore still get a clean `4xx`/`5xx` status on
/// the same connection. A run that fails after streaming began is
/// terminated with an `X-Gcx-Error` trailer instead — the status line is
/// long gone.
pub struct DeferredBody<W: Write> {
    out: W,
    /// The prepared success head, written verbatim at commit time.
    head: Vec<u8>,
    /// `room` spare bytes, then the output not yet sent. `out` is an
    /// unbuffered socket with `TCP_NODELAY`: head, chunk size, chunk,
    /// terminal chunk and trailers written piece by piece are some thirty
    /// system calls and segments a response, each waking the client.
    /// Framed in place around the output, each flush is one write.
    buf: Vec<u8>,
    /// Spare bytes at the front of `buf`: the head and a chunk-size line.
    room: usize,
    threshold: usize,
    committed: bool,
}

/// The longest chunk-size line: sixteen hex digits, CR, LF.
const SIZE_LINE: usize = 18;

impl<W: Write> DeferredBody<W> {
    /// Wrap `out`; `head` is the full success head (status line + headers
    /// + blank line) to emit on commit.
    pub fn new(out: W, head: Vec<u8>, threshold: usize) -> DeferredBody<W> {
        let room = head.len() + SIZE_LINE;
        let mut buf = Vec::with_capacity(room + threshold.min(64 * 1024));
        buf.resize(room, 0);
        DeferredBody {
            out,
            head,
            buf,
            room,
            threshold,
            committed: false,
        }
    }

    /// Whether the success head has been sent (point of no return).
    pub fn committed(&self) -> bool {
        self.committed
    }

    /// Frame the buffered output as one chunk, in place — behind the head
    /// if that has not gone out — and return where in `buf` the frame
    /// begins. Commits: the frame is written next.
    fn frame(&mut self) -> usize {
        let mut start = self.room;
        let len = self.buf.len() - self.room;
        if len > 0 {
            let mut line = [0u8; SIZE_LINE];
            let mut rest = &mut line[..];
            write!(rest, "{len:x}\r\n").expect("a usize in hex fits");
            let line_len = SIZE_LINE - rest.len();
            start -= line_len;
            self.buf[start..self.room].copy_from_slice(&line[..line_len]);
            self.buf.extend_from_slice(b"\r\n");
        }
        if !self.committed {
            note_status(200);
            start -= self.head.len();
            self.buf[start..start + self.head.len()].copy_from_slice(&self.head);
            self.committed = true;
        }
        start
    }

    fn send(&mut self, start: usize) -> io::Result<()> {
        let sent = self.out.write_all(&self.buf[start..]);
        self.buf.truncate(self.room);
        sent
    }

    /// Successful completion: emit everything plus the terminal chunk and
    /// `trailers`, and return the underlying writer for connection reuse.
    pub fn finish(mut self, trailers: &[(&str, String)]) -> io::Result<W> {
        let start = self.frame();
        self.buf.extend_from_slice(b"0\r\n");
        for (name, value) in trailers {
            write!(self.buf, "{name}: {value}\r\n")?;
        }
        self.buf.extend_from_slice(b"\r\n");
        self.send(start)?;
        self.out.flush()?;
        Ok(self.out)
    }

    /// Failure before commit: discard the buffered output and hand the
    /// pristine writer back so the caller can send a real error status.
    /// Failure after commit: terminate the chunked body with an
    /// `X-Gcx-Error` trailer (the caller must close the connection, since
    /// a truncated result would otherwise look complete).
    pub fn fail(mut self, error: &str) -> io::Result<Option<W>> {
        if !self.committed {
            return Ok(Some(self.out));
        }
        self.buf.truncate(self.room);
        let sanitized: String = error
            .chars()
            .map(|c| if c == '\r' || c == '\n' { ' ' } else { c })
            .collect();
        write!(self.buf, "0\r\nX-Gcx-Error: {sanitized}\r\n\r\n")?;
        self.send(self.room)?;
        self.out.flush()?;
        Ok(None)
    }
}

impl<W: Write> Write for DeferredBody<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() - self.room >= self.threshold {
            let start = self.frame();
            self.send(start)?;
        }
        Ok(data.len())
    }

    /// Push committed bytes to the socket. Deliberately a no-op before the
    /// commit: the engine flushes once at the end of a run, and honoring
    /// that flush early would forfeit the clean-error window.
    fn flush(&mut self) -> io::Result<()> {
        if self.committed {
            if self.buf.len() > self.room {
                let start = self.frame();
                self.send(start)?;
            }
            self.out.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn head_of(raw: &str) -> RequestHead {
        read_request_head(&mut Cursor::new(raw.as_bytes()))
            .unwrap()
            .unwrap()
    }

    #[test]
    fn parses_request_heads() {
        let h = head_of("POST /eval/q1 HTTP/1.1\r\nHost: x\r\nX-Gcx-Engine: gcx\r\n\r\n");
        assert_eq!(h.method, "POST");
        assert_eq!(h.target, "/eval/q1");
        assert_eq!(h.header("x-gcx-engine"), Some("gcx"));
        assert!(h.keep_alive(), "HTTP/1.1 defaults to keep-alive");
        assert!(!h.expects_continue());

        let h = head_of("GET / HTTP/1.1\r\nConnection: close\r\nExpect: 100-continue\r\n\r\n");
        assert!(!h.keep_alive());
        assert!(h.expects_continue());

        let h = head_of("GET / HTTP/1.0\r\n\r\n");
        assert!(!h.keep_alive(), "HTTP/1.0 defaults to close");
    }

    #[test]
    fn eof_between_requests_is_clean() {
        assert!(read_request_head(&mut Cursor::new(b"")).unwrap().is_none());
    }

    #[test]
    fn malformed_heads_are_invalid_data() {
        for raw in [
            "GET\r\n\r\n",
            "GET / HTTP/2\r\n\r\n",
            "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        ] {
            let err = read_request_head(&mut Cursor::new(raw.as_bytes())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{raw:?}");
        }
    }

    #[test]
    fn sized_body_stops_at_the_boundary() {
        let head = head_of("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\n");
        let mut wire = Cursor::new(b"hellonext-request".to_vec());
        let mut body = BodyReader::for_request(&head, &mut wire).unwrap();
        let mut got = Vec::new();
        body.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"hello");
        assert!(body.fully_consumed());
        let mut rest = Vec::new();
        wire.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"next-request", "reader positioned at next request");
    }

    #[test]
    fn chunked_body_decodes_and_collects_trailers() {
        let head = head_of("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        let raw = b"4\r\nwiki\r\n6\r\npedia \r\nb\r\nin chunks.\n\r\n0\r\nX-Stat: 7\r\n\r\nrest";
        let mut wire = Cursor::new(raw.to_vec());
        let mut body = BodyReader::for_request(&head, &mut wire).unwrap();
        let mut got = Vec::new();
        body.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"wikipedia in chunks.\n");
        assert!(body.fully_consumed());
        assert_eq!(body.take_trailers(), vec![("x-stat".into(), "7".into())]);
        let mut rest = Vec::new();
        wire.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"rest");
    }

    #[test]
    fn truncated_bodies_error_instead_of_hanging() {
        let head = head_of("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n");
        let mut wire = Cursor::new(b"hi".to_vec());
        let mut body = BodyReader::for_request(&head, &mut wire).unwrap();
        let err = body.read_to_end(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn deferred_body_holds_back_until_committed() {
        // Failure before the threshold: the writer comes back pristine.
        let mut sink = Vec::new();
        let body = DeferredBody::new(&mut sink, b"HEAD".to_vec(), 1024);
        assert!(!body.committed());
        let got = body.fail("boom").unwrap();
        assert!(got.is_some(), "uncommitted failure hands the writer back");
        assert!(sink.is_empty(), "nothing reached the wire");

        // Success: head + chunked payload + trailers.
        let mut sink = Vec::new();
        let mut body = DeferredBody::new(&mut sink, b"HEAD\r\n\r\n".to_vec(), 4);
        body.write_all(b"ab").unwrap();
        assert!(!body.committed(), "below threshold stays deferred");
        body.write_all(b"cdef").unwrap();
        assert!(body.committed(), "crossing the threshold commits");
        body.write_all(b"gh").unwrap();
        body.finish(&[("X-T", "1".to_string())]).unwrap();
        let wire = String::from_utf8(sink).unwrap();
        assert_eq!(
            wire,
            "HEAD\r\n\r\n6\r\nabcdef\r\n2\r\ngh\r\n0\r\nX-T: 1\r\n\r\n"
        );
    }

    #[test]
    fn deferred_body_writes_each_frame_at_once() {
        /// Records every `write` it is handed.
        struct Segments(Vec<Vec<u8>>);
        impl Write for Segments {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.push(data.to_vec());
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let trailers = [("X-T", "1".to_string())];

        // Never committed: head, chunk, terminal chunk and trailers together.
        let mut sink = Segments(Vec::new());
        let mut body = DeferredBody::new(&mut sink, b"HEAD\r\n\r\n".to_vec(), 1024);
        body.write_all(b"abc").unwrap();
        body.finish(&trailers).unwrap();
        assert_eq!(sink.0, [b"HEAD\r\n\r\n3\r\nabc\r\n0\r\nX-T: 1\r\n\r\n"]);

        // Committed by the threshold: head + first chunk, then one write a
        // chunk, the tail riding on the last.
        let mut sink = Segments(Vec::new());
        let mut body = DeferredBody::new(&mut sink, b"HEAD\r\n\r\n".to_vec(), 4);
        body.write_all(b"abcdefghijklmnop").unwrap();
        body.write_all(b"qr").unwrap();
        body.flush().unwrap();
        body.finish(&trailers).unwrap();
        assert_eq!(
            sink.0,
            [
                &b"HEAD\r\n\r\n10\r\nabcdefghijklmnop\r\n"[..],
                b"2\r\nqr\r\n",
                b"0\r\nX-T: 1\r\n\r\n",
            ]
        );

        let mut sink = Segments(Vec::new());
        write_response(&mut sink, 404, "Not Found", &[("X-A", "b")], b"no\n", true).unwrap();
        assert_eq!(sink.0.len(), 1);
    }

    #[test]
    fn deferred_body_failure_after_commit_sends_error_trailer() {
        let mut sink = Vec::new();
        let mut body = DeferredBody::new(&mut sink, b"H\r\n\r\n".to_vec(), 2);
        body.write_all(b"output").unwrap();
        assert!(body.committed());
        let got = body.fail("mid-stream\r\nboom").unwrap();
        assert!(got.is_none(), "committed failure closes the exchange");
        let wire = String::from_utf8(sink).unwrap();
        assert!(wire.contains("X-Gcx-Error: mid-stream  boom"), "{wire}");
        assert!(wire.ends_with("\r\n\r\n"));
    }

    #[test]
    fn line_limit_holds_regardless_of_fragmentation() {
        // The whole overlong line is available in one buffered chunk;
        // the limit must still reject it.
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'x', MAX_HEAD_BYTES));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let err = read_request_head(&mut Cursor::new(raw)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailer_section_is_bounded() {
        // A "trailer bomb": terminal chunk followed by endless trailer
        // lines. The shared byte budget must cut it off.
        let mut raw = b"0\r\n".to_vec();
        for i in 0..1000 {
            raw.extend_from_slice(format!("t{i}: {}\r\n", "x".repeat(64)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let mut wire = Cursor::new(raw);
        let mut body = BodyReader::chunked(&mut wire);
        let err = body.read_to_end(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A modest trailer section still parses.
        let mut wire = Cursor::new(b"0\r\nX-Ok: 1\r\n\r\n".to_vec());
        let mut body = BodyReader::chunked(&mut wire);
        body.read_to_end(&mut Vec::new()).unwrap();
        assert_eq!(body.take_trailers(), vec![("x-ok".into(), "1".into())]);
    }

    #[test]
    fn push_fill_stops_at_the_sized_boundary() {
        let head = head_of("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\n");
        let mut wire = Cursor::new(b"hellonext-request".to_vec());
        let mut body = BodyReader::for_request(&head, &mut wire).unwrap();
        let mut got = Vec::new();
        loop {
            let n = {
                let chunk = body.fill().unwrap();
                if chunk.is_empty() {
                    break;
                }
                got.extend_from_slice(chunk);
                chunk.len()
            };
            body.consume(n);
        }
        assert_eq!(got, b"hello");
        assert!(body.fully_consumed());
        let mut rest = Vec::new();
        wire.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"next-request", "positioned at the next request");
    }

    #[test]
    fn push_fill_decodes_chunked_framing_and_trailers() {
        let head = head_of("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        let raw = b"4\r\nwiki\r\n6\r\npedia \r\nb\r\nin chunks.\n\r\n0\r\nX-Stat: 7\r\n\r\nrest";
        let mut wire = Cursor::new(raw.to_vec());
        let mut body = BodyReader::for_request(&head, &mut wire).unwrap();
        let mut got = Vec::new();
        loop {
            // Exercise partial consumption: take at most 3 bytes per fill.
            let n = {
                let chunk = body.fill().unwrap();
                if chunk.is_empty() {
                    break;
                }
                let n = chunk.len().min(3);
                got.extend_from_slice(&chunk[..n]);
                n
            };
            body.consume(n);
        }
        assert_eq!(got, b"wikipedia in chunks.\n");
        assert!(body.fully_consumed());
        assert_eq!(body.take_trailers(), vec![("x-stat".into(), "7".into())]);
        let mut rest = Vec::new();
        wire.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"rest");
    }

    #[test]
    fn push_fill_reports_truncation() {
        let head = head_of("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n");
        let mut wire = Cursor::new(b"hi".to_vec());
        let mut body = BodyReader::for_request(&head, &mut wire).unwrap();
        let n = body.fill().unwrap().len();
        body.consume(n);
        let err = body.fill().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(body.poisoned());
    }

    #[test]
    fn read_body_limited_enforces_the_cap() {
        let head = head_of("POST /x HTTP/1.1\r\nContent-Length: 6\r\n\r\n");
        let mut wire = Cursor::new(b"abcdef".to_vec());
        assert!(read_body_limited(&head, &mut wire, 3).unwrap().is_none());
        let mut wire = Cursor::new(b"abcdef".to_vec());
        assert_eq!(
            read_body_limited(&head, &mut wire, 6).unwrap().unwrap(),
            b"abcdef"
        );
    }
}
