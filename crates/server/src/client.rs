//! A minimal blocking HTTP/1.1 client for the loopback tests and the
//! repository benchmark's `server_loopback` workload.
//!
//! The one non-trivial property: the request body is written from a
//! scoped thread while the response is read on the caller's thread. The
//! eval endpoint streams its result *while the document is still
//! arriving*, so a client that sends everything before reading anything
//! would deadlock with the server once both TCP windows fill.

use crate::http::{read_line, BodyReader, MAX_HEAD_BYTES};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A fully received response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The whole body.
    pub body: Vec<u8>,
    /// Chunked trailers, names lowercased (the eval stats live here).
    pub trailers: Vec<(String, String)>,
}

impl Response {
    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of trailer `name` (lowercase).
    pub fn trailer(&self, name: &str) -> Option<&str> {
        self.trailers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse a numeric trailer (the `X-Gcx-*` measurements).
    pub fn trailer_u64(&self, name: &str) -> Option<u64> {
        self.trailer(name)?.parse().ok()
    }
}

/// How to put the request body on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyMode {
    /// `Content-Length` framing.
    Sized,
    /// Chunked transfer-encoding, split into `chunk_size`-byte chunks.
    Chunked {
        /// Bytes per chunk.
        chunk_size: usize,
    },
}

/// One request/response exchange on a fresh connection, with the default
/// control-plane read timeout (2 minutes).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    mode: BodyMode,
) -> io::Result<Response> {
    request_with_timeout(
        addr,
        method,
        path,
        headers,
        body,
        mode,
        Duration::from_secs(120),
    )
}

/// [`request`] with an explicit socket read timeout. The eval endpoint
/// streams results of heavyweight queries (a load test may hold N
/// concurrent XMark Q8 evaluations on one loopback server), so its reads
/// legitimately stall far longer than any control-plane exchange.
#[allow(clippy::too_many_arguments)]
pub fn request_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    mode: BodyMode,
    read_timeout: Duration,
) -> io::Result<Response> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(read_timeout)).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(64 * 1024, stream);

    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: gcx\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    match mode {
        BodyMode::Sized => head.push_str(&format!("Content-Length: {}\r\n", body.len())),
        BodyMode::Chunked { .. } => head.push_str("Transfer-Encoding: chunked\r\n"),
    }
    head.push_str("Connection: close\r\n\r\n");

    std::thread::scope(|scope| -> io::Result<Response> {
        let send = scope.spawn(move || -> io::Result<()> {
            writer.write_all(head.as_bytes())?;
            match mode {
                BodyMode::Sized => writer.write_all(body)?,
                BodyMode::Chunked { chunk_size } => {
                    for chunk in body.chunks(chunk_size.max(1)) {
                        write!(writer, "{:x}\r\n", chunk.len())?;
                        writer.write_all(chunk)?;
                        writer.write_all(b"\r\n")?;
                    }
                    writer.write_all(b"0\r\n\r\n")?;
                }
            }
            writer.flush()
        });
        let response = read_response(&mut reader);
        // A response can arrive while the body is still in flight (an
        // early rejection); the writer then dies on a broken pipe, which
        // is expected and must not mask the response.
        let sent = send.join().expect("sender panicked");
        match response {
            Ok(r) => Ok(r),
            Err(e) => {
                sent?;
                Err(e)
            }
        }
    })
}

/// Read a complete response (head, body, trailers) off the connection.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut line = loop {
        let line = read_line(reader, MAX_HEAD_BYTES)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no response"))?;
        let text = String::from_utf8(line).map_err(|_| bad("non-UTF-8 status line".into()))?;
        // Skip interim responses (100 Continue).
        if text.starts_with("HTTP/1.1 100") || text.starts_with("HTTP/1.0 100") {
            let blank = read_line(reader, MAX_HEAD_BYTES)?;
            if blank.as_deref() != Some(b"".as_slice()) {
                return Err(bad("malformed 100 Continue".into()));
            }
            continue;
        }
        break text;
    };
    if !line.starts_with("HTTP/1.") || line.len() < 12 {
        return Err(bad(format!("bad status line {line:?}")));
    }
    line = line.split_off(9); // strip "HTTP/1.x "
    let status: u16 = line
        .split(' ')
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| bad(format!("bad status in {line:?}")))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, MAX_HEAD_BYTES)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "EOF in headers"))?;
        if line.is_empty() {
            break;
        }
        let line = String::from_utf8(line).map_err(|_| bad("non-UTF-8 header".into()))?;
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let mut body = Vec::new();
    let mut trailers = Vec::new();
    if find("transfer-encoding").is_some_and(|v| v.to_ascii_lowercase().contains("chunked")) {
        let mut r = BodyReader::chunked(reader);
        r.read_to_end(&mut body)?;
        trailers = r.take_trailers();
    } else if let Some(len) = find("content-length") {
        let len: u64 = len
            .parse()
            .map_err(|_| bad(format!("bad content-length {len:?}")))?;
        let mut r = BodyReader::sized(reader, len);
        r.read_to_end(&mut body)?;
    } else {
        // No framing: body runs to connection close.
        reader.read_to_end(&mut body)?;
    }
    Ok(Response {
        status,
        headers,
        body,
        trailers,
    })
}

/// `GET path` convenience.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, &[], b"", BodyMode::Sized)
}

/// `PUT /queries/{name}` convenience.
pub fn put_query(addr: SocketAddr, name: &str, query: &str) -> io::Result<Response> {
    request(
        addr,
        "PUT",
        &format!("/queries/{name}"),
        &[],
        query.as_bytes(),
        BodyMode::Sized,
    )
}

/// `POST /eval/{name}` convenience.
pub fn eval(
    addr: SocketAddr,
    name: &str,
    doc: &[u8],
    headers: &[(&str, &str)],
    mode: BodyMode,
) -> io::Result<Response> {
    // Eval responses stream while heavyweight queries evaluate: give them
    // the long leash, not the control-plane default.
    request_with_timeout(
        addr,
        "POST",
        &format!("/eval/{name}"),
        headers,
        doc,
        mode,
        Duration::from_secs(600),
    )
}
