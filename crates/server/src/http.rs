//! A deliberately small HTTP/1.1 reader/writer over blocking sockets.
//!
//! This is not a general HTTP implementation — it supports exactly what
//! the PTRider wire protocol needs: request line + headers + an optional
//! `Content-Length` body, keep-alive, and typed failure modes. Every
//! malformed input maps to a 4xx, never a panic:
//!
//! * head larger than the configured cap → `431`
//! * body larger than the configured cap → `413`
//! * `Transfer-Encoding: chunked` → `501` (not implemented, by design)
//! * a request that trickles in past the read budget (slow loris) → `408`
//! * anything unparsable → `400`
//!
//! The reader distinguishes a *mid-request* stall (reported as `408`)
//! from an *idle* keep-alive connection going quiet (closed silently):
//! the read budget only starts once the first byte of a request arrives.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One parsed request.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// The method token, upper-cased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target, percent-decoding not
    /// applied (the wire protocol uses plain segments only).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of the (lower-case) header `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of the query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open after the
    /// response (HTTP/1.1 defaults to yes).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => !v.eq_ignore_ascii_case("close"),
            None => true,
        }
    }
}

/// A typed protocol failure: the status to report and whether the
/// connection is still usable afterwards (it never is — every parse
/// failure closes, because framing may be lost).
#[derive(Clone, Debug)]
pub struct HttpError {
    /// HTTP status code to send.
    pub status: u16,
    /// Human-readable detail for the JSON error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// What one read attempt on a connection produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(HttpRequest),
    /// The peer closed (or went idle past the budget) between requests —
    /// close silently, nothing to respond to.
    Closed,
    /// A protocol failure — respond with the error, then close.
    Bad(HttpError),
}

/// Caps and budgets for reading one request.
#[derive(Clone, Copy, Debug)]
pub struct ReadLimits {
    /// Request-line + headers cap in bytes (`431` past it).
    pub max_head: usize,
    /// Body cap in bytes (`413` past it).
    pub max_body: usize,
    /// Budget from the first byte of a request to its last (`408`).
    pub read_timeout: Duration,
    /// How long the connection may idle before the first byte.
    pub idle_timeout: Duration,
}

/// A tiny buffered reader over `&TcpStream` that understands the
/// idle/mid-request timeout split.
pub struct ConnReader<'a> {
    stream: &'a TcpStream,
    buf: [u8; 4096],
    pos: usize,
    len: usize,
}

impl<'a> ConnReader<'a> {
    /// Wraps a stream. The reader owns buffering; do not read from the
    /// stream elsewhere while it is alive.
    pub fn new(stream: &'a TcpStream) -> ConnReader<'a> {
        ConnReader {
            stream,
            buf: [0; 4096],
            pos: 0,
            len: 0,
        }
    }

    /// Refills the buffer, honouring `deadline` when set. Returns
    /// `Ok(false)` on EOF.
    fn fill(&mut self, deadline: Option<Instant>) -> std::io::Result<bool> {
        debug_assert_eq!(self.pos, self.len);
        if let Some(deadline) = deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "read budget"));
            }
            self.stream.set_read_timeout(Some(remaining))?;
        }
        let mut stream = self.stream;
        match stream.read(&mut self.buf) {
            Ok(0) => Ok(false),
            Ok(n) => {
                self.pos = 0;
                self.len = n;
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }

    fn next_byte(&mut self, deadline: Option<Instant>) -> std::io::Result<Option<u8>> {
        if self.pos == self.len && !self.fill(deadline)? {
            return Ok(None);
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(Some(b))
    }

    /// Reads one request. `limits.idle_timeout` governs the wait for the
    /// first byte; from then on the whole request must arrive within
    /// `limits.read_timeout`.
    pub fn read_request(&mut self, limits: &ReadLimits) -> ReadOutcome {
        // Phase 1: wait for the first byte under the idle budget.
        if self.pos == self.len {
            if self
                .stream
                .set_read_timeout(Some(limits.idle_timeout))
                .is_err()
            {
                return ReadOutcome::Closed;
            }
            match self.fill(None) {
                Ok(true) => {}
                Ok(false) => return ReadOutcome::Closed,
                Err(e) if is_timeout(&e) => return ReadOutcome::Closed,
                Err(_) => return ReadOutcome::Closed,
            }
        }
        // Phase 2: the request clock is running.
        let deadline = Instant::now() + limits.read_timeout;
        let mut head = Vec::with_capacity(256);
        loop {
            match self.next_byte(Some(deadline)) {
                Ok(Some(b)) => head.push(b),
                Ok(None) => {
                    return ReadOutcome::Bad(HttpError::new(400, "connection closed mid-request"))
                }
                Err(e) if is_timeout(&e) => {
                    return ReadOutcome::Bad(HttpError::new(408, "request head timed out"))
                }
                Err(_) => return ReadOutcome::Closed,
            }
            if head.ends_with(b"\r\n\r\n") {
                break;
            }
            if head.len() > limits.max_head {
                return ReadOutcome::Bad(HttpError::new(431, "request head too large"));
            }
        }
        let head = match std::str::from_utf8(&head) {
            Ok(s) => s,
            Err(_) => return ReadOutcome::Bad(HttpError::new(400, "request head is not UTF-8")),
        };
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() => {
                (m.to_string(), t.to_string(), v)
            }
            _ => return ReadOutcome::Bad(HttpError::new(400, "malformed request line")),
        };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return ReadOutcome::Bad(HttpError::new(505, "unsupported HTTP version"));
        }
        if !method.bytes().all(|b| b.is_ascii_alphabetic()) {
            return ReadOutcome::Bad(HttpError::new(400, "malformed method token"));
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return ReadOutcome::Bad(HttpError::new(400, "malformed header line"));
            };
            if name.is_empty() || name.contains(' ') {
                return ReadOutcome::Bad(HttpError::new(400, "malformed header name"));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        let (path, query) = parse_target(&target);

        // Body framing.
        if headers
            .iter()
            .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
        {
            return ReadOutcome::Bad(HttpError::new(501, "chunked bodies are not supported"));
        }
        let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
            Some((_, v)) => match v.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return ReadOutcome::Bad(HttpError::new(400, "bad content-length")),
            },
            None => 0,
        };
        if content_length > limits.max_body {
            return ReadOutcome::Bad(HttpError::new(413, "request body too large"));
        }
        let mut body = Vec::with_capacity(content_length);
        while body.len() < content_length {
            match self.next_byte(Some(deadline)) {
                Ok(Some(b)) => body.push(b),
                Ok(None) => {
                    return ReadOutcome::Bad(HttpError::new(400, "connection closed mid-body"))
                }
                Err(e) if is_timeout(&e) => {
                    return ReadOutcome::Bad(HttpError::new(408, "request body timed out"))
                }
                Err(_) => return ReadOutcome::Closed,
            }
        }
        ReadOutcome::Request(HttpRequest {
            method,
            path,
            query,
            headers,
            body,
        })
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        Some((path, query)) => {
            let params = query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (kv.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), params)
        }
        None => (target.to_string(), Vec::new()),
    }
}

/// A response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers (`Retry-After`, ...).
    pub extra_headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": ...}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            ptrider_core::json::object(|o| {
                o.field("error", message);
            }),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.extra_headers.push((name.to_string(), value));
        self
    }
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serialises `response` onto the stream. `keep_alive` controls the
/// `Connection` header; the write runs under the stream's write timeout
/// (set by the caller).
pub fn write_response(
    mut stream: &TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn limits() -> ReadLimits {
        ReadLimits {
            max_head: 1024,
            max_body: 1024,
            read_timeout: Duration::from_millis(400),
            idle_timeout: Duration::from_millis(400),
        }
    }

    /// Feeds raw bytes through a real socket pair and parses them.
    fn parse(raw: &[u8]) -> ReadOutcome {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(raw).unwrap();
        drop(client);
        let mut reader = ConnReader::new(&server);
        reader.read_request(&limits())
    }

    #[test]
    fn a_simple_get_parses() {
        let out = parse(b"GET /sessions/7?limit=3 HTTP/1.1\r\nHost: x\r\n\r\n");
        match out {
            ReadOutcome::Request(req) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/sessions/7");
                assert_eq!(req.query_param("limit"), Some("3"));
                assert!(req.keep_alive());
            }
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn a_body_is_framed_by_content_length() {
        let out = parse(b"POST /rides HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd");
        match out {
            ReadOutcome::Request(req) => assert_eq!(req.body, b"abcd"),
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn malformed_inputs_map_to_typed_statuses() {
        let cases: Vec<(&[u8], u16)> = vec![
            (b"GARBAGE\r\n\r\n".as_slice(), 400),
            (b"GET /x HTTP/2.0\r\n\r\n".as_slice(), 505),
            (b"G@T /x HTTP/1.1\r\n\r\n".as_slice(), 400),
            (b"GET /x HTTP/1.1\r\nbad header\r\n\r\n".as_slice(), 400),
            (
                b"POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n".as_slice(),
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\ncontent-length: 99999\r\n\r\n".as_slice(),
                413,
            ),
            (
                b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".as_slice(),
                501,
            ),
        ];
        for (raw, want) in cases {
            match parse(raw) {
                ReadOutcome::Bad(e) => assert_eq!(e.status, want, "for {raw:?}"),
                other => panic!("expected {want} for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_oversized_head_is_431() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("long: {}\r\n\r\n", "v".repeat(2048)).as_bytes());
        match parse(&raw) {
            ReadOutcome::Bad(e) => assert_eq!(e.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn a_truncated_request_is_400_not_a_hang() {
        match parse(b"GET /x HT") {
            ReadOutcome::Bad(e) => assert_eq!(e.status, 400),
            other => panic!("expected 400, got {other:?}"),
        }
    }

    #[test]
    fn an_idle_connection_closes_silently() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut reader = ConnReader::new(&server);
        match reader.read_request(&limits()) {
            ReadOutcome::Closed => {}
            other => panic!("expected a silent close, got {other:?}"),
        }
    }

    #[test]
    fn a_slow_loris_times_out_with_408() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let writer = std::thread::spawn(move || {
            for chunk in [b"GET ".as_slice(), b"/slow".as_slice()] {
                let _ = client.write_all(chunk);
                std::thread::sleep(Duration::from_millis(300));
            }
            // Never finish the request; hold the socket open past the
            // server's budget.
            std::thread::sleep(Duration::from_millis(600));
            drop(client);
        });
        let mut reader = ConnReader::new(&server);
        match reader.read_request(&limits()) {
            ReadOutcome::Bad(e) => assert_eq!(e.status, 408),
            other => panic!("expected 408, got {other:?}"),
        }
        writer.join().unwrap();
    }
}
