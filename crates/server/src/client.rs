//! A minimal blocking HTTP/1.1 client for tests, release gates and load
//! tools.
//!
//! It mirrors the server's [`http`](crate::http) framing on the other side
//! of the socket: `Content-Length`-framed requests over a keep-alive
//! connection, plus a tiny SSE frame reader. It uses only `std`.
//! Everything returns `io::Result`, so a load tool can treat a shed (503 +
//! close) or reaped connection as data; tests propagate it with `?`.

use ptrider_core::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body, `Content-Length` framed.
    pub body: String,
}

impl ClientResponse {
    /// Looks a header up case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Top-level member `key` of a JSON object body, as a non-negative
    /// integer (`None` when the body does not parse, the key is absent or
    /// the value is not an integer).
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        Json::parse(&self.body).ok()?.get(key)?.as_u64()
    }
}

/// A keep-alive client connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects with a read timeout so a wedged server shows up as an
    /// error, never a hang.
    pub fn connect(addr: SocketAddr, read_timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Wraps a stream the caller already wrote to directly (its read
    /// timeout is left as set).
    pub fn from_stream(stream: TcpStream) -> Client {
        Client { stream }
    }

    /// Sends one request and reads one response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        self.request_with_headers(method, path, body, &[])
    }

    /// [`Client::request`] with extra request headers — tracing callers
    /// send `traceparent` / `x-request-id` through this.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        let mut raw = format!(
            "{method} {path} HTTP/1.1\r\nhost: ptrider\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        raw.push_str("\r\n");
        raw.push_str(body);
        self.send_raw(raw.as_bytes())
    }

    /// Sends `raw` bytes verbatim, then reads one response.
    pub fn send_raw(&mut self, raw: &[u8]) -> io::Result<ClientResponse> {
        self.stream.write_all(raw)?;
        self.read_response()
    }

    /// Reads one response (a pipelined one, or one to bytes written
    /// before [`Client::from_stream`]).
    pub fn read_response(&mut self) -> io::Result<ClientResponse> {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            match self.stream.read(&mut byte)? {
                1 => head.push(byte[0]),
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ))
                }
            }
        }
        let head = String::from_utf8_lossy(&head).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter(|l| !l.is_empty())
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_lowercase(), v.trim().to_string()))
            .collect();
        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; length];
        self.stream.read_exact(&mut body)?;
        Ok(ClientResponse {
            status,
            headers,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

/// One parsed SSE frame.
#[derive(Clone, Debug)]
pub struct SseFrame {
    /// The `event:` name.
    pub event: String,
    /// The `data:` payload (one line of JSON).
    pub data: String,
}

/// Opens `GET /events{query}` and consumes the response head; the returned
/// reader yields raw SSE lines for [`read_sse_frames`].
pub fn open_sse(
    addr: SocketAddr,
    query: &str,
    read_timeout: Duration,
) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    let raw = format!("GET /events{query} HTTP/1.1\r\nhost: ptrider\r\n\r\n");
    (&stream).write_all(raw.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed before the head completed",
            ));
        }
        if line.starts_with("HTTP/1.1") && !line.contains("200") {
            return Err(io::Error::other(format!("SSE refused: {}", line.trim())));
        }
        if line == "\r\n" {
            return Ok(reader);
        }
    }
}

/// Reads frames until `stop` says enough or the stream ends (EOF, server
/// close, or read timeout all end the stream — never a hang).
pub fn read_sse_frames(
    reader: &mut BufReader<TcpStream>,
    mut stop: impl FnMut(&[SseFrame]) -> bool,
) -> Vec<SseFrame> {
    let mut frames = Vec::new();
    let mut event = String::new();
    let mut data = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return frames,
            Ok(_) => {}
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if let Some(rest) = trimmed.strip_prefix("event: ") {
            event = rest.to_string();
        } else if let Some(rest) = trimmed.strip_prefix("data: ") {
            data = rest.to_string();
        } else if trimmed.is_empty() && !event.is_empty() {
            frames.push(SseFrame {
                event: std::mem::take(&mut event),
                data: std::mem::take(&mut data),
            });
            if stop(&frames) {
                return frames;
            }
        }
    }
}
