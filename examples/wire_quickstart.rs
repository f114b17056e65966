//! Wire quickstart: start the HTTP front door on an ephemeral port, then
//! play both sides of the ride lifecycle over a real socket — submit a
//! ride as JSON, read the offer skyline, confirm an option, watch the
//! event stream replay the session, and scrape `/metrics`.
//!
//! The server is `ptrider::server` (a re-export of `ptrider-server`): a
//! zero-dependency HTTP/1.1 listener over `std::net` with SSE streaming,
//! Prometheus exposition, bounded backpressure and graceful shutdown. The
//! client below is plain `std::net::TcpStream` — any HTTP client works.
//!
//! Run with `cargo run --example wire_quickstart`.

use ptrider::core::json::Json;
use ptrider::datagen::{synthetic_city, CityConfig};
use ptrider::{EngineConfig, GridConfig, MatcherKind, RideService, Server, ServerConfig, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Sends one request on a keep-alive connection and returns
/// `(status, body)`.
fn request(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: quickstart\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "server closed early");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    let length: usize = head
        .lines()
        .find_map(|l| {
            l.to_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

fn main() {
    // 1. The same service every in-process example builds — then a server
    //    in front of it. Port 0 asks the OS for an ephemeral port.
    let city = synthetic_city(&CityConfig::tiny(7));
    let service = Arc::new(
        RideService::new(
            city,
            GridConfig::with_dimensions(4, 4),
            EngineConfig::paper_defaults(),
        )
        .with_matcher(MatcherKind::DualSide),
    );
    for i in [0u32, 9, 37, 55, 62, 90, 99] {
        service.add_vehicle(VertexId(i));
    }
    let mut handle =
        Server::start(service, ServerConfig::default().with_addr("127.0.0.1:0")).expect("bind");
    let addr = handle.addr();
    println!("serving on http://{addr}");

    // 2. A rider submits over the wire and reads the offer skyline.
    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, offer) = request(
        &mut client,
        "POST",
        "/rides",
        r#"{"origin":44,"destination":97,"riders":2,"now":0.0}"#,
    );
    assert_eq!(status, 200);
    // Ids are read with the same parser the server uses for its requests.
    let session = Json::parse(&offer)
        .expect("the offer is JSON")
        .get("session")
        .and_then(Json::as_u64)
        .expect("the offer names its session");
    println!("offer for session {session}: {offer}");

    // 3. The rider confirms option 0 on the same connection (keep-alive).
    let (status, confirmation) = request(
        &mut client,
        "POST",
        &format!("/sessions/{session}/respond"),
        r#"{"decision":"choose","option":0,"now":1.0}"#,
    );
    assert_eq!(status, 200);
    println!("confirmed: {confirmation}");

    // 4. The event stream replays the session's history as SSE frames.
    let mut sse = TcpStream::connect(addr).unwrap();
    sse.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sse.write_all(
        format!("GET /events?session={session}&limit=3 HTTP/1.1\r\nhost: q\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut frames = 0;
    for line in BufReader::new(sse).lines().map_while(Result::ok) {
        if let Some(event) = line.strip_prefix("event: ") {
            println!("sse frame: {event}");
            frames += 1;
            if frames == 3 {
                break;
            }
        }
    }

    // 5. Prometheus exposition, straight off the same port.
    let (status, metrics) = request(&mut client, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let served: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("ptrider_server_requests_total"))
        .collect();
    println!(
        "scraped {} metric lines, e.g. {served:?}",
        metrics.lines().count()
    );

    // 6. Graceful shutdown: drains in-flight requests, flushes the journal
    //    (when one is attached) and joins every connection thread.
    assert!(handle.shutdown());
    println!("drained and stopped");
}
