//! SSE conformance: streams carry the lifecycle in order, rider streams
//! filter, and a slow consumer falls behind with exactly the `missed`
//! accounting the in-process [`EventCursor`] reports — the writer is
//! never blocked by a stuck socket.
//!
//! [`EventCursor`]: ptrider_core::EventCursor

mod common;

use common::{json_u64, service_with, start, Client};
use ptrider_core::{EngineConfig, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed SSE frame.
#[derive(Clone, Debug)]
struct Frame {
    event: String,
    data: String,
}

/// Opens `GET /events` on a raw socket and returns a frame iterator.
fn open_stream(addr: std::net::SocketAddr, query: &str) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let raw = format!("GET /events{query} HTTP/1.1\r\nhost: x\r\n\r\n");
    stream.write_all(raw.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    // Skip the response head.
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("head line");
        assert!(!line.is_empty(), "stream closed before the head completed");
        if line == "\r\n" {
            break;
        }
        if line.starts_with("HTTP/1.1") {
            assert!(line.contains("200"), "unexpected status: {line}");
        }
    }
    reader
}

/// Reads frames until `stop` returns true or the stream ends.
fn read_frames(
    reader: &mut BufReader<TcpStream>,
    mut stop: impl FnMut(&[Frame]) -> bool,
) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut event = String::new();
    let mut data = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return frames,
            Ok(_) => {}
            Err(_) => return frames,
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if let Some(rest) = trimmed.strip_prefix("event: ") {
            event = rest.to_string();
        } else if let Some(rest) = trimmed.strip_prefix("data: ") {
            data = rest.to_string();
        } else if trimmed.is_empty() && !event.is_empty() {
            frames.push(Frame {
                event: std::mem::take(&mut event),
                data: std::mem::take(&mut data),
            });
            if stop(&frames) {
                return frames;
            }
        }
    }
}

#[test]
fn a_rider_stream_carries_its_lifecycle_in_order() {
    // The rider responds at now = 1.0, so the offer TTL is pinned: a zero
    // TTL from the environment would expire the offer first.
    let mut handle = start(
        service_with(
            ServiceConfig::default().with_offer_ttl_secs(300.0),
            EngineConfig::default(),
        ),
        |c| c,
    );
    let addr = handle.addr();
    let mut client = Client::connect(addr);

    let offer = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":4,"now":0.0}"#),
    );
    let session = json_u64(&offer.body, "session");
    let request = json_u64(&offer.body, "request");

    // Open the rider's stream, then confirm: the stream replays the
    // retained history (submitted, offered) and then sees the new event.
    let mut stream = open_stream(
        addr,
        &format!("?session={session}&request={request}&limit=4"),
    );
    let confirmed = client.request(
        "POST",
        &format!("/sessions/{session}/respond"),
        Some(r#"{"decision":"choose","option":0,"now":1.0}"#),
    );
    assert_eq!(confirmed.status, 200);
    let vehicle = json_u64(&confirmed.body, "vehicle");
    let moved = client.request(
        "POST",
        &format!("/vehicles/{vehicle}/location"),
        Some(r#"{"location":1,"travelled":500.0}"#),
    );
    assert_eq!(moved.status, 200, "{}", moved.body);
    let pickup = client.request("POST", &format!("/vehicles/{vehicle}/arrived"), None);
    assert_eq!(pickup.status, 200);
    assert!(pickup.body.contains("picked_up"), "{}", pickup.body);

    let frames = read_frames(&mut stream, |f| f.len() >= 4);
    let names: Vec<&str> = frames.iter().map(|f| f.event.as_str()).collect();
    assert_eq!(
        names,
        vec!["submitted", "offered", "confirmed", "picked_up"],
        "frames: {frames:?}"
    );
    // Every data payload is valid JSON carrying this session's ids.
    for frame in &frames {
        let v = ptrider_server::Json::parse(&frame.data)
            .unwrap_or_else(|e| panic!("{}: bad JSON ({e}): {}", frame.event, frame.data));
        if frame.event != "picked_up" {
            assert_eq!(
                v.get("session").and_then(ptrider_server::Json::as_u64),
                Some(session)
            );
        } else {
            assert_eq!(
                v.get("request").and_then(ptrider_server::Json::as_u64),
                Some(request)
            );
        }
    }
    handle.shutdown();
}

#[test]
fn a_fleet_stream_sees_other_riders_a_rider_stream_does_not() {
    let mut handle = start(common::service(), |c| c);
    let addr = handle.addr();
    let mut client = Client::connect(addr);

    let first = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":3,"now":0.0}"#),
    );
    let first_session = json_u64(&first.body, "session");
    let second = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":2,"destination":4,"now":0.0}"#),
    );
    let second_session = json_u64(&second.body, "session");
    assert_ne!(first_session, second_session);

    // Fleet stream: both sessions' histories.
    let mut fleet = open_stream(addr, "?limit=5");
    let frames = read_frames(&mut fleet, |f| f.len() >= 5);
    let sessions: Vec<Option<u64>> = frames
        .iter()
        .map(|f| {
            ptrider_server::Json::parse(&f.data)
                .ok()
                .and_then(|v| v.get("session").and_then(ptrider_server::Json::as_u64))
        })
        .collect();
    assert!(sessions.contains(&Some(first_session)));
    assert!(sessions.contains(&Some(second_session)));

    // Rider stream for the first session: never the second's events.
    let mut rider = open_stream(addr, &format!("?session={first_session}&limit=2"));
    let frames = read_frames(&mut rider, |f| f.len() >= 2);
    for frame in &frames {
        let v = ptrider_server::Json::parse(&frame.data).unwrap();
        assert_eq!(
            v.get("session").and_then(ptrider_server::Json::as_u64),
            Some(first_session),
            "leaked frame: {frame:?}"
        );
    }
    handle.shutdown();
}

#[test]
fn a_slow_consumer_misses_exactly_what_the_cursor_api_reports() {
    // A tiny event log forces eviction quickly.
    let service = service_with(
        ServiceConfig::default().with_event_capacity(8),
        EngineConfig::default(),
    );
    // A long poll interval plays the slow consumer: the whole burst lands
    // inside one of the SSE loop's sleeps.
    let mut handle = start(std::sync::Arc::clone(&service), |c| {
        c.with_sse_poll(Duration::from_millis(400))
    });
    let addr = handle.addr();

    // The in-process reference: a cursor subscribed now, polled after the
    // burst, reports how many events eviction took from it.
    let mut reference = service.subscribe();

    // The wire consumer subscribes at the same log position but sleeps
    // through the burst.
    let mut stream = open_stream(addr, "");

    // Burst far past the capacity while the consumer sleeps. Every event
    // lands through the service API, so the writer clearly never blocks
    // on the slow stream.
    let mut client = Client::connect(addr);
    for i in 0..40u32 {
        let origin = 1 + (i % 3);
        let destination = origin + 2;
        let r = client.request(
            "POST",
            "/rides",
            Some(&format!(
                r#"{{"origin":{origin},"destination":{destination},"now":{}.0}}"#,
                i
            )),
        );
        assert_eq!(r.status, 200, "{}", r.body);
    }

    // Give the SSE loop a moment to poll and observe the eviction, then
    // read what it produced.
    std::thread::sleep(Duration::from_millis(100));
    let reference_events = service.poll_events(&mut reference);
    let reference_missed = reference.missed();
    assert!(
        reference_missed > 0,
        "the burst must overflow the 8-slot log"
    );

    let frames = read_frames(&mut stream, |f| {
        // Stop once we have seen a missed frame and at least one event.
        f.iter().any(|fr| fr.event == "missed") && f.len() >= 2
    });
    let missed_frame = frames
        .iter()
        .find(|f| f.event == "missed")
        .unwrap_or_else(|| panic!("no missed frame in {frames:?}"));
    let v = ptrider_server::Json::parse(&missed_frame.data).unwrap();
    let wire_missed = v
        .get("total_missed")
        .and_then(ptrider_server::Json::as_u64)
        .unwrap();

    // Parity: the wire consumer's first missed report can only differ
    // from the reference by events the SSE loop drained before the burst
    // overtook it — never more than the reference count, never zero.
    assert!(wire_missed > 0);
    assert!(
        wire_missed <= reference_missed,
        "wire reported {wire_missed} missed, reference cursor {reference_missed}"
    );
    // Both observers agree on the log's totals.
    assert!(reference_events.len() <= 8);
    handle.shutdown();
}
