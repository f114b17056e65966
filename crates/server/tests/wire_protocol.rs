//! Wire-protocol conformance: the full ride lifecycle over real
//! sockets, typed statuses for every malformed input, backpressure
//! shedding, keep-alive pipelining, and graceful shutdown — all without
//! a single server-side panic (a panic would poison the service and turn
//! later requests into 503s, so the suite implicitly asserts it too).

mod common;

use common::{service, service_with, start, READ_TIMEOUT};
use ptrider_core::{EngineConfig, ServiceConfig};
use ptrider_server::client::Client;
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn the_full_lifecycle_runs_over_the_wire() -> io::Result<()> {
    // The rider responds at now = 1.0, so the offer TTL is pinned: a zero
    // TTL from the environment would expire the offer first.
    let mut handle = start(
        service_with(
            ServiceConfig::default().with_offer_ttl_secs(300.0),
            EngineConfig::default(),
        ),
        |c| c,
    );
    let mut client = Client::connect(handle.addr(), READ_TIMEOUT)?;

    // Submit: vertex 1 → 4 gets an offer from the vehicle at vertex 0.
    let offer = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":4,"riders":1,"now":0.0}"#),
    )?;
    assert_eq!(offer.status, 200, "{}", offer.body);
    let session = offer.u64_field("session").expect("session");
    assert!(offer.body.contains("\"options\":[{"), "{}", offer.body);

    // The session is visible.
    let state = client.request("GET", &format!("/sessions/{session}"), None)?;
    assert_eq!(state.status, 200);
    assert!(state.body.contains("\"offered\""), "{}", state.body);

    // Confirm option 0.
    let confirmed = client.request(
        "POST",
        &format!("/sessions/{session}/respond"),
        Some(r#"{"decision":"choose","option":0,"now":1.0}"#),
    )?;
    assert_eq!(confirmed.status, 200, "{}", confirmed.body);
    assert!(
        confirmed.body.contains("\"confirmed\""),
        "{}",
        confirmed.body
    );
    let vehicle = confirmed.u64_field("vehicle").expect("vehicle");

    // Drive the vehicle through pickup and dropoff: move it to the stop's
    // vertex, then serve the stop.
    let moved = client.request(
        "POST",
        &format!("/vehicles/{vehicle}/location"),
        Some(r#"{"location":1,"travelled":500.0}"#),
    )?;
    assert_eq!(moved.status, 200, "{}", moved.body);
    let pickup = client.request("POST", &format!("/vehicles/{vehicle}/arrived"), None)?;
    assert_eq!(pickup.status, 200);
    assert!(pickup.body.contains("picked_up"), "{}", pickup.body);
    let moved = client.request(
        "POST",
        &format!("/vehicles/{vehicle}/location"),
        Some(r#"{"location":4,"travelled":1500.0}"#),
    )?;
    assert_eq!(moved.status, 200, "{}", moved.body);
    let dropoff = client.request("POST", &format!("/vehicles/{vehicle}/arrived"), None)?;
    assert!(dropoff.body.contains("dropped_off"), "{}", dropoff.body);

    // A second response to the same session is a typed conflict.
    let double = client.request(
        "POST",
        &format!("/sessions/{session}/respond"),
        Some(r#"{"decision":"decline","now":2.0}"#),
    )?;
    assert_eq!(double.status, 409, "{}", double.body);

    // Metrics report the server's own counters.
    let metrics = client.request("GET", "/metrics", None)?;
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .body
            .contains("ptrider_server_connections_accepted_total"),
        "server counters missing from exposition"
    );
    assert!(metrics
        .body
        .contains("ptrider_service_requests_submitted_total 1"));

    assert!(handle.shutdown(), "drain must complete");
    Ok(())
}

#[test]
fn session_lifecycle_errors_have_typed_statuses() -> io::Result<()> {
    let mut handle = start(service(), |c| c);
    let mut client = Client::connect(handle.addr(), READ_TIMEOUT)?;

    // Unknown session.
    let r = client.request("GET", "/sessions/999", None)?;
    assert_eq!(r.status, 404);
    let r = client.request(
        "POST",
        "/sessions/999/respond",
        Some(r#"{"decision":"decline"}"#),
    )?;
    assert_eq!(r.status, 404);

    // Unknown option on a real session.
    let offer = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":4,"now":0.0}"#),
    )?;
    let session = offer.u64_field("session").expect("session");
    let r = client.request(
        "POST",
        &format!("/sessions/{session}/respond"),
        Some(r#"{"decision":"choose","option":42,"now":0.0}"#),
    )?;
    assert_eq!(r.status, 404, "{}", r.body);

    // A response after the deadline is 410 Gone.
    let r = client.request(
        "POST",
        &format!("/sessions/{session}/respond"),
        Some(r#"{"decision":"choose","option":0,"now":100000.0}"#),
    )?;
    assert_eq!(r.status, 410, "{}", r.body);

    // Validation failures are 400.
    let r = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":1,"now":0.0}"#),
    )?;
    assert_eq!(r.status, 400, "{}", r.body);
    let r = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":99999,"now":0.0}"#),
    )?;
    assert_eq!(r.status, 400, "{}", r.body);

    // Unknown vehicle is 404.
    let r = client.request("POST", "/vehicles/77/arrived", None)?;
    assert_eq!(r.status, 404, "{}", r.body);

    handle.shutdown();
    Ok(())
}

#[test]
fn malformed_requests_get_4xx_and_the_server_survives() -> io::Result<()> {
    let mut handle = start(service(), |c| c);
    let addr = handle.addr();

    let cases: Vec<(&[u8], u16)> = vec![
        // Garbage instead of a request line.
        (b"\x01\x02\x03garbage\r\n\r\n".as_slice(), 400),
        // Unsupported version.
        (b"GET / HTTP/3.0\r\n\r\n".as_slice(), 505),
        // Malformed header.
        (
            b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n".as_slice(),
            400,
        ),
        // Bad content-length.
        (
            b"POST /rides HTTP/1.1\r\ncontent-length: banana\r\n\r\n".as_slice(),
            400,
        ),
        // Declared body over the cap.
        (
            b"POST /rides HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n".as_slice(),
            413,
        ),
        // Chunked is refused, not mis-framed.
        (
            b"POST /rides HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n".as_slice(),
            501,
        ),
    ];
    for (raw, want) in cases {
        let mut client = Client::connect(addr, READ_TIMEOUT)?;
        let resp = client.send_raw(raw)?;
        assert_eq!(resp.status, want, "for {:?}", String::from_utf8_lossy(raw));
    }

    // Bad method and bad path on a healthy connection.
    let mut client = Client::connect(addr, READ_TIMEOUT)?;
    let r = client.request("DELETE", "/rides", None)?;
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));
    let mut client = Client::connect(addr, READ_TIMEOUT)?;
    let r = client.request("GET", "/no/such/route", None)?;
    assert_eq!(r.status, 404);

    // Bad JSON bodies are 400 with a reason.
    let mut client = Client::connect(addr, READ_TIMEOUT)?;
    let r = client.request("POST", "/rides", Some("{not json"))?;
    assert_eq!(r.status, 400);
    assert!(r.body.contains("bad JSON"), "{}", r.body);
    // A leading zero is off RFC 8259's number grammar.
    let mut client = Client::connect(addr, READ_TIMEOUT)?;
    let r = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":2,"riders":01,"now":0.0}"#),
    )?;
    assert_eq!(r.status, 400);
    assert!(r.body.contains("bad JSON"), "{}", r.body);

    // An oversized *actual* body (content-length honest) still 413s.
    let mut client = Client::connect(addr, READ_TIMEOUT)?;
    let big = "x".repeat(128 * 1024);
    let r = client.request("POST", "/rides", Some(&big))?;
    assert_eq!(r.status, 413);

    // After all that abuse the server still works.
    let mut client = Client::connect(addr, READ_TIMEOUT)?;
    let r = client.request("GET", "/healthz", None)?;
    assert_eq!(r.status, 200);
    handle.shutdown();
    Ok(())
}

#[test]
fn a_slow_loris_is_cut_off_with_408() -> io::Result<()> {
    let mut handle = start(service(), |c| {
        c.with_read_timeout(Duration::from_millis(300))
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Trickle a request head slower than the budget allows.
    stream.write_all(b"GET /healthz").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    stream.write_all(b" HTTP/1.1\r\nhost:").unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let _ = stream.write_all(b" x\r\n\r\n");
    let mut client = Client::from_stream(stream);
    let resp = client.read_response()?;
    assert_eq!(resp.status, 408);
    handle.shutdown();
    Ok(())
}

#[test]
fn pipelined_keep_alive_requests_are_answered_in_order() -> io::Result<()> {
    let mut handle = start(service(), |c| c);
    let mut client = Client::connect(handle.addr(), READ_TIMEOUT)?;
    // Two requests in one write; responses must come back one by one.
    let raw =
        b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\nGET /sessions/12345 HTTP/1.1\r\nhost: x\r\n\r\n";
    let first = client.send_raw(raw)?;
    assert_eq!(first.status, 200);
    let second = client.read_response()?;
    assert_eq!(second.status, 404);
    // The connection is still usable.
    let third = client.request("GET", "/healthz", None)?;
    assert_eq!(third.status, 200);
    handle.shutdown();
    Ok(())
}

#[test]
fn connections_past_the_cap_are_shed_with_retry_after() -> io::Result<()> {
    let mut handle = start(service(), |c| c.with_max_conns(2));
    let addr = handle.addr();
    // Two occupants hold their connections open with real requests.
    let mut a = Client::connect(addr, READ_TIMEOUT)?;
    assert_eq!(a.request("GET", "/healthz", None)?.status, 200);
    let mut b = Client::connect(addr, READ_TIMEOUT)?;
    assert_eq!(b.request("GET", "/healthz", None)?.status, 200);
    // The third is shed — 503 with Retry-After, never a hang.
    let mut c = Client::connect(addr, READ_TIMEOUT)?;
    let resp = c.request("GET", "/healthz", None)?;
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.header("retry-after").is_some());
    // Capacity frees up once an occupant leaves.
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut d = Client::connect(addr, READ_TIMEOUT)?;
        let resp = d.request("GET", "/healthz", None)?;
        if resp.status == 200 {
            break;
        }
        assert_eq!(resp.status, 503);
        assert!(
            std::time::Instant::now() < deadline,
            "capacity never freed after a disconnect"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    Ok(())
}

#[test]
fn shutdown_drains_and_flushes_the_journal() -> io::Result<()> {
    use ptrider_core::{Journal, JournalConfig, PtRider, RideService};
    use std::sync::Arc;
    // The rider responds at now = 0.5; pin the TTL so a zero TTL from the
    // environment cannot expire the offer first.
    let service_config = ServiceConfig::default().with_offer_ttl_secs(300.0);
    let dir = std::env::temp_dir().join(format!("ptrider-wire-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let fingerprint = {
        let journal = Journal::create(&dir, JournalConfig::default()).unwrap();
        let engine = PtRider::new(
            common::line_net(),
            common::line_grid(),
            EngineConfig::default(),
        );
        let service = Arc::new(
            RideService::from_engine(engine)
                .with_service_config(service_config)
                .with_journal(journal),
        );
        let mut handle = start(Arc::clone(&service), |c| c);
        let mut client = Client::connect(handle.addr(), READ_TIMEOUT)?;
        // Everything — including the fleet — arrives over the wire, so
        // every state transition the server acknowledges is journaled.
        let vehicle = client.request("POST", "/vehicles", Some(r#"{"location":0}"#))?;
        assert_eq!(vehicle.status, 201, "{}", vehicle.body);
        let offer = client.request(
            "POST",
            "/rides",
            Some(r#"{"origin":1,"destination":4,"now":0.0}"#),
        )?;
        assert_eq!(offer.status, 200, "{}", offer.body);
        let session = offer.u64_field("session").expect("session");
        let confirmed = client.request(
            "POST",
            &format!("/sessions/{session}/respond"),
            Some(r#"{"decision":"choose","option":0,"now":0.5}"#),
        )?;
        assert_eq!(confirmed.status, 200, "{}", confirmed.body);
        assert!(handle.shutdown(), "drain must complete");
        service.fingerprint()
    };

    // A recovered service sees exactly the state the server acknowledged.
    let engine = PtRider::new(
        common::line_net(),
        common::line_grid(),
        EngineConfig::default(),
    );
    let recovered = RideService::recover(engine, service_config, &dir, JournalConfig::default())
        .expect("recovery");
    assert_eq!(recovered.fingerprint(), fingerprint, "bit-identical state");
    assert_eq!(recovered.num_vehicles(), 1);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
