//! Request-scoped tracing over the wire: every response echoes a
//! correlation id, a traced submit's tree is retrievable via
//! `GET /trace/{id}` covering server → service → matcher → journal,
//! inbound identities are honored, every `/debug/slow` entry resolves
//! through `GET /trace/{id}`, and the trace-drop counter shows up in
//! `/metrics`.
//!
//! This file is its own test binary with a single `#[test]` so the
//! `PTRIDER_TELEMETRY` environment flips (read at engine construction)
//! cannot race another test's service construction.

mod common;

use common::{service, start, READ_TIMEOUT};
use ptrider_server::client::Client;
use std::io;

#[test]
fn tracing_round_trips_over_the_wire() -> io::Result<()> {
    // --- Leg 1: tracing off — the correlation id is still echoed. ---
    std::env::set_var("PTRIDER_TELEMETRY", "off");
    let svc = service();
    std::env::set_var("PTRIDER_TELEMETRY", "spans");
    assert!(!svc.telemetry().tracing_enabled());
    {
        let mut handle = start(svc, |c| c);
        let mut client = Client::connect(handle.addr(), READ_TIMEOUT)?;
        let offer = client.request(
            "POST",
            "/rides",
            Some(r#"{"origin":1,"destination":4,"riders":1,"now":0.0}"#),
        )?;
        assert_eq!(offer.status, 200, "{}", offer.body);
        let rid = offer
            .header("x-request-id")
            .expect("id echoed with tracing off");
        assert_eq!(rid.len(), 16, "16-hex correlation id, got {rid:?}");
        assert!(
            offer.header("traceparent").is_none(),
            "no traceparent without a recorded root span"
        );
        // Untraced ids have no stored tree.
        let tree = client.request("GET", &format!("/trace/{rid}"), None)?;
        assert_eq!(tree.status, 404, "{}", tree.body);
        // Error responses echo an id too.
        let missing = client.request("GET", "/no/such/route", None)?;
        assert_eq!(missing.status, 404);
        assert!(missing.header("x-request-id").is_some());
        handle.shutdown();
    }

    // --- Leg 2: spans — full tree round trip. (The env was flipped to
    // `spans` above, before this construction.) ---
    let svc = service();
    std::env::remove_var("PTRIDER_TELEMETRY");
    assert!(svc.telemetry().tracing_enabled());
    let mut handle = start(svc, |c| c);
    let mut client = Client::connect(handle.addr(), READ_TIMEOUT)?;

    let offer = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":4,"riders":1,"now":0.0}"#),
    )?;
    assert_eq!(offer.status, 200, "{}", offer.body);
    let rid = offer
        .header("x-request-id")
        .expect("x-request-id echoed")
        .to_string();
    let tp = offer
        .header("traceparent")
        .expect("traceparent echoed when traced")
        .to_string();
    assert!(
        tp.starts_with("00-") && tp.contains(rid.as_str()),
        "traceparent {tp:?} names trace {rid:?}"
    );

    // The wire-minted trace is retrievable as a nested tree whose root
    // is the server's handle span, with the service submit under it.
    let tree = client.request("GET", &format!("/trace/{rid}"), None)?;
    assert_eq!(tree.status, 200, "{}", tree.body);
    assert!(tree.body.contains("\"server.handle\""), "{}", tree.body);
    assert!(tree.body.contains("\"service.submit\""), "{}", tree.body);
    assert!(tree.body.contains("\"children\""), "{}", tree.body);
    // server.handle appears as a root (before any children array closes),
    // and service.submit is nested inside some children list.
    let handle_at = tree.body.find("\"server.handle\"").unwrap();
    let submit_at = tree.body.find("\"service.submit\"").unwrap();
    assert!(
        handle_at < submit_at,
        "submit nests under the handle root: {}",
        tree.body
    );

    // An inbound traceparent is adopted: the response echoes the caller's
    // trace id and the stored tree carries it.
    let inbound = "00-00000000000000000123456789abcdef-00000000000000aa-01";
    let offer2 = client.request_with_headers(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":4,"riders":1,"now":0.0}"#),
        &[("traceparent", inbound)],
    )?;
    assert_eq!(offer2.status, 200, "{}", offer2.body);
    assert_eq!(offer2.header("x-request-id"), Some("0123456789abcdef"));
    let tree2 = client.request("GET", "/trace/0123456789abcdef", None)?;
    assert_eq!(tree2.status, 200, "{}", tree2.body);

    // A bare inbound X-Request-Id is honored as well.
    let offer3 = client.request_with_headers(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":4,"riders":1,"now":0.0}"#),
        &[("x-request-id", "00000000deadbeef")],
    )?;
    assert_eq!(offer3.header("x-request-id"), Some("00000000deadbeef"));

    // The slow log knows about the traced requests.
    let slow = client.request("GET", "/debug/slow", None)?;
    assert_eq!(slow.status, 200);
    assert!(slow.body.contains(&rid), "{} missing {rid}", slow.body);
    // The slow log is a view of the resident traces: every entry
    // resolves to its tree.
    for entry in slow.body.split("\"trace\":\"").skip(1) {
        let id = &entry[..16];
        let tree = client.request("GET", &format!("/trace/{id}"), None)?;
        assert_eq!(tree.status, 200, "slow entry {id}: {}", tree.body);
    }

    let metrics = client.request("GET", "/metrics", None)?;
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("ptrider_trace_dropped_total"));

    // The span dump carries trace ids.
    let flat = client.request("GET", "/trace", None)?;
    assert_eq!(flat.status, 200);
    assert!(flat.body.contains("\"dropped\":"), "{}", flat.body);
    assert!(flat.body.contains("\"trace\":\""), "{}", flat.body);

    // Unknown trace ids 404; malformed ones too.
    assert_eq!(
        client
            .request("GET", "/trace/fffffffffffffff1", None)?
            .status,
        404
    );
    assert_eq!(client.request("GET", "/trace/zzzz", None)?.status, 404);
    handle.shutdown();
    Ok(())
}
