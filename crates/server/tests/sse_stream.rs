//! SSE conformance: streams carry the lifecycle in order, rider streams
//! filter, and a slow consumer falls behind with exactly the `missed`
//! accounting the in-process [`EventCursor`] reports — the writer is
//! never blocked by a stuck socket.
//!
//! [`EventCursor`]: ptrider_core::EventCursor

mod common;

use common::{service_with, start, READ_TIMEOUT};
use ptrider_core::{EngineConfig, ServiceConfig};
use ptrider_server::client::{open_sse, read_sse_frames, Client};
use std::io;
use std::time::Duration;

#[test]
fn a_rider_stream_carries_its_lifecycle_in_order() -> io::Result<()> {
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
    let mut client = Client::connect(addr, READ_TIMEOUT)?;

    let offer = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":4,"now":0.0}"#),
    )?;
    let session = offer.u64_field("session").expect("session");
    let request = offer.u64_field("request").expect("request");

    // Open the rider's stream, then confirm: the stream replays the
    // retained history (submitted, offered) and then sees the new event.
    let mut stream = open_sse(
        addr,
        &format!("?session={session}&request={request}&limit=4"),
        READ_TIMEOUT,
    )?;
    let confirmed = client.request(
        "POST",
        &format!("/sessions/{session}/respond"),
        Some(r#"{"decision":"choose","option":0,"now":1.0}"#),
    )?;
    assert_eq!(confirmed.status, 200);
    let vehicle = confirmed.u64_field("vehicle").expect("vehicle");
    let moved = client.request(
        "POST",
        &format!("/vehicles/{vehicle}/location"),
        Some(r#"{"location":1,"travelled":500.0}"#),
    )?;
    assert_eq!(moved.status, 200, "{}", moved.body);
    let pickup = client.request("POST", &format!("/vehicles/{vehicle}/arrived"), None)?;
    assert_eq!(pickup.status, 200);
    assert!(pickup.body.contains("picked_up"), "{}", pickup.body);

    let frames = read_sse_frames(&mut stream, |f| f.len() >= 4);
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
    Ok(())
}

#[test]
fn a_fleet_stream_sees_other_riders_a_rider_stream_does_not() -> io::Result<()> {
    let mut handle = start(common::service(), |c| c);
    let addr = handle.addr();
    let mut client = Client::connect(addr, READ_TIMEOUT)?;

    let first = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":1,"destination":3,"now":0.0}"#),
    )?;
    let first_session = first.u64_field("session").expect("session");
    let second = client.request(
        "POST",
        "/rides",
        Some(r#"{"origin":2,"destination":4,"now":0.0}"#),
    )?;
    let second_session = second.u64_field("session").expect("session");
    assert_ne!(first_session, second_session);

    // Fleet stream: both sessions' histories.
    let mut fleet = open_sse(addr, "?limit=5", READ_TIMEOUT)?;
    let frames = read_sse_frames(&mut fleet, |f| f.len() >= 5);
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
    let mut rider = open_sse(
        addr,
        &format!("?session={first_session}&limit=2"),
        READ_TIMEOUT,
    )?;
    let frames = read_sse_frames(&mut rider, |f| f.len() >= 2);
    for frame in &frames {
        let v = ptrider_server::Json::parse(&frame.data).unwrap();
        assert_eq!(
            v.get("session").and_then(ptrider_server::Json::as_u64),
            Some(first_session),
            "leaked frame: {frame:?}"
        );
    }
    handle.shutdown();
    Ok(())
}

#[test]
fn a_slow_consumer_misses_exactly_what_the_cursor_api_reports() -> io::Result<()> {
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
    let mut stream = open_sse(addr, "", READ_TIMEOUT)?;

    // Burst far past the capacity while the consumer sleeps. Every event
    // lands through the service API, so the writer clearly never blocks
    // on the slow stream.
    let mut client = Client::connect(addr, READ_TIMEOUT)?;
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
        )?;
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

    let frames = read_sse_frames(&mut stream, |f| {
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
    Ok(())
}
