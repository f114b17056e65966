//! CI gate for the network front door: a scripted ride lifecycle over a
//! real socket on an ephemeral port, followed by a crash-recovery leg.
//!
//! The gate fails (non-zero exit) if any wire response deviates from the
//! script, if `/metrics` stops exposing the `ptrider_server_*` family, or
//! if a journal written through the server does not recover bit-identically
//! — including after a mid-commit panic injected through the process-global
//! fault plan.
//!
//! ```text
//! cargo run --release -p ptrider-bench --bin wire_smoke
//! ```

#![forbid(unsafe_code)]

use ptrider_core::{
    fault, EngineConfig, Journal, JournalConfig, PtRider, RideService, ServiceConfig,
};
use ptrider_roadnet::{GridConfig, RoadNetwork, RoadNetworkBuilder};
use ptrider_server::client::{open_sse, read_sse_frames, Client};
use ptrider_server::{Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Checks one scripted expectation; any miss fails the gate.
fn gate(ok: bool, what: &str) {
    if ok {
        println!("  ok: {what}");
    } else {
        eprintln!("wire_smoke: FAIL: {what}");
        std::process::exit(1);
    }
}

/// Unwraps a client-side I/O result; the transport failing is a gate
/// failure too (the server must never wedge or drop a well-formed client).
fn must<T, E: std::fmt::Debug>(result: Result<T, E>, what: &str) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("wire_smoke: FAIL: {what}: {e:?}");
            std::process::exit(1);
        }
    }
}

/// The 6-vertex line city every wire test drives: 500 m hops, so the
/// vehicle's schedule is fully predictable.
fn line_net() -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    let vertices: Vec<_> = (0..6)
        .map(|i| b.add_vertex(i as f64 * 500.0, 0.0))
        .collect();
    for pair in vertices.windows(2) {
        b.add_bidirectional_edge(pair[0], pair[1], 500.0);
    }
    b.build().unwrap()
}

fn journaled_service(dir: &Path) -> Arc<RideService> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let journal = Journal::create(dir, JournalConfig::default()).unwrap();
    let engine = PtRider::new(
        line_net(),
        GridConfig::with_dimensions(3, 1),
        EngineConfig::default(),
    );
    Arc::new(
        RideService::from_engine(engine)
            // Explicit TTL so the PTRIDER_OFFER_TTL_SECS=0 CI matrix row
            // cannot expire the scripted offer mid-gate.
            .with_service_config(ServiceConfig::default().with_offer_ttl_secs(1e9))
            .with_journal(journal),
    )
}

fn start_server(service: Arc<RideService>, drain: Duration) -> ServerHandle {
    let config = ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_read_timeout(Duration::from_secs(2))
        .with_idle_timeout(Duration::from_secs(10))
        .with_sse_poll(Duration::from_millis(5))
        .with_drain_timeout(drain);
    Server::start(service, config).expect("server start")
}

fn recover_fingerprint(dir: &Path) -> (u64, usize) {
    let engine = PtRider::new(
        line_net(),
        GridConfig::with_dimensions(3, 1),
        EngineConfig::default(),
    );
    // Replay under the same service configuration the live server ran
    // with — session deadlines are derived from it during replay.
    let recovered = RideService::recover(
        engine,
        ServiceConfig::default().with_offer_ttl_secs(1e9),
        dir,
        JournalConfig::default(),
    )
    .expect("recovery");
    (recovered.fingerprint(), recovered.num_vehicles())
}

/// Leg 1: the scripted lifecycle, entirely over the wire, against a
/// journaled service; returns the fingerprint the server acknowledged.
fn lifecycle_leg(dir: &Path) -> u64 {
    let service = journaled_service(dir);
    let mut handle = start_server(Arc::clone(&service), Duration::from_secs(5));
    let addr = handle.addr();
    let mut client = must(Client::connect(addr, Duration::from_secs(10)), "connect");

    let vehicle = must(
        client.request("POST", "/vehicles", Some(r#"{"location":0}"#)),
        "add vehicle",
    );
    gate(vehicle.status == 201, "POST /vehicles answers 201");
    let vehicle = vehicle.u64_field("vehicle").expect("vehicle id");

    let offer = must(
        client.request(
            "POST",
            "/rides",
            Some(r#"{"origin":1,"destination":4,"now":0.0}"#),
        ),
        "submit",
    );
    gate(offer.status == 200, "POST /rides answers 200");
    gate(
        offer.body.contains("\"options\":[{"),
        "the offer carries at least one option",
    );
    let session = offer.u64_field("session").expect("session id");
    let request = offer.u64_field("request").expect("request id");

    let state = must(
        client.request("GET", &format!("/sessions/{session}"), None),
        "session poll",
    );
    gate(
        state.status == 200 && state.body.contains("\"offered\""),
        "GET /sessions/{id} shows the offered state",
    );

    let confirmed = must(
        client.request(
            "POST",
            &format!("/sessions/{session}/respond"),
            Some(r#"{"decision":"choose","option":0,"now":1.0}"#),
        ),
        "confirm",
    );
    gate(confirmed.status == 200, "respond(choose) answers 200");

    // Drive the vehicle through pickup and dropoff; the simulator's
    // contract is location-first, arrival-second.
    for (loc, travelled, event) in [(1, 500.0, "picked_up"), (4, 1500.0, "dropped_off")] {
        let moved = must(
            client.request(
                "POST",
                &format!("/vehicles/{vehicle}/location"),
                Some(&format!(r#"{{"location":{loc},"travelled":{travelled}}}"#)),
            ),
            "location update",
        );
        gate(moved.status == 200, "location update answers 200");
        let arrived = must(
            client.request("POST", &format!("/vehicles/{vehicle}/arrived"), None),
            "arrived",
        );
        gate(
            arrived.status == 200 && arrived.body.contains(event),
            &format!("arrival at vertex {loc} reports {event}"),
        );
    }

    // The event stream replays the retained history in order.
    let mut stream = must(
        open_sse(
            addr,
            // Stop events (pickup/dropoff) carry the request id, not the
            // session id, so a rider stream filters on both.
            &format!("?session={session}&request={request}&limit=5"),
            Duration::from_secs(5),
        ),
        "open SSE stream",
    );
    let frames = read_sse_frames(&mut stream, |f| f.len() >= 5);
    let names: Vec<&str> = frames.iter().map(|f| f.event.as_str()).collect();
    gate(
        names
            == [
                "submitted",
                "offered",
                "confirmed",
                "picked_up",
                "dropped_off",
            ],
        &format!("SSE replays the lifecycle in order (got {names:?})"),
    );

    let metrics = must(client.request("GET", "/metrics", None), "metrics");
    gate(metrics.status == 200, "GET /metrics answers 200");
    for needle in [
        "ptrider_server_connections_accepted_total",
        "ptrider_server_requests_total",
        "ptrider_server_rides_latency_seconds",
        "ptrider_service_requests_submitted_total",
    ] {
        gate(
            metrics.body.contains(needle),
            &format!("/metrics exposes {needle}"),
        );
    }

    gate(handle.shutdown(), "graceful shutdown drains in-flight work");
    service.fingerprint()
}

/// Leg 2: a mid-commit panic on the respond path. The connection dies, the
/// journal keeps only acknowledged operations, and recovery is
/// deterministic: two independent replays agree bit for bit.
fn crash_leg(dir: &Path) {
    let service = journaled_service(dir);
    // A panicking connection thread never reports drain completion, so
    // keep the drain window short — shutdown must stay bounded.
    let mut handle = start_server(Arc::clone(&service), Duration::from_millis(500));
    let addr = handle.addr();
    let mut client = must(
        Client::connect(addr, Duration::from_secs(10)),
        "connect (crash leg)",
    );

    let vehicle = must(
        client.request("POST", "/vehicles", Some(r#"{"location":0}"#)),
        "add vehicle (crash leg)",
    );
    gate(vehicle.status == 201, "crash leg: vehicle registered");
    let offer = must(
        client.request(
            "POST",
            "/rides",
            Some(r#"{"origin":1,"destination":4,"now":0.0}"#),
        ),
        "submit (crash leg)",
    );
    gate(offer.status == 200, "crash leg: ride submitted");
    let session = offer.u64_field("session").expect("session id");

    // Arm a one-shot panic at the engine's mid-commit fault site, then
    // confirm: the handler thread dies with the assignment half-applied
    // in memory and *nothing* about it in the journal.
    fault::arm(fault::FaultPlan::panic_once(fault::MID_COMMIT, 0));
    let crashed = client.request(
        "POST",
        &format!("/sessions/{session}/respond"),
        Some(r#"{"decision":"choose","option":0,"now":1.0}"#),
    );
    fault::disarm();
    gate(
        !matches!(&crashed, Ok(r) if r.status == 200),
        "the mid-commit crash is never acknowledged as success",
    );

    // Shutdown stays bounded even though the crashed connection can no
    // longer report drain completion, and it still flushes the journal.
    let drained = handle.shutdown();
    println!("  ok: shutdown after crash returned (drained={drained})");

    let (first, vehicles) = recover_fingerprint(dir);
    let (second, _) = recover_fingerprint(dir);
    gate(
        first == second,
        "two replays of the crashed journal agree bit for bit",
    );
    gate(
        vehicles == 1,
        "the journaled fleet survives the crash intact",
    );
}

/// Leg 3: request-scoped tracing over the wire. Every response echoes
/// `X-Request-Id`; a traced submit's span tree comes back through
/// `GET /trace/{id}`; inbound identities are honored; the trace-drop
/// counter is exposed in `/metrics`.
fn tracing_leg() {
    // `TelemetryConfig::from_env` is read at engine construction, so the
    // flip below affects only this leg's service.
    std::env::set_var("PTRIDER_TELEMETRY", "spans");
    let engine = PtRider::new(
        line_net(),
        GridConfig::with_dimensions(3, 1),
        EngineConfig::default(),
    );
    std::env::remove_var("PTRIDER_TELEMETRY");
    let service = Arc::new(
        RideService::from_engine(engine)
            .with_service_config(ServiceConfig::default().with_offer_ttl_secs(1e9)),
    );
    gate(
        service.telemetry().tracing_enabled(),
        "spans level enables request-scoped tracing",
    );
    service.add_vehicle(ptrider_roadnet::VertexId(0));
    let mut handle = start_server(Arc::clone(&service), Duration::from_secs(5));
    let mut client = must(
        Client::connect(handle.addr(), Duration::from_secs(10)),
        "connect (tracing leg)",
    );

    let offer = must(
        client.request(
            "POST",
            "/rides",
            Some(r#"{"origin":1,"destination":4,"now":0.0}"#),
        ),
        "traced submit",
    );
    gate(offer.status == 200, "tracing leg: ride submitted");
    let rid = offer.header("x-request-id").unwrap_or_default().to_string();
    gate(
        rid.len() == 16 && rid.bytes().all(|b| b.is_ascii_hexdigit()),
        "every response echoes a 16-hex X-Request-Id",
    );
    gate(
        offer
            .header("traceparent")
            .is_some_and(|tp| tp.starts_with("00-") && tp.contains(rid.as_str())),
        "the traceparent echo names the request's trace",
    );

    let tree = must(
        client.request("GET", &format!("/trace/{rid}"), None),
        "trace fetch",
    );
    gate(
        tree.status == 200
            && tree.body.contains("\"server.handle\"")
            && tree.body.contains("\"service.submit\""),
        "GET /trace/{id} returns the span tree rooted at server.handle",
    );

    let echoed = must(
        client.request_with_headers(
            "POST",
            "/rides",
            Some(r#"{"origin":1,"destination":4,"now":0.0}"#),
            &[("x-request-id", "00000000c0ffee00")],
        ),
        "submit with inbound id",
    );
    gate(
        echoed.header("x-request-id") == Some("00000000c0ffee00"),
        "an inbound X-Request-Id is honored verbatim",
    );

    let slow = must(client.request("GET", "/debug/slow", None), "slow log");
    gate(
        slow.status == 200 && slow.body.contains("\"slow\":["),
        "GET /debug/slow lists the slowest request roots",
    );

    let metrics = must(
        client.request("GET", "/metrics", None),
        "metrics (tracing leg)",
    );
    gate(
        metrics.body.contains("ptrider_trace_dropped_total"),
        "/metrics exposes ptrider_trace_dropped_total",
    );
    gate(handle.shutdown(), "tracing leg: graceful shutdown");
}

fn main() {
    let base = std::env::temp_dir().join(format!("ptrider-wire-smoke-{}", std::process::id()));
    let lifecycle_dir: PathBuf = base.join("lifecycle");
    let crash_dir: PathBuf = base.join("crash");

    println!("wire_smoke: lifecycle leg");
    let live = lifecycle_leg(&lifecycle_dir);
    let (recovered, vehicles) = recover_fingerprint(&lifecycle_dir);
    gate(
        recovered == live,
        "recovery reproduces the served state bit for bit",
    );
    gate(vehicles == 1, "recovery restores the wire-added vehicle");

    println!("wire_smoke: crash-recovery leg");
    crash_leg(&crash_dir);

    println!("wire_smoke: tracing leg");
    tracing_leg();

    let _ = std::fs::remove_dir_all(&base);
    println!("wire_smoke: PASS");
}
