//! E17: load harness for the network front door.
//!
//! Drives the E12-style session storm (submit → poll → decline) through
//! real sockets instead of direct calls: N concurrent keep-alive
//! connections, each running its share of sessions against a
//! `ptrider-server` instance on an ephemeral port, plus a handful of SSE
//! drain streams running alongside. The sweep over N ∈ {64, 256, 1024,
//! 4096} crosses the connection watermark on purpose: below it every
//! request must succeed; above it the overflow must be shed with a clean
//! `503 + Retry-After` — never a hang, never a protocol error.
//!
//! Prints per-level throughput and client-observed latency percentiles,
//! then the same numbers as an `e17_wire` JSON section, to stdout; nothing
//! is written to disk. `PTRIDER_WIRE_SESSIONS` sets the per-level session
//! budget.
//!
//! Run with `cargo run --release -p ptrider-bench --bin e17_wire_load`.

#![forbid(unsafe_code)]

use ptrider_bench::{build_world, WorldParams};
use ptrider_core::{EngineConfig, RideService, ServiceConfig, VertexId};
use ptrider_datagen::{TripConfig, TripGenerator};
use ptrider_server::client::{open_sse, read_sse_frames, Client};
use ptrider_server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Concurrency sweep; the last level deliberately exceeds [`MAX_CONNS`].
const SWEEP: [usize; 4] = [64, 256, 1024, 4096];
/// The server's connection watermark for every level.
const MAX_CONNS: usize = 2048;
/// SSE drain streams held open alongside each storm.
const SSE_CONNS: usize = 4;
/// Client stacks can be small: one buffered socket and a latency vec.
const CLIENT_STACK: usize = 256 * 1024;

/// What one connection observed.
#[derive(Default)]
struct ConnOutcome {
    latencies_us: Vec<u64>,
    completed: usize,
    shed: bool,
    shed_with_retry_after: bool,
    connect_error: bool,
    errors: usize,
    conflicts: usize,
}

/// One sweep level's aggregate.
struct Level {
    conns: usize,
    completed: usize,
    secs: f64,
    rate: f64,
    p50_us: f64,
    p99_us: f64,
    shed: usize,
    shed_with_retry_after: usize,
    connect_errors: usize,
    errors: usize,
    conflicts: usize,
    sse_frames: usize,
    sse_missed_frames: usize,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Runs one connection's share of the storm.
fn drive_conn(
    addr: SocketAddr,
    probes: &[(VertexId, VertexId, u32)],
    index: usize,
    sessions: usize,
    barrier: &Barrier,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut client = None;
    for _ in 0..3 {
        match Client::connect(addr, Duration::from_secs(30)) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let Some(mut client) = client else {
        out.connect_error = true;
        barrier.wait();
        return out;
    };

    // The handshake probe doubles as the shed detector: a connection over
    // the watermark gets its 503 before (or instead of) any answer.
    match client.request("GET", "/healthz", None) {
        Ok(r) if r.status == 503 => {
            out.shed = true;
            out.shed_with_retry_after = r.header("retry-after").is_some();
            barrier.wait();
            return out;
        }
        Ok(r) if r.status == 200 => {}
        _ => {
            out.connect_error = true;
            barrier.wait();
            return out;
        }
    }

    barrier.wait();
    for s in 0..sessions {
        let (o, d, riders) = probes[(index * sessions + s) % probes.len()];
        let begin = Instant::now();
        let offer = match client.request(
            "POST",
            "/rides",
            Some(&format!(
                r#"{{"origin":{},"destination":{},"riders":{riders},"now":0.0}}"#,
                o.0, d.0
            )),
        ) {
            Ok(r) if r.status == 200 => r,
            _ => {
                out.errors += 1;
                return out;
            }
        };
        let Some(session) = offer.u64_field("session") else {
            out.errors += 1;
            return out;
        };
        match client.request("GET", &format!("/sessions/{session}"), None) {
            Ok(r) if r.status == 200 => {}
            _ => {
                out.errors += 1;
                return out;
            }
        }
        match client.request(
            "POST",
            &format!("/sessions/{session}/respond"),
            Some(r#"{"decision":"decline","now":0.0}"#),
        ) {
            Ok(r) if r.status == 200 => {}
            // A concurrent expiry/commit race answers with a typed 4xx;
            // that is protocol behaviour, not an error.
            Ok(r) if r.status == 409 || r.status == 410 => out.conflicts += 1,
            _ => {
                out.errors += 1;
                return out;
            }
        }
        out.latencies_us.push(begin.elapsed().as_micros() as u64);
        out.completed += 1;
    }
    out
}

/// Runs one sweep level against a fresh server over the shared service.
fn run_level(
    service: &std::sync::Arc<RideService>,
    probes: &[(VertexId, VertexId, u32)],
    conns: usize,
    budget: usize,
) -> Level {
    let config = ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_threads(8)
        .with_max_conns(MAX_CONNS)
        .with_read_timeout(Duration::from_secs(30))
        .with_idle_timeout(Duration::from_secs(60))
        .with_sse_poll(Duration::from_millis(10))
        .with_drain_timeout(Duration::from_secs(10));
    let mut handle = Server::start(std::sync::Arc::clone(service), config).expect("server start");
    let addr = handle.addr();

    let sessions = (budget / conns).max(1);
    let barrier = Barrier::new(conns + 1);
    let outcomes: Mutex<Vec<ConnOutcome>> = Mutex::new(Vec::with_capacity(conns));
    let stop = AtomicBool::new(false);
    let sse_frames = Mutex::new((0usize, 0usize));

    let mut elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        // SSE drains ride along for the whole storm; they are readers of
        // the shared event log and must never slow the writers down.
        let mut sse_handles = Vec::new();
        for _ in 0..SSE_CONNS {
            let stop = &stop;
            let sse_frames = &sse_frames;
            sse_handles.push(
                std::thread::Builder::new()
                    .stack_size(CLIENT_STACK)
                    .name("e17-sse".into())
                    .spawn_scoped(scope, move || {
                        let Ok(mut reader) = open_sse(addr, "", Duration::from_millis(500)) else {
                            return;
                        };
                        let frames = read_sse_frames(&mut reader, |_| stop.load(Ordering::Relaxed));
                        let missed = frames.iter().filter(|f| f.event == "missed").count();
                        let mut total = sse_frames.lock().unwrap();
                        total.0 += frames.len();
                        total.1 += missed;
                    })
                    .expect("spawn sse"),
            );
        }

        let mut workers = Vec::with_capacity(conns);
        for index in 0..conns {
            let barrier = &barrier;
            let outcomes = &outcomes;
            workers.push(
                std::thread::Builder::new()
                    .stack_size(CLIENT_STACK)
                    .name("e17-conn".into())
                    .spawn_scoped(scope, move || {
                        let out = drive_conn(addr, probes, index, sessions, barrier);
                        outcomes.lock().unwrap().push(out);
                    })
                    .expect("spawn worker"),
            );
        }

        barrier.wait();
        let begin = Instant::now();
        for w in workers {
            let _ = w.join();
        }
        elapsed = begin.elapsed();
        stop.store(true, Ordering::Relaxed);
        for h in sse_handles {
            let _ = h.join();
        }
    });
    handle.shutdown();

    let outcomes = outcomes.into_inner().unwrap();
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let completed: usize = outcomes.iter().map(|o| o.completed).sum();
    let secs = elapsed.as_secs_f64().max(1e-9);
    let (frames, missed) = *sse_frames.lock().unwrap();
    Level {
        conns,
        completed,
        secs,
        rate: completed as f64 / secs,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        shed: outcomes.iter().filter(|o| o.shed).count(),
        shed_with_retry_after: outcomes.iter().filter(|o| o.shed_with_retry_after).count(),
        connect_errors: outcomes.iter().filter(|o| o.connect_error).count(),
        errors: outcomes.iter().map(|o| o.errors).sum(),
        conflicts: outcomes.iter().map(|o| o.conflicts).sum(),
        sse_frames: frames,
        sse_missed_frames: missed,
    }
}

/// Renders the `e17_wire` section.
fn render_section(levels: &[Level]) -> String {
    let best = levels.iter().map(|l| l.rate).fold(0.0f64, f64::max);
    let mut out = String::new();
    out.push_str("  \"e17_wire\": {\n");
    out.push_str(&format!(
        "    \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str(&format!(
        "    \"threads\": 8, \"max_conns\": {MAX_CONNS}, \"sse_conns\": {SSE_CONNS},\n"
    ));
    out.push_str(&format!("    \"best_sessions_per_sec\": {best:.1},\n"));
    out.push_str("    \"rows\": [\n");
    for (i, l) in levels.iter().enumerate() {
        out.push_str(&format!(
            "      {{ \"conns\": {}, \"sessions\": {}, \"secs\": {:.3}, \"sessions_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"shed\": {}, \"shed_rate_pct\": {:.2}, \"connect_errors\": {}, \"errors\": {}, \"conflicts\": {}, \"sse_frames\": {}, \"sse_missed_frames\": {} }}{}\n",
            l.conns,
            l.completed,
            l.secs,
            l.rate,
            l.p50_us,
            l.p99_us,
            l.shed,
            l.shed as f64 / l.conns as f64 * 100.0,
            l.connect_errors,
            l.errors,
            l.conflicts,
            l.sse_frames,
            l.sse_missed_frames,
            if i + 1 < levels.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  }");
    out
}

fn main() {
    let budget: usize = std::env::var("PTRIDER_WIRE_SESSIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2048);
    let params = WorldParams {
        city_side: 30,
        vehicles: 400,
        warm_assignments: 100,
        grid_side: 10,
        ..WorldParams::default()
    };
    println!(
        "[e17] world: {}x{} city, {} vehicles; watermark {MAX_CONNS} conns, {budget} sessions/level",
        params.city_side, params.city_side, params.vehicles
    );
    let world = build_world(params, EngineConfig::paper_defaults(), 0);
    let probes: Vec<(VertexId, VertexId, u32)> = TripGenerator::new(
        world.service.network(),
        TripConfig {
            num_trips: 256,
            seed: params.seed ^ 0xe17,
            ..TripConfig::default()
        },
    )
    .generate()
    .iter()
    .map(|t| (t.origin, t.destination, t.riders))
    .filter(|(o, d, _)| o != d)
    .collect();
    let service = std::sync::Arc::new(
        world
            .service
            .with_service_config(ServiceConfig::default().with_offer_ttl_secs(1e12)),
    );

    let mut levels = Vec::new();
    let mut failed = false;
    for conns in SWEEP {
        let level = run_level(&service, &probes, conns, budget);
        println!(
            "[e17] conns={:>5} sessions={:>5} rate={:>7.1}/s p50={:>8.1}us p99={:>9.1}us shed={} connect_errors={} errors={} conflicts={} sse_frames={}",
            level.conns,
            level.completed,
            level.rate,
            level.p50_us,
            level.p99_us,
            level.shed,
            level.connect_errors,
            level.errors,
            level.conflicts,
            level.sse_frames,
        );
        // Below the watermark the storm must be loss-free; above it the
        // overflow must be shed politely (503 + Retry-After) and the rest
        // must still be served loss-free.
        if level.errors > 0 {
            eprintln!(
                "[e17] FAIL: {} protocol errors at {} conns",
                level.errors, conns
            );
            failed = true;
        }
        if conns + SSE_CONNS <= MAX_CONNS && (level.shed > 0 || level.connect_errors > 0) {
            eprintln!(
                "[e17] FAIL: {} sheds / {} connect errors below the watermark",
                level.shed, level.connect_errors
            );
            failed = true;
        }
        if level.shed > 0 && level.shed_with_retry_after != level.shed {
            eprintln!(
                "[e17] FAIL: {}/{} sheds arrived without Retry-After",
                level.shed - level.shed_with_retry_after,
                level.shed
            );
            failed = true;
        }
        if conns > MAX_CONNS && level.shed == 0 {
            eprintln!("[e17] FAIL: no sheds observed above the watermark");
            failed = true;
        }
        levels.push(level);
    }

    println!("{}", render_section(&levels));

    if failed {
        eprintln!("[e17] FAIL");
        std::process::exit(1);
    }
    println!("[e17] PASS");
}
