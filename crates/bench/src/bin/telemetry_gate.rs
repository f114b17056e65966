//! CI gate: telemetry must stay (close to) free when enabled.
//!
//! Runs the E12-style session storm three times per round on identically
//! seeded worlds:
//!
//! * `PTRIDER_TELEMETRY=off` — the baseline;
//! * `spans` with `PTRIDER_TRACE_CAPACITY=0` — stage histograms only
//!   (request-scoped tracing disabled), held to the histogram budget
//!   (default 5%, override with `PTRIDER_TELEMETRY_GATE_PCT`);
//! * `spans` with the default trace capacity — full request-scoped
//!   tracing (span trees, the slow log, exemplars), held to the tracing
//!   budget (7%, or the histogram budget when that is set higher).
//!
//! Keeps the best round per level to damp scheduler noise and fails
//! (exit code 1) when either instrumented build loses more than its
//! budget.
//!
//! Run with `cargo run --release -p ptrider-bench --bin telemetry_gate`.
//! The interleaved A/B/C works in one process because `TelemetryConfig::
//! from_env` re-reads the environment at every engine construction.

#![forbid(unsafe_code)]

use ptrider_bench::{build_world, WorldParams};
use ptrider_core::{Decision, EngineConfig, ServiceConfig, VertexId};
use ptrider_datagen::{TripConfig, TripGenerator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const SUBMITTERS: usize = 2;
const ROUNDS_PER_RUN: usize = 3;
const AB_ROUNDS: usize = 3;

/// One session storm at the telemetry level currently in the environment;
/// returns declined-sessions per second.
fn storm(params: WorldParams) -> f64 {
    let world = build_world(params, EngineConfig::paper_defaults(), 0);
    let probes: Vec<(VertexId, VertexId, u32)> = TripGenerator::new(
        world.service.network(),
        TripConfig {
            num_trips: 128,
            seed: params.seed ^ 0xe15,
            ..TripConfig::default()
        },
    )
    .generate()
    .iter()
    .map(|t| (t.origin, t.destination, t.riders))
    .filter(|(o, d, _)| o != d)
    .collect();

    let service = world
        .service
        .with_service_config(ServiceConfig::default().with_offer_ttl_secs(1e12));
    let served = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..SUBMITTERS {
            let service = &service;
            let probes = &probes;
            let served = &served;
            scope.spawn(move || {
                for _ in 0..ROUNDS_PER_RUN {
                    for (i, &(o, d, riders)) in probes.iter().enumerate() {
                        if i % SUBMITTERS != t {
                            continue;
                        }
                        let offer = service
                            .submit(o, d, riders, 0.0)
                            .expect("probe requests are valid");
                        let _ = service.respond(offer.session, Decision::Decline, 0.0);
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    served.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn main() {
    let budget_pct: f64 = std::env::var("PTRIDER_TELEMETRY_GATE_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    // A small world so the gate stays CI-friendly.
    let params = WorldParams {
        city_side: 30,
        vehicles: 400,
        warm_assignments: 100,
        grid_side: 10,
        ..WorldParams::default()
    };

    let trace_budget_pct = budget_pct.max(7.0);
    // (label, PTRIDER_TELEMETRY, PTRIDER_TRACE_CAPACITY, budget vs off).
    let legs: [(&str, &str, &str, Option<f64>); 3] = [
        ("off", "off", "0", None),
        ("spans", "spans", "0", Some(budget_pct)),
        ("trace", "spans", "", Some(trace_budget_pct)),
    ];
    let mut best = [0.0f64; 3];
    eprintln!(
        "telemetry_gate: {AB_ROUNDS} interleaved rounds, {} vehicles, budgets {budget_pct:.1}% (spans) / {trace_budget_pct:.1}% (trace)",
        params.vehicles
    );
    for round in 0..AB_ROUNDS {
        for (i, (label, level, capacity, _)) in legs.iter().enumerate() {
            std::env::set_var("PTRIDER_TELEMETRY", level);
            if capacity.is_empty() {
                std::env::remove_var("PTRIDER_TRACE_CAPACITY");
            } else {
                std::env::set_var("PTRIDER_TRACE_CAPACITY", capacity);
            }
            let rate = storm(params);
            if rate > best[i] {
                best[i] = rate;
            }
            eprintln!("  round {round} {label:>5}: {rate:>10.0} sessions/s");
        }
    }
    std::env::remove_var("PTRIDER_TELEMETRY");
    std::env::remove_var("PTRIDER_TRACE_CAPACITY");

    let mut failed = false;
    println!("off   : {:>10.0} sessions/s (best of {AB_ROUNDS})", best[0]);
    for (i, (label, _, _, budget)) in legs.iter().enumerate().skip(1) {
        let overhead_pct = (1.0 - best[i] / best[0].max(1e-9)) * 100.0;
        let budget = budget.expect("instrumented legs carry a budget");
        println!(
            "{label:<6}: {:>10.0} sessions/s — overhead {overhead_pct:.2}% (budget {budget:.1}%)",
            best[i]
        );
        if overhead_pct > budget {
            eprintln!("FAIL: telemetry {label} overhead {overhead_pct:.2}% exceeds {budget:.1}%");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("PASS");
}
