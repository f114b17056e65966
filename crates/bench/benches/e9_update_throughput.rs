//! E9 — index update throughput (Fig. 2's location / pickup / drop-off
//! updates under a "high simulated update workload").
//!
//! Measures (a) location updates of empty vehicles (cheap: re-register in
//! one cell), (b) location updates of non-empty vehicles (kinetic-tree
//! recompute plus schedule-cell re-registration), and (c) the full
//! assignment cycle (submit + choose). Non-empty updates and assignments
//! are dominated by the exact distances behind kinetic-tree re-annotation.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use ptrider_bench::{build_world, WorldParams};
use ptrider_core::{EngineConfig, MatcherKind, PtRider};
use ptrider_roadnet::VertexId;
use ptrider_vehicles::VehicleId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn neighbour_of(engine: &PtRider, v: VertexId, rng: &mut ChaCha8Rng) -> (VertexId, f64) {
    let neighbours: Vec<(VertexId, f64)> = engine.network().neighbors(v).collect();
    neighbours[rng.gen_range(0..neighbours.len())]
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_update_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let world = build_world(
        WorldParams {
            vehicles: 800,
            warm_assignments: 300,
            ..WorldParams::default()
        },
        EngineConfig::paper_defaults(),
        64,
    );
    let mut engine = world.engine;
    engine.set_matcher(MatcherKind::DualSide);
    let mut rng = ChaCha8Rng::seed_from_u64(99);

    let empty_ids: Vec<VehicleId> = engine
        .vehicles()
        .filter(|v| v.is_empty())
        .map(|v| v.id())
        .collect();
    let busy_ids: Vec<VehicleId> = engine
        .vehicles()
        .filter(|v| !v.is_empty())
        .map(|v| v.id())
        .collect();
    println!(
        "[E9] fleet: {} empty vehicles, {} non-empty vehicles",
        empty_ids.len(),
        busy_ids.len()
    );

    let mut i = 0usize;
    group.bench_function("location_update_empty", |b| {
        b.iter(|| {
            let id = empty_ids[i % empty_ids.len()];
            i += 1;
            let loc = engine.vehicle(id).unwrap().location();
            let (next, dist) = neighbour_of(&engine, loc, &mut rng);
            engine.location_update(id, next, dist).unwrap();
        })
    });

    if !busy_ids.is_empty() {
        let mut j = 0usize;
        group.bench_function("location_update_non_empty", |b| {
            b.iter(|| {
                let id = busy_ids[j % busy_ids.len()];
                j += 1;
                let loc = engine.vehicle(id).unwrap().location();
                let (next, dist) = neighbour_of(&engine, loc, &mut rng);
                engine.location_update(id, next, dist).unwrap();
            })
        });
    }

    let mut k = 0usize;
    group.bench_function("submit_choose_cycle", |b| {
        b.iter(|| {
            let trip = &world.probes[k % world.probes.len()];
            k += 1;
            let (id, options) = engine.submit(trip.origin, trip.destination, trip.riders, k as f64);
            if let Some(option) = options.first() {
                // Choose and immediately complete nothing: the assignment
                // itself is the measured cost; declining keeps state bounded.
                if engine.choose(id, option, k as f64).is_err() {
                    let _ = engine.decline(id);
                }
            } else {
                let _ = engine.decline(id);
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
