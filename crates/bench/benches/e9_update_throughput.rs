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
use ptrider_core::{Decision, EngineConfig, OptionId, RideService};
use ptrider_roadnet::VertexId;
use ptrider_vehicles::VehicleId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn neighbour_of(service: &RideService, v: VertexId, rng: &mut ChaCha8Rng) -> (VertexId, f64) {
    let neighbours: Vec<(VertexId, f64)> = service.network().neighbors(v).collect();
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
    let service = &world.service;
    let mut rng = ChaCha8Rng::seed_from_u64(99);

    let empty_ids: Vec<VehicleId> = service
        .with_vehicles(|vehicles| vehicles.filter(|v| v.is_empty()).map(|v| v.id()).collect());
    let busy_ids: Vec<VehicleId> = service
        .with_vehicles(|vehicles| vehicles.filter(|v| !v.is_empty()).map(|v| v.id()).collect());
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
            let loc = service.with_vehicle(id, |v| v.location()).unwrap();
            let (next, dist) = neighbour_of(service, loc, &mut rng);
            service.location_update(id, next, dist).unwrap();
        })
    });

    if !busy_ids.is_empty() {
        let mut j = 0usize;
        group.bench_function("location_update_non_empty", |b| {
            b.iter(|| {
                let id = busy_ids[j % busy_ids.len()];
                j += 1;
                let loc = service.with_vehicle(id, |v| v.location()).unwrap();
                let (next, dist) = neighbour_of(service, loc, &mut rng);
                service.location_update(id, next, dist).unwrap();
            })
        });
    }

    let mut k = 0usize;
    group.bench_function("submit_choose_cycle", |b| {
        b.iter(|| {
            let trip = &world.probes[k % world.probes.len()];
            k += 1;
            let now = k as f64;
            let offer = service
                .submit(trip.origin, trip.destination, trip.riders, now)
                .expect("probe trips are valid requests");
            // Choose and immediately complete nothing: the assignment
            // itself is the measured cost.
            let decision = if offer.options.is_empty() {
                Decision::Decline
            } else {
                Decision::Choose(OptionId(0))
            };
            let _ = service.respond(offer.session, decision, now);
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
