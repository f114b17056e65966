//! E10 — grid-index granularity ablation (Section 3.2.1 design choice).
//!
//! Sweeps the number of grid cells per axis and reports index build time,
//! approximate memory footprint, lower-bound tightness and end-to-end
//! matching latency with the dual-side search. Finer grids give tighter
//! lower bounds (better pruning) at a higher build/memory cost.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptrider_core::{EngineConfig, MatcherKind, PtRider, Request, RequestId, RideService};
use ptrider_datagen::{synthetic_city, CityConfig, TripConfig, TripGenerator};
use ptrider_roadnet::{dijkstra, GridConfig, GridIndex, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_grid_granularity");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let city_config = CityConfig::medium(20090529);
    let city = synthetic_city(&city_config);
    let trips = TripGenerator::new(
        &city,
        TripConfig {
            num_trips: 64,
            seed: 5,
            ..TripConfig::default()
        },
    )
    .generate();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let fleet: Vec<VertexId> = (0..800)
        .map(|_| VertexId(rng.gen_range(0..city.num_vertices() as u32)))
        .collect();

    for &side in &[4usize, 8, 16, 32] {
        // Build-time and memory of the grid index alone.
        let started = Instant::now();
        let grid = GridIndex::build(&city, GridConfig::with_dimensions(side, side));
        let build_secs = started.elapsed().as_secs_f64();

        // Lower-bound tightness: mean ratio of grid bound to exact distance.
        let mut ratio_sum = 0.0;
        let mut samples = 0usize;
        let mut rng2 = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..200 {
            let u = VertexId(rng2.gen_range(0..city.num_vertices() as u32));
            let v = VertexId(rng2.gen_range(0..city.num_vertices() as u32));
            if u == v {
                continue;
            }
            let exact = dijkstra::distance(&city, u, v).unwrap();
            if exact <= 0.0 {
                continue;
            }
            ratio_sum += grid.lower_bound_with(&city, u, v) / exact;
            samples += 1;
        }
        println!(
            "[E10] grid {side}x{side}: build={:.3}s memory={:.1}KiB mean_lb_tightness={:.3}",
            build_secs,
            grid.approximate_bytes() as f64 / 1024.0,
            ratio_sum / samples as f64
        );

        // End-to-end matching latency with this granularity.
        let mut engine = PtRider::new(
            city.clone(),
            GridConfig::with_dimensions(side, side),
            EngineConfig::paper_defaults(),
        );
        engine.set_matcher(MatcherKind::DualSide);
        for &loc in &fleet {
            engine.add_vehicle(loc);
        }
        let service = RideService::from_engine(engine);
        let mut idx = 0usize;
        group.bench_with_input(BenchmarkId::new("dual-side-match", side), &side, |b, _| {
            b.iter(|| {
                let trip = &trips[idx % trips.len()];
                idx += 1;
                let request = Request::new(
                    RequestId(idx as u64),
                    trip.origin,
                    trip.destination,
                    trip.riders,
                    trip.time_secs,
                );
                service
                    .match_request_with(MatcherKind::DualSide, &request)
                    .unwrap()
            })
        });

        group.bench_with_input(BenchmarkId::new("build", side), &side, |b, _| {
            b.iter(|| GridIndex::build(&city, GridConfig::with_dimensions(side, side)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
