//! E13 — the distance oracle under live traffic.
//!
//! On the city-scale graph, per epoch of a rush-hour factor curve, this
//! bench measures:
//!
//! * `alt_query` — ALT point-query latency under the congested metric
//!   (base-metric landmark and grid heuristics, which factors ≥ 1 keep
//!   admissible);
//! * `oracle_epoch` — the end-to-end `apply_traffic` entry point
//!   (scale + swap + cache invalidation).
//!
//! The `[exp]` line prints the derived numbers for EXPERIMENTS.md.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use ptrider_datagen::{synthetic_city, CityConfig, CongestionConfig, CongestionProfile};
use ptrider_roadnet::{astar, DistanceOracle, GridConfig, GridIndex, LandmarkIndex, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_traffic");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    // The city-scale graph of the oracle micro (25.6k vertices).
    let side = 160usize;
    let city = Arc::new(synthetic_city(&CityConfig {
        cols: side,
        rows: side,
        seed: 20090529,
        ..CityConfig::default()
    }));
    let grid = Arc::new(GridIndex::build(&city, GridConfig::with_dimensions(24, 24)));
    let landmarks = Arc::new(LandmarkIndex::build_auto(&city, 8));

    // A morning-rush epoch from the packaged congestion profile.
    let profile = CongestionProfile::build(&city, CongestionConfig::default());
    let model = profile.model_at(&city, 8.0 * 3600.0);
    let metric = Arc::new(city.with_metric(model.scaled_weights(&city)).unwrap());

    let mut rng = ChaCha8Rng::seed_from_u64(0xe13);
    let n = city.num_vertices() as u32;
    let pairs: Vec<(VertexId, VertexId)> = (0..256)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect();
    group.bench_function("alt_query_under_traffic", |b| {
        b.iter(|| {
            for &(u, v) in &pairs {
                std::hint::black_box(astar::distance_with_landmarks(
                    &metric,
                    u,
                    v,
                    Some(&grid),
                    Some(&landmarks),
                ));
            }
        });
    });
    // Sampled exactness cross-check: ALT on the congested metric must
    // agree with Dijkstra bit for bit.
    for &(u, v) in pairs.iter().take(32) {
        let exact = ptrider_roadnet::dijkstra::distance(&metric, u, v);
        let got = astar::distance_with_landmarks(&metric, u, v, Some(&grid), Some(&landmarks));
        assert_eq!(
            got.map(f64::to_bits),
            exact.map(f64::to_bits),
            "ALT diverged from Dijkstra under traffic: {u}->{v}"
        );
    }

    // End-to-end oracle epoch: scale + swap + invalidate.
    let oracle = DistanceOracle::with_landmarks(
        Arc::clone(&city),
        Arc::clone(&grid),
        Arc::clone(&landmarks),
    );
    group.bench_function("oracle_apply_traffic_city_scale", |b| {
        b.iter(|| std::hint::black_box(oracle.apply_traffic(&model)));
    });
    println!(
        "[exp] e13 city-scale: {} vertices, backend {} after {} epochs, {} congested arcs",
        city.num_vertices(),
        oracle.backend(),
        oracle.traffic_epoch(),
        model.congested_arcs()
    );

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
