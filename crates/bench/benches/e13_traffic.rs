//! E13 — live-traffic metric repair: CH customization vs full rebuild vs
//! ALT-under-traffic.
//!
//! The experiment the traffic subsystem exists for: on the city-scale
//! graph, a traffic epoch must cost a *customization pass* (bottom-up
//! weight recomputation over the fixed contraction order), not a full
//! hierarchy rebuild (node ordering + witness searches). This bench
//! measures, per epoch of a rush-hour factor curve:
//!
//! * `customize`   — `CchTopology::customize` with the epoch's scaled
//!   weights (the repair path `DistanceOracle::apply_traffic` takes);
//! * `full_rebuild` — `ContractionHierarchy::build` on the re-weighted
//!   network (what a traffic epoch used to cost);
//! * `alt_query` / `ch_query` — point-query latency under the congested
//!   metric on both backends, so the repaired hierarchy's query-side win
//!   is visible too;
//! * `oracle_epoch` — the end-to-end `apply_traffic` entry point
//!   (scale + swap + customize + cache invalidation).
//!
//! The `[exp]` lines print the derived numbers for EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use ptrider_datagen::{synthetic_city, CityConfig, CongestionConfig, CongestionProfile};
use ptrider_roadnet::{
    astar, CchTopology, ContractionHierarchy, DistanceBackend, DistanceOracle, GridConfig,
    GridIndex, LandmarkIndex, VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

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

    let build_start = Instant::now();
    let _witness_ch = ContractionHierarchy::build(&city).expect("city graphs contract");
    let base_build_secs = build_start.elapsed().as_secs_f64();

    let topo_start = Instant::now();
    let topo = Arc::new(CchTopology::build(&city).expect("city graphs repair"));
    let topo_secs = topo_start.elapsed().as_secs_f64();
    println!(
        "[exp] e13 city-scale: {} vertices, witness build {:.2}s, repair topology {:.2}s \
         ({} arcs, {} triangles)",
        city.num_vertices(),
        base_build_secs,
        topo_secs,
        topo.num_arcs(),
        topo.num_triangles()
    );

    // A morning-rush epoch from the packaged congestion profile.
    let profile = CongestionProfile::build(&city, CongestionConfig::default());
    let model = profile.model_at(&city, 8.0 * 3600.0);
    let scaled = model.scaled_weights(&city);
    let metric = Arc::new(city.with_metric(scaled.clone()).unwrap());

    group.bench_function("customize_city_scale", |b| {
        b.iter(|| std::hint::black_box(topo.customize(&scaled)));
    });
    group.bench_function("full_rebuild_city_scale", |b| {
        b.iter(|| std::hint::black_box(ContractionHierarchy::build(&metric).unwrap()));
    });

    // Wall-clock cross-check outside criterion so the [exp] line always
    // prints the ratio the acceptance criterion asks about.
    let reps = 3;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(topo.customize(&scaled));
    }
    let customize_secs = t.elapsed().as_secs_f64() / reps as f64;
    let t = Instant::now();
    let rebuilt = ContractionHierarchy::build(&metric).unwrap();
    let rebuild_secs = t.elapsed().as_secs_f64();
    println!(
        "[exp] e13 repair: customize {:.3}s vs full rebuild {:.3}s = {:.1}x",
        customize_secs,
        rebuild_secs,
        rebuild_secs / customize_secs.max(1e-12)
    );

    // Query latency under traffic: repaired CH vs ALT on the same metric.
    let repaired = topo.customize(&scaled);
    let mut rng = ChaCha8Rng::seed_from_u64(0xe13);
    let n = city.num_vertices() as u32;
    let pairs: Vec<(VertexId, VertexId)> = (0..256)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect();
    group.bench_function("ch_query_under_traffic", |b| {
        b.iter(|| {
            for &(u, v) in &pairs {
                std::hint::black_box(repaired.distance(u, v));
            }
        });
    });
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
    // Sampled exactness cross-check: the repaired hierarchy must agree
    // with Dijkstra on the congested metric bit for bit.
    for &(u, v) in pairs.iter().take(32) {
        let exact = ptrider_roadnet::dijkstra::distance(&metric, u, v).unwrap_or(f64::INFINITY);
        let got = repaired.distance(u, v);
        assert!(
            got.to_bits() == exact.to_bits() || (got.is_infinite() && exact.is_infinite()),
            "repaired CH diverged from Dijkstra under traffic: {u}->{v} {got} vs {exact}"
        );
    }
    drop(rebuilt);

    // End-to-end oracle epoch: scale + swap + customize + invalidate,
    // seeded with the already-built topology so the nested-dissection
    // build is paid once per bench run.
    let oracle = DistanceOracle::with_backend(
        Arc::clone(&city),
        Arc::clone(&grid),
        Some(Arc::clone(&landmarks)),
        DistanceBackend::Ch,
    )
    .with_repair_topology(Arc::clone(&topo));
    oracle.apply_traffic(&model);
    group.bench_function("oracle_apply_traffic_city_scale", |b| {
        b.iter(|| std::hint::black_box(oracle.apply_traffic(&model)));
    });
    println!(
        "[exp] e13 oracle: backend {} after {} epochs, fallback {:?}",
        oracle.backend(),
        oracle.traffic_epoch(),
        oracle.backend_fallback()
    );

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
