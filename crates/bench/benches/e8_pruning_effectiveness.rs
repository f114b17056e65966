//! E8 — pruning effectiveness of the single-side and dual-side searches.
//!
//! The paper's Section 3.3 motivates the dual-side paradigm with schedules
//! that are near the start location but far from the destination. This
//! bench compares, per algorithm, how many vehicles are verified and how
//! many exact shortest-path distances are computed — overall and split by
//! trip length (short vs. long origin–destination distance), where the
//! dual-side advantage should be largest for long trips.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptrider_bench::{build_world, match_probe, print_row, summarise, WorldParams};
use ptrider_core::{EngineConfig, MatcherKind};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_pruning_effectiveness");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let world = build_world(
        WorldParams {
            vehicles: 1200,
            warm_assignments: 500,
            ..WorldParams::default()
        },
        EngineConfig::paper_defaults(),
        128,
    );

    // Split probes by direct trip length (median split).
    let oracle = world.service.oracle();
    let mut lengths: Vec<f64> = world
        .probes
        .iter()
        .map(|t| oracle.distance(t.origin, t.destination))
        .collect();
    lengths.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = lengths[lengths.len() / 2];
    let short: Vec<_> = world
        .probes
        .iter()
        .filter(|t| oracle.distance(t.origin, t.destination) <= median)
        .cloned()
        .collect();
    let long: Vec<_> = world
        .probes
        .iter()
        .filter(|t| oracle.distance(t.origin, t.destination) > median)
        .cloned()
        .collect();

    for kind in MatcherKind::all() {
        let all = summarise(&world.service, kind, &world.probes);
        print_row("E8", &format!("{kind} / all trips"), &all);
        let s = summarise(&world.service, kind, &short);
        print_row(
            "E8",
            &format!("{kind} / short trips (<= {median:.0} m)"),
            &s,
        );
        let l = summarise(&world.service, kind, &long);
        print_row("E8", &format!("{kind} / long trips (> {median:.0} m)"), &l);

        let mut idx = 0usize;
        group.bench_with_input(
            BenchmarkId::new("match", kind.to_string()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let trip = &world.probes[idx % world.probes.len()];
                    idx += 1;
                    match_probe(&world.service, kind, trip, idx as u64)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
