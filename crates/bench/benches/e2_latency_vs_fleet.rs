//! E2 — matching latency vs. fleet size, per algorithm.
//!
//! Reproduces the paper's central performance claim ("answers the
//! ridesharing request in real time" on a 17,000-taxi workload): per-request
//! matching latency of the naive kinetic-tree scan, the single-side search
//! and the dual-side search as the fleet grows. The expected shape is that
//! both index-based searches stay roughly flat (they only touch vehicles
//! near the request) while the naive scan grows linearly with the fleet.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptrider_bench::{build_world, match_probe, print_row, summarise, WorldParams};
use ptrider_core::{EngineConfig, MatcherKind};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_latency_vs_fleet");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for &fleet in &[200usize, 800, 2000] {
        let params = WorldParams {
            vehicles: fleet,
            warm_assignments: fleet / 4,
            ..WorldParams::default()
        };
        let world = build_world(params, EngineConfig::paper_defaults(), 64);

        for kind in MatcherKind::all() {
            let summary = summarise(&world.service, kind, &world.probes);
            print_row("E2", &format!("fleet={fleet} matcher={kind}"), &summary);

            let mut idx = 0usize;
            group.bench_with_input(BenchmarkId::new(kind.to_string(), fleet), &fleet, |b, _| {
                b.iter(|| {
                    let trip = &world.probes[idx % world.probes.len()];
                    idx += 1;
                    match_probe(&world.service, kind, trip, idx as u64)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
