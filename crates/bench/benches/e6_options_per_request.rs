//! E6 — "PTRider can return various options for every ridesharing request".
//!
//! Measures the distribution of skyline sizes (non-dominated options per
//! request) on the default world and prints min / mean / p95 / max, plus the
//! matching latency of producing the whole skyline.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use ptrider_bench::{build_world, match_probe, print_row, summarise, WorldParams};
use ptrider_core::{EngineConfig, MatcherKind};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_options_per_request");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let world = build_world(
        WorldParams {
            warm_assignments: 400,
            ..WorldParams::default()
        },
        EngineConfig::paper_defaults(),
        128,
    );

    // Distribution of skyline sizes.
    let mut sizes: Vec<usize> = world
        .probes
        .iter()
        .enumerate()
        .map(|(i, trip)| {
            match_probe(&world.service, MatcherKind::DualSide, trip, i as u64)
                .options
                .len()
        })
        .collect();
    sizes.sort_unstable();
    let n = sizes.len();
    let mean = sizes.iter().sum::<usize>() as f64 / n as f64;
    println!(
        "[E6] options per request: min={} mean={:.2} p50={} p95={} max={} (over {n} requests)",
        sizes.first().unwrap(),
        mean,
        sizes[n / 2],
        sizes[((n as f64 * 0.95) as usize).min(n - 1)],
        sizes.last().unwrap()
    );
    let multi = sizes.iter().filter(|&&s| s >= 2).count();
    println!(
        "[E6] requests with >= 2 non-dominated options: {:.1}%",
        multi as f64 / n as f64 * 100.0
    );
    let summary = summarise(&world.service, MatcherKind::DualSide, &world.probes);
    print_row("E6", "default parameters", &summary);

    let mut idx = 0usize;
    group.bench_function("skyline_per_request", |b| {
        b.iter(|| {
            let trip = &world.probes[idx % world.probes.len()];
            idx += 1;
            match_probe(&world.service, MatcherKind::DualSide, trip, idx as u64)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
