//! E4 — effect of the global service constraint `δ`.
//!
//! A larger detour factor admits more candidate insertions per vehicle
//! (more valid schedules in the kinetic tree), so requests receive more
//! options and each verification costs more. The bench sweeps
//! `δ` ∈ {0.1, 0.2, 0.4, 0.8} with the dual-side matcher.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptrider_bench::{build_world, match_probe, print_row, summarise, WorldParams};
use ptrider_core::{EngineConfig, MatcherKind};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_service_constraint");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for &delta in &[0.1f64, 0.2, 0.4, 0.8] {
        let config = EngineConfig::paper_defaults().with_detour_factor(delta);
        let world = build_world(WorldParams::default(), config, 64);

        let summary = summarise(&world.service, MatcherKind::DualSide, &world.probes);
        print_row("E4", &format!("delta={delta}"), &summary);

        let mut idx = 0usize;
        group.bench_with_input(
            BenchmarkId::new("dual-side", format!("delta{delta}")),
            &delta,
            |b, _| {
                b.iter(|| {
                    let trip = &world.probes[idx % world.probes.len()];
                    idx += 1;
                    match_probe(&world.service, MatcherKind::DualSide, trip, idx as u64)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
