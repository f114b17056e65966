//! E5 — effect of the taxi capacity.
//!
//! The admin panel lets the operator set the per-taxi capacity. Higher
//! capacity keeps more non-empty vehicles feasible for additional riders
//! (the capacity constraint prunes less), increasing both options per
//! request and matching work. Sweeps capacity ∈ {2, 3, 4, 6}.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptrider_bench::{build_world, match_probe, print_row, summarise, WorldParams};
use ptrider_core::{EngineConfig, MatcherKind};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_capacity");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for &capacity in &[2u32, 3, 4, 6] {
        let config = EngineConfig::paper_defaults().with_capacity(capacity);
        let world = build_world(WorldParams::default(), config, 64);

        let summary = summarise(&world.service, MatcherKind::DualSide, &world.probes);
        print_row("E5", &format!("capacity={capacity}"), &summary);

        let mut idx = 0usize;
        group.bench_with_input(
            BenchmarkId::new("dual-side", capacity),
            &capacity,
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
