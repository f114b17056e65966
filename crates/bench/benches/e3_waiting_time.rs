//! E3 — effect of the global maximal waiting time `w`.
//!
//! The demo's admin panel exposes `w` as a global parameter. Larger `w`
//! loosens the pickup deadlines of already-assigned requests, so more
//! vehicles stay feasible for new requests: more options per request and
//! more matching work. The bench sweeps `w` ∈ {2, 5, 10, 15} minutes with
//! the dual-side matcher.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptrider_bench::{build_world, match_probe, print_row, summarise, WorldParams};
use ptrider_core::{EngineConfig, MatcherKind};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_waiting_time");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for &wait_mins in &[2.0f64, 5.0, 10.0, 15.0] {
        let config = EngineConfig::paper_defaults().with_max_wait_secs(wait_mins * 60.0);
        let world = build_world(WorldParams::default(), config, 64);

        let summary = summarise(&world.service, MatcherKind::DualSide, &world.probes);
        print_row("E3", &format!("w={wait_mins}min"), &summary);

        let mut idx = 0usize;
        group.bench_with_input(
            BenchmarkId::new("dual-side", format!("w{wait_mins}min")),
            &wait_mins,
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
