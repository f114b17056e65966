//! E7 — the Fig. 4(c) statistics panel: a slice of the Shanghai-like day.
//!
//! Runs the full simulator (request submission, rider choice, vehicle
//! movement, pickup/drop-off updates) on a scaled-down Shanghai workload and
//! prints the statistics the demo's website panel shows: average response
//! time and average sharing rate, plus answer rate and options per request.
//! Criterion measures the wall-clock cost of simulating the slice.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use ptrider_core::{EngineConfig, MatcherKind};
use ptrider_datagen::scaled_shanghai;
use ptrider_roadnet::GridConfig;
use ptrider_sim::{ChoicePolicy, SimConfig, Simulator};

fn run_slice(scale: f64, minutes: f64, matcher: MatcherKind) -> ptrider_sim::SimulationReport {
    let workload = scaled_shanghai(scale, 20090529);
    let start = 7.5 * 3600.0; // morning rush hour
    let sim_config = SimConfig {
        dt_secs: 5.0,
        start_secs: start,
        end_secs: start + minutes * 60.0,
        choice: ChoicePolicy::Weighted { alpha: 0.5 },
        matcher,
        grid: GridConfig::with_dimensions(12, 12),
        idle_roaming: true,
        cross_check: false,
        burst_admission: false,
        traffic: None,
        seed: 7,
    };
    let mut sim = Simulator::new(workload, EngineConfig::paper_defaults(), sim_config);
    sim.run()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_day_simulation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Report the statistics panel once, outside the measurement loop.
    for matcher in [MatcherKind::SingleSide, MatcherKind::DualSide] {
        let report = run_slice(0.002, 20.0, matcher);
        println!(
            "[E7] scale=0.002 slice=20min matcher={matcher}: requests={} answer_rate={:.1}% \
             avg_options={:.2} avg_response={:.3}ms sharing_rate={:.1}% avg_wait={:.0}s completed={}",
            report.requests,
            report.answer_rate * 100.0,
            report.avg_options,
            report.avg_response_ms,
            report.sharing_rate * 100.0,
            report.avg_waiting_secs,
            report.completed
        );
    }

    group.bench_function("rush_hour_10min_scale_0.001", |b| {
        b.iter(|| run_slice(0.001, 10.0, MatcherKind::DualSide))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
