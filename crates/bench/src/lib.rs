//! Shared harness for the PTRider benchmark suite.
//!
//! Every Criterion bench (one per experiment E2–E10, see DESIGN.md and
//! EXPERIMENTS.md) builds its world through the helpers here so parameters
//! are consistent across experiments: a synthetic city, a fleet placed
//! uniformly at random, a warm-up phase that assigns some trips so a
//! realistic share of vehicles is non-empty, and a stream of probe requests
//! matched read-only via [`PtRider::match_request_with`].
//!
//! Besides the wall-clock numbers Criterion reports, each bench prints a
//! small table (prefixed with `[exp]`) with the derived quantities the paper
//! talks about — options per request, vehicles verified, sharing rate — so
//! `cargo bench` output can be transcribed directly into EXPERIMENTS.md.

pub mod wire;

use ptrider_core::{EngineConfig, MatchResult, MatcherKind, PtRider, Request};
use ptrider_datagen::{synthetic_city, CityConfig, TimedTrip, TripConfig, TripGenerator};
use ptrider_roadnet::{GridConfig, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of a benchmark world.
#[derive(Clone, Copy, Debug)]
pub struct WorldParams {
    /// City lattice side (cols = rows).
    pub city_side: usize,
    /// Number of vehicles.
    pub vehicles: usize,
    /// Number of warm-up assignments (makes vehicles non-empty).
    pub warm_assignments: usize,
    /// Grid-index side (cells per axis).
    pub grid_side: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for WorldParams {
    fn default() -> Self {
        WorldParams {
            city_side: 40,
            vehicles: 800,
            warm_assignments: 200,
            grid_side: 12,
            seed: 20090529,
        }
    }
}

/// A ready-to-probe benchmark world.
pub struct BenchWorld {
    /// The engine with its fleet registered and warmed up.
    pub engine: PtRider,
    /// Probe trips (not yet submitted).
    pub probes: Vec<TimedTrip>,
}

/// Builds a city, an engine with the given configuration, a fleet and a set
/// of probe trips; then warms the engine up by assigning `warm_assignments`
/// trips (each rider takes the earliest-pickup option).
///
/// The engine honours every knob of `config`, including
/// `EngineConfig::distance_backend` — pass
/// `.with_distance_backend(DistanceBackend::Ch)` to measure a world on the
/// contraction-hierarchy backend (the hierarchy is built during this call).
pub fn build_world(params: WorldParams, config: EngineConfig, probes: usize) -> BenchWorld {
    let city = synthetic_city(&CityConfig {
        cols: params.city_side,
        rows: params.city_side,
        seed: params.seed,
        ..CityConfig::default()
    });
    let mut engine = PtRider::new(
        city,
        GridConfig::with_dimensions(params.grid_side, params.grid_side),
        config,
    );
    engine.set_matcher(MatcherKind::DualSide);

    let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0xf1ee7);
    let num_vertices = engine.network().num_vertices() as u32;
    for _ in 0..params.vehicles {
        engine.add_vehicle(VertexId(rng.gen_range(0..num_vertices)));
    }

    let trips = TripGenerator::new(
        engine.network(),
        TripConfig {
            num_trips: params.warm_assignments + probes,
            seed: params.seed ^ 0x7415,
            ..TripConfig::default()
        },
    )
    .generate();

    let (warm, probe_slice) = trips.split_at(params.warm_assignments.min(trips.len()));
    for (i, trip) in warm.iter().enumerate() {
        let id = engine.allocate_request_id();
        let request = Request::new(id, trip.origin, trip.destination, trip.riders, i as f64);
        if let Ok(result) = engine.submit_request(request) {
            if let Some(option) = result.options.first() {
                let _ = engine.choose(id, option, i as f64);
            } else {
                let _ = engine.decline(id);
            }
        }
    }
    engine.reset_stats();

    BenchWorld {
        engine,
        probes: probe_slice.to_vec(),
    }
}

/// Matches one probe trip read-only and returns the result.
pub fn match_probe(engine: &PtRider, kind: MatcherKind, trip: &TimedTrip, id: u64) -> MatchResult {
    let request = Request::new(
        ptrider_core::RequestId(id),
        trip.origin,
        trip.destination,
        trip.riders,
        trip.time_secs,
    );
    engine
        .match_request_with(kind, &request)
        .expect("probe trips are valid requests")
}

/// Aggregate statistics over a batch of probe matches.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeSummary {
    /// Number of probes matched.
    pub probes: usize,
    /// Mean options per probe.
    pub mean_options: f64,
    /// Mean vehicles verified per probe.
    pub mean_verified: f64,
    /// Mean vehicles pruned per probe.
    pub mean_pruned: f64,
    /// Mean exact shortest-path computations per probe.
    pub mean_exact: f64,
    /// Fraction of probes that received at least one option.
    pub answer_rate: f64,
}

/// Matches every probe once with the given matcher and summarises the work.
pub fn summarise(engine: &PtRider, kind: MatcherKind, probes: &[TimedTrip]) -> ProbeSummary {
    let mut total_options = 0usize;
    let mut answered = 0usize;
    let mut verified = 0usize;
    let mut pruned = 0usize;
    let mut exact = 0u64;
    for (i, trip) in probes.iter().enumerate() {
        let result = match_probe(engine, kind, trip, i as u64);
        total_options += result.options.len();
        if !result.options.is_empty() {
            answered += 1;
        }
        verified += result.stats.vehicles_verified;
        pruned += result.stats.vehicles_pruned;
        exact += result.stats.exact_distance_computations;
    }
    let n = probes.len().max(1) as f64;
    ProbeSummary {
        probes: probes.len(),
        mean_options: total_options as f64 / n,
        mean_verified: verified as f64 / n,
        mean_pruned: pruned as f64 / n,
        mean_exact: exact as f64 / n,
        answer_rate: answered as f64 / n,
    }
}

/// Prints one experiment row (goes straight into EXPERIMENTS.md).
pub fn print_row(experiment: &str, label: &str, summary: &ProbeSummary) {
    println!(
        "[{experiment}] {label}: probes={} options/req={:.2} answered={:.1}% verified/req={:.1} pruned/req={:.1} exact-dist/req={:.1}",
        summary.probes,
        summary.mean_options,
        summary.answer_rate * 100.0,
        summary.mean_verified,
        summary.mean_pruned,
        summary.mean_exact
    );
}
