//! Property test: candidate verification split across the worker pool
//! produces byte-identical skylines to the single-thread loop, for all
//! three matchers, on randomly generated cities, fleets and request
//! sequences.
//!
//! The parallel path partitions surviving candidate vehicles across worker
//! threads with per-thread skylines merged at the end; because skyline
//! membership is insertion-order independent and one vehicle's options stay
//! on one thread, the merged result must equal the sequential one exactly
//! (full `RideOption` equality, schedules included).
//!
//! Each scenario drives two engines over the same world in lockstep: one
//! with `pool_size: 1` (never splits) and one with `pool_size: 4` and
//! `par_auto_min_batch: 2` (splits every batch of at least 8 vehicles).
//! Both pool sizes are explicit, so `PTRIDER_POOL_SIZE` cannot move them,
//! and the pooled engine's pool-job histogram proves batches really were
//! split, in every random case and under every matcher — the comparison
//! cannot silently go sequential.

use proptest::prelude::*;
use ptrider::datagen::{synthetic_city, CityConfig, TripConfig, TripGenerator};
use ptrider::roadnet::{DistanceOracle, GridIndex};
use ptrider::{
    EngineConfig, GridConfig, MatcherKind, PtRider, Request, Stage, TelemetryConfig, VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The grid searches verify cell by cell, so only a coarse grid under a
/// dense fleet leaves them batches big enough to split.
const GRID_SIDE: usize = 2;

/// An engine over the tiny city with spans telemetry forced on (whatever
/// `PTRIDER_TELEMETRY` says), so its pool-job histogram is attached.
fn build_engine(seed: u64, config: EngineConfig) -> PtRider {
    let net = Arc::new(synthetic_city(&CityConfig::tiny(seed)));
    let grid = Arc::new(GridIndex::build(
        &net,
        GridConfig::with_dimensions(GRID_SIDE, GRID_SIDE),
    ));
    let oracle = DistanceOracle::with_backend(
        Arc::clone(&net),
        Arc::clone(&grid),
        None,
        config.distance_backend,
    );
    PtRider::with_oracle_and_telemetry(net, grid, oracle, config, TelemetryConfig::spans())
}

/// Chunks the engine's verification loops have handed to pool workers.
fn pool_jobs(engine: &PtRider) -> u64 {
    engine.telemetry().stage_snapshot(Stage::PoolJob).count()
}

/// Runs the scenario and returns, per matcher (in `MatcherKind::all()`
/// order), how many verification chunks the pooled engine dispatched.
fn run_scenario(
    seed: u64,
    num_vehicles: usize,
    num_requests: usize,
) -> Result<Vec<u64>, TestCaseError> {
    let base = EngineConfig::paper_defaults();
    let mut sequential = build_engine(seed, base.with_pool_size(1));
    let mut pooled = build_engine(seed, base.with_pool_size(4).with_par_auto_min_batch(2));

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9a11e1);
    let n = sequential.network().num_vertices() as u32;
    for _ in 0..num_vehicles {
        let at = VertexId(rng.gen_range(0..n));
        sequential.add_vehicle(at);
        pooled.add_vehicle(at);
    }
    let trips = TripGenerator::new(
        sequential.network(),
        TripConfig {
            num_trips: num_requests,
            seed: seed ^ 0x77,
            ..TripConfig::default()
        },
    )
    .generate();

    let mut jobs = vec![0u64; MatcherKind::all().len()];
    for (i, trip) in trips.iter().enumerate() {
        let now = i as f64;
        let id = sequential.allocate_request_id();
        prop_assert_eq!(id, pooled.allocate_request_id());
        let request = Request::new(id, trip.origin, trip.destination, trip.riders, now);

        for (k, &kind) in MatcherKind::all().iter().enumerate() {
            let seq = sequential
                .match_request_with(kind, &request)
                .expect("valid request")
                .options;
            let before = pool_jobs(&pooled);
            let par = pooled
                .match_request_with(kind, &request)
                .expect("valid request")
                .options;
            jobs[k] += pool_jobs(&pooled) - before;
            prop_assert_eq!(
                seq,
                par,
                "matcher {} pooled skyline differs on request #{}",
                kind,
                i
            );
        }

        // Assign via the normal engine path, on both engines, so later
        // requests see busy vehicles (the interesting case for
        // verification batches).
        let (rid, options) = sequential.submit(trip.origin, trip.destination, trip.riders, now);
        let (twin_rid, twin_options) =
            pooled.submit(trip.origin, trip.destination, trip.riders, now);
        prop_assert_eq!(rid, twin_rid);
        prop_assert_eq!(&options, &twin_options, "submitted skyline #{}", i);
        if let Some(first) = options.first() {
            let _ = sequential.choose(rid, first, now);
            let _ = pooled.choose(twin_rid, first, now);
        } else {
            let _ = sequential.decline(rid);
            let _ = pooled.decline(twin_rid);
        }
    }
    prop_assert_eq!(pool_jobs(&sequential), 0, "pool_size 1 never dispatches");
    Ok(jobs)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    // 64 or more vehicles on the 2×2 grid leave every matcher two chunks
    // of four candidates after pruning (2000 random cases checked), so
    // every case must split under every matcher.
    #[test]
    fn pooled_and_sequential_skylines_are_identical(
        seed in 0u64..1_000_000,
        num_vehicles in 64usize..128,
        num_requests in 1usize..8,
    ) {
        let jobs = run_scenario(seed, num_vehicles, num_requests)?;
        for (kind, jobs) in MatcherKind::all().iter().zip(jobs) {
            prop_assert!(jobs > 0, "matcher {} never split a verification batch", kind);
        }
    }
}
