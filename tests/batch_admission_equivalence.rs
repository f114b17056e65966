//! Property test: `submit_batch_greedy` (conflict-graph parallel batch
//! admission) produces **byte-identical** `BatchOutcome`s to the paper's
//! sequential greedy admission (`submit_batch_sequential`) — across random
//! cities, fleets, warm-up assignments and bursts; across runtime pool
//! sizes {1, 2, 4}; and on both distance backends (`Alt` and `Ch`).
//!
//! The two engines of each comparison are constructed identically and
//! replay the same warm-up sequence, so they enter the burst in identical
//! vehicle/index states. Their oracle *cache histories* are allowed to
//! diverge inside the burst — the oracle's canonical-direction folds make
//! every answer a pure function of the pair (see the canonical-fold notes
//! in `ptrider_roadnet::oracle`), which is precisely what this test pins
//! down. The selector is stateful on purpose: admission must invoke it in
//! request order with bit-equal option slices for the call sequences to
//! line up.

use proptest::prelude::*;
use ptrider::datagen::{synthetic_city, CityConfig, TripConfig, TripGenerator};
use ptrider::{
    BatchOutcome, DistanceBackend, EngineConfig, GridConfig, MatcherKind, PtRider, VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds one engine and replays the deterministic warm-up so both sides of
/// a comparison enter the burst in identical states.
fn build_engine(
    seed: u64,
    num_vehicles: usize,
    warm_requests: usize,
    config: EngineConfig,
    matcher: MatcherKind,
) -> PtRider {
    let city = synthetic_city(&CityConfig::tiny(seed));
    let mut engine = PtRider::new(city, GridConfig::with_dimensions(4, 4), config);
    engine.set_matcher(matcher);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xba7c4);
    let n = engine.network().num_vertices() as u32;
    for _ in 0..num_vehicles {
        engine.add_vehicle(VertexId(rng.gen_range(0..n)));
    }
    // Warm-up: assign some trips so a share of the fleet is non-empty (the
    // interesting case for conflict edges through schedule-dependent
    // pruning).
    let warm = TripGenerator::new(
        engine.network(),
        TripConfig {
            num_trips: warm_requests,
            seed: seed ^ 0x3a,
            ..TripConfig::default()
        },
    )
    .generate();
    for (i, trip) in warm.iter().enumerate() {
        let (id, options) = engine.submit(trip.origin, trip.destination, trip.riders, i as f64);
        if let Some(first) = options.first().cloned() {
            let _ = engine.choose(id, &first, i as f64);
        } else {
            let _ = engine.decline(id);
        }
    }
    engine
}

/// A deterministic, *stateful* selector: alternates between the earliest
/// and the cheapest end of the skyline and declines every fifth call.
fn make_selector() -> impl FnMut(&[ptrider::RideOption]) -> Option<usize> {
    let mut calls = 0usize;
    move |options| {
        calls += 1;
        if options.is_empty() || calls.is_multiple_of(5) {
            None
        } else if calls.is_multiple_of(2) {
            Some(options.len() - 1)
        } else {
            Some(0)
        }
    }
}

/// Bit-level equality of two outcome lists (ids, choices, and full option
/// skylines including schedules).
fn assert_outcomes_identical(
    seq: &[BatchOutcome],
    par: &[BatchOutcome],
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(seq.len(), par.len(), "outcome count ({})", label);
    for (i, (a, b)) in seq.iter().zip(par).enumerate() {
        prop_assert_eq!(a.request, b.request, "request id #{} ({})", i, label);
        prop_assert_eq!(a.chosen, b.chosen, "chosen #{} ({})", i, label);
        prop_assert_eq!(
            a.options.len(),
            b.options.len(),
            "option count #{} ({})",
            i,
            label
        );
        for (x, y) in a.options.iter().zip(&b.options) {
            prop_assert_eq!(x.vehicle, y.vehicle, "vehicle #{} ({})", i, label);
            prop_assert_eq!(
                x.pickup_dist.to_bits(),
                y.pickup_dist.to_bits(),
                "pickup bits #{} ({})",
                i,
                label
            );
            prop_assert_eq!(
                x.price.to_bits(),
                y.price.to_bits(),
                "price bits #{} ({})",
                i,
                label
            );
            prop_assert_eq!(&x.schedule, &y.schedule, "schedule #{} ({})", i, label);
        }
    }
    Ok(())
}

fn run_scenario(
    seed: u64,
    num_vehicles: usize,
    warm_requests: usize,
    burst_size: usize,
    backend: DistanceBackend,
) -> Result<(), TestCaseError> {
    let matcher = match seed % 3 {
        0 => MatcherKind::Naive,
        1 => MatcherKind::SingleSide,
        _ => MatcherKind::DualSide,
    };
    let base = EngineConfig::paper_defaults().with_distance_backend(backend);

    let burst: Vec<(VertexId, VertexId, u32)> = TripGenerator::new(
        &synthetic_city(&CityConfig::tiny(seed)),
        TripConfig {
            num_trips: burst_size,
            seed: seed ^ 0xb057,
            ..TripConfig::default()
        },
    )
    .generate()
    .iter()
    .map(|t| (t.origin, t.destination, t.riders))
    .collect();

    let mut reference = build_engine(
        seed,
        num_vehicles,
        warm_requests,
        base.with_pool_size(1),
        matcher,
    );
    let seq = reference.submit_batch_sequential(&burst, 1_000.0, make_selector());

    for pool_size in [1usize, 2, 4] {
        let mut engine = build_engine(
            seed,
            num_vehicles,
            warm_requests,
            base.with_pool_size(pool_size),
            matcher,
        );
        let par = engine.submit_batch_greedy(&burst, 1_000.0, make_selector());
        let label = format!("{backend:?} pool {pool_size} matcher {matcher}");
        assert_outcomes_identical(&seq, &par, &label)?;

        // The committed world states agree too: every vehicle carries the
        // same requests over the same best schedule distance.
        for vehicle in reference.vehicles() {
            let twin = engine.vehicle(vehicle.id()).expect("same fleet");
            prop_assert_eq!(
                vehicle.num_requests(),
                twin.num_requests(),
                "vehicle {} load ({})",
                vehicle.id(),
                &label
            );
            prop_assert_eq!(
                vehicle.current_best_distance().to_bits(),
                twin.current_best_distance().to_bits(),
                "vehicle {} schedule length ({})",
                vehicle.id(),
                &label
            );
        }
        prop_assert_eq!(
            reference.stats().requests_chosen,
            engine.stats().requests_chosen
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn conflict_graph_admission_is_bit_identical_on_alt(
        seed in 0u64..1_000_000,
        num_vehicles in 1usize..20,
        warm_requests in 0usize..6,
        burst_size in 1usize..10,
    ) {
        run_scenario(seed, num_vehicles, warm_requests, burst_size, DistanceBackend::Alt)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn conflict_graph_admission_is_bit_identical_on_ch(
        seed in 0u64..1_000_000,
        num_vehicles in 1usize..16,
        warm_requests in 0usize..5,
        burst_size in 1usize..8,
    ) {
        run_scenario(seed, num_vehicles, warm_requests, burst_size, DistanceBackend::Ch)?;
    }
}

#[test]
fn conflict_graph_matches_sequential_on_a_dense_fixed_burst() {
    // Large enough that phase 1 spans several pool chunks, partitions
    // genuinely overlap, and re-matches occur.
    run_scenario(20090529, 48, 16, 32, DistanceBackend::Alt).unwrap();
    run_scenario(20090529, 32, 8, 24, DistanceBackend::Ch).unwrap();
}
