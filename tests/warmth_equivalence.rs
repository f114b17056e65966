//! Property test: offers are a function of the world, not of the distance
//! cache's history.
//!
//! One world and one request are matched on fresh oracles over the same
//! network, grid and landmarks:
//!
//! * **cold** — a fresh cache;
//! * **warmed by unrelated queries** — a fresh cache first filled with
//!   random point queries, one-to-many batches and lower bounds;
//! * **warmed by the request's own plan** — a fresh cache on which the same
//!   request was matched once already, so every `s`/`d` leg the request's
//!   distance plan computes is a hit and every pruning bound on those pairs
//!   is the cached exact value.
//!
//! A fourth one is warmed by point queries `dist(x, s)` and `dist(d, x)`
//! for every vertex `x`: the same pairs the plan answers, but computed by
//! goal-directed point searches, so a plan answer whose bits differ from a
//! point query's shows up here.
//!
//! All three matchers must return byte-identical `RideOption`s on all of
//! them. This holds only because cached values are
//! folded canonically (a pure function of the pair) and every non-exact
//! lower bound stays at or below the exact bits, so pruning at an exact
//! price/time tie cannot depend on whether the pair was cached.

use proptest::prelude::*;
use ptrider::datagen::{synthetic_city, CityConfig, TripConfig, TripGenerator};
use ptrider::roadnet::{DistanceOracle, LandmarkIndex};
use ptrider::{
    Decision, EngineConfig, GridConfig, MatcherKind, OptionId, Request, RequestId, RideService,
    VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Every byte of an option set, in the order the matcher returned it
/// (`{:?}` prints each `f64` in its shortest round-trip form, so equal
/// strings mean equal bits).
fn bytes(options: &[ptrider::RideOption]) -> String {
    format!("{options:?}")
}

fn run_scenario(seed: u64, num_vehicles: usize, num_warm: usize, num_probes: usize) {
    let city = synthetic_city(&CityConfig::tiny(seed));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x3a7);
    let engine = RideService::new(
        city,
        GridConfig::with_dimensions(4, 4),
        EngineConfig::paper_defaults(),
    )
    .with_matcher(MatcherKind::DualSide);
    let n = engine.network().num_vertices() as u32;
    for _ in 0..num_vehicles {
        engine.add_vehicle(VertexId(rng.gen_range(0..n)));
    }
    let trips = TripGenerator::new(
        engine.network(),
        TripConfig {
            num_trips: num_warm + num_probes,
            seed: seed ^ 0x71,
            ..TripConfig::default()
        },
    )
    .generate();
    for (i, trip) in trips.iter().take(num_warm).enumerate() {
        let now = i as f64;
        let offer = engine
            .submit(trip.origin, trip.destination, trip.riders, now)
            .expect("valid request");
        let decision = if offer.options.is_empty() {
            Decision::Decline
        } else {
            Decision::Choose(OptionId(0))
        };
        let _ = engine.respond(offer.session, decision, now);
    }

    let net = engine.oracle().network_arc();
    let grid = engine.oracle().grid_arc();
    let landmarks = Arc::new(LandmarkIndex::build_auto(&net, 4));
    let fresh = || {
        DistanceOracle::with_landmarks(Arc::clone(&net), Arc::clone(&grid), Arc::clone(&landmarks))
    };

    for (i, trip) in trips.iter().skip(num_warm).enumerate() {
        let request = Request::new(
            RequestId(1000 + i as u64),
            trip.origin,
            trip.destination,
            trip.riders,
            i as f64,
        );
        for kind in MatcherKind::all() {
            let run = |oracle: &DistanceOracle| {
                let result = engine
                    .match_request_with_oracle(kind, &request, oracle)
                    .expect("valid request");
                bytes(&result.options)
            };
            let cold = run(&fresh());

            let unrelated = fresh();
            let mut warm_rng = ChaCha8Rng::seed_from_u64(seed ^ i as u64);
            for _ in 0..200 {
                let u = VertexId(warm_rng.gen_range(0..n));
                let v = VertexId(warm_rng.gen_range(0..n));
                let _ = unrelated.distance(u, v);
                let _ = unrelated.lower_bound(v, u);
            }
            for _ in 0..8 {
                let source = VertexId(warm_rng.gen_range(0..n));
                let targets: Vec<VertexId> = (0..12)
                    .map(|_| VertexId(warm_rng.gen_range(0..n)))
                    .collect();
                let _ = unrelated.distances_from(source, &targets);
            }
            let unrelated = run(&unrelated);

            let own = fresh();
            let _ = run(&own);
            let own = run(&own);

            let points = fresh();
            for x in 0..n {
                let _ = points.distance(VertexId(x), trip.origin);
                let _ = points.distance(trip.destination, VertexId(x));
            }
            let points = run(&points);

            assert_eq!(
                cold, unrelated,
                "cold vs unrelated-warm: {kind}, probe #{i}"
            );
            assert_eq!(cold, own, "cold vs plan-warm: {kind}, probe #{i}");
            assert_eq!(cold, points, "cold vs point-query-warm: {kind}, probe #{i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn offers_do_not_depend_on_cache_warmth(
        seed in 0u64..1_000_000,
        num_vehicles in 1usize..16,
        num_warm in 0usize..12,
        num_probes in 1usize..5,
    ) {
        run_scenario(seed, num_vehicles, num_warm, num_probes);
    }
}

#[test]
fn warmth_does_not_change_a_busy_fixed_scenario() {
    run_scenario(20090529, 24, 20, 8);
}
