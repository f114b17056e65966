//! Property test: the single-side and dual-side searches return exactly the
//! same skyline of options as the naive kinetic-tree scan, on randomly
//! generated cities, fleets and request sequences.
//!
//! This is the key correctness invariant of the reproduction: the pruning
//! bounds (P1–P5 in DESIGN.md) are admissible, so they only reduce work and
//! never change the result. The engines are fed identical request sequences
//! (with the rider always choosing the first option), so their vehicle
//! states stay in lockstep and every subsequent matching call is compared on
//! identical worlds.

use proptest::prelude::*;
use ptrider::datagen::{synthetic_city, CityConfig, TripConfig, TripGenerator};
use ptrider::{
    Decision, EngineConfig, GridConfig, MatcherKind, OptionId, RideOption, RideService, VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Canonical form of an option set for comparison (vehicle, rounded pickup,
/// rounded price).
fn canonical(options: &[ptrider::RideOption]) -> Vec<(u32, i64, i64)> {
    let mut v: Vec<(u32, i64, i64)> = options
        .iter()
        .map(|o| {
            (
                o.vehicle.0,
                (o.pickup_dist * 1e6).round() as i64,
                (o.price * 1e9).round() as i64,
            )
        })
        .collect();
    v.sort_unstable();
    v
}

fn run_scenario(
    seed: u64,
    num_vehicles: usize,
    num_requests: usize,
    detour: f64,
    wait_secs: f64,
) -> Result<(), TestCaseError> {
    let city = synthetic_city(&CityConfig::tiny(seed));
    let config = EngineConfig::paper_defaults()
        .with_detour_factor(detour)
        .with_max_wait_secs(wait_secs);

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
    let vehicle_locations: Vec<VertexId> = (0..num_vehicles)
        .map(|_| VertexId(rng.gen_range(0..city.num_vertices() as u32)))
        .collect();
    let trips = TripGenerator::new(
        &city,
        TripConfig {
            num_trips: num_requests,
            seed: seed ^ 0x17,
            ..TripConfig::default()
        },
    )
    .generate();

    // One engine per matcher, fed identical inputs.
    let engines: Vec<RideService> = MatcherKind::all()
        .iter()
        .map(|kind| {
            let e = RideService::new(city.clone(), GridConfig::with_dimensions(4, 4), config)
                .with_matcher(*kind);
            for &loc in &vehicle_locations {
                e.add_vehicle(loc);
            }
            e
        })
        .collect();

    for (i, trip) in trips.iter().enumerate() {
        let now = trip.time_secs;
        let offers: Vec<_> = engines
            .iter()
            .map(|e| {
                e.submit(trip.origin, trip.destination, trip.riders, now)
                    .expect("valid request")
            })
            .collect();
        let all_options: Vec<&[RideOption]> = offers.iter().map(|o| &o.options[..]).collect();
        let reference = canonical(all_options[0]);
        for (engine_idx, options) in all_options.iter().enumerate().skip(1) {
            prop_assert_eq!(
                &reference,
                &canonical(options),
                "matcher {} disagrees with naive on request #{} ({} -> {})",
                MatcherKind::all()[engine_idx],
                i,
                trip.origin,
                trip.destination
            );
        }
        // Every option set is a valid skyline: no option dominates another.
        for options in &all_options {
            for a in options.iter() {
                for b in options.iter() {
                    if !std::ptr::eq(a, b) {
                        prop_assert!(!a.dominates(b), "dominated option returned: {a:?} vs {b:?}");
                    }
                }
            }
        }

        // The rider deterministically takes the first (earliest-pickup)
        // option so all engines evolve identically; every response lands at
        // the submit's timestamp, so no offer TTL can expire it.
        let decision = if all_options[0].is_empty() {
            Decision::Decline
        } else {
            Decision::Choose(OptionId(0))
        };
        for (engine, offer) in engines.iter().zip(&offers) {
            engine
                .respond(offer.session, decision, now)
                .expect("chosen option must be assignable");
        }
    }

    // After the whole sequence the pruned matchers did no more verification
    // work than the naive one.
    let naive_verified = engines[0].stats().match_work.vehicles_verified;
    for engine in engines.iter().skip(1) {
        assert!(
            engine.stats().match_work.vehicles_verified <= naive_verified,
            "pruned matcher verified more vehicles than the naive scan"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn matchers_return_identical_skylines(
        seed in 0u64..1_000_000,
        num_vehicles in 1usize..16,
        num_requests in 1usize..10,
        detour in 0.1f64..0.8,
        wait_mins in 2.0f64..12.0,
    ) {
        run_scenario(seed, num_vehicles, num_requests, detour, wait_mins * 60.0)?;
    }
}

#[test]
fn matchers_agree_on_a_busy_fixed_scenario() {
    // A deterministic, denser scenario exercised on every test run.
    run_scenario(20090529, 24, 20, 0.3, 360.0).unwrap();
}
