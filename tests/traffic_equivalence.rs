//! Property tests for the live-traffic subsystem at the `tests/` (skyline)
//! level: after every epoch of a random traffic sequence, an engine whose
//! metric was swapped epoch by epoch offers **bit-identical** option
//! skylines to a fresh engine built over that epoch's metric network, and
//! the engine/service write paths account the epochs.
//!
//! The swapped engine keeps its base-metric grid and landmark bounds and an
//! epoch-stamped cache warmed under every earlier epoch; the fresh engine
//! builds its bounds on the metric itself and starts cold. Equal skylines
//! therefore mean that stale cache entries stay invisible and that the
//! base-metric bounds (admissible because factors are ≥ 1) prune nothing
//! the metric's own bounds would keep.

use proptest::prelude::*;
use ptrider::datagen::{
    synthetic_city, CityConfig, CongestionConfig, CongestionProfile, TimedTrip, TripConfig,
    TripGenerator,
};
use ptrider::{
    Decision, EngineConfig, GridConfig, MatcherKind, Offer, OptionId, RideService, RoadNetwork,
    TrafficModel, VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Canonical form of an option set: the sorted multiset of (vehicle,
/// pickup-bits, price-bits) triples — bit-exact, duplicates included.
fn canonical(options: &[ptrider::RideOption]) -> Vec<(u32, u64, u64)> {
    let mut v: Vec<(u32, u64, u64)> = options
        .iter()
        .map(|o| (o.vehicle.0, o.pickup_dist.to_bits(), o.price.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// A service over `net` with the scenario's fleet.
fn make_engine(net: RoadNetwork, seed: u64, num_vehicles: usize) -> RideService {
    let engine = RideService::new(
        net,
        GridConfig::with_dimensions(4, 4),
        EngineConfig::paper_defaults(),
    )
    .with_matcher(MatcherKind::DualSide);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbac);
    for _ in 0..num_vehicles {
        engine.add_vehicle(VertexId(
            rng.gen_range(0..engine.network().num_vertices() as u32),
        ));
    }
    engine
}

fn submit(service: &RideService, trip: &TimedTrip, now: f64) -> Offer {
    service
        .submit(trip.origin, trip.destination, trip.riders, now)
        .expect("generated trips are valid requests")
}

/// Submits every trip at `now` and declines it: warms the oracle cache
/// under the current epoch without changing the world.
fn probe_and_decline(service: &RideService, trips: &[TimedTrip], now: f64) {
    for trip in trips {
        let offer = submit(service, trip, now);
        let _ = service.respond(offer.session, Decision::Decline, now);
    }
}

fn run_scenario(seed: u64, num_vehicles: usize, epochs: usize) -> Result<(), TestCaseError> {
    let city = synthetic_city(&CityConfig::tiny(seed));
    let trips = TripGenerator::new(
        &city,
        TripConfig {
            num_trips: 24,
            seed: seed ^ 0x7aff1c,
            ..TripConfig::default()
        },
    )
    .generate();

    // The epoch sequence: a rush-hour snapshot at a random time of day,
    // with occasional resets to free flow so the restore path is exercised.
    let profile = CongestionProfile::build(
        &city,
        CongestionConfig {
            seed,
            ..CongestionConfig::default()
        },
    );
    let mut model = TrafficModel::free_flow(&city);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xcafe);
    let mut models = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        if epoch > 0 && rng.gen_bool(0.25) {
            model.reset();
        } else {
            let t = rng.gen_range(0.0..86_400.0);
            profile.update_model(&city, t, &mut model);
        }
        models.push(model.clone());
    }

    for (epoch, model) in models.iter().enumerate() {
        // The swapped engine lives through every earlier epoch, warming its
        // cache under each, before the epoch under test is applied.
        let swapped = make_engine(city.clone(), seed, num_vehicles);
        for (k, earlier) in models[..epoch].iter().enumerate() {
            swapped.apply_traffic_update(earlier, k as f64);
            probe_and_decline(&swapped, &trips, k as f64);
        }
        let outcome = swapped.apply_traffic_update(model, epoch as f64);
        prop_assert_eq!(outcome.epoch, epoch as u64 + 1);
        prop_assert_eq!(outcome.congested_arcs, model.congested_arcs());
        prop_assert_eq!(swapped.stats().traffic_epochs, epoch as u64 + 1);
        if model.congested_arcs() == 0 {
            // A free-flow reset reinstates the base network itself.
            let metric = swapped.oracle().metric_network();
            prop_assert!(std::ptr::eq(&*metric, swapped.network()));
        }

        let metric = city
            .with_metric(model.scaled_weights(&city))
            .expect("scaled weights are valid");
        let fresh = make_engine(metric, seed, num_vehicles);

        // Probe both, committing every fourth trip on both identically so
        // the two worlds evolve: skylines must agree bit for bit.
        let now = epoch as f64 + 100.0;
        for (k, trip) in trips.iter().enumerate() {
            let s_offer = submit(&swapped, trip, now);
            let f_offer = submit(&fresh, trip, now);
            prop_assert_eq!(
                canonical(&s_offer.options),
                canonical(&f_offer.options),
                "epoch {} trip {} ({} -> {})",
                epoch,
                k,
                trip.origin,
                trip.destination
            );
            // The first option of a bit-identical skyline is the same one.
            let decision = if k % 4 == 0 && !s_offer.options.is_empty() {
                Decision::Choose(OptionId(0))
            } else {
                Decision::Decline
            };
            let ok_s = swapped.respond(s_offer.session, decision, now).is_ok();
            let ok_f = fresh.respond(f_offer.session, decision, now).is_ok();
            prop_assert_eq!(ok_s, ok_f);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn skylines_under_traffic_match_a_fresh_engine_on_the_metric(
        seed in 0u64..300,
        num_vehicles in 6usize..14,
        epochs in 1usize..4,
    ) {
        run_scenario(seed, num_vehicles, epochs)?;
    }
}

/// Deterministic end-to-end regression on the service layer: epochs applied
/// through `RideService::apply_traffic_update` are observable (event +
/// stats), affect subsequent offers, and a free-flow reset restores the
/// original bits.
#[test]
fn service_traffic_lifecycle_round_trips() {
    use ptrider::EngineEvent;
    let city = synthetic_city(&CityConfig::tiny(5));
    let service = RideService::new(
        city,
        GridConfig::with_dimensions(4, 4),
        EngineConfig::paper_defaults(),
    );
    service.add_vehicle(VertexId(0));
    let mut cursor = service.subscribe();

    let base = service.submit(VertexId(40), VertexId(80), 1, 0.0).unwrap();
    assert!(!base.options.is_empty());
    service
        .respond(base.session, Decision::Decline, 0.0)
        .unwrap();
    let base_sig = canonical(&base.options);

    let outcome = service.apply_traffic_update(&TrafficModel::uniform(service.network(), 2.0), 1.0);
    assert_eq!(outcome.epoch, 1);
    let congested = service.submit(VertexId(40), VertexId(80), 1, 2.0).unwrap();
    assert_ne!(
        canonical(&congested.options),
        base_sig,
        "2x traffic must re-price"
    );
    service
        .respond(congested.session, Decision::Decline, 2.0)
        .unwrap();

    let outcome = service.apply_traffic_update(&TrafficModel::free_flow(service.network()), 3.0);
    assert_eq!(outcome.epoch, 2);
    assert!(
        std::ptr::eq(&*service.oracle().metric_network(), service.network()),
        "free flow reinstates the base network"
    );
    let restored = service.submit(VertexId(40), VertexId(80), 1, 4.0).unwrap();
    assert_eq!(
        canonical(&restored.options),
        base_sig,
        "free flow restores the base bits"
    );
    service
        .respond(restored.session, Decision::Decline, 4.0)
        .unwrap();

    let stats = service.stats();
    assert_eq!(stats.traffic_epochs, 2);
    let traffic_events: Vec<_> = service
        .poll_events(&mut cursor)
        .into_iter()
        .filter(|e| matches!(e, EngineEvent::TrafficUpdated { .. }))
        .collect();
    assert_eq!(traffic_events.len(), 2);
}
