//! Shadow matching on a moving fleet: before every submit, the naive scan,
//! the single-side search and the dual-side search answer the same request
//! on the same world, and their skylines must agree bit for bit.
//!
//! Options are compared as `(vehicle, pickup_dist bits, price bits)`, with
//! no rounding. Two options whose prices differ by one ulp are both in a
//! skyline (neither dominates the other), so a pruning bound that rounds
//! one ulp above a true price loses an option here, where a rounded
//! comparison would call the skylines equal.
//!
//! The fleet moves one vertex toward its next stop after every submit and
//! serves the stop it stands on, so the bounds meet vehicles in every
//! state: idle, on the way to a pickup, carrying riders, between cells.

use ptrider::datagen::{synthetic_city, CityConfig, TripConfig, TripGenerator};
use ptrider::roadnet::dijkstra;
use ptrider::{
    Decision, EngineConfig, GridConfig, MatcherKind, OptionId, Request, RequestId, RideOption,
    RideService, VehicleId, VertexId,
};

/// Rides the script must commit.
const RIDES: u64 = 1_000;
const FLEET: usize = 60;

/// The skyline as exact bits, in a canonical order.
fn bits(options: &[RideOption]) -> Vec<(u32, u64, u64)> {
    let mut bits: Vec<_> = options
        .iter()
        .map(|o| (o.vehicle.0, o.pickup_dist.to_bits(), o.price.to_bits()))
        .collect();
    bits.sort_unstable();
    bits
}

/// A tiny xorshift, so the script is pure data derived from one seed.
fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move |bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    }
}

/// Moves every busy vehicle one vertex toward its next stop, or serves the
/// stop it stands on.
fn step_fleet(svc: &RideService, fleet: &[VehicleId]) {
    for &v in fleet {
        let (location, stop) = svc
            .with_vehicle(v, |veh| (veh.location(), veh.next_stop()))
            .unwrap();
        let Some(stop) = stop else { continue };
        if location == stop.location {
            svc.vehicle_arrived(v).unwrap();
            continue;
        }
        let (_, path) = dijkstra::shortest_path(svc.network(), location, stop.location).unwrap();
        let travelled = svc.oracle().distance(location, path[1]);
        svc.location_update(v, path[1], travelled).unwrap();
    }
}

#[test]
fn the_three_matchers_agree_bit_for_bit_on_a_moving_fleet() {
    let city = synthetic_city(&CityConfig {
        cols: 16,
        rows: 16,
        seed: 11,
        ..CityConfig::default()
    });
    let vertices = city.num_vertices() as u64;
    let trips = TripGenerator::new(&city, TripConfig::small(4 * RIDES as usize, 11)).generate();
    let svc = RideService::new(
        city,
        GridConfig::with_dimensions(6, 6),
        EngineConfig::paper_defaults(),
    )
    .with_matcher(MatcherKind::DualSide);
    let mut next = rng(0x5ead0);
    let fleet: Vec<VehicleId> = (0..FLEET)
        .map(|_| svc.add_vehicle(VertexId(next(vertices) as u32)))
        .collect();

    let (mut rides, mut options, mut twins) = (0, 0, 0);
    for (i, trip) in trips.iter().enumerate() {
        if rides == RIDES {
            break;
        }
        let now = i as f64;
        let request = Request::new(
            RequestId(u64::MAX - i as u64),
            trip.origin,
            trip.destination,
            trip.riders,
            now,
        );
        let naive = svc
            .match_request_with(MatcherKind::Naive, &request)
            .expect("a valid request");
        let expected = bits(&naive.options);
        for kind in [MatcherKind::SingleSide, MatcherKind::DualSide] {
            let got = svc.match_request_with(kind, &request).unwrap();
            assert_eq!(bits(&got.options), expected, "{kind} on request {i}");
        }
        options += expected.len();
        // Options whose prices are within a few ulp of another option's:
        // the ties the pruning bounds must not break.
        twins += naive
            .options
            .windows(2)
            .filter(|w| (w[0].price - w[1].price).abs() <= 1e-12 * w[0].price)
            .count();

        let offer = svc
            .submit(trip.origin, trip.destination, trip.riders, now)
            .expect("a valid request");
        assert_eq!(bits(&offer.options), expected, "the submit's own offer");
        if offer.options.is_empty() || next(8) == 0 {
            svc.respond(offer.session, Decision::Decline, now).unwrap();
        } else {
            let k = next(offer.options.len() as u64) as u32;
            if svc
                .respond(offer.session, Decision::Choose(OptionId(k)), now)
                .unwrap()
                .is_some()
            {
                rides += 1;
            }
        }
        step_fleet(&svc, &fleet);
    }
    let stats = svc.stats();
    assert_eq!(rides, RIDES, "the trip stream ran out");
    assert!(stats.location_updates > 5 * RIDES && stats.dropoffs > RIDES / 2);
    assert!(options > 2 * RIDES as usize, "only {options} options");
    assert!(twins > 100, "the script met only {twins} price ties");
}
