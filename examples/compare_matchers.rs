//! Compares the three matching algorithms (naive kinetic-tree scan,
//! single-side search, dual-side search) on the same request workload:
//! identical option sets, very different amounts of work.
//!
//! Run with `cargo run --release --example compare_matchers -- [vehicles] [requests]`
//! (defaults: 600 vehicles, 150 requests).

use ptrider::datagen::{synthetic_city, CityConfig, TripConfig, TripGenerator};
use ptrider::{Decision, EngineConfig, GridConfig, MatcherKind, RideService, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let num_vehicles: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(600);
    let num_requests: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(150);

    let city_config = CityConfig::medium(2024);
    let city = synthetic_city(&city_config);
    println!(
        "city: {} vertices | fleet: {num_vehicles} | requests: {num_requests}",
        city.num_vertices()
    );

    let trips = TripGenerator::new(
        &city,
        TripConfig {
            num_trips: num_requests,
            seed: 17,
            ..TripConfig::default()
        },
    )
    .generate();

    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let vehicle_locations: Vec<VertexId> = (0..num_vehicles)
        .map(|_| VertexId(rng.gen_range(0..city.num_vertices() as u32)))
        .collect();

    println!(
        "\n{:<14} {:>10} {:>12} {:>12} {:>14} {:>12}",
        "matcher", "total ms", "ms/request", "verified/req", "exact dist/req", "options/req"
    );

    let mut option_sets: Vec<Vec<(u32, f64, f64)>> = Vec::new();
    for kind in MatcherKind::all() {
        let engine = RideService::new(
            city.clone(),
            GridConfig::with_dimensions(12, 12),
            EngineConfig::paper_defaults(),
        )
        .with_matcher(kind);
        for &loc in &vehicle_locations {
            engine.add_vehicle(loc);
        }

        let started = Instant::now();
        let mut all_options = Vec::new();
        for trip in &trips {
            let now = trip.time_secs;
            let Ok(offer) = engine.submit(trip.origin, trip.destination, trip.riders, now) else {
                all_options.push(Vec::new());
                continue;
            };
            all_options.push(
                offer
                    .options
                    .iter()
                    .map(|o| (o.vehicle.0, o.pickup_dist, o.price))
                    .collect(),
            );
            engine
                .respond(offer.session, Decision::Decline, now)
                .unwrap();
        }
        let elapsed = started.elapsed().as_secs_f64() * 1000.0;
        let stats = engine.stats();
        println!(
            "{:<14} {:>10.1} {:>12.3} {:>12.1} {:>14.1} {:>12.2}",
            kind.to_string(),
            elapsed,
            elapsed / trips.len() as f64,
            stats.avg_vehicles_verified(),
            stats.match_work.exact_distance_computations as f64 / trips.len() as f64,
            stats.avg_options_per_request(),
        );
        option_sets.push(all_options.into_iter().flatten().collect());
    }

    // The three matchers must return exactly the same skylines.
    let reference = &option_sets[0];
    for (i, set) in option_sets.iter().enumerate().skip(1) {
        assert_eq!(
            reference.len(),
            set.len(),
            "matcher #{i} returned a different number of options"
        );
    }
    println!(
        "\nall matchers returned identical option sets ({} options total)",
        reference.len()
    );
}
