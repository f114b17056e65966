//! Property test: on networks with one-way edges — where the forward-only
//! grid tables are not admissible bounds — the single-side and dual-side
//! searches still return exactly the naive matcher's skyline. The grid
//! search must detect the directed network and degrade its cell-level
//! pruning to direction-safe bounds rather than silently dropping options.

use proptest::prelude::*;
use ptrider::{
    Decision, EngineConfig, GridConfig, MatcherKind, OptionId, RideOption, RideService, VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A jittered lattice with extra *one-way* shortcut edges, including cheap
/// one-way edges paired with expensive reverses (the pattern that breaks
/// symmetric bounds hardest).
fn directed_city(side: usize, one_way: usize, seed: u64) -> ptrider::RoadNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = ptrider::roadnet::RoadNetworkBuilder::new();
    let mut ids = Vec::new();
    for y in 0..side {
        for x in 0..side {
            ids.push(b.add_vertex(x as f64 * 500.0, y as f64 * 500.0));
        }
    }
    for y in 0..side {
        for x in 0..side {
            let u = ids[y * side + x];
            if x + 1 < side {
                b.add_bidirectional_edge(u, ids[y * side + x + 1], rng.gen_range(400.0..900.0));
            }
            if y + 1 < side {
                b.add_bidirectional_edge(u, ids[(y + 1) * side + x], rng.gen_range(400.0..900.0));
            }
        }
    }
    for _ in 0..one_way {
        let u = ids[rng.gen_range(0..ids.len())];
        let v = ids[rng.gen_range(0..ids.len())];
        if u != v {
            // Cheap forward, very expensive reverse: maximal asymmetry.
            b.add_directed_edge(u, v, rng.gen_range(100.0..300.0));
            b.add_directed_edge(v, u, rng.gen_range(5_000.0..9_000.0));
        }
    }
    b.build().unwrap()
}

fn canonical(options: &[RideOption]) -> Vec<(u32, i64, i64)> {
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
    side: usize,
    one_way: usize,
    num_vehicles: usize,
    num_requests: usize,
) -> Result<(), TestCaseError> {
    let city = directed_city(side, one_way, seed);
    prop_assert!(!city.is_undirected(), "scenario must be directed");
    // A tight pickup radius: an inflated (inadmissible) cell bound crosses
    // it and wrongly terminates the grid expansion, which is exactly the
    // regression this test exists to catch.
    let config = EngineConfig::paper_defaults().with_max_pickup_dist(2_500.0);

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xd1);
    let n = city.num_vertices() as u32;
    let vehicle_locations: Vec<VertexId> = (0..num_vehicles)
        .map(|_| VertexId(rng.gen_range(0..n)))
        .collect();
    let requests: Vec<(VertexId, VertexId)> = (0..num_requests)
        .map(|_| loop {
            let o = VertexId(rng.gen_range(0..n));
            let d = VertexId(rng.gen_range(0..n));
            if o != d {
                return (o, d);
            }
        })
        .collect();

    let engines: Vec<RideService> = MatcherKind::all()
        .iter()
        .map(|kind| {
            let e = RideService::new(city.clone(), GridConfig::with_dimensions(3, 3), config)
                .with_matcher(*kind);
            for &loc in &vehicle_locations {
                e.add_vehicle(loc);
            }
            e
        })
        .collect();

    for (i, &(origin, destination)) in requests.iter().enumerate() {
        let now = i as f64;
        let offers: Vec<_> = engines
            .iter()
            .map(|e| {
                e.submit(origin, destination, 1, now)
                    .expect("valid request")
            })
            .collect();
        let all_options: Vec<&[RideOption]> = offers.iter().map(|o| &o.options[..]).collect();
        let reference = canonical(all_options[0]);
        for (engine_idx, options) in all_options.iter().enumerate().skip(1) {
            prop_assert_eq!(
                &reference,
                &canonical(options),
                "matcher {} disagrees with naive on directed request #{} ({} -> {})",
                MatcherKind::all()[engine_idx],
                i,
                origin,
                destination
            );
        }
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
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, max_shrink_iters: 0, ..ProptestConfig::default() })]

    #[test]
    fn matchers_agree_on_one_way_networks(
        seed in 0u64..1_000_000,
        side in 3usize..6,
        one_way in 1usize..8,
        num_vehicles in 1usize..12,
        num_requests in 1usize..6,
    ) {
        run_scenario(seed, side, one_way, num_vehicles, num_requests)?;
    }
}

#[test]
fn matchers_agree_on_a_fixed_one_way_scenario() {
    run_scenario(20090529, 5, 6, 16, 8).unwrap();
}

/// Deterministic adversarial case: a vehicle sits far from the pickup by
/// lattice distance but has a cheap one-way road straight to it. The
/// forward-built grid tables bound the vehicle's cell far beyond the pickup
/// radius, so an ungated cell-level prune (P1/P4 with symmetric-only
/// bounds) would silently drop the only feasible vehicle that the naive
/// scan finds.
#[test]
fn one_way_shortcut_vehicle_is_not_lost_to_cell_pruning() {
    let side = 6usize;
    let spacing = 1000.0;
    let mut b = ptrider::roadnet::RoadNetworkBuilder::new();
    let mut ids = Vec::new();
    for y in 0..side {
        for x in 0..side {
            ids.push(b.add_vertex(x as f64 * spacing, y as f64 * spacing));
        }
    }
    for y in 0..side {
        for x in 0..side {
            let u = ids[y * side + x];
            if x + 1 < side {
                b.add_bidirectional_edge(u, ids[y * side + x + 1], spacing);
            }
            if y + 1 < side {
                b.add_bidirectional_edge(u, ids[(y + 1) * side + x], spacing);
            }
        }
    }
    let pickup = ids[0]; // corner (0,0)
    let dropoff = ids[1];
    let far = ids[side * side - 1]; // opposite corner, 10 km by lattice
    b.add_directed_edge(far, pickup, 500.0); // cheap one-way chord
    let city = b.build().unwrap();
    assert!(!city.is_undirected());

    // Pickup radius far below the lattice distance but above the chord.
    let config = EngineConfig::paper_defaults().with_max_pickup_dist(2_000.0);
    let mut per_matcher = Vec::new();
    for kind in MatcherKind::all() {
        let e = RideService::new(city.clone(), GridConfig::with_dimensions(3, 3), config)
            .with_matcher(kind);
        e.add_vehicle(far);
        let offer = e.submit(pickup, dropoff, 1, 0.0).unwrap();
        per_matcher.push((kind, canonical(&offer.options)));
    }
    let (_, reference) = &per_matcher[0];
    assert!(
        !reference.is_empty(),
        "naive must find the one-way-shortcut vehicle"
    );
    for (kind, options) in &per_matcher[1..] {
        assert_eq!(
            options, reference,
            "{kind} lost the one-way-shortcut vehicle to cell pruning"
        );
    }
}
