//! Property tests for the live-traffic subsystem: after each epoch of a
//! random traffic-factor sequence, the oracle's point queries and batches
//! are bit-identical to Dijkstra on the updated metric (directed *and*
//! undirected networks) through its epoch-stamped cache, and every
//! base-metric lower bound stays admissible under congestion.

use proptest::prelude::*;
use ptrider_roadnet::{
    dijkstra, DistanceOracle, GridConfig, GridIndex, LandmarkIndex, RoadNetwork,
    RoadNetworkBuilder, TrafficModel, VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Random jittered lattice; `one_way > 0` adds directed-only chords so the
/// network loses symmetry.
fn random_network(side: usize, one_way: usize, seed: u64) -> RoadNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = RoadNetworkBuilder::new();
    let mut ids = Vec::new();
    for y in 0..side {
        for x in 0..side {
            ids.push(b.add_vertex(
                x as f64 * 100.0 + rng.gen_range(-20.0..20.0),
                y as f64 * 100.0 + rng.gen_range(-20.0..20.0),
            ));
        }
    }
    for y in 0..side {
        for x in 0..side {
            let u = ids[y * side + x];
            if x + 1 < side {
                b.add_bidirectional_edge(u, ids[y * side + x + 1], rng.gen_range(80.0..200.0));
            }
            if y + 1 < side {
                b.add_bidirectional_edge(u, ids[(y + 1) * side + x], rng.gen_range(80.0..200.0));
            }
        }
    }
    for _ in 0..one_way {
        let u = ids[rng.gen_range(0..ids.len())];
        let v = ids[rng.gen_range(0..ids.len())];
        if u != v {
            b.add_directed_edge(u, v, rng.gen_range(30.0..150.0));
        }
    }
    b.build().unwrap()
}

/// Mutates a random subset of arcs; returns the scaled weights. Symmetric
/// (segment-level) factors on undirected networks keep the metric
/// undirected; directed networks get per-arc factors.
fn random_epoch(net: &RoadNetwork, model: &mut TrafficModel, rng: &mut ChaCha8Rng) -> Vec<f64> {
    if net.is_undirected() {
        for v in net.vertices() {
            for i in net.out_arc_range(v) {
                let t = net.arc_target(i);
                if v < t && rng.gen_bool(0.3) {
                    model.set_segment_factor(net, v, t, rng.gen_range(1.0..4.0));
                }
            }
        }
    } else {
        for i in 0..net.num_directed_edges() {
            if rng.gen_bool(0.3) {
                model.set_arc_factor(i, rng.gen_range(1.0..4.0));
            }
        }
    }
    model.bump_version();
    model.scaled_weights(net)
}

/// Dijkstra on `metric` in the direction the oracle folds `u → v`:
/// undirected answers are folded from the smaller vertex id.
fn reference(metric: &RoadNetwork, u: VertexId, v: VertexId) -> f64 {
    let (a, b) = if metric.is_undirected() && v < u {
        (v, u)
    } else {
        (u, v)
    };
    dijkstra::distance(metric, a, b).unwrap_or(f64::INFINITY)
}

fn same_bits(got: f64, exact: f64) -> bool {
    got.to_bits() == exact.to_bits() || (got.is_infinite() && exact.is_infinite())
}

fn landmark_oracle(net: &Arc<RoadNetwork>) -> DistanceOracle {
    let grid = Arc::new(GridIndex::build(net, GridConfig::with_dimensions(2, 2)));
    let landmarks = Arc::new(LandmarkIndex::build_auto(net, 4));
    DistanceOracle::with_landmarks(Arc::clone(net), grid, landmarks)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Acceptance property: after each epoch of a random traffic sequence,
    /// every point query answers bit-for-bit what Dijkstra answers on the
    /// re-weighted network — undirected and directed.
    #[test]
    fn point_queries_are_bit_identical_to_dijkstra_per_epoch(
        seed in 0u64..600,
        side in 4usize..6,
        one_way in 0usize..5,
        epochs in 1usize..4,
    ) {
        let net = Arc::new(random_network(side, one_way, seed));
        let oracle = landmark_oracle(&net);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7aff1c);
        let mut model = TrafficModel::free_flow(&net);
        for _ in 0..epochs {
            let scaled = random_epoch(&net, &mut model, &mut rng);
            let metric = net.with_metric(scaled).unwrap();
            oracle.apply_traffic(&model);
            for u in net.vertices() {
                for v in net.vertices() {
                    let exact = reference(&metric, u, v);
                    let got = oracle.distance(u, v);
                    prop_assert!(
                        same_bits(got, exact),
                        "{u}->{v}: oracle {got} vs dijkstra {exact} (seed {seed})"
                    );
                }
            }
        }
    }

    /// The oracle's batches under traffic serve the updated metric exactly
    /// through the epoch-stamped cache, and the base-metric lower bounds
    /// remain admissible after every epoch.
    #[test]
    fn batches_serve_the_updated_metric_and_bounds_stay_admissible(
        seed in 0u64..400,
        one_way in 0usize..4,
        epochs in 1usize..4,
    ) {
        let net = Arc::new(random_network(4, one_way, seed));
        let oracle = landmark_oracle(&net);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0e13);
        let mut model = TrafficModel::free_flow(&net);
        // Warm the cache on the base metric so staleness is actually
        // exercised by the epochs below.
        for u in net.vertices() {
            let _ = oracle.distance(u, VertexId(0));
        }
        for _ in 0..epochs {
            let scaled = random_epoch(&net, &mut model, &mut rng);
            let metric = net.with_metric(scaled).unwrap();
            oracle.apply_traffic(&model);
            let targets: Vec<VertexId> = net.vertices().collect();
            for u in net.vertices() {
                // Bounds first: once a pair is cached the bound is exact.
                for v in &targets {
                    let exact = reference(&metric, u, *v);
                    let lb = oracle.lower_bound(u, *v);
                    prop_assert!(
                        lb <= exact + 1e-9,
                        "lb {lb} > exact {exact} under traffic ({u}->{v})"
                    );
                }
                let batch = oracle.distances_from(u, &targets);
                for (v, got) in targets.iter().zip(batch) {
                    let exact = reference(&metric, u, *v);
                    prop_assert!(
                        same_bits(got, exact),
                        "{u}->{v}: batch {got} vs dijkstra {exact}"
                    );
                }
            }
        }
    }
}

/// Deterministic regression: a long alternating congest/relax sequence
/// keeps the oracle bit-identical to Dijkstra on each epoch's metric, and
/// free-flow resets return the base bits.
#[test]
fn a_long_epoch_sequence_stays_bit_identical_to_dijkstra() {
    let net = Arc::new(random_network(5, 3, 99));
    let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(2, 2)));
    let oracle = DistanceOracle::new(Arc::clone(&net), grid);
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    let mut model = TrafficModel::free_flow(&net);
    for round in 0..10 {
        if round % 3 == 2 {
            model.reset();
        } else {
            let _ = random_epoch(&net, &mut model, &mut rng);
        }
        oracle.apply_traffic(&model);
        let metric = oracle.metric_network();
        if round % 3 == 2 {
            assert!(Arc::ptr_eq(&metric, &net), "free flow reinstates the base");
        }
        for u in net.vertices() {
            for v in net.vertices() {
                let got = oracle.distance(u, v);
                let exact = reference(&metric, u, v);
                assert!(
                    same_bits(got, exact),
                    "round {round}: {u}->{v} oracle {got} vs dijkstra {exact}"
                );
            }
        }
    }
    assert_eq!(oracle.traffic_epoch(), 10);
}
