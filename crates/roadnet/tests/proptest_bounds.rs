//! Property tests for the road-network substrate: on randomly generated
//! connected networks, every lower bound is admissible and every shortest
//! path engine agrees with plain Dijkstra.

use proptest::prelude::*;
use ptrider_datagen::{synthetic_city, CityConfig};
use ptrider_roadnet::{
    astar, dijkstra, DistanceOracle, GridConfig, GridIndex, LandmarkIndex, RoadNetwork,
    RoadNetworkBuilder, VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Builds a random connected network: a jittered lattice with random extra
/// chords and random weights.
fn random_network(side: usize, extra_edges: usize, seed: u64) -> RoadNetwork {
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
    for _ in 0..extra_edges {
        let u = ids[rng.gen_range(0..ids.len())];
        let v = ids[rng.gen_range(0..ids.len())];
        if u != v {
            b.add_bidirectional_edge(u, v, rng.gen_range(50.0..400.0));
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn grid_lower_bounds_are_admissible(
        seed in 0u64..10_000,
        side in 3usize..7,
        extra in 0usize..8,
        nx in 1usize..5,
        ny in 1usize..5,
    ) {
        let net = random_network(side, extra, seed);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(nx, ny));
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbeef);
        for _ in 0..30 {
            let u = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let v = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let exact = dijkstra::distance(&net, u, v).unwrap();
            prop_assert!(grid.lower_bound(u, v) <= exact + 1e-9);
            prop_assert!(grid.lower_bound_with(&net, u, v) <= exact + 1e-9);
            prop_assert!(net.euclidean_lower_bound(u, v) <= exact + 1e-9);
            let cell = grid.cell_of(v);
            prop_assert!(grid.lower_bound_to_cell(u, cell) <= exact + 1e-9);
        }
    }

    #[test]
    fn all_shortest_path_engines_agree(
        seed in 0u64..10_000,
        side in 3usize..6,
        extra in 0usize..6,
    ) {
        let net = random_network(side, extra, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfeed);
        for _ in 0..20 {
            let u = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let v = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let d = dijkstra::distance(&net, u, v).unwrap();
            let bi = dijkstra::bidirectional_distance(&net, u, v).unwrap();
            let a = astar::distance(&net, u, v).unwrap();
            prop_assert!((d - bi).abs() < 1e-6, "dijkstra {d} vs bidirectional {bi}");
            prop_assert!((d - a).abs() < 1e-6, "dijkstra {d} vs A* {a}");
            // The reconstructed path has exactly the reported length.
            let (pd, path) = dijkstra::shortest_path(&net, u, v).unwrap();
            prop_assert!((pd - d).abs() < 1e-9);
            let mut acc = 0.0;
            for w in path.windows(2) {
                acc += dijkstra::distance(&net, w[0], w[1]).unwrap();
            }
            prop_assert!((acc - d).abs() < 1e-6);
        }
    }

    #[test]
    fn grid_cell_ordering_is_consistent_with_bounds(
        seed in 0u64..10_000,
        nx in 2usize..5,
        ny in 2usize..5,
    ) {
        let net = random_network(5, 4, seed);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(nx, ny));
        for cell in 0..grid.num_cells() {
            let row = grid.cells_by_lower_bound(cell);
            prop_assert_eq!(row.len(), grid.num_cells());
            prop_assert_eq!(row[0].0, cell);
            for pair in row.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].1);
            }
            for &(other, lb) in row {
                prop_assert_eq!(grid.cell_lower_bound(cell, other), lb);
            }
        }
    }

    /// The oracle's bound is admissible to the last bit: never above the
    /// exact distance the same oracle returns, with no tolerance. A bound a
    /// few ulp high would prune at exact price/time ties on a cold cache
    /// and not on a warm one.
    #[test]
    fn oracle_lower_bound_never_exceeds_the_exact_bits(
        seed in 0u64..10_000,
        cells in 1usize..5,
        landmarks in 0usize..5,
    ) {
        let net = Arc::new(synthetic_city(&CityConfig {
            cols: 6,
            rows: 6,
            seed,
            ..CityConfig::default()
        }));
        let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(cells, cells)));
        let bounds = if landmarks > 0 {
            let landmarks = Arc::new(LandmarkIndex::build_auto(&net, landmarks));
            DistanceOracle::with_landmarks(Arc::clone(&net), Arc::clone(&grid), landmarks)
        } else {
            DistanceOracle::new(Arc::clone(&net), Arc::clone(&grid))
        };
        // Exact values from a second oracle, so `bounds` never caches a pair
        // and every bound below is a cold-cache bound.
        let exact = DistanceOracle::new(Arc::clone(&net), grid);
        let n = net.num_vertices() as u32;
        for u in 0..n {
            for v in 0..n {
                let (u, v) = (VertexId(u), VertexId(v));
                let lb = bounds.lower_bound(u, v);
                let d = exact.distance(u, v);
                prop_assert!(lb <= d, "lb {lb:e} > exact {d:e} for {u}->{v}");
            }
        }
    }
}
