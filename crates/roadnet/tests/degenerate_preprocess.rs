//! Degenerate preprocessing inputs: disconnected graphs, single-vertex
//! components, duplicate coordinates (a grid partition with zero extent)
//! and graphs smaller than the landmark count, the grid dimensions or the
//! number of querying threads must build without panicking — landmark
//! selection, grid index and oracle alike — and answer bit-identically to
//! Dijkstra, with admissible lower bounds.

use ptrider_roadnet::{
    dijkstra, DistanceOracle, GridConfig, GridIndex, LandmarkIndex, RoadNetwork,
    RoadNetworkBuilder, VertexId,
};
use std::sync::Arc;

/// All-pairs check: every oracle answer is bit-for-bit the Dijkstra answer
/// (or both unreachable), the batched answer equals the point answer, and
/// the lower bound never exceeds the exact distance.
fn assert_matches_dijkstra(net: &RoadNetwork, oracle: &DistanceOracle, what: &str) {
    let all: Vec<VertexId> = net.vertices().collect();
    for u in net.vertices() {
        let batched = oracle.distances_from(u, &all);
        for v in net.vertices() {
            let exact = dijkstra::distance(net, u, v).unwrap_or(f64::INFINITY);
            let got = oracle.distance(u, v);
            assert!(
                got.to_bits() == exact.to_bits() || (got.is_infinite() && exact.is_infinite()),
                "{what}: {u}->{v} oracle {got} vs dijkstra {exact}"
            );
            let b = batched[v.index()];
            assert!(
                b.to_bits() == exact.to_bits() || (b.is_infinite() && exact.is_infinite()),
                "{what}: {u}->{v} batched {b} vs dijkstra {exact}"
            );
            let lb = oracle.lower_bound(u, v);
            assert!(lb <= exact, "{what}: {u}->{v} lower bound {lb} > {exact}");
        }
    }
}

/// Builds the oracle at several landmark counts (including counts far
/// above the vertex count) and grid dimensions (including more cells than
/// vertices); every variant must agree with Dijkstra on every pair, on a
/// fresh cache and on a cache warmed by four concurrent threads.
fn exercise_all_builders(net: &RoadNetwork, what: &str) {
    let net = Arc::new(net.clone());
    for dims in [1, 3, 8] {
        let grid = Arc::new(GridIndex::build(
            &net,
            GridConfig::with_dimensions(dims, dims),
        ));
        let plain = DistanceOracle::new(Arc::clone(&net), Arc::clone(&grid));
        assert_matches_dijkstra(
            &net,
            &plain,
            &format!("{what} (no landmarks, {dims}x{dims})"),
        );
        for k in [1, 2, 4, 64] {
            let lm = LandmarkIndex::build_auto(&net, k);
            assert!(
                !lm.landmarks().is_empty() && lm.landmarks().len() <= net.num_vertices().min(k),
                "{what}: {k} requested, {} landmarks selected",
                lm.landmarks().len()
            );
            let oracle =
                DistanceOracle::with_landmarks(Arc::clone(&net), Arc::clone(&grid), Arc::new(lm));
            let label = format!("{what} ({k} landmarks, {dims}x{dims})");
            assert_matches_dijkstra(&net, &oracle, &label);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| assert_matches_dijkstra(&net, &oracle, &label));
                }
            });
            assert_matches_dijkstra(&net, &oracle, &format!("{label}, warm"));
        }
    }
}

/// A `cols x rows` lattice starting at vertex offset produced by `b`'s
/// current count, with every coordinate shifted by `(ox, oy)`.
fn add_lattice(b: &mut RoadNetworkBuilder, cols: usize, rows: usize, ox: f64, oy: f64) {
    let mut ids = Vec::new();
    for y in 0..rows {
        for x in 0..cols {
            ids.push(b.add_vertex(ox + x as f64 * 50.0, oy + y as f64 * 50.0));
        }
    }
    for y in 0..rows {
        for x in 0..cols {
            let u = ids[y * cols + x];
            if x + 1 < cols {
                b.add_bidirectional_edge(u, ids[y * cols + x + 1], 50.0 + (x + y) as f64);
            }
            if y + 1 < rows {
                b.add_bidirectional_edge(u, ids[(y + 1) * cols + x], 60.0 + (x * y) as f64);
            }
        }
    }
}

/// An ALT oracle over `net` with `k` landmarks and a 3x3 grid.
fn alt_oracle(net: &RoadNetwork, k: usize) -> DistanceOracle {
    let net = Arc::new(net.clone());
    let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(3, 3)));
    let lm = Arc::new(LandmarkIndex::build_auto(&net, k));
    DistanceOracle::with_landmarks(net, grid, lm)
}

#[test]
fn disconnected_islands_build_and_stay_exact() {
    let mut b = RoadNetworkBuilder::new();
    add_lattice(&mut b, 4, 4, 0.0, 0.0);
    add_lattice(&mut b, 3, 3, 10_000.0, 10_000.0);
    let net = b.build().unwrap();
    exercise_all_builders(&net, "two islands");
    // Cross-island distances really are infinite.
    let oracle = alt_oracle(&net, 4);
    assert!(oracle.distance(VertexId(0), VertexId(16)).is_infinite());
    assert!(oracle.distance(VertexId(16), VertexId(0)).is_infinite());
}

#[test]
fn isolated_vertices_among_a_component_build_and_stay_exact() {
    let mut b = RoadNetworkBuilder::new();
    add_lattice(&mut b, 3, 3, 0.0, 0.0);
    // Edge-less vertices: reachable from nothing, never reached by the
    // landmark searches — selection and the bounds must not choke on
    // degree zero.
    for i in 0..4 {
        b.add_vertex(-500.0 - i as f64, -500.0);
    }
    let net = b.build().unwrap();
    exercise_all_builders(&net, "isolated vertices");
    let oracle = alt_oracle(&net, 4);
    let lonely = VertexId(9);
    assert_eq!(oracle.distance(lonely, lonely), 0.0);
    assert!(oracle.distance(lonely, VertexId(0)).is_infinite());
}

#[test]
fn single_vertex_network_builds() {
    let mut b = RoadNetworkBuilder::new();
    let v = b.add_vertex(1.0, 2.0);
    let net = b.build().unwrap();
    exercise_all_builders(&net, "single vertex");
    let oracle = alt_oracle(&net, 8);
    assert_eq!(oracle.distance(v, v), 0.0);
    assert_eq!(oracle.landmarks().unwrap().landmarks(), &[v]);
}

#[test]
fn duplicate_coordinates_survive_the_median_cut() {
    // Every vertex at the same point: the grid partition has no geometric
    // extent to cut and every Euclidean bound is 0, so all pruning comes
    // from the landmark tables; nothing may divide by the zero span or
    // leave a vertex without a cell.
    let mut b = RoadNetworkBuilder::new();
    let ids: Vec<VertexId> = (0..12).map(|_| b.add_vertex(7.0, 7.0)).collect();
    for w in ids.windows(2) {
        b.add_bidirectional_edge(w[0], w[1], 10.0);
    }
    b.add_bidirectional_edge(ids[0], ids[11], 35.0);
    b.add_bidirectional_edge(ids[3], ids[8], 12.0);
    let net = b.build().unwrap();
    exercise_all_builders(&net, "duplicate coordinates");
}

#[test]
fn graph_smaller_than_the_worker_count_builds() {
    let mut b = RoadNetworkBuilder::new();
    let u = b.add_vertex(0.0, 0.0);
    let v = b.add_vertex(1.0, 0.0);
    b.add_bidirectional_edge(u, v, 3.5);
    let net = b.build().unwrap();
    exercise_all_builders(&net, "two vertices");
    let oracle = alt_oracle(&net, 64);
    assert_eq!(oracle.distance(u, v), 3.5);
    assert_eq!(oracle.distance(v, u), 3.5);
}
