//! A* point-to-point search with pluggable admissible heuristics.
//!
//! The base heuristic scales the straight-line distance by the smallest
//! weight/length ratio observed over all edges of the network
//! ([`RoadNetwork::min_weight_ratio`]), which guarantees admissibility even
//! when some edges are cheaper than their geometric length (e.g. highway
//! edges in the synthetic Shanghai-like networks).
//! [`distance_with_landmarks`] additionally folds in the ALT bound of
//! [`LandmarkIndex`] and the grid-index cell bound, taking the maximum of
//! all three — still admissible, and much more goal-directed on city-scale
//! graphs.
//!
//! All searches run on the thread-local generation-stamped scratch of
//! [`crate::scratch`], so no per-query allocation happens. The heuristics
//! here can be *inconsistent* (the max of consistent heuristics need not be
//! consistent); the search therefore re-expands a vertex whenever its `g`
//! value improves, which preserves optimality for any admissible heuristic.

use crate::graph::RoadNetwork;
use crate::grid::GridIndex;
use crate::landmarks::LandmarkIndex;
use crate::scratch::with_scratch;
use crate::types::VertexId;

/// A* distance with the tightest available heuristic:
/// `max(euclidean, grid cell bound, ALT landmark bound)`.
///
/// Both index arguments are optional so callers can pass whatever they have
/// built; every component is an admissible lower bound on the remaining
/// distance, hence so is their maximum.
pub fn distance_with_landmarks(
    net: &RoadNetwork,
    source: VertexId,
    target: VertexId,
    grid: Option<&GridIndex>,
    landmarks: Option<&LandmarkIndex>,
) -> Option<f64> {
    let ratio = net.min_weight_ratio();
    // The grid tables are built from forward border-to-vertex searches, so
    // their bound is only admissible when dist(u,v) = dist(v,u) holds; on a
    // directed network an inflated heuristic would corrupt exact results.
    let grid = if net.is_undirected() { grid } else { None };
    distance_with_heuristic(net, source, target, |v| {
        let mut h = net.euclidean(v, target) * ratio;
        if let Some(g) = grid {
            let gh = g.lower_bound(v, target);
            if gh > h {
                h = gh;
            }
        }
        if let Some(l) = landmarks {
            let lh = l.lower_bound(v, target);
            if lh > h {
                h = lh;
            }
        }
        h
    })
}

/// A* core over an arbitrary admissible heuristic `h(v) ≤ dist(v, target)`.
fn distance_with_heuristic(
    net: &RoadNetwork,
    source: VertexId,
    target: VertexId,
    h: impl Fn(VertexId) -> f64,
) -> Option<f64> {
    if source == target {
        return Some(0.0);
    }
    with_scratch(|s| {
        s.begin(net.num_vertices());
        s.set(source, 0.0);
        s.push(h(source), source);
        while let Some((f, u)) = s.pop() {
            let gu = s.get(u);
            // Stale entry: a better g for u was found after this push.
            if f > gu + h(u) + 1e-9 {
                continue;
            }
            if u == target {
                return Some(gu);
            }
            for (v, w) in net.neighbors(u) {
                let ng = gu + w;
                if s.relax(v, ng, u) {
                    s.push(ng + h(v), v);
                }
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::graph::RoadNetworkBuilder;
    use crate::grid::GridConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn grid_network(side: usize) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let mut ids = Vec::with_capacity(side * side);
        for y in 0..side {
            for x in 0..side {
                ids.push(b.add_vertex(x as f64 * 100.0, y as f64 * 100.0));
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for y in 0..side {
            for x in 0..side {
                let u = ids[y * side + x];
                if x + 1 < side {
                    let v = ids[y * side + x + 1];
                    b.add_bidirectional_edge(u, v, 100.0 * rng.gen_range(1.0..1.5));
                }
                if y + 1 < side {
                    let v = ids[(y + 1) * side + x];
                    b.add_bidirectional_edge(u, v, 100.0 * rng.gen_range(1.0..1.5));
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn astar_matches_dijkstra_on_random_grid() {
        let net = grid_network(8);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..50 {
            let s = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let t = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let a = distance_with_landmarks(&net, s, t, None, None);
            let d = dijkstra::distance(&net, s, t);
            match (a, d) {
                (Some(a), Some(d)) => assert!((a - d).abs() < 1e-6, "A*={a} dijkstra={d}"),
                (None, None) => {}
                other => panic!("reachability mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn alt_accelerated_astar_matches_dijkstra() {
        let net = grid_network(8);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(3, 3));
        let landmarks = LandmarkIndex::build(&net, 4, VertexId(0));
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for _ in 0..100 {
            let s = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let t = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let a = distance_with_landmarks(&net, s, t, Some(&grid), Some(&landmarks));
            let d = dijkstra::distance(&net, s, t);
            match (a, d) {
                (Some(a), Some(d)) => assert!((a - d).abs() < 1e-6, "ALT-A*={a} dijkstra={d}"),
                (None, None) => {}
                other => panic!("reachability mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn alt_astar_is_exact_on_directed_networks() {
        // One-way shortcut: the ALT bound must degrade to the one-sided
        // form, and A* must still return exact distances both ways.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(200.0, 0.0);
        b.add_bidirectional_edge(v0, v1, 100.0);
        b.add_bidirectional_edge(v1, v2, 100.0);
        b.add_directed_edge(v0, v2, 50.0); // one-way shortcut
        let net = b.build().unwrap();
        assert!(!net.is_undirected());
        let landmarks = LandmarkIndex::build(&net, 2, v0);
        for (s, t) in [(v0, v2), (v2, v0), (v1, v2), (v2, v1)] {
            let a = distance_with_landmarks(&net, s, t, None, Some(&landmarks));
            let d = dijkstra::distance(&net, s, t);
            assert_eq!(a, d, "{s}->{t}");
        }
    }

    #[test]
    fn astar_identity() {
        let net = grid_network(3);
        assert_eq!(
            distance_with_landmarks(&net, VertexId(4), VertexId(4), None, None),
            Some(0.0)
        );
    }
}
