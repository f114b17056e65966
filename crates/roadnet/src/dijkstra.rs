//! Exact shortest-path engines: Dijkstra variants used as ground truth and
//! as the exact-distance backend of [`crate::DistanceOracle`].
//!
//! All functions operate on non-negative edge weights (enforced at network
//! construction time) and therefore return the true shortest-path distance
//! `dist(u, v)` of Section 2.1.

use crate::graph::RoadNetwork;
use crate::scratch::{with_scratch, Frontier, SearchScratch};
use crate::types::{VertexId, INFINITE_DISTANCE};

/// Point-to-point shortest path distance with early termination.
///
/// Allocation-free: reuses this thread's generation-stamped
/// [`SearchScratch`](crate::scratch::SearchScratch) instead of building an
/// `O(V)` distance vector per call. Returns `None` when `target` is
/// unreachable from `source`.
pub fn distance(net: &RoadNetwork, source: VertexId, target: VertexId) -> Option<f64> {
    if source == target {
        return Some(0.0);
    }
    with_scratch(|s| {
        start(net, s, source, &[target]);
        let d = s.get(target);
        d.is_finite().then_some(d)
    })
}

/// Roots a search at `source` on `s` and settles it until every vertex of
/// `targets` is settled (see [`settle_targets`]).
fn start(net: &RoadNetwork, s: &mut SearchScratch, source: VertexId, targets: &[VertexId]) {
    s.begin(net.num_vertices());
    s.set(source, 0.0);
    s.push(0.0, source);
    settle_targets(net, s, targets);
}

/// Marks `targets` pending on `s` and grows its search until every one of
/// them is settled or the frontier runs dry; returns the number of vertices
/// settled. Each settled vertex is fully relaxed before the stop test, so a
/// later call resumes exactly where this one stopped: labels and tree paths
/// are those of one uninterrupted search.
fn settle_targets(net: &RoadNetwork, s: &mut SearchScratch, targets: &[VertexId]) -> u64 {
    let mut remaining = targets.iter().filter(|&&t| s.mark_target(t)).count();
    let mut settled = 0;
    while remaining > 0 {
        let Some((d, u)) = s.pop() else {
            break;
        };
        if d > s.get(u) {
            continue;
        }
        if s.mark_settled(u) {
            remaining -= 1;
        }
        settled += 1;
        for (v, w) in net.neighbors(u) {
            let nd = d + w;
            if s.relax(v, nd, u) {
                s.push(nd, v);
            }
        }
    }
    settled
}

/// One-to-many shortest-path distances: a single bounded Dijkstra from
/// `source` that stops as soon as every vertex in `targets` is settled.
///
/// Allocation-free apart from the output vector; the target set lives in
/// the scratch's generation-stamped mark array, so batching `k` queries
/// costs one search instead of `k` independent point-to-point searches.
/// Unreachable targets get [`INFINITE_DISTANCE`]. Duplicate targets are
/// fine.
pub fn multi_target(net: &RoadNetwork, source: VertexId, targets: &[VertexId]) -> Vec<f64> {
    if targets.is_empty() {
        return Vec::new();
    }
    with_scratch(|s| {
        start(net, s, source, targets);
        targets.iter().map(|&t| s.get(t)).collect()
    })
}

/// One-to-many like [`multi_target`], but every returned distance is folded
/// in **canonical direction**: for a target `t` with a smaller vertex id
/// than `source`, the found shortest path's edge weights are re-summed in
/// `t → source` order instead of returning the search's `source → t`
/// accumulation.
///
/// Floating-point addition is not associative, so the two orders can differ
/// in the last bit; re-folding makes the bits a function of the *pair*
/// rather than of which endpoint the search ran from. The memoising
/// oracle's canonical-fold cache policy relies on this to stay
/// query-order-independent on undirected networks (where the same pair is
/// reached from both directions). Requires symmetric edge weights — the
/// re-fold reads the `t → source` weights off the tree edges — so callers
/// must only use it when [`RoadNetwork::is_undirected`] holds.
///
/// Caveat: when a pair has several shortest paths whose float sums differ
/// in the last bit, this search and a `t`-rooted search may tie-break onto
/// different paths and fold to different bits; see the canonical-fold
/// discussion in `crate::oracle` for why that residual is accepted.
pub fn multi_target_canonical(
    net: &RoadNetwork,
    source: VertexId,
    targets: &[VertexId],
) -> Vec<f64> {
    if targets.is_empty() {
        return Vec::new();
    }
    with_scratch(|s| {
        start(net, s, source, targets);
        targets
            .iter()
            .map(|&t| fold_toward_root(net, s, source, t))
            .collect()
    })
}

/// The settled distance of `t` in a search rooted at `root`, folded in
/// canonical direction: targets above the root keep the search's forward
/// accumulation; for targets below it, the tree path `t → … → root` is
/// re-summed in walk order — the fold a `t`-rooted search would produce on
/// this path. Requires symmetric edge weights (see
/// [`multi_target_canonical`]).
fn fold_toward_root(net: &RoadNetwork, s: &SearchScratch, root: VertexId, t: VertexId) -> f64 {
    let d = s.get(t);
    if t >= root || !d.is_finite() {
        return d;
    }
    let mut acc = 0.0;
    let mut cur = t;
    while cur != root {
        let Some(parent) = s.parent_of(cur) else {
            // Root reached unexpectedly; fall back to the forward fold
            // rather than returning a wrong sum.
            return d;
        };
        // The relaxed tree edge carries the minimum weight among parallel
        // `cur → parent` edges (symmetric on undirected networks, so this
        // is also the `parent → cur` weight).
        let mut weight = INFINITE_DISTANCE;
        for (v, w) in net.neighbors(cur) {
            if v == parent && w < weight {
                weight = w;
            }
        }
        acc += weight;
        cur = parent;
    }
    acc
}

/// A Dijkstra search rooted at one vertex that grows in steps: each
/// [`Self::settle`] runs only until its targets are settled, and the next
/// call resumes from the frontier where the previous one stopped — no
/// vertex is ever settled twice for one root. Owns its generation-stamped
/// scratch (separate from the thread-local one point queries use), so a
/// search can stay open while other queries run and be re-rooted with
/// [`Self::reset`] without an `O(V)` clear.
///
/// Pausing between pops does not change the frontier's operation sequence,
/// so labels and tree paths are exactly those of one uninterrupted search.
pub(crate) struct GrowingSearch {
    /// Labels plus this root's pending-target / settled marks.
    scratch: SearchScratch,
    root: VertexId,
    settled: u64,
}

impl Default for GrowingSearch {
    fn default() -> Self {
        GrowingSearch {
            scratch: SearchScratch::new(),
            root: VertexId(0),
            settled: 0,
        }
    }
}

impl GrowingSearch {
    /// Re-roots the search at `root` on `net` (generation bump only);
    /// must precede the first [`Self::settle`].
    pub fn reset(&mut self, net: &RoadNetwork, root: VertexId) {
        start(net, &mut self.scratch, root, &[]);
        self.root = root;
        self.settled = 0;
    }

    /// Vertices settled since the last [`Self::reset`].
    pub fn settled(&self) -> u64 {
        self.settled
    }

    /// Grows the search until every vertex of `targets` is settled (or the
    /// frontier runs dry: those targets are unreachable). Targets settled by
    /// an earlier call cost one array read.
    pub fn settle(&mut self, net: &RoadNetwork, targets: &[VertexId]) {
        self.settled += settle_targets(net, &mut self.scratch, targets);
    }

    /// The distance between the root and a target settled by
    /// [`Self::settle`], folded in canonical direction like
    /// [`multi_target_canonical`] (undirected networks only).
    /// `INFINITE_DISTANCE` when unreachable.
    pub fn canonical_distance(&self, net: &RoadNetwork, t: VertexId) -> f64 {
        debug_assert!(
            t == self.root || self.scratch.is_settled(t) || !self.scratch.get(t).is_finite()
        );
        fold_toward_root(net, &self.scratch, self.root, t)
    }
}

/// Point-to-point shortest path returning `(distance, path)`.
///
/// The path includes both endpoints. Returns `None` when unreachable.
/// Allocation-free apart from the returned path: runs on the thread-local
/// scratch with generation-stamped parent pointers.
pub fn shortest_path(
    net: &RoadNetwork,
    source: VertexId,
    target: VertexId,
) -> Option<(f64, Vec<VertexId>)> {
    if source == target {
        return Some((0.0, vec![source]));
    }
    with_scratch(|s| {
        start(net, s, source, &[target]);
        let total = s.get(target);
        if total.is_infinite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = s.parent_of(cur) {
            path.push(p);
            cur = p;
            if cur == source {
                break;
            }
        }
        path.reverse();
        debug_assert_eq!(path.first(), Some(&source));
        Some((total, path))
    })
}

/// Single-source shortest path distances to every vertex.
///
/// Unreachable vertices get [`INFINITE_DISTANCE`].
pub fn single_source(net: &RoadNetwork, source: VertexId) -> Vec<f64> {
    multi_source(net, std::iter::once(source))
}

/// Multi-source shortest path distances: for every vertex, the distance from
/// the *nearest* source.
///
/// Used to compute `v.min` (distance to the nearest border vertex of the
/// cell, Section 3.2.1) and the cell-pair lower-bound matrix.
pub fn multi_source(net: &RoadNetwork, sources: impl IntoIterator<Item = VertexId>) -> Vec<f64> {
    let mut dist = vec![INFINITE_DISTANCE; net.num_vertices()];
    let mut frontier = Frontier::default();
    for s in sources {
        if dist[s.index()] > 0.0 {
            dist[s.index()] = 0.0;
            frontier.push(0.0, s);
        }
    }
    while let Some((d, u)) = frontier.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for (v, w) in net.neighbors(u) {
            let nd = d + w;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                frontier.push(nd, v);
            }
        }
    }
    dist
}

/// Bidirectional Dijkstra for point-to-point distance queries.
///
/// On an undirected network this typically settles far fewer vertices than
/// unidirectional search; it assumes every directed edge has a reverse edge
/// with the same weight (true for all networks produced by
/// `RoadNetworkBuilder::add_bidirectional_edge` and by the workload
/// generators). Returns `None` when unreachable.
pub fn bidirectional_distance(
    net: &RoadNetwork,
    source: VertexId,
    target: VertexId,
) -> Option<f64> {
    if source == target {
        return Some(0.0);
    }
    let n = net.num_vertices();
    let mut dist_f = vec![INFINITE_DISTANCE; n];
    let mut dist_b = vec![INFINITE_DISTANCE; n];
    let mut frontier_f = Frontier::default();
    let mut frontier_b = Frontier::default();
    dist_f[source.index()] = 0.0;
    dist_b[target.index()] = 0.0;
    frontier_f.push(0.0, source);
    frontier_b.push(0.0, target);
    let mut best = INFINITE_DISTANCE;

    loop {
        let top_f = frontier_f.peek().map(|(d, _)| d);
        let top_b = frontier_b.peek().map(|(d, _)| d);
        if let (None, None) = (top_f, top_b) {
            break;
        }
        let tf = top_f.unwrap_or(INFINITE_DISTANCE);
        let tb = top_b.unwrap_or(INFINITE_DISTANCE);
        if tf + tb >= best {
            break;
        }
        // Expand the side with the smaller frontier distance.
        if tf <= tb {
            if let Some((d, u)) = frontier_f.pop() {
                if d > dist_f[u.index()] {
                    continue;
                }
                for (v, w) in net.neighbors(u) {
                    let nd = d + w;
                    if nd < dist_f[v.index()] {
                        dist_f[v.index()] = nd;
                        frontier_f.push(nd, v);
                    }
                    if dist_b[v.index()].is_finite() {
                        best = best.min(nd + dist_b[v.index()]);
                    }
                }
            }
        } else if let Some((d, u)) = frontier_b.pop() {
            if d > dist_b[u.index()] {
                continue;
            }
            for (v, w) in net.neighbors(u) {
                let nd = d + w;
                if nd < dist_b[v.index()] {
                    dist_b[v.index()] = nd;
                    frontier_b.push(nd, v);
                }
                if dist_f[v.index()].is_finite() {
                    best = best.min(nd + dist_f[v.index()]);
                }
            }
        }
    }

    if best.is_finite() {
        Some(best)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;

    /// The line network v0 - v1 - v2 - v3 with unit coordinates and weights
    /// 1, 2, 3.
    fn line_net() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(i as f64, 0.0)).collect();
        b.add_bidirectional_edge(v[0], v[1], 1.0);
        b.add_bidirectional_edge(v[1], v[2], 2.0);
        b.add_bidirectional_edge(v[2], v[3], 3.0);
        b.build().unwrap()
    }

    /// A network with a shortcut so the shortest path is not the direct edge.
    fn shortcut_net() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(1.0, 0.0);
        let v2 = b.add_vertex(2.0, 0.0);
        b.add_bidirectional_edge(v0, v2, 10.0);
        b.add_bidirectional_edge(v0, v1, 1.0);
        b.add_bidirectional_edge(v1, v2, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn distance_on_line() {
        let net = line_net();
        assert_eq!(distance(&net, VertexId(0), VertexId(3)), Some(6.0));
        assert_eq!(distance(&net, VertexId(3), VertexId(0)), Some(6.0));
        assert_eq!(distance(&net, VertexId(1), VertexId(1)), Some(0.0));
    }

    #[test]
    fn distance_prefers_shortcut() {
        let net = shortcut_net();
        assert_eq!(distance(&net, VertexId(0), VertexId(2)), Some(2.0));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let _v1 = b.add_vertex(1.0, 0.0);
        let v2 = b.add_vertex(2.0, 0.0);
        b.add_directed_edge(v0, v2, 1.0);
        let net = b.build().unwrap();
        assert_eq!(distance(&net, VertexId(0), VertexId(1)), None);
        assert_eq!(bidirectional_distance(&net, VertexId(0), VertexId(1)), None);
        assert_eq!(shortest_path(&net, VertexId(0), VertexId(1)), None);
    }

    #[test]
    fn shortest_path_returns_vertices_in_order() {
        let net = shortcut_net();
        let (d, path) = shortest_path(&net, VertexId(0), VertexId(2)).unwrap();
        assert_eq!(d, 2.0);
        assert_eq!(path, vec![VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn shortest_path_trivial_self_loop() {
        let net = line_net();
        let (d, path) = shortest_path(&net, VertexId(2), VertexId(2)).unwrap();
        assert_eq!(d, 0.0);
        assert_eq!(path, vec![VertexId(2)]);
    }

    #[test]
    fn single_source_matches_pairwise() {
        let net = line_net();
        let dist = single_source(&net, VertexId(0));
        assert_eq!(dist, vec![0.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let net = line_net();
        let dist = multi_source(&net, [VertexId(0), VertexId(3)]);
        assert_eq!(dist, vec![0.0, 1.0, 3.0, 0.0]);
    }

    #[test]
    fn multi_target_early_exit() {
        let net = line_net();
        let d = multi_target(&net, VertexId(0), &[VertexId(1), VertexId(2)]);
        assert_eq!(d, vec![1.0, 3.0]);
    }

    #[test]
    fn multi_target_canonical_folds_toward_the_smaller_endpoint() {
        // Irregular weights whose sums are inexact in f64, so fold order is
        // observable at the bit level.
        let mut b = RoadNetworkBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(i as f64, 0.0)).collect();
        b.add_bidirectional_edge(v[0], v[1], 1.1);
        b.add_bidirectional_edge(v[1], v[2], 2.3);
        b.add_bidirectional_edge(v[2], v[3], 3.7);
        let net = b.build().unwrap();
        assert!(net.is_undirected());

        // Searching *from* v3, the canonical variant must report v0 and v1
        // with the exact bits a v0-/v1-rooted fold produces.
        let canonical =
            multi_target_canonical(&net, VertexId(3), &[VertexId(0), VertexId(1), VertexId(3)]);
        assert_eq!(
            canonical[0].to_bits(),
            distance(&net, VertexId(0), VertexId(3)).unwrap().to_bits()
        );
        assert_eq!(
            canonical[1].to_bits(),
            distance(&net, VertexId(1), VertexId(3)).unwrap().to_bits()
        );
        assert_eq!(canonical[2], 0.0);
        // Targets above the source keep the plain forward fold.
        let forward = multi_target_canonical(&net, VertexId(0), &[VertexId(3)]);
        assert_eq!(
            forward[0].to_bits(),
            distance(&net, VertexId(0), VertexId(3)).unwrap().to_bits()
        );
        // And the values always agree with the reference within rounding.
        let plain = multi_target(&net, VertexId(3), &[VertexId(0), VertexId(1)]);
        for (c, p) in canonical.iter().zip(&plain) {
            assert!((c - p).abs() < 1e-9);
        }
    }

    #[test]
    fn bidirectional_matches_unidirectional() {
        let net = shortcut_net();
        for s in 0..3u32 {
            for t in 0..3u32 {
                let a = distance(&net, VertexId(s), VertexId(t));
                let b = bidirectional_distance(&net, VertexId(s), VertexId(t));
                assert_eq!(a, b, "mismatch for {s}->{t}");
            }
        }
    }
}
