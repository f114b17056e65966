//! Contraction hierarchies: the second exact distance backend.
//!
//! The ALT backend ([`crate::astar`]) is goal-directed but still settles
//! `O(ball)` vertices per query; on city graphs that caps match throughput
//! well below what peak-period matchers need. A contraction hierarchy (CH)
//! preprocesses the network once — contracting vertices in importance order
//! and inserting *shortcut* edges that preserve shortest-path distances —
//! after which a point query is a pair of tiny Dijkstra runs that only ever
//! move *upward* in the contraction order. On sparse road networks the
//! upward search spaces are polylogarithmic in practice, and the advantage
//! over ALT grows with graph size (the two backends break even around a
//! thousand vertices; at 25k vertices CH is ~9x faster per point query).
//!
//! The subsystem is split along the classic pipeline:
//!
//! * [`builder`] — node ordering by the edge-difference heuristic with
//!   level and deleted-neighbour terms, maintained lazily, and
//!   witness-search contraction that only inserts a shortcut `u → x` when
//!   no path of equal or smaller length survives the removal of the
//!   contracted vertex;
//! * [`query`] — the bidirectional upward point query with stall-on-demand
//!   pruning and exact path unpacking;
//! * [`bucket`] — the many-to-many bucket query backing
//!   [`ContractionHierarchy::distances_from`]: one backward upward search
//!   per target deposits `(target, distance)` entries at every vertex it
//!   settles, then a single forward upward search from the source scans the
//!   buckets it encounters.
//!
//! Two non-obvious design points:
//!
//! * **Rank relabelling.** The search graphs store vertices by contraction
//!   rank, not by external id. Every upward search climbs toward high
//!   ranks, so the hot working set of all queries is the same small
//!   high-rank suffix of the arrays — dramatically better cache locality
//!   than chasing external ids scattered over the whole graph.
//! * **Exact path unpacking.** A shortcut's weight `w₁ + w₂` is summed in a
//!   different association order than Dijkstra's left-to-right relaxation
//!   fold, so raw CH sums can differ from Dijkstra in the last float bit —
//!   enough to flip skyline-dominance ties in the matchers. Queries
//!   therefore *unpack* the winning up-down path into original edges (each
//!   shortcut remembers the vertex it bypassed) and re-fold the weights in
//!   path order, returning bit-for-bit the value Dijkstra returns for the
//!   same path.
//!
//! Directed networks are fully supported: the upward and downward shortcut
//! graphs are built from the directed arc set, so `dist(u, v) ≠ dist(v, u)`
//! is preserved. Construction is fallible by design — pathological inputs
//! whose contraction would blow up the shortcut count return
//! [`ChBuildError`] instead of looping, and the [`crate::DistanceOracle`]
//! falls back to the ALT backend rather than panicking.

pub mod bucket;
pub mod builder;
pub mod customize;
pub mod query;

pub use customize::{CchTopology, SeparatorStats, CCH_MAX_SHORTCUT_FACTOR};

use crate::graph::RoadNetwork;
use crate::types::VertexId;
use std::fmt;

/// Sentinel for "original arc, nothing to unpack".
pub(crate) const NO_MIDDLE: u32 = u32::MAX;

/// Resolves the preprocessing thread count from `PTRIDER_PREPROCESS_THREADS`.
///
/// Defaults to [`std::thread::available_parallelism`]; `1` selects exactly
/// the sequential code paths (no scoped threads are spawned at all). Read
/// fresh on every call — preprocessing is rare and tests flip the variable —
/// and clamped to at least 1. Unparseable values fall back to the default.
///
/// This knob only governs *preprocessing* (CH construction and CCH
/// customization); query-time parallelism belongs to the caller's own pool
/// (`roadnet` deliberately has no dependency on `core::runtime`).
pub fn preprocess_threads() -> usize {
    let default = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("PTRIDER_PREPROCESS_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default(),
        },
        Err(_) => default(),
    }
}

/// Tuning knobs for contraction-hierarchy construction.
#[derive(Clone, Copy, Debug)]
pub struct ChConfig {
    /// Maximum number of vertices a witness search may settle before giving
    /// up (an aborted witness search conservatively inserts the shortcut, so
    /// this only trades preprocessing time against shortcut count, never
    /// correctness).
    pub witness_settle_limit: usize,
    /// Construction aborts with [`ChBuildError::TooManyShortcuts`] once the
    /// number of inserted shortcuts exceeds `max_shortcut_factor` times the
    /// original arc count. Road networks stay well under 2; dense or
    /// adversarial graphs are better served by the ALT backend.
    pub max_shortcut_factor: f64,
}

impl Default for ChConfig {
    fn default() -> Self {
        ChConfig {
            witness_settle_limit: 64,
            max_shortcut_factor: 8.0,
        }
    }
}

/// Why contraction-hierarchy construction was abandoned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChBuildError {
    /// Contraction produced more shortcuts than
    /// [`ChConfig::max_shortcut_factor`] allows — the graph is too dense for
    /// a useful hierarchy.
    TooManyShortcuts {
        /// Shortcuts inserted before giving up.
        shortcuts: usize,
        /// Directed arcs in the input network (after parallel-arc dedup).
        original_arcs: usize,
    },
}

impl fmt::Display for ChBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChBuildError::TooManyShortcuts {
                shortcuts,
                original_arcs,
            } => write!(
                f,
                "contraction produced {shortcuts} shortcuts over {original_arcs} original arcs; \
                 the graph is too dense for a useful hierarchy"
            ),
        }
    }
}

impl std::error::Error for ChBuildError {}

/// Compact CSR adjacency over rank-relabelled vertex ids, used for the
/// upward and downward search graphs. Every arc carries the (internal id of
/// the) contracted vertex it bypasses — [`NO_MIDDLE`] for original edges —
/// so queries can unpack shortcut paths exactly.
#[derive(Clone, Debug)]
pub(crate) struct SearchGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    middles: Vec<u32>,
}

impl SearchGraph {
    /// Builds from per-vertex adjacency in internal (rank) ids:
    /// `adj[r] = [(target_rank, weight, middle_rank_or_NO_MIDDLE)]`.
    pub(crate) fn from_adjacency(adj: Vec<Vec<(u32, f64, u32)>>) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut targets = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        let mut middles = Vec::with_capacity(total);
        for mut list in adj {
            // Ascending target order keeps sibling lookups cache-friendly.
            list.sort_unstable_by_key(|arc| arc.0);
            for (to, w, mid) in list {
                targets.push(to);
                weights.push(w);
                middles.push(mid);
            }
            offsets.push(targets.len() as u32);
        }
        SearchGraph {
            offsets,
            targets,
            weights,
            middles,
        }
    }

    /// Arcs stored at internal vertex `v` as `(other endpoint, weight)`.
    #[inline]
    pub(crate) fn arcs(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Finds the arc stored at `v` whose other endpoint is `other`,
    /// returning `(weight, middle)`. Binary search — targets are sorted.
    #[inline]
    pub(crate) fn find(&self, v: u32, other: u32) -> Option<(f64, u32)> {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.targets[lo..hi]
            .binary_search(&other)
            .ok()
            .map(|i| (self.weights[lo + i], self.middles[lo + i]))
    }

    pub(crate) fn num_arcs(&self) -> usize {
        self.targets.len()
    }
}

/// A built contraction hierarchy over a road network.
///
/// Immutable after construction and cheap to share behind an `Arc`: queries
/// only need `&self` plus the thread-local scratch buffers of
/// [`crate::scratch`], so concurrent matcher threads query one hierarchy
/// without synchronisation.
pub struct ContractionHierarchy {
    /// `rank[v]` = internal (rank-relabelled) id of external vertex `v`
    /// (0 = contracted first, i.e. least important).
    rank: Vec<u32>,
    /// Arcs `u → x` (original direction) with `rank[x] > rank[u]`, stored at
    /// `u`. Relaxed by the forward search; scanned for backward stalling.
    up: SearchGraph,
    /// Arcs `x → u` (original direction) with `rank[x] > rank[u]`, stored at
    /// `u` as `(x, w)`. Relaxed (in reverse) by the backward search; scanned
    /// for forward stalling.
    down: SearchGraph,
    /// Number of shortcut arcs inserted during contraction.
    num_shortcuts: usize,
}

impl ContractionHierarchy {
    /// Builds a hierarchy with the default [`ChConfig`].
    pub fn build(net: &RoadNetwork) -> Result<Self, ChBuildError> {
        Self::build_with(net, &ChConfig::default())
    }

    /// Builds a hierarchy with explicit tuning parameters, using
    /// [`preprocess_threads`] workers for the contraction.
    pub fn build_with(net: &RoadNetwork, config: &ChConfig) -> Result<Self, ChBuildError> {
        builder::build(net, config, preprocess_threads())
    }

    /// Builds a hierarchy with an explicit worker count, ignoring
    /// `PTRIDER_PREPROCESS_THREADS`. `threads == 1` runs the sequential
    /// lazy-queue contraction; `threads >= 2` runs independent-set rounds
    /// (see [`builder`]). Any thread count yields distances bit-identical
    /// to Dijkstra, and every `threads >= 2` yields the *same* hierarchy.
    pub fn build_with_threads(
        net: &RoadNetwork,
        config: &ChConfig,
        threads: usize,
    ) -> Result<Self, ChBuildError> {
        builder::build(net, config, threads)
    }

    /// Exact shortest-path distance, `f64::INFINITY` when unreachable.
    ///
    /// A bidirectional Dijkstra where both sides only relax arcs toward
    /// higher contraction ranks, with stall-on-demand pruning; the winning
    /// up-down path is unpacked into original edges and re-summed in path
    /// order, so the result is bit-for-bit what Dijkstra returns for the
    /// same path. See [`query`].
    pub fn distance(&self, u: VertexId, v: VertexId) -> f64 {
        query::distance(self, self.rank[u.index()], self.rank[v.index()])
    }

    /// Settle-capped distance query backing cheap CH-derived lower bounds:
    /// when both upward search spaces fit under `settle_cap` settles the
    /// answer is **exact** (bit-identical to Dijkstra, like
    /// [`Self::distance`]); otherwise the search stops early and returns an
    /// admissible lower bound. See [`query::bounded_distance`] for the
    /// admissibility argument.
    pub(crate) fn bounded_distance(
        &self,
        u: VertexId,
        v: VertexId,
        settle_cap: usize,
    ) -> query::Bounded {
        query::bounded_distance(self, self.rank[u.index()], self.rank[v.index()], settle_cap)
    }

    /// One-to-many exact distances from `source` to every vertex in
    /// `targets` with the bucket algorithm of [`bucket`]: `k` small backward
    /// upward searches plus one forward upward search, instead of `k`
    /// bidirectional queries. Unreachable targets get `f64::INFINITY`;
    /// duplicate targets are fine. Results are unpacked exactly like
    /// [`Self::distance`].
    pub fn distances_from(&self, source: VertexId, targets: &[VertexId]) -> Vec<f64> {
        let source = self.rank[source.index()];
        let targets: Vec<u32> = targets.iter().map(|t| self.rank[t.index()]).collect();
        bucket::distances_from(self, source, &targets)
    }

    /// Number of vertices in the hierarchy.
    pub fn num_vertices(&self) -> usize {
        self.rank.len()
    }

    /// Contraction rank of a vertex (0 = contracted first).
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v.index()]
    }

    /// Number of shortcut arcs the contraction inserted.
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// Total arcs across the upward and downward search graphs (originals
    /// plus shortcuts, each stored once).
    pub fn num_search_arcs(&self) -> usize {
        self.up.num_arcs() + self.down.num_arcs()
    }

    /// Diagnostic: the number of vertices the forward and backward upward
    /// searches from `v` can reach (no early termination, no stalling) —
    /// the primary quality metric of a node ordering. Query latency is
    /// roughly proportional to these counts.
    pub fn upward_search_space(&self, v: VertexId) -> (usize, usize) {
        let start = self.rank[v.index()];
        let count = |graph: &SearchGraph| {
            crate::scratch::with_scratch(|s| {
                s.begin(self.rank.len());
                s.set(VertexId(start), 0.0);
                s.push(0.0, VertexId(start));
                let mut settled = 0usize;
                while let Some((d, u)) = s.pop() {
                    if d > s.get(u) {
                        continue;
                    }
                    settled += 1;
                    for (x, w) in graph.arcs(u.0) {
                        let nd = d + w;
                        if s.relax(VertexId(x), nd, u) {
                            s.push(nd, VertexId(x));
                        }
                    }
                }
                settled
            })
        };
        (count(&self.up), count(&self.down))
    }

    /// Approximate memory footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.rank.len() * 4
            + (self.up.num_arcs() + self.down.num_arcs()) * (4 + 8 + 4)
            + (self.up.offsets.len() + self.down.offsets.len()) * 4
    }

    pub(crate) fn graphs(&self) -> (&SearchGraph, &SearchGraph) {
        (&self.up, &self.down)
    }

    pub(crate) fn from_parts(
        rank: Vec<u32>,
        up: SearchGraph,
        down: SearchGraph,
        num_shortcuts: usize,
    ) -> Self {
        ContractionHierarchy {
            rank,
            up,
            down,
            num_shortcuts,
        }
    }

    /// Looks up the original-direction arc `from → to` (internal ids),
    /// wherever it is stored: upward arcs (`to` ranked higher) live in
    /// `up[from]`, downward arcs in `down[to]`.
    #[inline]
    pub(crate) fn arc(&self, from: u32, to: u32) -> Option<(f64, u32)> {
        if to > from {
            self.up.find(from, to)
        } else {
            self.down.find(to, from)
        }
    }

    /// Folds the original-edge weights of the (possibly shortcut) arc
    /// `from → to` into `total`, in path order. Because unpacking emits
    /// edges strictly in path order, the running `+=` reproduces exactly
    /// the left-to-right sum Dijkstra's relaxations compute.
    pub(crate) fn unpack_arc(&self, from: u32, to: u32, total: &mut f64) {
        let (w, mid) = self
            .arc(from, to)
            .expect("unpack: arc must exist in the hierarchy");
        if mid == NO_MIDDLE {
            *total += w;
        } else {
            self.unpack_arc(from, mid, total);
            self.unpack_arc(mid, to, total);
        }
    }
}

impl fmt::Debug for ContractionHierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContractionHierarchy")
            .field("vertices", &self.num_vertices())
            .field("up_arcs", &self.up.num_arcs())
            .field("down_arcs", &self.down.num_arcs())
            .field("shortcuts", &self.num_shortcuts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::graph::RoadNetworkBuilder;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn lattice(side: usize, seed: u64) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ids = Vec::new();
        for y in 0..side {
            for x in 0..side {
                ids.push(b.add_vertex(x as f64 * 100.0, y as f64 * 100.0));
            }
        }
        for y in 0..side {
            for x in 0..side {
                let u = ids[y * side + x];
                if x + 1 < side {
                    b.add_bidirectional_edge(u, ids[y * side + x + 1], rng.gen_range(80.0..200.0));
                }
                if y + 1 < side {
                    b.add_bidirectional_edge(
                        u,
                        ids[(y + 1) * side + x],
                        rng.gen_range(80.0..200.0),
                    );
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn matches_dijkstra_bit_for_bit_on_undirected_lattice() {
        let net = lattice(6, 3);
        let ch = ContractionHierarchy::build(&net).unwrap();
        for u in net.vertices() {
            for v in net.vertices() {
                let exact = dijkstra::distance(&net, u, v).unwrap();
                let got = ch.distance(u, v);
                // Path unpacking re-folds original weights in path order, so
                // the equality is exact, not approximate.
                assert_eq!(got, exact, "{u}->{v}: ch {got} vs {exact}");
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_directed_network() {
        // One-way shortcut plus an expensive return arc: distances are
        // asymmetric, and the hierarchy must preserve both directions.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(200.0, 0.0);
        let v3 = b.add_vertex(300.0, 0.0);
        b.add_bidirectional_edge(v0, v1, 100.0);
        b.add_bidirectional_edge(v1, v2, 100.0);
        b.add_bidirectional_edge(v2, v3, 100.0);
        b.add_directed_edge(v0, v3, 50.0);
        b.add_directed_edge(v3, v0, 900.0);
        let net = b.build().unwrap();
        assert!(!net.is_undirected());
        let ch = ContractionHierarchy::build(&net).unwrap();
        for u in net.vertices() {
            for v in net.vertices() {
                let exact = dijkstra::distance(&net, u, v).unwrap();
                let got = ch.distance(u, v);
                assert_eq!(got, exact, "{u}->{v}: ch {got} vs {exact}");
            }
        }
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(200.0, 0.0);
        b.add_directed_edge(v0, v1, 10.0);
        let net = b.build().unwrap();
        let ch = ContractionHierarchy::build(&net).unwrap();
        assert_eq!(ch.distance(v0, v1), 10.0);
        assert!(ch.distance(v1, v0).is_infinite());
        assert!(ch.distance(v0, v2).is_infinite());
        assert!(ch.distance(v2, v0).is_infinite());
        assert_eq!(ch.distance(v2, v2), 0.0);
    }

    #[test]
    fn distances_from_matches_point_queries() {
        let net = lattice(5, 11);
        let ch = ContractionHierarchy::build(&net).unwrap();
        let targets: Vec<VertexId> = net.vertices().collect();
        for source in net.vertices() {
            let batch = ch.distances_from(source, &targets);
            for (t, d) in targets.iter().zip(&batch) {
                let point = ch.distance(source, *t);
                assert!(
                    *d == point || (d.is_infinite() && point.is_infinite()),
                    "{source}->{t}: batch {d} vs point {point}"
                );
            }
        }
    }

    #[test]
    fn shortcut_count_is_reported() {
        let net = lattice(6, 5);
        let ch = ContractionHierarchy::build(&net).unwrap();
        // A lattice needs some shortcuts but far fewer than the arc bound.
        assert!(ch.num_shortcuts() > 0);
        assert!(ch.num_search_arcs() >= net.num_directed_edges());
        assert!(ch.approximate_bytes() > 0);
        // Ranks form a permutation of 0..n.
        let mut ranks: Vec<u32> = net.vertices().map(|v| ch.rank(v)).collect();
        ranks.sort_unstable();
        let expected: Vec<u32> = (0..net.num_vertices() as u32).collect();
        assert_eq!(ranks, expected);
        // The diagnostic search spaces are non-trivial and bounded by n.
        let (f, b) = ch.upward_search_space(VertexId(0));
        assert!(f >= 1 && f <= net.num_vertices());
        assert!(b >= 1 && b <= net.num_vertices());
    }

    #[test]
    fn dense_graph_aborts_instead_of_exploding() {
        // A complete digraph with random weights: contraction of any vertex
        // wants shortcuts between all remaining pairs. With a tiny shortcut
        // budget the build must abort cleanly.
        let mut b = RoadNetworkBuilder::new();
        let n = 24usize;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let ids: Vec<VertexId> = (0..n)
            .map(|i| b.add_vertex(rng.gen_range(0.0..100.0), i as f64))
            .collect();
        for &u in &ids {
            for &v in &ids {
                if u != v {
                    b.add_directed_edge(u, v, rng.gen_range(500.0..1000.0));
                }
            }
        }
        let net = b.build().unwrap();
        let cfg = ChConfig {
            max_shortcut_factor: 0.01,
            ..ChConfig::default()
        };
        match ContractionHierarchy::build_with(&net, &cfg) {
            Err(ChBuildError::TooManyShortcuts { .. }) => {}
            Ok(ch) => {
                // Acceptable alternative: witness searches found enough
                // paths that the budget was never exceeded. Distances must
                // then be exact.
                let exact = dijkstra::distance(&net, ids[0], ids[n - 1]).unwrap();
                assert!((ch.distance(ids[0], ids[n - 1]) - exact).abs() < 1e-6);
            }
        }
    }
}
