//! Equivalence of the search kernel with a plain reference Dijkstra.
//!
//! Every search in the crate pops its frontier in lexicographic
//! `(key, vertex id)` order. That order decides which of several tied
//! shortest paths a search records, so it shows in parent pointers, in
//! the canonical folds the oracle caches and, through them, in offers. The
//! reference below keeps a `BinaryHeap` of `(f64, u32)` pairs ordered by
//! `total_cmp` and then vertex id, and every public search is checked
//! against it bit for bit on two lattices: one whose weights are all the
//! same (maximal ties) and one with jittered weights and exact-weight
//! arterial rows.

use proptest::prelude::*;
use ptrider_roadnet::scratch::Frontier;
use ptrider_roadnet::{
    astar, dijkstra, DistanceOracle, GridConfig, GridIndex, LandmarkIndex, OneToMany, RoadNetwork,
    RoadNetworkBuilder, VertexId, INFINITE_DISTANCE,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

const SIDE: usize = 20;
const ARTERIAL: f64 = 175.0;

/// A `SIDE × SIDE` lattice on a 100 m pitch. `jitter == false`: every edge
/// weighs [`ARTERIAL`]. Otherwise weights are jittered, except every third
/// row, which is an arterial of exactly [`ARTERIAL`] per block.
fn lattice(jitter: bool, seed: u64) -> RoadNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = RoadNetworkBuilder::new();
    let ids: Vec<_> = (0..SIDE * SIDE)
        .map(|i| b.add_vertex((i % SIDE) as f64 * 100.0, (i / SIDE) as f64 * 100.0))
        .collect();
    let mut weight = |arterial: bool| {
        if !jitter || arterial {
            ARTERIAL
        } else {
            rng.gen_range(100.0..260.0)
        }
    };
    for y in 0..SIDE {
        for x in 0..SIDE {
            let u = ids[y * SIDE + x];
            if x + 1 < SIDE {
                b.add_bidirectional_edge(u, ids[y * SIDE + x + 1], weight(y % 3 == 0));
            }
            if y + 1 < SIDE {
                b.add_bidirectional_edge(u, ids[(y + 1) * SIDE + x], weight(false));
            }
        }
    }
    b.build().unwrap()
}

#[derive(PartialEq)]
struct Entry(f64, u32);

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reversed, so `BinaryHeap` pops the smallest `(key, vertex)` first.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

/// Labels and parents (`u32::MAX` = none) of a best-first search from
/// `root` keyed `g + h`, stopping once `stop` is popped. With `h ≡ 0` and
/// `slack = 0` it is Dijkstra; otherwise it is the A* loop of
/// `ptrider_roadnet::astar`, stale test included.
fn reference(
    net: &RoadNetwork,
    root: VertexId,
    stop: Option<VertexId>,
    h: impl Fn(VertexId) -> f64,
    slack: f64,
) -> (Vec<f64>, Vec<u32>) {
    let mut dist = vec![INFINITE_DISTANCE; net.num_vertices()];
    let mut parent = vec![u32::MAX; net.num_vertices()];
    let mut heap = BinaryHeap::new();
    dist[root.index()] = 0.0;
    heap.push(Entry(h(root), root.0));
    while let Some(Entry(key, u)) = heap.pop() {
        let u = VertexId(u);
        let g = dist[u.index()];
        if key > g + h(u) + slack {
            continue;
        }
        if Some(u) == stop {
            break;
        }
        for (v, w) in net.neighbors(u) {
            let ng = g + w;
            if ng < dist[v.index()] {
                dist[v.index()] = ng;
                parent[v.index()] = u.0;
                heap.push(Entry(ng + h(v), v.0));
            }
        }
    }
    (dist, parent)
}

fn dijkstra_reference(net: &RoadNetwork, root: VertexId) -> (Vec<f64>, Vec<u32>) {
    reference(net, root, None, |_| 0.0, 0.0)
}

/// The reference's tree path `t → root` re-summed in walk order for
/// targets below the root (the canonical fold), its label otherwise.
fn reference_fold(
    net: &RoadNetwork,
    (dist, parent): &(Vec<f64>, Vec<u32>),
    root: VertexId,
    t: VertexId,
) -> f64 {
    let d = dist[t.index()];
    if t >= root || !d.is_finite() {
        return d;
    }
    let mut acc = 0.0;
    let mut cur = t;
    while cur != root {
        let p = VertexId(parent[cur.index()]);
        acc += net
            .neighbors(cur)
            .filter(|&(v, _)| v == p)
            .map(|(_, w)| w)
            .fold(INFINITE_DISTANCE, f64::min);
        cur = p;
    }
    acc
}

fn reference_path(parent: &[u32], root: VertexId, t: VertexId) -> Vec<VertexId> {
    let mut path = vec![t];
    while *path.last().unwrap() != root {
        path.push(VertexId(parent[path.last().unwrap().index()]));
    }
    path.reverse();
    path
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Both lattices with a few roots each: corners, the centre and random
/// vertices.
fn cases() -> Vec<(&'static str, RoadNetwork, Vec<VertexId>)> {
    let n = (SIDE * SIDE) as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(27);
    [("ties", lattice(false, 1)), ("jittered", lattice(true, 2))]
        .into_iter()
        .map(|(name, net)| {
            let mut roots = vec![
                VertexId(0),
                VertexId(n - 1),
                VertexId(n / 2 + SIDE as u32 / 2),
            ];
            roots.extend((0..3).map(|_| VertexId(rng.gen_range(0..n))));
            (name, net, roots)
        })
        .collect()
}

#[test]
fn dijkstra_searches_match_the_reference_bit_for_bit() {
    for (name, net, roots) in cases() {
        let all: Vec<VertexId> = net.vertices().collect();
        for &root in &roots {
            let r = dijkstra_reference(&net, root);
            assert_eq!(
                bits(&dijkstra::single_source(&net, root)),
                bits(&r.0),
                "{name} {root}"
            );
            assert_eq!(
                bits(&dijkstra::multi_target(&net, root, &all)),
                bits(&r.0),
                "{name} {root}"
            );
            // A sparse target set with duplicates and the root stops early.
            let some: Vec<VertexId> = all
                .iter()
                .copied()
                .step_by(37)
                .chain([root, all[5], all[5]])
                .collect();
            let labels: Vec<f64> = some.iter().map(|t| r.0[t.index()]).collect();
            assert_eq!(
                bits(&dijkstra::multi_target(&net, root, &some)),
                bits(&labels),
                "{name} {root}"
            );
            let folds: Vec<f64> = all
                .iter()
                .map(|&t| reference_fold(&net, &r, root, t))
                .collect();
            assert_eq!(
                bits(&dijkstra::multi_target_canonical(&net, root, &all)),
                bits(&folds),
                "{name} {root}"
            );
            for &t in all.iter().step_by(11) {
                let d = dijkstra::distance(&net, root, t).unwrap();
                assert_eq!(d.to_bits(), r.0[t.index()].to_bits(), "{name} {root}->{t}");
                let (d, path) = dijkstra::shortest_path(&net, root, t).unwrap();
                assert_eq!(d.to_bits(), r.0[t.index()].to_bits(), "{name} {root}->{t}");
                assert_eq!(path, reference_path(&r.1, root, t), "{name} {root}->{t}");
            }
        }
    }
}

#[test]
fn resumed_searches_fold_like_the_reference_in_any_chunking() {
    for (name, net, roots) in cases() {
        let net = Arc::new(net);
        let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(4, 4)));
        let mut targets: Vec<VertexId> = net.vertices().collect();
        // Near and far targets interleaved, so chunks grow the search in
        // uneven steps and revisit settled vertices.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for i in (1..targets.len()).rev() {
            targets.swap(i, rng.gen_range(0..=i));
        }
        for &root in &roots {
            let r = dijkstra_reference(&net, root);
            for chunks in [1, 3, 17] {
                let oracle = DistanceOracle::new(Arc::clone(&net), Arc::clone(&grid));
                let mut search = OneToMany::default();
                search.reset(root);
                for chunk in targets.chunks(targets.len().div_ceil(chunks)) {
                    oracle.settle_from(&mut search, chunk);
                }
                assert_eq!(oracle.exact_computations(), 1, "one search per root");
                for &t in &targets {
                    assert_eq!(
                        oracle.distance(root, t).to_bits(),
                        reference_fold(&net, &r, root, t).to_bits(),
                        "{name} {root}->{t} in {chunks} chunks"
                    );
                }
                assert_eq!(oracle.exact_computations(), 1, "every distance cached");
            }
        }
    }
}

#[test]
fn alt_astar_matches_the_reference_bit_for_bit() {
    for (name, net, roots) in cases() {
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(4, 4));
        let landmarks = LandmarkIndex::build(&net, 4, VertexId(0));
        let ratio = net.min_weight_ratio();
        for &s in &roots {
            for t in net.vertices().step_by(7) {
                // The heuristic `distance_with_landmarks` builds on an
                // undirected network.
                let h = |v: VertexId| {
                    (net.euclidean(v, t) * ratio)
                        .max(grid.lower_bound(v, t))
                        .max(landmarks.lower_bound(v, t))
                };
                let (dist, _) = reference(&net, s, Some(t), h, 1e-9);
                let got = astar::distance_with_landmarks(&net, s, t, Some(&grid), Some(&landmarks));
                assert_eq!(
                    got.map(f64::to_bits),
                    Some(dist[t.index()].to_bits()),
                    "{name} {s}->{t}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random `(key, vertex)` streams — exact key ties, `0.0` and `+∞`
    /// included — pop in ascending `(total_cmp, id)` order, and `peek`
    /// always shows the next pop.
    #[test]
    fn frontier_pops_in_key_then_vertex_order(seed in 0u64..1_000_000, len in 0usize..300) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let keys = [0.0, INFINITE_DISTANCE, ARTERIAL, 2.0 * ARTERIAL, f64::MIN_POSITIVE, f64::MAX];
        let entries: Vec<(f64, u32)> = (0..len)
            .map(|_| {
                let key = match rng.gen_range(0..3) {
                    0 => keys[rng.gen_range(0..keys.len())],
                    1 => rng.gen_range(0.0..1000.0f64).floor(),
                    _ => rng.gen_range(0.0..1e7),
                };
                let id = if rng.gen_range(0..2) == 0 { rng.gen_range(0..8) } else { rng.gen() };
                (key, id)
            })
            .collect();
        let mut frontier = Frontier::default();
        for &(key, id) in &entries {
            frontier.push(key, VertexId(id));
        }
        let mut sorted = entries;
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (key, id) in sorted {
            prop_assert_eq!(frontier.peek(), Some((key, VertexId(id))));
            let (k, v) = frontier.pop().unwrap();
            prop_assert_eq!((k.to_bits(), v), (key.to_bits(), VertexId(id)));
        }
        prop_assert_eq!(frontier.pop(), None);
    }
}
