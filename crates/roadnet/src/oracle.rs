//! Memoising distance oracle combining exact shortest-path queries with the
//! grid and landmark lower bounds.
//!
//! The matching algorithms of `ptrider-core` interleave many exact distance
//! computations with cheap pruning bounds; the oracle is the hot path of the
//! whole system. Its design:
//!
//! * **Sharded cache** — exact results are memoised in hash-partitioned
//!   shards, each behind its own `parking_lot::RwLock`. Lookups take one
//!   shard read lock, inserts one shard write lock, so concurrent matcher
//!   threads do not serialise on a single global mutex (the seed used one
//!   `Mutex<HashMap>` locked twice per query). The shard count is sized to
//!   the machine ([`num_cache_shards`]): `available_parallelism` rounded to
//!   the next power of two, floored at 32.
//! * **Allocation-free ALT backend** — exact queries run A* on thread-local
//!   generation-stamped scratch buffers ([`crate::scratch`]) with the
//!   heuristic `max(euclidean, grid bound, landmark bound)`; see
//!   [`crate::astar::distance_with_landmarks`].
//! * **Batched one-to-many** — [`DistanceOracle::distances_from`] answers
//!   `k` same-source queries with a single bounded multi-target Dijkstra
//!   instead of `k` point-to-point searches.
//! * **Resumable one-to-many** — [`DistanceOracle::settle_from`] grows a
//!   caller-owned [`OneToMany`] search from one root just far enough to
//!   answer the targets that miss the cache, and resumes it on the next
//!   call; the matchers keep one open per request endpoint.
//! * **Canonical-direction memoisation** — on undirected networks each
//!   unordered pair is cached under a single canonical key (smaller vertex
//!   id first) and its exact value is always *folded* in the canonical
//!   direction, whichever endpoint the query named. Floating-point sums are
//!   order-sensitive in the last bit, so without this the bits an oracle
//!   returned would depend on its query history (the pre-refactor mirror
//!   stored whichever direction was computed first); with it, every answer
//!   is a pure function of the pair, which is what makes parallel batch
//!   admission bit-identical to sequential admission. One residual
//!   assumption: when a pair has *several* shortest paths whose float sums
//!   differ in the last bit, different search roots may pick different tie
//!   paths and re-fold to different bits; exact-weight grids fold
//!   identically on every tie path, and with jittered
//!   real-valued weights exact ties are vanishingly rare (the equivalence
//!   proptests would surface one as a seed failure). Networks with
//!   one-way edges cache both directions separately, as
//!   `dist(u, v) ≠ dist(v, u)` in general.
//! * **Bounded memory** — every shard carries an entry cap with
//!   second-chance (clock) eviction: a hit sets a referenced bit, and when a
//!   full shard takes an insert, unreferenced entries are evicted while
//!   referenced ones survive with their bit cleared. Long-running engines
//!   no longer grow the cache without bound.
//! * **Epoch-stamped live-traffic metric** — the oracle separates the
//!   *base* (free-flow) network, which the grid/landmark/Euclidean lower
//!   bounds are built on, from the *metric* network exact queries run on.
//!   [`DistanceOracle::apply_traffic`] swaps in a re-weighted metric
//!   ([`RoadNetwork::with_metric`] over a [`crate::traffic::TrafficModel`]
//!   of factors ≥ 1.0) and bumps the **metric epoch**. Cache entries are
//!   stamped with the epoch they were computed under; a lookup whose stamp
//!   differs from the current epoch is a miss, so an epoch change
//!   invalidates the whole cache *lazily* — no stop-the-world clear, stale
//!   entries are overwritten on re-insert and swept first by eviction.
//!   Because factors never drop below 1.0, every base-metric lower bound
//!   stays admissible for every epoch (see DESIGN.md "Traffic model").
//!   Epoch swaps are not linearizable with *in-flight* exact queries (a
//!   query that raced the swap may return and cache a previous-epoch value
//!   under the previous stamp); callers that need a clean cut — the
//!   engine's `apply_traffic_update` — serialise the swap behind their
//!   write path.
//!
//! The exact-computation counters feed the pruning-effectiveness experiment
//! (E8).

use crate::astar;
use crate::dijkstra::{self, GrowingSearch};
use crate::graph::RoadNetwork;
use crate::grid::GridIndex;
use crate::landmarks::LandmarkIndex;
use crate::traffic::TrafficModel;
use crate::types::VertexId;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of cache shards, sized once per process from the machine:
/// `available_parallelism` rounded up to the next power of two, with a
/// floor of 32. On laptops and CI containers this stays at the historical
/// 32; on large multi-socket boxes it grows with the cores so matcher
/// threads keep hitting distinct shards (the first step of the ROADMAP's
/// NUMA-aware sharding item — pinning comes later).
pub fn num_cache_shards() -> usize {
    static SHARDS: OnceLock<usize> = OnceLock::new();
    *SHARDS.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        cores.next_power_of_two().max(32)
    })
}

/// Default total cache capacity (entries across all shards): 4M pairs
/// ≈ 100 MB. Override with [`DistanceOracle::with_cache_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 22;

/// Relative haircut on every non-exact lower bound. Landmark differences
/// and grid sums `umin + lb + vmin` fold their terms in another order than
/// the exact search folds the path, so in floating point they can land a
/// few ulp *above* the exact distance. A bound that high would prune a
/// vehicle at an exact price/time tie on a cold cache and keep it on a warm
/// one (where the cached exact value is returned instead). The haircut is
/// orders of magnitude wider than any such rounding and orders narrower
/// than any real difference in distance.
pub const LOWER_BOUND_HAIRCUT: f64 = 1.0 - 1e-9;

/// The exact shortest-path backend a [`DistanceOracle`] uses on a cache
/// miss. ALT is the only one (DESIGN.md "One exact backend"); the type
/// lets configurations and reports name it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistanceBackend {
    /// ALT: A* with `max(euclidean, grid, landmark)` heuristics. No
    /// preprocessing beyond the landmark tables; queries settle `O(ball)`
    /// vertices.
    #[default]
    Alt,
}

impl std::fmt::Display for DistanceBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistanceBackend::Alt => write!(f, "alt"),
        }
    }
}

/// One memoised distance plus its clock (second-chance) referenced bit and
/// the metric epoch it was computed under. The bit is set on every hit
/// through a shard *read* lock, which is why it is atomic rather than
/// plain; the epoch stamp is immutable per entry — an entry whose stamp
/// differs from the oracle's current epoch is invisible to lookups and the
/// first to go under eviction pressure.
struct CacheSlot {
    dist: f64,
    epoch: u64,
    referenced: AtomicBool,
}

type Shard = RwLock<HashMap<(VertexId, VertexId), CacheSlot>>;

/// The swappable exact-query substrate: which network weights answer
/// cache misses right now. Guarded by one `RwLock` — exact computations
/// hold a read guard for their duration, [`DistanceOracle::apply_traffic`]
/// takes the write guard to swap.
struct MetricState {
    /// The network exact queries run on: the base network at epoch 0, a
    /// [`RoadNetwork::with_metric`] re-weighting afterwards.
    net: Arc<RoadNetwork>,
    /// Monotone metric epoch; 0 is the build-time free-flow metric.
    epoch: u64,
    /// Whether *this metric* is symmetric (asymmetric traffic factors can
    /// break the base network's undirectedness) — controls canonical-
    /// direction cache folding.
    undirected: bool,
}

/// What [`DistanceOracle::apply_traffic`] did.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficApplied {
    /// The metric epoch now in effect (stamped on new cache entries).
    pub epoch: u64,
    /// Arcs above free flow in the applied model.
    pub congested_arcs: usize,
    /// Largest factor in the applied model.
    pub max_factor: f64,
}

#[inline]
fn shard_of(u: VertexId, v: VertexId) -> usize {
    let key = ((u.0 as u64) << 32) | v.0 as u64;
    let shards = num_cache_shards();
    // Fibonacci hashing spreads sequential vertex ids across shards; taking
    // the *top* log2(shards) bits of the product keeps the spread even for
    // any power-of-two shard count.
    let shift = 64 - shards.trailing_zeros();
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize & (shards - 1)
}

/// A one-to-many search owned by the caller and grown by
/// [`DistanceOracle::settle_from`]: the root and the metric snapshot it runs
/// on (taken lazily, on the first target that misses the cache). Reusable
/// across roots via [`Self::reset`]; its scratch is allocated once and
/// generation-stamped after that.
pub struct OneToMany {
    search: GrowingSearch,
    root: VertexId,
    /// Metric network and epoch the search runs under, once started.
    run: Option<(Arc<RoadNetwork>, u64)>,
    pending: Vec<VertexId>,
}

impl Default for OneToMany {
    fn default() -> Self {
        OneToMany {
            search: GrowingSearch::default(),
            root: VertexId(0),
            run: None,
            pending: Vec::new(),
        }
    }
}

impl OneToMany {
    /// Re-roots at `root`. Constant time: the search itself only starts
    /// when a target misses the cache.
    pub fn reset(&mut self, root: VertexId) {
        self.root = root;
        self.run = None;
    }

    /// Whether a search has run for this root (a fully cached target set
    /// never starts one).
    pub fn started(&self) -> bool {
        self.run.is_some()
    }

    /// Vertices settled for this root so far.
    pub fn settled(&self) -> u64 {
        if self.started() {
            self.search.settled()
        } else {
            0
        }
    }
}

/// Thread-safe memoising distance oracle.
///
/// Cloning the oracle is cheap; clones share the same cache and counters.
#[derive(Clone)]
pub struct DistanceOracle {
    /// The base (free-flow) network: coordinates, lower-bound substrate,
    /// and the topology every traffic metric re-weights.
    net: Arc<RoadNetwork>,
    grid: Arc<GridIndex>,
    landmarks: Option<Arc<LandmarkIndex>>,
    /// The metric exact queries currently run on (epoch-swapped).
    metric: Arc<RwLock<MetricState>>,
    /// Lock-free mirror of the metric epoch for cache staleness checks.
    epoch: Arc<AtomicU64>,
    /// Lock-free mirror of the current metric's undirectedness for
    /// canonical cache folding.
    metric_undirected: Arc<AtomicBool>,
    cache: Arc<Vec<Shard>>,
    /// Per-shard entry cap for clock eviction; `usize::MAX` disables it.
    shard_capacity: usize,
    exact_computations: Arc<AtomicU64>,
    cache_hits: Arc<AtomicU64>,
    lower_bound_queries: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
}

impl DistanceOracle {
    /// Creates an oracle over a network and its grid index (no landmark
    /// acceleration; see [`Self::with_landmarks`]).
    pub fn new(net: Arc<RoadNetwork>, grid: Arc<GridIndex>) -> Self {
        let undirected = net.is_undirected();
        DistanceOracle {
            metric: Arc::new(RwLock::new(MetricState {
                net: Arc::clone(&net),
                epoch: 0,
                undirected,
            })),
            net,
            grid,
            landmarks: None,
            epoch: Arc::new(AtomicU64::new(0)),
            metric_undirected: Arc::new(AtomicBool::new(undirected)),
            cache: Arc::new(
                (0..num_cache_shards())
                    .map(|_| RwLock::new(HashMap::new()))
                    .collect(),
            ),
            shard_capacity: (DEFAULT_CACHE_CAPACITY / num_cache_shards()).max(1),
            exact_computations: Arc::new(AtomicU64::new(0)),
            cache_hits: Arc::new(AtomicU64::new(0)),
            lower_bound_queries: Arc::new(AtomicU64::new(0)),
            evictions: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Creates an oracle whose exact queries are ALT-accelerated and whose
    /// [`Self::lower_bound`] additionally uses the landmark bound — the
    /// P1–P5 pruning rules of the matchers then prune strictly more
    /// vehicles.
    pub fn with_landmarks(
        net: Arc<RoadNetwork>,
        grid: Arc<GridIndex>,
        landmarks: Arc<LandmarkIndex>,
    ) -> Self {
        let mut oracle = Self::new(net, grid);
        oracle.landmarks = Some(landmarks);
        oracle
    }

    /// Overrides the total cache capacity (entries across all shards).
    /// Eviction triggers per shard at `capacity / num_cache_shards()`;
    /// passing `usize::MAX` disables eviction entirely.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.shard_capacity = if capacity == usize::MAX {
            usize::MAX
        } else {
            (capacity / num_cache_shards()).max(1)
        };
        self
    }

    /// The exact backend answering cache misses.
    pub fn backend(&self) -> DistanceBackend {
        DistanceBackend::Alt
    }

    /// Total cache capacity in entries (`usize::MAX` when unbounded).
    pub fn cache_capacity(&self) -> usize {
        if self.shard_capacity == usize::MAX {
            usize::MAX
        } else {
            self.shard_capacity * num_cache_shards()
        }
    }

    /// The underlying **base** (free-flow) road network — the topology,
    /// the coordinates and the lower-bound substrate. Exact queries run on
    /// [`Self::metric_network`], which equals the base network until a
    /// traffic epoch is applied.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// The network exact queries currently run on: the base network at
    /// epoch 0, the latest [`RoadNetwork::with_metric`] re-weighting after
    /// a traffic epoch.
    pub fn metric_network(&self) -> Arc<RoadNetwork> {
        Arc::clone(&self.metric.read().net)
    }

    /// The current traffic epoch (0 = build-time free-flow metric).
    pub fn traffic_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The underlying grid index.
    pub fn grid(&self) -> &GridIndex {
        &self.grid
    }

    /// The landmark index, if this oracle was built with one.
    pub fn landmarks(&self) -> Option<&LandmarkIndex> {
        self.landmarks.as_deref()
    }

    /// Shared handle to the underlying road network.
    pub fn network_arc(&self) -> Arc<RoadNetwork> {
        Arc::clone(&self.net)
    }

    /// Shared handle to the underlying grid index.
    pub fn grid_arc(&self) -> Arc<GridIndex> {
        Arc::clone(&self.grid)
    }

    /// The cache key of a pair: on (currently) undirected metrics the
    /// unordered pair's canonical form (smaller vertex id first), so both
    /// query directions share one entry carrying the canonical fold.
    /// Asymmetric traffic factors flip the metric to directed, and with it
    /// the keying — entries from the previous symmetry regime are already
    /// invisible via their epoch stamp.
    #[inline]
    fn cache_key(&self, u: VertexId, v: VertexId) -> (VertexId, VertexId) {
        if v < u && self.metric_undirected.load(Ordering::Relaxed) {
            (v, u)
        } else {
            (u, v)
        }
    }

    #[inline]
    fn cached(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let epoch = self.epoch.load(Ordering::Relaxed);
        let key = self.cache_key(u, v);
        let shard = self.cache[shard_of(key.0, key.1)].read();
        shard.get(&key).and_then(|slot| {
            // A stamp from another epoch means the entry was computed on a
            // different metric: invisible, awaiting overwrite or eviction.
            if slot.epoch != epoch {
                return None;
            }
            // Second chance: a hit through the read lock marks the entry
            // referenced so the next eviction sweep spares it. Store only
            // when the bit is clear: on a warm cache most hits find it set,
            // and skipping the write keeps the entry's cache line shared
            // between cores instead of bouncing it on every lookup.
            if !slot.referenced.load(Ordering::Relaxed) {
                slot.referenced.store(true, Ordering::Relaxed);
            }
            Some(slot.dist)
        })
    }

    /// Inserts into a write-locked shard, evicting with the second-chance
    /// (clock) policy when the shard is at capacity: entries whose
    /// referenced bit is clear are evicted, survivors lose their bit. If
    /// every entry was referenced (sweep evicted nothing), an arbitrary
    /// half of the shard is dropped so the bound always holds.
    ///
    /// Races on one key are harmless: the canonical-fold policy means every
    /// writer of a key computes the same bits whenever the pair's shortest
    /// path is unique (see the tie caveat on the module docs).
    fn insert_with_eviction(
        &self,
        map: &mut HashMap<(VertexId, VertexId), CacheSlot>,
        key: (VertexId, VertexId),
        d: f64,
        epoch: u64,
    ) {
        if map.len() >= self.shard_capacity && !map.contains_key(&key) {
            let before = map.len();
            let current = self.epoch.load(Ordering::Relaxed);
            map.retain(|_, slot| {
                // Entries from another metric epoch are dead weight: evict
                // them outright, no second chance.
                if slot.epoch != current {
                    return false;
                }
                let keep = *slot.referenced.get_mut();
                *slot.referenced.get_mut() = false;
                keep
            });
            if map.len() >= self.shard_capacity {
                let mut spare = self.shard_capacity / 2;
                map.retain(|_, _| {
                    let keep = spare > 0;
                    spare = spare.saturating_sub(1);
                    keep
                });
            }
            self.evictions
                .fetch_add((before - map.len()) as u64, Ordering::Relaxed);
        }
        map.insert(
            key,
            CacheSlot {
                dist: d,
                epoch,
                referenced: AtomicBool::new(false),
            },
        );
    }

    #[inline]
    fn store(&self, u: VertexId, v: VertexId, d: f64, epoch: u64) {
        // One canonical entry per unordered pair on undirected networks
        // (half the footprint of the old two-direction mirror).
        let key = self.cache_key(u, v);
        self.insert_with_eviction(
            &mut self.cache[shard_of(key.0, key.1)].write(),
            key,
            d,
            epoch,
        );
    }

    /// Exact distance on a metric snapshot, bypassing the cache. The grid
    /// and landmark heuristics were built on the base metric; with traffic
    /// factors ≥ 1.0 they lower-bound base distances which lower-bound
    /// metric distances, so they stay admissible (and consistent) on every
    /// epoch's network.
    #[inline]
    fn snapshot_distance(&self, m: &MetricState, u: VertexId, v: VertexId) -> f64 {
        astar::distance_with_landmarks(&m.net, u, v, Some(&self.grid), self.landmarks.as_deref())
            .unwrap_or(f64::INFINITY)
    }

    /// Exact distance folded in canonical direction under the current
    /// metric snapshot, plus the epoch to stamp the cache entry with: on
    /// undirected metrics the search always runs from the smaller vertex
    /// id, so the returned bits depend only on the pair — never on which
    /// direction a caller happened to ask first.
    #[inline]
    fn backend_distance_canonical(&self, u: VertexId, v: VertexId) -> (f64, u64) {
        let m = self.metric.read();
        let (a, b) = if v < u && m.undirected {
            (v, u)
        } else {
            (u, v)
        };
        (self.snapshot_distance(&m, a, b), m.epoch)
    }

    /// Exact shortest-path distance **under the current traffic metric**,
    /// memoised per epoch. Returns `f64::INFINITY` when unreachable so
    /// callers can treat the result as a plain cost.
    pub fn distance(&self, u: VertexId, v: VertexId) -> f64 {
        if u == v {
            return 0.0;
        }
        if let Some(d) = self.cached(u, v) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return d;
        }
        self.exact_computations.fetch_add(1, Ordering::Relaxed);
        let (d, epoch) = self.backend_distance_canonical(u, v);
        self.store(u, v, d, epoch);
        d
    }

    /// One-to-many exact distances from `source` to every vertex in
    /// `targets`, memoised per pair.
    ///
    /// Cache misses are answered by a *single* bounded multi-target Dijkstra
    /// (counted as one exact computation) instead of `targets.len()`
    /// independent point-to-point searches — the batching entry point for
    /// the matchers' verification loops and the kinetic-tree re-annotation.
    pub fn distances_from(&self, source: VertexId, targets: &[VertexId]) -> Vec<f64> {
        let mut out = vec![0.0f64; targets.len()];
        let mut missing: Vec<VertexId> = Vec::new();
        let mut missing_idx: Vec<usize> = Vec::new();
        for (i, &t) in targets.iter().enumerate() {
            if t == source {
                continue; // out[i] stays 0.0
            }
            if let Some(d) = self.cached(source, t) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                out[i] = d;
            } else {
                missing.push(t);
                missing_idx.push(i);
            }
        }
        match missing.len() {
            0 => {}
            // For a few scattered misses, goal-directed ALT point queries
            // beat a batch whose cost is dominated by setup.
            1..=3 => {
                let m = self.metric.read();
                let epoch = m.epoch;
                // Computed under the snapshot, stored after it is released
                // (store takes shard write locks; keep the hold sets small).
                let mut drop_store: Vec<(VertexId, f64)> = Vec::with_capacity(missing.len());
                for (&i, &t) in missing_idx.iter().zip(missing.iter()) {
                    self.exact_computations.fetch_add(1, Ordering::Relaxed);
                    let (a, b) = if t < source && m.undirected {
                        (t, source)
                    } else {
                        (source, t)
                    };
                    let d = self.snapshot_distance(&m, a, b);
                    out[i] = d;
                    drop_store.push((t, d));
                }
                drop(m);
                for (t, d) in drop_store {
                    self.store(source, t, d, epoch);
                }
            }
            _ => {
                self.exact_computations.fetch_add(1, Ordering::Relaxed);
                let m = self.metric.read();
                let epoch = m.epoch;
                // One bounded multi-target Dijkstra ball on the metric
                // network, folded in canonical direction on undirected
                // metrics.
                let ds = if m.undirected {
                    dijkstra::multi_target_canonical(&m.net, source, &missing)
                } else {
                    dijkstra::multi_target(&m.net, source, &missing)
                };
                drop(m);
                for ((&i, &t), d) in missing_idx.iter().zip(missing.iter()).zip(ds) {
                    self.store(source, t, d, epoch);
                    out[i] = d;
                }
            }
        }
        out
    }

    /// Answers `dist(root, t)` for every target of `search`'s root that is
    /// not cached yet, and caches the answers.
    ///
    /// One Dijkstra per root, grown only until this call's missing targets
    /// are settled and resumed where it stopped on the next call — it never
    /// restarts. It starts lazily, on the first target that misses the
    /// cache, and counts as one exact computation however many calls it
    /// spans; each target costs one cache lookup. Answers are folded in
    /// canonical direction (the parent-walk re-fold of
    /// [`dijkstra::multi_target_canonical`]) and stored through the normal
    /// cache path stamped with the epoch the search started under, so
    /// later [`Self::distance`] / [`Self::distances_from`] calls hit.
    ///
    /// A no-op on directed metrics: answering `dist(t, root)` would need a
    /// reverse search the network has no adjacency for, so callers keep
    /// their point queries there.
    pub fn settle_from(&self, search: &mut OneToMany, targets: &[VertexId]) {
        let root = search.root;
        search.pending.clear();
        for &t in targets {
            if t != root && self.cached(root, t).is_none() {
                search.pending.push(t);
            }
        }
        if search.pending.is_empty() {
            return;
        }
        if search.run.is_none() {
            let m = self.metric.read();
            if !m.undirected {
                return;
            }
            search.run = Some((Arc::clone(&m.net), m.epoch));
            drop(m);
            self.exact_computations.fetch_add(1, Ordering::Relaxed);
            let net = &search.run.as_ref().expect("just started").0;
            search.search.reset(net, root);
        }
        let (net, epoch) = search.run.as_ref().expect("started above");
        search.search.settle(net, &search.pending);
        for &t in &search.pending {
            let d = search.search.canonical_distance(net, t);
            self.store(root, t, d, *epoch);
        }
    }

    /// Whether the metric exact queries currently run on is symmetric —
    /// the condition for [`Self::settle_from`] to answer anything.
    pub fn is_metric_undirected(&self) -> bool {
        self.metric_undirected.load(Ordering::Relaxed)
    }

    /// Applies a traffic model: swaps in the scaled metric network and
    /// bumps the metric epoch, which lazily invalidates every cache shard
    /// without a stop-the-world clear.
    ///
    /// Epoch swaps are not linearizable with in-flight exact queries; see
    /// the module docs. The engine-level `apply_traffic_update` wrappers
    /// run this behind the admission writer so no query is in flight.
    ///
    /// # Panics
    /// Panics if `model` was built for a different network (arc-count
    /// mismatch).
    pub fn apply_traffic(&self, model: &TrafficModel) -> TrafficApplied {
        // A fully free-flow model scales every weight by exactly 1.0, so
        // the metric is bit-identical to the base network: reinstate the
        // base `Arc` instead of re-deriving it. The epoch still bumps —
        // cached entries hold previous-epoch traffic values.
        let metric_net = if model.congested_arcs() == 0 {
            debug_assert_eq!(model.num_arcs(), self.net.num_directed_edges());
            Arc::clone(&self.net)
        } else {
            Arc::new(
                self.net
                    .with_metric(model.scaled_weights(&self.net))
                    .expect("scaled weights are finite, non-negative and length-checked"),
            )
        };
        let undirected = metric_net.is_undirected();
        let epoch = {
            let mut state = self.metric.write();
            state.net = metric_net;
            state.epoch += 1;
            state.undirected = undirected;
            // The lock-free mirrors are refreshed while the write guard is
            // still held, so no reader can observe the new epoch with the
            // old symmetry flag or vice versa once the swap completes.
            self.metric_undirected.store(undirected, Ordering::Relaxed);
            self.epoch.store(state.epoch, Ordering::Relaxed);
            state.epoch
        };
        TrafficApplied {
            epoch,
            congested_arcs: model.congested_arcs(),
            max_factor: model.max_factor(),
        }
    }

    /// Cheap lower bound on the shortest-path distance (never exceeds
    /// [`Self::distance`], bit for bit). Takes the maximum of the grid
    /// bound, the Euclidean bound and — when available — the ALT landmark
    /// bound, shaved by [`LOWER_BOUND_HAIRCUT`], or returns the cached exact
    /// value outright.
    pub fn lower_bound(&self, u: VertexId, v: VertexId) -> f64 {
        self.lower_bound_queries.fetch_add(1, Ordering::Relaxed);
        if u == v {
            return 0.0;
        }
        if let Some(d) = self.cached(u, v) {
            return d;
        }
        let mut lb = 0.0f64;
        // The grid tables assume symmetric distances (forward border
        // searches only); on directed networks fall back to the Euclidean
        // bound, which is admissible in both directions.
        let base = if self.net.is_undirected() {
            self.grid.lower_bound_with(&self.net, u, v)
        } else {
            self.net.euclidean_lower_bound(u, v)
        };
        if base > lb {
            lb = base;
        }
        if let Some(landmarks) = &self.landmarks {
            let alt = landmarks.lower_bound(u, v);
            if alt > lb {
                lb = alt;
            }
        }
        lb * LOWER_BOUND_HAIRCUT
    }

    /// Lower bound from a vertex to the closest vertex of a grid cell.
    /// Degrades to 0 on directed networks (the grid tables are forward-only
    /// and would not be admissible there).
    pub fn lower_bound_to_cell(&self, u: VertexId, cell: crate::grid::CellId) -> f64 {
        self.lower_bound_queries.fetch_add(1, Ordering::Relaxed);
        if !self.net.is_undirected() {
            return 0.0;
        }
        self.grid.lower_bound_to_cell(u, cell) * LOWER_BOUND_HAIRCUT
    }

    /// Number of exact shortest-path computations performed so far (a
    /// batched [`Self::distances_from`] search counts once).
    pub fn exact_computations(&self) -> u64 {
        self.exact_computations.load(Ordering::Relaxed)
    }

    /// Number of exact queries answered from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Number of lower-bound queries served.
    pub fn lower_bound_queries(&self) -> u64 {
        self.lower_bound_queries.load(Ordering::Relaxed)
    }

    /// Number of cache entries evicted by the clock policy so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Resets the counters (not the cache); used between benchmark phases.
    pub fn reset_counters(&self) {
        self.exact_computations.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.lower_bound_queries.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Clears the memoisation cache (used by benchmarks that want cold-cache
    /// measurements) and the counters.
    pub fn clear(&self) {
        for shard in self.cache.iter() {
            shard.write().clear();
        }
        self.reset_counters();
    }

    /// Number of cached entries across all shards.
    pub fn cache_len(&self) -> usize {
        self.cache.iter().map(|s| s.read().len()).sum()
    }
}

impl std::fmt::Debug for DistanceOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceOracle")
            .field("vertices", &self.net.num_vertices())
            .field("cells", &self.grid.num_cells())
            .field("backend", &self.backend())
            .field("traffic_epoch", &self.traffic_epoch())
            .field(
                "landmarks",
                &self.landmarks.as_ref().map(|l| l.landmarks().len()),
            )
            .field("cache_len", &self.cache_len())
            .field("exact_computations", &self.exact_computations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;
    use crate::grid::GridConfig;

    fn lattice_oracle(landmarks: bool) -> DistanceOracle {
        let mut b = RoadNetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..5 {
            for x in 0..5 {
                ids.push(b.add_vertex(x as f64 * 100.0, y as f64 * 100.0));
            }
        }
        for y in 0..5usize {
            for x in 0..5usize {
                let u = ids[y * 5 + x];
                if x + 1 < 5 {
                    b.add_bidirectional_edge(u, ids[y * 5 + x + 1], 100.0);
                }
                if y + 1 < 5 {
                    b.add_bidirectional_edge(u, ids[(y + 1) * 5 + x], 100.0);
                }
            }
        }
        let net = Arc::new(b.build().unwrap());
        let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(2, 2)));
        if landmarks {
            let lm = Arc::new(LandmarkIndex::build(&net, 4, VertexId(0)));
            DistanceOracle::with_landmarks(net, grid, lm)
        } else {
            DistanceOracle::new(net, grid)
        }
    }

    fn oracle() -> DistanceOracle {
        lattice_oracle(false)
    }

    #[test]
    fn distance_is_memoised() {
        let o = oracle();
        let d1 = o.distance(VertexId(0), VertexId(24));
        assert_eq!(o.exact_computations(), 1);
        let d2 = o.distance(VertexId(0), VertexId(24));
        assert_eq!(d1, d2);
        assert_eq!(o.exact_computations(), 1);
        assert_eq!(o.cache_hits(), 1);
        // symmetric entry is cached too (undirected lattice)
        let d3 = o.distance(VertexId(24), VertexId(0));
        assert_eq!(d3, d1);
        assert_eq!(o.exact_computations(), 1);
    }

    #[test]
    fn directed_networks_do_not_mirror_the_cache() {
        // v0 -> v1 one-way at weight 10 over a bidirectional detour of 600.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(50.0, 100.0);
        b.add_directed_edge(v0, v1, 10.0);
        b.add_bidirectional_edge(v0, v2, 300.0);
        b.add_bidirectional_edge(v2, v1, 300.0);
        let net = Arc::new(b.build().unwrap());
        assert!(!net.is_undirected());
        let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(2, 2)));
        let o = DistanceOracle::new(net, grid);
        assert_eq!(o.distance(v0, v1), 10.0);
        // The reverse direction must take the detour, not the mirrored 10.
        assert_eq!(o.distance(v1, v0), 600.0);
        assert_eq!(o.exact_computations(), 2);
    }

    #[test]
    fn lower_bound_is_admissible_on_asymmetric_one_way_networks() {
        // Regression: the grid tables are forward-only, so on a network
        // where dist(u,v) != dist(v,u) the grid bound can exceed the true
        // distance (e.g. A->B cheap one way, B->A expensive). The oracle
        // must fall back to direction-safe bounds, and exact queries must
        // not be corrupted by an inflated A* heuristic.
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(90.0, 0.0);
        let c = b.add_vertex(200.0, 0.0);
        b.add_directed_edge(a, v1, 1.0);
        b.add_directed_edge(v1, a, 1000.0);
        b.add_bidirectional_edge(v1, c, 1.0);
        let net = Arc::new(b.build().unwrap());
        assert!(!net.is_undirected());
        // A 2x1 grid puts {A, B} in the left cell and C in the right one,
        // so B is A's cell's only border vertex and the forward table sets
        // vertex_min[A] = dist(B->A) = 1000 — wildly above dist(A->B) = 1.
        // The uncorrected grid bound then claims lb(A, C) = 1001 although
        // dist(A, C) = 2.
        let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(2, 1)));
        let lm = Arc::new(LandmarkIndex::build(&net, 2, a));
        let o = DistanceOracle::with_landmarks(net, grid, lm);
        for u in [a, v1, c] {
            for v in [a, v1, c] {
                let exact = dijkstra::distance(o.network(), u, v).unwrap_or(f64::INFINITY);
                // Bound first: once distance() caches the pair, lower_bound
                // returns the exact value and would mask an inflated bound.
                let lb = o.lower_bound(u, v);
                assert!(lb <= exact + 1e-9, "lb {lb} > exact {exact} for {u}->{v}");
                assert_eq!(o.distance(u, v), exact, "exact {u}->{v}");
            }
        }
    }

    #[test]
    fn lower_bound_is_admissible() {
        for with_lm in [false, true] {
            let o = lattice_oracle(with_lm);
            for u in 0..25u32 {
                for v in 0..25u32 {
                    let lb = o.lower_bound(VertexId(u), VertexId(v));
                    let exact = o.distance(VertexId(u), VertexId(v));
                    assert!(
                        lb <= exact + 1e-9,
                        "lb {lb} > exact {exact} ({u}->{v}, landmarks={with_lm})"
                    );
                }
            }
        }
    }

    #[test]
    fn landmark_bound_tightens_lower_bounds() {
        let plain = lattice_oracle(false);
        let alt = lattice_oracle(true);
        let mut tightened = 0usize;
        for u in 0..25u32 {
            for v in 0..25u32 {
                let a = alt.lower_bound(VertexId(u), VertexId(v));
                let p = plain.lower_bound(VertexId(u), VertexId(v));
                assert!(a >= p - 1e-9, "ALT bound must never be looser");
                if a > p + 1e-9 {
                    tightened += 1;
                }
            }
        }
        assert!(tightened > 0, "ALT should tighten at least some pairs");
    }

    #[test]
    fn distances_from_matches_point_queries() {
        let o = oracle();
        let source = VertexId(7);
        let targets: Vec<VertexId> = (0..25).map(VertexId).collect();
        let batch = o.distances_from(source, &targets);
        let reference = lattice_oracle(false);
        for (t, d) in targets.iter().zip(&batch) {
            assert_eq!(*d, reference.distance(source, *t), "target {t}");
        }
        // One batched search, not 24 point-to-point searches.
        assert_eq!(o.exact_computations(), 1);
        // Second call is fully cached.
        let again = o.distances_from(source, &targets);
        assert_eq!(batch, again);
        assert_eq!(o.exact_computations(), 1);
    }

    #[test]
    fn identity_distance_is_zero_and_free() {
        let o = oracle();
        assert_eq!(o.distance(VertexId(3), VertexId(3)), 0.0);
        assert_eq!(o.exact_computations(), 0);
    }

    #[test]
    fn clear_resets_cache_and_counters() {
        let o = oracle();
        let _ = o.distance(VertexId(0), VertexId(5));
        assert!(o.cache_len() > 0);
        o.clear();
        assert_eq!(o.cache_len(), 0);
        assert_eq!(o.exact_computations(), 0);
        assert_eq!(o.cache_hits(), 0);
        assert_eq!(o.lower_bound_queries(), 0);
    }

    #[test]
    fn eviction_bounds_the_cache() {
        // One entry per shard; 600 distinct pairs overflow immediately.
        let capacity = num_cache_shards();
        let o = lattice_oracle(false).with_cache_capacity(capacity);
        assert_eq!(o.cache_capacity(), capacity);
        for u in 0..25u32 {
            for v in 0..25u32 {
                if u != v {
                    let _ = o.distance(VertexId(u), VertexId(v));
                }
            }
        }
        assert!(
            o.cache_len() <= capacity,
            "cache grew past its capacity: {}",
            o.cache_len()
        );
        assert!(o.evictions() > 0);
        // Evicted entries are recomputed correctly.
        assert_eq!(o.distance(VertexId(0), VertexId(24)), 800.0);
    }

    #[test]
    fn referenced_entries_survive_a_sweep() {
        // Two entries per shard. Three canonical pairs (u < v on an
        // undirected network) that all hash into shard 0, so the occupancy
        // is fully controlled: after `hot` is touched and `cold` sits
        // untouched, the insert of `third` must sweep the shard — evicting
        // `cold` (bit clear) and sparing `hot` (second chance).
        let o = lattice_oracle(false).with_cache_capacity(2 * num_cache_shards());
        let mut colliding = Vec::new();
        'outer: for u in 0..25u32 {
            for v in (u + 1)..25u32 {
                let (u, v) = (VertexId(u), VertexId(v));
                if shard_of(u, v) == 0 {
                    colliding.push((u, v));
                    if colliding.len() == 3 {
                        break 'outer;
                    }
                }
            }
        }
        let &[hot, cold, third] = colliding.as_slice() else {
            panic!("lattice must yield three shard-0 pairs");
        };
        let _ = o.distance(hot.0, hot.1);
        let _ = o.distance(hot.0, hot.1); // hit: sets the referenced bit
        assert_eq!(o.cache_hits(), 1);
        let _ = o.distance(cold.0, cold.1); // second entry, bit clear
        let _ = o.distance(third.0, third.1); // shard full -> sweep
        assert_eq!(o.evictions(), 1, "exactly the cold entry is evicted");
        // The referenced hot pair survived the sweep ...
        let hits_before = o.cache_hits();
        let _ = o.distance(hot.0, hot.1);
        assert_eq!(o.cache_hits(), hits_before + 1, "hot entry must survive");
        // ... while the unreferenced cold pair was evicted and recomputes.
        let exact_before = o.exact_computations();
        let _ = o.distance(cold.0, cold.1);
        assert_eq!(o.exact_computations(), exact_before + 1, "cold evicted");
    }

    #[test]
    fn traffic_epoch_invalidates_cached_distances_lazily() {
        let o = oracle();
        let (u, v) = (VertexId(0), VertexId(24));
        assert_eq!(o.traffic_epoch(), 0);
        let base = o.distance(u, v);
        assert_eq!(base, 800.0);
        assert_eq!(o.exact_computations(), 1);
        assert!(o.cache_len() > 0, "the base answer is cached");

        // Congest everything 2x: the cached entry must become invisible
        // without a clear, and the fresh answer reflects the new metric.
        let model = TrafficModel::uniform(o.network(), 2.0);
        let applied = o.apply_traffic(&model);
        assert_eq!(applied.epoch, 1);
        assert_eq!(o.traffic_epoch(), 1);
        assert_eq!(o.distance(u, v), 1600.0);
        assert_eq!(o.exact_computations(), 2, "stale entry must not hit");

        // Back to free flow: values return to the base bits and the base
        // network `Arc` is reinstated.
        let applied = o.apply_traffic(&TrafficModel::free_flow(o.network()));
        assert_eq!(applied.epoch, 2);
        assert!(Arc::ptr_eq(&o.metric_network(), &o.network_arc()));
        assert_eq!(o.distance(u, v).to_bits(), base.to_bits());
    }

    #[test]
    fn traffic_batches_and_bounds_stay_consistent() {
        let o = lattice_oracle(true);
        let mut model = TrafficModel::free_flow(o.network());
        // Congest a horizontal corridor strongly enough to reroute paths,
        // but keep it symmetric so the metric stays undirected.
        for u in 0..4u32 {
            model.set_segment_factor(o.network(), VertexId(u), VertexId(u + 1), 5.0);
        }
        o.apply_traffic(&model);
        let metric = o.metric_network();
        let targets: Vec<VertexId> = (0..25).map(VertexId).collect();
        for source in [VertexId(0), VertexId(7), VertexId(24)] {
            for t in &targets {
                let exact = crate::dijkstra::distance(&metric, source, *t).unwrap_or(f64::INFINITY);
                // Bound first: a cached pair would return its exact value.
                let lb = o.lower_bound(source, *t);
                assert!(
                    lb <= exact + 1e-9,
                    "lb {lb} > exact {exact} ({source}->{t})"
                );
            }
            let batch = o.distances_from(source, &targets);
            for (t, d) in targets.iter().zip(&batch) {
                let exact = crate::dijkstra::distance(&metric, source, *t).unwrap_or(f64::INFINITY);
                assert_eq!(d.to_bits(), exact.to_bits(), "{source}->{t}");
            }
        }
    }

    /// A 6×6 lattice with irregular weights, so fold order shows in the
    /// last bit and shortest paths are unique.
    fn jittered_oracle() -> DistanceOracle {
        let side = 6usize;
        let mut b = RoadNetworkBuilder::new();
        let ids: Vec<_> = (0..side * side)
            .map(|i| b.add_vertex((i % side) as f64 * 100.0, (i / side) as f64 * 100.0))
            .collect();
        let weight = |i: usize| 100.0 + ((i * 7919) % 97) as f64 * 0.37 + 0.013;
        for y in 0..side {
            for x in 0..side {
                let i = y * side + x;
                if x + 1 < side {
                    b.add_bidirectional_edge(ids[i], ids[i + 1], weight(2 * i));
                }
                if y + 1 < side {
                    b.add_bidirectional_edge(ids[i], ids[i + side], weight(2 * i + 1));
                }
            }
        }
        let net = Arc::new(b.build().unwrap());
        let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(2, 2)));
        DistanceOracle::new(net, grid)
    }

    fn rooted(root: u32) -> OneToMany {
        let mut search = OneToMany::default();
        search.reset(VertexId(root));
        search
    }

    #[test]
    fn settle_from_answers_bit_equal_to_point_queries() {
        let o = jittered_oracle();
        let reference = jittered_oracle();
        let root = 14u32;
        let targets: Vec<VertexId> = (0..36).map(VertexId).collect();
        let mut search = rooted(root);
        o.settle_from(&mut search, &targets);
        assert_eq!(o.exact_computations(), 1, "one search for the batch");
        for &t in &targets {
            let planned = o.distance(VertexId(root), t);
            let point = reference.distance(VertexId(root), t);
            assert_eq!(planned.to_bits(), point.to_bits(), "{root} -> {t}");
            // The mirrored direction is the same canonical entry.
            assert_eq!(o.distance(t, VertexId(root)).to_bits(), point.to_bits());
        }
        assert_eq!(o.exact_computations(), 1, "every answer was cached");
    }

    #[test]
    fn settle_from_resumes_instead_of_restarting() {
        let o = jittered_oracle();
        let mut search = rooted(0);
        o.settle_from(&mut search, &[VertexId(1), VertexId(6)]);
        let first = search.settled();
        assert!(first > 0);
        o.settle_from(&mut search, &[VertexId(35)]);
        // An uninterrupted search for the far target alone pops exactly the
        // same vertices: nothing was settled twice.
        let fresh = jittered_oracle();
        let mut one_shot = rooted(0);
        fresh.settle_from(&mut one_shot, &[VertexId(35)]);
        assert_eq!(search.settled(), one_shot.settled());
        assert!(search.settled() > first);
        assert_eq!(o.exact_computations(), 1, "one search across both calls");
        assert_eq!(
            o.distance(VertexId(0), VertexId(35)).to_bits(),
            fresh.distance(VertexId(0), VertexId(35)).to_bits()
        );
    }

    #[test]
    fn settle_from_runs_no_search_for_cached_targets() {
        let o = jittered_oracle();
        let targets = [VertexId(3), VertexId(20), VertexId(31)];
        for &t in &targets {
            let _ = o.distance(VertexId(9), t);
        }
        let exact = o.exact_computations();
        let mut search = rooted(9);
        o.settle_from(&mut search, &targets);
        o.settle_from(&mut search, &targets);
        assert_eq!(o.exact_computations(), exact);
        assert!(!search.started());
        assert_eq!(search.settled(), 0);
    }

    #[test]
    fn settle_from_stamps_the_epoch_it_ran_under() {
        let o = jittered_oracle();
        let (root, t) = (VertexId(7), VertexId(28));
        let mut search = rooted(root.0);
        o.settle_from(&mut search, &[t]);
        let free = o.distance(root, t);
        assert_eq!(o.exact_computations(), 1, "epoch-0 answer is a hit");

        o.apply_traffic(&TrafficModel::uniform(o.network(), 2.0));
        search.reset(root);
        o.settle_from(&mut search, &[t]);
        assert_eq!(o.exact_computations(), 2, "the epoch-0 entry is stale");
        let congested = o.distance(root, t);
        assert_eq!(o.exact_computations(), 2, "stamped with epoch 1: a hit");
        let metric = o.metric_network();
        let exact = dijkstra::distance(&metric, root, t).unwrap();
        assert_eq!(congested.to_bits(), exact.to_bits());
        assert!(congested > free);
    }

    #[test]
    fn settle_from_is_a_no_op_on_directed_metrics() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(50.0, 100.0);
        b.add_directed_edge(v0, v1, 10.0);
        b.add_bidirectional_edge(v0, v2, 300.0);
        b.add_bidirectional_edge(v2, v1, 300.0);
        let net = Arc::new(b.build().unwrap());
        let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(2, 2)));
        let o = DistanceOracle::new(net, grid);
        assert!(!o.is_metric_undirected());
        let mut search = rooted(v1.0);
        o.settle_from(&mut search, &[v0, v2]);
        assert!(!search.started());
        assert_eq!(o.exact_computations(), 0);
        assert_eq!(o.cache_len(), 0);
        // Point queries still answer the reverse direction correctly.
        assert_eq!(o.distance(v1, v0), 600.0);
    }

    #[test]
    fn clones_share_cache() {
        let o = oracle();
        let o2 = o.clone();
        let _ = o.distance(VertexId(0), VertexId(10));
        let _ = o2.distance(VertexId(0), VertexId(10));
        assert_eq!(o.exact_computations(), 1);
        assert_eq!(o2.cache_hits(), 1);
    }

    #[test]
    fn concurrent_queries_agree_with_sequential() {
        let o = lattice_oracle(true);
        let mut expected = Vec::new();
        let reference = lattice_oracle(false);
        for u in 0..25u32 {
            expected.push(reference.distance(VertexId(u), VertexId(24 - u)));
        }
        let ids: Vec<u32> = (0..25).collect();
        std::thread::scope(|scope| {
            for chunk in ids.chunks(5) {
                let o = o.clone();
                scope.spawn(move || {
                    for &u in chunk {
                        let _ = o.distance(VertexId(u), VertexId(24 - u));
                    }
                });
            }
        });
        for u in 0..25u32 {
            assert_eq!(
                o.distance(VertexId(u), VertexId(24 - u)),
                expected[u as usize]
            );
        }
    }
}
