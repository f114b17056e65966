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
//! * **Swappable exact backends** — the exact computation behind a miss is
//!   selected by [`DistanceBackend`]: the ALT A* above, or a contraction
//!   hierarchy ([`crate::ch`]) whose bidirectional upward queries are
//!   microsecond-scale on city graphs. The oracle surface (`distance` /
//!   `distances_from` / `lower_bound`) is identical for both, so matchers
//!   never see which backend answered. CH construction is fallible; when it
//!   fails the oracle silently falls back to ALT instead of panicking.
//! * **Batched one-to-many** — [`DistanceOracle::distances_from`] answers
//!   `k` same-source queries with a single bounded multi-target Dijkstra
//!   (ALT backend) or a many-to-many bucket query (CH backend) instead of
//!   `k` point-to-point searches.
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
//!   paths and re-fold to different bits — the same tie class the CH
//!   backend's bit-equality with Dijkstra already rests on; exact-weight
//!   grids fold identically on every tie path, and with jittered
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
//!   of factors ≥ 1.0), repairs the CH backend with a customization pass
//!   ([`crate::ch::CchTopology`], falling back to ALT when the graph
//!   cannot be repaired) and bumps the **metric epoch**. Cache entries are
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
use crate::ch::query::Bounded;
use crate::ch::{CchTopology, ContractionHierarchy};
use crate::dijkstra;
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

/// Settle budget of the CH-derived lower bound (both directions combined).
/// Big enough that near pairs — the ones the matchers actually admit —
/// resolve exactly and seed the cache; small enough that a truncated probe
/// stays within a few microseconds regardless of graph size.
const LOWER_BOUND_SETTLE_CAP: usize = 48;

/// Which exact shortest-path backend a [`DistanceOracle`] uses on a cache
/// miss.
///
/// Both backends return identical (exact) distances; they differ in
/// preprocessing cost and per-query latency, so the right choice depends on
/// the deployment — see DESIGN.md "Distance backends".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistanceBackend {
    /// ALT: A* with `max(euclidean, grid, landmark)` heuristics. No
    /// preprocessing beyond the landmark tables; queries settle `O(ball)`
    /// vertices. Best for small graphs, frequently-changing weights, or
    /// when engine start-up latency matters.
    #[default]
    Alt,
    /// Contraction hierarchy: heavier one-off preprocessing, then
    /// microsecond point queries and bucket-based batched queries. Best for
    /// large static city graphs under sustained match load. Falls back to
    /// [`DistanceBackend::Alt`] when construction fails (see
    /// [`crate::ChBuildError`]).
    Ch,
}

impl std::fmt::Display for DistanceBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistanceBackend::Alt => write!(f, "alt"),
            DistanceBackend::Ch => write!(f, "ch"),
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

/// The swappable exact-query substrate: which network weights and which
/// (possibly repaired) hierarchy answer cache misses right now. Guarded by
/// one `RwLock` — exact computations hold a read guard for their duration,
/// [`DistanceOracle::apply_traffic`] takes the write guard to swap.
struct MetricState {
    /// The network exact queries run on: the base network at epoch 0, a
    /// [`RoadNetwork::with_metric`] re-weighting afterwards.
    net: Arc<RoadNetwork>,
    /// The hierarchy answering CH-backend queries under this metric
    /// (`None` on the ALT backend, or after a repair fallback).
    ch: Option<Arc<ContractionHierarchy>>,
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
    /// `true` when the CH backend was repaired by a customization pass;
    /// `false` on the ALT backend, after a repair fallback — or when a
    /// fully free-flow model reinstated the retained build-time hierarchy
    /// instead (no pass needed; the witness-pruned hierarchy is both exact
    /// and faster than any customized one).
    pub ch_repaired: bool,
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
    /// The build-time (witness-pruned) hierarchy over the base metric,
    /// retained so a fully free-flow traffic model can reinstate it — it
    /// answers queries ~an order of magnitude faster than the repair
    /// topology's customized hierarchy.
    base_ch: Option<Arc<ContractionHierarchy>>,
    /// The backend the caller asked for (repair decisions key off this).
    requested_backend: DistanceBackend,
    /// The metric exact queries currently run on (epoch-swapped).
    metric: Arc<RwLock<MetricState>>,
    /// Lock-free mirror of the metric epoch for cache staleness checks.
    epoch: Arc<AtomicU64>,
    /// Lock-free mirror of the current metric's undirectedness for
    /// canonical cache folding.
    metric_undirected: Arc<AtomicBool>,
    /// Lazily-built CH repair topology (`None` inside = repair impossible,
    /// reason recorded in `fallback`).
    cch: Arc<OnceLock<Option<Arc<CchTopology>>>>,
    /// Why the oracle is not running the backend it was asked for (CH
    /// construction failure at build time, or repair-topology failure at
    /// the first traffic epoch). `None` while requested == effective.
    fallback: Arc<RwLock<Option<String>>>,
    cache: Arc<Vec<Shard>>,
    /// Per-shard entry cap for clock eviction; `usize::MAX` disables it.
    shard_capacity: usize,
    exact_computations: Arc<AtomicU64>,
    cache_hits: Arc<AtomicU64>,
    lower_bound_queries: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
    /// Traffic epochs applied (equals the current metric epoch).
    traffic_epochs: Arc<AtomicU64>,
    /// CH customization passes run by [`Self::apply_traffic`].
    ch_customizations: Arc<AtomicU64>,
}

impl DistanceOracle {
    /// Creates an oracle over a network and its grid index (no landmark
    /// acceleration; see [`Self::with_landmarks`]).
    pub fn new(net: Arc<RoadNetwork>, grid: Arc<GridIndex>) -> Self {
        let undirected = net.is_undirected();
        DistanceOracle {
            metric: Arc::new(RwLock::new(MetricState {
                net: Arc::clone(&net),
                ch: None,
                epoch: 0,
                undirected,
            })),
            net,
            grid,
            landmarks: None,
            base_ch: None,
            requested_backend: DistanceBackend::Alt,
            epoch: Arc::new(AtomicU64::new(0)),
            metric_undirected: Arc::new(AtomicBool::new(undirected)),
            cch: Arc::new(OnceLock::new()),
            fallback: Arc::new(RwLock::new(None)),
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
            traffic_epochs: Arc::new(AtomicU64::new(0)),
            ch_customizations: Arc::new(AtomicU64::new(0)),
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

    /// Creates an oracle with an explicit exact backend. Landmarks remain
    /// optional and, when present, tighten [`Self::lower_bound`] regardless
    /// of the backend.
    ///
    /// Requesting [`DistanceBackend::Ch`] builds the hierarchy here; if
    /// construction fails (see [`crate::ChBuildError`]) the oracle **falls
    /// back to ALT** instead of panicking — [`Self::backend`] reports what
    /// is actually in use.
    pub fn with_backend(
        net: Arc<RoadNetwork>,
        grid: Arc<GridIndex>,
        landmarks: Option<Arc<LandmarkIndex>>,
        backend: DistanceBackend,
    ) -> Self {
        let mut oracle = Self::new(net, grid);
        oracle.landmarks = landmarks;
        oracle.requested_backend = backend;
        if backend == DistanceBackend::Ch {
            // Chaos hook: a fired fault point simulates the first build
            // attempt failing transiently; the build below is the single
            // retry (the schedule never fails two consecutive hits).
            let _ = crate::fault::fail_point(crate::fault::ORACLE_BUILD);
            match ContractionHierarchy::build(&oracle.net) {
                Ok(ch) => {
                    let ch = Arc::new(ch);
                    oracle.base_ch = Some(Arc::clone(&ch));
                    oracle.metric.write().ch = Some(ch);
                }
                Err(e) => {
                    // Unsupported input for contraction (e.g. shortcut
                    // blow-up): stay exact via the ALT backend, and leave
                    // an observable trace instead of failing silently —
                    // see `backend_fallback`.
                    *oracle.fallback.write() =
                        Some(format!("ch construction failed, serving via alt: {e}"));
                }
            }
        }
        oracle
    }

    /// Creates an oracle over a pre-built, shared contraction hierarchy —
    /// the cheap path for many-engines-one-city harnesses, which build the
    /// hierarchy once and hand every engine the same `Arc`.
    pub fn with_contraction_hierarchy(
        net: Arc<RoadNetwork>,
        grid: Arc<GridIndex>,
        landmarks: Option<Arc<LandmarkIndex>>,
        ch: Arc<ContractionHierarchy>,
    ) -> Self {
        let mut oracle = Self::new(net, grid);
        oracle.landmarks = landmarks;
        oracle.requested_backend = DistanceBackend::Ch;
        oracle.base_ch = Some(Arc::clone(&ch));
        oracle.metric.write().ch = Some(ch);
        oracle
    }

    /// Pre-seeds the CH repair topology (builder style, before sharing) —
    /// the many-engines-one-city path for live traffic, mirroring
    /// [`Self::with_contraction_hierarchy`]: build the topology once
    /// (~seconds at city scale) and hand every oracle the same `Arc`
    /// instead of paying the lazy build on each oracle's first epoch.
    pub fn with_repair_topology(self, topology: Arc<crate::ch::CchTopology>) -> Self {
        let _ = self.cch.set(Some(topology));
        self
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

    /// The exact backend actually answering cache misses right now (may
    /// differ from [`Self::requested_backend`] after a CH-construction
    /// fallback, or after a traffic epoch the hierarchy could not be
    /// repaired for — see [`Self::backend_fallback`] for why).
    pub fn backend(&self) -> DistanceBackend {
        if self.metric.read().ch.is_some() {
            DistanceBackend::Ch
        } else {
            DistanceBackend::Alt
        }
    }

    /// The backend this oracle was asked to run.
    pub fn requested_backend(&self) -> DistanceBackend {
        self.requested_backend
    }

    /// Why the effective backend differs from the requested one (`None`
    /// while they agree): CH construction failure at build time, or a
    /// repair-topology failure at the first traffic epoch. The perf report
    /// surfaces this so a silent ALT fallback is visible in CI artifacts.
    pub fn backend_fallback(&self) -> Option<String> {
        self.fallback.read().clone()
    }

    /// The hierarchy currently answering CH-backend queries (the build-time
    /// hierarchy at epoch 0, a customized one after a traffic epoch), if
    /// this oracle runs the CH backend.
    pub fn contraction_hierarchy(&self) -> Option<Arc<ContractionHierarchy>> {
        self.metric.read().ch.clone()
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

    /// CH customization passes run so far by [`Self::apply_traffic`].
    pub fn ch_customizations(&self) -> u64 {
        self.ch_customizations.load(Ordering::Relaxed)
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
            // referenced so the next eviction sweep spares it.
            slot.referenced.store(true, Ordering::Relaxed);
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
        match &m.ch {
            Some(ch) => ch.distance(u, v),
            None => astar::distance_with_landmarks(
                &m.net,
                u,
                v,
                Some(&self.grid),
                self.landmarks.as_deref(),
            )
            .unwrap_or(f64::INFINITY),
        }
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
            // For a few scattered misses, point queries (goal-directed ALT
            // search or a CH upward query) beat a batch whose cost is
            // dominated by setup.
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
                let undirected = m.undirected;
                let ds: Vec<f64> = match &m.ch {
                    // CH many-to-many bucket query: k backward upward
                    // searches plus one forward — independent of the
                    // geometric spread of the targets. On undirected
                    // networks, targets below the source (whose canonical
                    // fold runs the other way) are answered by canonical-
                    // direction point queries instead; CH point queries are
                    // microsecond-scale, so the batch still wins.
                    Some(ch) => {
                        if undirected {
                            let fwd: Vec<VertexId> =
                                missing.iter().copied().filter(|&t| source < t).collect();
                            let mut fwd_ds = ch.distances_from(source, &fwd).into_iter();
                            missing
                                .iter()
                                .map(|&t| {
                                    if source < t {
                                        fwd_ds.next().expect("one batch answer per fwd target")
                                    } else {
                                        ch.distance(t, source)
                                    }
                                })
                                .collect()
                        } else {
                            ch.distances_from(source, &missing)
                        }
                    }
                    // ALT: one bounded multi-target Dijkstra ball on the
                    // metric network, folded in canonical direction on
                    // undirected metrics.
                    None => {
                        if undirected {
                            dijkstra::multi_target_canonical(&m.net, source, &missing)
                        } else {
                            dijkstra::multi_target(&m.net, source, &missing)
                        }
                    }
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

    /// Applies a traffic model: swaps in the scaled metric network, repairs
    /// the CH backend (customization pass over the repair topology — built
    /// lazily on the first epoch — with an ALT fallback when the graph
    /// cannot be repaired), and bumps the metric epoch, which lazily
    /// invalidates every cache shard without a stop-the-world clear.
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
        // base `Arc` and the retained build-time hierarchy (which answers
        // queries ~an order of magnitude faster than a customized one)
        // instead of re-deriving both. The epoch still bumps — cached
        // entries hold previous-epoch traffic values.
        let free_flow = model.congested_arcs() == 0;
        // One shared weight vector per congested epoch: the metric network
        // and the customized hierarchy fold the very same products, which
        // is what makes unpacked CH sums bit-identical to Dijkstra.
        let scaled = (!free_flow).then(|| model.scaled_weights(&self.net));
        let metric_net = match &scaled {
            None => {
                debug_assert_eq!(model.num_arcs(), self.net.num_directed_edges());
                Arc::clone(&self.net)
            }
            Some(scaled) => Arc::new(
                self.net
                    .with_metric(scaled.clone())
                    .expect("scaled weights are finite, non-negative and length-checked"),
            ),
        };
        let mut ch_repaired = false;
        let new_ch = if self.requested_backend != DistanceBackend::Ch {
            None
        } else if free_flow && self.base_ch.is_some() {
            self.base_ch.clone()
        } else {
            self.repair_topology().map(|topo| {
                // Chaos hook: a fired fault point simulates a transiently
                // failed customization pass; the pass below is the retry.
                let _ = crate::fault::fail_point(crate::fault::CCH_CUSTOMIZE);
                let weights = match &scaled {
                    Some(scaled) => topo.customize(scaled),
                    // Free flow without a retained build-time hierarchy
                    // (construction failed but repair works): customize on
                    // the base weights.
                    None => topo.customize(&model.scaled_weights(&self.net)),
                };
                self.ch_customizations.fetch_add(1, Ordering::Relaxed);
                ch_repaired = true;
                Arc::new(weights)
            })
        };
        if new_ch.is_some() {
            // The effective backend matches the requested one again; any
            // fallback reason recorded earlier no longer describes the
            // oracle's state.
            *self.fallback.write() = None;
        }
        let undirected = metric_net.is_undirected();
        let epoch = {
            let mut state = self.metric.write();
            state.net = metric_net;
            state.ch = new_ch;
            state.epoch += 1;
            state.undirected = undirected;
            // The lock-free mirrors are refreshed while the write guard is
            // still held, so no reader can observe the new epoch with the
            // old symmetry flag or vice versa once the swap completes.
            self.metric_undirected.store(undirected, Ordering::Relaxed);
            self.epoch.store(state.epoch, Ordering::Relaxed);
            state.epoch
        };
        self.traffic_epochs.fetch_add(1, Ordering::Relaxed);
        TrafficApplied {
            epoch,
            ch_repaired,
            congested_arcs: model.congested_arcs(),
            max_factor: model.max_factor(),
        }
    }

    /// The lazily-built CH repair topology, or `None` (with the reason
    /// recorded for [`Self::backend_fallback`]) when repair is impossible —
    /// i.e. witness-free min-degree contraction would blow the shortcut
    /// budget. Independent of the witness hierarchy: the topology carries
    /// its own fill-in-reducing order, so even an oracle whose build-time
    /// CH construction failed can serve traffic epochs on a repaired
    /// hierarchy when the graph admits one.
    fn repair_topology(&self) -> Option<&Arc<CchTopology>> {
        self.cch
            .get_or_init(|| match CchTopology::build(&self.net) {
                Ok(topo) => Some(Arc::new(topo)),
                Err(e) => {
                    *self.fallback.write() = Some(format!(
                        "ch repair topology failed, traffic epochs served via alt: {e}"
                    ));
                    None
                }
            })
            .as_ref()
    }

    /// Cheap lower bound on the shortest-path distance (never exceeds
    /// [`Self::distance`]). Takes the maximum of the grid bound, the
    /// Euclidean bound and — when available — the ALT landmark bound, or
    /// returns the cached exact value outright.
    ///
    /// On the CH backend a settle-capped upward query
    /// ([`ContractionHierarchy::bounded_distance`]) joins the maximum:
    /// pairs whose upward search spaces fit under the cap are answered
    /// **exactly** (and seed the cache, so a later [`Self::distance`] on
    /// the pair is a hit), and truncated searches contribute an admissible
    /// bound computed on the *current traffic metric* — tighter than the
    /// base-metric grid/landmark bounds wherever congestion has grown the
    /// true distance.
    pub fn lower_bound(&self, u: VertexId, v: VertexId) -> f64 {
        self.lower_bound_queries.fetch_add(1, Ordering::Relaxed);
        if u == v {
            return 0.0;
        }
        if let Some(d) = self.cached(u, v) {
            return d;
        }
        let mut lb = 0.0f64;
        if self.requested_backend == DistanceBackend::Ch {
            if let Some((bounded, epoch)) = self.ch_bounded_canonical(u, v) {
                match bounded {
                    Bounded::Exact(d) => {
                        self.store(u, v, d, epoch);
                        return d;
                    }
                    Bounded::AtLeast(b) => lb = b,
                }
            }
        }
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
        lb
    }

    /// Runs the settle-capped CH query for [`Self::lower_bound`] in
    /// canonical fold direction (so an exact answer is cache-storable),
    /// returning it with the epoch to stamp. `None` off the CH backend or
    /// while the hierarchy is unavailable (construction/repair fallback).
    #[inline]
    fn ch_bounded_canonical(&self, u: VertexId, v: VertexId) -> Option<(Bounded, u64)> {
        let m = self.metric.read();
        let ch = m.ch.as_ref()?;
        // On undirected metrics the value for (v, u) equals (u, v), so
        // querying the canonical direction loses nothing.
        let (a, b) = if v < u && m.undirected {
            (v, u)
        } else {
            (u, v)
        };
        Some((ch.bounded_distance(a, b, LOWER_BOUND_SETTLE_CAP), m.epoch))
    }

    /// Lower bound from a vertex to the closest vertex of a grid cell.
    /// Degrades to 0 on directed networks (the grid tables are forward-only
    /// and would not be admissible there).
    pub fn lower_bound_to_cell(&self, u: VertexId, cell: crate::grid::CellId) -> f64 {
        self.lower_bound_queries.fetch_add(1, Ordering::Relaxed);
        if !self.net.is_undirected() {
            return 0.0;
        }
        self.grid.lower_bound_to_cell(u, cell)
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

    fn lattice_oracle_with_backend(backend: DistanceBackend) -> DistanceOracle {
        let base = lattice_oracle(false);
        DistanceOracle::with_backend(base.network_arc(), base.grid_arc(), None, backend)
    }

    #[test]
    fn ch_backend_matches_alt_backend() {
        let alt = lattice_oracle_with_backend(DistanceBackend::Alt);
        let ch = lattice_oracle_with_backend(DistanceBackend::Ch);
        assert_eq!(alt.backend(), DistanceBackend::Alt);
        assert_eq!(ch.backend(), DistanceBackend::Ch);
        assert!(ch.contraction_hierarchy().is_some());
        for u in 0..25u32 {
            for v in 0..25u32 {
                let a = alt.distance(VertexId(u), VertexId(v));
                let c = ch.distance(VertexId(u), VertexId(v));
                assert!((a - c).abs() < 1e-6, "{u}->{v}: alt {a} vs ch {c}");
            }
        }
    }

    #[test]
    fn ch_backend_batches_through_buckets() {
        let ch = lattice_oracle_with_backend(DistanceBackend::Ch);
        let reference = lattice_oracle(false);
        let source = VertexId(3);
        let targets: Vec<VertexId> = (0..25).map(VertexId).collect();
        let batch = ch.distances_from(source, &targets);
        for (t, d) in targets.iter().zip(&batch) {
            assert_eq!(*d, reference.distance(source, *t), "target {t}");
        }
        // The whole batch is one exact computation, like the ALT path.
        assert_eq!(ch.exact_computations(), 1);
    }

    #[test]
    fn ch_backend_is_exact_on_directed_networks() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(50.0, 100.0);
        b.add_directed_edge(v0, v1, 10.0);
        b.add_bidirectional_edge(v0, v2, 300.0);
        b.add_bidirectional_edge(v2, v1, 300.0);
        let net = Arc::new(b.build().unwrap());
        let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(2, 2)));
        let o = DistanceOracle::with_backend(net, grid, None, DistanceBackend::Ch);
        assert_eq!(o.backend(), DistanceBackend::Ch);
        assert_eq!(o.distance(v0, v1), 10.0);
        assert_eq!(o.distance(v1, v0), 600.0);
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
        for backend in [DistanceBackend::Alt, DistanceBackend::Ch] {
            let o = lattice_oracle_with_backend(backend);
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
            assert_eq!(applied.ch_repaired, backend == DistanceBackend::Ch);
            assert_eq!(o.backend(), backend, "backend survives the epoch");
            let congested = o.distance(u, v);
            assert_eq!(congested, 1600.0, "backend {backend}");
            assert_eq!(o.exact_computations(), 2, "stale entry must not hit");

            // Back to free flow: values return to the base bits, the base
            // network `Arc` is reinstated, and on the CH backend the
            // retained build-time hierarchy comes back without another
            // customization pass.
            let applied = o.apply_traffic(&TrafficModel::free_flow(o.network()));
            assert_eq!(applied.epoch, 2);
            assert!(!applied.ch_repaired, "free flow reinstates, not repairs");
            assert!(Arc::ptr_eq(&o.metric_network(), &o.network_arc()));
            assert_eq!(o.distance(u, v).to_bits(), base.to_bits());
            assert_eq!(o.backend(), backend);
            if backend == DistanceBackend::Ch {
                assert_eq!(o.ch_customizations(), 1, "only the congested epoch");
                assert!(o.backend_fallback().is_none());
            }
        }
    }

    #[test]
    fn traffic_batches_and_bounds_stay_consistent() {
        let o = lattice_oracle_with_backend(DistanceBackend::Ch);
        let mut model = TrafficModel::free_flow(o.network());
        // Congest a horizontal corridor asymmetrically strong enough to
        // reroute paths, but keep it symmetric so the metric stays
        // undirected.
        for u in 0..4u32 {
            model.set_segment_factor(o.network(), VertexId(u), VertexId(u + 1), 5.0);
        }
        o.apply_traffic(&model);
        let metric = o.metric_network();
        let targets: Vec<VertexId> = (0..25).map(VertexId).collect();
        for source in [VertexId(0), VertexId(7), VertexId(24)] {
            let batch = o.distances_from(source, &targets);
            for (t, d) in targets.iter().zip(&batch) {
                let exact = crate::dijkstra::distance(&metric, source, *t).unwrap_or(f64::INFINITY);
                assert_eq!(d.to_bits(), exact.to_bits(), "{source}->{t}");
                let lb = o.lower_bound(source, *t);
                assert!(
                    lb <= exact + 1e-9,
                    "lb {lb} > exact {exact} ({source}->{t})"
                );
            }
        }
    }

    #[test]
    fn alt_requested_oracle_reports_no_fallback() {
        let o = lattice_oracle_with_backend(DistanceBackend::Alt);
        assert_eq!(o.requested_backend(), DistanceBackend::Alt);
        assert_eq!(o.backend(), DistanceBackend::Alt);
        assert!(o.backend_fallback().is_none());
        // Traffic on the ALT backend never claims a repair.
        let applied = o.apply_traffic(&TrafficModel::uniform(o.network(), 1.5));
        assert!(!applied.ch_repaired);
        assert_eq!(o.ch_customizations(), 0);
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
