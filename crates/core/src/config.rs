//! Global engine configuration.
//!
//! The demo's website interface (Section 4.2) lets the administrator set the
//! taxi capacity, the number of taxis, the maximal waiting time, the service
//! constraint and the price calculator, and select the matching algorithm.
//! [`EngineConfig`] captures exactly those global settings. Per-request
//! overrides of `w` and `δ` are possible through
//! [`crate::Request`], matching Definition 1.

use crate::price::PriceModel;
use ptrider_roadnet::{DistanceBackend, Speed};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The distance backend [`EngineConfig::default`] starts from, honouring
/// the `PTRIDER_DISTANCE_BACKEND` environment variable (read once per
/// process, mirroring `PTRIDER_POOL_SIZE`): `alt` or `ch` select that
/// backend for every engine built with default configuration; `auto`,
/// unset or unparsable mean the library default (ALT). An explicit
/// [`EngineConfig::with_distance_backend`] always wins over the
/// environment — the variable only moves the *default*, which is what lets
/// a CI matrix run the whole tier-1 suite once per backend without
/// touching any test.
pub fn default_distance_backend() -> DistanceBackend {
    static ENV: OnceLock<DistanceBackend> = OnceLock::new();
    *ENV.get_or_init(|| {
        match std::env::var("PTRIDER_DISTANCE_BACKEND")
            .as_deref()
            .map(str::trim)
        {
            Ok("ch") | Ok("CH") | Ok("Ch") => DistanceBackend::Ch,
            Ok("alt") | Ok("ALT") | Ok("Alt") => DistanceBackend::Alt,
            // `auto`, unset, or anything unparsable: the library default.
            _ => DistanceBackend::default(),
        }
    })
}

/// Global PTRider settings.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Taxi capacity (maximum riders on board at any time).
    pub capacity: u32,
    /// Global maximal waiting time `w` in seconds (time between the planned
    /// and the actual pickup).
    pub max_wait_secs: f64,
    /// Global service constraint `δ` (allowed detour factor: on-board
    /// distance is bounded by `(1 + δ) · dist(s, d)`).
    pub detour_factor: f64,
    /// Constant vehicle speed used to convert between distance and time.
    pub speed: Speed,
    /// Maximum planned pickup distance in metres. Options whose pickup
    /// distance exceeds this radius are not returned (and the grid expansion
    /// of the search algorithms stops there). Applied identically by every
    /// matcher so all matchers return the same option set.
    pub max_pickup_dist: f64,
    /// Number of ALT landmarks the engine precomputes for its distance
    /// oracle. Landmarks accelerate exact point-to-point queries (goal-
    /// directed A*) and tighten the P1–P5 pruning lower bounds; `0`
    /// disables them. Build cost is one single-source Dijkstra per
    /// landmark.
    pub num_landmarks: usize,
    /// Which exact shortest-path backend the engine's distance oracle uses
    /// on a cache miss: ALT A* ([`DistanceBackend::Alt`], the default) or a
    /// contraction hierarchy ([`DistanceBackend::Ch`], heavier start-up,
    /// microsecond queries). Both are exact, so the matchers return
    /// identical skylines either way; if CH construction fails the oracle
    /// falls back to ALT (observable via
    /// [`ptrider_roadnet::DistanceOracle::backend_fallback`]). The
    /// *default* honours the `PTRIDER_DISTANCE_BACKEND` environment
    /// variable (`auto`/`alt`/`ch`, see [`default_distance_backend`]); an
    /// explicit [`Self::with_distance_backend`] wins over the environment.
    pub distance_backend: DistanceBackend,
    /// Worker-pool size of the persistent matching runtime
    /// ([`crate::runtime::MatchRuntime`]), counting the caller's thread.
    /// `0` (the default) resolves automatically: the `PTRIDER_POOL_SIZE`
    /// environment variable if set, otherwise
    /// `std::thread::available_parallelism()`. An explicit size (≥ 1) wins
    /// over the environment; `1` disables worker threads entirely.
    pub pool_size: usize,
    /// Minimum candidate-batch size before verification is dispatched onto
    /// the worker pool; smaller batches run inline (dispatch costs more
    /// than a handful of kinetic-tree insertions).
    pub par_auto_min_batch: usize,
    /// Seed for the deterministic chaos harness: `Some(seed)` arms a
    /// transient-error [`ptrider_roadnet::fault::FaultPlan`] process-wide
    /// when the engine is built (injected CH-build / customization /
    /// journal-write failures, each absorbed by a single retry at the
    /// call site). `None` (the default) leaves fault injection to the
    /// `PTRIDER_CHAOS` environment variable, or off entirely.
    pub fault_seed: Option<u64>,
    /// The price calculator.
    pub price: PriceModel,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let speed = Speed::paper_default();
        EngineConfig {
            capacity: 4,
            max_wait_secs: 300.0,
            detour_factor: 0.2,
            speed,
            // 15 minutes of driving at the constant speed.
            max_pickup_dist: speed.seconds_to_distance(900.0),
            num_landmarks: 8,
            distance_backend: default_distance_backend(),
            pool_size: 0,
            par_auto_min_batch: 16,
            fault_seed: None,
            price: PriceModel::default(),
        }
    }
}

impl EngineConfig {
    /// Configuration matching the paper's demonstration defaults on a
    /// metre-scaled network: capacity 4, `w` = 5 min, `δ` = 0.2, 48 km/h,
    /// prices per kilometre.
    pub fn paper_defaults() -> Self {
        EngineConfig {
            price: PriceModel::per_kilometre(),
            ..Self::default()
        }
    }

    /// Sets the taxi capacity.
    pub fn with_capacity(mut self, capacity: u32) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the global maximal waiting time in seconds.
    pub fn with_max_wait_secs(mut self, secs: f64) -> Self {
        self.max_wait_secs = secs;
        self
    }

    /// Sets the global service constraint (detour factor).
    pub fn with_detour_factor(mut self, delta: f64) -> Self {
        self.detour_factor = delta;
        self
    }

    /// Sets the maximum planned pickup distance in metres.
    pub fn with_max_pickup_dist(mut self, metres: f64) -> Self {
        self.max_pickup_dist = metres;
        self
    }

    /// Sets the number of ALT landmarks (0 disables landmark acceleration).
    pub fn with_num_landmarks(mut self, k: usize) -> Self {
        self.num_landmarks = k;
        self
    }

    /// Selects the exact distance backend (ALT A* or contraction
    /// hierarchy). Purely a performance knob: every backend is exact, so
    /// matcher results are identical.
    pub fn with_distance_backend(mut self, backend: DistanceBackend) -> Self {
        self.distance_backend = backend;
        self
    }

    /// Sets the matching runtime's pool size (0 = auto; see
    /// [`Self::pool_size`]).
    pub fn with_pool_size(mut self, pool_size: usize) -> Self {
        self.pool_size = pool_size;
        self
    }

    /// Sets the minimum batch size at which verification goes parallel.
    pub fn with_par_auto_min_batch(mut self, min_batch: usize) -> Self {
        self.par_auto_min_batch = min_batch;
        self
    }

    /// Arms the deterministic chaos harness with the given seed when the
    /// engine is built (see [`Self::fault_seed`]).
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Sets the price model.
    pub fn with_price(mut self, price: PriceModel) -> Self {
        self.price = price;
        self
    }

    /// Sets the constant speed.
    pub fn with_speed(mut self, speed: Speed) -> Self {
        self.speed = speed;
        self
    }

    /// The maximal waiting time expressed as a driving distance in metres.
    pub fn max_wait_dist(&self) -> f64 {
        self.speed.seconds_to_distance(self.max_wait_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = EngineConfig::default();
        assert_eq!(c.capacity, 4);
        assert!((c.max_wait_secs - 300.0).abs() < 1e-9);
        assert!((c.detour_factor - 0.2).abs() < 1e-9);
        assert!((c.speed.kmh() - 48.0).abs() < 1e-9);
        // 15 min at 48 km/h = 12 km.
        assert!((c.max_pickup_dist - 12_000.0).abs() < 1e-6);
        // 5 min at 48 km/h = 4 km.
        assert!((c.max_wait_dist() - 4_000.0).abs() < 1e-6);
    }

    #[test]
    fn default_backend_honours_the_environment() {
        // Under `PTRIDER_DISTANCE_BACKEND` (the CI backend matrix) the
        // default moves with the environment; without it, it is ALT.
        assert_eq!(
            EngineConfig::default().distance_backend,
            default_distance_backend()
        );
        if std::env::var("PTRIDER_DISTANCE_BACKEND").is_err() {
            assert_eq!(default_distance_backend(), DistanceBackend::Alt);
        }
        // An explicit builder call always wins over the environment.
        let c = EngineConfig::default().with_distance_backend(DistanceBackend::Ch);
        assert_eq!(c.distance_backend, DistanceBackend::Ch);
        let c = EngineConfig::default().with_distance_backend(DistanceBackend::Alt);
        assert_eq!(c.distance_backend, DistanceBackend::Alt);
    }

    #[test]
    fn builder_methods_override_fields() {
        let c = EngineConfig::default()
            .with_capacity(2)
            .with_max_wait_secs(120.0)
            .with_detour_factor(0.5)
            .with_max_pickup_dist(5_000.0)
            .with_speed(Speed::from_kmh(36.0))
            .with_price(PriceModel::per_kilometre());
        assert_eq!(c.capacity, 2);
        assert_eq!(c.max_wait_secs, 120.0);
        assert_eq!(c.detour_factor, 0.5);
        assert_eq!(c.max_pickup_dist, 5_000.0);
        assert!((c.speed.kmh() - 36.0).abs() < 1e-9);
        assert_eq!(c.price.distance_scale, 0.001);
        // 2 minutes at 36 km/h = 1.2 km.
        assert!((c.max_wait_dist() - 1200.0).abs() < 1e-6);
    }

    #[test]
    fn paper_defaults_price_per_km() {
        let c = EngineConfig::paper_defaults();
        assert_eq!(c.price.distance_scale, 0.001);
    }

    #[test]
    fn runtime_knobs_default_and_override() {
        let c = EngineConfig::default();
        assert_eq!(c.pool_size, 0, "default pool size is auto");
        assert_eq!(c.par_auto_min_batch, 16);
        let c = c.with_pool_size(4).with_par_auto_min_batch(8);
        assert_eq!(c.pool_size, 4);
        assert_eq!(c.par_auto_min_batch, 8);
    }
}
