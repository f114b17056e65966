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
    /// The exact shortest-path backend the engine's distance oracle uses
    /// on a cache miss. ALT A* ([`DistanceBackend::Alt`]) is the only one.
    pub distance_backend: DistanceBackend,
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
            distance_backend: DistanceBackend::Alt,
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

    /// Selects the exact distance backend (see [`Self::distance_backend`]).
    pub fn with_distance_backend(mut self, backend: DistanceBackend) -> Self {
        self.distance_backend = backend;
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
}
