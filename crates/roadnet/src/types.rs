//! Fundamental identifier and geometry types shared across the workspace.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Sentinel distance used for unreachable vertices.
pub const INFINITE_DISTANCE: f64 = f64::INFINITY;

/// Identifier of a vertex (road intersection) in a [`crate::RoadNetwork`].
///
/// Vertex identifiers are dense: a network with `n` vertices uses ids
/// `0..n`. The newtype keeps them from being confused with other integer
/// quantities (cell ids, vehicle ids, …).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(value: u32) -> Self {
        VertexId(value)
    }
}

/// A planar coordinate in metres.
///
/// The synthetic networks used in this reproduction place vertices on a
/// plane; coordinates are only used for grid partitioning, A* heuristics
/// and workload generation, never for pricing (prices use road distances).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Point {
    /// Creates a new point.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, in metres.
    #[inline]
    pub fn euclidean(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Constant vehicle speed used to convert between distance and time.
///
/// The paper's demonstration assumes a constant speed of 48 km/h
/// (Section 4). [`Speed::paper_default`] returns exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Speed {
    metres_per_second: f64,
}

impl Speed {
    /// Creates a speed from a value in kilometres per hour.
    ///
    /// # Panics
    /// Panics if `kmh` is not strictly positive and finite.
    pub fn from_kmh(kmh: f64) -> Self {
        assert!(
            kmh.is_finite() && kmh > 0.0,
            "speed must be positive and finite, got {kmh}"
        );
        Speed {
            metres_per_second: kmh * 1000.0 / 3600.0,
        }
    }

    /// Creates a speed from a value in metres per second.
    ///
    /// # Panics
    /// Panics if `mps` is not strictly positive and finite.
    pub fn from_mps(mps: f64) -> Self {
        assert!(
            mps.is_finite() && mps > 0.0,
            "speed must be positive and finite, got {mps}"
        );
        Speed {
            metres_per_second: mps,
        }
    }

    /// The paper's constant speed of 48 km/h.
    pub fn paper_default() -> Self {
        Speed::from_kmh(48.0)
    }

    /// Speed in metres per second.
    #[inline]
    pub fn mps(&self) -> f64 {
        self.metres_per_second
    }

    /// Speed in kilometres per hour.
    #[inline]
    pub fn kmh(&self) -> f64 {
        self.metres_per_second * 3.6
    }

    /// Converts a road distance in metres to a travel time in seconds.
    #[inline]
    pub fn distance_to_seconds(&self, metres: f64) -> f64 {
        metres / self.metres_per_second
    }

    /// Converts a travel time in seconds to a road distance in metres.
    #[inline]
    pub fn seconds_to_distance(&self, seconds: f64) -> f64 {
        seconds * self.metres_per_second
    }
}

impl Default for Speed {
    fn default() -> Self {
        Speed::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId(42);
        assert_eq!(v.index(), 42);
        assert_eq!(VertexId::from(42u32), v);
        assert_eq!(format!("{v}"), "v42");
        assert_eq!(format!("{v:?}"), "v42");
    }

    #[test]
    fn point_euclidean_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.euclidean(&b) - 5.0).abs() < 1e-12);
        assert!((b.euclidean(&a) - 5.0).abs() < 1e-12);
        assert_eq!(a.euclidean(&a), 0.0);
    }

    #[test]
    fn speed_paper_default_is_48_kmh() {
        let s = Speed::paper_default();
        assert!((s.kmh() - 48.0).abs() < 1e-9);
        // 48 km/h is 13.333… m/s
        assert!((s.mps() - 13.333_333_333).abs() < 1e-6);
    }

    #[test]
    fn speed_conversion_roundtrip() {
        let s = Speed::from_kmh(48.0);
        let metres = 12_000.0;
        let secs = s.distance_to_seconds(metres);
        assert!((s.seconds_to_distance(secs) - metres).abs() < 1e-9);
        // 12 km at 48 km/h is 15 minutes.
        assert!((secs - 900.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn speed_rejects_zero() {
        let _ = Speed::from_kmh(0.0);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn speed_rejects_negative_mps() {
        let _ = Speed::from_mps(-3.0);
    }
}
