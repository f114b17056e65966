//! What every workload shares: the substrate a world is built on (network,
//! grid, landmarks), the operation tally and the skyline validator.

use crate::digest::{Digest, SplitMix64};
use crate::sut::{
    DistanceBackend, EngineConfig, GridConfig, GridIndex, LandmarkIndex, MatcherKind, PtRider,
    RoadNetwork, VertexId,
};
use std::sync::Arc;

/// Landmark tables per city, the engine's own default.
const LANDMARKS: usize = 8;

/// The immutable part of a world; engines built over one substrate share it.
pub struct Substrate {
    pub net: Arc<RoadNetwork>,
    pub grid: Arc<GridIndex>,
    pub landmarks: Arc<LandmarkIndex>,
}

impl Substrate {
    /// Grid index and landmark tables over a generated network.
    pub fn over(net: RoadNetwork, grid_side: usize) -> Substrate {
        let net = Arc::new(net);
        let grid = Arc::new(GridIndex::build(
            &net,
            GridConfig::with_dimensions(grid_side, grid_side),
        ));
        let landmarks = Arc::new(LandmarkIndex::build_auto(&net, LANDMARKS));
        Substrate {
            net,
            grid,
            landmarks,
        }
    }

    /// A fresh, empty engine: the paper's parameters, the dual-side
    /// matcher, the ALT backend named explicitly (no environment default).
    pub fn engine(&self) -> PtRider {
        let config = EngineConfig::paper_defaults().with_distance_backend(DistanceBackend::Alt);
        let mut engine = PtRider::with_shared_landmarks(
            Arc::clone(&self.net),
            Arc::clone(&self.grid),
            Arc::clone(&self.landmarks),
            config,
        );
        engine.set_matcher(MatcherKind::DualSide);
        engine
    }
}

/// Operations attempted and failed, and correctness violations. A failed
/// operation is counted and reported; a violation means the system returned
/// a *wrong* answer, and the run exits non-zero instead of printing numbers.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Tally {
    /// Counts one operation; `error` describes why it failed, if it did.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("ptbench: {what} failed: {e}");
                }
                None
            }
        }
    }

    pub fn violation(&mut self, message: String) {
        if self.violations.len() < 20 {
            self.violations.push(message);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for v in other.violations {
            self.violation(v);
        }
    }
}

/// Definition 4 as the rider sees it: options ordered by pick-up distance,
/// none dominated by another, every number finite and non-negative.
/// `options` are `(pickup_dist, price)` pairs in the order returned.
pub fn check_skyline(options: &[(f64, f64)]) -> Result<(), String> {
    for (i, &(dist, price)) in options.iter().enumerate() {
        if !(dist.is_finite() && price.is_finite() && dist >= 0.0 && price >= 0.0) {
            return Err(format!(
                "option {i} is not a finite price/time: ({dist}, {price})"
            ));
        }
        if i > 0 && options[i - 1].0 > dist {
            return Err(format!("option {i} is out of pick-up order"));
        }
        for (j, &(other_dist, other_price)) in options.iter().enumerate() {
            let dominates = (other_dist <= dist && other_price < price)
                || (other_dist < dist && other_price <= price);
            if j != i && dominates {
                return Err(format!("option {i} is dominated by option {j}"));
            }
        }
    }
    Ok(())
}

/// Hash of one offer for an outputs digest: option count, then each
/// option's vehicle and the exact bits of its pick-up distance and price.
/// Outputs digests fold these hashes in ride order.
pub fn offer_hash(options: impl ExactSizeIterator<Item = (u32, f64, f64)>) -> u64 {
    let mut digest = Digest::default();
    digest.u64(options.len() as u64);
    for (vehicle, dist, price) in options {
        digest.u64(u64::from(vehicle));
        digest.f64(dist);
        digest.f64(price);
    }
    digest.value()
}

/// A fleet that never moves: `vehicles` placed uniformly at random, then
/// `warm` trips assigned (each rider takes the earliest pick-up) so a
/// realistic share of the fleet carries a schedule. The read-path
/// workloads (`city.cold`, `wire.open`) probe this world and decline, so
/// it stays exactly as built.
pub struct StaticSpec {
    pub city_side: usize,
    pub grid_side: usize,
    pub vehicles: usize,
    pub warm: usize,
}

/// Two different vertices, uniform over the network.
pub fn distinct_pair(rng: &mut SplitMix64, vertices: u64) -> (VertexId, VertexId) {
    let origin = rng.below(vertices);
    let mut destination = rng.below(vertices - 1);
    if destination >= origin {
        destination += 1;
    }
    (VertexId(origin as u32), VertexId(destination as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylines_must_be_sorted_and_undominated() {
        assert!(check_skyline(&[]).is_ok());
        assert!(check_skyline(&[(100.0, 9.0), (200.0, 5.0), (300.0, 2.0)]).is_ok());
        assert!(check_skyline(&[(200.0, 5.0), (100.0, 9.0)])
            .unwrap_err()
            .contains("order"));
        assert!(check_skyline(&[(100.0, 5.0), (200.0, 5.0)])
            .unwrap_err()
            .contains("dominated"));
        assert!(check_skyline(&[(100.0, 5.0), (100.0, 6.0)])
            .unwrap_err()
            .contains("dominated"));
        assert!(check_skyline(&[(100.0, f64::NAN)]).is_err());
        assert!(check_skyline(&[(-1.0, 2.0)]).is_err());
    }

    #[test]
    fn tally_counts_failures_and_keeps_violations() {
        let mut t = Tally::default();
        assert_eq!(t.op("ok", Ok::<_, String>(3)), Some(3));
        assert_eq!(t.op("bad", Err::<u32, _>("boom")), None);
        assert_eq!((t.attempted, t.failed), (2, 1));
        t.violation("wrong".into());
        let mut sum = Tally::default();
        sum.absorb(t);
        assert_eq!((sum.attempted, sum.failed, sum.violations.len()), (2, 1, 1));
    }

    #[test]
    fn distinct_pairs_are_distinct() {
        let mut rng = SplitMix64::new(1);
        for vertices in [2, 3, 1000] {
            for _ in 0..200 {
                let (o, d) = distinct_pair(&mut rng, vertices);
                assert_ne!(o, d);
                assert!(u64::from(o.0) < vertices && u64::from(d.0) < vertices);
            }
        }
    }
}
