//! Matching algorithms (Section 3.3).
//!
//! Three matchers are provided:
//!
//! * [`NaiveMatcher`] — the kinetic-tree baseline of Huang et al. [7]: every
//!   vehicle is verified by attempting the insertion into its kinetic tree.
//! * [`SingleSideMatcher`] — grid expansion from the request's start
//!   location with the pruning bounds P1–P4 of DESIGN.md.
//! * [`DualSideMatcher`] — single-side search plus destination-side pruning
//!   (P5): candidate vehicles whose schedules make the destination
//!   unreachable within the constraints are skipped or get tighter bounds.
//!
//! All three return exactly the same skyline of non-dominated options (this
//! is asserted by property tests); they differ only in how many vehicles they
//! verify and how many exact shortest-path distances they compute.

mod dual_side;
mod naive;
mod plan;
mod search;
mod single_side;

pub use dual_side::DualSideMatcher;
pub use naive::NaiveMatcher;
pub use single_side::SingleSideMatcher;

use crate::config::EngineConfig;
use crate::options::RideOption;
use crate::skyline::Skyline;
use ptrider_roadnet::{DistanceOracle, GridIndex};
use ptrider_vehicles::{ProspectiveRequest, Vehicle, VehicleId, VehicleIndex};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Everything a matcher needs to answer one request.
pub struct MatchContext<'a> {
    /// Memoising exact/lower-bound distance backend.
    pub oracle: &'a DistanceOracle,
    /// Road-network grid index.
    pub grid: &'a GridIndex,
    /// All vehicles, keyed by id.
    pub vehicles: &'a HashMap<VehicleId, Vehicle>,
    /// Per-cell empty / non-empty vehicle lists.
    pub index: &'a VehicleIndex,
    /// Global engine configuration (capacity, `w`, `δ`, speed, price model).
    pub config: &'a EngineConfig,
    /// The engine's telemetry hub. When present and running at the `Spans`
    /// level, matchers accumulate per-stage nanoseconds (candidate
    /// extraction, pruning, exact verification, skyline merge) and record
    /// them once per request; `None` (or a lower level) makes every timing
    /// site a plain branch.
    pub telemetry: Option<&'a crate::telemetry::Telemetry>,
    /// The request's trace context, when the caller threads one through
    /// (the service's submit path). Stage durations recorded via
    /// [`MatchContext::record_stage`] then land in the per-request trace
    /// tree as children of this context's span; `None` keeps the stages
    /// histogram-only.
    pub trace: Option<crate::telemetry::TraceContext>,
}

impl MatchContext<'_> {
    /// A conditional stopwatch over this context's telemetry level.
    pub fn stage_clock(&self) -> crate::telemetry::StageClock {
        crate::telemetry::StageClock::new(self.telemetry)
    }

    /// Records an accumulated stage duration (no-op unless spans are on);
    /// with a live [`MatchContext::trace`], also a span in the trace tree.
    #[inline]
    pub fn record_stage(&self, stage: crate::telemetry::Stage, nanos: u64) {
        if let Some(t) = self.telemetry {
            t.record_stage_in(stage, nanos, self.trace, 0);
        }
    }
}

/// Work counters for one matching call — the quantities compared by the
/// pruning-effectiveness experiment (E8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MatchStats {
    /// Vehicles considered (popped from an index list or iterated).
    pub vehicles_considered: usize,
    /// Vehicles actually verified with a kinetic-tree insertion.
    pub vehicles_verified: usize,
    /// Vehicles skipped by a pruning bound.
    pub vehicles_pruned: usize,
    /// Grid cells visited during the expansion (0 for the naive matcher).
    pub cells_visited: usize,
    /// Exact shortest-path computations performed while matching.
    pub exact_distance_computations: u64,
    /// Candidate (time, price) pairs generated before skyline filtering.
    pub candidates_generated: usize,
}

/// Result of matching one request.
#[derive(Clone, Debug, Default)]
pub struct MatchResult {
    /// The skyline of non-dominated options, sorted by pick-up time.
    pub options: Vec<RideOption>,
    /// Work counters.
    pub stats: MatchStats,
}

/// A matching algorithm.
pub trait Matcher: Send + Sync {
    /// Human-readable name (used in benchmark reports).
    fn name(&self) -> &'static str;

    /// Finds all qualified, non-dominated options for a request.
    fn find_options(&self, ctx: &MatchContext<'_>, req: &ProspectiveRequest) -> MatchResult;
}

/// Selector for the engine's active matching algorithm (the demo's website
/// interface lets the administrator pick one).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatcherKind {
    /// Kinetic-tree scan over every vehicle.
    Naive,
    /// Single-side search (expansion from the start location).
    SingleSide,
    /// Dual-side search (start- and destination-side pruning).
    DualSide,
}

impl MatcherKind {
    /// Instantiates the matcher.
    pub fn build(self) -> Box<dyn Matcher> {
        match self {
            MatcherKind::Naive => Box::new(NaiveMatcher),
            MatcherKind::SingleSide => Box::new(SingleSideMatcher),
            MatcherKind::DualSide => Box::new(DualSideMatcher),
        }
    }

    /// All matcher kinds, in the order used by benchmark sweeps.
    pub fn all() -> [MatcherKind; 3] {
        [
            MatcherKind::Naive,
            MatcherKind::SingleSide,
            MatcherKind::DualSide,
        ]
    }
}

impl std::fmt::Display for MatcherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MatcherKind::Naive => "naive",
            MatcherKind::SingleSide => "single-side",
            MatcherKind::DualSide => "dual-side",
        };
        f.write_str(s)
    }
}

/// Verifies one vehicle: enumerates every feasible insertion of the request
/// into its kinetic tree, prices each candidate and offers it to the skyline.
///
/// Shared by all matchers so they price candidates identically.
pub(crate) fn verify_vehicle(
    ctx: &MatchContext<'_>,
    req: &ProspectiveRequest,
    vehicle: &Vehicle,
    skyline: &mut Skyline,
    stats: &mut MatchStats,
) {
    stats.vehicles_verified += 1;
    let old_total = vehicle.current_best_distance();
    let candidates = vehicle.insertion_candidates(ctx.oracle, req);
    for cand in candidates {
        if cand.pickup_dist > ctx.config.max_pickup_dist {
            continue;
        }
        stats.candidates_generated += 1;
        let delta = (cand.total_dist - old_total).max(0.0);
        let price = ctx.config.price.price(req.riders, delta, req.direct_dist);
        skyline.insert(RideOption {
            vehicle: vehicle.id(),
            pickup_dist: cand.pickup_dist,
            pickup_secs: ctx.config.speed.distance_to_seconds(cand.pickup_dist),
            price,
            schedule: cand.stops,
            new_total_dist: cand.total_dist,
            old_total_dist: old_total,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matcher_kind_builds_named_matchers() {
        assert_eq!(MatcherKind::Naive.build().name(), "naive");
        assert_eq!(MatcherKind::SingleSide.build().name(), "single-side");
        assert_eq!(MatcherKind::DualSide.build().name(), "dual-side");
        assert_eq!(MatcherKind::all().len(), 3);
        assert_eq!(MatcherKind::DualSide.to_string(), "dual-side");
    }
}
