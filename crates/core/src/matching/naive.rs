//! The naive kinetic-tree matcher (the baseline extended from Huang et al.
//! [7], described at the start of Section 3.3).
//!
//! Every vehicle in the system is verified: the request is tentatively
//! inserted into the vehicle's kinetic tree and every feasible insertion is
//! priced. No index, no pruning — this is the correctness reference the
//! optimised matchers are tested against, and the baseline of the latency
//! experiments.

use super::plan::{verify_vehicles, DistancePlan};
use super::{MatchContext, MatchResult, MatchStats, Matcher};
use crate::skyline::Skyline;
use crate::telemetry::Stage;
use ptrider_vehicles::ProspectiveRequest;

/// Baseline matcher: verify every vehicle.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveMatcher;

impl Matcher for NaiveMatcher {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn find_options(&self, ctx: &MatchContext<'_>, req: &ProspectiveRequest) -> MatchResult {
        let mut skyline = Skyline::new();
        let mut stats = MatchStats::default();
        let exact_before = ctx.oracle.exact_computations();

        let clock = ctx.stage_clock();
        let mut candidates_ns = 0u64;
        let mut verify_ns = 0u64;
        let mut skyline_ns = 0u64;

        // Deterministic iteration order (by vehicle id) so repeated runs are
        // reproducible even though the result set is order-independent.
        let vehicles = clock.time(&mut candidates_ns, || {
            let mut ids: Vec<_> = ctx.vehicles.keys().copied().collect();
            ids.sort_unstable();
            ids.iter().map(|id| &ctx.vehicles[id]).collect::<Vec<_>>()
        });
        stats.vehicles_considered += vehicles.len();
        clock.time(&mut verify_ns, || {
            let mut plan = DistancePlan::new(ctx.oracle, req);
            verify_vehicles(ctx, req, &mut plan, &vehicles, &mut skyline, &mut stats)
        });

        stats.exact_distance_computations = ctx.oracle.exact_computations() - exact_before;
        let options = clock.time(&mut skyline_ns, || skyline.into_sorted_options());
        if clock.enabled() {
            ctx.record_stage(Stage::MatchCandidates, candidates_ns);
            ctx.record_stage(Stage::MatchVerify, verify_ns);
            ctx.record_stage(Stage::MatchSkyline, skyline_ns);
        }
        MatchResult { options, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::matching::MatcherKind;
    use ptrider_roadnet::{DistanceOracle, GridConfig, GridIndex, RoadNetworkBuilder, VertexId};
    use ptrider_vehicles::{RequestId, Vehicle, VehicleId, VehicleIndex};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Builds a 1 km-spaced 4x4 lattice with two vehicles and returns the
    /// pieces a MatchContext needs.
    fn world() -> (
        Arc<ptrider_roadnet::RoadNetwork>,
        Arc<GridIndex>,
        DistanceOracle,
        HashMap<VehicleId, Vehicle>,
        VehicleIndex,
        EngineConfig,
    ) {
        let side = 4usize;
        let mut b = RoadNetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..side {
            for x in 0..side {
                ids.push(b.add_vertex(x as f64 * 1000.0, y as f64 * 1000.0));
            }
        }
        for y in 0..side {
            for x in 0..side {
                let u = ids[y * side + x];
                if x + 1 < side {
                    b.add_bidirectional_edge(u, ids[y * side + x + 1], 1000.0);
                }
                if y + 1 < side {
                    b.add_bidirectional_edge(u, ids[(y + 1) * side + x], 1000.0);
                }
            }
        }
        let net = Arc::new(b.build().unwrap());
        let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(2, 2)));
        let oracle = DistanceOracle::new(Arc::clone(&net), Arc::clone(&grid));
        let config = EngineConfig::default();

        let mut vehicles = HashMap::new();
        let mut index = VehicleIndex::new(grid.num_cells());
        for (i, loc) in [VertexId(0), VertexId(15)].iter().enumerate() {
            let v = Vehicle::new(VehicleId(i as u32), config.capacity, *loc);
            index.update_from_vehicle(&v, &grid);
            vehicles.insert(v.id(), v);
        }
        (net, grid, oracle, vehicles, index, config)
    }

    #[test]
    fn naive_returns_non_dominated_options_from_all_vehicles() {
        let (_net, grid, oracle, vehicles, index, config) = world();
        let ctx = MatchContext {
            oracle: &oracle,
            grid: &grid,
            vehicles: &vehicles,
            index: &index,
            config: &config,
            telemetry: None,
            trace: None,
        };
        // Request from v5 to v6 (adjacent, 1 km).
        let direct = oracle.distance(VertexId(5), VertexId(6));
        let req = ptrider_vehicles::ProspectiveRequest::new(
            RequestId(1),
            VertexId(5),
            VertexId(6),
            1,
            direct,
            config.detour_factor,
        );
        let matcher = MatcherKind::Naive.build();
        let result = matcher.find_options(&ctx, &req);
        assert_eq!(result.stats.vehicles_considered, 2);
        assert_eq!(result.stats.vehicles_verified, 2);
        assert!(!result.options.is_empty());
        // Vehicle 0 (at v0, 2 km from v5) is closer than vehicle 1 (at v15,
        // 4 km away) and its empty-vehicle price is therefore lower: vehicle 1
        // is dominated and only one option survives.
        assert_eq!(result.options.len(), 1);
        assert_eq!(result.options[0].vehicle, VehicleId(0));
        assert_eq!(result.options[0].pickup_dist, 2000.0);
        // Options are sorted by pick-up time.
        for w in result.options.windows(2) {
            assert!(w[0].pickup_dist <= w[1].pickup_dist);
        }
    }

    #[test]
    fn max_pickup_radius_filters_far_vehicles() {
        let (_net, grid, oracle, vehicles, index, config) = world();
        let config = config.with_max_pickup_dist(1500.0);
        let ctx = MatchContext {
            oracle: &oracle,
            grid: &grid,
            vehicles: &vehicles,
            index: &index,
            config: &config,
            telemetry: None,
            trace: None,
        };
        // Request starting at v3 (3 km from v0, 3 km from v15): no vehicle
        // can reach it within the 1.5 km radius.
        let direct = oracle.distance(VertexId(3), VertexId(7));
        let req = ptrider_vehicles::ProspectiveRequest::new(
            RequestId(1),
            VertexId(3),
            VertexId(7),
            1,
            direct,
            config.detour_factor,
        );
        let result = NaiveMatcher.find_options(&ctx, &req);
        assert!(result.options.is_empty());
    }
}
