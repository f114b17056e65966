//! The per-request distance plan.
//!
//! Verifying a vehicle inserts the request's pickup `s` and drop-off `d`
//! into its kinetic tree, so every leg it prices that is not already cached
//! has `s` or `d` as one endpoint. Instead of answering those legs with one
//! point query each, the plan keeps one resumable search rooted at `s` and
//! one rooted at `d` open for the whole request
//! ([`DistanceOracle::settle_from`]). Before each verification batch it
//! hands them the batch's targets:
//!
//! * from `s`: every vehicle's location, plus the scheduled stops of
//!   non-empty vehicles;
//! * from `d`: the location and stops of non-empty vehicles (an empty
//!   vehicle's only drop-off leg is `s → d`, priced before matching).
//!
//! The answers land in the oracle cache, where `verify_vehicle`,
//! `PrefetchedDistances` and the later commit find them. Each search grows
//! only as far as its targets so far and starts only on the first target
//! that misses the cache, so a fully cached world runs no search at all.
//!
//! On directed metrics no plan is built: the network has no reverse
//! adjacency to answer `dist(x, s)` from an `s`-rooted search, and
//! verification keeps its point queries.

use super::{verify_vehicle, MatchContext, MatchStats};
use crate::skyline::Skyline;
use ptrider_roadnet::{DistanceOracle, OneToMany, VertexId};
use ptrider_vehicles::{ProspectiveRequest, Vehicle};
use std::cell::Cell;

/// Verifies a batch of vehicles on the caller's thread, adding every
/// option and counter to `skyline` / `stats`. The plan first caches the
/// batch's `s`/`d` legs, so the verification reads them from the oracle
/// cache.
pub(crate) fn verify_vehicles(
    ctx: &MatchContext<'_>,
    req: &ProspectiveRequest,
    plan: &mut DistancePlan<'_>,
    vehicles: &[&Vehicle],
    skyline: &mut Skyline,
    stats: &mut MatchStats,
) {
    plan.prepare(vehicles);
    for vehicle in vehicles {
        verify_vehicle(ctx, req, vehicle, skyline, stats);
    }
}

/// The two searches and their target buffers, kept per thread so a
/// request reuses the previous request's scratch instead of allocating
/// `O(V)`.
#[derive(Default)]
struct Searches {
    from_pickup: OneToMany,
    from_dropoff: OneToMany,
    pickup_targets: Vec<VertexId>,
    dropoff_targets: Vec<VertexId>,
}

thread_local! {
    static SEARCHES: Cell<Option<Box<Searches>>> = const { Cell::new(None) };
}

/// One request's distance plan; see the module docs.
pub(crate) struct DistancePlan<'a> {
    oracle: &'a DistanceOracle,
    /// `None` on directed metrics: the plan does nothing.
    searches: Option<Box<Searches>>,
}

impl<'a> DistancePlan<'a> {
    /// Opens the plan for `req` (constant time; no search runs yet).
    pub(crate) fn new(oracle: &'a DistanceOracle, req: &ProspectiveRequest) -> Self {
        let searches = oracle.is_metric_undirected().then(|| {
            // A nested plan on the same thread (none today) would find the
            // slot empty and simply allocate its own.
            let mut searches = SEARCHES.take().unwrap_or_default();
            searches.from_pickup.reset(req.pickup);
            searches.from_dropoff.reset(req.dropoff);
            searches
        });
        DistancePlan { oracle, searches }
    }

    /// Caches every distance with `s` or `d` as one endpoint that verifying
    /// `batch` will ask for.
    pub(crate) fn prepare(&mut self, batch: &[&Vehicle]) {
        let Some(searches) = self.searches.as_deref_mut() else {
            return;
        };
        let Searches {
            from_pickup,
            from_dropoff,
            pickup_targets,
            dropoff_targets,
        } = searches;
        pickup_targets.clear();
        dropoff_targets.clear();
        for vehicle in batch {
            pickup_targets.push(vehicle.location());
            if !vehicle.is_empty() {
                dropoff_targets.push(vehicle.location());
                dropoff_targets.extend(vehicle.stop_locations());
                pickup_targets.extend(vehicle.stop_locations());
            }
        }
        self.oracle.settle_from(from_pickup, pickup_targets);
        self.oracle.settle_from(from_dropoff, dropoff_targets);
    }
}

impl Drop for DistancePlan<'_> {
    fn drop(&mut self) {
        if let Some(searches) = self.searches.take() {
            SEARCHES.set(Some(searches));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use ptrider_roadnet::{GridConfig, GridIndex, RoadNetwork, RoadNetworkBuilder};
    use ptrider_vehicles::{RequestId, VehicleId, VehicleIndex};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn oracle_over(net: RoadNetwork) -> DistanceOracle {
        let net = Arc::new(net);
        let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(2, 2)));
        DistanceOracle::new(net, grid)
    }

    /// A 5×5 lattice, 1 km blocks with irregular weights.
    fn lattice() -> RoadNetwork {
        let side = 5usize;
        let mut b = RoadNetworkBuilder::new();
        let ids: Vec<_> = (0..side * side)
            .map(|i| b.add_vertex((i % side) as f64 * 1000.0, (i / side) as f64 * 1000.0))
            .collect();
        for i in 0..side * side {
            let w = 1000.0 + (i * 37 % 11) as f64 * 3.1;
            if i % side + 1 < side {
                b.add_bidirectional_edge(ids[i], ids[i + 1], w);
            }
            if i + side < side * side {
                b.add_bidirectional_edge(ids[i], ids[i + side], w + 1.7);
            }
        }
        b.build().unwrap()
    }

    fn request(oracle: &DistanceOracle, id: u64, s: u32, d: u32) -> ProspectiveRequest {
        let (s, d) = (VertexId(s), VertexId(d));
        ProspectiveRequest::new(RequestId(id), s, d, 1, oracle.distance(s, d), 0.5)
    }

    #[test]
    fn a_directed_network_builds_no_plan() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(50.0, 100.0);
        b.add_directed_edge(v0, v1, 10.0);
        b.add_bidirectional_edge(v0, v2, 300.0);
        b.add_bidirectional_edge(v2, v1, 300.0);
        let oracle = oracle_over(b.build().unwrap());
        let req = ProspectiveRequest::new(RequestId(1), v1, v0, 1, 600.0, 0.5);
        let mut plan = DistancePlan::new(&oracle, &req);
        assert!(plan.searches.is_none());
        let vehicle = Vehicle::new(VehicleId(0), 4, v2);
        plan.prepare(&[&vehicle]);
        assert_eq!(oracle.exact_computations(), 0);
    }

    #[test]
    fn a_prepared_batch_verifies_from_the_cache() {
        let oracle = oracle_over(lattice());
        let config = EngineConfig::default();
        let mut busy = Vehicle::new(VehicleId(1), 4, VertexId(0));
        let first = request(&oracle, 1, 6, 18);
        let pickup = oracle.distance(VertexId(0), VertexId(6));
        busy.assign(&oracle, &first, pickup, 5000.0, 1.0, 0.0)
            .expect("an idle vehicle takes the first rider");
        let idle = Vehicle::new(VehicleId(2), 4, VertexId(24));
        let vehicles: HashMap<_, _> = [(busy.id(), busy), (idle.id(), idle)].into();
        let index = VehicleIndex::new(oracle.grid().num_cells());
        let ctx = MatchContext {
            oracle: &oracle,
            grid: oracle.grid(),
            vehicles: &vehicles,
            index: &index,
            config: &config,
            telemetry: None,
            trace: None,
        };
        let req = request(&oracle, 2, 11, 13);
        let batch: Vec<&Vehicle> = [VehicleId(1), VehicleId(2)]
            .iter()
            .map(|id| &vehicles[id])
            .collect();
        let before = oracle.exact_computations();
        let mut plan = DistancePlan::new(&oracle, &req);
        plan.prepare(&batch);
        assert_eq!(oracle.exact_computations() - before, 2, "one per endpoint");
        let (mut skyline, mut stats) = (Skyline::new(), MatchStats::default());
        for vehicle in &batch {
            verify_vehicle(&ctx, &req, vehicle, &mut skyline, &mut stats);
        }
        assert_eq!(
            oracle.exact_computations() - before,
            2,
            "verify hit the cache"
        );
        assert!(stats.candidates_generated > 0);
        // A second plan over the same batch finds everything cached.
        drop(plan);
        let mut again = DistancePlan::new(&oracle, &req);
        again.prepare(&batch);
        assert_eq!(oracle.exact_computations() - before, 2);
    }
}
