//! The vehicle grid index: per-cell empty and non-empty vehicle lists
//! (Section 3.2.1, items (iv) and (v) of the grid-cell contents).
//!
//! * **Empty vehicles** (no unfinished requests) are registered in the single
//!   cell that contains their current location.
//! * **Non-empty vehicles** are registered in every cell that one of their
//!   scheduled legs intersects — the paper registers a kinetic-tree edge
//!   `⟨o_x, o_y⟩` in cell `g_i` when the shortest path between the two stops
//!   intersects `g_i`. The index itself stores whatever cell set the caller
//!   computed (see [`schedule_cells`] for the faithful path-based helper),
//!   which keeps the index independent of path computation policy.

use crate::distances::Distances;
use crate::types::VehicleId;
use crate::vehicle::Vehicle;
use ptrider_roadnet::{astar, CellId, GridIndex, RoadNetwork, VertexId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Per-grid-cell empty / non-empty vehicle lists.
#[derive(Clone, Debug)]
pub struct VehicleIndex {
    num_cells: usize,
    empty: Vec<BTreeSet<VehicleId>>,
    non_empty: Vec<BTreeSet<VehicleId>>,
    /// For each registered vehicle: whether it is empty and which cells it is
    /// currently registered in.
    registration: HashMap<VehicleId, (bool, Vec<CellId>)>,
    /// Memo of the grid cells crossed by a stop→stop schedule leg. Those
    /// legs are stable while the vehicle drives (only the location→first-
    /// stop legs change per location update), and fleets share popular
    /// legs, so this removes the dominant path-search cost of non-empty
    /// re-registration. Cleared by nothing today — bounded by the set of
    /// distinct scheduled legs; eviction is a ROADMAP item.
    leg_cells: HashMap<(VertexId, VertexId), Vec<CellId>>,
}

impl VehicleIndex {
    /// Creates an index with one (empty, non-empty) list pair per grid cell.
    pub fn new(num_cells: usize) -> Self {
        VehicleIndex {
            num_cells,
            empty: vec![BTreeSet::new(); num_cells],
            non_empty: vec![BTreeSet::new(); num_cells],
            registration: HashMap::new(),
            leg_cells: HashMap::new(),
        }
    }

    /// Number of grid cells covered by the index.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Number of registered vehicles.
    pub fn num_vehicles(&self) -> usize {
        self.registration.len()
    }

    /// Registers (or re-registers) an empty vehicle located in `cell`.
    /// Idempotent: re-registering in the same cell is a single map lookup
    /// (the common case under a high location-update load — most moves stay
    /// within one grid cell).
    pub fn update_empty(&mut self, vehicle: VehicleId, cell: CellId) {
        assert!(cell < self.num_cells, "cell {cell} out of range");
        if let Some((true, cells)) = self.registration.get(&vehicle) {
            if cells.as_slice() == [cell] {
                return;
            }
        }
        self.remove(vehicle);
        self.empty[cell].insert(vehicle);
        self.registration.insert(vehicle, (true, vec![cell]));
    }

    /// Registers (or re-registers) a non-empty vehicle in every cell of
    /// `cells` (typically the cells its scheduled legs pass through).
    /// Idempotent: when the deduplicated cell set matches the current
    /// registration, no list is touched.
    pub fn update_non_empty(
        &mut self,
        vehicle: VehicleId,
        cells: impl IntoIterator<Item = CellId>,
    ) {
        let mut registered = Vec::new();
        let mut seen = HashSet::new();
        for cell in cells {
            assert!(cell < self.num_cells, "cell {cell} out of range");
            if seen.insert(cell) {
                registered.push(cell);
            }
        }
        if let Some((false, cells)) = self.registration.get(&vehicle) {
            if cells == &registered {
                return;
            }
        }
        self.remove(vehicle);
        for &cell in &registered {
            self.non_empty[cell].insert(vehicle);
        }
        self.registration.insert(vehicle, (false, registered));
    }

    /// Removes a vehicle from the index entirely.
    pub fn remove(&mut self, vehicle: VehicleId) {
        if let Some((was_empty, cells)) = self.registration.remove(&vehicle) {
            let lists = if was_empty {
                &mut self.empty
            } else {
                &mut self.non_empty
            };
            for c in cells {
                lists[c].remove(&vehicle);
            }
        }
    }

    /// Empty vehicles currently located in a cell.
    pub fn empty_in_cell(&self, cell: CellId) -> impl Iterator<Item = VehicleId> + '_ {
        self.empty[cell].iter().copied()
    }

    /// Non-empty vehicles whose schedule passes through a cell.
    pub fn non_empty_in_cell(&self, cell: CellId) -> impl Iterator<Item = VehicleId> + '_ {
        self.non_empty[cell].iter().copied()
    }

    /// `(empty, non-empty)` counts for a cell.
    pub fn cell_counts(&self, cell: CellId) -> (usize, usize) {
        (self.empty[cell].len(), self.non_empty[cell].len())
    }

    /// The cells a vehicle is currently registered in (empty slice when the
    /// vehicle is unknown).
    pub fn cells_of(&self, vehicle: VehicleId) -> &[CellId] {
        self.registration
            .get(&vehicle)
            .map(|(_, cells)| cells.as_slice())
            .unwrap_or(&[])
    }

    /// `true` when the vehicle is registered as empty.
    pub fn is_registered_empty(&self, vehicle: VehicleId) -> Option<bool> {
        self.registration.get(&vehicle).map(|(e, _)| *e)
    }

    /// Over-approximate candidate-vehicle set for a pickup at `pickup`:
    /// every registered vehicle whose **location-based admissible lower
    /// bound** on the pickup distance is within `max_pickup_dist`.
    ///
    /// A vehicle outside this set can never serve the request, under *any*
    /// schedule it might acquire while its location stays put: the planned
    /// pickup leg starts at the current location, so
    /// `lb(location, pickup) > max_pickup_dist` implies the exact pickup
    /// distance exceeds the radius no matter what is inserted into the
    /// kinetic tree. That makes the set a sound conflict edge source for
    /// batch admission — two simultaneous requests can only influence each
    /// other's skylines through a shared candidate vehicle.
    ///
    /// **Sublinear extraction.** Instead of scanning the whole fleet, the
    /// walk enumerates only the grid cells intersecting the planar disk of
    /// radius `max_pickup_dist / net.min_weight_ratio()` around the pickup
    /// ([`GridIndex::cells_within_euclidean`]) and tests the vehicles
    /// registered there. This returns **exactly** the scan's set
    /// ([`Self::pickup_candidates_scan`], property-tested): any vehicle the
    /// scan admits has `lb(location, pickup) ≤ max_pickup_dist`, the lower
    /// bound never undercuts the network's Euclidean bound, and every
    /// vehicle is registered in (at least) the cell containing its
    /// location — so its cell intersects the disk and is visited. Two
    /// preconditions, both satisfied by engine-managed state: `D`'s
    /// `lower_bound` dominates [`RoadNetwork::euclidean_lower_bound`] (true
    /// for the distance oracle, whose bound is a max over the Euclidean
    /// bound and tighter ones), and vehicles are registered via
    /// [`Self::update_from_vehicle`] (which always includes the location
    /// cell). Degenerate networks with a zero Euclidean weight ratio fall
    /// back to the scan.
    ///
    /// Returned sorted by vehicle id (deterministic conflict graphs).
    pub fn pickup_candidates<D: Distances>(
        &self,
        vehicles: &HashMap<VehicleId, Vehicle>,
        net: &RoadNetwork,
        grid: &GridIndex,
        dist: &D,
        pickup: VertexId,
        max_pickup_dist: f64,
    ) -> Vec<VehicleId> {
        let ratio = net.min_weight_ratio();
        let ratio_usable = ratio.is_finite() && ratio > 0.0;
        if !ratio_usable || !max_pickup_dist.is_finite() {
            // No usable Euclidean bound (zero/NaN weight ratio) or an
            // unbounded radius: the disk degenerates to the whole plane.
            return self.pickup_candidates_scan(vehicles, dist, pickup, max_pickup_dist);
        }
        let planar_radius = max_pickup_dist / ratio;
        let mut out: Vec<VehicleId> = Vec::new();
        let mut seen: HashSet<VehicleId> = HashSet::new();
        for cell in grid.cells_within_euclidean(net.coord(pickup), planar_radius) {
            for &id in self.empty[cell].iter().chain(self.non_empty[cell].iter()) {
                if seen.insert(id)
                    && vehicles
                        .get(&id)
                        .is_some_and(|v| dist.lower_bound(v.location(), pickup) <= max_pickup_dist)
                {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The `O(fleet)` reference implementation of
    /// [`Self::pickup_candidates`]: scans every registered vehicle and
    /// applies the location-lower-bound test. Kept as the equivalence
    /// oracle for the grid-cell walk (and as the fallback on networks
    /// without a usable Euclidean bound).
    pub fn pickup_candidates_scan<D: Distances>(
        &self,
        vehicles: &HashMap<VehicleId, Vehicle>,
        dist: &D,
        pickup: VertexId,
        max_pickup_dist: f64,
    ) -> Vec<VehicleId> {
        let mut out: Vec<VehicleId> = self
            .registration
            .keys()
            .filter(|id| {
                vehicles
                    .get(id)
                    .is_some_and(|v| dist.lower_bound(v.location(), pickup) <= max_pickup_dist)
            })
            .copied()
            .collect();
        out.sort_unstable();
        out
    }

    /// Registers a vehicle from its current state: empty vehicles go into
    /// their location cell, non-empty vehicles into every cell their
    /// scheduled legs intersect (the set [`schedule_cells`] defines).
    ///
    /// Stop→stop leg cells are served from the index's leg memo; only the
    /// legs leaving the vehicle's (transient) current location are
    /// path-searched fresh, which makes the high-frequency location-update
    /// path cheap for busy vehicles.
    pub fn update_from_vehicle(&mut self, vehicle: &Vehicle, net: &RoadNetwork, grid: &GridIndex) {
        if vehicle.is_empty() {
            self.update_empty(vehicle.id(), grid.cell_of(vehicle.location()));
            return;
        }

        let location = vehicle.location();
        let mut cells: BTreeSet<CellId> = BTreeSet::new();
        cells.insert(grid.cell_of(location));
        for (u, v) in schedule_legs(vehicle) {
            if u == v {
                cells.insert(grid.cell_of(u));
            } else if u == location {
                // Transient leg: the source changes on every move, so
                // memoising it would only grow the map with dead entries.
                leg_cells_into(net, grid, u, v, &mut cells);
            } else {
                let memo = self.leg_cells.entry((u, v)).or_insert_with(|| {
                    let mut set = BTreeSet::new();
                    leg_cells_into(net, grid, u, v, &mut set);
                    set.into_iter().collect()
                });
                cells.extend(memo.iter().copied());
            }
        }
        self.update_non_empty(vehicle.id(), cells);
    }
}

/// Unique kinetic-tree legs `(parent location, child location)`, with the
/// vehicle's current location as the parent of every root.
fn schedule_legs(vehicle: &Vehicle) -> HashSet<(VertexId, VertexId)> {
    let mut legs: HashSet<(VertexId, VertexId)> = HashSet::new();
    fn visit(
        node: &crate::kinetic::KineticNode,
        prev: VertexId,
        legs: &mut HashSet<(VertexId, VertexId)>,
    ) {
        legs.insert((prev, node.stop.location));
        for c in &node.children {
            visit(c, node.stop.location, legs);
        }
    }
    for root in vehicle.kinetic_tree().roots() {
        visit(root, vehicle.location(), &mut legs);
    }
    legs
}

/// Inserts the cells of every vertex on the shortest path `u → v` (or the
/// endpoint cells when unreachable) into `cells`.
fn leg_cells_into(
    net: &RoadNetwork,
    grid: &GridIndex,
    u: VertexId,
    v: VertexId,
    cells: &mut BTreeSet<CellId>,
) {
    if let Some((_, path)) = astar::shortest_path(net, u, v) {
        for w in path {
            cells.insert(grid.cell_of(w));
        }
    } else {
        cells.insert(grid.cell_of(u));
        cells.insert(grid.cell_of(v));
    }
}

/// Computes the set of grid cells intersected by the scheduled legs of a
/// non-empty vehicle (the cells its kinetic-tree edges pass through), plus
/// the cell of its current location.
///
/// Every kinetic-tree edge `(o_x, o_y)` contributes the cells of every vertex
/// on the shortest path from `o_x` to `o_y`, following the paper's rule.
pub fn schedule_cells(vehicle: &Vehicle, net: &RoadNetwork, grid: &GridIndex) -> Vec<CellId> {
    let mut cells: BTreeSet<CellId> = BTreeSet::new();
    cells.insert(grid.cell_of(vehicle.location()));
    for (u, v) in schedule_legs(vehicle) {
        if u == v {
            cells.insert(grid.cell_of(u));
        } else {
            leg_cells_into(net, grid, u, v, &mut cells);
        }
    }
    cells.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ProspectiveRequest;
    use crate::types::RequestId;
    use ptrider_roadnet::{GridConfig, RoadNetworkBuilder};
    use std::sync::Arc;

    fn lattice(side: usize, spacing: f64) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..side {
            for x in 0..side {
                ids.push(b.add_vertex(x as f64 * spacing, y as f64 * spacing));
            }
        }
        for y in 0..side {
            for x in 0..side {
                let u = ids[y * side + x];
                if x + 1 < side {
                    b.add_bidirectional_edge(u, ids[y * side + x + 1], spacing);
                }
                if y + 1 < side {
                    b.add_bidirectional_edge(u, ids[(y + 1) * side + x], spacing);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn empty_vehicle_registration() {
        let mut idx = VehicleIndex::new(9);
        idx.update_empty(VehicleId(1), 4);
        assert_eq!(idx.num_vehicles(), 1);
        assert_eq!(idx.cell_counts(4), (1, 0));
        assert_eq!(idx.cells_of(VehicleId(1)), &[4]);
        assert_eq!(idx.is_registered_empty(VehicleId(1)), Some(true));

        // Moving to a new cell re-registers.
        idx.update_empty(VehicleId(1), 7);
        assert_eq!(idx.cell_counts(4), (0, 0));
        assert_eq!(idx.cell_counts(7), (1, 0));
    }

    #[test]
    fn non_empty_registration_deduplicates_cells() {
        let mut idx = VehicleIndex::new(9);
        idx.update_non_empty(VehicleId(2), [1, 2, 2, 3, 1]);
        assert_eq!(idx.cells_of(VehicleId(2)).len(), 3);
        assert_eq!(idx.cell_counts(1), (0, 1));
        assert_eq!(idx.cell_counts(2), (0, 1));
        assert_eq!(idx.cell_counts(3), (0, 1));
        assert_eq!(idx.is_registered_empty(VehicleId(2)), Some(false));

        // Switching back to empty removes all non-empty registrations.
        idx.update_empty(VehicleId(2), 0);
        assert_eq!(idx.cell_counts(1), (0, 0));
        assert_eq!(idx.cell_counts(0), (1, 0));
    }

    #[test]
    fn remove_clears_registration() {
        let mut idx = VehicleIndex::new(4);
        idx.update_empty(VehicleId(3), 2);
        idx.remove(VehicleId(3));
        assert_eq!(idx.num_vehicles(), 0);
        assert_eq!(idx.cell_counts(2), (0, 0));
        assert!(idx.is_registered_empty(VehicleId(3)).is_none());
        // Removing twice is a no-op.
        idx.remove(VehicleId(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cell_panics() {
        let mut idx = VehicleIndex::new(2);
        idx.update_empty(VehicleId(1), 5);
    }

    #[test]
    fn pickup_candidates_filter_by_location_bound() {
        let net = Arc::new(lattice(4, 1000.0));
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(2, 2));
        let oracle = ptrider_roadnet::DistanceOracle::new(Arc::clone(&net), Arc::new(grid.clone()));
        let mut vehicles = HashMap::new();
        let mut idx = VehicleIndex::new(grid.num_cells());
        for (i, loc) in [VertexId(0), VertexId(15)].into_iter().enumerate() {
            let v = Vehicle::new(VehicleId(i as u32), 4, loc);
            idx.update_from_vehicle(&v, &net, &grid);
            vehicles.insert(v.id(), v);
        }
        // A wide radius admits the whole fleet, sorted by id.
        let all = idx.pickup_candidates(&vehicles, &net, &grid, &oracle, VertexId(1), 1e9);
        assert_eq!(all, vec![VehicleId(0), VehicleId(1)]);
        // A 1.5 km radius keeps the adjacent vehicle (exact pickup 1 km)
        // and provably excludes the far corner (Euclidean bound > 3.6 km).
        let near = idx.pickup_candidates(&vehicles, &net, &grid, &oracle, VertexId(1), 1500.0);
        assert_eq!(near, vec![VehicleId(0)]);
        // The grid-cell walk agrees with the reference scan everywhere.
        for radius in [0.0, 800.0, 1500.0, 4000.0, 1e9] {
            for pickup in [VertexId(0), VertexId(5), VertexId(10), VertexId(15)] {
                assert_eq!(
                    idx.pickup_candidates(&vehicles, &net, &grid, &oracle, pickup, radius),
                    idx.pickup_candidates_scan(&vehicles, &oracle, pickup, radius),
                    "walk/scan divergence at pickup {pickup}, radius {radius}"
                );
            }
        }
    }

    #[test]
    fn pickup_candidate_walk_matches_scan_with_busy_fleet() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        // A larger lattice with a mixed fleet: empty vehicles everywhere,
        // and a share of busy vehicles whose schedules register them in
        // many cells — the case where a naive walk could double-count or
        // miss the location cell.
        let net = Arc::new(lattice(10, 400.0));
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(5, 5));
        let oracle = ptrider_roadnet::DistanceOracle::new(Arc::clone(&net), Arc::new(grid.clone()));
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let n = net.num_vertices() as u32;
        let mut vehicles = HashMap::new();
        let mut idx = VehicleIndex::new(grid.num_cells());
        for i in 0..40u32 {
            let loc = VertexId(rng.gen_range(0..n));
            let mut v = Vehicle::new(VehicleId(i), 4, loc);
            if i % 3 == 0 {
                // Make every third vehicle busy with a random trip.
                let s = VertexId(rng.gen_range(0..n));
                let d = VertexId(rng.gen_range(0..n));
                if s != d {
                    let direct = oracle.distance(s, d);
                    let req = ProspectiveRequest::new(RequestId(i as u64), s, d, 1, direct, 0.5);
                    let _ = v.assign(&oracle, &req, oracle.distance(loc, s), 1e9, 10.0, 0.0);
                }
            }
            idx.update_from_vehicle(&v, &net, &grid);
            vehicles.insert(v.id(), v);
        }
        for _ in 0..60 {
            let pickup = VertexId(rng.gen_range(0..n));
            let radius = rng.gen_range(0.0..5000.0);
            assert_eq!(
                idx.pickup_candidates(&vehicles, &net, &grid, &oracle, pickup, radius),
                idx.pickup_candidates_scan(&vehicles, &oracle, pickup, radius),
                "walk/scan divergence at pickup {pickup}, radius {radius}"
            );
        }
    }

    #[test]
    fn schedule_cells_cover_the_path() {
        let net = Arc::new(lattice(6, 500.0));
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(3, 3));
        let oracle = ptrider_roadnet::DistanceOracle::new(Arc::clone(&net), Arc::new(grid.clone()));

        // Vehicle at the bottom-left corner, request crossing to the
        // top-right corner: the schedule path must cross several cells.
        let mut v = Vehicle::new(VehicleId(1), 4, VertexId(0));
        let s = VertexId(7);
        let d = VertexId(35);
        let direct = ptrider_roadnet::dijkstra::distance(&net, s, d).unwrap();
        let req = ProspectiveRequest::new(RequestId(1), s, d, 1, direct, 0.5);
        v.assign(&oracle, &req, 1000.0, 5000.0, 10.0, 0.0).unwrap();

        let cells = schedule_cells(&v, &net, &grid);
        assert!(
            cells.len() > 1,
            "a cross-city trip must span multiple cells"
        );
        // The cells of the pickup and the drop-off are always included.
        assert!(cells.contains(&grid.cell_of(s)));
        assert!(cells.contains(&grid.cell_of(d)));
        assert!(cells.contains(&grid.cell_of(VertexId(0))));

        // update_from_vehicle registers exactly those cells.
        let mut idx = VehicleIndex::new(grid.num_cells());
        idx.update_from_vehicle(&v, &net, &grid);
        assert_eq!(idx.cells_of(VehicleId(1)), cells.as_slice());
        assert_eq!(idx.is_registered_empty(VehicleId(1)), Some(false));

        // An empty vehicle registers in its location cell only.
        let empty = Vehicle::new(VehicleId(2), 4, VertexId(20));
        idx.update_from_vehicle(&empty, &net, &grid);
        assert_eq!(idx.cells_of(VehicleId(2)), &[grid.cell_of(VertexId(20))]);
    }
}
