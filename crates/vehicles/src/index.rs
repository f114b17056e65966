//! The vehicle grid index: per-cell empty and non-empty vehicle lists
//! (Section 3.2.1, items (iv) and (v) of the grid-cell contents).
//!
//! Every vehicle is registered in exactly one cell, the one that contains
//! its current location: in that cell's empty list while it has no
//! unfinished requests, in its non-empty list otherwise.
//!
//! The paper also lists a non-empty vehicle under every cell that one of
//! its kinetic-tree legs crosses. The matchers never need those cells. The
//! search's cell-level stop (P4) bounds every vehicle it has not met yet
//! by the cell of that vehicle's location, and the per-vehicle bounds read
//! the vehicle itself, so the leg cells could only make the search meet a
//! busy vehicle earlier: they reorder the visits and leave the skyline as
//! it is. Registering the location cell alone makes a location update one
//! map lookup instead of a path search per leg.

use crate::types::VehicleId;
use crate::vehicle::Vehicle;
use ptrider_roadnet::{CellId, GridIndex};
use std::collections::{BTreeSet, HashMap};

/// Per-grid-cell empty / non-empty vehicle lists.
#[derive(Clone, Debug)]
pub struct VehicleIndex {
    num_cells: usize,
    empty: Vec<BTreeSet<VehicleId>>,
    non_empty: Vec<BTreeSet<VehicleId>>,
    /// For each registered vehicle: whether it is empty and the cell it is
    /// registered in.
    registration: HashMap<VehicleId, (bool, CellId)>,
}

impl VehicleIndex {
    /// Creates an index with one (empty, non-empty) list pair per grid cell.
    pub fn new(num_cells: usize) -> Self {
        VehicleIndex {
            num_cells,
            empty: vec![BTreeSet::new(); num_cells],
            non_empty: vec![BTreeSet::new(); num_cells],
            registration: HashMap::new(),
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

    /// Registers (or re-registers) a vehicle in the empty or non-empty list
    /// of `cell`. Idempotent: an unchanged registration is a single map
    /// operation (the common case under a high location-update load — most
    /// moves stay within one grid cell).
    pub fn register(&mut self, vehicle: VehicleId, empty: bool, cell: CellId) {
        assert!(cell < self.num_cells, "cell {cell} out of range");
        match self.registration.insert(vehicle, (empty, cell)) {
            Some(old) if old == (empty, cell) => return,
            Some((was_empty, old_cell)) => {
                self.lists_mut(was_empty)[old_cell].remove(&vehicle);
            }
            None => {}
        }
        self.lists_mut(empty)[cell].insert(vehicle);
    }

    /// Removes a vehicle from the index entirely.
    pub fn remove(&mut self, vehicle: VehicleId) {
        if let Some((empty, cell)) = self.registration.remove(&vehicle) {
            self.lists_mut(empty)[cell].remove(&vehicle);
        }
    }

    fn lists_mut(&mut self, empty: bool) -> &mut [BTreeSet<VehicleId>] {
        if empty {
            &mut self.empty
        } else {
            &mut self.non_empty
        }
    }

    /// Empty vehicles currently located in a cell.
    pub fn empty_in_cell(&self, cell: CellId) -> impl Iterator<Item = VehicleId> + '_ {
        self.empty[cell].iter().copied()
    }

    /// Non-empty vehicles currently located in a cell.
    pub fn non_empty_in_cell(&self, cell: CellId) -> impl Iterator<Item = VehicleId> + '_ {
        self.non_empty[cell].iter().copied()
    }

    /// `(empty, non-empty)` counts for a cell.
    pub fn cell_counts(&self, cell: CellId) -> (usize, usize) {
        (self.empty[cell].len(), self.non_empty[cell].len())
    }

    /// The cell a vehicle is registered in (`None` when it is unknown).
    pub fn cell_of(&self, vehicle: VehicleId) -> Option<CellId> {
        self.registration.get(&vehicle).map(|&(_, cell)| cell)
    }

    /// `true` when the vehicle is registered as empty.
    pub fn is_registered_empty(&self, vehicle: VehicleId) -> Option<bool> {
        self.registration.get(&vehicle).map(|&(empty, _)| empty)
    }

    /// Registers a vehicle from its current state: in its location cell,
    /// empty or not.
    pub fn update_from_vehicle(&mut self, vehicle: &Vehicle, grid: &GridIndex) {
        self.register(
            vehicle.id(),
            vehicle.is_empty(),
            grid.cell_of(vehicle.location()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ProspectiveRequest;
    use crate::types::RequestId;
    use ptrider_roadnet::{GridConfig, RoadNetwork, RoadNetworkBuilder, VertexId};
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
        idx.register(VehicleId(1), true, 4);
        assert_eq!(idx.num_vehicles(), 1);
        assert_eq!(idx.cell_counts(4), (1, 0));
        assert_eq!(idx.cell_of(VehicleId(1)), Some(4));
        assert_eq!(idx.is_registered_empty(VehicleId(1)), Some(true));

        // Moving to a new cell re-registers.
        idx.register(VehicleId(1), true, 7);
        assert_eq!(idx.cell_counts(4), (0, 0));
        assert_eq!(idx.cell_counts(7), (1, 0));
    }

    #[test]
    fn non_empty_registration_deduplicates_cells() {
        let mut idx = VehicleIndex::new(9);
        for _ in 0..3 {
            idx.register(VehicleId(2), false, 1);
        }
        assert_eq!(idx.num_vehicles(), 1);
        assert_eq!(idx.cell_of(VehicleId(2)), Some(1));
        assert_eq!(idx.cell_counts(1), (0, 1));
        assert_eq!(idx.is_registered_empty(VehicleId(2)), Some(false));

        // Switching back to empty leaves the non-empty list, even in the
        // same cell.
        idx.register(VehicleId(2), true, 1);
        assert_eq!(idx.cell_counts(1), (1, 0));
        idx.register(VehicleId(2), true, 0);
        assert_eq!(idx.cell_counts(1), (0, 0));
        assert_eq!(idx.cell_counts(0), (1, 0));
    }

    #[test]
    fn remove_clears_registration() {
        let mut idx = VehicleIndex::new(4);
        idx.register(VehicleId(3), true, 2);
        idx.remove(VehicleId(3));
        assert_eq!(idx.num_vehicles(), 0);
        assert_eq!(idx.cell_counts(2), (0, 0));
        assert!(idx.is_registered_empty(VehicleId(3)).is_none());
        assert!(idx.cell_of(VehicleId(3)).is_none());
        // Removing twice is a no-op.
        idx.remove(VehicleId(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cell_panics() {
        let mut idx = VehicleIndex::new(2);
        idx.register(VehicleId(1), true, 5);
    }

    #[test]
    fn a_busy_vehicle_is_registered_in_its_location_cell_only() {
        let net = Arc::new(lattice(6, 500.0));
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(3, 3));
        let oracle = ptrider_roadnet::DistanceOracle::new(Arc::clone(&net), Arc::new(grid.clone()));

        // Vehicle at the bottom-left corner, request crossing to the
        // top-right corner: the schedule crosses several cells, the
        // registration stays in one.
        let mut v = Vehicle::new(VehicleId(1), 4, VertexId(0));
        let s = VertexId(7);
        let d = VertexId(35);
        let direct = ptrider_roadnet::dijkstra::distance(&net, s, d).unwrap();
        let req = ProspectiveRequest::new(RequestId(1), s, d, 1, direct, 0.5);
        v.assign(&oracle, &req, 1000.0, 5000.0, 10.0, 0.0).unwrap();

        // Drive the trip one vertex at a time; after every move or stop the
        // vehicle sits in exactly one list of one cell: its location's.
        let mut idx = VehicleIndex::new(grid.num_cells());
        let mut cells_seen = BTreeSet::new();
        while let Some(stop) = v.next_stop() {
            if v.location() == stop.location {
                v.serve_next_stop(&oracle).unwrap();
            } else {
                let (_, path) =
                    ptrider_roadnet::dijkstra::shortest_path(&net, v.location(), stop.location)
                        .unwrap();
                v.move_to(&oracle, path[1], 500.0);
            }
            idx.update_from_vehicle(&v, &grid);
            let cell = grid.cell_of(v.location());
            cells_seen.insert(cell);
            assert_eq!(idx.cell_of(VehicleId(1)), Some(cell));
            assert_eq!(idx.is_registered_empty(VehicleId(1)), Some(v.is_empty()));
            let listed: usize = (0..grid.num_cells())
                .map(|c| {
                    let (empty, busy) = idx.cell_counts(c);
                    empty + busy
                })
                .sum();
            assert_eq!(listed, 1, "one list of one cell");
        }
        assert!(v.is_empty());
        assert_eq!(idx.cell_counts(grid.cell_of(d)), (1, 0));
        assert!(
            cells_seen.len() > 2,
            "the registration moved with the vehicle"
        );

        // An empty vehicle registers in its location cell too.
        let empty = Vehicle::new(VehicleId(2), 4, VertexId(20));
        idx.update_from_vehicle(&empty, &grid);
        assert_eq!(idx.cell_of(VehicleId(2)), Some(grid.cell_of(VertexId(20))));
        assert_eq!(idx.is_registered_empty(VehicleId(2)), Some(true));
    }
}
