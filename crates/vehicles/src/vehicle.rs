//! Vehicle state: location, odometer, capacity, assigned requests and the
//! kinetic tree of valid trip schedules (Section 3.2.2).
//!
//! A [`Vehicle`] is represented exactly as the paper describes: its unique
//! identifier, its current location, the set of unfinished ridesharing
//! requests assigned to it (sorted by assignment time) and the set of all
//! valid trip schedules, managed by a [`KineticTree`].

use crate::distances::{Distances, PrefetchedDistances};
use crate::kinetic::{InsertionCandidate, KineticTree, ScheduleContext};
use crate::request::{AssignedRequest, ProspectiveRequest, RequestProgress};
use crate::types::{RequestId, Stop, StopKind, VehicleId};
use ptrider_roadnet::VertexId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What happened when the vehicle served a stop.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StopEvent {
    /// Riders of the request boarded at the stop.
    PickedUp {
        /// The request whose riders boarded.
        request: RequestId,
        /// Number of riders who boarded.
        riders: u32,
    },
    /// Riders of the request alighted; the request is complete and has been
    /// removed from the vehicle.
    DroppedOff {
        /// The completed request.
        request: AssignedRequest,
        /// Total distance the riders spent on board.
        onboard_distance: f64,
    },
}

/// A taxi participating in ridesharing.
#[derive(Clone, Debug)]
pub struct Vehicle {
    id: VehicleId,
    capacity: u32,
    location: VertexId,
    odometer: f64,
    requests: HashMap<RequestId, AssignedRequest>,
    tree: KineticTree,
}

impl Vehicle {
    /// Creates an empty vehicle at `location` with the given rider capacity.
    pub fn new(id: VehicleId, capacity: u32, location: VertexId) -> Self {
        Vehicle {
            id,
            capacity,
            location,
            odometer: 0.0,
            requests: HashMap::new(),
            tree: KineticTree::new(),
        }
    }

    /// Reassembles a vehicle from externally stored state — the
    /// snapshot-restore path of the admission journal. The parts must come
    /// from a consistent capture (the tree's schedules serve exactly the
    /// given requests); a restore is then bit-identical to the captured
    /// vehicle, including every kinetic-tree annotation.
    pub fn from_parts(
        id: VehicleId,
        capacity: u32,
        location: VertexId,
        odometer: f64,
        requests: Vec<AssignedRequest>,
        tree: KineticTree,
    ) -> Self {
        Vehicle {
            id,
            capacity,
            location,
            odometer,
            requests: requests.into_iter().map(|r| (r.id, r)).collect(),
            tree,
        }
    }

    /// The vehicle identifier.
    pub fn id(&self) -> VehicleId {
        self.id
    }

    /// Maximum number of riders the vehicle can carry at once.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Current location (a road-network vertex).
    pub fn location(&self) -> VertexId {
        self.location
    }

    /// Total distance driven so far, in metres.
    pub fn odometer(&self) -> f64 {
        self.odometer
    }

    /// `true` when the vehicle has no unfinished requests (an *empty vehicle*
    /// in the paper's terminology — it may still be driving around).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Riders currently on board.
    pub fn onboard_riders(&self) -> u32 {
        self.requests
            .values()
            .filter(|r| !r.is_waiting())
            .map(|r| r.riders)
            .sum()
    }

    /// Residual capacity (seats not currently occupied).
    pub fn free_seats(&self) -> u32 {
        self.capacity.saturating_sub(self.onboard_riders())
    }

    /// The vehicle's unfinished requests, sorted by assignment time.
    pub fn requests(&self) -> Vec<&AssignedRequest> {
        let mut v: Vec<&AssignedRequest> = self.requests.values().collect();
        v.sort_by(|a, b| {
            a.assigned_at_time
                .partial_cmp(&b.assigned_at_time)
                .unwrap()
                .then(a.id.cmp(&b.id))
        });
        v
    }

    /// Number of unfinished requests.
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// Looks up an unfinished request.
    pub fn request(&self, id: RequestId) -> Option<&AssignedRequest> {
        self.requests.get(&id)
    }

    /// The kinetic tree of valid trip schedules.
    pub fn kinetic_tree(&self) -> &KineticTree {
        &self.tree
    }

    /// Total distance of the best current schedule (`dist_tri` in the price
    /// model of Definition 3); 0 when the vehicle is empty.
    pub fn current_best_distance(&self) -> f64 {
        self.tree.best_distance()
    }

    /// The best (shortest) current trip schedule.
    pub fn current_schedule(&self) -> Vec<Stop> {
        self.tree.best_branch().map(|(s, _)| s).unwrap_or_default()
    }

    /// All valid trip schedules (branches of the kinetic tree).
    pub fn all_schedules(&self) -> Vec<Vec<Stop>> {
        if self.tree.is_empty() {
            Vec::new()
        } else {
            self.tree.branches()
        }
    }

    /// The stop the vehicle is currently driving to.
    pub fn next_stop(&self) -> Option<Stop> {
        self.tree.next_stop()
    }

    /// Prefetches the pairwise distance matrix over every location a
    /// kinetic-tree evaluation of this vehicle can touch: the current
    /// location, every scheduled stop and `extra` (a prospective request's
    /// pickup/drop-off). Each distinct location costs one batched
    /// one-to-many query on the backend instead of `k` point-to-point
    /// searches.
    fn prefetch<'a, D: Distances>(
        &self,
        dist: &'a D,
        extra: &[VertexId],
    ) -> PrefetchedDistances<'a, D> {
        let mut locations = Vec::with_capacity(2 + self.tree.size() + extra.len());
        locations.push(self.location);
        locations.extend(self.tree.stops().iter().map(|s| s.location));
        locations.extend_from_slice(extra);
        PrefetchedDistances::new(dist, locations)
    }

    /// Enumerates every feasible insertion of a prospective request into the
    /// vehicle's schedules. This is the verification step of the matching
    /// algorithms; the returned candidates carry the pickup distance and the
    /// new total trip distance needed to price each option.
    ///
    /// All schedule legs are evaluated against a prefetched distance matrix,
    /// so the backend sees a handful of batched one-to-many queries rather
    /// than one point-to-point search per leg.
    pub fn insertion_candidates<D: Distances>(
        &self,
        dist: &D,
        req: &ProspectiveRequest,
    ) -> Vec<InsertionCandidate> {
        if !self.requests.is_empty() && self.tree.is_empty() {
            // Defensive: a vehicle with committed requests but no known valid
            // schedule must not offer options that would ignore those riders.
            return Vec::new();
        }
        if self.tree.is_empty() {
            // Empty vehicle: the single candidate needs two point distances;
            // prefetching a 3×3 matrix would only waste backend searches.
            let ctx = ScheduleContext {
                start: self.location,
                odometer: self.odometer,
                capacity: self.capacity,
                initial_occupancy: self.onboard_riders(),
                requests: &self.requests,
                dist,
            };
            return self.tree.insertion_candidates(&ctx, req);
        }
        let prefetched = self.prefetch(dist, &[req.pickup, req.dropoff]);
        let ctx = ScheduleContext {
            start: self.location,
            odometer: self.odometer,
            capacity: self.capacity,
            initial_occupancy: self.onboard_riders(),
            requests: &self.requests,
            dist: &prefetched,
        };
        self.tree.insertion_candidates(&ctx, req)
    }

    /// Assigns a request to the vehicle after the rider has chosen one of its
    /// options.
    ///
    /// * `planned_pickup_dist` — the `dist_pt` of the chosen option; together
    ///   with `max_wait_dist` (the waiting-time constraint `w` converted to
    ///   metres at the constant speed) it fixes the absolute pickup deadline.
    /// * `price` — the agreed price (recorded for statistics).
    /// * `now` — current simulation time in seconds.
    ///
    /// Returns the number of valid schedules the kinetic tree now holds, or
    /// `None` if no valid schedule can serve the request (the caller should
    /// treat this as an assignment failure; it can only happen if the
    /// vehicle's state changed since the options were computed).
    #[allow(clippy::too_many_arguments)]
    pub fn assign<D: Distances>(
        &mut self,
        dist: &D,
        req: &ProspectiveRequest,
        planned_pickup_dist: f64,
        max_wait_dist: f64,
        price: f64,
        now: f64,
    ) -> Option<usize> {
        let candidates = self.insertion_candidates(dist, req);
        if candidates.is_empty() {
            return None;
        }
        let assigned = AssignedRequest {
            id: req.id,
            riders: req.riders,
            pickup: req.pickup,
            dropoff: req.dropoff,
            direct_dist: req.direct_dist,
            max_onboard_dist: req.max_onboard_dist,
            pickup_deadline_odometer: self.odometer + planned_pickup_dist + max_wait_dist,
            assigned_at_odometer: self.odometer,
            assigned_at_time: now,
            planned_pickup_dist,
            price,
            progress: RequestProgress::Waiting,
        };
        self.requests.insert(req.id, assigned);
        let prefetched = self.prefetch(dist, &[req.pickup, req.dropoff]);
        let ctx = ScheduleContext {
            start: self.location,
            odometer: self.odometer,
            capacity: self.capacity,
            initial_occupancy: self.onboard_riders(),
            requests: &self.requests,
            dist: &prefetched,
        };
        let kept = self
            .tree
            .commit_insertion(&ctx, candidates.into_iter().map(|c| c.stops).collect());
        if kept == 0 {
            // Roll back: the request cannot actually be served (e.g. the
            // chosen deadline is tighter than every candidate schedule).
            self.requests.remove(&req.id);
            let ctx = ScheduleContext {
                start: self.location,
                odometer: self.odometer,
                capacity: self.capacity,
                initial_occupancy: self
                    .requests
                    .values()
                    .filter(|r| !r.is_waiting())
                    .map(|r| r.riders)
                    .sum(),
                requests: &self.requests,
                dist: &prefetched,
            };
            self.tree.recompute(&ctx);
            return None;
        }
        Some(kept)
    }

    /// Moves the vehicle to a new location after driving `travelled` metres.
    ///
    /// Updates the odometer, the on-board distance of every riding request
    /// and re-evaluates the kinetic tree from the new location.
    pub fn move_to<D: Distances>(&mut self, dist: &D, new_location: VertexId, travelled: f64) {
        self.location = new_location;
        self.odometer += travelled;
        for req in self.requests.values_mut() {
            if let RequestProgress::OnBoard { travelled: t } = &mut req.progress {
                *t += travelled;
            }
        }
        if self.tree.is_empty() {
            // No schedules to re-evaluate (recompute would be a no-op); this
            // keeps idle-fleet location updates allocation-free.
            return;
        }
        let prefetched = self.prefetch(dist, &[]);
        let ctx = ScheduleContext {
            start: self.location,
            odometer: self.odometer,
            capacity: self.capacity,
            initial_occupancy: self
                .requests
                .values()
                .filter(|r| !r.is_waiting())
                .map(|r| r.riders)
                .sum(),
            requests: &self.requests,
            dist: &prefetched,
        };
        self.tree.recompute(&ctx);
    }

    /// Serves the next stop of the best schedule. The vehicle must already be
    /// located at that stop's vertex (the simulator moves it there first).
    ///
    /// Returns the event describing what happened, or `None` when the vehicle
    /// has no scheduled stop or is not at the stop's location.
    pub fn serve_next_stop<D: Distances>(&mut self, dist: &D) -> Option<StopEvent> {
        let stop = self.tree.next_stop()?;
        if stop.location != self.location {
            return None;
        }
        let advanced = self.tree.advance_to_stop(&stop);
        debug_assert!(advanced, "next_stop must be a current root");

        let event = match stop.kind {
            StopKind::Pickup => {
                let req = self
                    .requests
                    .get_mut(&stop.request)
                    .expect("scheduled stop belongs to an assigned request");
                req.progress = RequestProgress::OnBoard { travelled: 0.0 };
                StopEvent::PickedUp {
                    request: stop.request,
                    riders: stop.riders,
                }
            }
            StopKind::Dropoff => {
                let req = self
                    .requests
                    .remove(&stop.request)
                    .expect("scheduled stop belongs to an assigned request");
                let onboard_distance = req.travelled_onboard();
                StopEvent::DroppedOff {
                    request: req,
                    onboard_distance,
                }
            }
        };

        if !self.tree.is_empty() {
            let prefetched = self.prefetch(dist, &[]);
            let ctx = ScheduleContext {
                start: self.location,
                odometer: self.odometer,
                capacity: self.capacity,
                initial_occupancy: self
                    .requests
                    .values()
                    .filter(|r| !r.is_waiting())
                    .map(|r| r.riders)
                    .sum(),
                requests: &self.requests,
                dist: &prefetched,
            };
            self.tree.recompute(&ctx);
        }
        Some(event)
    }

    /// Locations of the outstanding stops — each waiting request's pickup
    /// and every request's drop-off — without walking the kinetic tree
    /// (duplicates possible).
    pub fn stop_locations(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.requests.values().flat_map(|r| {
            let pickup = r.is_waiting().then_some(r.pickup);
            pickup.into_iter().chain(std::iter::once(r.dropoff))
        })
    }

    /// Locations of every stop in the kinetic tree (used to register the
    /// vehicle's schedule legs in the vehicle grid index).
    pub fn scheduled_locations(&self) -> Vec<VertexId> {
        self.tree.stops().iter().map(|s| s.location).collect()
    }
}

/// Serialisable snapshot of a vehicle (for statistics / reporting).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VehicleSnapshot {
    /// Vehicle identifier.
    pub id: VehicleId,
    /// Current location.
    pub location: VertexId,
    /// Odometer reading in metres.
    pub odometer: f64,
    /// Riders on board.
    pub onboard: u32,
    /// Number of unfinished requests.
    pub pending_requests: usize,
    /// Number of valid schedules in the kinetic tree.
    pub schedules: usize,
}

impl From<&Vehicle> for VehicleSnapshot {
    fn from(v: &Vehicle) -> Self {
        VehicleSnapshot {
            id: v.id(),
            location: v.location(),
            odometer: v.odometer(),
            onboard: v.onboard_riders(),
            pending_requests: v.num_requests(),
            schedules: v.all_schedules().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distances::FnDistances;

    fn line_dist() -> FnDistances<impl Fn(VertexId, VertexId) -> f64> {
        FnDistances(|u: VertexId, v: VertexId| (u.0 as f64 - v.0 as f64).abs() * 100.0)
    }

    fn request(id: u64, s: u32, d: u32, riders: u32, detour: f64) -> ProspectiveRequest {
        ProspectiveRequest::new(
            RequestId(id),
            VertexId(s),
            VertexId(d),
            riders,
            (s as f64 - d as f64).abs() * 100.0,
            detour,
        )
    }

    #[test]
    fn new_vehicle_is_empty() {
        let v = Vehicle::new(VehicleId(1), 4, VertexId(3));
        assert!(v.is_empty());
        assert_eq!(v.onboard_riders(), 0);
        assert_eq!(v.free_seats(), 4);
        assert_eq!(v.current_best_distance(), 0.0);
        assert!(v.next_stop().is_none());
        assert!(v.all_schedules().is_empty());
    }

    #[test]
    fn assign_and_serve_full_trip() {
        let dist = line_dist();
        let mut v = Vehicle::new(VehicleId(1), 4, VertexId(0));
        let r = request(1, 2, 5, 2, 0.2);
        let cands = v.insertion_candidates(&dist, &r);
        assert_eq!(cands.len(), 1);
        let pickup_dist = cands[0].pickup_dist;
        assert_eq!(pickup_dist, 200.0);

        let kept = v.assign(&dist, &r, pickup_dist, 400.0, 3.0, 10.0).unwrap();
        assert_eq!(kept, 1);
        assert!(!v.is_empty());
        assert_eq!(v.num_requests(), 1);
        assert_eq!(v.current_best_distance(), 500.0);
        assert_eq!(
            v.request(RequestId(1)).unwrap().pickup_deadline_odometer,
            600.0
        );

        // Drive to the pickup.
        v.move_to(&dist, VertexId(2), 200.0);
        assert_eq!(v.odometer(), 200.0);
        let ev = v.serve_next_stop(&dist).unwrap();
        assert_eq!(
            ev,
            StopEvent::PickedUp {
                request: RequestId(1),
                riders: 2
            }
        );
        assert_eq!(v.onboard_riders(), 2);
        assert_eq!(v.free_seats(), 2);

        // Drive to the drop-off.
        v.move_to(&dist, VertexId(5), 300.0);
        let ev = v.serve_next_stop(&dist).unwrap();
        match ev {
            StopEvent::DroppedOff {
                request,
                onboard_distance,
            } => {
                assert_eq!(request.id, RequestId(1));
                assert_eq!(onboard_distance, 300.0);
            }
            other => panic!("expected drop-off, got {other:?}"),
        }
        assert!(v.is_empty());
        assert_eq!(v.onboard_riders(), 0);
        assert_eq!(v.odometer(), 500.0);
    }

    #[test]
    fn serve_next_stop_requires_being_at_the_stop() {
        let dist = line_dist();
        let mut v = Vehicle::new(VehicleId(1), 4, VertexId(0));
        let r = request(1, 2, 5, 1, 0.2);
        v.assign(&dist, &r, 200.0, 400.0, 3.0, 0.0).unwrap();
        // Still at v0: cannot serve.
        assert!(v.serve_next_stop(&dist).is_none());
    }

    #[test]
    fn assign_fails_when_capacity_exceeded() {
        let dist = line_dist();
        let mut v = Vehicle::new(VehicleId(1), 2, VertexId(0));
        let r = request(1, 2, 5, 3, 0.2);
        assert!(v.assign(&dist, &r, 200.0, 400.0, 3.0, 0.0).is_none());
        assert!(v.is_empty());
    }

    #[test]
    fn second_request_shares_the_ride() {
        let dist = line_dist();
        let mut v = Vehicle::new(VehicleId(1), 4, VertexId(0));
        let r1 = request(1, 2, 8, 1, 0.5);
        v.assign(&dist, &r1, 200.0, 1000.0, 4.0, 0.0).unwrap();
        let r2 = request(2, 4, 6, 1, 0.5);
        let cands = v.insertion_candidates(&dist, &r2);
        assert!(!cands.is_empty());
        let best = cands
            .iter()
            .min_by(|a, b| a.total_dist.partial_cmp(&b.total_dist).unwrap())
            .unwrap();
        // Nested trip adds no extra distance on a line.
        assert_eq!(best.total_dist, 800.0);
        let kept = v
            .assign(&dist, &r2, best.pickup_dist, 1000.0, 2.0, 5.0)
            .unwrap();
        assert!(kept >= 1);
        assert_eq!(v.num_requests(), 2);
        // Requests are sorted by assignment time.
        let ids: Vec<_> = v.requests().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![RequestId(1), RequestId(2)]);
    }

    #[test]
    fn onboard_distance_accumulates_across_moves() {
        let dist = line_dist();
        let mut v = Vehicle::new(VehicleId(1), 4, VertexId(0));
        let r = request(1, 1, 6, 1, 1.0);
        v.assign(&dist, &r, 100.0, 1000.0, 3.0, 0.0).unwrap();
        v.move_to(&dist, VertexId(1), 100.0);
        v.serve_next_stop(&dist).unwrap();
        v.move_to(&dist, VertexId(3), 200.0);
        v.move_to(&dist, VertexId(6), 300.0);
        let req = v.request(RequestId(1)).unwrap();
        assert_eq!(req.travelled_onboard(), 500.0);
        let ev = v.serve_next_stop(&dist).unwrap();
        match ev {
            StopEvent::DroppedOff {
                onboard_distance, ..
            } => assert_eq!(onboard_distance, 500.0),
            other => panic!("expected drop-off, got {other:?}"),
        }
    }

    #[test]
    fn scheduled_locations_cover_all_stops() {
        let dist = line_dist();
        let mut v = Vehicle::new(VehicleId(1), 4, VertexId(0));
        v.assign(&dist, &request(1, 2, 8, 1, 0.5), 200.0, 1000.0, 4.0, 0.0)
            .unwrap();
        v.assign(&dist, &request(2, 4, 6, 1, 0.5), 400.0, 1000.0, 2.0, 0.0)
            .unwrap();
        let locs = v.scheduled_locations();
        for expected in [2u32, 8, 4, 6] {
            assert!(locs.contains(&VertexId(expected)));
        }
    }

    #[test]
    fn stop_locations_match_the_tree_stops() {
        let dist = line_dist();
        let mut v = Vehicle::new(VehicleId(1), 4, VertexId(0));
        v.assign(&dist, &request(1, 2, 8, 1, 0.5), 200.0, 1000.0, 4.0, 0.0)
            .unwrap();
        v.assign(&dist, &request(2, 4, 6, 1, 0.5), 400.0, 1000.0, 2.0, 0.0)
            .unwrap();
        v.move_to(&dist, VertexId(2), 200.0);
        v.serve_next_stop(&dist).unwrap();
        let mut direct: Vec<_> = v.stop_locations().collect();
        let mut tree = v.scheduled_locations();
        direct.sort_unstable();
        tree.sort_unstable();
        assert_eq!(direct, tree);
        assert!(!direct.contains(&VertexId(2)), "served pickup is gone");
    }

    #[test]
    fn from_parts_round_trips_a_vehicle() {
        let dist = line_dist();
        let mut v = Vehicle::new(VehicleId(3), 4, VertexId(0));
        v.assign(&dist, &request(1, 2, 8, 2, 0.5), 200.0, 1000.0, 4.0, 0.0)
            .unwrap();
        v.move_to(&dist, VertexId(2), 200.0);
        let rebuilt = Vehicle::from_parts(
            v.id(),
            v.capacity(),
            v.location(),
            v.odometer(),
            v.requests().into_iter().cloned().collect(),
            v.kinetic_tree().clone(),
        );
        assert_eq!(rebuilt.id(), v.id());
        assert_eq!(rebuilt.odometer(), v.odometer());
        assert_eq!(rebuilt.num_requests(), v.num_requests());
        assert_eq!(
            rebuilt.current_best_distance().to_bits(),
            v.current_best_distance().to_bits()
        );
        assert_eq!(rebuilt.all_schedules(), v.all_schedules());
    }

    #[test]
    fn snapshot_reflects_state() {
        let dist = line_dist();
        let mut v = Vehicle::new(VehicleId(7), 4, VertexId(0));
        v.assign(&dist, &request(1, 2, 8, 2, 0.5), 200.0, 1000.0, 4.0, 0.0)
            .unwrap();
        let snap = VehicleSnapshot::from(&v);
        assert_eq!(snap.id, VehicleId(7));
        assert_eq!(snap.pending_requests, 1);
        assert_eq!(snap.onboard, 0);
        assert!(snap.schedules >= 1);
    }
}
