//! Vehicle substrate for PTRider: vehicle state, kinetic trees of valid trip
//! schedules (Section 3.2.2 of the paper) and the per-grid-cell vehicle
//! index (empty / non-empty lists of Section 3.2.1).
//!
//! A vehicle carries a set of unfinished ridesharing requests and a kinetic
//! tree whose root-to-leaf branches are exactly the *valid trip schedules*
//! of Definition 2: they respect the capacity constraint, the point order,
//! the waiting-time constraint and the service constraint. The tree is the
//! structure of Huang et al. (Noah, SIGMOD'13) extended — as the paper
//! describes — with per-node residual capacity, detour slack and `dist_tr`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distances;
pub mod index;
pub mod kinetic;
pub mod request;
pub mod types;
pub mod vehicle;

pub use distances::{Distances, FnDistances, PrefetchedDistances};
pub use index::VehicleIndex;
pub use kinetic::{InsertionCandidate, KineticNode, KineticTree, ScheduleContext};
pub use request::{AssignedRequest, ProspectiveRequest, RequestProgress};
pub use types::{RequestId, Stop, StopKind, VehicleId};
pub use vehicle::{StopEvent, Vehicle, VehicleSnapshot};
