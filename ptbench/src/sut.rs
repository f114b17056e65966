//! The pinned surface: every item of the system under test that the
//! benchmark names is imported here and nowhere else.
//!
//! The rest of the benchmark imports from `crate::sut` only, so this file
//! *is* the list of load-bearing names; the README lists the methods
//! called on them. A later PR that renames, moves or deletes one of these
//! breaks the benchmark at compile time, in this file.

// roadnet: the graph, the grid index and the landmark tables a world is
// built from. (The oracle is reached through `RideService::oracle`; its
// public counters feed the `roadnet.*` layer metrics.)
pub use ptrider_roadnet::{
    DistanceBackend, GridConfig, GridIndex, LandmarkIndex, RoadNetwork, VertexId,
};

// vehicles: ids and stop events. (`Vehicle` is reached through
// `RideService::with_vehicle`; its read-only insertion enumeration is
// what the `vehicles.*` layer metrics time.)
pub use ptrider_vehicles::{RequestId, StopEvent, VehicleId};

// core::{service, matching, journal} plus the config and session types
// their signatures mention. `PtRider` appears only because
// `RideService::from_engine` / `RideService::recover` take one.
pub use ptrider_core::{
    Decision, EngineConfig, Journal, JournalConfig, MatcherKind, OptionId, PtRider, Request,
    RideService, ServiceError,
};

// server: the front door `wire.open` talks to over a real socket.
pub use ptrider_server::{Server, ServerConfig, ServerHandle};

// datagen: the paper-shaped city, fleet and trip stream.
pub use ptrider_datagen::{
    scaled_shanghai, synthetic_city, CityConfig, TimedTrip, TripConfig, TripGenerator,
};

// sim: how a busy vehicle drives and how a rider picks from a skyline.
pub use ptrider_sim::motion::Motion;
pub use ptrider_sim::ChoicePolicy;
