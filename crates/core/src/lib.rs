//! PTRider core: the price-and-time-aware ridesharing engine (VLDB 2018).
//!
//! This crate implements the paper's primary contribution:
//!
//! * the **price model** of Definition 3 (`price = f_n · (dist_trj −
//!   dist_tri + dist(s, d))`, `f_n = 0.3 + (n − 1) · 0.1`);
//! * the **skyline** of non-dominated ⟨vehicle, pick-up time, price⟩ options
//!   of Definition 4;
//! * the three **matching algorithms** of Section 3.3 — the naive
//!   kinetic-tree scan, the single-side search and the dual-side search;
//! * the **PTRider engine** of Fig. 2, tying the road-network grid index,
//!   the vehicle index and a matcher into the request → options → choice →
//!   update loop;
//! * the **service layer** ([`RideService`]) — the one front door to that
//!   loop: a concurrent session facade exposing the paper's two-phase
//!   offer/respond interaction as a typed lifecycle (`Pending → Offered →
//!   Confirmed / Declined / Expired`) with clock-driven offer expiry and a
//!   subscriber-visible event log. A [`PtRider`] is the builder a service
//!   is made from (substrate, matcher choice, initial fleet);
//! * [`json`] — the one JSON parser and writer every wire body and the
//!   simulator's report go through.
//!
//! ```
//! use ptrider_core::{Decision, EngineConfig, MatcherKind, OptionId, PtRider, RideService};
//! use ptrider_roadnet::{GridConfig, RoadNetworkBuilder, VertexId};
//!
//! // A tiny two-street network.
//! let mut b = RoadNetworkBuilder::new();
//! let a = b.add_vertex(0.0, 0.0);
//! let m = b.add_vertex(1000.0, 0.0);
//! let z = b.add_vertex(2000.0, 0.0);
//! b.add_bidirectional_edge(a, m, 1000.0);
//! b.add_bidirectional_edge(m, z, 1000.0);
//! let net = b.build().unwrap();
//!
//! let mut engine = PtRider::new(net, GridConfig::with_dimensions(2, 1), EngineConfig::default());
//! engine.set_matcher(MatcherKind::SingleSide);
//! let taxi = engine.add_vehicle(a);
//! let service = RideService::from_engine(engine);
//! let offer = service.submit(m, z, 1, 0.0).unwrap();
//! assert_eq!(offer.options.len(), 1);
//! service.respond(offer.session, Decision::Choose(OptionId(0)), 0.0).unwrap();
//! assert!(!service.with_vehicle(taxi, |v| v.is_empty()).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod events;
pub mod journal;
pub mod json;
pub mod matching;
pub mod options;
pub mod price;
pub mod request;
pub mod runtime;
pub mod service;
pub mod session;
pub mod skyline;
pub mod stats;
pub mod telemetry;

pub use config::EngineConfig;
pub use engine::{BatchOutcome, EngineError, PtRider, TrafficUpdateOutcome};
pub use events::{EngineEvent, EventCursor, EventLog, StampedEvent};
pub use journal::{Journal, JournalConfig, JournalError};
pub use matching::{
    DualSideMatcher, MatchContext, MatchResult, MatchStats, Matcher, MatcherKind, NaiveMatcher,
    SingleSideMatcher,
};
pub use options::RideOption;
pub use price::PriceModel;
pub use request::Request;
pub use runtime::MatchRuntime;
pub use service::{RideService, ServiceConfig};
pub use session::{Confirmation, Decision, Offer, OptionId, ServiceError, SessionId, SessionState};
pub use skyline::Skyline;
pub use stats::EngineStats;
pub use telemetry::{
    Counter, Exemplar, Gauge, Histogram, HistogramSnapshot, PromWriter, SlowEntry, Span, SpanNode,
    Stage, Telemetry, TelemetryConfig, TelemetryLevel, TraceContext, TraceEvent, TraceTree,
};

// Re-export the substrate types users need to drive the engine.
pub use ptrider_roadnet::fault;
pub use ptrider_roadnet::{
    DistanceBackend, GridConfig, GridIndex, LandmarkIndex, RoadNetwork, Speed, TrafficEdge,
    TrafficModel, VertexId,
};
pub use ptrider_vehicles::{RequestId, Stop, StopKind, Vehicle, VehicleId};
