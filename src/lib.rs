//! PTRider — a price-and-time-aware ridesharing system (VLDB 2018),
//! reproduced in Rust.
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`roadnet`] — road network, shortest paths, grid index
//!   (`ptrider-roadnet`);
//! * [`vehicles`] — vehicles, kinetic trees, vehicle index
//!   (`ptrider-vehicles`);
//! * [`core`] — price model, skyline options, matchers and the engine
//!   (`ptrider-core`);
//! * [`datagen`] — synthetic Shanghai-like workloads and the Fig. 1 example
//!   (`ptrider-datagen`);
//! * [`sim`] — the day simulator and its statistics (`ptrider-sim`).
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! The front door is the [`RideService`]: a concurrent (`&self`) facade
//! exposing PTRider's two-phase interaction as a typed session lifecycle —
//! `submit` returns an [`Offer`] with a [`SessionId`] and a deadline, the
//! rider answers with [`Decision::Choose`] / [`Decision::Decline`], and
//! `tick` expires offers the rider abandoned:
//!
//! ```
//! use ptrider::{Decision, EngineConfig, GridConfig, OptionId, RideService, VertexId};
//! use ptrider::datagen::{synthetic_city, CityConfig};
//!
//! let city = synthetic_city(&CityConfig::tiny(1));
//! let service = RideService::new(city, GridConfig::with_dimensions(4, 4),
//!                                EngineConfig::paper_defaults());
//! let taxi = service.add_vehicle(VertexId(0));
//!
//! // Submit → Offer: the price/time skyline plus a typed session handle.
//! let offer = service.submit(VertexId(55), VertexId(99), 2, 0.0).unwrap();
//! assert!(!offer.options.is_empty());
//!
//! // The rider picks the cheapest option and confirms the session.
//! let (cheapest, _) = offer
//!     .iter_ids()
//!     .min_by(|(_, a), (_, b)| a.price.partial_cmp(&b.price).unwrap())
//!     .unwrap();
//! let confirmation = service
//!     .respond(offer.session, Decision::Choose(cheapest), 0.0)
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(confirmation.request, offer.request);
//! assert!(service.with_vehicle(taxi, |v| !v.is_empty()).unwrap());
//!
//! // Double responses are rejected by the session state machine.
//! assert!(service.respond(offer.session, Decision::Choose(OptionId(0)), 0.0).is_err());
//! ```
//!
//! A [`PtRider`] is the builder a service is made from
//! ([`RideService::from_engine`]): it holds the network, grid, oracle and
//! configuration, picks the matcher and registers an initial fleet.
//!
//! For remote clients the [`server`] module (re-export of
//! `ptrider-server`) puts the same lifecycle behind a zero-dependency
//! HTTP/1.1 front door — JSON endpoints, SSE event streams, Prometheus
//! exposition, bounded backpressure and graceful shutdown. See
//! `examples/wire_quickstart.rs` for a client-and-server walkthrough and
//! DESIGN.md ("Network front door") for the threading and shedding model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Road-network substrate (re-export of `ptrider-roadnet`).
pub use ptrider_roadnet as roadnet;

/// Vehicle substrate (re-export of `ptrider-vehicles`).
pub use ptrider_vehicles as vehicles;

/// Engine, matchers, price model and skyline (re-export of `ptrider-core`).
pub use ptrider_core as core;

/// Synthetic workloads and the Fig. 1 scenario (re-export of
/// `ptrider-datagen`).
pub use ptrider_datagen as datagen;

/// Day simulator and statistics (re-export of `ptrider-sim`).
pub use ptrider_sim as sim;

/// HTTP/JSON front door with SSE streaming (re-export of
/// `ptrider-server`).
pub use ptrider_server as server;

pub use ptrider_core::{
    BatchOutcome, Confirmation, Decision, DistanceBackend, EngineConfig, EngineEvent, EngineStats,
    EventCursor, EventLog, GridConfig, Journal, JournalConfig, JournalError, LandmarkIndex,
    MatchResult, MatchRuntime, MatchStats, Matcher, MatcherKind, Offer, OptionId, PriceModel,
    PtRider, Request, RequestId, RideOption, RideService, RoadNetwork, ServiceConfig, ServiceError,
    SessionId, SessionState, Skyline, Speed, Stop, StopKind, TrafficEdge, TrafficModel,
    TrafficUpdateOutcome, Vehicle, VehicleId, VertexId,
};
pub use ptrider_core::{
    Histogram, HistogramSnapshot, Span, Stage, Telemetry, TelemetryConfig, TelemetryLevel,
    TraceEvent,
};
pub use ptrider_roadnet::fault;
pub use ptrider_server::{Server, ServerConfig, ServerHandle};
pub use ptrider_sim::{ChoicePolicy, SimConfig, SimulationReport, Simulator, TrafficSimConfig};
