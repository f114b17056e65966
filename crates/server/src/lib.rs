//! The PTRider network front door: a zero-dependency HTTP/1.1 server
//! exposing the [`RideService`] lifecycle as JSON endpoints and
//! server-sent events, over nothing but `std::net`.
//!
//! # Endpoints
//!
//! | Method & path                   | Meaning                                      |
//! |---------------------------------|----------------------------------------------|
//! | `POST /rides`                   | Submit a request; returns the offer skyline  |
//! | `POST /sessions/{id}/respond`   | Confirm an option or decline                 |
//! | `GET /sessions/{id}`            | Session lifecycle state                      |
//! | `POST /vehicles`                | Add a vehicle to the fleet                   |
//! | `POST /vehicles/{id}/location`  | Periodic location update                     |
//! | `POST /vehicles/{id}/arrived`   | Serve the vehicle's next stop                |
//! | `POST /tick`                    | Advance the offer-expiry clock               |
//! | `GET /metrics`                  | Prometheus text exposition (0.0.4)           |
//! | `GET /trace`                    | Resident traces' spans as JSON, start order  |
//! | `GET /trace/{id}`               | One request's reassembled span tree          |
//! | `GET /debug/slow`               | Top-K slowest resident roots, slowest first  |
//! | `GET /events`                   | SSE stream (`?session=&request=&trace=`)     |
//! | `GET /healthz`                  | Liveness probe                               |
//!
//! Every response echoes `X-Request-Id` (16 hex digits) — honoring an
//! inbound `X-Request-Id` or `traceparent` when the client sent one —
//! and, when request-scoped tracing is on (`PTRIDER_TELEMETRY=spans`),
//! a `traceparent` whose parent-id is the request's `server.handle`
//! root span. The id is the key into `GET /trace/{id}`.
//!
//! Request bodies are JSON; `now` (workload seconds) is optional
//! everywhere and defaults to seconds since the server started. Every
//! body, both directions, goes through [`ptrider_core::json`]: its parser
//! reads requests and its writer renders responses and SSE payloads.
//! [`client`] is the matching blocking client the wire tests and release
//! gates use.
//!
//! # Quickstart
//!
//! ```no_run
//! use ptrider_core::{EngineConfig, RideService};
//! use ptrider_roadnet::{GridConfig, RoadNetworkBuilder};
//! use ptrider_server::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let mut b = RoadNetworkBuilder::new();
//! let a = b.add_vertex(0.0, 0.0);
//! let z = b.add_vertex(1000.0, 0.0);
//! b.add_bidirectional_edge(a, z, 1000.0);
//! let service = Arc::new(RideService::new(
//!     b.build().unwrap(),
//!     GridConfig::with_dimensions(1, 1),
//!     EngineConfig::default(),
//! ));
//! let mut handle = Server::start(service, ServerConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! // ... drive it over HTTP ...
//! handle.shutdown();
//! ```
//!
//! See DESIGN.md "Network front door" for the threading model,
//! backpressure watermarks, SSE cursor semantics, and the shutdown /
//! journal-flush ordering.
//!
//! [`RideService`]: ptrider_core::RideService

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod http;
pub mod router;
pub mod server;
pub mod sse;

pub use config::ServerConfig;
pub use http::{HttpRequest, Response};
pub use ptrider_core::json::Json;
pub use router::{Endpoint, SseParams};
pub use server::{Server, ServerHandle};
