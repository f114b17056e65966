//! Synthetic data generation for the PTRider reproduction.
//!
//! The paper demonstrates PTRider on a proprietary dataset of 432,327 trips
//! extracted from 17,000 Shanghai taxis on May 29, 2009. That dataset is not
//! publicly available, so this crate provides the substitution described in
//! DESIGN.md (S9):
//!
//! * [`fig1`] — the small 17-vertex example network of Fig. 1 with edge
//!   weights chosen so the worked example of Section 2 reproduces exactly
//!   (request R2 receives the options ⟨c1, 14, 4⟩ and ⟨c2, 8, 8.8⟩);
//! * [`city`] — a synthetic Shanghai-like road network generator (dense
//!   urban lattice, faster arterial roads, jittered geometry);
//! * [`trips`] — a one-day taxi-trip workload generator with rush-hour
//!   peaks and centre-skewed origins/destinations;
//! * [`congestion`] — the matching supply-side distortion: deterministic
//!   rush-hour traffic-factor curves over hotspot cells, producing the
//!   [`ptrider_roadnet::TrafficModel`] epochs the live-traffic subsystem
//!   applies;
//! * [`workload`] — packaged, scalable workloads (fleet + trip stream) whose
//!   full scale matches the paper's 17,000 vehicles and 432,327 trips.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod city;
pub mod congestion;
pub mod fig1;
pub mod trips;
pub mod workload;

pub use city::{synthetic_city, CityConfig};
pub use congestion::{CongestionConfig, CongestionProfile};
pub use fig1::{fig1_engine_config, fig1_network, fig1_vertex, Fig1Scenario};
pub use trips::{BurstConfig, TimedTrip, TripConfig, TripGenerator};
pub use workload::{scaled_shanghai, Workload, WorkloadConfig};
