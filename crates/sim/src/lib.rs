//! Event-driven ridesharing simulator for PTRider (Section 4 of the paper).
//!
//! The paper demonstrates the system by replaying a day of Shanghai taxi
//! trips against a fleet of simulated vehicles: requests are generated from
//! the trip log, vehicles follow their assigned schedules at a constant
//! 48 km/h (choosing random road segments when idle), and the website
//! interface reports the current time, the average response time and the
//! average sharing rate.
//!
//! This crate reproduces that harness as a library:
//!
//! * [`Simulator`] — steps a [`ptrider_core::RideService`] through a
//!   [`ptrider_datagen::Workload`]: request submission, rider choice,
//!   vehicle movement, pickup/drop-off updates;
//! * [`ChoicePolicy`] — how the simulated rider picks among the returned
//!   price/time options (cheapest, fastest, random, or a weighted utility);
//! * [`SimulationReport`] — the statistics panel of Fig. 4(c) in structured
//!   form (average response time, sharing rate, served rate, …).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choice;
pub mod motion;
pub mod report;
pub mod simulator;

pub use choice::ChoicePolicy;
pub use report::{LatencySummary, RequestOutcome, SimulationReport};
pub use simulator::{SimConfig, Simulator, TrafficSimConfig};
