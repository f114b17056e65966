//! Aggregate engine statistics — the numbers the demo's website interface
//! displays (average response time, sharing-related counters) plus matcher
//! work counters.

use crate::matching::MatchStats;
use serde::{Deserialize, Serialize};

/// Aggregated statistics of a running [`crate::RideService`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Requests submitted so far.
    pub requests_submitted: u64,
    /// Requests for which at least one option was returned.
    pub requests_with_options: u64,
    /// Total number of options returned across all requests.
    pub options_returned: u64,
    /// Requests for which the rider chose an option (assignments).
    pub requests_chosen: u64,
    /// Assignments that failed because the vehicle's state had changed.
    pub assignments_failed: u64,
    /// Pickup events served.
    pub pickups: u64,
    /// Drop-off events served (completed trips).
    pub dropoffs: u64,
    /// Location updates applied.
    pub location_updates: u64,
    /// Total wall-clock time spent matching, in seconds.
    pub total_match_secs: f64,
    /// Bursts admitted through greedy batch admission.
    pub batch_bursts: u64,
    /// Requests admitted through greedy batch admission.
    pub batch_requests: u64,
    /// Offers made by the service layer (sessions that reached `Offered`).
    pub offers_made: u64,
    /// Offers the rider confirmed (a chosen option was committed).
    pub offers_confirmed: u64,
    /// Offers the rider declined.
    pub offers_declined: u64,
    /// Offers that expired before the rider responded.
    pub offers_expired: u64,
    /// Traffic epochs applied through `apply_traffic_update` (each swaps
    /// the oracle's metric and lazily invalidates its cache).
    pub traffic_epochs: u64,
    /// Sum of per-request matcher work counters.
    pub match_work: MatchWork,
}

/// Accumulated matcher work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MatchWork {
    /// Vehicles considered across all requests.
    pub vehicles_considered: u64,
    /// Vehicles verified (kinetic-tree insertions attempted).
    pub vehicles_verified: u64,
    /// Vehicles pruned without verification.
    pub vehicles_pruned: u64,
    /// Grid cells visited.
    pub cells_visited: u64,
    /// Exact shortest-path computations.
    pub exact_distance_computations: u64,
    /// Candidate (time, price) pairs generated.
    pub candidates_generated: u64,
}

impl MatchWork {
    /// Adds one request's counters.
    pub fn accumulate(&mut self, stats: &MatchStats) {
        self.vehicles_considered += stats.vehicles_considered as u64;
        self.vehicles_verified += stats.vehicles_verified as u64;
        self.vehicles_pruned += stats.vehicles_pruned as u64;
        self.cells_visited += stats.cells_visited as u64;
        self.exact_distance_computations += stats.exact_distance_computations;
        self.candidates_generated += stats.candidates_generated as u64;
    }
}

impl EngineStats {
    /// Average wall-clock matching latency per request, in seconds.
    pub fn avg_response_secs(&self) -> f64 {
        if self.requests_submitted == 0 {
            0.0
        } else {
            self.total_match_secs / self.requests_submitted as f64
        }
    }

    /// Average number of options returned per request.
    pub fn avg_options_per_request(&self) -> f64 {
        if self.requests_submitted == 0 {
            0.0
        } else {
            self.options_returned as f64 / self.requests_submitted as f64
        }
    }

    /// Fraction of requests that received at least one option.
    pub fn answer_rate(&self) -> f64 {
        if self.requests_submitted == 0 {
            0.0
        } else {
            self.requests_with_options as f64 / self.requests_submitted as f64
        }
    }

    /// Average vehicles verified per request.
    pub fn avg_vehicles_verified(&self) -> f64 {
        if self.requests_submitted == 0 {
            0.0
        } else {
            self.match_work.vehicles_verified as f64 / self.requests_submitted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = EngineStats::default();
        assert_eq!(s.avg_response_secs(), 0.0);
        assert_eq!(s.avg_options_per_request(), 0.0);
        assert_eq!(s.answer_rate(), 0.0);
        assert_eq!(s.avg_vehicles_verified(), 0.0);
    }

    #[test]
    fn rates_divide_by_requests() {
        let mut s = EngineStats {
            requests_submitted: 4,
            requests_with_options: 3,
            options_returned: 10,
            total_match_secs: 0.2,
            ..Default::default()
        };
        s.match_work.vehicles_verified = 40;
        assert!((s.avg_response_secs() - 0.05).abs() < 1e-12);
        assert!((s.avg_options_per_request() - 2.5).abs() < 1e-12);
        assert!((s.answer_rate() - 0.75).abs() < 1e-12);
        assert!((s.avg_vehicles_verified() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn match_work_accumulates() {
        let mut w = MatchWork::default();
        let stats = MatchStats {
            vehicles_considered: 5,
            vehicles_verified: 3,
            vehicles_pruned: 2,
            cells_visited: 7,
            exact_distance_computations: 11,
            candidates_generated: 4,
        };
        w.accumulate(&stats);
        w.accumulate(&stats);
        assert_eq!(w.vehicles_considered, 10);
        assert_eq!(w.vehicles_verified, 6);
        assert_eq!(w.vehicles_pruned, 4);
        assert_eq!(w.cells_visited, 14);
        assert_eq!(w.exact_distance_computations, 22);
        assert_eq!(w.candidates_generated, 8);
    }
}
