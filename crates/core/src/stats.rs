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
    /// Number of `u64` words in the seqlock wire encoding used by the
    /// service's tearing-free stats mirror (see `core::telemetry::SeqSnapshot`).
    pub const WORDS: usize = 22;

    /// Encodes every field into a fixed word array (floats as IEEE bits).
    /// The order is a private wire format shared only with `from_words`.
    pub fn to_words(&self) -> [u64; Self::WORDS] {
        [
            self.requests_submitted,
            self.requests_with_options,
            self.options_returned,
            self.requests_chosen,
            self.assignments_failed,
            self.pickups,
            self.dropoffs,
            self.location_updates,
            self.total_match_secs.to_bits(),
            self.batch_bursts,
            self.batch_requests,
            self.offers_made,
            self.offers_confirmed,
            self.offers_declined,
            self.offers_expired,
            self.traffic_epochs,
            self.match_work.vehicles_considered,
            self.match_work.vehicles_verified,
            self.match_work.vehicles_pruned,
            self.match_work.cells_visited,
            self.match_work.exact_distance_computations,
            self.match_work.candidates_generated,
        ]
    }

    /// Inverse of [`EngineStats::to_words`].
    pub fn from_words(w: &[u64; Self::WORDS]) -> EngineStats {
        EngineStats {
            requests_submitted: w[0],
            requests_with_options: w[1],
            options_returned: w[2],
            requests_chosen: w[3],
            assignments_failed: w[4],
            pickups: w[5],
            dropoffs: w[6],
            location_updates: w[7],
            total_match_secs: f64::from_bits(w[8]),
            batch_bursts: w[9],
            batch_requests: w[10],
            offers_made: w[11],
            offers_confirmed: w[12],
            offers_declined: w[13],
            offers_expired: w[14],
            traffic_epochs: w[15],
            match_work: MatchWork {
                vehicles_considered: w[16],
                vehicles_verified: w[17],
                vehicles_pruned: w[18],
                cells_visited: w[19],
                exact_distance_computations: w[20],
                candidates_generated: w[21],
            },
        }
    }

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
    fn words_round_trip() {
        let mut s = EngineStats {
            requests_submitted: 7,
            total_match_secs: 1.25,
            offers_expired: 3,
            batch_requests: 2,
            ..Default::default()
        };
        s.match_work.candidates_generated = 99;
        assert_eq!(EngineStats::from_words(&s.to_words()), s);
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
