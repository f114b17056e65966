//! Simulation statistics — the numbers the demo's website panel displays
//! (current time, average response time, average sharing rate) plus the
//! per-request outcomes needed by the experiment harness.

use ptrider_core::json;
use ptrider_core::{EngineStats, HistogramSnapshot, RequestId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Submit-latency percentile summary, pulled from the engine's telemetry
/// histograms (all values in milliseconds). Present in a report only when
/// the engine runs at the `Spans` telemetry level.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Requests the summary covers.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency in milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Maximum latency in milliseconds.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarises a nanosecond-valued latency histogram snapshot.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> LatencySummary {
        let ms = |ns: u64| ns as f64 * 1e-6;
        LatencySummary {
            count: snap.count(),
            mean_ms: snap.mean() * 1e-6,
            p50_ms: ms(snap.quantile(0.5)),
            p90_ms: ms(snap.quantile(0.9)),
            p99_ms: ms(snap.quantile(0.99)),
            max_ms: ms(snap.max()),
        }
    }
}

/// Lifecycle record of one simulated request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// The request id.
    pub id: RequestId,
    /// Submission time in seconds.
    pub submitted_at: f64,
    /// Number of riders.
    pub riders: u32,
    /// Number of options the system returned.
    pub options_offered: usize,
    /// Direct shortest-path distance of the trip.
    pub direct_dist: f64,
    /// Planned pickup time (seconds after submission) of the chosen option,
    /// if one was chosen.
    pub planned_pickup_secs: Option<f64>,
    /// Agreed price, if an option was chosen.
    pub price: Option<f64>,
    /// Actual pickup time (seconds since simulation start), once picked up.
    pub picked_up_at: Option<f64>,
    /// Drop-off time, once completed.
    pub dropped_off_at: Option<f64>,
    /// Distance travelled while on board, once completed.
    pub onboard_dist: Option<f64>,
    /// Whether the riders shared the vehicle with another request at any
    /// point while on board.
    pub shared: bool,
}

impl RequestOutcome {
    /// `true` once the trip finished.
    pub fn completed(&self) -> bool {
        self.dropped_off_at.is_some()
    }

    /// Waiting time from submission to actual pickup, if picked up.
    pub fn waiting_secs(&self) -> Option<f64> {
        self.picked_up_at.map(|t| t - self.submitted_at)
    }

    /// Detour ratio (on-board distance / direct distance), if completed.
    pub fn detour_ratio(&self) -> Option<f64> {
        match (self.onboard_dist, self.direct_dist) {
            (Some(o), d) if d > 0.0 => Some(o / d),
            _ => None,
        }
    }
}

/// Aggregate simulation report (the statistics panel of Fig. 4(c)).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Simulated time at the end of the run, in seconds.
    pub simulated_secs: f64,
    /// Requests submitted.
    pub requests: u64,
    /// Requests that received at least one option.
    pub answered: u64,
    /// Requests whose rider chose an option (assigned to a vehicle).
    pub assigned: u64,
    /// Completed trips (drop-off served).
    pub completed: u64,
    /// Completed trips that shared the vehicle with another request.
    pub shared_trips: u64,
    /// Average number of options per request.
    pub avg_options: f64,
    /// Average wall-clock matching latency per request, in milliseconds.
    pub avg_response_ms: f64,
    /// Average waiting time (submission to actual pickup) in seconds, over
    /// picked-up requests.
    pub avg_waiting_secs: f64,
    /// Average price over assigned requests.
    pub avg_price: f64,
    /// Average detour ratio (on-board / direct distance) over completed trips.
    pub avg_detour_ratio: f64,
    /// Sharing rate: fraction of completed trips that were shared.
    pub sharing_rate: f64,
    /// Fraction of requests that received at least one option.
    pub answer_rate: f64,
    /// Total distance driven by the fleet, in metres.
    pub fleet_distance_m: f64,
    /// Engine-level statistics (matcher work counters etc.).
    pub engine: EngineStats,
    /// Wall-clock submit latency percentiles from the engine's telemetry
    /// (`None` unless the engine runs at the `Spans` level). In an
    /// interval-report series this covers only the requests of the
    /// interval (a delta snapshot); in a final report, the whole run.
    pub submit_latency: Option<LatencySummary>,
}

impl SimulationReport {
    /// Builds the aggregate report from per-request outcomes and engine
    /// statistics.
    pub fn from_outcomes(
        simulated_secs: f64,
        outcomes: &HashMap<RequestId, RequestOutcome>,
        fleet_distance_m: f64,
        engine: EngineStats,
    ) -> Self {
        let requests = outcomes.len() as u64;
        let answered = outcomes.values().filter(|o| o.options_offered > 0).count() as u64;
        let assigned = outcomes.values().filter(|o| o.price.is_some()).count() as u64;
        let completed_outcomes: Vec<&RequestOutcome> =
            outcomes.values().filter(|o| o.completed()).collect();
        let completed = completed_outcomes.len() as u64;
        let shared_trips = completed_outcomes.iter().filter(|o| o.shared).count() as u64;

        let avg = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        let avg_options = avg(
            outcomes.values().map(|o| o.options_offered as f64).sum(),
            requests,
        );
        let picked: Vec<f64> = outcomes.values().filter_map(|o| o.waiting_secs()).collect();
        let avg_waiting_secs = avg(picked.iter().sum(), picked.len() as u64);
        let prices: Vec<f64> = outcomes.values().filter_map(|o| o.price).collect();
        let avg_price = avg(prices.iter().sum(), prices.len() as u64);
        let detours: Vec<f64> = completed_outcomes
            .iter()
            .filter_map(|o| o.detour_ratio())
            .collect();
        let avg_detour_ratio = avg(detours.iter().sum(), detours.len() as u64);

        SimulationReport {
            simulated_secs,
            requests,
            answered,
            assigned,
            completed,
            shared_trips,
            avg_options,
            avg_response_ms: engine.avg_response_secs() * 1000.0,
            avg_waiting_secs,
            avg_price,
            avg_detour_ratio,
            sharing_rate: if completed == 0 {
                0.0
            } else {
                shared_trips as f64 / completed as f64
            },
            answer_rate: if requests == 0 {
                0.0
            } else {
                answered as f64 / requests as f64
            },
            fleet_distance_m,
            engine,
            submit_latency: None,
        }
    }

    /// Attaches a submit-latency summary (builder style; used by the
    /// simulator when the engine's telemetry runs at the `Spans` level).
    pub fn with_submit_latency(mut self, latency: LatencySummary) -> Self {
        self.submit_latency = Some(latency);
        self
    }

    /// Renders the full report as one compact JSON object.
    pub fn to_json(&self) -> String {
        let e = &self.engine;
        let w = &e.match_work;
        json::object(|o| {
            o.field("simulated_secs", self.simulated_secs)
                .field("requests", self.requests)
                .field("answered", self.answered)
                .field("assigned", self.assigned)
                .field("completed", self.completed)
                .field("shared_trips", self.shared_trips)
                .field("avg_options", self.avg_options)
                .field("avg_response_ms", self.avg_response_ms)
                .field("avg_waiting_secs", self.avg_waiting_secs)
                .field("avg_price", self.avg_price)
                .field("avg_detour_ratio", self.avg_detour_ratio)
                .field("sharing_rate", self.sharing_rate)
                .field("answer_rate", self.answer_rate)
                .field("fleet_distance_m", self.fleet_distance_m)
                .object("engine", |o| {
                    o.field("requests_submitted", e.requests_submitted)
                        .field("requests_with_options", e.requests_with_options)
                        .field("options_returned", e.options_returned)
                        .field("requests_chosen", e.requests_chosen)
                        .field("assignments_failed", e.assignments_failed)
                        .field("pickups", e.pickups)
                        .field("dropoffs", e.dropoffs)
                        .field("location_updates", e.location_updates)
                        .field("total_match_secs", e.total_match_secs)
                        .object("match_work", |o| {
                            o.field("vehicles_considered", w.vehicles_considered)
                                .field("vehicles_verified", w.vehicles_verified)
                                .field("vehicles_pruned", w.vehicles_pruned)
                                .field("cells_visited", w.cells_visited)
                                .field("exact_distance_computations", w.exact_distance_computations)
                                .field("candidates_generated", w.candidates_generated);
                        });
                });
            if let Some(l) = &self.submit_latency {
                o.object("submit_latency", |o| {
                    o.field("count", l.count)
                        .field("mean_ms", l.mean_ms)
                        .field("p50_ms", l.p50_ms)
                        .field("p90_ms", l.p90_ms)
                        .field("p99_ms", l.p99_ms)
                        .field("max_ms", l.max_ms);
                });
            }
        })
    }

    /// One-line human-readable summary (used by the example binaries).
    pub fn summary(&self) -> String {
        let mut line = format!(
            "t={:.0}s requests={} answered={:.1}% assigned={} completed={} \
             avg_options={:.2} avg_response={:.2}ms avg_wait={:.0}s sharing_rate={:.1}%",
            self.simulated_secs,
            self.requests,
            self.answer_rate * 100.0,
            self.assigned,
            self.completed,
            self.avg_options,
            self.avg_response_ms,
            self.avg_waiting_secs,
            self.sharing_rate * 100.0
        );
        if let Some(l) = &self.submit_latency {
            line.push_str(&format!(
                " submit_p50={:.2}ms submit_p99={:.2}ms",
                l.p50_ms, l.p99_ms
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64) -> RequestOutcome {
        RequestOutcome {
            id: RequestId(id),
            submitted_at: 10.0,
            riders: 1,
            options_offered: 2,
            direct_dist: 1000.0,
            planned_pickup_secs: Some(60.0),
            price: Some(3.0),
            picked_up_at: Some(100.0),
            dropped_off_at: Some(200.0),
            onboard_dist: Some(1200.0),
            shared: id.is_multiple_of(2),
        }
    }

    #[test]
    fn outcome_accessors() {
        let o = outcome(1);
        assert!(o.completed());
        assert_eq!(o.waiting_secs(), Some(90.0));
        assert!((o.detour_ratio().unwrap() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn report_aggregates_outcomes() {
        let mut outcomes = HashMap::new();
        for i in 0..4u64 {
            outcomes.insert(RequestId(i), outcome(i));
        }
        // One request with no options and no assignment.
        outcomes.insert(
            RequestId(99),
            RequestOutcome {
                id: RequestId(99),
                submitted_at: 5.0,
                riders: 2,
                options_offered: 0,
                direct_dist: 500.0,
                planned_pickup_secs: None,
                price: None,
                picked_up_at: None,
                dropped_off_at: None,
                onboard_dist: None,
                shared: false,
            },
        );
        let report =
            SimulationReport::from_outcomes(3600.0, &outcomes, 50_000.0, EngineStats::default());
        assert_eq!(report.requests, 5);
        assert_eq!(report.answered, 4);
        assert_eq!(report.assigned, 4);
        assert_eq!(report.completed, 4);
        assert_eq!(report.shared_trips, 2);
        assert!((report.sharing_rate - 0.5).abs() < 1e-12);
        assert!((report.answer_rate - 0.8).abs() < 1e-12);
        assert!((report.avg_options - 8.0 / 5.0).abs() < 1e-12);
        assert!((report.avg_waiting_secs - 90.0).abs() < 1e-12);
        assert!((report.avg_price - 3.0).abs() < 1e-12);
        assert!((report.avg_detour_ratio - 1.2).abs() < 1e-12);
        assert_eq!(report.fleet_distance_m, 50_000.0);
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn to_json_parses_and_every_field_reads_back() {
        use ptrider_core::json::Json;
        use ptrider_core::stats::MatchWork;

        let report = SimulationReport {
            simulated_secs: 3600.5,
            requests: 1,
            answered: 2,
            assigned: 3,
            completed: 4,
            shared_trips: 5,
            avg_options: 1.25,
            avg_response_ms: 0.125,
            avg_waiting_secs: 61.5,
            avg_price: 7.75,
            avg_detour_ratio: 1.1,
            sharing_rate: 0.3,
            answer_rate: f64::NAN,
            fleet_distance_m: 12345.5,
            engine: EngineStats {
                requests_submitted: 6,
                requests_with_options: 7,
                options_returned: 8,
                requests_chosen: 9,
                assignments_failed: 10,
                pickups: 11,
                dropoffs: 12,
                location_updates: 13,
                total_match_secs: 0.0625,
                match_work: MatchWork {
                    vehicles_considered: 14,
                    vehicles_verified: 15,
                    vehicles_pruned: 16,
                    cells_visited: 17,
                    exact_distance_computations: 18,
                    candidates_generated: 19,
                },
                ..EngineStats::default()
            },
            submit_latency: Some(LatencySummary {
                count: 20,
                mean_ms: 0.5,
                p50_ms: 0.25,
                p90_ms: 1.5,
                p99_ms: 2.5,
                max_ms: 3.5,
            }),
        };
        let json = Json::parse(&report.to_json()).expect("the report is valid JSON");
        let read = |path: &str| {
            let found = path.split('.').try_fold(&json, |v, key| v.get(key));
            found.unwrap_or_else(|| panic!("{path} missing")).clone()
        };
        for (path, want) in [
            ("simulated_secs", 3600.5),
            ("requests", 1.0),
            ("answered", 2.0),
            ("assigned", 3.0),
            ("completed", 4.0),
            ("shared_trips", 5.0),
            ("avg_options", 1.25),
            ("avg_response_ms", 0.125),
            ("avg_waiting_secs", 61.5),
            ("avg_price", 7.75),
            ("avg_detour_ratio", 1.1),
            ("sharing_rate", 0.3),
            ("fleet_distance_m", 12345.5),
            ("engine.requests_submitted", 6.0),
            ("engine.requests_with_options", 7.0),
            ("engine.options_returned", 8.0),
            ("engine.requests_chosen", 9.0),
            ("engine.assignments_failed", 10.0),
            ("engine.pickups", 11.0),
            ("engine.dropoffs", 12.0),
            ("engine.location_updates", 13.0),
            ("engine.total_match_secs", 0.0625),
            ("engine.match_work.vehicles_considered", 14.0),
            ("engine.match_work.vehicles_verified", 15.0),
            ("engine.match_work.vehicles_pruned", 16.0),
            ("engine.match_work.cells_visited", 17.0),
            ("engine.match_work.exact_distance_computations", 18.0),
            ("engine.match_work.candidates_generated", 19.0),
            ("submit_latency.count", 20.0),
            ("submit_latency.mean_ms", 0.5),
            ("submit_latency.p50_ms", 0.25),
            ("submit_latency.p90_ms", 1.5),
            ("submit_latency.p99_ms", 2.5),
            ("submit_latency.max_ms", 3.5),
        ] {
            assert_eq!(read(path), Json::Num(want), "{path}");
        }
        // JSON has no NaN: a non-finite rate reads back as null.
        assert_eq!(read("answer_rate"), Json::Null);

        // Without a latency summary the key is absent, not null.
        let plain = SimulationReport {
            submit_latency: None,
            ..report
        };
        let json = Json::parse(&plain.to_json()).unwrap();
        assert!(json.get("submit_latency").is_none());
        assert!(json.get("engine").is_some());
    }

    #[test]
    fn empty_report_has_zero_rates() {
        let report =
            SimulationReport::from_outcomes(0.0, &HashMap::new(), 0.0, EngineStats::default());
        assert_eq!(report.requests, 0);
        assert_eq!(report.sharing_rate, 0.0);
        assert_eq!(report.answer_rate, 0.0);
    }
}
