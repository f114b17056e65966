//! The event-driven day simulator.
//!
//! Each step of length `dt` performs the loop of Fig. 2, driven through the
//! typed session front door ([`RideService`]):
//!
//! 1. every trip of the workload whose submission time falls inside the step
//!    is submitted to the service; the simulated rider picks one of the
//!    offered options with the configured [`ChoicePolicy`] and responds to
//!    the session (`respond`, with `Decision::Choose` / `Decision::Decline`);
//! 2. every vehicle drives `speed · dt` metres along the shortest path to the
//!    next stop of its best schedule (or roams randomly when idle), issuing
//!    location updates when it crosses vertices and pickup / drop-off updates
//!    when it reaches a stop;
//! 3. the offer clock ticks ([`RideService::tick`]), expiring any offer a
//!    rider walked away from.

use crate::choice::ChoicePolicy;
use crate::motion::Motion;
use crate::report::{LatencySummary, RequestOutcome, SimulationReport};
use ptrider_core::{
    Decision, EngineConfig, GridConfig, Journal, JournalConfig, JournalError, MatcherKind,
    OptionId, PtRider, RideService, StopKind, TrafficModel,
};
use ptrider_datagen::{CongestionConfig, CongestionProfile, TimedTrip, Workload};
use ptrider_roadnet::RoadNetwork;
use ptrider_vehicles::{RequestId, StopEvent, VehicleId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Congestion mode of the simulator: a rush-hour profile feeds traffic
/// epochs into the engine as the simulated day advances.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficSimConfig {
    /// The rush-hour profile (hotspot cells, peak times, slowdowns).
    pub profile: CongestionConfig,
    /// How often a fresh epoch is applied, in simulated seconds. Each
    /// application goes through [`RideService::apply_traffic_update`] —
    /// metric swap, CH repair, cache invalidation — on the writer path.
    pub period_secs: f64,
}

impl Default for TrafficSimConfig {
    fn default() -> Self {
        TrafficSimConfig {
            profile: CongestionConfig::default(),
            // One epoch per simulated 5 minutes: frequent enough that the
            // factor curves stay faithful, coarse enough that the
            // customization cost stays a rounding error of a step.
            period_secs: 300.0,
        }
    }
}

/// Simulator configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Step length in seconds.
    pub dt_secs: f64,
    /// Simulation start time in seconds (trips before this are skipped).
    pub start_secs: f64,
    /// Simulation end time in seconds.
    pub end_secs: f64,
    /// Rider choice policy.
    pub choice: ChoicePolicy,
    /// Matching algorithm to use.
    pub matcher: MatcherKind,
    /// Grid-index dimensions for the road network.
    pub grid: GridConfig,
    /// Whether idle vehicles roam randomly (Section 4: vehicles follow the
    /// current road segment and pick a random segment at intersections).
    pub idle_roaming: bool,
    /// Cross-check mode: every request is additionally matched with *all*
    /// matching algorithms and the simulator panics if their option sets
    /// disagree. Expensive; intended for validation runs and tests.
    pub cross_check: bool,
    /// Burst arrival mode: all trips due within one step are submitted as
    /// **one batch** through [`PtRider::submit_batch_greedy`] — the
    /// engine's conflict-graph admission — instead of one engine call per
    /// trip. Models dispatch-window batching in peak periods; the
    /// batch is stamped with the step's clock.
    pub burst_admission: bool,
    /// Congestion mode: when set, a rush-hour profile applies a traffic
    /// epoch every `period_secs` of simulated time, so every scenario the
    /// simulator can run (steady stream, bursts, full days) becomes
    /// time-varying. `None` (the default) keeps the free-flow metric.
    pub traffic: Option<TrafficSimConfig>,
    /// Random seed for rider choices and idle roaming.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dt_secs: 5.0,
            start_secs: 0.0,
            end_secs: 3600.0,
            choice: ChoicePolicy::default(),
            matcher: MatcherKind::DualSide,
            grid: GridConfig::with_dimensions(16, 16),
            idle_roaming: true,
            cross_check: false,
            burst_admission: false,
            traffic: None,
            seed: 42,
        }
    }
}

/// The simulator: a [`RideService`] driven by a workload.
pub struct Simulator {
    service: RideService,
    net: Arc<RoadNetwork>,
    config: SimConfig,
    trips: Vec<TimedTrip>,
    next_trip: usize,
    clock: f64,
    rng: ChaCha8Rng,
    motions: HashMap<VehicleId, Motion>,
    outcomes: HashMap<RequestId, RequestOutcome>,
    fleet_distance: f64,
    /// Counter for reserved outcome ids of trips the service rejected
    /// outright (no session, no engine-issued request id).
    next_invalid: u64,
    /// Congestion mode state: the profile, the reusable model buffer and
    /// the next epoch instant.
    traffic: Option<(CongestionProfile, TrafficModel)>,
    next_traffic_at: f64,
}

impl Simulator {
    /// Builds a simulator from a workload, an engine configuration and a
    /// simulator configuration.
    pub fn new(workload: Workload, engine_config: EngineConfig, config: SimConfig) -> Self {
        let Workload {
            network,
            vehicle_locations,
            trips,
            ..
        } = workload;
        // Build and populate the sequential engine, then hand it to the
        // session front door (the supported migration path).
        let mut engine = PtRider::new(network, config.grid, engine_config);
        engine.set_matcher(config.matcher);
        let net = engine.oracle().network_arc();
        let mut motions = HashMap::new();
        for loc in vehicle_locations {
            let id = engine.add_vehicle(loc);
            motions.insert(id, Motion::new());
        }
        let service = RideService::from_engine(engine);
        Self::finish_build(service, net, config, trips, motions)
    }

    /// Builds a simulator whose service journals every admission to `dir`,
    /// so a crashed run can be recovered with [`RideService::recover`]
    /// over an identically built fresh engine.
    ///
    /// The journal attaches **before** the fleet is placed: vehicle adds go
    /// through the journaled service, so recovery reconstructs the fleet
    /// from the log rather than relying on the caller to re-place it.
    ///
    /// # Errors
    /// Propagates [`JournalError`] from creating the journal files in `dir`.
    pub fn new_with_journal(
        workload: Workload,
        engine_config: EngineConfig,
        config: SimConfig,
        dir: impl AsRef<std::path::Path>,
        journal_config: JournalConfig,
    ) -> Result<Self, JournalError> {
        let journal = Journal::create(dir, journal_config)?;
        let Workload {
            network,
            vehicle_locations,
            trips,
            ..
        } = workload;
        let mut engine = PtRider::new(network, config.grid, engine_config);
        engine.set_matcher(config.matcher);
        let net = engine.oracle().network_arc();
        let service = RideService::from_engine(engine).with_journal(journal);
        let mut motions = HashMap::new();
        for loc in vehicle_locations {
            let id = service.add_vehicle(loc);
            motions.insert(id, Motion::new());
        }
        Ok(Self::finish_build(service, net, config, trips, motions))
    }

    fn finish_build(
        service: RideService,
        net: Arc<RoadNetwork>,
        config: SimConfig,
        trips: Vec<TimedTrip>,
        motions: HashMap<VehicleId, Motion>,
    ) -> Self {
        let next_trip = trips.partition_point(|t| t.time_secs < config.start_secs);
        let traffic = config.traffic.map(|t| {
            let profile = CongestionProfile::build(&net, t.profile);
            let model = TrafficModel::free_flow(&net);
            (profile, model)
        });
        let mut sim = Simulator {
            service,
            net,
            clock: config.start_secs,
            config,
            trips,
            next_trip,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            motions,
            outcomes: HashMap::new(),
            fleet_distance: 0.0,
            next_invalid: 0,
            traffic,
            next_traffic_at: config.start_secs,
        };
        // Congestion mode starts on the epoch for the start-of-day state,
        // so even the first step's matches see time-appropriate traffic.
        sim.apply_due_traffic();
        sim
    }

    /// Applies a congestion epoch when one is due and schedules the next.
    fn apply_due_traffic(&mut self) {
        let Some(period) = self.config.traffic.map(|t| t.period_secs) else {
            return;
        };
        let Some((profile, model)) = self.traffic.as_mut() else {
            return;
        };
        if self.clock + 1e-9 < self.next_traffic_at {
            return;
        }
        profile.update_model(&self.net, self.clock, model);
        self.service.apply_traffic_update(model, self.clock);
        self.next_traffic_at = self.clock + period.max(1e-3);
    }

    /// The ride service driven by the simulator.
    pub fn service(&self) -> &RideService {
        &self.service
    }

    /// Current simulated time in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Per-request outcomes recorded so far.
    pub fn outcomes(&self) -> &HashMap<RequestId, RequestOutcome> {
        &self.outcomes
    }

    /// Runs the simulation to `end_secs` and returns the report.
    pub fn run(&mut self) -> SimulationReport {
        while self.clock < self.config.end_secs {
            self.step();
        }
        self.report()
    }

    /// Runs the simulation to `end_secs`, taking a snapshot report every
    /// `interval_secs` of simulated time — the evolving statistics panel of
    /// the demo's website interface. Returns the final report and the
    /// `(time, report)` series.
    ///
    /// # Panics
    /// Panics if `interval_secs` is not strictly positive.
    pub fn run_with_interval_reports(
        &mut self,
        interval_secs: f64,
    ) -> (SimulationReport, Vec<(f64, SimulationReport)>) {
        assert!(interval_secs > 0.0, "interval must be positive");
        let telemetry = self.service.telemetry();
        let spans = telemetry.spans_enabled();
        // Interval reports carry *delta* submit-latency summaries: the
        // percentiles of just the requests submitted since the previous
        // report, via `HistogramSnapshot::since`.
        let mut last_submit =
            spans.then(|| telemetry.stage_snapshot(ptrider_core::Stage::ServiceSubmit));
        let mut series = Vec::new();
        let mut next = self.clock + interval_secs;
        while self.clock < self.config.end_secs {
            self.step();
            if self.clock >= next {
                let mut report = self.report();
                if let Some(prev) = &last_submit {
                    let now = self
                        .service
                        .telemetry()
                        .stage_snapshot(ptrider_core::Stage::ServiceSubmit);
                    report =
                        report.with_submit_latency(LatencySummary::from_snapshot(&now.since(prev)));
                    last_submit = Some(now);
                }
                series.push((self.clock, report));
                next += interval_secs;
            }
        }
        (self.report(), series)
    }

    /// Builds the report for the current state. When the engine's
    /// telemetry runs at the `Spans` level, the report carries the
    /// run-cumulative submit-latency percentiles.
    pub fn report(&self) -> SimulationReport {
        let report = SimulationReport::from_outcomes(
            self.clock - self.config.start_secs,
            &self.outcomes,
            self.fleet_distance,
            self.service.stats(),
        );
        let telemetry = self.service.telemetry();
        if telemetry.spans_enabled() {
            let snap = telemetry.stage_snapshot(ptrider_core::Stage::ServiceSubmit);
            report.with_submit_latency(LatencySummary::from_snapshot(&snap))
        } else {
            report
        }
    }

    /// Advances the simulation by one step of `dt_secs`.
    pub fn step(&mut self) {
        let step_end = self.clock + self.config.dt_secs;
        // Congestion mode: refresh the metric before matching the step's
        // trips, so their skylines price the current traffic state.
        self.apply_due_traffic();
        self.submit_due_trips(step_end);
        self.move_vehicles();
        self.clock = step_end;
        // Expire any offer a simulated rider left unanswered (riders here
        // respond synchronously, so this normally expires nothing — but it
        // keeps the offer clock honest under every TTL configuration), then
        // drop the resolved sessions: the simulator keeps its own per-request
        // outcomes, and without pruning a day-scale run would retain one dead
        // session per trip and rescan them all on every tick.
        self.service.tick(self.clock);
        self.service.prune_resolved();
    }

    /// Submits every trip whose time falls inside `[clock, step_end)` and
    /// lets the simulated rider choose.
    fn submit_due_trips(&mut self, step_end: f64) {
        if self.config.burst_admission {
            self.submit_due_trips_burst(step_end);
            return;
        }
        while self.next_trip < self.trips.len() && self.trips[self.next_trip].time_secs < step_end {
            let trip = self.trips[self.next_trip];
            self.next_trip += 1;
            self.submit_trip(&trip);
        }
    }

    /// Burst arrival mode: the step's due trips go through the engine's
    /// batch admission as one burst, with the [`ChoicePolicy`] acting as
    /// the per-request selector in greedy order.
    fn submit_due_trips_burst(&mut self, step_end: f64) {
        let start = self.next_trip;
        while self.next_trip < self.trips.len() && self.trips[self.next_trip].time_secs < step_end {
            self.next_trip += 1;
        }
        if start == self.next_trip {
            return;
        }
        // Degenerate trips are skipped exactly as the per-request path does.
        let batch: Vec<TimedTrip> = self.trips[start..self.next_trip]
            .iter()
            .filter(|t| t.origin != t.destination)
            .copied()
            .collect();
        if batch.is_empty() {
            return;
        }
        if self.config.cross_check {
            for trip in &batch {
                self.cross_check_matchers(trip);
            }
        }
        let specs: Vec<(ptrider_core::VertexId, ptrider_core::VertexId, u32)> = batch
            .iter()
            .map(|t| (t.origin, t.destination, t.riders))
            .collect();
        let now = self.clock;
        let choice = self.config.choice;
        let service = &self.service;
        let rng = &mut self.rng;
        let outcomes =
            service.submit_batch_greedy(&specs, now, |options| choice.choose_index(options, rng));
        for (trip, outcome) in batch.iter().zip(outcomes) {
            let direct = self
                .service
                .oracle()
                .distance(trip.origin, trip.destination);
            let mut record = RequestOutcome {
                id: outcome.request,
                submitted_at: trip.time_secs,
                riders: trip.riders,
                options_offered: outcome.options.len(),
                direct_dist: direct,
                planned_pickup_secs: None,
                price: None,
                picked_up_at: None,
                dropped_off_at: None,
                onboard_dist: None,
                shared: false,
            };
            if let Some(k) = outcome.chosen {
                record.planned_pickup_secs = Some(outcome.options[k].pickup_secs);
                record.price = Some(outcome.options[k].price);
            }
            self.outcomes.insert(outcome.request, record);
        }
    }

    fn submit_trip(&mut self, trip: &TimedTrip) {
        if trip.origin == trip.destination {
            return;
        }
        if self.config.cross_check {
            self.cross_check_matchers(trip);
        }
        let offer =
            match self
                .service
                .submit(trip.origin, trip.destination, trip.riders, trip.time_secs)
            {
                Ok(offer) => offer,
                // Invalid trip (e.g. unreachable destination on a degenerate
                // network): no session exists, but the trip still counts in
                // the report with zero options — matching both the
                // pre-service facade (which allocated an id and returned no
                // options) and the burst arrival mode (whose batch admission
                // records every spec). Reserved ids from the top of the
                // space keep these synthetic outcomes clear of engine-issued
                // request ids.
                Err(_) => {
                    let id = RequestId(u64::MAX - self.next_invalid);
                    self.next_invalid += 1;
                    let direct =
                        if self.net.contains(trip.origin) && self.net.contains(trip.destination) {
                            self.service
                                .oracle()
                                .distance(trip.origin, trip.destination)
                        } else {
                            f64::INFINITY
                        };
                    self.outcomes.insert(
                        id,
                        RequestOutcome {
                            id,
                            submitted_at: trip.time_secs,
                            riders: trip.riders,
                            options_offered: 0,
                            direct_dist: direct,
                            planned_pickup_secs: None,
                            price: None,
                            picked_up_at: None,
                            dropped_off_at: None,
                            onboard_dist: None,
                            shared: false,
                        },
                    );
                    return;
                }
            };
        let direct = self
            .service
            .oracle()
            .distance(trip.origin, trip.destination);
        let mut outcome = RequestOutcome {
            id: offer.request,
            submitted_at: trip.time_secs,
            riders: trip.riders,
            options_offered: offer.options.len(),
            direct_dist: direct,
            planned_pickup_secs: None,
            price: None,
            picked_up_at: None,
            dropped_off_at: None,
            onboard_dist: None,
            shared: false,
        };
        if let Some(k) = self
            .config
            .choice
            .choose_index(&offer.options, &mut self.rng)
        {
            let decision = Decision::Choose(OptionId(k as u32));
            match self
                .service
                .respond(offer.session, decision, trip.time_secs)
            {
                Ok(Some(confirmation)) => {
                    outcome.planned_pickup_secs = Some(confirmation.option.pickup_secs);
                    outcome.price = Some(confirmation.option.price);
                    // No motion reset needed: `move_vehicle` re-routes as soon
                    // as the vehicle's next stop changes.
                }
                Ok(None) => unreachable!("a choose decision never resolves as a decline"),
                Err(_) => {
                    // Assignment raced with a state change; the session stays
                    // offered, so decline it — the request goes unserved in
                    // this simulation.
                    let _ = self
                        .service
                        .respond(offer.session, Decision::Decline, trip.time_secs);
                }
            }
        } else {
            let _ = self
                .service
                .respond(offer.session, Decision::Decline, trip.time_secs);
        }
        self.outcomes.insert(offer.request, outcome);
    }

    /// Matches the trip with every matching algorithm on the current state
    /// and panics if any two disagree (validation mode).
    fn cross_check_matchers(&self, trip: &TimedTrip) {
        use ptrider_core::Request;
        let request = Request::new(
            RequestId(u64::MAX),
            trip.origin,
            trip.destination,
            trip.riders,
            trip.time_secs,
        );
        let canonical = |options: &[ptrider_core::RideOption]| {
            let mut v: Vec<(u32, i64, i64)> = options
                .iter()
                .map(|o| {
                    (
                        o.vehicle.0,
                        (o.pickup_dist * 1e6).round() as i64,
                        (o.price * 1e9).round() as i64,
                    )
                })
                .collect();
            v.sort_unstable();
            v
        };
        type CanonicalOptions = Vec<(u32, i64, i64)>;
        let mut reference: Option<(MatcherKind, CanonicalOptions)> = None;
        for kind in MatcherKind::all() {
            let result = self
                .service
                .match_request_with(kind, &request)
                .expect("cross-check request is valid");
            let canon = canonical(&result.options);
            match &reference {
                None => reference = Some((kind, canon)),
                Some((ref_kind, ref_canon)) => {
                    assert_eq!(
                        ref_canon, &canon,
                        "matcher cross-check failed at t={:.1}s for trip {} -> {} ({} riders): \
                         {ref_kind} and {kind} disagree",
                        trip.time_secs, trip.origin, trip.destination, trip.riders
                    );
                }
            }
        }
    }

    /// Moves every vehicle by one step and serves reached stops.
    fn move_vehicles(&mut self) {
        let speed = self.service.config().speed.mps();
        let mut ids: Vec<VehicleId> = self.motions.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.move_vehicle(id, speed * self.config.dt_secs);
        }
    }

    fn move_vehicle(&mut self, id: VehicleId, mut budget: f64) {
        let mut guard = 0usize;
        while budget > 1e-9 {
            guard += 1;
            if guard > 10_000 {
                break;
            }
            let (location, next_stop) = self
                .service
                .with_vehicle(id, |v| (v.location(), v.next_stop()))
                .expect("simulated vehicle exists in the engine");

            if let Some(stop) = next_stop {
                if stop.location == location {
                    if let Ok(Some(event)) = self.service.vehicle_arrived(id) {
                        self.handle_stop_event(id, &event);
                    }
                    if let Some(m) = self.motions.get_mut(&id) {
                        m.clear();
                    }
                    continue;
                }
                let motion = self.motions.get_mut(&id).expect("motion exists");
                motion.route_to(&self.net, location, stop.location);
            } else if self.config.idle_roaming {
                let motion = self.motions.get_mut(&id).expect("motion exists");
                if motion.is_idle() {
                    motion.roam(&self.net, location, &mut self.rng);
                }
                if motion.is_idle() {
                    break;
                }
            } else {
                break;
            }

            let motion = self.motions.get_mut(&id).expect("motion exists");
            let (crossings, leftover) = motion.advance(budget);
            let consumed = budget - leftover;
            for crossing in &crossings {
                let _ = self
                    .service
                    .location_update(id, crossing.vertex, crossing.travelled);
                self.fleet_distance += crossing.travelled;
            }
            budget = leftover;
            if crossings.is_empty() && consumed <= 1e-9 {
                // No progress possible (degenerate path); stop to avoid spinning.
                break;
            }
        }
    }

    fn handle_stop_event(&mut self, vehicle: VehicleId, event: &StopEvent) {
        match event {
            StopEvent::PickedUp { request, .. } => {
                let now = self.clock;
                if let Some(outcome) = self.outcomes.get_mut(request) {
                    outcome.picked_up_at = Some(now);
                }
                // Sharing: if anyone else is on board, both parties share.
                let others: Vec<RequestId> = self
                    .service
                    .with_vehicle(vehicle, |v| {
                        v.requests()
                            .iter()
                            .filter(|r| !r.is_waiting() && r.id != *request)
                            .map(|r| r.id)
                            .collect()
                    })
                    .unwrap_or_default();
                if !others.is_empty() {
                    if let Some(outcome) = self.outcomes.get_mut(request) {
                        outcome.shared = true;
                    }
                    for other in others {
                        if let Some(outcome) = self.outcomes.get_mut(&other) {
                            outcome.shared = true;
                        }
                    }
                }
            }
            StopEvent::DroppedOff {
                request,
                onboard_distance,
            } => {
                if let Some(outcome) = self.outcomes.get_mut(&request.id) {
                    outcome.dropped_off_at = Some(self.clock);
                    outcome.onboard_dist = Some(*onboard_distance);
                }
            }
        }
    }

    /// Pending stops across the fleet (used by tests to check drainage).
    pub fn outstanding_stops(&self) -> usize {
        self.service.with_vehicles(|vehicles| {
            vehicles
                .map(|v| {
                    v.current_schedule()
                        .iter()
                        .filter(|s| s.kind == StopKind::Pickup || s.kind == StopKind::Dropoff)
                        .count()
                })
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrider_datagen::{CityConfig, TripConfig, Workload, WorkloadConfig};

    fn small_workload(seed: u64, trips: usize, vehicles: usize) -> Workload {
        Workload::generate(WorkloadConfig {
            city: CityConfig::tiny(seed),
            num_vehicles: vehicles,
            trips: TripConfig {
                num_trips: trips,
                day_secs: 1800.0,
                seed,
                ..TripConfig::default()
            },
            seed,
        })
    }

    fn sim_config(end: f64) -> SimConfig {
        SimConfig {
            dt_secs: 5.0,
            start_secs: 0.0,
            end_secs: end,
            grid: GridConfig::with_dimensions(4, 4),
            seed: 7,
            ..SimConfig::default()
        }
    }

    #[test]
    fn simulation_serves_requests_end_to_end() {
        let workload = small_workload(11, 60, 12);
        let mut sim = Simulator::new(workload, EngineConfig::paper_defaults(), sim_config(1800.0));
        let report = sim.run();
        assert_eq!(report.requests, 60);
        assert!(report.answered > 0, "some requests must receive options");
        assert!(report.assigned > 0, "some riders must choose an option");
        assert!(report.completed > 0, "some trips must complete");
        assert!(report.avg_options >= 1.0 - 1e-9 || report.answer_rate < 1.0);
        assert!(report.fleet_distance_m > 0.0);
        assert!(report.avg_response_ms >= 0.0);
        // Waiting time must be positive for picked-up requests.
        assert!(report.avg_waiting_secs >= 0.0);
    }

    #[test]
    fn completed_trips_respect_service_constraint() {
        let workload = small_workload(13, 40, 10);
        let engine_config = EngineConfig::paper_defaults().with_detour_factor(0.3);
        let mut sim = Simulator::new(workload, engine_config, sim_config(1800.0));
        let _ = sim.run();
        for outcome in sim.outcomes().values() {
            if let Some(ratio) = outcome.detour_ratio() {
                assert!(
                    ratio <= 1.3 + 1e-6,
                    "trip {:?} exceeded the service constraint: {ratio}",
                    outcome.id
                );
            }
        }
    }

    #[test]
    fn step_advances_clock_and_processes_trips_in_order() {
        let workload = small_workload(17, 30, 6);
        let mut sim = Simulator::new(workload, EngineConfig::paper_defaults(), sim_config(600.0));
        assert_eq!(sim.clock(), 0.0);
        sim.step();
        assert!((sim.clock() - 5.0).abs() < 1e-9);
        let before = sim.outcomes().len();
        sim.step();
        assert!(sim.outcomes().len() >= before);
    }

    #[test]
    fn interval_reports_track_cumulative_progress() {
        let workload = small_workload(19, 50, 10);
        let mut sim = Simulator::new(workload, EngineConfig::paper_defaults(), sim_config(900.0));
        let (final_report, series) = sim.run_with_interval_reports(300.0);
        assert_eq!(series.len(), 3);
        // Snapshots are taken at increasing times and counters never decrease.
        for pair in series.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1.requests <= pair[1].1.requests);
            assert!(pair[0].1.completed <= pair[1].1.completed);
        }
        let last = &series.last().unwrap().1;
        assert_eq!(last.requests, final_report.requests);
        assert_eq!(last.completed, final_report.completed);
    }

    #[test]
    fn burst_admission_serves_requests_end_to_end() {
        let workload = small_workload(29, 60, 12);
        let mut sim = Simulator::new(
            workload,
            EngineConfig::paper_defaults(),
            SimConfig {
                burst_admission: true,
                ..sim_config(1800.0)
            },
        );
        let report = sim.run();
        assert_eq!(report.requests, 60);
        assert!(report.answered > 0);
        assert!(report.assigned > 0);
        assert!(report.completed > 0);
        // The engine really went through batch admission.
        let stats = sim.service().stats();
        assert!(stats.batch_bursts > 0);
        assert_eq!(stats.batch_requests, 60);
        assert!(stats.batch_partitions >= stats.batch_bursts);
    }

    #[test]
    fn burst_admission_is_deterministic_given_seed() {
        let run = || {
            let workload = small_workload(31, 50, 10);
            let mut sim = Simulator::new(
                workload,
                EngineConfig::paper_defaults(),
                SimConfig {
                    burst_admission: true,
                    ..sim_config(1200.0)
                },
            );
            sim.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shared_trips, b.shared_trips);
        assert!((a.fleet_distance_m - b.fleet_distance_m).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let workload = small_workload(23, 40, 8);
            let mut sim = Simulator::new(
                workload,
                EngineConfig::paper_defaults(),
                SimConfig {
                    seed,
                    ..sim_config(900.0)
                },
            );
            sim.run()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shared_trips, b.shared_trips);
        assert!((a.fleet_distance_m - b.fleet_distance_m).abs() < 1e-6);
    }

    #[test]
    fn congestion_mode_feeds_epochs_into_the_loop() {
        let workload = small_workload(37, 50, 10);
        let mut sim = Simulator::new(
            workload,
            EngineConfig::paper_defaults(),
            SimConfig {
                traffic: Some(TrafficSimConfig {
                    period_secs: 300.0,
                    ..TrafficSimConfig::default()
                }),
                ..sim_config(1800.0)
            },
        );
        let report = sim.run();
        assert_eq!(report.requests, 50);
        assert!(report.answered > 0, "traffic must not starve matching");
        assert!(report.assigned > 0);
        let stats = sim.service().stats();
        // The start-of-day epoch plus one per 300 s at steps 300..=1500
        // (the 1800 s instant is the end of the run, never a step start).
        assert_eq!(stats.traffic_epochs, 6);
        // ≥ rather than ==: `PTRIDER_TRAFFIC_EPOCHS` pre-applies epochs at
        // construction, before the ledger starts counting.
        assert!(sim.service().oracle().traffic_epoch() >= 6);
    }

    #[test]
    fn congestion_mode_is_deterministic_and_repairs_ch() {
        let run = |backend| {
            let workload = small_workload(41, 40, 8);
            let mut sim = Simulator::new(
                workload,
                EngineConfig::paper_defaults().with_distance_backend(backend),
                SimConfig {
                    traffic: Some(TrafficSimConfig::default()),
                    ..sim_config(900.0)
                },
            );
            let report = sim.run();
            (report, sim.service().stats())
        };
        let (alt_a, _) = run(ptrider_core::DistanceBackend::Alt);
        let (alt_b, _) = run(ptrider_core::DistanceBackend::Alt);
        assert_eq!(alt_a.assigned, alt_b.assigned);
        assert_eq!(alt_a.completed, alt_b.completed);
        assert!((alt_a.fleet_distance_m - alt_b.fleet_distance_m).abs() < 1e-6);

        // The CH backend serves the same day through customization passes:
        // every epoch repairs the hierarchy instead of rebuilding it, and
        // the outcomes match the ALT backend (both are exact).
        let (ch, ch_stats) = run(ptrider_core::DistanceBackend::Ch);
        assert_eq!(ch_stats.ch_customizations, ch_stats.traffic_epochs);
        assert!(ch_stats.traffic_epochs > 0);
        assert_eq!(ch.assigned, alt_a.assigned);
        assert_eq!(ch.completed, alt_a.completed);
        assert_eq!(ch.shared_trips, alt_a.shared_trips);
    }

    #[test]
    fn idle_roaming_moves_empty_vehicles() {
        let workload = Workload::generate(WorkloadConfig {
            city: CityConfig::tiny(3),
            num_vehicles: 4,
            trips: TripConfig {
                num_trips: 1,
                day_secs: 10.0,
                seed: 3,
                ..TripConfig::default()
            },
            seed: 3,
        });
        let mut sim = Simulator::new(
            workload,
            EngineConfig::paper_defaults(),
            SimConfig {
                end_secs: 120.0,
                ..sim_config(120.0)
            },
        );
        let _ = sim.run();
        // Even with (almost) no requests the fleet drives around.
        assert!(sim.report().fleet_distance_m > 0.0);
    }
}
