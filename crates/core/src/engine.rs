//! The PTRider engine: the framework of Fig. 2.
//!
//! The engine owns the road-network index modules, the vehicle index and the
//! matching-algorithm module. Its request flow — a rider **submits** a
//! request, the matching module returns every qualified, non-dominated
//! option, the rider **chooses** one — plus the vehicles' **location** and
//! **pickup / drop-off updates** runs through one front door,
//! [`crate::RideService`]. [`PtRider`] is the builder a service is made
//! from: it holds the network, grid, oracle and configuration, picks the
//! matcher and registers the initial fleet, then hands everything to
//! [`crate::RideService::from_engine`] (or [`crate::RideService::recover`]).
//!
//! # Engine split: read path vs. write path
//!
//! Internally the engine state is decomposed into three parts so the
//! service can run concurrent submits:
//!
//! * [`EngineShared`] — the immutable substrate (network, grid, distance
//!   oracle, configuration, telemetry). Shared freely across
//!   threads; the oracle's memoisation is internally sharded.
//! * [`World`] — the mutable vehicle world (fleet + vehicle index). The
//!   **read path** (option generation) only needs `&World`; the **write
//!   path** (choice commits, location / stop updates, batch admission)
//!   needs `&mut World`.
//! * [`Ledger`] — engine statistics and the request-id counter.
//!
//! The free functions of this module (`prepare_request`, `match_options`,
//! `commit_choice`, `apply_location_update`, `apply_vehicle_arrived`,
//! `apply_traffic`, `run_batch`) operate on those parts; the service puts
//! `World` behind an `RwLock` and the `Ledger` behind a `Mutex`.

use crate::config::EngineConfig;
use crate::matching::{MatchContext, MatchResult, Matcher, MatcherKind};
use crate::options::RideOption;
use crate::request::Request;
use crate::stats::EngineStats;
use crate::telemetry::{Telemetry, TelemetryConfig};
use ptrider_roadnet::{DistanceOracle, GridConfig, GridIndex, RoadNetwork, TrafficModel, VertexId};
use ptrider_vehicles::{
    ProspectiveRequest, RequestId, StopEvent, Vehicle, VehicleId, VehicleIndex,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Errors returned by engine operations.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The vehicle id does not exist.
    UnknownVehicle(VehicleId),
    /// The chosen option can no longer be honoured because the vehicle's
    /// state changed since the options were computed.
    AssignmentFailed(RequestId, VehicleId),
    /// The request's origin or destination is not a vertex of the network,
    /// or no path connects them.
    InvalidRequest(&'static str),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownVehicle(v) => write!(f, "vehicle {v} does not exist"),
            EngineError::AssignmentFailed(r, v) => {
                write!(f, "vehicle {v} can no longer serve request {r}")
            }
            EngineError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The immutable engine substrate, shared by the read and write paths:
/// road network, grid index, distance oracle, configuration and the
/// telemetry hub. Everything here is safe to use from many
/// threads at once (the oracle's memoisation is internally sharded).
pub(crate) struct EngineShared {
    pub(crate) net: Arc<RoadNetwork>,
    pub(crate) grid: Arc<GridIndex>,
    pub(crate) oracle: DistanceOracle,
    pub(crate) config: EngineConfig,
    /// The engine's telemetry hub: per-stage latency histograms, the trace
    /// ring and the named counter/gauge registry. Every layer shares this
    /// one hub (level from `PTRIDER_TELEMETRY` unless overridden at
    /// construction).
    pub(crate) telemetry: Arc<Telemetry>,
}

impl EngineShared {
    /// Builds the shared substrate around a caller-constructed oracle.
    pub(crate) fn new(
        net: Arc<RoadNetwork>,
        grid: Arc<GridIndex>,
        oracle: DistanceOracle,
        config: EngineConfig,
        telemetry_config: TelemetryConfig,
    ) -> Self {
        EngineShared {
            net,
            grid,
            oracle,
            config,
            telemetry: Arc::new(Telemetry::new(telemetry_config)),
        }
    }

    /// A matching context over `world`.
    pub(crate) fn match_context<'a>(&'a self, world: &'a World) -> MatchContext<'a> {
        debug_assert!(world.index_live, "matching against a deferred index");
        MatchContext {
            oracle: &self.oracle,
            grid: &self.grid,
            vehicles: &world.vehicles,
            index: &world.index,
            config: &self.config,
            telemetry: Some(&self.telemetry),
            trace: None,
        }
    }
}

/// The mutable vehicle world: the fleet and the per-cell vehicle index.
/// Option generation reads it (`&World`); commits mutate it (`&mut World`).
pub(crate) struct World {
    pub(crate) vehicles: HashMap<VehicleId, Vehicle>,
    pub(crate) index: VehicleIndex,
    next_vehicle: u32,
    /// `false` while journal replay defers index maintenance: only the
    /// matcher reads the index, so replay skips every per-vehicle refresh
    /// and rebuilds the whole index once ([`Self::resume_index`]).
    index_live: bool,
}

impl World {
    pub(crate) fn new(num_cells: usize) -> Self {
        World {
            vehicles: HashMap::new(),
            index: VehicleIndex::new(num_cells),
            next_vehicle: 0,
            index_live: true,
        }
    }

    /// Re-registers a vehicle in the index after its state changed — the
    /// one place the world refreshes its index. A no-op while indexing is
    /// deferred.
    pub(crate) fn reindex(&mut self, shared: &EngineShared, id: VehicleId) {
        if !self.index_live {
            return;
        }
        if let Some(vehicle) = self.vehicles.get(&id) {
            self.index.update_from_vehicle(vehicle, &shared.grid);
        }
    }

    /// Stops index maintenance until [`Self::resume_index`]; the index is
    /// stale meanwhile and nothing may match against the world.
    pub(crate) fn defer_index(&mut self) {
        self.index_live = false;
    }

    /// Ends a deferral by rebuilding the index over the whole fleet. Exact:
    /// a vehicle's registration depends only on its current location and
    /// emptiness and on the grid. A no-op when the index is live.
    pub(crate) fn resume_index(&mut self, shared: &EngineShared) {
        if self.index_live {
            return;
        }
        let mut index = VehicleIndex::new(shared.grid.num_cells());
        for vehicle in self.vehicles.values() {
            index.update_from_vehicle(vehicle, &shared.grid);
        }
        self.index = index;
        self.index_live = true;
    }

    /// Registers a new vehicle at `location`.
    pub(crate) fn add_vehicle(
        &mut self,
        shared: &EngineShared,
        location: VertexId,
        capacity: u32,
    ) -> VehicleId {
        assert!(
            shared.net.contains(location),
            "vehicle location {location} is not a vertex of the network"
        );
        let id = VehicleId(self.next_vehicle);
        self.next_vehicle += 1;
        self.vehicles
            .insert(id, Vehicle::new(id, capacity, location));
        self.reindex(shared, id);
        id
    }

    /// The id the next added vehicle will receive (snapshot watermark).
    pub(crate) fn next_vehicle_id(&self) -> u32 {
        self.next_vehicle
    }

    /// Restores the vehicle-id counter from a snapshot.
    pub(crate) fn set_next_vehicle_id(&mut self, next: u32) {
        self.next_vehicle = next;
    }
}

/// Request bookkeeping: statistics and the request-id counter.
pub(crate) struct Ledger {
    pub(crate) stats: EngineStats,
    next_request: u64,
}

impl Ledger {
    pub(crate) fn new() -> Self {
        Ledger {
            stats: EngineStats::default(),
            next_request: 0,
        }
    }

    /// Allocates a fresh request id.
    pub(crate) fn allocate_request_id(&mut self) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        id
    }

    /// The id the next submitted request will receive (snapshot watermark).
    pub(crate) fn next_request_id(&self) -> u64 {
        self.next_request
    }

    /// Restores the request-id counter from a snapshot.
    pub(crate) fn set_next_request_id(&mut self, next: u64) {
        self.next_request = next;
    }

    /// Accumulates the statistics of one answered match.
    pub(crate) fn record_match(&mut self, result: &MatchResult, elapsed: f64) {
        self.stats.requests_submitted += 1;
        self.stats.total_match_secs += elapsed;
        self.stats.options_returned += result.options.len() as u64;
        if !result.options.is_empty() {
            self.stats.requests_with_options += 1;
        }
        self.stats.match_work.accumulate(&result.stats);
    }
}

/// Validates a request spec and returns its direct shortest-path distance.
///
/// The single source of truth for what counts as an admissible request:
/// the service-layer submit, batch admission and the read-only
/// [`match_request_with_oracle`] all go through here, so they cannot
/// diverge on validity.
pub(crate) fn validate_request(
    net: &RoadNetwork,
    oracle: &DistanceOracle,
    origin: VertexId,
    destination: VertexId,
    riders: u32,
) -> Result<f64, EngineError> {
    if !net.contains(origin) || !net.contains(destination) {
        return Err(EngineError::InvalidRequest(
            "origin or destination is not a vertex of the road network",
        ));
    }
    if origin == destination {
        return Err(EngineError::InvalidRequest(
            "origin and destination coincide",
        ));
    }
    if riders == 0 {
        return Err(EngineError::InvalidRequest("request carries zero riders"));
    }
    let direct = oracle.distance(origin, destination);
    if !direct.is_finite() {
        return Err(EngineError::InvalidRequest(
            "destination unreachable from origin",
        ));
    }
    Ok(direct)
}

/// Validates a request and converts it into its matcher-facing form.
pub(crate) fn prepare_request(
    shared: &EngineShared,
    request: &Request,
) -> Result<ProspectiveRequest, EngineError> {
    let direct = validate_request(
        &shared.net,
        &shared.oracle,
        request.origin,
        request.destination,
        request.riders,
    )?;
    Ok(request.to_prospective(direct, &shared.config))
}

/// Generates the option skyline for a prepared request against the current
/// world — the **read path**. Returns the result and the wall-clock seconds
/// spent matching.
pub(crate) fn match_options(
    shared: &EngineShared,
    matcher: &dyn Matcher,
    world: &World,
    prospective: &ProspectiveRequest,
) -> (MatchResult, f64) {
    match_options_in(shared, matcher, world, prospective, None)
}

/// [`match_options`] with a request trace context threaded into the
/// matcher, so the per-stage match timings land in the request's trace
/// tree as children of `trace`'s span.
pub(crate) fn match_options_in(
    shared: &EngineShared,
    matcher: &dyn Matcher,
    world: &World,
    prospective: &ProspectiveRequest,
    trace: Option<crate::telemetry::TraceContext>,
) -> (MatchResult, f64) {
    let started = Instant::now();
    let mut ctx = shared.match_context(world);
    ctx.trace = trace;
    let result = matcher.find_options(&ctx, prospective);
    (result, started.elapsed().as_secs_f64())
}

/// Commits a rider's choice into the world — the **write path**. Assigns
/// the request to the option's vehicle and refreshes the vehicle index.
/// Does not touch the ledger; callers decide how the statistics are
/// updated.
pub(crate) fn commit_choice(
    shared: &EngineShared,
    world: &mut World,
    request: &Request,
    prospective: &ProspectiveRequest,
    option: &RideOption,
    now: f64,
) -> Result<(), EngineError> {
    let vehicle = world
        .vehicles
        .get_mut(&option.vehicle)
        .ok_or(EngineError::UnknownVehicle(option.vehicle))?;
    let max_wait_dist = shared
        .config
        .speed
        .seconds_to_distance(request.effective_max_wait_secs(&shared.config));
    let assigned = vehicle.assign(
        &shared.oracle,
        prospective,
        option.pickup_dist,
        max_wait_dist,
        option.price,
        now,
    );
    if assigned.is_none() {
        return Err(EngineError::AssignmentFailed(request.id, option.vehicle));
    }
    // Chaos site: a panic here tears the commit (vehicle assigned, index
    // stale) while the caller holds the world write lock — the worst-case
    // crash the journal's recovery path must absorb.
    ptrider_roadnet::fault::panic_point(ptrider_roadnet::fault::MID_COMMIT);
    world.reindex(shared, option.vehicle);
    Ok(())
}

/// Applies a periodic vehicle location update — write path.
pub(crate) fn apply_location_update(
    shared: &EngineShared,
    world: &mut World,
    vehicle_id: VehicleId,
    location: VertexId,
    travelled: f64,
) -> Result<(), EngineError> {
    if !shared.net.contains(location) {
        return Err(EngineError::InvalidRequest(
            "vehicle location is not a vertex of the road network",
        ));
    }
    let vehicle = world
        .vehicles
        .get_mut(&vehicle_id)
        .ok_or(EngineError::UnknownVehicle(vehicle_id))?;
    vehicle.move_to(&shared.oracle, location, travelled);
    world.reindex(shared, vehicle_id);
    Ok(())
}

/// Serves the next stop of a vehicle's schedule — write path.
pub(crate) fn apply_vehicle_arrived(
    shared: &EngineShared,
    world: &mut World,
    vehicle_id: VehicleId,
) -> Result<Option<StopEvent>, EngineError> {
    let vehicle = world
        .vehicles
        .get_mut(&vehicle_id)
        .ok_or(EngineError::UnknownVehicle(vehicle_id))?;
    let event = vehicle.serve_next_stop(&shared.oracle);
    if event.is_some() {
        world.reindex(shared, vehicle_id);
    }
    Ok(event)
}

/// What an engine-level traffic update did (the engine-facing mirror of
/// [`ptrider_roadnet::TrafficApplied`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficUpdateOutcome {
    /// The metric epoch now in effect.
    pub epoch: u64,
    /// Arcs above free flow in the applied model.
    pub congested_arcs: usize,
    /// Largest multiplicative factor in the applied model.
    pub max_factor: f64,
}

/// Applies a traffic epoch — the **write path**. Swaps the oracle's metric
/// (scaled by the model's ≥ 1.0 factors), lazily invalidates the
/// epoch-stamped distance cache, and records the statistics. Called by
/// [`crate::RideService::apply_traffic_update`] and journal replay.
///
/// Existing vehicle schedules keep the leg distances they were planned
/// with (re-planning in-flight trips is a policy decision, not a metric
/// one); every *new* match, insertion and lower bound uses the updated
/// metric.
pub(crate) fn apply_traffic(
    shared: &EngineShared,
    ledger: &mut Ledger,
    model: &TrafficModel,
) -> TrafficUpdateOutcome {
    let applied = shared.oracle.apply_traffic(model);
    ledger.stats.traffic_epochs += 1;
    TrafficUpdateOutcome {
        epoch: applied.epoch,
        congested_arcs: applied.congested_arcs,
        max_factor: applied.max_factor,
    }
}

/// Result of one request inside [`crate::RideService::submit_batch_greedy`].
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The request id the engine allocated.
    pub request: RequestId,
    /// The skyline of options that was offered.
    pub options: Vec<RideOption>,
    /// Index into `options` of the option that was chosen and successfully
    /// assigned, if any.
    pub chosen: Option<usize>,
}

/// The paper's greedy batch admission (Section 2.5): match one request,
/// commit the rider's choice, then match the next. The implementation
/// behind [`crate::RideService::submit_batch_greedy`] and its journal
/// replay.
///
/// Every spec gets a request id, an invalid one included; an invalid spec
/// is offered no options, so the selector sees an empty slice.
pub(crate) fn run_batch<F>(
    shared: &EngineShared,
    matcher: &dyn Matcher,
    world: &mut World,
    ledger: &mut Ledger,
    specs: &[(VertexId, VertexId, u32)],
    now: f64,
    mut selector: F,
) -> Vec<BatchOutcome>
where
    F: FnMut(&[RideOption]) -> Option<usize>,
{
    let mut outcomes = Vec::with_capacity(specs.len());
    for &(origin, destination, riders) in specs {
        let id = ledger.allocate_request_id();
        let request = Request::new(id, origin, destination, riders, now);
        let prospective = prepare_request(shared, &request).ok();
        let options = match &prospective {
            Some(prospective) => {
                let (result, elapsed) = match_options(shared, matcher, world, prospective);
                ledger.record_match(&result, elapsed);
                result.options
            }
            None => Vec::new(),
        };
        let chosen = selector(&options).filter(|&i| i < options.len());
        let assigned = match (chosen, &prospective) {
            (Some(i), Some(prospective)) => {
                match commit_choice(shared, world, &request, prospective, &options[i], now) {
                    Ok(()) => {
                        ledger.stats.requests_chosen += 1;
                        true
                    }
                    Err(e) => {
                        if matches!(e, EngineError::AssignmentFailed(..)) {
                            ledger.stats.assignments_failed += 1;
                        }
                        false
                    }
                }
            }
            _ => false,
        };
        outcomes.push(BatchOutcome {
            request: id,
            options,
            chosen: if assigned { chosen } else { None },
        });
    }
    ledger.stats.batch_bursts += 1;
    ledger.stats.batch_requests += specs.len() as u64;
    outcomes
}

/// Matches a request with an arbitrary matcher and oracle against a world,
/// recording nothing — the implementation behind
/// [`crate::RideService::match_request_with_oracle`]. The request is
/// validated exactly as a submit is, through the supplied oracle.
pub(crate) fn match_request_with_oracle(
    shared: &EngineShared,
    world: &World,
    kind: MatcherKind,
    request: &Request,
    oracle: &DistanceOracle,
) -> Result<MatchResult, EngineError> {
    let direct = validate_request(
        &shared.net,
        oracle,
        request.origin,
        request.destination,
        request.riders,
    )?;
    let prospective = request.to_prospective(direct, &shared.config);
    let matcher = kind.build();
    let ctx = MatchContext {
        oracle,
        grid: &shared.grid,
        vehicles: &world.vehicles,
        index: &world.index,
        config: &shared.config,
        telemetry: Some(&shared.telemetry),
        trace: None,
    };
    Ok(matcher.find_options(&ctx, &prospective))
}

/// The builder a [`crate::RideService`] is made from: the engine substrate
/// (network, grid, distance oracle, configuration, telemetry), the chosen
/// matching algorithm and the initial fleet.
///
/// Construct one, pick the matcher, register vehicles, then hand it to
/// [`crate::RideService::from_engine`] or [`crate::RideService::recover`];
/// every request, choice and update runs on the service.
pub struct PtRider {
    shared: EngineShared,
    matcher_kind: MatcherKind,
    world: World,
}

impl PtRider {
    /// Builds an engine over a road network, constructing the grid index
    /// with the given configuration.
    pub fn new(net: RoadNetwork, grid_config: GridConfig, config: EngineConfig) -> Self {
        let net = Arc::new(net);
        let grid = Arc::new(GridIndex::build(&net, grid_config));
        Self::with_shared(net, grid, config)
    }

    /// Builds an engine over pre-built, shared network and grid index
    /// handles (useful when benchmarks construct many engines over the same
    /// city).
    ///
    /// The landmark tables are built here (seeded from a max-degree vertex,
    /// see [`ptrider_roadnet::LandmarkIndex::build_auto`]); harnesses that
    /// spin up many engines over one city should build them once and use
    /// [`Self::with_shared_landmarks`] instead.
    pub fn with_shared(net: Arc<RoadNetwork>, grid: Arc<GridIndex>, config: EngineConfig) -> Self {
        if config.num_landmarks == 0 {
            let oracle = DistanceOracle::new(Arc::clone(&net), Arc::clone(&grid));
            return Self::with_oracle_and_telemetry(
                net,
                grid,
                oracle,
                config,
                TelemetryConfig::from_env(),
            );
        }
        let landmarks = ptrider_roadnet::LandmarkIndex::build_auto(&net, config.num_landmarks);
        Self::with_shared_landmarks(net, grid, Arc::new(landmarks), config)
    }

    /// Builds an engine over shared network, grid **and landmark** handles.
    ///
    /// Unlike [`Self::with_shared`], which rebuilds the landmark tables per
    /// engine (one single-source Dijkstra per landmark), this reuses a
    /// caller-built `Arc<LandmarkIndex>` — the cheap path for
    /// many-engines-one-city harnesses. `config.num_landmarks` is ignored;
    /// the shared index decides how many landmarks exist.
    pub fn with_shared_landmarks(
        net: Arc<RoadNetwork>,
        grid: Arc<GridIndex>,
        landmarks: Arc<ptrider_roadnet::LandmarkIndex>,
        config: EngineConfig,
    ) -> Self {
        let oracle = DistanceOracle::with_landmarks(Arc::clone(&net), Arc::clone(&grid), landmarks);
        Self::with_oracle_and_telemetry(net, grid, oracle, config, TelemetryConfig::from_env())
    }

    /// Builds an engine over a caller-constructed distance oracle and an
    /// explicit telemetry configuration (the other constructors read the
    /// level from `PTRIDER_TELEMETRY`; the overhead gate A/B-compares
    /// levels in one process).
    pub fn with_oracle_and_telemetry(
        net: Arc<RoadNetwork>,
        grid: Arc<GridIndex>,
        oracle: DistanceOracle,
        config: EngineConfig,
        telemetry: TelemetryConfig,
    ) -> Self {
        let shared = EngineShared::new(net, grid, oracle, config, telemetry);
        let world = World::new(shared.grid.num_cells());
        PtRider {
            shared,
            matcher_kind: MatcherKind::DualSide,
            world,
        }
    }

    /// Decomposes the engine into its split internals (service-layer
    /// construction path).
    pub(crate) fn into_parts(self) -> (EngineShared, MatcherKind, World) {
        (self.shared, self.matcher_kind, self.world)
    }

    /// Selects the matching algorithm the service will run (the demo's
    /// admin panel allows switching between the single-side and dual-side
    /// searches). Defaults to [`MatcherKind::DualSide`].
    pub fn set_matcher(&mut self, kind: MatcherKind) {
        self.matcher_kind = kind;
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.shared.net
    }

    /// The memoising distance oracle (exposes exact-computation counters).
    pub fn oracle(&self) -> &DistanceOracle {
        &self.shared.oracle
    }

    /// Adds a vehicle at `location` with the global capacity.
    pub fn add_vehicle(&mut self, location: VertexId) -> VehicleId {
        self.add_vehicle_with_capacity(location, self.shared.config.capacity)
    }

    /// Adds a vehicle at `location` with an explicit capacity.
    pub fn add_vehicle_with_capacity(&mut self, location: VertexId, capacity: u32) -> VehicleId {
        self.world.add_vehicle(&self.shared, location, capacity)
    }
}

impl fmt::Debug for PtRider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PtRider")
            .field("vertices", &self.shared.net.num_vertices())
            .field("cells", &self.shared.grid.num_cells())
            .field("vehicles", &self.world.vehicles.len())
            .field("matcher", &self.matcher_kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    //! The engine's free functions, driven through the one front door.

    use super::*;
    use crate::service::tests::city;
    use crate::service::{RideService, ServiceConfig};
    use crate::session::{Decision, OptionId, ServiceError};
    use ptrider_roadnet::RoadNetworkBuilder;

    /// A service over [`city`] with the given matcher and a fixed 60 s offer
    /// TTL (independent of `PTRIDER_OFFER_TTL_SECS`).
    fn service(matcher: MatcherKind) -> RideService {
        RideService::new(
            city(),
            GridConfig::with_dimensions(3, 3),
            EngineConfig::default(),
        )
        .with_matcher(matcher)
        .with_service_config(ServiceConfig::default().with_offer_ttl_secs(60.0))
    }

    fn choose_first(svc: &RideService, offer: &crate::Offer, now: f64) {
        svc.respond(offer.session, Decision::Choose(OptionId(0)), now)
            .unwrap()
            .expect("a choice confirms");
    }

    #[test]
    fn full_request_lifecycle() {
        let e = service(MatcherKind::SingleSide);
        let taxi = e.add_vehicle(VertexId(0));
        assert_eq!(e.num_vehicles(), 1);

        let offer = e.submit(VertexId(6), VertexId(8), 2, 0.0).unwrap();
        assert_eq!(offer.options.len(), 1);
        let opt = &offer.options[0];
        assert_eq!(opt.vehicle, taxi);
        assert_eq!(opt.pickup_dist, 2000.0);
        // Empty vehicle price: f_2 * (2000 + 2 * 2000) = 0.4 * 6000.
        assert!((opt.price - 2400.0).abs() < 1e-6);

        choose_first(&e, &offer, 0.0);
        assert_eq!(e.open_offers(), 0);
        assert!(!e.with_vehicle(taxi, |v| v.is_empty()).unwrap());
        assert_eq!(e.stats().requests_chosen, 1);

        // Drive to the pickup and serve it.
        e.location_update(taxi, VertexId(6), 2000.0).unwrap();
        let ev = e.vehicle_arrived(taxi).unwrap().unwrap();
        assert!(matches!(ev, StopEvent::PickedUp { .. }));
        // Drive to the drop-off and serve it.
        e.location_update(taxi, VertexId(8), 2000.0).unwrap();
        let ev = e.vehicle_arrived(taxi).unwrap().unwrap();
        assert!(matches!(ev, StopEvent::DroppedOff { .. }));
        assert!(e.with_vehicle(taxi, |v| v.is_empty()).unwrap());
        assert_eq!(e.stats().pickups, 1);
        assert_eq!(e.stats().dropoffs, 1);
    }

    #[test]
    fn shared_landmarks_are_not_rebuilt() {
        let net = Arc::new(city());
        let grid = Arc::new(GridIndex::build(
            &net,
            ptrider_roadnet::GridConfig::with_dimensions(3, 3),
        ));
        let landmarks = Arc::new(ptrider_roadnet::LandmarkIndex::build_auto(&net, 4));
        let e1 = PtRider::with_shared_landmarks(
            Arc::clone(&net),
            Arc::clone(&grid),
            Arc::clone(&landmarks),
            EngineConfig::default(),
        );
        let e2 = PtRider::with_shared_landmarks(
            net,
            grid,
            Arc::clone(&landmarks),
            EngineConfig::default(),
        );
        // Both engines point at the very same landmark tables.
        assert!(std::ptr::eq(
            e1.oracle().landmarks().unwrap(),
            landmarks.as_ref()
        ));
        assert!(std::ptr::eq(
            e2.oracle().landmarks().unwrap(),
            landmarks.as_ref()
        ));
    }

    #[test]
    fn submit_validates_inputs() {
        let e = service(MatcherKind::DualSide);
        e.add_vehicle(VertexId(0));
        for (origin, destination, riders) in [(3, 3, 1), (3, 999, 1), (3, 4, 0)] {
            assert!(matches!(
                e.submit(VertexId(origin), VertexId(destination), riders, 0.0),
                Err(ServiceError::Engine(EngineError::InvalidRequest(_)))
            ));
        }
        assert_eq!(e.num_sessions(), 0);
        assert_eq!(e.stats().requests_submitted, 0);
    }

    #[test]
    fn declined_then_resubmitted_rider_gets_fresh_state() {
        // A decline commits nothing: the vehicle stays empty, and the same
        // rider resubmitting gets a fresh request id and the same skyline.
        let e = service(MatcherKind::DualSide);
        let taxi = e.add_vehicle(VertexId(0));
        let first = e.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
        assert!(!first.options.is_empty());
        e.respond(first.session, Decision::Decline, 0.0).unwrap();
        assert!(e.with_vehicle(taxi, |v| v.is_empty()).unwrap());

        let second = e.submit(VertexId(6), VertexId(8), 1, 1.0).unwrap();
        assert_ne!(
            first.request, second.request,
            "resubmission must allocate a fresh id"
        );
        assert_eq!(first.options.len(), second.options.len());
        for (a, b) in first.options.iter().zip(&second.options) {
            assert_eq!(a.price.to_bits(), b.price.to_bits());
        }
        choose_first(&e, &second, 1.0);
        assert_eq!(e.with_vehicle(taxi, |v| v.num_requests()), Some(1));
        assert_eq!(e.stats().requests_chosen, 1);
    }

    #[test]
    fn multiple_vehicles_yield_price_time_tradeoff() {
        let e = service(MatcherKind::DualSide);
        // A nearby vehicle that is already busy (will have a detour-dependent
        // price) and a distant empty vehicle.
        let busy = e.add_vehicle(VertexId(5));
        let far = e.add_vehicle(VertexId(24));

        // Assign a long trip to the nearby vehicle so it is non-empty.
        let first = e.submit(VertexId(5), VertexId(9), 1, 0.0).unwrap();
        let pick = first
            .iter_ids()
            .find(|(_, o)| o.vehicle == busy)
            .map(|(id, _)| id)
            .unwrap();
        e.respond(first.session, Decision::Choose(pick), 0.0)
            .unwrap();

        // A new request starting next to the busy vehicle's route.
        let opts2 = e.submit(VertexId(7), VertexId(9), 1, 1.0).unwrap().options;
        assert!(!opts2.is_empty());
        // All returned options are mutually non-dominated.
        for a in &opts2 {
            for b in &opts2 {
                if !std::ptr::eq(a, b) {
                    assert!(!a.dominates(b));
                }
            }
        }
        // The far empty vehicle can only appear if it is not dominated.
        if opts2.iter().any(|o| o.vehicle == far) {
            assert!(opts2.len() >= 2);
        }
    }

    #[test]
    fn greedy_batch_commits_each_choice_before_the_next_match() {
        let e = service(MatcherKind::DualSide);
        let taxi = e.add_vehicle(VertexId(12));

        // Two simultaneous requests competing for the single taxi: the greedy
        // strategy assigns the first, and the second is matched against the
        // updated (non-empty) schedule.
        let specs = [
            (VertexId(12), VertexId(14), 1u32),
            (VertexId(13), VertexId(14), 1u32),
        ];
        let outcomes = e.submit_batch_greedy(&specs, 0.0, |o| (!o.is_empty()).then_some(0));
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].chosen, Some(0));
        assert!(!outcomes[0].options.is_empty());
        // The second request was matched after the first was committed, so
        // its option (if any) prices the shared schedule, and the vehicle now
        // carries as many requests as were successfully assigned.
        let assigned = outcomes.iter().filter(|o| o.chosen.is_some()).count();
        assert_eq!(e.with_vehicle(taxi, |v| v.num_requests()), Some(assigned));
        assert_eq!(e.stats().requests_chosen, assigned as u64);
    }

    #[test]
    fn batch_records_burst_stats() {
        let e = service(MatcherKind::DualSide);
        e.add_vehicle(VertexId(12));
        let specs = [
            (VertexId(12), VertexId(14), 1u32),
            (VertexId(13), VertexId(14), 1u32),
            (VertexId(3), VertexId(3), 1u32), // invalid: origin == dest
        ];
        let outcomes = e.submit_batch_greedy(&specs, 0.0, |o| (!o.is_empty()).then_some(0));
        // The invalid spec still gets a request id and an empty skyline.
        assert_eq!(outcomes[2].request, RequestId(2));
        assert!(outcomes[2].options.is_empty());
        let s = e.stats();
        assert_eq!(s.batch_bursts, 1);
        // Every spec counts as a burst request, the invalid one included;
        // only the valid ones were matched.
        assert_eq!(s.batch_requests, 3);
        assert_eq!(s.requests_submitted, 2);
    }

    #[test]
    fn greedy_batch_decline_leaves_no_pending_state() {
        let e = service(MatcherKind::DualSide);
        let taxi = e.add_vehicle(VertexId(0));
        let specs = [(VertexId(6), VertexId(8), 1u32)];
        let outcomes = e.submit_batch_greedy(&specs, 0.0, |_| None);
        assert_eq!(outcomes[0].chosen, None);
        assert!(e.with_vehicle(taxi, |v| v.is_empty()).unwrap());
        assert_eq!(e.stats().requests_chosen, 0);
        assert_eq!(e.num_sessions(), 0, "a burst opens no sessions");
    }

    #[test]
    fn traffic_update_changes_prices_and_reset_restores_them() {
        use ptrider_roadnet::TrafficModel;
        let e = service(MatcherKind::SingleSide);
        e.add_vehicle(VertexId(0));
        let base_options = e.submit(VertexId(6), VertexId(8), 2, 0.0).unwrap().options;
        assert_eq!(base_options.len(), 1);
        let base_price = base_options[0].price;
        let base_pickup = base_options[0].pickup_dist;

        // Congest the whole city 2x: pickup distances and prices scale.
        let model = TrafficModel::uniform(e.network(), 2.0);
        let outcome = e.apply_traffic_update(&model, 1.0);
        assert_eq!(outcome.epoch, 1);
        assert_eq!(e.stats().traffic_epochs, 1);
        let congested = e.submit(VertexId(6), VertexId(8), 2, 1.0).unwrap().options;
        assert_eq!(congested.len(), 1);
        assert!((congested[0].pickup_dist - 2.0 * base_pickup).abs() < 1e-6);
        assert!((congested[0].price - 2.0 * base_price).abs() < 1e-6);

        // Free flow again: options return to the base bits.
        let outcome = e.apply_traffic_update(&TrafficModel::free_flow(e.network()), 2.0);
        assert_eq!(outcome.epoch, 2);
        let restored = e.submit(VertexId(6), VertexId(8), 2, 2.0).unwrap().options;
        assert_eq!(restored[0].price.to_bits(), base_price.to_bits());
        assert_eq!(restored[0].pickup_dist.to_bits(), base_pickup.to_bits());
    }

    #[test]
    fn stats_accumulate_over_requests() {
        let e = service(MatcherKind::DualSide);
        e.add_vehicle(VertexId(0));
        for i in 0..5u32 {
            let origin = VertexId(6 + (i % 3));
            let dest = VertexId(20 + (i % 4));
            e.submit(origin, dest, 1, i as f64).unwrap();
        }
        let s = e.stats();
        assert_eq!(s.requests_submitted, 5);
        assert!(s.avg_response_secs() >= 0.0);
        assert!(s.avg_options_per_request() > 0.0);
        assert!(s.match_work.vehicles_verified >= 1);
    }

    /// A service over the 4-vertex line `0 - 1 - 2 - 3` with one taxi at 0.
    fn line_service() -> RideService {
        let mut b = RoadNetworkBuilder::new();
        let ids: Vec<VertexId> = (0..4)
            .map(|i| b.add_vertex(i as f64 * 1000.0, 0.0))
            .collect();
        for pair in ids.windows(2) {
            b.add_bidirectional_edge(pair[0], pair[1], 1000.0);
        }
        let e = RideService::new(
            b.build().unwrap(),
            GridConfig::with_dimensions(2, 1),
            EngineConfig::default(),
        );
        e.add_vehicle(VertexId(0));
        e
    }

    /// `match_request_with` rejects `spec` as invalid under every matcher,
    /// exactly as `submit` does, and still answers a valid request.
    fn assert_probe_rejected(spec: (u32, u32, u32)) {
        let e = line_service();
        let (origin, destination, riders) = spec;
        let (origin, destination) = (VertexId(origin), VertexId(destination));
        assert!(matches!(
            e.submit(origin, destination, riders, 0.0),
            Err(ServiceError::Engine(EngineError::InvalidRequest(_)))
        ));
        let request = Request::new(RequestId(0), origin, destination, riders, 0.0);
        for kind in MatcherKind::all() {
            assert!(matches!(
                e.match_request_with(kind, &request),
                Err(EngineError::InvalidRequest(_))
            ));
        }
        let valid = Request::new(RequestId(0), VertexId(1), VertexId(3), 1, 0.0);
        let result = e.match_request_with(MatcherKind::DualSide, &valid).unwrap();
        assert_eq!(result.options.len(), 1);
    }

    #[test]
    fn match_request_with_rejects_coinciding_endpoints() {
        assert_probe_rejected((2, 2, 1));
    }

    #[test]
    fn match_request_with_rejects_zero_riders() {
        assert_probe_rejected((1, 3, 0));
    }
}
