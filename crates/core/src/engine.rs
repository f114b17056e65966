//! The PTRider engine: the framework of Fig. 2.
//!
//! The engine owns the road-network index modules, the vehicle index and the
//! matching-algorithm module, and exposes the three-step request flow the
//! paper describes:
//!
//! 1. a rider **submits** a request (start, destination, group size) —
//!    [`PtRider::submit`] / [`PtRider::submit_request`];
//! 2. the matching module finds all qualified, non-dominated options and
//!    returns them;
//! 3. the rider **chooses** one option — [`PtRider::choose`] — and the
//!    vehicle and index modules are updated accordingly.
//!
//! Vehicles report **location updates** ([`PtRider::location_update`]) and
//! **pickup / drop-off updates** ([`PtRider::vehicle_arrived`]), which keep
//! the indexes current, exactly as the system-control arrows of Fig. 2.
//!
//! # Engine split: read path vs. write path
//!
//! Internally the engine state is decomposed into three parts so the
//! service layer ([`crate::RideService`]) can run concurrent submits:
//!
//! * [`EngineShared`] — the immutable substrate (network, grid, distance
//!   oracle, configuration, matching runtime). Shared freely across
//!   threads; the oracle's memoisation is internally sharded.
//! * [`World`] — the mutable vehicle world (fleet + vehicle index). The
//!   **read path** (option generation) only needs `&World`; the **write
//!   path** (choice commits, location / stop updates, batch admission)
//!   needs `&mut World`.
//! * [`Ledger`] — request bookkeeping: pending requests awaiting a choice,
//!   engine statistics and the request-id counter.
//!
//! The free functions of this module (`prepare_request`, `match_options`,
//! `commit_choice`, `apply_location_update`, `apply_vehicle_arrived`,
//! `run_batch_greedy`) operate on those parts and are the single
//! implementation both facades delegate to: [`PtRider`] (the original
//! sequential `&mut self` facade, kept as a thin shim) and
//! [`crate::RideService`] (the concurrent session front door, which puts
//! `World` behind an `RwLock` and the `Ledger` behind a `Mutex`). Outcomes
//! are therefore bit-identical between the two facades — property-tested in
//! `tests/service_equivalence.rs`.

use crate::config::EngineConfig;
use crate::matching::{MatchContext, MatchResult, Matcher, MatcherKind};
use crate::options::RideOption;
use crate::request::Request;
use crate::runtime::MatchRuntime;
use crate::stats::EngineStats;
use crate::telemetry::{Stage, Telemetry, TelemetryConfig};
use ptrider_roadnet::{DistanceOracle, GridConfig, GridIndex, RoadNetwork, TrafficModel, VertexId};
use ptrider_vehicles::{
    ProspectiveRequest, RequestId, StopEvent, Vehicle, VehicleId, VehicleIndex,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Errors returned by engine operations.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The request id is not pending (never submitted, already chosen, or
    /// declined).
    UnknownRequest(RequestId),
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
            EngineError::UnknownRequest(r) => write!(f, "request {r} is not pending"),
            EngineError::UnknownVehicle(v) => write!(f, "vehicle {v} does not exist"),
            EngineError::AssignmentFailed(r, v) => {
                write!(f, "vehicle {v} can no longer serve request {r}")
            }
            EngineError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A submitted request waiting for the rider's choice.
#[derive(Clone, Debug)]
pub(crate) struct PendingRequest {
    pub(crate) request: Request,
    pub(crate) prospective: ProspectiveRequest,
}

/// The immutable engine substrate, shared by the read and write paths:
/// road network, grid index, distance oracle, configuration and the
/// persistent matching runtime. Everything here is safe to use from many
/// threads at once (the oracle's memoisation is internally sharded).
pub(crate) struct EngineShared {
    pub(crate) net: Arc<RoadNetwork>,
    pub(crate) grid: Arc<GridIndex>,
    pub(crate) oracle: DistanceOracle,
    pub(crate) config: EngineConfig,
    /// The persistent matching runtime: a long-lived worker pool sized from
    /// [`EngineConfig::pool_size`], shared by candidate verification and
    /// batch admission.
    pub(crate) runtime: Arc<MatchRuntime>,
    /// The engine's telemetry hub: per-stage latency histograms, the trace
    /// ring and the named counter/gauge registry. Every layer shares this
    /// one hub (level from `PTRIDER_TELEMETRY` unless overridden at
    /// construction).
    pub(crate) telemetry: Arc<Telemetry>,
}

/// `PTRIDER_TRAFFIC_EPOCHS` (read once per process): when set to `n > 0`,
/// every engine construction applies `n` synthetic traffic epochs before
/// serving — each mid epoch congests a deterministic third of the arcs, and
/// the **final epoch returns every factor to free flow**. The whole repair
/// pipeline (metric swap, CH customization, epoch-stamped cache
/// invalidation) is therefore exercised by every test of the suite while
/// the final metric is bit-identical to the base one (`w * 1.0 == w`), so
/// no distance- or price-level assertion changes. CI runs the full suite
/// once with this set; see `.github/workflows/ci.yml`.
fn env_traffic_epochs() -> u64 {
    static ENV: OnceLock<u64> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PTRIDER_TRAFFIC_EPOCHS")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(0)
    })
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
        if let Some(seed) = config.fault_seed {
            // Arm the process-global chaos plan before anything that hosts a
            // fail point runs (the CH build already happened in the caller;
            // `PTRIDER_CHAOS` covers that path, a config seed covers reuse).
            ptrider_roadnet::fault::arm(ptrider_roadnet::fault::FaultPlan::transient(seed));
        }
        let telemetry = Arc::new(Telemetry::new(telemetry_config));
        let runtime = Arc::new(MatchRuntime::from_config(config.pool_size));
        if telemetry.spans_enabled() {
            runtime
                .pool()
                .attach_job_histogram(telemetry.stage_histogram(Stage::PoolJob));
        }
        let shared = EngineShared {
            net,
            grid,
            oracle,
            config,
            runtime,
            telemetry,
        };
        let epochs = env_traffic_epochs();
        if epochs > 0 {
            // Env-gated repair-path exercise (see `env_traffic_epochs`).
            let base = shared.oracle.network();
            let mut model = TrafficModel::free_flow(base);
            for k in 1..=epochs {
                if k == epochs {
                    model.reset();
                } else {
                    for i in 0..base.num_directed_edges() {
                        if i as u64 % 3 == k % 3 {
                            model.set_arc_factor(i, 1.0 + 0.5 * k as f64);
                        }
                    }
                    model.bump_version();
                }
                shared.oracle.apply_traffic(&model);
            }
        }
        shared
    }

    /// A matching context over `world`. `use_runtime` selects whether the
    /// verification loop may dispatch onto the worker pool (it must not
    /// when the caller itself runs *on* the pool).
    pub(crate) fn match_context<'a>(
        &'a self,
        world: &'a World,
        use_runtime: bool,
    ) -> MatchContext<'a> {
        MatchContext {
            oracle: &self.oracle,
            grid: &self.grid,
            vehicles: &world.vehicles,
            index: &world.index,
            config: &self.config,
            runtime: use_runtime.then_some(&*self.runtime),
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
}

impl World {
    pub(crate) fn new(num_cells: usize) -> Self {
        World {
            vehicles: HashMap::new(),
            index: VehicleIndex::new(num_cells),
            next_vehicle: 0,
        }
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
        let vehicle = Vehicle::new(id, capacity, location);
        self.index
            .update_from_vehicle(&vehicle, &shared.net, &shared.grid, &shared.oracle);
        self.vehicles.insert(id, vehicle);
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

/// Request bookkeeping: pending requests, statistics, request-id counter.
pub(crate) struct Ledger {
    pub(crate) pending: HashMap<RequestId, PendingRequest>,
    pub(crate) stats: EngineStats,
    next_request: u64,
}

impl Ledger {
    pub(crate) fn new() -> Self {
        Ledger {
            pending: HashMap::new(),
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
/// the sequential submit path, the service-layer submit and the parallel
/// tentative-matching phase of conflict-graph batch admission all go
/// through here, so no admission mode can diverge on validity.
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
    use_runtime: bool,
) -> (MatchResult, f64) {
    match_options_in(shared, matcher, world, prospective, use_runtime, None)
}

/// [`match_options`] with a request trace context threaded into the
/// matcher, so the per-stage match timings land in the request's trace
/// tree as children of `trace`'s span.
pub(crate) fn match_options_in(
    shared: &EngineShared,
    matcher: &dyn Matcher,
    world: &World,
    prospective: &ProspectiveRequest,
    use_runtime: bool,
    trace: Option<crate::telemetry::TraceContext>,
) -> (MatchResult, f64) {
    let started = Instant::now();
    let mut ctx = shared.match_context(world, use_runtime);
    ctx.trace = trace;
    let result = matcher.find_options(&ctx, prospective);
    (result, started.elapsed().as_secs_f64())
}

/// Commits a rider's choice into the world — the **write path**. Assigns
/// the request to the option's vehicle and refreshes the vehicle index.
/// Does not touch the ledger; callers decide how the pending entry and the
/// statistics are updated.
pub(crate) fn commit_choice(
    shared: &EngineShared,
    world: &mut World,
    pending: &PendingRequest,
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
        .seconds_to_distance(pending.request.effective_max_wait_secs(&shared.config));
    let assigned = vehicle.assign(
        &shared.oracle,
        &pending.prospective,
        option.pickup_dist,
        max_wait_dist,
        option.price,
        now,
    );
    if assigned.is_none() {
        return Err(EngineError::AssignmentFailed(
            pending.request.id,
            option.vehicle,
        ));
    }
    // Chaos site: a panic here tears the commit (vehicle assigned, index
    // stale) while the caller holds the world write lock — the worst-case
    // crash the journal's recovery path must absorb.
    ptrider_roadnet::fault::panic_point(ptrider_roadnet::fault::MID_COMMIT);
    world
        .index
        .update_from_vehicle(vehicle, &shared.net, &shared.grid, &shared.oracle);
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
    world
        .index
        .update_from_vehicle(vehicle, &shared.net, &shared.grid, &shared.oracle);
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
        world
            .index
            .update_from_vehicle(vehicle, &shared.net, &shared.grid, &shared.oracle);
    }
    Ok(event)
}

/// Submits one request: validate, match, record. The shared implementation
/// behind [`PtRider::submit_request`] and the batch loops.
pub(crate) fn submit_request(
    shared: &EngineShared,
    matcher: &dyn Matcher,
    world: &World,
    ledger: &mut Ledger,
    request: Request,
) -> Result<MatchResult, EngineError> {
    let prospective = prepare_request(shared, &request)?;
    let (result, elapsed) = match_options(shared, matcher, world, &prospective, true);
    ledger.record_match(&result, elapsed);
    ledger.pending.insert(
        request.id,
        PendingRequest {
            request,
            prospective,
        },
    );
    Ok(result)
}

/// The rider chooses a previously offered option: commit and settle the
/// pending entry. Shared by [`PtRider::choose`] and the batch loops.
pub(crate) fn choose(
    shared: &EngineShared,
    world: &mut World,
    ledger: &mut Ledger,
    request_id: RequestId,
    option: &RideOption,
    now: f64,
) -> Result<(), EngineError> {
    let pending = ledger
        .pending
        .get(&request_id)
        .ok_or(EngineError::UnknownRequest(request_id))?;
    match commit_choice(shared, world, pending, option, now) {
        Ok(()) => {
            ledger.pending.remove(&request_id);
            ledger.stats.requests_chosen += 1;
            Ok(())
        }
        Err(e) => {
            if matches!(e, EngineError::AssignmentFailed(..)) {
                ledger.stats.assignments_failed += 1;
            }
            Err(e)
        }
    }
}

/// Discards a pending request (the rider declined all options).
pub(crate) fn decline(ledger: &mut Ledger, request_id: RequestId) -> Result<(), EngineError> {
    ledger
        .pending
        .remove(&request_id)
        .map(|_| ())
        .ok_or(EngineError::UnknownRequest(request_id))
}

/// What an engine-level traffic update did (the engine-facing mirror of
/// [`ptrider_roadnet::TrafficApplied`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficUpdateOutcome {
    /// The metric epoch now in effect.
    pub epoch: u64,
    /// Whether the contraction hierarchy was repaired by a customization
    /// pass (`false` on the ALT backend or after a repair fallback).
    pub ch_repaired: bool,
    /// Arcs above free flow in the applied model.
    pub congested_arcs: usize,
    /// Largest multiplicative factor in the applied model.
    pub max_factor: f64,
}

/// Applies a traffic epoch — the **write path**. Swaps the oracle's metric
/// (scaled by the model's ≥ 1.0 factors), repairs the CH backend via a
/// customization pass (ALT fallback when impossible), lazily invalidates
/// the epoch-stamped distance cache, and records the statistics. Shared by
/// [`PtRider::apply_traffic_update`] and
/// [`crate::RideService::apply_traffic_update`].
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
    if applied.ch_repaired {
        ledger.stats.ch_customizations += 1;
    }
    TrafficUpdateOutcome {
        epoch: applied.epoch,
        ch_repaired: applied.ch_repaired,
        congested_arcs: applied.congested_arcs,
        max_factor: applied.max_factor,
    }
}

/// Result of one request inside [`PtRider::submit_batch_greedy`].
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

/// The paper's strictly sequential greedy admission loop — the reference
/// behaviour [`run_batch_greedy`] is property-tested against.
pub(crate) fn run_batch_sequential<F>(
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
        let options = submit_request(shared, matcher, world, ledger, request)
            .map(|r| r.options)
            .unwrap_or_default();
        let chosen = selector(&options).filter(|&i| i < options.len());
        let assigned = match chosen {
            Some(i) => choose(shared, world, ledger, id, &options[i], now).is_ok(),
            None => {
                let _ = decline(ledger, id);
                false
            }
        };
        outcomes.push(BatchOutcome {
            request: id,
            options,
            chosen: if assigned { chosen } else { None },
        });
    }
    outcomes
}

/// Greedy batch admission over split engine state, run as conflict-graph
/// parallel admission. The shared implementation behind
/// [`PtRider::submit_batch_greedy`] and
/// [`crate::RideService::submit_batch_greedy`].
///
/// Peak-load bursts are admitted in three phases:
///
/// 1. **Parallel tentative matching** (read-only): every request is
///    matched against the pre-burst state on the persistent worker
///    pool, and its over-approximate candidate-vehicle set
///    ([`VehicleIndex::pickup_candidates`]) is extracted — the vehicles
///    whose state could possibly influence the request's skyline.
/// 2. **Conflict graph**: requests sharing a candidate vehicle are
///    joined into one partition (union–find). Disjoint partitions touch
///    disjoint vehicle sets, so their order of admission is irrelevant.
/// 3. **Greedy-order commit**: requests are committed strictly in input
///    order. A tentative skyline is reused verbatim unless an
///    earlier-committed assignment modified one of the request's
///    candidate vehicles — only then is the request re-matched against
///    the updated state (counted in [`EngineStats::batch_rematches`]).
///
/// **Determinism.** The outcome equals the sequential loop's
/// bit-for-bit: a request's skyline depends only on the states of its
/// candidate vehicles (any other vehicle's insertions are filtered by
/// the pickup radius that defines the candidate set), so a tentative
/// result is only reused when every vehicle that could influence it is
/// untouched since the burst began — in which case it *is* the result
/// the sequential loop would compute. Conflicted requests fall back to
/// literal sequential matching. Matcher **work counters** may differ
/// slightly from the sequential loop's (a vehicle pruned early in one can
/// be considered in the other); the option skylines do not.
pub(crate) fn run_batch_greedy<F>(
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
    // Request ids are allocated upfront, in input order, exactly as the
    // sequential loop would hand them out.
    let ids: Vec<RequestId> = specs.iter().map(|_| ledger.allocate_request_id()).collect();
    let runtime = Arc::clone(&shared.runtime);

    struct Tentative {
        request: Request,
        /// `None` marks an invalid request (empty options, no stats).
        prospective: Option<ProspectiveRequest>,
        /// Sorted candidate-vehicle ids (conflict edges).
        candidates: Vec<VehicleId>,
        result: MatchResult,
        elapsed: f64,
    }

    // ------------------------------------------------------------------
    // Phase 1: parallel tentative matching against the pre-burst state.
    // ------------------------------------------------------------------
    let mut tentatives: Vec<Option<Tentative>> = Vec::with_capacity(specs.len());
    tentatives.resize_with(specs.len(), || None);
    {
        let world_ref: &World = world;
        let ids = &ids;
        let compute = move |i: usize| -> Tentative {
            let (origin, destination, riders) = specs[i];
            let request = Request::new(ids[i], origin, destination, riders, now);
            // The one shared validity definition (`validate_request`)
            // keeps this phase and the sequential path in lockstep.
            let Ok(direct) =
                validate_request(&shared.net, &shared.oracle, origin, destination, riders)
            else {
                return Tentative {
                    request,
                    prospective: None,
                    candidates: Vec::new(),
                    result: MatchResult::default(),
                    elapsed: 0.0,
                };
            };
            let prospective = request.to_prospective(direct, &shared.config);
            let started = Instant::now();
            let candidates = world_ref.index.pickup_candidates(
                &world_ref.vehicles,
                &shared.net,
                &shared.grid,
                &shared.oracle,
                prospective.pickup,
                shared.config.max_pickup_dist,
            );
            // `use_runtime: false`: this job may itself run on a pool
            // worker, and a job must not enqueue nested pool work the
            // busy pool could never get to. Burst-level parallelism
            // already saturates the workers.
            let ctx = shared.match_context(world_ref, false);
            let result = matcher.find_options(&ctx, &prospective);
            Tentative {
                request,
                prospective: Some(prospective),
                candidates,
                result,
                elapsed: started.elapsed().as_secs_f64(),
            }
        };

        runtime.fill_chunked(runtime.parallelism(), &mut tentatives, |i, slot| {
            *slot = Some(compute(i));
        });
    }

    // ------------------------------------------------------------------
    // Phase 2: conflict graph — union requests sharing a candidate.
    // ------------------------------------------------------------------
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut walk = i;
        while parent[walk] != root {
            let next = parent[walk];
            parent[walk] = root;
            walk = next;
        }
        root
    }
    let mut parent: Vec<usize> = (0..specs.len()).collect();
    let mut owner: HashMap<VehicleId, usize> = HashMap::new();
    for (i, tentative) in tentatives.iter().enumerate() {
        let candidates = tentative
            .as_ref()
            .map(|t| t.candidates.as_slice())
            .unwrap_or_default();
        for &vehicle in candidates {
            match owner.entry(vehicle) {
                std::collections::hash_map::Entry::Occupied(entry) => {
                    let a = find(&mut parent, *entry.get());
                    let b = find(&mut parent, i);
                    parent[a.max(b)] = a.min(b);
                }
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(i);
                }
            }
        }
    }
    let partitions = (0..specs.len())
        .filter(|&i| find(&mut parent, i) == i)
        .count();

    // ------------------------------------------------------------------
    // Phase 3: greedy-order commit with invalidation-driven re-match.
    // ------------------------------------------------------------------
    let mut modified: HashSet<VehicleId> = HashSet::new();
    let mut rematches = 0u64;
    let mut outcomes = Vec::with_capacity(specs.len());
    for tentative in tentatives.into_iter() {
        let Tentative {
            request,
            prospective,
            candidates,
            result,
            elapsed,
        } = tentative.expect("phase 1 fills every slot");
        let id = request.id;
        let Some(prospective) = prospective else {
            // Invalid request: the sequential path returns an empty
            // option slice and still consults the (stateful) selector.
            let _ = selector(&[]);
            outcomes.push(BatchOutcome {
                request: id,
                options: Vec::new(),
                chosen: None,
            });
            continue;
        };

        let conflicted = candidates.iter().any(|v| modified.contains(v));
        let (result, elapsed) = if conflicted {
            // An earlier commit touched a shared candidate vehicle: the
            // tentative skyline is stale. Re-match against the current
            // state — this *is* the sequential behaviour for this
            // request. We are back on the caller thread here, so the
            // verification loop may use the pool again.
            rematches += 1;
            match_options(shared, matcher, world, &prospective, true)
        } else {
            (result, elapsed)
        };

        // Bookkeeping identical to `submit_request`.
        ledger.record_match(&result, elapsed);
        ledger.pending.insert(
            id,
            PendingRequest {
                request,
                prospective,
            },
        );

        let options = result.options;
        let chosen = selector(&options).filter(|&k| k < options.len());
        let assigned = match chosen {
            Some(k) => {
                let option = options[k].clone();
                let ok = choose(shared, world, ledger, id, &option, now).is_ok();
                if ok {
                    modified.insert(option.vehicle);
                }
                ok
            }
            None => {
                let _ = decline(ledger, id);
                false
            }
        };
        outcomes.push(BatchOutcome {
            request: id,
            options,
            chosen: if assigned { chosen } else { None },
        });
    }

    ledger.stats.batch_bursts += 1;
    ledger.stats.batch_requests += specs.len() as u64;
    ledger.stats.batch_partitions += partitions as u64;
    ledger.stats.batch_rematches += rematches;
    outcomes
}

/// Matches a request with an arbitrary matcher and oracle against a world,
/// recording nothing. Shared by [`PtRider::match_request_with_oracle`] and
/// [`crate::RideService::match_request_with`].
pub(crate) fn match_request_with_oracle(
    shared: &EngineShared,
    world: &World,
    kind: MatcherKind,
    request: &Request,
    oracle: &DistanceOracle,
) -> Result<MatchResult, EngineError> {
    if !shared.net.contains(request.origin) || !shared.net.contains(request.destination) {
        return Err(EngineError::InvalidRequest(
            "origin or destination is not a vertex of the road network",
        ));
    }
    let direct = oracle.distance(request.origin, request.destination);
    if !direct.is_finite() {
        return Err(EngineError::InvalidRequest(
            "destination unreachable from origin",
        ));
    }
    let prospective = request.to_prospective(direct, &shared.config);
    let matcher = kind.build();
    let ctx = MatchContext {
        oracle,
        grid: &shared.grid,
        vehicles: &world.vehicles,
        index: &world.index,
        config: &shared.config,
        runtime: Some(&shared.runtime),
        telemetry: Some(&shared.telemetry),
        trace: None,
    };
    Ok(matcher.find_options(&ctx, &prospective))
}

/// The price-and-time-aware ridesharing engine — the original sequential
/// `&mut self` facade.
///
/// New code that needs concurrency or the offer/respond session lifecycle
/// should prefer [`crate::RideService`], which wraps the same split engine
/// internals behind interior locks; `PtRider` remains the zero-overhead
/// single-threaded shim over those internals (and the reference behaviour
/// the service is property-tested against).
pub struct PtRider {
    shared: EngineShared,
    matcher_kind: MatcherKind,
    matcher: Box<dyn Matcher>,
    world: World,
    ledger: Ledger,
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
        let landmarks = (config.num_landmarks > 0).then(|| {
            Arc::new(ptrider_roadnet::LandmarkIndex::build_auto(
                &net,
                config.num_landmarks,
            ))
        });
        let oracle = DistanceOracle::with_backend(
            Arc::clone(&net),
            Arc::clone(&grid),
            landmarks,
            config.distance_backend,
        );
        Self::with_oracle(net, grid, oracle, config)
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
        let oracle = DistanceOracle::with_backend(
            Arc::clone(&net),
            Arc::clone(&grid),
            Some(landmarks),
            config.distance_backend,
        );
        Self::with_oracle(net, grid, oracle, config)
    }

    /// Builds an engine over a caller-constructed distance oracle (used by
    /// benchmarks to compare oracle configurations on identical worlds).
    pub fn with_oracle(
        net: Arc<RoadNetwork>,
        grid: Arc<GridIndex>,
        oracle: DistanceOracle,
        config: EngineConfig,
    ) -> Self {
        Self::with_oracle_and_telemetry(net, grid, oracle, config, TelemetryConfig::from_env())
    }

    /// [`Self::with_oracle`] with an explicit telemetry configuration
    /// instead of the `PTRIDER_TELEMETRY` environment default (used by
    /// tests and by the overhead-gate harness, which A/B-compares levels
    /// in one process).
    pub fn with_oracle_and_telemetry(
        net: Arc<RoadNetwork>,
        grid: Arc<GridIndex>,
        oracle: DistanceOracle,
        config: EngineConfig,
        telemetry: TelemetryConfig,
    ) -> Self {
        let shared = EngineShared::new(net, grid, oracle, config, telemetry);
        let world = World::new(shared.grid.num_cells());
        let matcher_kind = MatcherKind::DualSide;
        PtRider {
            shared,
            matcher_kind,
            matcher: matcher_kind.build(),
            world,
            ledger: Ledger::new(),
        }
    }

    /// Decomposes the engine into its split internals (service-layer
    /// construction path).
    pub(crate) fn into_parts(self) -> (EngineShared, MatcherKind, Box<dyn Matcher>, World, Ledger) {
        (
            self.shared,
            self.matcher_kind,
            self.matcher,
            self.world,
            self.ledger,
        )
    }

    /// Selects the active matching algorithm (the demo's admin panel allows
    /// switching between the single-side and dual-side searches).
    pub fn set_matcher(&mut self, kind: MatcherKind) {
        self.matcher_kind = kind;
        self.matcher = kind.build();
    }

    /// The active matching algorithm.
    pub fn matcher_kind(&self) -> MatcherKind {
        self.matcher_kind
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.shared.net
    }

    /// The road-network grid index.
    pub fn grid(&self) -> &GridIndex {
        &self.shared.grid
    }

    /// The memoising distance oracle (exposes exact-computation counters).
    pub fn oracle(&self) -> &DistanceOracle {
        &self.shared.oracle
    }

    /// The persistent matching runtime (worker pool) this engine dispatches
    /// parallel verification and batch admission onto.
    pub fn runtime(&self) -> &MatchRuntime {
        &self.shared.runtime
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.ledger.stats
    }

    /// The engine's telemetry hub (stage histograms, trace ring, named
    /// counters/gauges).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Resets the aggregated statistics (used between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.ledger.stats = EngineStats::default();
        self.shared.oracle.reset_counters();
    }

    // ------------------------------------------------------------------
    // Vehicles
    // ------------------------------------------------------------------

    /// Adds a vehicle at `location` with the global capacity.
    pub fn add_vehicle(&mut self, location: VertexId) -> VehicleId {
        self.add_vehicle_with_capacity(location, self.shared.config.capacity)
    }

    /// Adds a vehicle at `location` with an explicit capacity.
    pub fn add_vehicle_with_capacity(&mut self, location: VertexId, capacity: u32) -> VehicleId {
        self.world.add_vehicle(&self.shared, location, capacity)
    }

    /// Number of vehicles registered.
    pub fn num_vehicles(&self) -> usize {
        self.world.vehicles.len()
    }

    /// Looks up a vehicle.
    pub fn vehicle(&self, id: VehicleId) -> Option<&Vehicle> {
        self.world.vehicles.get(&id)
    }

    /// Iterates over all vehicles.
    pub fn vehicles(&self) -> impl Iterator<Item = &Vehicle> {
        self.world.vehicles.values()
    }

    /// The vehicle grid index (empty / non-empty lists per cell).
    pub fn vehicle_index(&self) -> &VehicleIndex {
        &self.world.index
    }

    // ------------------------------------------------------------------
    // Requests
    // ------------------------------------------------------------------

    /// Convenience wrapper around [`Self::submit_request`] that allocates the
    /// request id and uses the global `w` and `δ`.
    pub fn submit(
        &mut self,
        origin: VertexId,
        destination: VertexId,
        riders: u32,
        now: f64,
    ) -> (RequestId, Vec<RideOption>) {
        let id = self.allocate_request_id();
        let request = Request::new(id, origin, destination, riders, now);
        let options = self
            .submit_request(request)
            .map(|r| r.options)
            .unwrap_or_default();
        (id, options)
    }

    /// Allocates a fresh request id (callers that build [`Request`] values
    /// themselves must use engine-issued ids).
    pub fn allocate_request_id(&mut self) -> RequestId {
        self.ledger.allocate_request_id()
    }

    /// Submits a request and returns the full matching result (options plus
    /// work counters). The options are remembered so the rider can
    /// subsequently [`Self::choose`] one.
    pub fn submit_request(&mut self, request: Request) -> Result<MatchResult, EngineError> {
        submit_request(
            &self.shared,
            &*self.matcher,
            &self.world,
            &mut self.ledger,
            request,
        )
    }

    /// Matches a request against the *current* state with an arbitrary
    /// matching algorithm, without recording anything (no pending request,
    /// no statistics). Used by the benchmark harness to compare algorithms
    /// on identical worlds and by the simulator's cross-check mode.
    pub fn match_request_with(
        &self,
        kind: MatcherKind,
        request: &Request,
    ) -> Result<MatchResult, EngineError> {
        self.match_request_with_oracle(kind, request, &self.shared.oracle)
    }

    /// Like [`Self::match_request_with`] but matching through a
    /// caller-supplied distance oracle instead of the engine's own — the
    /// entry point for comparing oracle configurations (e.g. the `Alt` vs
    /// `Ch` backends) on one identical world. The oracle must be built over
    /// the same road network.
    pub fn match_request_with_oracle(
        &self,
        kind: MatcherKind,
        request: &Request,
        oracle: &DistanceOracle,
    ) -> Result<MatchResult, EngineError> {
        match_request_with_oracle(&self.shared, &self.world, kind, request, oracle)
    }

    /// The rider chooses one of the options previously returned for
    /// `request_id`. The option's vehicle is assigned the request, and the
    /// vehicle index is updated.
    pub fn choose(
        &mut self,
        request_id: RequestId,
        option: &RideOption,
        now: f64,
    ) -> Result<(), EngineError> {
        choose(
            &self.shared,
            &mut self.world,
            &mut self.ledger,
            request_id,
            option,
            now,
        )
    }

    /// Processes a batch of *simultaneous* requests with the greedy strategy
    /// the paper describes (Section 2.5): requests are matched one by one in
    /// the given order, and each rider's choice — made by `selector`, which
    /// receives the skyline and returns the index of the chosen option (or
    /// `None` to decline) — is committed before the next request is matched,
    /// so later requests see the updated vehicle schedules.
    ///
    /// Runs as conflict-graph parallel admission on the persistent worker
    /// pool (see [`run_batch_greedy`] for the three-phase algorithm and its
    /// determinism argument): the outcomes are **byte-identical** to the
    /// strictly sequential loop's — the selector is invoked in request order
    /// with bit-equal option slices.
    ///
    /// Returns one [`BatchOutcome`] per input, in order.
    pub fn submit_batch_greedy<F>(
        &mut self,
        specs: &[(VertexId, VertexId, u32)],
        now: f64,
        selector: F,
    ) -> Vec<BatchOutcome>
    where
        F: FnMut(&[RideOption]) -> Option<usize>,
    {
        run_batch_greedy(
            &self.shared,
            &*self.matcher,
            &mut self.world,
            &mut self.ledger,
            specs,
            now,
            selector,
        )
    }

    /// The paper's strictly sequential greedy admission loop — the reference
    /// [`Self::submit_batch_greedy`] is property-tested against
    /// (`tests/batch_admission_equivalence.rs`).
    #[doc(hidden)]
    pub fn submit_batch_sequential<F>(
        &mut self,
        specs: &[(VertexId, VertexId, u32)],
        now: f64,
        selector: F,
    ) -> Vec<BatchOutcome>
    where
        F: FnMut(&[RideOption]) -> Option<usize>,
    {
        run_batch_sequential(
            &self.shared,
            &*self.matcher,
            &mut self.world,
            &mut self.ledger,
            specs,
            now,
            selector,
        )
    }

    /// Discards a pending request (the rider declined all options).
    pub fn decline(&mut self, request_id: RequestId) -> Result<(), EngineError> {
        decline(&mut self.ledger, request_id)
    }

    /// Number of requests awaiting a choice.
    pub fn pending_requests(&self) -> usize {
        self.ledger.pending.len()
    }

    // ------------------------------------------------------------------
    // Vehicle updates (location / pickup / drop-off, Fig. 2)
    // ------------------------------------------------------------------

    /// Applies a periodic location update: the vehicle has driven
    /// `travelled` metres and is now at `location`.
    pub fn location_update(
        &mut self,
        vehicle_id: VehicleId,
        location: VertexId,
        travelled: f64,
    ) -> Result<(), EngineError> {
        apply_location_update(
            &self.shared,
            &mut self.world,
            vehicle_id,
            location,
            travelled,
        )?;
        self.ledger.stats.location_updates += 1;
        Ok(())
    }

    /// Applies a live-traffic epoch: the distance oracle's metric is
    /// scaled by the model's factors (≥ 1.0 over free flow), the CH
    /// backend is repaired by a CCH customization pass instead of a
    /// rebuild, and the epoch-stamped distance cache invalidates lazily.
    /// The model must be built over this engine's road network
    /// ([`Self::network`]).
    pub fn apply_traffic_update(&mut self, model: &TrafficModel) -> TrafficUpdateOutcome {
        apply_traffic(&self.shared, &mut self.ledger, model)
    }

    /// Notifies the engine that a vehicle has arrived at the next stop of
    /// its schedule; serves the stop (pickup or drop-off update) and
    /// refreshes the vehicle index.
    pub fn vehicle_arrived(
        &mut self,
        vehicle_id: VehicleId,
    ) -> Result<Option<StopEvent>, EngineError> {
        let event = apply_vehicle_arrived(&self.shared, &mut self.world, vehicle_id)?;
        match &event {
            Some(StopEvent::PickedUp { .. }) => self.ledger.stats.pickups += 1,
            Some(StopEvent::DroppedOff { .. }) => self.ledger.stats.dropoffs += 1,
            None => {}
        }
        Ok(event)
    }
}

impl fmt::Debug for PtRider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PtRider")
            .field("vertices", &self.shared.net.num_vertices())
            .field("cells", &self.shared.grid.num_cells())
            .field("vehicles", &self.world.vehicles.len())
            .field("matcher", &self.matcher_kind)
            .field("pending", &self.ledger.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrider_roadnet::RoadNetworkBuilder;

    /// A 5x5 lattice with 1 km edges.
    fn city() -> RoadNetwork {
        let side = 5usize;
        let mut b = RoadNetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..side {
            for x in 0..side {
                ids.push(b.add_vertex(x as f64 * 1000.0, y as f64 * 1000.0));
            }
        }
        for y in 0..side {
            for x in 0..side {
                let u = ids[y * side + x];
                if x + 1 < side {
                    b.add_bidirectional_edge(u, ids[y * side + x + 1], 1000.0);
                }
                if y + 1 < side {
                    b.add_bidirectional_edge(u, ids[(y + 1) * side + x], 1000.0);
                }
            }
        }
        b.build().unwrap()
    }

    fn engine() -> PtRider {
        PtRider::new(
            city(),
            GridConfig::with_dimensions(3, 3),
            EngineConfig::default(),
        )
    }

    #[test]
    fn full_request_lifecycle() {
        let mut e = engine();
        e.set_matcher(MatcherKind::SingleSide);
        let taxi = e.add_vehicle(VertexId(0));
        assert_eq!(e.num_vehicles(), 1);

        let (req, options) = e.submit(VertexId(6), VertexId(8), 2, 0.0);
        assert_eq!(options.len(), 1);
        assert_eq!(e.pending_requests(), 1);
        let opt = &options[0];
        assert_eq!(opt.vehicle, taxi);
        assert_eq!(opt.pickup_dist, 2000.0);
        // Empty vehicle price: f_2 * (2000 + 2 * 2000) = 0.4 * 6000.
        assert!((opt.price - 2400.0).abs() < 1e-6);

        e.choose(req, opt, 0.0).unwrap();
        assert_eq!(e.pending_requests(), 0);
        assert!(!e.vehicle(taxi).unwrap().is_empty());
        assert_eq!(e.stats().requests_chosen, 1);

        // Drive to the pickup and serve it.
        e.location_update(taxi, VertexId(6), 2000.0).unwrap();
        let ev = e.vehicle_arrived(taxi).unwrap().unwrap();
        assert!(matches!(ev, StopEvent::PickedUp { .. }));
        // Drive to the drop-off and serve it.
        e.location_update(taxi, VertexId(8), 2000.0).unwrap();
        let ev = e.vehicle_arrived(taxi).unwrap().unwrap();
        assert!(matches!(ev, StopEvent::DroppedOff { .. }));
        assert!(e.vehicle(taxi).unwrap().is_empty());
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
    fn ch_backend_engine_returns_the_same_options() {
        let mut alt = engine();
        let mut ch = PtRider::new(
            city(),
            GridConfig::with_dimensions(3, 3),
            EngineConfig::default().with_distance_backend(ptrider_roadnet::DistanceBackend::Ch),
        );
        assert_eq!(ch.oracle().backend(), ptrider_roadnet::DistanceBackend::Ch);
        for e in [&mut alt, &mut ch] {
            e.set_matcher(MatcherKind::DualSide);
            e.add_vehicle(VertexId(0));
            e.add_vehicle(VertexId(24));
        }
        let (_, opts_alt) = alt.submit(VertexId(6), VertexId(8), 2, 0.0);
        let (_, opts_ch) = ch.submit(VertexId(6), VertexId(8), 2, 0.0);
        assert_eq!(opts_alt.len(), opts_ch.len());
        for (a, c) in opts_alt.iter().zip(&opts_ch) {
            assert_eq!(a.vehicle, c.vehicle);
            assert!((a.pickup_dist - c.pickup_dist).abs() < 1e-6);
            assert!((a.price - c.price).abs() < 1e-6);
        }
    }

    #[test]
    fn submit_validates_inputs() {
        let mut e = engine();
        e.add_vehicle(VertexId(0));
        let id = e.allocate_request_id();
        let bad = Request::new(id, VertexId(3), VertexId(3), 1, 0.0);
        assert!(matches!(
            e.submit_request(bad),
            Err(EngineError::InvalidRequest(_))
        ));
        let id = e.allocate_request_id();
        let bad = Request::new(id, VertexId(3), VertexId(999), 1, 0.0);
        assert!(matches!(
            e.submit_request(bad),
            Err(EngineError::InvalidRequest(_))
        ));
        let id = e.allocate_request_id();
        let bad = Request::new(id, VertexId(3), VertexId(4), 0, 0.0);
        assert!(matches!(
            e.submit_request(bad),
            Err(EngineError::InvalidRequest(_))
        ));
    }

    #[test]
    fn choose_unknown_request_fails() {
        let mut e = engine();
        let taxi = e.add_vehicle(VertexId(0));
        let opt = RideOption {
            vehicle: taxi,
            pickup_dist: 0.0,
            pickup_secs: 0.0,
            price: 0.0,
            schedule: Vec::new(),
            new_total_dist: 0.0,
            old_total_dist: 0.0,
        };
        assert!(matches!(
            e.choose(RequestId(99), &opt, 0.0),
            Err(EngineError::UnknownRequest(_))
        ));
    }

    #[test]
    fn decline_removes_pending_request() {
        let mut e = engine();
        e.add_vehicle(VertexId(0));
        let (req, _) = e.submit(VertexId(6), VertexId(8), 1, 0.0);
        assert_eq!(e.pending_requests(), 1);
        e.decline(req).unwrap();
        assert_eq!(e.pending_requests(), 0);
        assert!(e.decline(req).is_err());
    }

    #[test]
    fn declined_then_resubmitted_rider_gets_fresh_state() {
        // Regression: a decline must fully release the request's pending
        // bookkeeping — the same rider resubmitting gets a *new* request id
        // and the old id stays unknown to `choose`/`decline` forever.
        let mut e = engine();
        e.add_vehicle(VertexId(0));
        let (first, options) = e.submit(VertexId(6), VertexId(8), 1, 0.0);
        assert!(!options.is_empty());
        e.decline(first).unwrap();
        assert_eq!(e.pending_requests(), 0);

        let (second, options2) = e.submit(VertexId(6), VertexId(8), 1, 1.0);
        assert_ne!(first, second, "resubmission must allocate a fresh id");
        assert_eq!(e.pending_requests(), 1);
        // The stale id is gone: neither choosable nor declinable.
        assert!(matches!(
            e.choose(first, &options2[0], 1.0),
            Err(EngineError::UnknownRequest(_))
        ));
        assert!(e.decline(first).is_err());
        // The fresh id works normally.
        e.choose(second, &options2[0], 1.0).unwrap();
        assert_eq!(e.pending_requests(), 0);
    }

    #[test]
    fn multiple_vehicles_yield_price_time_tradeoff() {
        let mut e = engine();
        e.set_matcher(MatcherKind::DualSide);
        // A nearby vehicle that is already busy (will have a detour-dependent
        // price) and a distant empty vehicle.
        let busy = e.add_vehicle(VertexId(5));
        let far = e.add_vehicle(VertexId(24));

        // Assign a long trip to the nearby vehicle so it is non-empty.
        let (r1, opts1) = e.submit(VertexId(5), VertexId(9), 1, 0.0);
        let pick = opts1.iter().find(|o| o.vehicle == busy).unwrap().clone();
        e.choose(r1, &pick, 0.0).unwrap();

        // A new request starting next to the busy vehicle's route.
        let (_r2, opts2) = e.submit(VertexId(7), VertexId(9), 1, 1.0);
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
        let mut e = engine();
        e.set_matcher(MatcherKind::DualSide);
        let taxi = e.add_vehicle(VertexId(12));

        // Two simultaneous requests competing for the single taxi: the greedy
        // strategy assigns the first, and the second is matched against the
        // updated (non-empty) schedule.
        let specs = [
            (VertexId(12), VertexId(14), 1u32),
            (VertexId(13), VertexId(14), 1u32),
        ];
        let outcomes =
            e.submit_batch_greedy(
                &specs,
                0.0,
                |options| {
                    if options.is_empty() {
                        None
                    } else {
                        Some(0)
                    }
                },
            );
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].chosen, Some(0));
        assert!(!outcomes[0].options.is_empty());
        // The second request was matched after the first was committed, so
        // its option (if any) prices the shared schedule, and the vehicle now
        // carries as many requests as were successfully assigned.
        let assigned = outcomes.iter().filter(|o| o.chosen.is_some()).count();
        assert_eq!(e.vehicle(taxi).unwrap().num_requests(), assigned);
        assert_eq!(e.stats().requests_chosen, assigned as u64);
        assert_eq!(e.pending_requests(), 0);
    }

    #[test]
    fn conflict_graph_batch_is_bit_identical_to_sequential() {
        // A burst with competing requests (both near the same taxi), an
        // independent request (far corner vehicle), and an invalid one.
        let specs = [
            (VertexId(12), VertexId(14), 1u32),
            (VertexId(13), VertexId(14), 1u32),
            (VertexId(3), VertexId(3), 1u32), // invalid: origin == dest
            (VertexId(20), VertexId(22), 2u32),
        ];
        let run = |sequential: bool, pool: usize| {
            let mut e = PtRider::new(
                city(),
                GridConfig::with_dimensions(3, 3),
                EngineConfig::default().with_pool_size(pool),
            );
            e.add_vehicle(VertexId(12));
            e.add_vehicle(VertexId(24));
            let mut calls = Vec::new();
            let selector = |options: &[RideOption]| {
                calls.push(options.len());
                if options.is_empty() {
                    None
                } else {
                    Some(0)
                }
            };
            let outcomes = if sequential {
                e.submit_batch_sequential(&specs, 0.0, selector)
            } else {
                e.submit_batch_greedy(&specs, 0.0, selector)
            };
            (outcomes, calls, e.stats().requests_chosen)
        };
        let (seq, seq_calls, seq_chosen) = run(true, 1);
        for pool in [1usize, 2, 4] {
            let (par, par_calls, par_chosen) = run(false, pool);
            assert_eq!(seq_calls, par_calls, "selector call sequence (pool {pool})");
            assert_eq!(seq_chosen, par_chosen);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.request, b.request);
                assert_eq!(a.chosen, b.chosen);
                assert_eq!(a.options.len(), b.options.len());
                for (x, y) in a.options.iter().zip(&b.options) {
                    assert_eq!(x.vehicle, y.vehicle);
                    assert_eq!(x.pickup_dist.to_bits(), y.pickup_dist.to_bits());
                    assert_eq!(x.price.to_bits(), y.price.to_bits());
                    assert_eq!(x.schedule, y.schedule);
                }
            }
        }
    }

    #[test]
    fn conflict_graph_batch_records_partition_stats() {
        let mut e = engine();
        e.add_vehicle(VertexId(12));
        let specs = [
            (VertexId(12), VertexId(14), 1u32),
            (VertexId(13), VertexId(14), 1u32),
        ];
        let _ = e.submit_batch_greedy(&specs, 0.0, |o| (!o.is_empty()).then_some(0));
        let s = e.stats();
        assert_eq!(s.batch_bursts, 1);
        assert_eq!(s.batch_requests, 2);
        // Both requests compete for the single taxi: one partition, and the
        // second request must have been re-matched after the first commit.
        assert_eq!(s.batch_partitions, 1);
        assert_eq!(s.batch_rematches, 1);
    }

    #[test]
    fn greedy_batch_decline_leaves_no_pending_state() {
        let mut e = engine();
        e.add_vehicle(VertexId(0));
        let specs = [(VertexId(6), VertexId(8), 1u32)];
        let outcomes = e.submit_batch_greedy(&specs, 0.0, |_| None);
        assert_eq!(outcomes[0].chosen, None);
        assert_eq!(e.pending_requests(), 0);
        assert_eq!(e.stats().requests_chosen, 0);
    }

    #[test]
    fn traffic_update_changes_prices_and_reset_restores_them() {
        use ptrider_roadnet::TrafficModel;
        for backend in [
            ptrider_roadnet::DistanceBackend::Alt,
            ptrider_roadnet::DistanceBackend::Ch,
        ] {
            let mut e = PtRider::new(
                city(),
                GridConfig::with_dimensions(3, 3),
                EngineConfig::default().with_distance_backend(backend),
            );
            e.set_matcher(MatcherKind::SingleSide);
            e.add_vehicle(VertexId(0));
            // Relative to the construction epoch: `PTRIDER_TRAFFIC_EPOCHS`
            // pre-applies synthetic epochs before the engine serves.
            let epoch0 = e.oracle().traffic_epoch();
            let (req, base_options) = e.submit(VertexId(6), VertexId(8), 2, 0.0);
            assert_eq!(base_options.len(), 1);
            e.decline(req).unwrap();
            let base_price = base_options[0].price;
            let base_pickup = base_options[0].pickup_dist;

            // Congest the whole city 2x: pickup distances and prices scale.
            let model = TrafficModel::uniform(e.network(), 2.0);
            let outcome = e.apply_traffic_update(&model);
            assert_eq!(outcome.epoch, epoch0 + 1);
            assert_eq!(
                outcome.ch_repaired,
                backend == ptrider_roadnet::DistanceBackend::Ch
            );
            assert_eq!(e.stats().traffic_epochs, 1);
            let (req, congested) = e.submit(VertexId(6), VertexId(8), 2, 1.0);
            assert_eq!(congested.len(), 1);
            assert!((congested[0].pickup_dist - 2.0 * base_pickup).abs() < 1e-6);
            assert!((congested[0].price - 2.0 * base_price).abs() < 1e-6);
            e.decline(req).unwrap();

            // Free flow again: options return to the base bits.
            let outcome = e.apply_traffic_update(&TrafficModel::free_flow(e.network()));
            assert_eq!(outcome.epoch, epoch0 + 2);
            let (_, restored) = e.submit(VertexId(6), VertexId(8), 2, 2.0);
            assert_eq!(restored[0].price.to_bits(), base_price.to_bits());
            assert_eq!(restored[0].pickup_dist.to_bits(), base_pickup.to_bits());
        }
    }

    #[test]
    fn stats_accumulate_over_requests() {
        let mut e = engine();
        e.add_vehicle(VertexId(0));
        for i in 0..5u32 {
            let origin = VertexId(6 + (i % 3));
            let dest = VertexId(20 + (i % 4));
            let _ = e.submit(origin, dest, 1, i as f64);
        }
        let s = e.stats();
        assert_eq!(s.requests_submitted, 5);
        assert!(s.avg_response_secs() >= 0.0);
        assert!(s.avg_options_per_request() > 0.0);
        assert!(s.match_work.vehicles_verified >= 1);
    }
}
