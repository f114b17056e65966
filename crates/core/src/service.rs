//! The service-layer front door: a concurrent, typed ride-session facade
//! over the split engine.
//!
//! [`RideService`] owns the engine internals behind interior concurrency
//! and exposes the paper's two-phase interaction model as a first-class
//! lifecycle (see [`crate::session`]):
//!
//! * [`RideService::submit`] validates a request, matches it on the **read
//!   path** — `&self`, under a shared read lock on the vehicle world, so
//!   any number of submits run in parallel — and
//!   returns an [`Offer`] with a typed [`SessionId`] and a clock-driven
//!   deadline;
//! * [`RideService::respond`] takes the rider's [`Decision`] and, for a
//!   choice, commits the assignment on the **write path** — the single
//!   admission writer behind the world's write lock;
//! * [`RideService::tick`] expires overdue offers;
//! * every transition publishes a typed [`EngineEvent`] into the
//!   subscriber-visible [`EventLog`].
//!
//! **Bit-identity.** The distance oracle's canonical-direction folds make
//! every answer history-independent, so a submit against a given world
//! state returns the same option skyline, bit for bit, whether it runs
//! alone or races other submits. This is property-tested in
//! `tests/service_equivalence.rs`, where a second, identically built
//! service answers the same probes one by one.
//!
//! A service is made from a [`PtRider`] builder
//! ([`RideService::from_engine`]), which holds the substrate, the matcher
//! choice and the initial fleet; [`RideService::new`] does both steps.
//!
//! # Durability
//!
//! With [`RideService::with_journal`] attached, every state mutation
//! appends one logical [`crate::journal`] record *before* the operation is
//! acknowledged, inside the same critical section that orders it against
//! other writers — so the journal's sequence order equals the admission
//! order, and [`RideService::recover`] replays snapshot + WAL tail through
//! this very module into a bit-identical service (verified by
//! `tests/crash_recovery.rs`, which crashes the service at injected fault
//! sites and compares state fingerprints). A journal append failure panics
//! *before* the caller observes success: the operation is either durable
//! and acknowledged, or neither.
//!
//! # Lock order
//!
//! `sessions → world → ledger → event log → journal`, with any prefix
//! released before a later lock is taken where possible. `submit`
//! deliberately releases the world lock *before* touching the session
//! table again, so a writer waiting on the world can never deadlock a
//! submitter waiting on the session table. Journal appends for operations
//! that touch the vehicle world happen while the world lock is still held
//! (ordering them against concurrent matchers); appends for pure session
//! operations happen under the sessions lock (they commute with matching).

use crate::config::EngineConfig;
use crate::engine::{
    self, BatchOutcome, EngineError, EngineShared, Ledger, PtRider, TrafficUpdateOutcome, World,
};
use crate::events::{EngineEvent, EventCursor, EventLog, StampedEvent};
use crate::journal::{
    self, decode_option, decode_stop, encode_option, encode_stop, Dec, Enc, Journal, JournalConfig,
    JournalError, JournaledOffer, Op, OPTION_MIN_BYTES,
};
use crate::matching::{MatchResult, Matcher, MatcherKind};
use crate::options::RideOption;
use crate::request::Request;
use crate::runtime::MatchRuntime;
use crate::session::{
    Confirmation, Decision, Offer, OptionId, ServiceError, Session, SessionId, SessionState,
};
use crate::stats::{EngineStats, MatchWork};
use crate::telemetry::{PromWriter, Stage, Telemetry, TraceContext};
use ptrider_roadnet::{fault, DistanceOracle, GridConfig, RoadNetwork, TrafficModel, VertexId};
use ptrider_vehicles::{
    AssignedRequest, KineticNode, KineticTree, ProspectiveRequest, RequestId, RequestProgress,
    StopEvent, Vehicle, VehicleId, VehicleIndex,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Service-layer knobs: the offer TTL and the event-log retention (the
/// engine-level knobs stay in [`EngineConfig`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// How long an offer stays respondable, in workload seconds:
    /// `expires_at = now + offer_ttl_secs`, and a response is accepted
    /// while `now <= expires_at` (so a TTL of `0` still allows
    /// same-timestamp responses — the `PTRIDER_OFFER_TTL_SECS=0` CI run
    /// leans on this to exercise every expiry branch).
    ///
    /// The default is 300 s, overridable through the
    /// `PTRIDER_OFFER_TTL_SECS` environment variable; an explicit
    /// [`ServiceConfig`] wins over the environment.
    pub offer_ttl_secs: f64,
    /// How many events the log retains for slow observers.
    pub event_capacity: usize,
}

/// Environment override for the default offer TTL, read once per process.
fn env_offer_ttl() -> Option<f64> {
    static ENV: OnceLock<Option<f64>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PTRIDER_OFFER_TTL_SECS")
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|ttl| ttl.is_finite() && *ttl >= 0.0)
    })
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            offer_ttl_secs: env_offer_ttl().unwrap_or(300.0),
            event_capacity: 65_536,
        }
    }
}

impl ServiceConfig {
    /// Sets the offer TTL in seconds.
    pub fn with_offer_ttl_secs(mut self, secs: f64) -> Self {
        self.offer_ttl_secs = secs;
        self
    }

    /// Sets the event-log retention capacity.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }
}

/// The session table.
struct SessionStore {
    sessions: HashMap<SessionId, Session>,
    next_session: u64,
}

impl SessionStore {
    fn allocate(&mut self) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        id
    }
}

/// What journal replay hands [`RideService::finish_submit`] in place of a
/// live match.
struct Replay {
    /// The original run's post-op `total_match_secs` and `match_work`.
    accumulators: (f64, MatchWork),
    /// The journaled skyline; `None` for a record written before offers
    /// were journaled, which re-matches.
    options: Option<Vec<RideOption>>,
}

/// The concurrent session front door over the PTRider engine.
///
/// All methods take `&self`; wrap the service in an `Arc` to share it
/// across submitter threads. See the module docs for the read/write-path
/// split, the durability contract, and [`crate::session`] for the
/// lifecycle.
pub struct RideService {
    shared: EngineShared,
    matcher_kind: MatcherKind,
    matcher: Box<dyn Matcher>,
    service_config: ServiceConfig,
    /// The vehicle world behind the read/write-path split. The admission
    /// writer's wait for the write lock is the [`Stage::ServiceLockWait`]
    /// stage.
    world: RwLock<World>,
    ledger: Mutex<Ledger>,
    sessions: Mutex<SessionStore>,
    events: EventLog,
    /// The write-ahead admission journal, when durability is enabled. A
    /// leaf mutex: it is only ever taken while already inside the critical
    /// section that orders the journaled operation.
    journal: Option<Mutex<Journal>>,
    /// The non-free-flow arc factors of the latest traffic epoch. Snapshots
    /// carry them (plus the epoch count) as a prelude so recovery can
    /// reinstate the oracle's metric without the pre-watermark
    /// `TrafficUpdate` records — a snapshot replaces the WAL that held
    /// them. Only written under the world write lock (the traffic-epoch
    /// critical section).
    last_traffic: Mutex<Option<Vec<(u32, f64)>>>,
}

impl RideService {
    /// Builds a service over a road network (see [`PtRider::new`]).
    pub fn new(net: RoadNetwork, grid_config: GridConfig, config: EngineConfig) -> Self {
        Self::from_engine(PtRider::new(net, grid_config, config))
    }

    /// Builds a service from an engine builder: its substrate, its fleet
    /// and its selected matcher carry over; statistics, request ids and
    /// sessions start fresh.
    pub fn from_engine(engine: PtRider) -> Self {
        let (shared, matcher_kind, world) = engine.into_parts();
        let service_config = ServiceConfig::default();
        RideService {
            shared,
            matcher_kind,
            matcher: matcher_kind.build(),
            events: EventLog::new(service_config.event_capacity),
            service_config,
            world: RwLock::new(world),
            ledger: Mutex::new(Ledger::new()),
            sessions: Mutex::new(SessionStore {
                sessions: HashMap::new(),
                next_session: 0,
            }),
            journal: None,
            last_traffic: Mutex::new(None),
        }
    }

    /// Replaces the service configuration (builder style, before sharing).
    pub fn with_service_config(mut self, config: ServiceConfig) -> Self {
        self.events = EventLog::new(config.event_capacity);
        self.service_config = config;
        self
    }

    /// Selects the matching algorithm (builder style, before sharing).
    pub fn with_matcher(mut self, kind: MatcherKind) -> Self {
        self.matcher_kind = kind;
        self.matcher = kind.build();
        self
    }

    /// Attaches a write-ahead admission journal (builder style, before
    /// sharing). Every subsequent state mutation is journaled before it is
    /// acknowledged; attach the journal to a *fresh* service so the journal
    /// captures every mutation since birth (or recover an existing journal
    /// with [`RideService::recover`], which re-attaches it).
    pub fn with_journal(mut self, mut journal: Journal) -> Self {
        journal.attach_telemetry(&self.shared.telemetry);
        self.journal = Some(Mutex::new(journal));
        self
    }

    // ------------------------------------------------------------------
    // Lock acquisition policy
    // ------------------------------------------------------------------
    //
    // Session-lifecycle paths refuse to run over state a panicking writer
    // may have torn: they surface `ServiceError::Unavailable` on a
    // poisoned lock instead of unwrapping. The fleet write paths (vehicle
    // adds and movement), whose signatures predate the typed service
    // errors, still panic — a poisoned lock there is unrecoverable for the
    // process either way. Read-only accessors re-enter poisoned locks
    // (observing possibly-torn state is acceptable for diagnostics, and
    // `fingerprint`/`recover` need to work on a crashed service).

    fn world_read(&self) -> Result<RwLockReadGuard<'_, World>, ServiceError> {
        self.world
            .read()
            .map_err(|_| ServiceError::Unavailable("world"))
    }

    fn world_write(&self) -> Result<RwLockWriteGuard<'_, World>, ServiceError> {
        let wait = self.lock_wait_clock();
        let guard = self
            .world
            .write()
            .map_err(|_| ServiceError::Unavailable("world"))?;
        self.record_lock_wait(wait);
        Ok(guard)
    }

    /// Admission-writer acquisition of the world write lock for the paths
    /// that panic on poison; times the wait into
    /// [`Stage::ServiceLockWait`] when spans are on.
    fn world_write_panicky(&self) -> RwLockWriteGuard<'_, World> {
        let wait = self.lock_wait_clock();
        let guard = self.world.write().unwrap();
        self.record_lock_wait(wait);
        guard
    }

    /// Starts the lock-wait stopwatch (only at the `Spans` level — the
    /// disabled path is one branch, no clock read).
    fn lock_wait_clock(&self) -> Option<Instant> {
        self.shared.telemetry.spans_enabled().then(Instant::now)
    }

    fn record_lock_wait(&self, started: Option<Instant>) {
        if let Some(started) = started {
            self.shared
                .telemetry
                .record_stage(Stage::ServiceLockWait, started.elapsed().as_nanos() as u64);
        }
    }

    fn sessions_lock(&self) -> Result<MutexGuard<'_, SessionStore>, ServiceError> {
        self.sessions
            .lock()
            .map_err(|_| ServiceError::Unavailable("sessions"))
    }

    fn ledger_lock(&self) -> Result<MutexGuard<'_, Ledger>, ServiceError> {
        self.ledger
            .lock()
            .map_err(|_| ServiceError::Unavailable("ledger"))
    }

    /// Ledger acquisition for the paths that panic on poison.
    fn ledger_panicky(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap()
    }

    fn world_read_tolerant(&self) -> RwLockReadGuard<'_, World> {
        self.world.read().unwrap_or_else(|p| p.into_inner())
    }

    fn sessions_tolerant(&self) -> MutexGuard<'_, SessionStore> {
        self.sessions.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn ledger_tolerant(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Appends one logical operation to the journal, if one is attached.
    ///
    /// Must be called inside the critical section that orders the
    /// operation against other writers (see the module docs), so the
    /// journal's sequence order equals the admission order. An append
    /// failure panics *before* the operation is acknowledged: crashing
    /// un-acknowledged is the safe side of the durability contract.
    fn journal_op(&self, op: &Op) {
        self.journal_op_in(op, None)
    }

    /// [`Self::journal_op`] attributed to a request trace: when `ctx`
    /// carries a live trace, the append (lock + encode + buffered write)
    /// lands in the trace tree as a `journal.append` span. The journal's
    /// own stage histogram already times the append internals, so the
    /// trace-only push never double-counts a histogram sample.
    fn journal_op_in(&self, op: &Op, ctx: Option<TraceContext>) {
        if let Some(journal) = &self.journal {
            let t = &self.shared.telemetry;
            let traced = ctx.filter(|c| c.trace_id != 0 && t.tracing_enabled());
            let start = traced.map(|_| Instant::now());
            let mut journal = journal.lock().unwrap_or_else(|p| p.into_inner());
            journal.append(&op.encode()).expect(
                "admission journal append failed; crashing before acknowledging the \
                 un-journaled operation",
            );
            if let (Some(c), Some(start)) = (traced, start) {
                t.trace_only(
                    Stage::JournalAppend,
                    start,
                    start.elapsed().as_nanos() as u64,
                    c,
                    0,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Shared substrate accessors (lock-free)
    // ------------------------------------------------------------------

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// The service configuration (offer TTL, event retention).
    pub fn service_config(&self) -> &ServiceConfig {
        &self.service_config
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.shared.net
    }

    /// The memoising distance oracle.
    pub fn oracle(&self) -> &DistanceOracle {
        &self.shared.oracle
    }

    /// The matching runtime stand-in: every match runs on its caller's
    /// thread, so its [`MatchRuntime::parallelism`] is always `1`.
    pub fn runtime(&self) -> &MatchRuntime {
        &MatchRuntime
    }

    /// The active matching algorithm.
    pub fn matcher_kind(&self) -> MatcherKind {
        self.matcher_kind
    }

    /// A snapshot of the aggregated statistics, cloned under the ledger
    /// mutex (poison-tolerant, so a crashed service still answers).
    pub fn stats(&self) -> EngineStats {
        self.ledger_tolerant().stats.clone()
    }

    /// The engine's telemetry hub (counters, per-stage histograms, trace
    /// ring). See [`Self::metrics_text`] for the rendered exposition.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    // ------------------------------------------------------------------
    // Vehicles (write path)
    // ------------------------------------------------------------------

    /// Adds a vehicle at `location` with the global capacity.
    pub fn add_vehicle(&self, location: VertexId) -> VehicleId {
        self.add_vehicle_with_capacity(location, self.shared.config.capacity)
    }

    /// Adds a vehicle at `location` with an explicit capacity.
    pub fn add_vehicle_with_capacity(&self, location: VertexId, capacity: u32) -> VehicleId {
        let id = {
            let mut world = self.world_write_panicky();
            let id = world.add_vehicle(&self.shared, location, capacity);
            self.journal_op(&Op::AddVehicle {
                location: location.0,
                capacity,
            });
            id
        };
        self.events.publish(EngineEvent::VehicleAdded {
            vehicle: id,
            location,
        });
        id
    }

    /// Number of vehicles registered.
    pub fn num_vehicles(&self) -> usize {
        self.world_read_tolerant().vehicles.len()
    }

    /// Runs `f` over a vehicle under the world read lock.
    pub fn with_vehicle<R>(&self, id: VehicleId, f: impl FnOnce(&Vehicle) -> R) -> Option<R> {
        self.world_read_tolerant().vehicles.get(&id).map(f)
    }

    /// Runs `f` over an iterator of all vehicles under the world read lock.
    pub fn with_vehicles<R>(&self, f: impl FnOnce(&mut dyn Iterator<Item = &Vehicle>) -> R) -> R {
        let world = self.world_read_tolerant();
        let mut iter = world.vehicles.values();
        f(&mut iter)
    }

    /// Runs `f` over the per-cell vehicle index under the world read lock.
    pub fn with_vehicle_index<R>(&self, f: impl FnOnce(&VehicleIndex) -> R) -> R {
        f(&self.world_read_tolerant().index)
    }

    /// Applies a periodic location update — write path.
    pub fn location_update(
        &self,
        vehicle_id: VehicleId,
        location: VertexId,
        travelled: f64,
    ) -> Result<(), EngineError> {
        {
            let mut world = self.world_write_panicky();
            engine::apply_location_update(
                &self.shared,
                &mut world,
                vehicle_id,
                location,
                travelled,
            )?;
            self.journal_op(&Op::LocationUpdate {
                vehicle: vehicle_id.0,
                location: location.0,
                travelled,
            });
        }
        self.ledger_panicky().stats.location_updates += 1;
        Ok(())
    }

    /// Serves the next stop of a vehicle's schedule — write path. Publishes
    /// a [`EngineEvent::PickedUp`] / [`EngineEvent::DroppedOff`] event.
    pub fn vehicle_arrived(&self, vehicle_id: VehicleId) -> Result<Option<StopEvent>, EngineError> {
        let event = {
            let mut world = self.world_write_panicky();
            let event = engine::apply_vehicle_arrived(&self.shared, &mut world, vehicle_id)?;
            if event.is_some() {
                self.journal_op(&Op::VehicleArrived {
                    vehicle: vehicle_id.0,
                });
            }
            event
        };
        match &event {
            Some(StopEvent::PickedUp { request, .. }) => {
                self.ledger_panicky().stats.pickups += 1;
                self.events.publish(EngineEvent::PickedUp {
                    vehicle: vehicle_id,
                    request: *request,
                });
            }
            Some(StopEvent::DroppedOff { request, .. }) => {
                self.ledger_panicky().stats.dropoffs += 1;
                self.events.publish(EngineEvent::DroppedOff {
                    vehicle: vehicle_id,
                    request: request.id,
                });
            }
            None => {}
        }
        Ok(event)
    }
}

impl RideService {
    // ------------------------------------------------------------------
    // The session lifecycle
    // ------------------------------------------------------------------

    /// Submits a request and returns the offer — the **read path**.
    ///
    /// Validation and matching run under a shared read lock on the vehicle
    /// world, so concurrent submits proceed in parallel; nothing is
    /// committed until the rider responds. The returned [`Offer`] stays
    /// respondable via [`Self::respond`] until `expires_at`.
    ///
    /// Invalid requests (unknown vertices, `origin == destination`, zero
    /// riders, unreachable destination) are rejected before a session is
    /// created, a request id is allocated, or anything is journaled.
    pub fn submit(
        &self,
        origin: VertexId,
        destination: VertexId,
        riders: u32,
        now: f64,
    ) -> Result<Offer, ServiceError> {
        self.submit_in(origin, destination, riders, now, None)
    }

    /// [`Self::submit`] inside a caller-provided trace context — the HTTP
    /// front door threads the context it minted (or adopted from an
    /// inbound `traceparent`) through here, so the `service.submit` span
    /// and everything below it (match stages, the journal append) hang
    /// off the server's `server.handle` root. With `parent == None` and
    /// tracing active, a fresh trace is minted for the request —
    /// the in-process caller's entry point into request-scoped tracing.
    pub fn submit_in(
        &self,
        origin: VertexId,
        destination: VertexId,
        riders: u32,
        now: f64,
        parent: Option<TraceContext>,
    ) -> Result<Offer, ServiceError> {
        let trace = parent.or_else(|| self.shared.telemetry.new_trace());
        let span = self.shared.telemetry.span_in(Stage::ServiceSubmit, trace);
        let direct = engine::validate_request(
            &self.shared.net,
            &self.shared.oracle,
            origin,
            destination,
            riders,
        )?;
        let request = {
            let mut ledger = self.ledger_lock()?;
            Request::new(
                ledger.allocate_request_id(),
                origin,
                destination,
                riders,
                now,
            )
        };
        let span = span.with_request(request.id.0);
        // Children (match stages, journal append, events) attach under the
        // `service.submit` span itself.
        let ctx = span.context();
        let trace_id = ctx.map_or(0, |c| c.trace_id);
        let prospective = request.to_prospective(direct, &self.shared.config);

        // Register the session (Pending) before matching so the lifecycle
        // is observable while the matcher runs.
        let session_id = {
            let mut store = self.sessions_lock()?;
            let id = store.allocate();
            store
                .sessions
                .insert(id, Session::pending(id, request, prospective));
            id
        };
        self.events.publish_in(
            EngineEvent::Submitted {
                session: session_id,
                request: request.id,
                origin,
                destination,
                riders,
                at: now,
            },
            trace_id,
        );
        self.finish_submit(session_id, request, prospective, now, None, ctx)
    }

    /// Matches a registered pending session under the world read lock,
    /// journals the submit and opens the offer. Shared by
    /// [`Self::submit`] and journal replay, which hands in a [`Replay`]:
    /// the journaled skyline in place of the matcher, and the journaled
    /// `total_match_secs` and `match_work` so the wall-clock and
    /// cache-warmth accumulators stay bit-identical.
    fn finish_submit(
        &self,
        session_id: SessionId,
        request: Request,
        prospective: ProspectiveRequest,
        now: f64,
        replay: Option<Replay>,
        ctx: Option<TraceContext>,
    ) -> Result<Offer, ServiceError> {
        let (forced_accumulators, journaled_options) = match replay {
            Some(r) => (Some(r.accumulators), r.options),
            None => (None, None),
        };
        let result = {
            let world = self.world_read()?;
            let (result, elapsed) = match journaled_options {
                Some(options) => (
                    MatchResult {
                        options,
                        stats: Default::default(),
                    },
                    0.0,
                ),
                None => engine::match_options_in(
                    &self.shared,
                    &*self.matcher,
                    &world,
                    &prospective,
                    ctx,
                ),
            };
            // The ledger update and the journal append form one critical
            // section: journal order = ledger order, which is what lets
            // replay force the environmental accumulators — wall-clock
            // `total_match_secs` and the oracle-cache-warmth-dependent
            // `match_work` counters — record by record under concurrency.
            let mut ledger = self.ledger_lock()?;
            ledger.record_match(&result, elapsed);
            ledger.stats.offers_made += 1;
            if let Some((total, work)) = forced_accumulators {
                ledger.stats.total_match_secs = total;
                ledger.stats.match_work = work;
            }
            if self.journal.is_some() {
                self.journal_op_in(
                    &Op::Submit {
                        origin: request.origin.0,
                        destination: request.destination.0,
                        riders: request.riders,
                        now,
                        session: session_id.0,
                        request: request.id.0,
                        match_secs_after: ledger.stats.total_match_secs,
                        work_after: ledger.stats.match_work,
                        offer: Some(JournaledOffer {
                            direct_dist: prospective.direct_dist,
                            options: result.options.clone(),
                        }),
                    },
                    ctx,
                );
            }
            result
        };

        let expires_at = now + self.service_config.offer_ttl_secs;
        let options = result.options;
        {
            let mut store = self.sessions_lock()?;
            let session = store
                .sessions
                .get_mut(&session_id)
                .expect("a pending session cannot disappear while matching");
            session.offer(options.clone(), expires_at);
            // Published under the sessions lock: the session only becomes
            // respondable/expirable once this lock drops, so no concurrent
            // respond/tick can publish the session's terminal event before
            // Offered appears in the log.
            self.events.publish_in(
                EngineEvent::Offered {
                    session: session_id,
                    request: request.id,
                    options: options.len(),
                    expires_at,
                    at: now,
                },
                ctx.map_or(0, |c| c.trace_id),
            );
        }
        Ok(Offer {
            session: session_id,
            request: request.id,
            options,
            expires_at,
        })
    }

    /// Delivers the rider's decision for an open offer — the **write
    /// path** (for a choice; a decline only touches the session table).
    ///
    /// * `Decision::Choose(option)` commits the assignment under the world
    ///   write lock and confirms the session. If the vehicle can no longer
    ///   honour the option, the session **stays offered** (the rider may
    ///   pick another option or decline) and
    ///   [`ServiceError::Engine`]`(`[`EngineError::AssignmentFailed`]`)` is
    ///   returned.
    /// * `Decision::Decline` resolves the session as declined.
    ///
    /// Illegal transitions are rejected: unknown sessions, double
    /// responses ([`ServiceError::AlreadyResolved`]) and responses after
    /// the deadline ([`ServiceError::OfferExpired`] — the session is
    /// expired on the spot, exactly as [`Self::tick`] would have).
    pub fn respond(
        &self,
        session_id: SessionId,
        decision: Decision,
        now: f64,
    ) -> Result<Option<Confirmation>, ServiceError> {
        self.respond_in(session_id, decision, now, None)
    }

    /// [`Self::respond`] inside a caller-provided trace context (see
    /// [`Self::submit_in`]). Unlike submit, respond never mints a trace of
    /// its own — `parent == None` keeps the response untraced, so journal
    /// replay (which re-enters this path) produces no phantom traces.
    pub fn respond_in(
        &self,
        session_id: SessionId,
        decision: Decision,
        now: f64,
        parent: Option<TraceContext>,
    ) -> Result<Option<Confirmation>, ServiceError> {
        let span = self.shared.telemetry.span_in(Stage::ServiceRespond, parent);
        let mut store = self.sessions_lock()?;
        let session = store
            .sessions
            .get_mut(&session_id)
            .ok_or(ServiceError::UnknownSession(session_id))?;
        let request_id = session.request.id;
        let span = span.with_request(request_id.0);
        let ctx = span.context();
        let trace_id = ctx.map_or(0, |c| c.trace_id);
        let _span = span;

        if let Err(gate) = session.respond_gate(now) {
            if matches!(gate, ServiceError::OfferExpired(_)) {
                // A late response expires the offer on the spot.
                session.resolve(SessionState::Expired);
                let choice = match decision {
                    Decision::Choose(option) => Some(option.0),
                    Decision::Decline => None,
                };
                self.journal_op_in(
                    &Op::Respond {
                        session: session_id.0,
                        choice,
                        now,
                    },
                    ctx,
                );
                self.ledger_lock()?.stats.offers_expired += 1;
                self.events.publish_in(
                    EngineEvent::Expired {
                        session: session_id,
                        request: request_id,
                        at: now,
                    },
                    trace_id,
                );
            }
            return Err(gate);
        }

        match decision {
            Decision::Decline => {
                session.resolve(SessionState::Declined);
                self.journal_op_in(
                    &Op::Respond {
                        session: session_id.0,
                        choice: None,
                        now,
                    },
                    ctx,
                );
                self.ledger_lock()?.stats.offers_declined += 1;
                self.events.publish_in(
                    EngineEvent::Declined {
                        session: session_id,
                        request: request_id,
                        at: now,
                    },
                    trace_id,
                );
                Ok(None)
            }
            Decision::Choose(option_id) => {
                let Some(option) = session.options.get(option_id.0 as usize).cloned() else {
                    return Err(ServiceError::UnknownOption(session_id, option_id));
                };

                let request = session.request;
                let prospective = session
                    .prospective
                    .expect("an offered session holds its prospective");
                // Single admission writer: the commit happens under the
                // world write lock, serialised with every other commit.
                // The journal append happens inside the same guard.
                let committed = {
                    let mut world = self.world_write()?;
                    let committed = engine::commit_choice(
                        &self.shared,
                        &mut world,
                        &request,
                        &prospective,
                        &option,
                        now,
                    );
                    self.journal_op_in(
                        &Op::Respond {
                            session: session_id.0,
                            choice: Some(option_id.0),
                            now,
                        },
                        ctx,
                    );
                    committed
                };
                // Chaos site: durable, not yet acknowledged.
                fault::panic_point(fault::POST_APPEND);
                match committed {
                    Ok(()) => {
                        session.resolve(SessionState::Confirmed);
                        {
                            let mut ledger = self.ledger_lock()?;
                            ledger.stats.requests_chosen += 1;
                            ledger.stats.offers_confirmed += 1;
                        }
                        self.events.publish_in(
                            EngineEvent::Confirmed {
                                session: session_id,
                                request: request_id,
                                vehicle: option.vehicle,
                                price: option.price,
                                pickup_secs: option.pickup_secs,
                                at: now,
                            },
                            trace_id,
                        );
                        Ok(Some(Confirmation {
                            session: session_id,
                            request: request_id,
                            option,
                        }))
                    }
                    Err(e) => {
                        if matches!(e, EngineError::AssignmentFailed(..)) {
                            self.ledger_lock()?.stats.assignments_failed += 1;
                            self.events.publish_in(
                                EngineEvent::AssignmentFailed {
                                    session: session_id,
                                    request: request_id,
                                    vehicle: option.vehicle,
                                    at: now,
                                },
                                trace_id,
                            );
                        }
                        Err(ServiceError::Engine(e))
                    }
                }
            }
        }
    }

    /// Advances the offer clock: every open offer whose deadline lies
    /// strictly before `now` is expired and an [`EngineEvent::Expired`]
    /// event is published per session (in session order). Returns how many offers expired. Also the automatic
    /// snapshot trigger when a journal with a snapshot cadence is attached.
    pub fn tick(&self, now: f64) -> usize {
        self.tick_in(now, None)
    }

    /// [`Self::tick`] inside a caller-provided trace context (see
    /// [`Self::respond_in`] — like respond, tick never mints a trace of
    /// its own).
    pub fn tick_in(&self, now: f64, parent: Option<TraceContext>) -> usize {
        let span = self.shared.telemetry.span_in(Stage::ServiceTick, parent);
        let ctx = span.context();
        let trace_id = ctx.map_or(0, |c| c.trace_id);
        let _span = span;
        let mut expired: Vec<(SessionId, RequestId)> = Vec::new();
        {
            let mut store = self.sessions.lock().unwrap();
            for session in store.sessions.values_mut() {
                if session.state == SessionState::Offered && now > session.expires_at {
                    session.resolve(SessionState::Expired);
                    expired.push((session.id, session.request.id));
                }
            }
            if !expired.is_empty() {
                // The world write guard orders the Tick record against
                // concurrent submits' appends, so replay sees the same
                // interleaving.
                let _world = self.world_write_panicky();
                self.journal_op_in(&Op::Tick { now }, ctx);
            }
        }
        if expired.is_empty() {
            self.maybe_auto_snapshot();
            return 0;
        }
        expired.sort_unstable_by_key(|(s, _)| *s);
        self.ledger_panicky().stats.offers_expired += expired.len() as u64;
        for (session, request) in &expired {
            self.events.publish_in(
                EngineEvent::Expired {
                    session: *session,
                    request: *request,
                    at: now,
                },
                trace_id,
            );
        }
        self.maybe_auto_snapshot();
        expired.len()
    }

    /// Where a session stands (`None` for never-issued or pruned ids).
    pub fn session_state(&self, id: SessionId) -> Option<SessionState> {
        self.sessions_tolerant().sessions.get(&id).map(|s| s.state)
    }

    /// Number of open (offered, unresolved) sessions.
    pub fn open_offers(&self) -> usize {
        self.sessions_tolerant()
            .sessions
            .values()
            .filter(|s| s.state == SessionState::Offered)
            .count()
    }

    /// Total sessions in the table (open and resolved-but-unpruned).
    pub fn num_sessions(&self) -> usize {
        self.sessions_tolerant().sessions.len()
    }

    /// Drops resolved sessions from the table, returning how many were
    /// removed. Responding to a pruned session reports
    /// [`ServiceError::UnknownSession`]. Long-running deployments call this
    /// periodically; resolved sessions hold only metadata (their
    /// option/prospective holds were already released on resolution).
    pub fn prune_resolved(&self) -> usize {
        let mut store = self.sessions.lock().unwrap();
        let before = store.sessions.len();
        store.sessions.retain(|_, s| !s.state.is_terminal());
        let removed = before - store.sessions.len();
        if removed > 0 {
            self.journal_op(&Op::PruneResolved);
        }
        removed
    }

    // ------------------------------------------------------------------
    // Batch admission (write path)
    // ------------------------------------------------------------------

    /// Admits a burst of simultaneous requests on the writer path — the
    /// dispatch-window batching of peak periods, where no offer/respond
    /// round-trip happens per request.
    ///
    /// Requests are matched one by one in the given order, and each
    /// rider's choice — made by `selector`, which receives the skyline and
    /// returns the index of the chosen option (or `None` to decline) — is
    /// committed before the next request is matched, so later requests see
    /// the updated vehicle schedules (the paper's greedy strategy, Section
    /// 2.5). A request that fails validation is offered no options; the
    /// selector still sees its empty slice, so it is consulted exactly once
    /// per request, in input order. Returns one [`BatchOutcome`] per input,
    /// in order.
    pub fn submit_batch_greedy<F>(
        &self,
        specs: &[(VertexId, VertexId, u32)],
        now: f64,
        mut selector: F,
    ) -> Vec<BatchOutcome>
    where
        F: FnMut(&[RideOption]) -> Option<usize>,
    {
        let mut choices: Vec<Option<u32>> = Vec::with_capacity(specs.len());
        let outcomes = {
            let mut world = self.world_write_panicky();
            let mut ledger = self.ledger_panicky();
            let first_request = ledger.next_request_id();
            let outcomes = engine::run_batch(
                &self.shared,
                &*self.matcher,
                &mut world,
                &mut ledger,
                specs,
                now,
                |options| {
                    // Record the post-filter choice in selector call order:
                    // the loop invokes the selector once per request, in
                    // input order, so replay can feed the same answers back
                    // positionally.
                    let choice = selector(options).filter(|&i| i < options.len());
                    choices.push(choice.map(|i| i as u32));
                    choice
                },
            );
            self.journal_op(&Op::Batch {
                now,
                specs: specs.iter().map(|(o, d, r)| (o.0, d.0, *r)).collect(),
                choices: std::mem::take(&mut choices),
                first_request,
                match_secs_after: ledger.stats.total_match_secs,
                work_after: ledger.stats.match_work,
            });
            outcomes
        };
        let assigned = outcomes.iter().filter(|o| o.chosen.is_some()).count();
        self.events.publish(EngineEvent::BatchAdmitted {
            requests: specs.len(),
            assigned,
            at: now,
        });
        outcomes
    }

    /// Applies a live-traffic epoch — the **write path**. The metric swap
    /// happens under the world write lock (the single admission writer),
    /// so no in-flight submit can race the epoch: every match either
    /// completes on the old metric before the swap or starts on the new
    /// one after it. Publishes a typed [`EngineEvent::TrafficUpdated`] and
    /// grows [`EngineStats::traffic_epochs`].
    ///
    /// The model must be built over this service's road network
    /// ([`Self::network`]). Factors are ≥ 1.0 over free flow by
    /// construction, so every pruning bound stays sound — see DESIGN.md
    /// "Traffic model".
    pub fn apply_traffic_update(&self, model: &TrafficModel, now: f64) -> TrafficUpdateOutcome {
        let outcome = {
            let _world = self.world_write_panicky();
            let mut ledger = self.ledger_panicky();
            let outcome = engine::apply_traffic(&self.shared, &mut ledger, model);
            // Only the non-free-flow arcs are journaled; the factor bits
            // rebuild the metric exactly on replay (the model's version
            // counter is advisory and never read by the oracle).
            let factors: Vec<(u32, f64)> = model
                .factors()
                .iter()
                .enumerate()
                .filter(|(_, f)| **f != 1.0)
                .map(|(i, f)| (i as u32, *f))
                .collect();
            *self.last_traffic.lock().unwrap_or_else(|p| p.into_inner()) = Some(factors.clone());
            self.journal_op(&Op::TrafficUpdate { now, factors });
            outcome
        };
        self.events.publish(EngineEvent::TrafficUpdated {
            epoch: outcome.epoch,
            congested_arcs: outcome.congested_arcs,
            max_factor: outcome.max_factor,
            at: now,
        });
        outcome
    }

    /// Matches a request against the current world with an arbitrary
    /// matcher, recording nothing (cross-check / benchmarking entry point;
    /// read path). Validates the request exactly as [`Self::submit`] does.
    pub fn match_request_with(
        &self,
        kind: MatcherKind,
        request: &Request,
    ) -> Result<MatchResult, EngineError> {
        self.match_request_with_oracle(kind, request, &self.shared.oracle)
    }

    /// [`Self::match_request_with`] through a caller-supplied distance
    /// oracle instead of the service's own — the entry point for comparing
    /// oracle configurations (e.g. cold vs warm caches) on one identical
    /// world. The oracle must be built over the same road network.
    pub fn match_request_with_oracle(
        &self,
        kind: MatcherKind,
        request: &Request,
        oracle: &DistanceOracle,
    ) -> Result<MatchResult, EngineError> {
        let world = self.world_read_tolerant();
        engine::match_request_with_oracle(&self.shared, &world, kind, request, oracle)
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    /// A cursor over the event log, positioned at the oldest retained
    /// event. Poll with [`Self::poll_events`].
    pub fn subscribe(&self) -> EventCursor {
        self.events.subscribe()
    }

    /// Drains the events the cursor has not seen yet.
    pub fn poll_events(&self, cursor: &mut EventCursor) -> Vec<EngineEvent> {
        self.events.poll(cursor)
    }

    /// Drains the events the cursor has not seen yet, keeping each
    /// event's publish stamp and trace id (the wire layer's
    /// `GET /events?trace=` filter reads the latter).
    pub fn poll_stamped_events(&self, cursor: &mut EventCursor) -> Vec<StampedEvent> {
        self.events.poll_stamped(cursor)
    }

    /// Total events published so far.
    pub fn events_published(&self) -> u64 {
        self.events.published()
    }

    // ------------------------------------------------------------------
    // Metrics exposition
    // ------------------------------------------------------------------

    /// Renders a live metrics exposition in the Prometheus text format
    /// (version 0.0.4): the admission-ordered service counters (cloned
    /// by [`Self::stats`]), derived gauges sampled from the oracle /
    /// journal / event log at scrape time, any counters and gauges
    /// registered on the [`Telemetry`] hub, and — at the `Spans` level —
    /// one latency histogram per pipeline [`Stage`] (values in seconds).
    /// It never takes the world lock. It takes the ledger mutex (to clone
    /// the stats), the sessions mutex twice (to count open offers and
    /// sessions), the journal mutex and the event log's mutex, one at a
    /// time and each only long enough to read its numbers.
    pub fn metrics_text(&self) -> String {
        let t = &self.shared.telemetry;
        let stats = self.stats();
        let oracle = &self.shared.oracle;
        let mut w = PromWriter::new();

        // Service layer: the admission-ordered ledger counters.
        w.counter(
            "ptrider_service_requests_submitted_total",
            "Requests submitted (including batch admissions).",
            stats.requests_submitted,
        );
        w.counter(
            "ptrider_service_offers_made_total",
            "Offers opened by submit.",
            stats.offers_made,
        );
        w.counter(
            "ptrider_service_offers_confirmed_total",
            "Offers confirmed by a rider choice.",
            stats.offers_confirmed,
        );
        w.counter(
            "ptrider_service_offers_declined_total",
            "Offers declined by the rider.",
            stats.offers_declined,
        );
        w.counter(
            "ptrider_service_offers_expired_total",
            "Offers expired by the clock.",
            stats.offers_expired,
        );
        w.counter(
            "ptrider_service_requests_chosen_total",
            "Requests committed to a vehicle.",
            stats.requests_chosen,
        );
        w.counter(
            "ptrider_service_assignments_failed_total",
            "Chosen options the vehicle could no longer honour.",
            stats.assignments_failed,
        );
        w.counter(
            "ptrider_service_pickups_total",
            "Riders picked up.",
            stats.pickups,
        );
        w.counter(
            "ptrider_service_dropoffs_total",
            "Riders dropped off.",
            stats.dropoffs,
        );
        w.counter(
            "ptrider_service_location_updates_total",
            "Vehicle location updates applied.",
            stats.location_updates,
        );
        w.counter(
            "ptrider_service_batch_bursts_total",
            "Batch admission bursts processed.",
            stats.batch_bursts,
        );
        w.gauge(
            "ptrider_service_open_offers",
            "Offered, unresolved sessions right now.",
            self.open_offers() as f64,
        );
        w.gauge(
            "ptrider_service_sessions",
            "Sessions in the table (open and resolved-but-unpruned).",
            self.num_sessions() as f64,
        );

        // Matcher work (accumulated across all matched requests).
        w.counter(
            "ptrider_match_vehicles_considered_total",
            "Vehicles considered by the matchers.",
            stats.match_work.vehicles_considered,
        );
        w.counter(
            "ptrider_match_vehicles_verified_total",
            "Vehicles verified with a kinetic-tree insertion.",
            stats.match_work.vehicles_verified,
        );
        w.counter(
            "ptrider_match_vehicles_pruned_total",
            "Vehicles skipped by a pruning bound.",
            stats.match_work.vehicles_pruned,
        );
        w.counter(
            "ptrider_match_cells_visited_total",
            "Grid cells visited by the expansion searches.",
            stats.match_work.cells_visited,
        );
        w.counter(
            "ptrider_match_exact_distances_total",
            "Exact shortest-path computations while matching.",
            stats.match_work.exact_distance_computations,
        );

        // Distance oracle: pull-style derived gauges, sampled at scrape
        // time from the oracle's own atomics.
        w.counter(
            "ptrider_oracle_exact_computations_total",
            "Exact shortest-path computations (lifetime).",
            oracle.exact_computations(),
        );
        w.counter(
            "ptrider_oracle_cache_hits_total",
            "Exact queries answered from the memo cache.",
            oracle.cache_hits(),
        );
        w.counter(
            "ptrider_oracle_lower_bound_queries_total",
            "Lower-bound queries served.",
            oracle.lower_bound_queries(),
        );
        w.counter(
            "ptrider_oracle_evictions_total",
            "Cache entries evicted by the clock policy.",
            oracle.evictions(),
        );
        w.gauge(
            "ptrider_oracle_cache_len",
            "Cached exact distances right now.",
            oracle.cache_len() as f64,
        );
        if oracle.cache_capacity() != usize::MAX {
            w.gauge(
                "ptrider_oracle_cache_capacity",
                "Cache capacity in entries.",
                oracle.cache_capacity() as f64,
            );
        }
        w.gauge(
            "ptrider_oracle_traffic_epoch",
            "Current traffic epoch (0 = free flow).",
            oracle.traffic_epoch() as f64,
        );

        // Journal (absent rows mean no journal is attached).
        if let Some(journal) = &self.journal {
            let journal = journal.lock().unwrap_or_else(|p| p.into_inner());
            w.gauge(
                "ptrider_journal_fsync_failed",
                "1 after a background fsync failure (sticky; durability unknown).",
                if journal.fsync_failed() { 1.0 } else { 0.0 },
            );
            w.gauge(
                "ptrider_journal_next_seq",
                "Sequence number the next journaled operation receives.",
                journal.next_seq() as f64,
            );
            w.gauge(
                "ptrider_journal_ops_since_snapshot",
                "Operations appended since the last snapshot.",
                journal.ops_since_snapshot() as f64,
            );
        }

        // Event log.
        w.counter(
            "ptrider_events_published_total",
            "Events published into the log.",
            self.events.published(),
        );
        w.counter(
            "ptrider_events_evicted_total",
            "Events evicted from the bounded log.",
            self.events.evicted(),
        );
        w.gauge(
            "ptrider_events_retained",
            "Events currently retained for subscribers.",
            self.events.retained() as f64,
        );
        if let Some(age) = self.events.oldest_age_nanos() {
            w.gauge(
                "ptrider_events_oldest_age_seconds",
                "Engine-clock age of the oldest retained event.",
                age as f64 * 1e-9,
            );
        }
        let missed = self.events.cursor_missed_totals();
        if !missed.is_empty() {
            w.counter_family(
                "ptrider_events_cursor_missed_total",
                "Events each live cursor lost to eviction before polling them.",
            );
            for (id, count) in missed {
                w.counter_sample(
                    "ptrider_events_cursor_missed_total",
                    &format!("cursor=\"{id}\""),
                    count,
                );
            }
        }

        // Telemetry hub: registered counters/gauges and per-stage latency.
        for (name, value) in t.counter_values() {
            w.counter(
                &format!("ptrider_{name}_total"),
                "Registered counter.",
                value,
            );
        }
        for (name, value) in t.gauge_values() {
            w.gauge(&format!("ptrider_{name}"), "Registered gauge.", value);
        }
        w.gauge(
            "ptrider_telemetry_uptime_seconds",
            "Seconds since the telemetry hub was created.",
            t.uptime_secs(),
        );
        if t.spans_enabled() {
            for stage in Stage::ALL {
                let hist = t.stage_histogram(stage);
                let snap = hist.snapshot();
                let name = format!("ptrider_stage_{}_seconds", stage.name().replace('.', "_"));
                // Exemplars tie each bucket to the last trace that landed
                // in it, so a p99 bucket resolves to a retrievable trace
                // via `GET /trace/{trace_id}`.
                w.histogram_with_exemplars(
                    &name,
                    "Per-stage latency in seconds.",
                    &snap,
                    1e-9,
                    &hist.exemplars(),
                );
            }
        }
        if t.tracing_enabled() {
            w.counter(
                "ptrider_trace_dropped_total",
                "Trace spans lost to store eviction or per-trace truncation.",
                t.trace_dropped(),
            );
        }
        w.finish()
    }
}

impl std::fmt::Debug for RideService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RideService")
            .field("vertices", &self.shared.net.num_vertices())
            .field("matcher", &self.matcher_kind)
            .field("vehicles", &self.num_vehicles())
            .field("sessions", &self.num_sessions())
            .field("open_offers", &self.open_offers())
            .field("events", &self.events)
            .field("journaled", &self.journal.is_some())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Durability: snapshots, fingerprints and crash recovery
// ---------------------------------------------------------------------

impl RideService {
    /// Writes a consistent snapshot of the full service state (world,
    /// ledger, sessions, event counters) to the attached journal, returning
    /// the WAL watermark it covers. Returns `None` when no journal is
    /// attached, when a lock is poisoned (a torn state must never become a
    /// checkpoint), or when the snapshot could not be written (the WAL
    /// remains authoritative either way).
    ///
    /// The world is **write**-locked: submits append their journal records
    /// under a world *read* guard, so only the exclusive lock freezes every
    /// append path (respond/tick/prune are excluded by the sessions lock,
    /// vehicle/batch/traffic updates by the world lock itself).
    pub fn snapshot(&self) -> Option<u64> {
        self.journal.as_ref()?;
        let Ok(store) = self.sessions.lock() else {
            return None;
        };
        let Ok(world) = self.world.write() else {
            return None;
        };
        let Ok(ledger) = self.ledger.lock() else {
            return None;
        };
        // Prelude: the oracle's traffic-metric state (epoch count + the
        // latest non-free-flow factors). It travels in the snapshot because
        // the WAL swap that follows the snapshot drops the pre-watermark
        // `TrafficUpdate` records recovery used to rebuild the metric
        // from. Not part of the fingerprint's canonical form —
        // the epoch count is already covered via the ledger stats.
        let mut prelude = Enc::new();
        prelude.u64(self.shared.oracle.traffic_epoch());
        {
            let last = self.last_traffic.lock().unwrap_or_else(|p| p.into_inner());
            let factors = last.as_deref().unwrap_or(&[]);
            prelude.u32(factors.len() as u32);
            for (arc, factor) in factors {
                prelude.u32(*arc);
                prelude.f64(*factor);
            }
        }
        let mut payload = prelude.finish();
        payload.extend_from_slice(&encode_snapshot(&world, &ledger, &store, &self.events));
        let journal = self.journal.as_ref()?;
        let mut journal = journal.lock().unwrap_or_else(|p| p.into_inner());
        journal.write_snapshot(&payload).ok()
    }

    /// Forces the attached journal's appended prefix durable (an explicit
    /// fsync barrier — the graceful-shutdown flush of the HTTP front door).
    /// Returns `true` when a journal is attached and the sync succeeded.
    pub fn sync_journal(&self) -> bool {
        match &self.journal {
            Some(journal) => journal
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .sync()
                .is_ok(),
            None => false,
        }
    }

    /// Writes a snapshot if the journal's automatic cadence says one is
    /// due. Called from [`Self::tick`] — the natural periodic entry point.
    fn maybe_auto_snapshot(&self) {
        let due = match &self.journal {
            Some(journal) => journal
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .snapshot_due(),
            None => false,
        };
        if due {
            self.snapshot();
        }
    }

    /// A 64-bit fingerprint of the full logical state (world, ledger,
    /// sessions, event counters) — the equality oracle of the
    /// crash-recovery tests: two services are in the same state iff their
    /// fingerprints match. Poison-tolerant so a crashed service can still
    /// be fingerprinted for diagnostics.
    pub fn fingerprint(&self) -> u64 {
        let store = self.sessions_tolerant();
        let world = self.world_read_tolerant();
        let ledger = self.ledger_tolerant();
        journal::fingerprint_bytes(&encode_snapshot(&world, &ledger, &store, &self.events))
    }

    /// The sequence number the next journaled operation would receive
    /// (`None` without a journal). Identifies a recovery point in the
    /// crash-recovery tests.
    pub fn journal_next_seq(&self) -> Option<u64> {
        self.journal
            .as_ref()
            .map(|j| j.lock().unwrap_or_else(|p| p.into_inner()).next_seq())
    }

    /// Rebuilds a service from its journal directory: opens the journal
    /// (truncating any torn tail), installs the latest snapshot, replays
    /// the WAL tail through the normal operation paths, and re-attaches
    /// the journal. The resulting service is bit-identical (per
    /// [`Self::fingerprint`]) to the crashed one at its last journaled
    /// operation.
    ///
    /// Replay applies results rather than recomputing them: a submit
    /// installs its journaled skyline without running the matcher, and
    /// the vehicle index — which only the matcher reads — is rebuilt once
    /// over the whole fleet instead of after every replayed move. The
    /// only records that still match are bursts and submits written
    /// before offers were journaled; the first of them rebuilds the index
    /// and leaves it live for the rest of the replay.
    ///
    /// `engine` must be a *fresh* engine over the same network and
    /// configuration the original service was built with (the journal
    /// records every mutation since the original service's birth);
    /// `service_config` likewise must match the original's.
    pub fn recover(
        engine: PtRider,
        service_config: ServiceConfig,
        dir: impl AsRef<Path>,
        journal_config: JournalConfig,
    ) -> Result<Self, JournalError> {
        let (recovered, mut journal) = Journal::open(dir, journal_config)?;
        let svc = Self::from_engine(engine).with_service_config(service_config);

        let mut ops = Vec::with_capacity(recovered.ops.len());
        for (seq, payload) in &recovered.ops {
            ops.push((*seq, Op::decode(payload)?));
        }
        let watermark = recovered.snapshot.as_ref().map(|(w, _)| *w).unwrap_or(0);
        svc.world_write_panicky().defer_index();

        if let Some((_, payload)) = &recovered.snapshot {
            // The snapshot prelude carries the oracle's traffic-metric
            // state (the pre-watermark `TrafficUpdate` records left with
            // the WAL the snapshot replaced). Reinstate it *before* replaying the
            // tail: replayed commits query the oracle, so the metric must
            // match the one the snapshot was taken under. The
            // snapshot's stats already count those epochs, so the oracle is
            // driven directly (no ledger): (k-1) free-flow epochs advance
            // the epoch counter, then the last model restores the metric —
            // post-recovery epochs thereby report the same numbers the
            // original run would have.
            let mut d = Dec::new(payload);
            let pre_snapshot_epochs = d.u64()?;
            let n = d.len(12)?;
            let mut factors = Vec::with_capacity(n);
            for _ in 0..n {
                factors.push((d.u32()?, d.f64()?));
            }
            let body = d.rest();
            if pre_snapshot_epochs > 0 {
                let free = TrafficModel::free_flow(&svc.shared.net);
                for _ in 1..pre_snapshot_epochs {
                    svc.shared.oracle.apply_traffic(&free);
                }
                let mut model = TrafficModel::free_flow(&svc.shared.net);
                for (arc, factor) in &factors {
                    model.set_arc_factor(*arc as usize, *factor);
                }
                svc.shared.oracle.apply_traffic(&model);
                *svc.last_traffic.lock().unwrap_or_else(|p| p.into_inner()) = Some(factors);
            }
            svc.install_snapshot(body)?;
        }
        for (seq, op) in ops {
            if seq < watermark {
                continue;
            }
            svc.apply_op(op);
        }
        svc.world_write_panicky().resume_index(&svc.shared);

        let mut svc = svc;
        journal.attach_telemetry(&svc.shared.telemetry);
        svc.journal = Some(Mutex::new(journal));
        Ok(svc)
    }

    /// Replaces the full service state with a decoded snapshot payload.
    fn install_snapshot(&self, payload: &[u8]) -> Result<(), JournalError> {
        let mut d = Dec::new(payload);

        // World: vehicles in id order. The index stays deferred; recovery
        // rebuilds it once, after the WAL tail.
        let next_vehicle = d.u32()?;
        let num_vehicles = d.len(17)?;
        let mut vehicles = HashMap::with_capacity(num_vehicles);
        for _ in 0..num_vehicles {
            let vehicle = decode_vehicle(&mut d)?;
            vehicles.insert(vehicle.id(), vehicle);
        }

        let stats = decode_stats(&mut d)?;
        let next_request = d.u64()?;

        let next_session = d.u64()?;
        let num_sessions = d.len(8)?;
        let mut sessions = HashMap::with_capacity(num_sessions);
        for _ in 0..num_sessions {
            let session = decode_session(&mut d)?;
            sessions.insert(session.id, session);
        }

        let ev_next = d.u64()?;
        let ev_dropped = d.u64()?;
        d.finish()?;

        {
            let mut world = self.world_write_panicky();
            world.vehicles = vehicles;
            world.set_next_vehicle_id(next_vehicle);
        }
        {
            let mut ledger = self.ledger_tolerant();
            ledger.stats = stats;
            ledger.set_next_request_id(next_request);
        }
        {
            let mut store = self.sessions_tolerant();
            store.sessions = sessions;
            store.next_session = next_session;
        }
        self.events.restore(ev_next, ev_dropped);
        Ok(())
    }

    /// Replays one journaled operation through the normal operation paths.
    /// The journal is not attached yet during replay, so nothing
    /// re-journals; results are discarded (the original caller already
    /// consumed them).
    fn apply_op(&self, op: Op) {
        match op {
            Op::AddVehicle { location, capacity } => {
                self.add_vehicle_with_capacity(VertexId(location), capacity);
            }
            Op::Submit {
                origin,
                destination,
                riders,
                now,
                session,
                request,
                match_secs_after,
                work_after,
                offer,
            } => {
                let origin = VertexId(origin);
                let destination = VertexId(destination);
                let (direct, options) = match offer {
                    Some(offer) => (offer.direct_dist, Some(offer.options)),
                    None => {
                        // Written before offers were journaled: only the
                        // matcher can reproduce this skyline, and it reads
                        // the index.
                        self.world_write_panicky().resume_index(&self.shared);
                        let direct = engine::validate_request(
                            &self.shared.net,
                            &self.shared.oracle,
                            origin,
                            destination,
                            riders,
                        )
                        .expect("journaled submits were valid when journaled");
                        (direct, None)
                    }
                };
                {
                    let mut ledger = self.ledger_tolerant();
                    let next = ledger.next_request_id().max(request + 1);
                    ledger.set_next_request_id(next);
                }
                let request = Request::new(RequestId(request), origin, destination, riders, now);
                let prospective = request.to_prospective(direct, &self.shared.config);
                let session_id = SessionId(session);
                {
                    let mut store = self.sessions_tolerant();
                    store.next_session = store.next_session.max(session + 1);
                    store.sessions.insert(
                        session_id,
                        Session::pending(session_id, request, prospective),
                    );
                }
                self.events.publish(EngineEvent::Submitted {
                    session: session_id,
                    request: request.id,
                    origin,
                    destination,
                    riders,
                    at: now,
                });
                let _ = self.finish_submit(
                    session_id,
                    request,
                    prospective,
                    now,
                    Some(Replay {
                        accumulators: (match_secs_after, work_after),
                        options,
                    }),
                    None,
                );
            }
            Op::Respond {
                session,
                choice,
                now,
            } => {
                let decision = choice
                    .map(|k| Decision::Choose(OptionId(k)))
                    .unwrap_or(Decision::Decline);
                let _ = self.respond(SessionId(session), decision, now);
            }
            Op::Tick { now } => {
                self.tick(now);
            }
            Op::LocationUpdate {
                vehicle,
                location,
                travelled,
            } => {
                let _ = self.location_update(VehicleId(vehicle), VertexId(location), travelled);
            }
            Op::VehicleArrived { vehicle } => {
                let _ = self.vehicle_arrived(VehicleId(vehicle));
            }
            Op::TrafficUpdate { now, factors } => {
                let mut model = TrafficModel::free_flow(&self.shared.net);
                for (arc, factor) in factors {
                    model.set_arc_factor(arc as usize, factor);
                }
                self.apply_traffic_update(&model, now);
            }
            Op::Batch {
                now,
                specs,
                choices,
                first_request,
                match_secs_after,
                work_after,
            } => {
                // A burst re-matches, so it needs a live index.
                self.world_write_panicky().resume_index(&self.shared);
                {
                    let mut ledger = self.ledger_tolerant();
                    let next = ledger.next_request_id().max(first_request);
                    ledger.set_next_request_id(next);
                }
                let specs: Vec<(VertexId, VertexId, u32)> = specs
                    .iter()
                    .map(|(o, d, r)| (VertexId(*o), VertexId(*d), *r))
                    .collect();
                let mut call = 0usize;
                self.submit_batch_greedy(&specs, now, |_| {
                    let choice = choices.get(call).copied().flatten().map(|c| c as usize);
                    call += 1;
                    choice
                });
                let mut ledger = self.ledger_tolerant();
                ledger.stats.total_match_secs = match_secs_after;
                ledger.stats.match_work = work_after;
            }
            Op::PruneResolved => {
                self.prune_resolved();
            }
        }
    }
}

// ---------------------------------------------------------------------
// The snapshot codec
// ---------------------------------------------------------------------
//
// A flat, deterministic, versioned-by-the-journal-header encoding of the
// full logical service state. Collections are serialised in id order so
// the encoding doubles as the state fingerprint's canonical form.

fn encode_snapshot(
    world: &World,
    ledger: &Ledger,
    store: &SessionStore,
    events: &EventLog,
) -> Vec<u8> {
    let mut e = Enc::new();

    // --- world ---
    e.u32(world.next_vehicle_id());
    let mut vehicles: Vec<&Vehicle> = world.vehicles.values().collect();
    vehicles.sort_by_key(|v| v.id());
    e.u32(vehicles.len() as u32);
    for vehicle in vehicles {
        encode_vehicle(&mut e, vehicle);
    }

    // --- ledger ---
    encode_stats(&mut e, &ledger.stats);
    e.u64(ledger.next_request_id());

    // --- sessions ---
    e.u64(store.next_session);
    let mut sessions: Vec<&Session> = store.sessions.values().collect();
    sessions.sort_by_key(|s| s.id);
    e.u32(sessions.len() as u32);
    for session in sessions {
        encode_session(&mut e, session);
    }

    // --- events ---
    e.u64(events.published());
    e.u64(events.evicted());

    e.finish()
}

fn encode_vehicle(e: &mut Enc, v: &Vehicle) {
    e.u32(v.id().0);
    e.u32(v.capacity());
    e.u32(v.location().0);
    e.f64(v.odometer());
    let mut requests = v.requests();
    requests.sort_by_key(|r| r.id);
    e.u32(requests.len() as u32);
    for r in requests {
        e.u64(r.id.0);
        e.u32(r.riders);
        e.u32(r.pickup.0);
        e.u32(r.dropoff.0);
        e.f64(r.direct_dist);
        e.f64(r.max_onboard_dist);
        e.f64(r.pickup_deadline_odometer);
        e.f64(r.assigned_at_odometer);
        e.f64(r.assigned_at_time);
        e.f64(r.planned_pickup_dist);
        e.f64(r.price);
        match r.progress {
            RequestProgress::Waiting => e.u8(0),
            RequestProgress::OnBoard { travelled } => {
                e.u8(1);
                e.f64(travelled);
            }
        }
    }
    let roots = v.kinetic_tree().roots();
    e.u32(roots.len() as u32);
    for node in roots {
        encode_node(e, node);
    }
}

fn encode_node(e: &mut Enc, node: &KineticNode) {
    encode_stop(e, &node.stop);
    e.f64(node.leg_dist);
    e.f64(node.dist_tr);
    e.u32(node.occupancy);
    e.f64(node.slack);
    e.u32(node.children.len() as u32);
    for child in &node.children {
        encode_node(e, child);
    }
}

fn encode_stats(e: &mut Enc, s: &EngineStats) {
    e.u64(s.requests_submitted);
    e.u64(s.requests_with_options);
    e.u64(s.options_returned);
    e.u64(s.requests_chosen);
    e.u64(s.assignments_failed);
    e.u64(s.pickups);
    e.u64(s.dropoffs);
    e.u64(s.location_updates);
    e.f64(s.total_match_secs);
    e.u64(s.batch_bursts);
    e.u64(s.batch_requests);
    e.u64(0); // Reserved (was the conflict-graph partition count).
    e.u64(0); // Reserved (was the conflict-graph re-match count).
    e.u64(s.offers_made);
    e.u64(s.offers_confirmed);
    e.u64(s.offers_declined);
    e.u64(s.offers_expired);
    e.u64(s.traffic_epochs);
    e.u64(0); // Reserved (was the CH customization count) until the next format bump.
    e.u64(0); // Reserved (was the burst thread-panic count).
    e.u64(s.match_work.vehicles_considered);
    e.u64(s.match_work.vehicles_verified);
    e.u64(s.match_work.vehicles_pruned);
    e.u64(s.match_work.cells_visited);
    e.u64(s.match_work.exact_distance_computations);
    e.u64(s.match_work.candidates_generated);
}

fn encode_session(e: &mut Enc, s: &Session) {
    e.u64(s.id.0);
    e.u64(s.request.id.0);
    e.u32(s.request.origin.0);
    e.u32(s.request.destination.0);
    e.u32(s.request.riders);
    e.opt_f64(s.request.max_wait_secs);
    e.opt_f64(s.request.detour_factor);
    e.f64(s.request.submitted_at);
    e.u8(match s.state {
        SessionState::Pending => 0,
        SessionState::Offered => 1,
        SessionState::Confirmed => 2,
        SessionState::Declined => 3,
        SessionState::Expired => 4,
    });
    e.f64(s.expires_at);
    match &s.prospective {
        None => e.u8(0),
        Some(p) => {
            e.u8(1);
            e.u64(p.id.0);
            e.u32(p.pickup.0);
            e.u32(p.dropoff.0);
            e.u32(p.riders);
            e.f64(p.direct_dist);
            e.f64(p.max_onboard_dist);
        }
    }
    e.u32(s.options.len() as u32);
    for option in &s.options {
        encode_option(e, option);
    }
    // The slot that held an offer's capacity-hold vehicle; always empty.
    e.opt_u32(None);
}

fn decode_node(d: &mut Dec<'_>) -> Result<KineticNode, JournalError> {
    let stop = decode_stop(d)?;
    let leg_dist = d.f64()?;
    let dist_tr = d.f64()?;
    let occupancy = d.u32()?;
    let slack = d.f64()?;
    let num_children = d.len(49)?;
    let mut children = Vec::with_capacity(num_children);
    for _ in 0..num_children {
        children.push(decode_node(d)?);
    }
    Ok(KineticNode {
        stop,
        leg_dist,
        dist_tr,
        occupancy,
        slack,
        children,
    })
}

fn decode_vehicle(d: &mut Dec<'_>) -> Result<Vehicle, JournalError> {
    let id = VehicleId(d.u32()?);
    let capacity = d.u32()?;
    let location = VertexId(d.u32()?);
    let odometer = d.f64()?;
    let num_requests = d.len(73)?;
    let mut requests = Vec::with_capacity(num_requests);
    for _ in 0..num_requests {
        let id = RequestId(d.u64()?);
        let riders = d.u32()?;
        let pickup = VertexId(d.u32()?);
        let dropoff = VertexId(d.u32()?);
        let direct_dist = d.f64()?;
        let max_onboard_dist = d.f64()?;
        let pickup_deadline_odometer = d.f64()?;
        let assigned_at_odometer = d.f64()?;
        let assigned_at_time = d.f64()?;
        let planned_pickup_dist = d.f64()?;
        let price = d.f64()?;
        let progress = match d.u8()? {
            0 => RequestProgress::Waiting,
            1 => RequestProgress::OnBoard {
                travelled: d.f64()?,
            },
            _ => return Err(JournalError::Corrupt("unknown request progress")),
        };
        requests.push(AssignedRequest {
            id,
            riders,
            pickup,
            dropoff,
            direct_dist,
            max_onboard_dist,
            pickup_deadline_odometer,
            assigned_at_odometer,
            assigned_at_time,
            planned_pickup_dist,
            price,
            progress,
        });
    }
    let num_roots = d.len(49)?;
    let mut roots = Vec::with_capacity(num_roots);
    for _ in 0..num_roots {
        roots.push(decode_node(d)?);
    }
    Ok(Vehicle::from_parts(
        id,
        capacity,
        location,
        odometer,
        requests,
        KineticTree::from_roots(roots),
    ))
}

fn decode_stats(d: &mut Dec<'_>) -> Result<EngineStats, JournalError> {
    // Struct-literal fields evaluate in source order, matching the encoder.
    Ok(EngineStats {
        requests_submitted: d.u64()?,
        requests_with_options: d.u64()?,
        options_returned: d.u64()?,
        requests_chosen: d.u64()?,
        assignments_failed: d.u64()?,
        pickups: d.u64()?,
        dropoffs: d.u64()?,
        location_updates: d.u64()?,
        total_match_secs: d.f64()?,
        batch_bursts: d.u64()?,
        batch_requests: d.u64()?,
        offers_made: {
            // The two reserved slots before it (see `encode_stats`) are
            // dropped: a pre-upgrade snapshot's partition and re-match
            // counts have no field left to land in.
            d.u64()?;
            d.u64()?;
            d.u64()?
        },
        offers_confirmed: d.u64()?,
        offers_declined: d.u64()?,
        offers_expired: d.u64()?,
        traffic_epochs: d.u64()?,
        match_work: {
            // Likewise the two reserved slots after `traffic_epochs`.
            d.u64()?;
            d.u64()?;
            MatchWork {
                vehicles_considered: d.u64()?,
                vehicles_verified: d.u64()?,
                vehicles_pruned: d.u64()?,
                cells_visited: d.u64()?,
                exact_distance_computations: d.u64()?,
                candidates_generated: d.u64()?,
            }
        },
    })
}

fn decode_session(d: &mut Dec<'_>) -> Result<Session, JournalError> {
    let id = SessionId(d.u64()?);
    let request_id = RequestId(d.u64()?);
    let origin = VertexId(d.u32()?);
    let destination = VertexId(d.u32()?);
    let riders = d.u32()?;
    let max_wait_secs = d.opt_f64()?;
    let detour_factor = d.opt_f64()?;
    let submitted_at = d.f64()?;
    let mut request = Request::new(request_id, origin, destination, riders, submitted_at);
    request.max_wait_secs = max_wait_secs;
    request.detour_factor = detour_factor;
    let state = match d.u8()? {
        0 => SessionState::Pending,
        1 => SessionState::Offered,
        2 => SessionState::Confirmed,
        3 => SessionState::Declined,
        4 => SessionState::Expired,
        _ => return Err(JournalError::Corrupt("unknown session state")),
    };
    let expires_at = d.f64()?;
    let prospective = match d.u8()? {
        0 => None,
        1 => {
            let id = RequestId(d.u64()?);
            let pickup = VertexId(d.u32()?);
            let dropoff = VertexId(d.u32()?);
            let riders = d.u32()?;
            let direct_dist = d.f64()?;
            let max_onboard_dist = d.f64()?;
            Some(ProspectiveRequest {
                id,
                pickup,
                dropoff,
                riders,
                direct_dist,
                max_onboard_dist,
            })
        }
        _ => return Err(JournalError::Corrupt("unknown prospective marker")),
    };
    let num_options = d.len(OPTION_MIN_BYTES)?;
    let mut options = Vec::with_capacity(num_options);
    for _ in 0..num_options {
        options.push(decode_option(d)?);
    }
    // Offer holds (option 0 committed at offer time) are gone; a session
    // written with one would recover into a world that still carries the
    // held assignment, so it is refused rather than dropped.
    if d.opt_u32()?.is_some() {
        return Err(JournalError::Corrupt(
            "snapshot carries an offer hold; offer holds are no longer supported",
        ));
    }
    Ok(Session {
        id,
        request,
        state,
        expires_at,
        prospective,
        options,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::session::OptionId;
    use ptrider_roadnet::RoadNetworkBuilder;
    use std::path::PathBuf;

    /// A 5x5 lattice with 1 km edges.
    pub(crate) fn city() -> RoadNetwork {
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

    fn service(ttl: f64) -> RideService {
        RideService::new(
            city(),
            GridConfig::with_dimensions(3, 3),
            EngineConfig::default(),
        )
        .with_service_config(ServiceConfig::default().with_offer_ttl_secs(ttl))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ptrider-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_respond_confirm_lifecycle() {
        let svc = service(60.0);
        let mut cursor = svc.subscribe();
        let taxi = svc.add_vehicle(VertexId(0));

        let offer = svc.submit(VertexId(6), VertexId(8), 2, 0.0).unwrap();
        assert!(!offer.options.is_empty());
        assert_eq!(offer.expires_at, 60.0);
        assert_eq!(
            svc.session_state(offer.session),
            Some(SessionState::Offered)
        );
        assert_eq!(svc.open_offers(), 1);

        let confirmation = svc
            .respond(offer.session, Decision::Choose(OptionId(0)), 1.0)
            .unwrap()
            .expect("choose returns a confirmation");
        assert_eq!(confirmation.option.vehicle, taxi);
        assert_eq!(
            svc.session_state(offer.session),
            Some(SessionState::Confirmed)
        );
        assert_eq!(svc.open_offers(), 0);
        assert!(svc.with_vehicle(taxi, |v| !v.is_empty()).unwrap());

        let stats = svc.stats();
        assert_eq!(stats.offers_made, 1);
        assert_eq!(stats.offers_confirmed, 1);
        assert_eq!(stats.requests_chosen, 1);

        // The full transition trail is observable.
        let events = svc.poll_events(&mut cursor);
        assert!(matches!(events[0], EngineEvent::VehicleAdded { .. }));
        assert!(matches!(events[1], EngineEvent::Submitted { .. }));
        assert!(matches!(events[2], EngineEvent::Offered { .. }));
        assert!(matches!(events[3], EngineEvent::Confirmed { .. }));
    }

    #[test]
    fn double_choose_is_rejected() {
        let svc = service(60.0);
        svc.add_vehicle(VertexId(0));
        let offer = svc.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
        svc.respond(offer.session, Decision::Choose(OptionId(0)), 0.0)
            .unwrap();
        let err = svc
            .respond(offer.session, Decision::Choose(OptionId(0)), 0.0)
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::AlreadyResolved(offer.session, SessionState::Confirmed)
        );
        // Declining after confirming is equally rejected.
        let err = svc
            .respond(offer.session, Decision::Decline, 0.0)
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::AlreadyResolved(offer.session, SessionState::Confirmed)
        );
    }

    #[test]
    fn respond_to_unknown_session_is_rejected() {
        let svc = service(60.0);
        let err = svc
            .respond(SessionId(42), Decision::Decline, 0.0)
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownSession(SessionId(42)));
    }

    #[test]
    fn unknown_option_id_is_rejected_and_keeps_the_offer_open() {
        let svc = service(60.0);
        svc.add_vehicle(VertexId(0));
        let offer = svc.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
        let bad = OptionId(offer.options.len() as u32);
        let err = svc
            .respond(offer.session, Decision::Choose(bad), 0.0)
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownOption(offer.session, bad));
        assert_eq!(
            svc.session_state(offer.session),
            Some(SessionState::Offered)
        );
        // A valid follow-up still succeeds.
        assert!(svc
            .respond(offer.session, Decision::Choose(OptionId(0)), 0.0)
            .is_ok());
    }

    #[test]
    fn tick_expires_overdue_offers_and_releases_holds() {
        let svc = service(30.0);
        svc.add_vehicle(VertexId(0));
        let offer = svc.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
        // At the deadline the offer is still alive.
        assert_eq!(svc.tick(30.0), 0);
        assert_eq!(svc.open_offers(), 1);
        // Past it, it expires.
        assert_eq!(svc.tick(30.5), 1);
        assert_eq!(svc.open_offers(), 0);
        assert_eq!(
            svc.session_state(offer.session),
            Some(SessionState::Expired)
        );
        assert_eq!(svc.stats().offers_expired, 1);

        let err = svc
            .respond(offer.session, Decision::Choose(OptionId(0)), 31.0)
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::AlreadyResolved(offer.session, SessionState::Expired)
        );
    }

    #[test]
    fn late_respond_expires_on_the_spot() {
        let svc = service(10.0);
        svc.add_vehicle(VertexId(0));
        let offer = svc.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
        let err = svc
            .respond(offer.session, Decision::Choose(OptionId(0)), 11.0)
            .unwrap_err();
        assert_eq!(err, ServiceError::OfferExpired(offer.session));
        assert_eq!(
            svc.session_state(offer.session),
            Some(SessionState::Expired)
        );
        assert_eq!(svc.stats().offers_expired, 1);
    }

    #[test]
    fn zero_ttl_allows_same_timestamp_responses() {
        let svc = service(0.0);
        svc.add_vehicle(VertexId(0));
        let offer = svc.submit(VertexId(6), VertexId(8), 1, 5.0).unwrap();
        assert_eq!(offer.expires_at, 5.0);
        // Responding at the submit timestamp works; any later instant expires.
        assert!(svc
            .respond(offer.session, Decision::Choose(OptionId(0)), 5.0)
            .is_ok());
        let second = svc.submit(VertexId(7), VertexId(9), 1, 6.0).unwrap();
        let err = svc
            .respond(second.session, Decision::Decline, 6.001)
            .unwrap_err();
        assert_eq!(err, ServiceError::OfferExpired(second.session));
    }

    #[test]
    fn declined_then_resubmitted_rider_gets_fresh_session_and_request() {
        // The service-layer request-state-leak regression: decline (and
        // expiry) release every hold, and a resubmission allocates fresh
        // session and request ids with no stale pending state anywhere.
        let svc = service(60.0);
        svc.add_vehicle(VertexId(0));
        let first = svc.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
        svc.respond(first.session, Decision::Decline, 0.0).unwrap();
        assert_eq!(
            svc.session_state(first.session),
            Some(SessionState::Declined)
        );
        assert_eq!(svc.open_offers(), 0);

        let second = svc.submit(VertexId(6), VertexId(8), 1, 1.0).unwrap();
        assert_ne!(first.session, second.session);
        assert_ne!(first.request, second.request, "fresh RequestId on resubmit");
        assert_eq!(second.options.len(), first.options.len());
        // The old session is terminal, not respondable, and prunable.
        assert_eq!(
            svc.respond(first.session, Decision::Decline, 1.0)
                .unwrap_err(),
            ServiceError::AlreadyResolved(first.session, SessionState::Declined)
        );
        assert_eq!(svc.prune_resolved(), 1);
        assert_eq!(
            svc.respond(first.session, Decision::Decline, 1.0)
                .unwrap_err(),
            ServiceError::UnknownSession(first.session)
        );
        assert_eq!(svc.stats().offers_declined, 1);
    }

    #[test]
    fn invalid_requests_create_no_session() {
        let svc = service(60.0);
        svc.add_vehicle(VertexId(0));
        let err = svc.submit(VertexId(3), VertexId(3), 1, 0.0).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Engine(EngineError::InvalidRequest(_))
        ));
        assert_eq!(svc.num_sessions(), 0);
        assert_eq!(svc.events_published(), 1, "only the VehicleAdded event");
    }

    #[test]
    fn batch_admission_runs_on_the_writer_path() {
        let svc = service(60.0);
        svc.add_vehicle(VertexId(12));
        let specs = [
            (VertexId(12), VertexId(14), 1u32),
            (VertexId(13), VertexId(14), 1u32),
        ];
        let outcomes = svc.submit_batch_greedy(&specs, 0.0, |o| (!o.is_empty()).then_some(0));
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].chosen, Some(0));
        let stats = svc.stats();
        assert_eq!(stats.batch_requests, 2);
        let mut cursor = svc.subscribe();
        let events = svc.poll_events(&mut cursor);
        assert!(events
            .iter()
            .any(|e| matches!(e, EngineEvent::BatchAdmitted { requests: 2, .. })));
    }

    #[test]
    fn traffic_update_publishes_event_and_serves_new_metric() {
        use ptrider_roadnet::TrafficModel;
        let svc = service(60.0);
        let mut cursor = svc.subscribe();
        svc.add_vehicle(VertexId(0));
        let base = svc.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
        svc.respond(base.session, Decision::Decline, 0.0).unwrap();
        let base_price = base.options[0].price;

        let mut model = TrafficModel::free_flow(svc.network());
        let touched = model.set_segment_factor(svc.network(), VertexId(6), VertexId(7), 3.0);
        assert_eq!(touched, 2);
        model.bump_version();
        let outcome = svc.apply_traffic_update(&model, 1.0);
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.congested_arcs, 2);
        assert_eq!(outcome.max_factor, 3.0);
        let stats = svc.stats();
        assert_eq!(stats.traffic_epochs, 1);

        // The congested leg reroutes or re-prices the same request.
        let after = svc.submit(VertexId(6), VertexId(8), 1, 2.0).unwrap();
        assert!(!after.options.is_empty());
        assert!(after.options[0].price >= base_price - 1e-9);
        svc.respond(after.session, Decision::Decline, 2.0).unwrap();

        let events = svc.poll_events(&mut cursor);
        assert!(
            events.iter().any(|e| matches!(
                e,
                EngineEvent::TrafficUpdated {
                    epoch,
                    congested_arcs: 2,
                    at,
                    ..
                } if *at == 1.0 && *epoch == 1
            )),
            "TrafficUpdated must be observable: {events:?}"
        );
    }

    #[test]
    fn from_engine_carries_fleet_and_matcher_over() {
        let mut engine = PtRider::new(
            city(),
            GridConfig::with_dimensions(3, 3),
            EngineConfig::default(),
        );
        engine.set_matcher(MatcherKind::SingleSide);
        let taxi = engine.add_vehicle(VertexId(0));
        let van = engine.add_vehicle_with_capacity(VertexId(24), 6);

        let svc = RideService::from_engine(engine);
        assert_eq!(svc.matcher_kind(), MatcherKind::SingleSide);
        assert_eq!(svc.num_vehicles(), 2);
        assert_eq!(svc.with_vehicle(van, |v| v.capacity()), Some(6));
        assert_eq!(
            svc.with_vehicle_index(|index| index.is_registered_empty(taxi)),
            Some(true)
        );
        // Vehicle ids continue where the builder left off; statistics and
        // request ids start fresh.
        assert_eq!(svc.add_vehicle(VertexId(12)).0, van.0 + 1);
        assert_eq!(svc.stats().requests_submitted, 0);
        let offer = svc.submit(VertexId(6), VertexId(8), 1, 1.0).unwrap();
        assert_eq!(offer.request.0, 0);
        assert!(!offer.options.is_empty());
    }

    #[test]
    fn journaled_service_recovers_bit_identically() {
        let dir = temp_dir("recover-smoke");
        let journal = Journal::create(&dir, JournalConfig::default()).unwrap();
        let config = ServiceConfig::default().with_offer_ttl_secs(30.0);
        let svc = RideService::new(
            city(),
            GridConfig::with_dimensions(3, 3),
            EngineConfig::default(),
        )
        .with_service_config(config)
        .with_journal(journal);

        svc.add_vehicle(VertexId(0));
        svc.add_vehicle(VertexId(24));
        let a = svc.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
        svc.respond(a.session, Decision::Choose(OptionId(0)), 1.0)
            .unwrap();
        let b = svc.submit(VertexId(12), VertexId(14), 2, 2.0).unwrap();
        svc.respond(b.session, Decision::Decline, 3.0).unwrap();
        let c = svc.submit(VertexId(7), VertexId(9), 1, 4.0).unwrap();
        assert_eq!(svc.tick(40.0), 1); // expires c
        assert_eq!(svc.session_state(c.session), Some(SessionState::Expired));
        svc.prune_resolved();

        let reference = svc.fingerprint();
        let seq = svc.journal_next_seq().unwrap();
        drop(svc);

        let engine = PtRider::new(
            city(),
            GridConfig::with_dimensions(3, 3),
            EngineConfig::default(),
        );
        let recovered =
            RideService::recover(engine, config, &dir, JournalConfig::default()).unwrap();
        assert_eq!(recovered.journal_next_seq(), Some(seq));
        assert_eq!(recovered.fingerprint(), reference, "bit-identical recovery");
        assert_eq!(
            recovered.num_sessions(),
            0,
            "prune removed resolved sessions"
        );
        assert_eq!(recovered.stats().offers_expired, 1);

        // The recovered service keeps serving — and keeps journaling.
        let d = recovered.submit(VertexId(6), VertexId(8), 1, 50.0).unwrap();
        assert!(!d.options.is_empty());
        assert!(recovered.journal_next_seq().unwrap() > seq);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_then_recover_replays_only_the_tail() {
        let dir = temp_dir("snapshot-tail");
        let journal = Journal::create(&dir, JournalConfig::default()).unwrap();
        let config = ServiceConfig::default().with_offer_ttl_secs(60.0);
        let svc = RideService::new(
            city(),
            GridConfig::with_dimensions(3, 3),
            EngineConfig::default(),
        )
        .with_service_config(config)
        .with_journal(journal);

        svc.add_vehicle(VertexId(0));
        let a = svc.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
        svc.respond(a.session, Decision::Choose(OptionId(0)), 1.0)
            .unwrap();
        let watermark = svc.snapshot().expect("snapshot written");
        assert_eq!(Some(watermark), svc.journal_next_seq());

        // Post-snapshot tail.
        let b = svc.submit(VertexId(12), VertexId(14), 1, 2.0).unwrap();
        svc.respond(b.session, Decision::Decline, 3.0).unwrap();

        let reference = svc.fingerprint();
        drop(svc);

        let engine = PtRider::new(
            city(),
            GridConfig::with_dimensions(3, 3),
            EngineConfig::default(),
        );
        let recovered =
            RideService::recover(engine, config, &dir, JournalConfig::default()).unwrap();
        assert_eq!(recovered.fingerprint(), reference);
        assert_eq!(recovered.stats().offers_declined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Moves every busy vehicle one vertex toward its next stop, or serves
    /// the stop it stands on.
    fn step_fleet(svc: &RideService) {
        let num_vehicles = svc.num_vehicles() as u32;
        for id in (0..num_vehicles).map(VehicleId) {
            let (location, stop) = svc
                .with_vehicle(id, |v| (v.location(), v.next_stop()))
                .unwrap();
            let Some(stop) = stop else { continue };
            if location == stop.location {
                svc.vehicle_arrived(id).unwrap();
                continue;
            }
            let (_, path) =
                ptrider_roadnet::dijkstra::shortest_path(svc.network(), location, stop.location)
                    .unwrap();
            let travelled = svc.oracle().distance(location, path[1]);
            svc.location_update(id, path[1], travelled).unwrap();
        }
    }

    #[test]
    fn a_snapshot_carrying_an_offer_hold_is_refused() {
        let svc = service(60.0);
        svc.add_vehicle(VertexId(0));
        svc.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
        // The payload `snapshot` writes for a free-flow world: the traffic
        // prelude (epoch 0, no factors), then the state.
        let mut payload = Enc::new();
        payload.u64(0);
        payload.u32(0);
        let mut payload = payload.finish();
        payload.extend_from_slice(&encode_snapshot(
            &svc.world_read_tolerant(),
            &svc.ledger.lock().unwrap(),
            &svc.sessions_tolerant(),
            &svc.events,
        ));
        let recover = |tag: &str, payload: &[u8]| {
            let dir = temp_dir(tag);
            Journal::create(&dir, JournalConfig::default())
                .unwrap()
                .write_snapshot(payload)
                .unwrap();
            let engine = PtRider::new(
                city(),
                GridConfig::with_dimensions(3, 3),
                EngineConfig::default(),
            );
            let recovered = RideService::recover(
                engine,
                ServiceConfig::default(),
                &dir,
                JournalConfig::default(),
            );
            let _ = std::fs::remove_dir_all(&dir);
            recovered
        };
        assert_eq!(
            recover("hold-none", &payload).unwrap().fingerprint(),
            svc.fingerprint()
        );
        // The open session is the last one; only the two event counters
        // follow its hold slot. Fill the slot with vehicle 0.
        let slot = payload.len() - 17;
        assert_eq!(payload[slot], 0, "an empty hold slot");
        payload.splice(slot..=slot, [1, 0, 0, 0, 0]);
        match recover("hold-some", &payload) {
            Err(JournalError::Corrupt(reason)) => assert!(reason.contains("offer hold")),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a held offer must not recover"),
        }
    }

    #[test]
    fn replay_rebuilds_the_index_the_live_service_maintained() {
        let dir = temp_dir("index");
        let journal =
            Journal::create(&dir, JournalConfig::default().with_snapshot_every_ops(0)).unwrap();
        let config = ServiceConfig::default().with_offer_ttl_secs(0.5);
        let engine = || {
            PtRider::new(
                city(),
                GridConfig::with_dimensions(3, 3),
                EngineConfig::default(),
            )
        };
        let svc = RideService::from_engine(engine())
            .with_service_config(config)
            .with_journal(journal);
        for v in [0, 4, 12, 20, 24] {
            svc.add_vehicle(VertexId(v));
        }
        let mut busy_at_a_move = 0;
        for i in 0..60u32 {
            let now = f64::from(i);
            if i == 30 {
                svc.snapshot().expect("snapshot written");
            }
            let origin = (i * 7) % 25;
            let destination = (origin + 1 + (i * 11) % 24) % 25;
            let offer = svc
                .submit(VertexId(origin), VertexId(destination), 1, now)
                .unwrap();
            // Choose, decline or walk away; the tick expires the rest
            // before the fleet moves.
            if i % 4 < 2 && !offer.options.is_empty() {
                let last = OptionId(offer.options.len() as u32 - 1);
                let _ = svc.respond(offer.session, Decision::Choose(last), now);
            } else if i % 4 == 2 {
                svc.respond(offer.session, Decision::Decline, now).unwrap();
            }
            svc.tick(now + 0.75);
            busy_at_a_move += svc.with_vehicles(|it| it.filter(|v| !v.is_empty()).count());
            step_fleet(&svc);
        }
        assert!(busy_at_a_move > 60, "the fleet carried riders");

        let copy = temp_dir("index-copy");
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        let recovered =
            RideService::recover(engine(), config, &copy, JournalConfig::default()).unwrap();
        assert_eq!(recovered.fingerprint(), svc.fingerprint());
        // The per-cell lists are the whole registration (a vehicle's
        // cell and its empty flag follow from them).
        let registrations = |svc: &RideService| {
            let world = svc.world_read_tolerant();
            let index = &world.index;
            assert_eq!(index.num_vehicles(), 5);
            (0..index.num_cells())
                .map(|cell| {
                    let empty: Vec<VehicleId> = index.empty_in_cell(cell).collect();
                    let busy: Vec<VehicleId> = index.non_empty_in_cell(cell).collect();
                    (empty, busy)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(registrations(&recovered), registrations(&svc));
        drop((svc, recovered));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&copy);
    }
}
