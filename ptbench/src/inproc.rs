//! The in-process closed-loop driver behind `day.pooled`, `journal.restart`
//! and `city.cold` (and the in-process twin `wire.open` replays).
//!
//! One driver, one thread, the loop of Fig. 2: a rider arrives from the
//! trip stream, gets a skyline (`submit`) and answers (`respond`); between
//! riders the simulated clock advances in steps, busy vehicles follow
//! `Motion` routes and the harness reports every vertex crossing
//! (`location_update`), stop (`vehicle_arrived`) and step (`tick`). Idle
//! vehicles stay parked.
//!
//! The stream is cut into blocks of a fixed number of rides. A run
//! measures whole blocks until its time is up, so block *k* holds the same
//! rides on every run and machine; only how many blocks fit varies. That
//! is what lets three passes over identically built worlds (untraced,
//! traced, layer probe) be compared ride for ride.

use crate::digest::{Digest, SplitMix64};
use crate::layers::{apply_layers, oracle_micro, ratio, LayerProbe};
use crate::report::Outcome;
use crate::stats::{median, BlockLatencies};
use crate::sut::{
    scaled_shanghai, synthetic_city, ChoicePolicy, CityConfig, Decision, Journal, JournalConfig,
    MatcherKind, Motion, OptionId, Request, RequestId, RideService, RoadNetwork, ServiceError,
    StopEvent, TimedTrip, TripConfig, TripGenerator, VehicleId, VertexId,
};
use crate::trace::{Budget, Layer, Open, Tracer, NO_RIDE};
use crate::world::{check_skyline, distinct_pair, offer_hash, StaticSpec, Substrate, Tally};
use crate::RunOpts;
use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Simulated seconds per clock step, the simulator's own default.
const STEP_SECS: f64 = 5.0;
/// Distinct probes of a static world that recurs (`wire.open`). Set-up
/// matches each once, so every distance they need is cached before the
/// first measured ride and matching stays cheap, as in e17's storm; a
/// thousand keep `options_per_offer` from depending on the draw.
const RECURRING_PROBES: usize = 1024;
/// In the layer pass every other ride is probed under `submit`; the rides
/// in between keep their cold `submit`, the probe's like-for-like twin.
const PROBE_EVERY: u64 = 2;

/// Which world the driver runs on.
pub enum WorldKind {
    /// `scaled_shanghai(scale)`: a moving fleet under a morning's demand.
    /// The half hour before `start` is driven untimed during set-up, so
    /// measurement begins on a fleet that already carries riders.
    Shanghai {
        scale: f64,
        grid_side: usize,
        warm_from: f64,
        start: f64,
    },
    /// A parked fleet with warm assignments, probed and declined.
    /// `unique_probes` draws origins and destinations without replacement,
    /// so no probe can reuse a distance an earlier one cached.
    Static {
        world: StaticSpec,
        unique_probes: bool,
    },
}

pub struct InprocSpec {
    pub name: &'static str,
    pub world: WorldKind,
    /// `true`: riders pick with `ChoicePolicy::Weighted{0.5}` and are
    /// committed. `false`: every rider declines (the read path alone).
    pub riders_choose: bool,
    /// Poll the session between offer and answer, as a wire client does.
    pub poll_session: bool,
    /// Every this-many-th ride also reports the position of a parked,
    /// empty vehicle (a world write beside the reads).
    pub parked_update_every: Option<u64>,
    pub block_rides: usize,
    /// Percentiles over all blocks' samples at once instead of the median
    /// of per-block percentiles: right when the world never changes, so
    /// every ride is drawn from one distribution.
    pub pool_latencies: bool,
    pub journaled: bool,
}

impl InprocSpec {
    pub fn day_pooled(quick: bool) -> InprocSpec {
        InprocSpec {
            name: "day.pooled",
            world: WorldKind::Shanghai {
                scale: if quick { 0.02 } else { 0.16 },
                grid_side: if quick { 6 } else { 12 },
                warm_from: 5.5 * 3600.0,
                start: 6.0 * 3600.0,
            },
            riders_choose: true,
            poll_session: false,
            parked_update_every: None,
            block_rides: if quick { 100 } else { 1000 },
            pool_latencies: false,
            journaled: false,
        }
    }

    pub fn journal_restart(quick: bool) -> InprocSpec {
        InprocSpec {
            name: "journal.restart",
            journaled: true,
            ..InprocSpec::day_pooled(quick)
        }
    }

    pub fn city_cold(quick: bool) -> InprocSpec {
        InprocSpec {
            name: "city.cold",
            world: WorldKind::Static {
                world: if quick {
                    StaticSpec {
                        city_side: 24,
                        grid_side: 6,
                        vehicles: 60,
                        warm: 15,
                    }
                } else {
                    StaticSpec {
                        city_side: 80,
                        grid_side: 16,
                        vehicles: 300,
                        warm: 80,
                    }
                },
                unique_probes: true,
            },
            riders_choose: false,
            poll_session: false,
            parked_update_every: None,
            block_rides: if quick { 50 } else { 250 },
            pool_latencies: true,
            journaled: false,
        }
    }
}

/// Seed of everything a run does *not* draw afresh: the street map, the
/// demand model (hotspots, rush hours) and a parked fleet. A run's own
/// seed draws the day — which riders show up, where the moving taxis
/// start, which probes are asked — so runs on different seeds are
/// different days in one city, statistically alike, and their numbers may
/// be compared.
const CITY_SEED: u64 = crate::DEFAULT_SEED;

/// Everything generated from the seed before the clock starts: the system
/// under test receives these and nothing else.
pub struct Inputs {
    network: RoadNetwork,
    /// Where each vehicle starts, by vehicle id.
    fleet: Vec<VertexId>,
    /// Static worlds: trips assigned during set-up so part of the fleet
    /// carries a schedule.
    warm_trips: Vec<TimedTrip>,
    /// The ride stream; static worlds cycle through it unless unique.
    pub trips: Vec<TimedTrip>,
    cyclic: bool,
    pub digest: Digest,
}

pub fn generate_inputs(spec: &InprocSpec, seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x1d_a7);
    let mut inputs = match &spec.world {
        WorldKind::Shanghai {
            scale, warm_from, ..
        } => {
            let base = scaled_shanghai(*scale, CITY_SEED);
            // The demand model at twice the day's volume, of which this
            // seed's day is a random half: riders come and go, the
            // hotspots and the rush hours stay.
            let config = TripConfig {
                num_trips: 2 * base.trips.len(),
                ..base.config.trips.clone()
            };
            let pool = TripGenerator::new(&base.network, config).generate();
            let first = pool.partition_point(|t| t.time_secs < *warm_from);
            let trips = pool[first..]
                .iter()
                .filter(|_| rng.next() & 1 == 0)
                .copied()
                .collect();
            let vertices = base.network.num_vertices() as u64;
            Inputs {
                fleet: (0..base.vehicle_locations.len())
                    .map(|_| VertexId(rng.below(vertices) as u32))
                    .collect(),
                network: base.network,
                warm_trips: Vec::new(),
                trips,
                cyclic: false,
                digest: Digest::default(),
            }
        }
        WorldKind::Static {
            world,
            unique_probes,
        } => {
            let network = synthetic_city(&CityConfig {
                cols: world.city_side,
                rows: world.city_side,
                seed: CITY_SEED,
                ..CityConfig::default()
            });
            let vertices = network.num_vertices() as u64;
            let riders = |rng: &mut SplitMix64| if rng.below(10) < 7 { 1 } else { 2 };
            let trip = |rng: &mut SplitMix64, (origin, destination)| TimedTrip {
                time_secs: 0.0,
                origin,
                destination,
                riders: riders(rng),
            };
            // A parked fleet is part of the place: where it stands and what
            // it carries stay the same from seed to seed, or a few hundred
            // vehicles' luck of the draw would decide how many options a
            // probe can get. The seed draws the probes.
            let mut place = SplitMix64::new(CITY_SEED ^ 0xf1_ee7);
            let fleet = (0..world.vehicles)
                .map(|_| VertexId(place.below(vertices) as u32))
                .collect();
            // Twice the trips wanted: a trip that finds no vehicle is skipped.
            let warm_trips = (0..2 * world.warm)
                .map(|_| {
                    let pair = distinct_pair(&mut place, vertices);
                    trip(&mut place, pair)
                })
                .collect();
            let trips = if *unique_probes {
                // One pass over a shuffled vertex list for origins and
                // another for destinations: no vertex serves twice on
                // either side, so no probe can reuse a cached distance.
                let mut origins: Vec<u32> = (0..vertices as u32).collect();
                rng.shuffle(&mut origins);
                let mut destinations = origins.clone();
                rng.shuffle(&mut destinations);
                let pairs: Vec<_> = origins
                    .into_iter()
                    .zip(destinations)
                    .filter(|(o, d)| o != d)
                    .collect();
                pairs
                    .into_iter()
                    .map(|(o, d)| trip(&mut rng, (VertexId(o), VertexId(d))))
                    .collect()
            } else {
                (0..RECURRING_PROBES)
                    .map(|_| {
                        let pair = distinct_pair(&mut rng, vertices);
                        trip(&mut rng, pair)
                    })
                    .collect()
            };
            Inputs {
                network,
                fleet,
                warm_trips,
                trips,
                cyclic: !unique_probes,
                digest: Digest::default(),
            }
        }
    };
    // City arcs and weights, fleet placement, then every trip.
    let digest = &mut inputs.digest;
    digest.u64(inputs.network.num_vertices() as u64);
    for edge in inputs.network.edges() {
        digest.u64(u64::from(edge.from.0));
        digest.u64(u64::from(edge.to.0));
        digest.f64(edge.weight);
    }
    for location in &inputs.fleet {
        digest.u64(u64::from(location.0));
    }
    for trip in inputs.warm_trips.iter().chain(&inputs.trips) {
        digest.f64(trip.time_secs);
        digest.u64(u64::from(trip.origin.0));
        digest.u64(u64::from(trip.destination.0));
        digest.u64(u64::from(trip.riders));
    }
    inputs
}

/// A built world, ready to serve. One world serves one pass.
pub struct World<'a> {
    pub inputs: &'a Inputs,
    pub substrate: Substrate,
    pub service: Arc<RideService>,
    /// Parked, empty vehicles and where they stand.
    pub parked: Vec<(VehicleId, VertexId)>,
    /// The driver as set-up left it, counters zeroed.
    warm: DriverState,
    journal_dir: Option<PathBuf>,
    /// From the generated inputs to ready-to-serve: grid, landmarks,
    /// engine, fleet, warm assignments or the warm-up drive.
    pub setup_s: f64,
}

/// Group commit as shipped; snapshots only when the harness asks.
fn journal_config() -> JournalConfig {
    JournalConfig::default().with_snapshot_every_ops(0)
}

/// Builds a world from the inputs. `journal` names the run-scratch
/// directory slot a journaled workload's log goes to; `None` builds the
/// world unjournaled whatever the workload.
pub fn build<'a>(
    spec: &InprocSpec,
    inputs: &'a Inputs,
    opts: &RunOpts,
    journal: Option<usize>,
    tally: &mut Tally,
) -> World<'a> {
    let t = Instant::now();
    let seed = opts.seed;
    let journal_dir = journal
        .filter(|_| spec.journaled)
        .map(|slot| opts.scratch.join(format!("journal-{slot}")));
    let grid_side = match &spec.world {
        WorldKind::Shanghai { grid_side, .. } => *grid_side,
        WorldKind::Static { world, .. } => world.grid_side,
    };
    let substrate = Substrate::over(inputs.network.clone(), grid_side);
    let mut service = RideService::from_engine(substrate.engine());
    if let Some(dir) = &journal_dir {
        let journal = Journal::create(dir, journal_config()).expect("create the journal directory");
        service = service.with_journal(journal);
    }
    // The fleet goes in through the (journaled) service, so recovery
    // rebuilds it from the log.
    for location in &inputs.fleet {
        service.add_vehicle(*location);
    }
    let mut world = World {
        warm: DriverState::new(inputs.fleet.len(), 0.0, seed),
        inputs,
        substrate,
        service: Arc::new(service),
        parked: Vec::new(),
        journal_dir,
        setup_s: 0.0,
    };
    match &spec.world {
        WorldKind::Shanghai {
            warm_from, start, ..
        } => {
            // The early morning, driven untimed, so measurement starts on
            // a fleet that already carries riders.
            world.warm.clock = *warm_from;
            let mut tracer = Tracer::new(false);
            let mut pass = Pass::new(spec, &world, &mut tracer, tally, None);
            pass.run_until(*start);
            let warm = pass.state;
            world.warm = DriverState {
                rides: 0,
                offers: 0,
                options: 0,
                updates: 0,
                outputs: Digest::default(),
                ..warm
            };
        }
        WorldKind::Static { world: fleet, .. } => {
            // Each warm rider takes the earliest pick-up; nobody moves
            // afterwards, so the world stays exactly as built.
            let mut assigned = 0;
            for trip in &inputs.warm_trips {
                if assigned == fleet.warm {
                    break;
                }
                let offer = world
                    .service
                    .submit(trip.origin, trip.destination, trip.riders, 0.0);
                let Some(offer) = tally.op("warm submit", offer) else {
                    continue;
                };
                let decision = if offer.options.is_empty() {
                    Decision::Decline
                } else {
                    assigned += 1;
                    Decision::Choose(OptionId(0))
                };
                tally.op(
                    "warm respond",
                    world.service.respond(offer.session, decision, 0.0),
                );
            }
            if inputs.cyclic {
                for trip in &inputs.trips {
                    let request = Request::new(
                        RequestId(u64::MAX),
                        trip.origin,
                        trip.destination,
                        trip.riders,
                        0.0,
                    );
                    tally.op(
                        "warm match",
                        world
                            .service
                            .match_request_with(MatcherKind::DualSide, &request),
                    );
                }
            }
            world.warm.open_rides = scheduled_requests(&world.service);
            let mut parked: Vec<VehicleId> = world.service.with_vehicles(|vehicles| {
                vehicles.filter(|v| v.is_empty()).map(|v| v.id()).collect()
            });
            parked.sort_unstable();
            world.parked = parked
                .into_iter()
                .map(|id| (id, inputs.fleet[id.0 as usize]))
                .collect();
        }
    }
    world.setup_s = t.elapsed().as_secs_f64();
    world
}

/// Every request some vehicle still has to serve.
fn scheduled_requests(service: &RideService) -> HashSet<u64> {
    service.with_vehicles(|vehicles| {
        vehicles
            .flat_map(|v| v.requests().into_iter().map(|r| r.id.0).collect::<Vec<_>>())
            .collect()
    })
}

/// What the driver carries from ride to ride.
#[derive(Clone)]
struct DriverState {
    next_trip: usize,
    clock: f64,
    motions: Vec<Motion>,
    /// Vehicles with stops to serve; the rest stay parked.
    active: BTreeSet<u32>,
    /// Confirmed rides not yet dropped off.
    open_rides: HashSet<u64>,
    rng: SplitMix64,
    rides: u64,
    offers: u64,
    options: u64,
    updates: u64,
    outputs: Digest,
}

impl DriverState {
    fn new(vehicles: usize, clock: f64, seed: u64) -> DriverState {
        DriverState {
            next_trip: 0,
            clock,
            motions: vec![Motion::new(); vehicles],
            active: BTreeSet::new(),
            open_rides: HashSet::new(),
            rng: SplitMix64::new(seed ^ 0xc4_01ce),
            rides: 0,
            offers: 0,
            options: 0,
            updates: 0,
            outputs: Digest::default(),
        }
    }
}

/// One pass of the driver over a world.
struct Pass<'a> {
    spec: &'a InprocSpec,
    world: &'a World<'a>,
    service: &'a RideService,
    state: DriverState,
    tracer: &'a mut Tracer,
    tally: &'a mut Tally,
    probe: Option<&'a mut LayerProbe>,
    /// Offer latencies of the current block, in milliseconds.
    latencies: Vec<f64>,
    step_metres: f64,
}

impl<'a> Pass<'a> {
    fn new(
        spec: &'a InprocSpec,
        world: &'a World<'a>,
        tracer: &'a mut Tracer,
        tally: &'a mut Tally,
        probe: Option<&'a mut LayerProbe>,
    ) -> Pass<'a> {
        Pass {
            spec,
            world,
            service: &world.service,
            state: world.warm.clone(),
            tracer,
            tally,
            probe,
            latencies: Vec::new(),
            step_metres: world.service.config().speed.mps() * STEP_SECS,
        }
    }

    /// Runs whole clock steps until the simulated clock reaches `until`.
    fn run_until(&mut self, until: f64) {
        while self.state.clock < until && self.next_event() {}
    }

    /// Runs until `rides` more rides completed; `false` when the trip
    /// stream ran dry first.
    fn run_rides(&mut self, rides: usize) -> bool {
        let target = self.state.rides + rides as u64;
        while self.state.rides < target {
            if !self.next_event() {
                return false;
            }
        }
        true
    }

    /// The next event in simulated time: a due ride, or the end of the
    /// current clock step (fleet movement, then the offer clock).
    fn next_event(&mut self) -> bool {
        let trips = &self.world.inputs.trips;
        let index = if self.world.inputs.cyclic {
            self.state.next_trip % trips.len()
        } else {
            self.state.next_trip
        };
        let step_end = self.state.clock + STEP_SECS;
        match trips.get(index) {
            None => false,
            Some(trip) if trip.time_secs < step_end => {
                let trip = *trip;
                self.state.next_trip += 1;
                self.ride(&trip);
                true
            }
            Some(_) => {
                self.move_fleet();
                self.state.clock = step_end;
                let span = self
                    .tracer
                    .open("service.tick", Layer::Service, None, NO_RIDE);
                self.service.tick(step_end);
                self.service.prune_resolved();
                self.tracer.close(span);
                true
            }
        }
    }

    /// One ride lifecycle: request, skyline, answer.
    fn ride(&mut self, trip: &TimedTrip) {
        let ride = self.state.rides;
        self.state.rides += 1;
        let span = self.tracer.open("ride", Layer::Driver, None, ride);
        let probed = match &mut self.probe {
            Some(probe) if ride.is_multiple_of(PROBE_EVERY) => probe.probe(
                self.service,
                trip.origin,
                trip.destination,
                trip.riders,
                trip.time_secs,
            ),
            _ => None,
        };
        let t0 = Instant::now();
        let offer = self
            .service
            .submit(trip.origin, trip.destination, trip.riders, trip.time_secs);
        let t1 = Instant::now();
        // A probed ride's submit finds its distances cached; its span gets
        // a name of its own so like-for-like comparisons skip it.
        let name = if probed.is_some() {
            "service.submit.warm"
        } else {
            "service.submit"
        };
        self.tracer
            .record(name, Layer::Service, span.as_ref(), ride, t0, t1);
        if let (Some(warm_match_s), Some(probe)) = (probed, &mut self.probe) {
            probe.submitted(warm_match_s, (t1 - t0).as_secs_f64());
        }
        if let Some(offer) = self.tally.op("submit", offer) {
            self.latencies.push((t1 - t0).as_secs_f64() * 1e3);
            self.state.offers += 1;
            self.state.options += offer.options.len() as u64;
            let skyline: Vec<(f64, f64)> = offer
                .options
                .iter()
                .map(|o| (o.pickup_dist, o.price))
                .collect();
            if let Err(why) = check_skyline(&skyline) {
                self.tally.violation(format!("ride {ride}: {why}"));
            }
            let hash = offer_hash(
                offer
                    .options
                    .iter()
                    .map(|o| (o.vehicle.0, o.pickup_dist, o.price)),
            );
            self.state.outputs.u64(hash);
            if self.spec.poll_session {
                let poll =
                    self.tracer
                        .open("service.session_state", Layer::Service, span.as_ref(), ride);
                let state = self.service.session_state(offer.session);
                self.tracer.close(poll);
                self.tally
                    .op("session_state", state.ok_or("the session is unknown"));
            }
            let choice = if self.spec.riders_choose {
                ChoicePolicy::Weighted { alpha: 0.5 }
                    .choose_index(&offer.options, &mut self.state.rng)
            } else {
                None
            };
            let (name, decision) = match choice {
                Some(k) => (
                    "service.respond.choose",
                    Decision::Choose(OptionId(k as u32)),
                ),
                None => ("service.respond.decline", Decision::Decline),
            };
            let respond = self.tracer.open(name, Layer::Service, span.as_ref(), ride);
            let answer = self
                .service
                .respond(offer.session, decision, trip.time_secs);
            self.tracer.close(respond);
            match self.tally.op("respond", answer) {
                Some(Some(confirmation)) => {
                    self.state.active.insert(confirmation.option.vehicle.0);
                    self.state.open_rides.insert(confirmation.request.0);
                }
                Some(None) => {}
                // Nothing moved between offer and choice, so a refusal is
                // a failure (already counted); free the session.
                None => {
                    let _: Result<_, ServiceError> =
                        self.service
                            .respond(offer.session, Decision::Decline, trip.time_secs);
                }
            }
        }
        if let Some(every) = self.spec.parked_update_every {
            if ride.is_multiple_of(every) && !self.world.parked.is_empty() {
                let (vehicle, location) =
                    self.world.parked[(ride / every) as usize % self.world.parked.len()];
                let update = self.tracer.open(
                    "service.location_update",
                    Layer::Service,
                    span.as_ref(),
                    ride,
                );
                let moved = self.service.location_update(vehicle, location, 0.0);
                self.tracer.close(update);
                self.state.updates += 1;
                self.tally.op("location_update", moved);
            }
        }
        self.tracer.close(span);
    }

    /// Drives every busy vehicle one clock step along its schedule.
    fn move_fleet(&mut self) {
        let span = self.tracer.open("fleet", Layer::Driver, None, NO_RIDE);
        let ids: Vec<u32> = self.state.active.iter().copied().collect();
        for id in ids {
            self.move_vehicle(VehicleId(id), span.as_ref());
        }
        self.tracer.close(span);
    }

    fn move_vehicle(&mut self, id: VehicleId, parent: Option<&Open>) {
        let mut budget = self.step_metres;
        // A stop at the vehicle's own vertex costs no distance, so bound
        // the iterations rather than the metres.
        for _ in 0..10_000 {
            if budget <= 1e-9 {
                return;
            }
            let Some((location, next_stop)) = self
                .service
                .with_vehicle(id, |v| (v.location(), v.next_stop()))
            else {
                self.tally.violation(format!("vehicle {} vanished", id.0));
                return;
            };
            let motion = &mut self.state.motions[id.0 as usize];
            let Some(stop) = next_stop else {
                motion.clear();
                self.state.active.remove(&id.0);
                return;
            };
            if stop.location == location {
                let span =
                    self.tracer
                        .open("service.vehicle_arrived", Layer::Service, parent, NO_RIDE);
                let event = self.service.vehicle_arrived(id);
                self.tracer.close(span);
                self.state.updates += 1;
                if let Some(Some(StopEvent::DroppedOff { request, .. })) =
                    self.tally.op("vehicle_arrived", event)
                {
                    if !self.state.open_rides.remove(&request.id.0) {
                        self.tally.violation(format!(
                            "request {} was dropped off but never confirmed",
                            request.id.0
                        ));
                    }
                }
                self.state.motions[id.0 as usize].clear();
                continue;
            }
            motion.route_to(&self.world.substrate.net, location, stop.location);
            let (crossings, leftover) = motion.advance(budget);
            for crossing in &crossings {
                let span =
                    self.tracer
                        .open("service.location_update", Layer::Service, parent, NO_RIDE);
                let moved = self
                    .service
                    .location_update(id, crossing.vertex, crossing.travelled);
                self.tracer.close(span);
                self.state.updates += 1;
                self.tally.op("location_update", moved);
            }
            if crossings.is_empty() && budget - leftover <= 1e-9 {
                return;
            }
            budget = leftover;
        }
    }

    /// Every confirmed ride was dropped off or is still on a schedule, and
    /// nothing is scheduled that no rider confirmed.
    fn check_conservation(&mut self) {
        let scheduled = scheduled_requests(self.service);
        for (what, mut ids) in [
            (
                "confirmed rides are on no schedule",
                self.state
                    .open_rides
                    .difference(&scheduled)
                    .collect::<Vec<_>>(),
            ),
            (
                "scheduled rides were never confirmed",
                scheduled.difference(&self.state.open_rides).collect(),
            ),
        ] {
            ids.sort_unstable();
            if let Some(first) = ids.first() {
                self.tally
                    .violation(format!("{} {what} (first: request {first})", ids.len()));
            }
        }
    }
}

/// What a measured pass over whole blocks found.
pub struct Measured {
    pub blocks: usize,
    /// Block at whose end the snapshot was taken (journaled passes).
    pub snapshot_after: Option<usize>,
    /// The ride loop alone.
    pub loop_s: f64,
    /// The loop plus, on a journaled pass, the crash and the recovery.
    pub wall_s: f64,
    pub rides: u64,
    pub offers: u64,
    pub options: u64,
    pub updates: u64,
    pub latencies: BlockLatencies,
    /// Cumulative outputs digest at each block boundary.
    pub block_digests: Vec<String>,
    pub cache_hit_ratio: f64,
    pub journal: Option<JournalFacts>,
}

pub struct JournalFacts {
    pub snapshot_s: f64,
    pub recover_s: f64,
    pub replayed_ops: u64,
    pub bytes_per_op: f64,
    pub appended_ops: u64,
}

/// How long a pass runs: until its time is up (the reference pass), or for
/// exactly the blocks the reference pass fitted.
#[derive(Clone, Copy)]
pub enum Length {
    Seconds(f64),
    Blocks {
        blocks: usize,
        snapshot_after: Option<usize>,
    },
}

pub fn measure(
    spec: &InprocSpec,
    world: &World,
    length: Length,
    tracer: &mut Tracer,
    tally: &mut Tally,
    probe: Option<&mut LayerProbe>,
) -> Measured {
    let journaled = world.journal_dir.is_some();
    let oracle = world.service.oracle();
    let (hits0, exact0) = (oracle.cache_hits(), oracle.exact_computations());
    let seq0 = world.service.journal_next_seq().unwrap_or(0);
    let mut latencies = BlockLatencies::default();
    let mut block_digests = Vec::new();
    let mut snapshot: Option<(usize, f64, u64)> = None;
    let begin = Instant::now();
    let mut pass = Pass::new(spec, world, tracer, tally, probe);
    let mut blocks = 0;
    loop {
        let more = match length {
            Length::Seconds(s) => begin.elapsed().as_secs_f64() < s,
            Length::Blocks { blocks: n, .. } => blocks < n,
        };
        if !more || !pass.run_rides(spec.block_rides) {
            break;
        }
        blocks += 1;
        latencies.push_block(std::mem::take(&mut pass.latencies));
        block_digests.push(pass.state.outputs.hex());
        let due = match length {
            Length::Seconds(s) => begin.elapsed().as_secs_f64() >= s / 2.0,
            Length::Blocks { snapshot_after, .. } => snapshot_after == Some(blocks),
        };
        if journaled && snapshot.is_none() && due {
            let span = pass
                .tracer
                .open("journal.snapshot", Layer::Journal, None, NO_RIDE);
            let t = Instant::now();
            let watermark = world.service.snapshot();
            let snapshot_s = t.elapsed().as_secs_f64();
            pass.tracer.close(span);
            let watermark = pass
                .tally
                .op("snapshot", watermark.ok_or("the snapshot was not written"));
            snapshot = Some((blocks, snapshot_s, watermark.unwrap_or(0)));
        }
    }
    pass.check_conservation();
    let state = pass.state;
    let loop_s = begin.elapsed().as_secs_f64();
    let mut wall_s = loop_s;
    let (hits, exact) = (
        oracle.cache_hits() - hits0,
        oracle.exact_computations() - exact0,
    );

    let journal = world.journal_dir.as_ref().map(|dir| {
        let (_, snapshot_s, watermark) = snapshot.unwrap_or((0, 0.0, 0));
        let facts = crash_and_recover(world, dir, seq0, snapshot_s, watermark, tracer, tally);
        // The restart is part of this workload's wall: `rides_per_s`
        // pays for a slow recovery, and the budget shows it as journal time.
        wall_s = begin.elapsed().as_secs_f64();
        facts
    });
    if spec.pool_latencies {
        let mut pooled = BlockLatencies::default();
        pooled.push_block(latencies.pooled());
        latencies = pooled;
    }
    Measured {
        blocks,
        snapshot_after: snapshot.map(|(after, ..)| after),
        loop_s,
        wall_s,
        rides: state.rides,
        offers: state.offers,
        options: state.options,
        updates: state.updates,
        latencies,
        block_digests,
        cache_hit_ratio: ratio(hits as f64, (hits + exact) as f64),
        journal,
    }
}

/// Flushes the journal, fingerprints the live service, then rebuilds one
/// from the directory alone and demands the same fingerprint.
fn crash_and_recover(
    world: &World,
    dir: &Path,
    first_seq: u64,
    snapshot_s: f64,
    watermark: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> JournalFacts {
    let span = tracer.open("journal.sync", Layer::Journal, None, NO_RIDE);
    let synced = world.service.sync_journal();
    tracer.close(span);
    tally.op(
        "sync_journal",
        if synced {
            Ok(())
        } else {
            Err("the journal did not sync")
        },
    );
    let live = world.service.fingerprint();
    let last_seq = world.service.journal_next_seq().unwrap_or(0);
    let replayed_ops = last_seq.saturating_sub(watermark);
    let wal_bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| !e.file_name().to_string_lossy().starts_with("snapshot"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);

    // The crash: from here on only the directory and an identically
    // configured empty engine exist. (The live service stays around only
    // so its fingerprint can be compared; nothing touches it.)
    let span = tracer.open("journal.recover", Layer::Journal, None, NO_RIDE);
    let t = Instant::now();
    let recovered = RideService::recover(
        world.substrate.engine(),
        *world.service.service_config(),
        dir,
        journal_config(),
    );
    let recover_s = t.elapsed().as_secs_f64();
    tracer.close(span);
    if let Some(recovered) = tally.op("recover", recovered) {
        let fingerprint = recovered.fingerprint();
        if fingerprint != live {
            tally.violation(format!(
                "recovered fingerprint {fingerprint:016x} differs from the live one {live:016x}"
            ));
        }
    }
    JournalFacts {
        snapshot_s,
        recover_s,
        replayed_ops,
        // After the snapshot rotated the log, what is left on disk is
        // exactly the records recovery replays.
        bytes_per_op: ratio(wal_bytes as f64, replayed_ops as f64),
        appended_ops: last_seq - first_seq,
    }
}

pub fn run(spec: &InprocSpec, opts: &RunOpts) -> Outcome {
    let mut outcome = Outcome::new(spec.name, opts);
    if opts.traced {
        run_traced(spec, opts, &mut outcome);
    } else {
        run_untraced(spec, opts, &mut outcome);
    }
    outcome
}

/// The end-to-end metrics of a measured pass; `offers` is the latency
/// series the rider-visible percentiles come from.
pub fn end_to_end(outcome: &mut Outcome, setups: &[f64], m: &Measured, offers: &BlockLatencies) {
    outcome.metric("setup_s", median(setups), setups.len() as u64);
    outcome.latency_metrics(offers);
    outcome.metric("rides_per_s", m.rides as f64 / m.wall_s, m.rides);
    outcome.metric(
        "options_per_offer",
        ratio(m.options as f64, m.offers as f64),
        m.offers,
    );
    outcome.block_digests = m.block_digests.clone();
    outcome.block_rides = m.rides / m.blocks.max(1) as u64;
    outcome.notes.push(format!(
        "{} blocks of {} rides in {:.3} s; {} fleet updates",
        m.blocks, outcome.block_rides, m.wall_s, m.updates
    ));
    if let Some(j) = &m.journal {
        outcome.notes.push(format!(
            "snapshot {:.4} s; recovery {:.4} s replaying {} ops ({:.0} ops/s), {:.1} WAL bytes/op",
            j.snapshot_s,
            j.recover_s,
            j.replayed_ops,
            ratio(j.replayed_ops as f64, j.recover_s),
            j.bytes_per_op
        ));
    }
}

fn run_untraced(spec: &InprocSpec, opts: &RunOpts, outcome: &mut Outcome) {
    let inputs = generate_inputs(spec, opts.seed);
    // Set-up is measured three times; the last build is the one served.
    let mut setups = Vec::new();
    let mut world = None;
    for i in 0..3 {
        drop(world.take());
        let built = build(spec, &inputs, opts, Some(i), &mut outcome.tally);
        setups.push(built.setup_s);
        world = Some(built);
    }
    let world = world.expect("three builds");
    outcome.inputs_digest = inputs.digest.hex();
    outcome.stamp_engine(&world.service);
    let mut tracer = Tracer::new(false);
    let m = measure(
        spec,
        &world,
        Length::Seconds(opts.seconds),
        &mut tracer,
        &mut outcome.tally,
        None,
    );
    end_to_end(outcome, &setups, &m, &m.latencies);
}

/// Mean duration in seconds and count of the spans with this name.
pub fn span_mean(tracer: &Tracer, name: &str) -> (f64, u64) {
    let (mut sum, mut n) = (0u64, 0u64);
    for s in tracer.spans().iter().filter(|s| s.name == name) {
        sum += s.end_ns - s.start_ns;
        n += 1;
    }
    (ratio(sum as f64 / 1e9, n as f64), n)
}

/// Median duration in microseconds and count of the spans so named.
pub fn span_median_us(tracer: &Tracer, names: &[&str]) -> (f64, u64) {
    let durations: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    if durations.is_empty() {
        (0.0, 0)
    } else {
        (median(&durations), durations.len() as u64)
    }
}

fn run_traced(spec: &InprocSpec, opts: &RunOpts, outcome: &mut Outcome) {
    // Identically built worlds, three passes over the same blocks:
    // untraced (the reference), traced, and the layer pass. A first world
    // is built and dropped, as in an untraced run, so that no measured
    // pass is the one that grows the process's heap.
    let inputs = generate_inputs(spec, opts.seed);
    let mut setups = vec![build(spec, &inputs, opts, Some(0), &mut outcome.tally).setup_s];
    let world = build(spec, &inputs, opts, Some(1), &mut outcome.tally);
    outcome.inputs_digest = inputs.digest.hex();
    outcome.stamp_engine(&world.service);
    setups.push(world.setup_s);
    let mut off = Tracer::new(false);
    let untraced = measure(
        spec,
        &world,
        Length::Seconds(opts.seconds / 3.0),
        &mut off,
        &mut outcome.tally,
        None,
    );
    drop(world);
    let same = Length::Blocks {
        blocks: untraced.blocks,
        snapshot_after: untraced.snapshot_after,
    };

    let world = build(spec, &inputs, opts, Some(2), &mut outcome.tally);
    setups.push(world.setup_s);
    let mut tracer = Tracer::new(true);
    let traced = measure(spec, &world, same, &mut tracer, &mut outcome.tally, None);
    drop(world);

    // The layer pass is never journaled: its writes are the unjournaled
    // twins the journal's append cost is measured against.
    let world = build(spec, &inputs, opts, None, &mut outcome.tally);
    setups.push(world.setup_s);
    let mut layer_tracer = Tracer::new(true);
    let mut probe = LayerProbe::default();
    let unjournaled = Length::Blocks {
        blocks: untraced.blocks,
        snapshot_after: None,
    };
    let layer = measure(
        spec,
        &world,
        unjournaled,
        &mut layer_tracer,
        &mut outcome.tally,
        Some(&mut probe),
    );
    // Last, because the batch probe fills the oracle's cache.
    let micro = oracle_micro(&world.service, opts.seed);
    drop(world);
    for (pass, digests) in [
        ("traced", &traced.block_digests),
        ("layer", &layer.block_digests),
    ] {
        if *digests != untraced.block_digests {
            outcome.tally.violation(format!(
                "the {pass} pass produced different offers than the reference pass"
            ));
        }
    }

    end_to_end(outcome, &setups, &untraced, &untraced.latencies);
    let rate = |m: &Measured| m.rides as f64 / m.loop_s;
    outcome.metric("traced_rides_per_s", rate(&traced), traced.rides);
    outcome.metric(
        "trace_overhead_pct",
        (rate(&untraced) - rate(&traced)) / rate(&untraced) * 100.0,
        traced.rides,
    );
    let (respond_us, responds) = span_median_us(&tracer, &["service.respond.choose"]);
    outcome.metric("service.respond_us", respond_us, responds);
    let (update_us, updates) = span_median_us(
        &tracer,
        &["service.location_update", "service.vehicle_arrived"],
    );
    outcome.metric("service.update_us", update_us, updates);
    outcome.metric(
        "service.updates_per_ride",
        ratio(traced.updates as f64, traced.rides as f64),
        traced.rides,
    );
    outcome.metric(
        "roadnet.cache_hit_ratio",
        traced.cache_hit_ratio,
        traced.offers,
    );

    // The budget: measured rows from the traced pass's spans, then the
    // layers under `submit` carved out with the layer pass's times.
    let mut budget = Budget::from_spans(tracer.spans(), traced.wall_s);
    let (submit_mean_s, submits) = span_mean(&tracer, "service.submit");
    apply_layers(
        outcome,
        &mut budget,
        &probe,
        traced.rides,
        submit_mean_s * submits as f64,
        &micro,
    );
    if let Some(j) = &traced.journal {
        // Appends happen inside every write: per kind of write, the
        // journaled mean minus the unjournaled twin's, times the count.
        let mut append_s = 0.0;
        for name in [
            "service.submit",
            "service.respond.choose",
            "service.respond.decline",
            "service.location_update",
            "service.vehicle_arrived",
        ] {
            let (journaled, n) = span_mean(&tracer, name);
            let (plain, _) = span_mean(&layer_tracer, name);
            append_s += (journaled - plain).max(0.0) * n as f64;
        }
        budget.carve(Layer::Service, Layer::Journal, j.appended_ops, append_s);
        outcome.metric(
            "journal.append_us",
            ratio(append_s * 1e6, j.appended_ops as f64),
            j.appended_ops,
        );
        outcome.metric("journal.bytes_per_op", j.bytes_per_op, j.replayed_ops);
        outcome.metric("journal.snapshot_s", j.snapshot_s, 1);
        outcome.metric("journal.recover_s", j.recover_s, 1);
        outcome.metric(
            "journal.replay_ops_per_s",
            ratio(j.replayed_ops as f64, j.recover_s),
            j.replayed_ops,
        );
    }
    outcome.metric("driver.share", budget.share(Layer::Driver), traced.rides);
    outcome.budget = Some(budget);
    outcome.spans = Some(tracer);
}
