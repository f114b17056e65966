//! `wire.open`: the front door over real sockets.
//!
//! `Server::start` on an ephemeral port in this process, and as many
//! keep-alive client connections as the box has cores (two at most), one
//! thread each — never more, so the clients cannot starve the server they
//! measure. The world is e17's cheap one: a 30×30 city, 400 parked
//! vehicles, 100 warm assignments; riders decline, so it never changes
//! and matching costs ~0.1 ms. What is left of each request is the
//! `server` (parse, JSON, thread hand-off, syscalls) and `service`
//! bookkeeping.
//!
//! One ride = `POST /rides`, `GET /sessions/{id}`, `POST …/respond`
//! (decline), and every 4th ride a `POST /vehicles/{id}/location` for a
//! parked empty vehicle — a world write beside the reads.
//!
//! * The closed loop (every run): every client sends its next ride when
//!   the last one finished → `rides_per_s`, and the `POST /rides` round
//!   trip as `offer_p50_ms` / `offer_p99_ms`.
//! * The open loop (traced runs): riders are independent, so arrivals
//!   follow a seeded Poisson schedule at three fixed rates whatever the
//!   server does; an offer's latency runs from when the request was *due*,
//!   which charges a stall to every request queued behind it, and the
//!   generator's own lateness is reported. On this two-core box the open
//!   loop's tail repeats only within ±20–50 % from run to run, so its
//!   latencies are layer metrics (`server.open_*`), not gated ones — the
//!   README has the measurements behind that.

use crate::digest::{Digest, SplitMix64};
use crate::inproc::{
    self, end_to_end, generate_inputs, span_median_us, InprocSpec, Inputs, Length, Measured,
    WorldKind,
};
use crate::json::Json;
use crate::layers::{apply_layers, oracle_micro, ratio, LayerProbe};
use crate::report::Outcome;
use crate::stats::{median, percentile, BlockLatencies};
use crate::sut::{Server, ServerConfig, ServerHandle};
use crate::trace::{Budget, Layer, Tracer};
use crate::world::{check_skyline, offer_hash, StaticSpec, Tally};
use crate::RunOpts;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Open-loop arrival rates in rides per second, frozen at about 30 %,
/// 60 % and 90 % of the closed-loop rate this box reached on the commit
/// that introduced the benchmark (see the README for the calibration).
/// `server.open_p50_ms` / `server.open_p99_ms` are taken at the middle one.
pub const OPEN_RATES: [f64; 3] = [1500.0, 3000.0, 4500.0];
/// Share of a traced run's time the reference phases get: the closed
/// loop, then the three open-loop rates (the middle one, whose latencies
/// are reported, the most). The traced pass and the in-process twin then
/// replay the closed loop's rides.
const PHASE_SHARES: [f64; 4] = [0.2, 0.1, 0.3, 0.1];
/// An offer later than this, counted from its due time, missed the SLO.
pub const OFFER_SLO_MS: f64 = 50.0;
/// Every this-many-th ride also moves a parked vehicle.
const UPDATE_EVERY: u64 = 4;

/// Client threads, one connection each: the cores, two at most.
pub fn client_threads(nproc: usize) -> usize {
    nproc.clamp(1, 2)
}

fn spec(quick: bool) -> InprocSpec {
    InprocSpec {
        name: "wire.open",
        world: WorldKind::Static {
            world: if quick {
                StaticSpec {
                    city_side: 16,
                    grid_side: 4,
                    vehicles: 80,
                    warm: 20,
                }
            } else {
                StaticSpec {
                    city_side: 30,
                    grid_side: 10,
                    vehicles: 400,
                    warm: 100,
                }
            },
            unique_probes: false,
        },
        riders_choose: false,
        poll_session: true,
        parked_update_every: Some(UPDATE_EVERY),
        block_rides: if quick { 100 } else { 1000 },
        pool_latencies: true,
        journaled: false,
    }
}

// ---------------------------------------------------------------------
// The HTTP client
// ---------------------------------------------------------------------

/// A blocking keep-alive HTTP/1.1 client: `Content-Length`-framed
/// requests out, one buffered response in.
pub struct HttpClient {
    stream: TcpStream,
    /// Bytes read past the previous response (always empty in practice:
    /// the server answers one request at a time).
    buffer: Vec<u8>,
}

pub struct HttpResponse {
    pub status: u16,
    pub body: String,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        // A wedged server must show up as an error, never as a hang.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        stream.set_write_timeout(Some(Duration::from_secs(20)))?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            buffer: Vec::with_capacity(4096),
        })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: ptbench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let head_end = loop {
            if let Some(at) = find(&self.buffer, b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buffer[..head_end])
            .map_err(|_| bad("response head is not utf-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = lines
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse().ok())
            .unwrap_or(0);
        if length > 1 << 20 {
            return Err(bad("response body too large"));
        }
        while self.buffer.len() < head_end + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buffer[head_end..head_end + length]).into_owned();
        self.buffer.drain(..head_end + length);
        Ok(HttpResponse { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            n => {
                self.buffer.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

// ---------------------------------------------------------------------
// One rider on one connection
// ---------------------------------------------------------------------

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    /// `(ride, hash of the offer, POST /rides round trip in ms)`, to fold
    /// in ride order afterwards.
    offers: Vec<(u64, u64, f64)>,
    options: u64,
    updates: u64,
}

struct WireRider<'a> {
    client: HttpClient,
    world: &'a inproc::World<'a>,
    log: ClientLog,
    tracer: Tracer,
    /// The session the last offer opened, until the ride is finished.
    held: Option<u64>,
}

impl<'a> WireRider<'a> {
    fn connect(
        addr: SocketAddr,
        world: &'a inproc::World<'a>,
        traced: bool,
    ) -> io::Result<WireRider<'a>> {
        Ok(WireRider {
            client: HttpClient::connect(addr)?,
            world,
            log: ClientLog::default(),
            tracer: Tracer::new(traced),
            held: None,
        })
    }

    /// One HTTP call, counted and traced; `None` unless it answered 200.
    fn call(
        &mut self,
        name: &'static str,
        method: &str,
        path: &str,
        body: &str,
        parent: Option<&crate::trace::Open>,
        ride: u64,
    ) -> Option<(String, f64)> {
        let t0 = Instant::now();
        let response = self.client.request(method, path, body);
        let t1 = Instant::now();
        self.tracer
            .record(name, Layer::Server, parent, ride, t0, t1);
        let answered = response.map_err(|e| e.to_string()).and_then(|r| {
            if r.status == 200 {
                Ok(r.body)
            } else {
                Err(format!("status {}: {}", r.status, r.body))
            }
        });
        self.log
            .tally
            .op(name, answered)
            .map(|body| (body, (t1 - t0).as_secs_f64()))
    }

    /// `POST /rides` for ride `ride`; `true` once the rider holds a skyline.
    fn offer(&mut self, ride: u64, parent: Option<&crate::trace::Open>) -> bool {
        let trips = &self.world.inputs.trips;
        let trip = trips[ride as usize % trips.len()];
        let body = format!(
            r#"{{"origin":{},"destination":{},"riders":{},"now":0.0}}"#,
            trip.origin.0, trip.destination.0, trip.riders
        );
        let Some((body, seconds)) =
            self.call("http.post_rides", "POST", "/rides", &body, parent, ride)
        else {
            return false;
        };
        match parse_offer(&body) {
            Ok((session, options)) => {
                let skyline: Vec<(f64, f64)> = options.iter().map(|(_, d, p)| (*d, *p)).collect();
                if let Err(why) = check_skyline(&skyline) {
                    self.log.tally.violation(format!("ride {ride}: {why}"));
                }
                self.log
                    .offers
                    .push((ride, offer_hash(options.iter().copied()), seconds * 1e3));
                self.log.options += options.len() as u64;
                self.held = Some(session);
                true
            }
            Err(why) => {
                self.log
                    .tally
                    .violation(format!("ride {ride}: unreadable offer: {why}"));
                false
            }
        }
    }

    /// The rest of the ride: poll the session, decline, and on every 4th
    /// ride report a parked vehicle's position.
    fn finish(&mut self, ride: u64, parent: Option<&crate::trace::Open>) {
        if let Some(session) = self.held.take() {
            let path = format!("/sessions/{session}");
            if let Some((body, _)) = self.call("http.get_session", "GET", &path, "", parent, ride) {
                if !body.contains("\"offered\"") {
                    self.log
                        .tally
                        .violation(format!("ride {ride}: an open offer polled as {body}"));
                }
            }
            let path = format!("/sessions/{session}/respond");
            let decline = r#"{"decision":"decline","now":0.0}"#;
            self.call("http.post_respond", "POST", &path, decline, parent, ride);
        }
        if ride.is_multiple_of(UPDATE_EVERY) && !self.world.parked.is_empty() {
            let (vehicle, location) =
                self.world.parked[(ride / UPDATE_EVERY) as usize % self.world.parked.len()];
            let path = format!("/vehicles/{}/location", vehicle.0);
            let body = format!(r#"{{"location":{},"travelled":0.0}}"#, location.0);
            self.call("http.post_location", "POST", &path, &body, parent, ride);
            self.log.updates += 1;
        }
    }

    /// A whole ride, back to back (the closed loop).
    fn ride(&mut self, ride: u64) {
        let span = self.tracer.open("ride", Layer::Driver, None, ride);
        self.offer(ride, span.as_ref());
        self.finish(ride, span.as_ref());
        self.tracer.close(span);
    }
}

/// `(vehicle, pickup_dist, price)` of one option.
type OfferedOption = (u32, f64, f64);

/// The session id and options of a `POST /rides` answer.
fn parse_offer(body: &str) -> Result<(u64, Vec<OfferedOption>), String> {
    let json = Json::parse(body)?;
    let session = json
        .get("session")
        .and_then(Json::as_u64)
        .ok_or("no session id")?;
    let options = json
        .get("options")
        .and_then(Json::as_arr)
        .ok_or("no options array")?;
    let options = options
        .iter()
        .map(|o| {
            Some((
                o.get("vehicle").and_then(Json::as_u64)? as u32,
                o.get("pickup_dist").and_then(Json::as_f64)?,
                o.get("price").and_then(Json::as_f64)?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("an option lacks vehicle, pickup_dist or price")?;
    Ok((session, options))
}

// ---------------------------------------------------------------------
// Phase A: the closed loop
// ---------------------------------------------------------------------

/// How long the closed loop runs.
#[derive(Clone, Copy)]
enum ClosedLength {
    /// Until the time is up, rounded up to whole blocks of rides.
    Seconds(f64),
    /// Exactly this many rides.
    Rides(u64),
}

struct ClosedResult {
    rides: u64,
    wall_s: f64,
    logs: Vec<ClientLog>,
    tracers: Vec<Tracer>,
}

/// Back-to-back rides on every connection. Clients claim ride numbers
/// from one counter, so a run of `n` rides is rides `0..n` whichever
/// client took which.
fn closed_loop(
    addr: SocketAddr,
    world: &inproc::World,
    length: ClosedLength,
    block_rides: u64,
    traced: bool,
    first_ride: u64,
) -> io::Result<ClosedResult> {
    let threads = client_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut riders = (0..threads)
        .map(|_| WireRider::connect(addr, world, traced))
        .collect::<io::Result<Vec<_>>>()?;
    let next = AtomicU64::new(first_ride);
    let limit = AtomicU64::new(match length {
        ClosedLength::Seconds(_) => u64::MAX,
        ClosedLength::Rides(n) => first_ride + n,
    });
    let begin = Instant::now();
    std::thread::scope(|scope| {
        for rider in &mut riders {
            let (next, limit) = (&next, &limit);
            scope.spawn(move || loop {
                let ride = next.fetch_add(1, Ordering::Relaxed);
                if let ClosedLength::Seconds(s) = length {
                    if begin.elapsed().as_secs_f64() >= s {
                        // Time is up: finish the block this ride is in.
                        let done = ride - first_ride;
                        let whole = done.div_ceil(block_rides).max(1) * block_rides;
                        limit.fetch_min(first_ride + whole, Ordering::Relaxed);
                    }
                }
                if ride >= limit.load(Ordering::Relaxed) {
                    return;
                }
                rider.ride(ride);
            });
        }
    });
    let wall_s = begin.elapsed().as_secs_f64();
    let rides = limit.load(Ordering::Relaxed) - first_ride;
    let (logs, tracers) = riders.into_iter().map(|r| (r.log, r.tracer)).unzip();
    Ok(ClosedResult {
        rides,
        wall_s,
        logs,
        tracers,
    })
}

// ---------------------------------------------------------------------
// Phase B: the open loop
// ---------------------------------------------------------------------

/// Who serves an open-loop arrival: `offer` runs until the rider holds a
/// skyline (that instant ends the offer latency), `finish` does the rest
/// of the ride.
pub trait OpenRider: Send {
    fn offer(&mut self, arrival: u64) -> bool;
    fn finish(&mut self, arrival: u64);
}

impl OpenRider for WireRider<'_> {
    fn offer(&mut self, arrival: u64) -> bool {
        WireRider::offer(self, arrival, None)
    }
    fn finish(&mut self, arrival: u64) {
        WireRider::finish(self, arrival, None);
    }
}

/// One arrival's fate, in seconds from the start of the phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub sent_s: f64,
    /// When the rider held the skyline; `None` if the request failed.
    pub offered_s: Option<f64>,
}

/// Seeded Poisson arrivals at `rate` per second for `seconds`.
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut due = Vec::with_capacity((rate * seconds) as usize + 16);
    let mut t = rng.exponential(1.0 / rate);
    while t < seconds {
        due.push(t);
        t += rng.exponential(1.0 / rate);
    }
    due
}

/// Sends every arrival at its due time, whatever the server does: the
/// riders (one connection and one thread each) take the next arrival off
/// a shared counter, wait for its due time if it is still ahead, and send.
/// An arrival whose due time passed while every rider was busy goes out
/// late; its latency still counts from when it was due.
pub fn open_loop<R: OpenRider>(
    due_s: &[f64],
    riders: &mut [R],
    first_arrival: u64,
) -> Vec<Arrival> {
    let next = AtomicUsize::new(0);
    let begin = Instant::now();
    let mut arrivals: Vec<Arrival> = std::thread::scope(|scope| {
        let handles: Vec<_> = riders
            .iter_mut()
            .map(|rider| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = due_s.get(i) else {
                            return mine;
                        };
                        // Wait by yielding, never by sleeping: a sleeping
                        // client idles its core, and on a virtual machine
                        // the wake-up from idle costs up to milliseconds —
                        // the tail would measure the hypervisor. A yield
                        // hands the core to a server thread whenever one
                        // is runnable, so the waiting costs the server
                        // nothing it needs.
                        while begin.elapsed().as_secs_f64() < due {
                            std::thread::yield_now();
                        }
                        let sent_s = begin.elapsed().as_secs_f64();
                        let arrival = first_arrival + i as u64;
                        let offered = rider.offer(arrival);
                        let offered_s = offered.then(|| begin.elapsed().as_secs_f64());
                        rider.finish(arrival);
                        mine.push(Arrival {
                            due_s: due,
                            sent_s,
                            offered_s,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("an open-loop client panicked"))
            .collect()
    });
    arrivals.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    arrivals
}

/// What one open-loop rate showed.
#[derive(Clone, Debug)]
pub struct RateReport {
    pub rate: f64,
    pub sent: usize,
    /// Offer latencies from due time, milliseconds, ascending; a failed
    /// request has none.
    pub latency_ms: Vec<f64>,
    /// Share of the rides sent that held an offer within the SLO.
    pub in_slo: f64,
    pub lateness_p50_ms: f64,
    pub lateness_max_ms: f64,
    /// The generator fell further behind as the phase went on: the median
    /// lateness of the last quarter exceeds the first quarter's by more
    /// than a millisecond — a queue that grows, not one that drains.
    pub lateness_grew: bool,
}

impl RateReport {
    pub fn new(rate: f64, arrivals: &[Arrival]) -> RateReport {
        let mut latency_ms: Vec<f64> = arrivals
            .iter()
            .filter_map(|a| a.offered_s.map(|o| (o - a.due_s) * 1e3))
            .collect();
        latency_ms.sort_by(f64::total_cmp);
        let lateness_ms: Vec<f64> = arrivals
            .iter()
            .map(|a| (a.sent_s - a.due_s) * 1e3)
            .collect();
        let quarter = (arrivals.len() / 4).max(1).min(arrivals.len());
        let (head, tail) = (
            &lateness_ms[..quarter],
            &lateness_ms[lateness_ms.len() - quarter..],
        );
        let within = latency_ms.iter().filter(|ms| **ms <= OFFER_SLO_MS).count();
        RateReport {
            rate,
            sent: arrivals.len(),
            in_slo: ratio(within as f64, arrivals.len() as f64),
            lateness_p50_ms: if lateness_ms.is_empty() {
                0.0
            } else {
                median(&lateness_ms)
            },
            lateness_max_ms: lateness_ms.iter().copied().fold(0.0, f64::max),
            lateness_grew: !arrivals.is_empty() && median(tail) > median(head) + 1.0,
            latency_ms,
        }
    }

    /// ≥ 99 % of the rides sent held an offer within the SLO, and the
    /// generator kept up.
    pub fn meets_slo(&self) -> bool {
        self.sent > 0 && self.in_slo >= 0.99 && !self.lateness_grew
    }
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

/// A world with a server in front of it.
struct Served<'a> {
    world: inproc::World<'a>,
    server: ServerHandle,
    setup_s: f64,
}

fn serve<'a>(
    spec: &InprocSpec,
    inputs: &'a Inputs,
    opts: &RunOpts,
    tally: &mut Tally,
) -> Served<'a> {
    let t = Instant::now();
    let world = inproc::build(spec, inputs, opts, None, tally);
    let config = ServerConfig::default().with_addr("127.0.0.1:0");
    let server = Server::start(std::sync::Arc::clone(&world.service), config)
        .expect("bind an ephemeral port");
    Served {
        world,
        server,
        setup_s: t.elapsed().as_secs_f64(),
    }
}

/// What the clients' logs fold into.
struct Folded {
    /// `POST /rides` round trips in blocks of consecutive rides.
    latencies: BlockLatencies,
    /// The offers hashed in ride order at each block boundary (what the
    /// in-process twin must equal).
    block_digests: Vec<String>,
    offers: u64,
    options: u64,
    updates: u64,
}

fn fold_logs(logs: Vec<ClientLog>, block_rides: usize, tally: &mut Tally) -> Folded {
    let mut offers = Vec::new();
    let (mut options, mut updates) = (0, 0);
    for log in logs {
        tally.absorb(log.tally);
        offers.extend(log.offers);
        options += log.options;
        updates += log.updates;
    }
    offers.sort_unstable_by_key(|(ride, ..)| *ride);
    let mut digest = Digest::default();
    let mut block_digests = Vec::new();
    let mut latencies = BlockLatencies::default();
    for block in offers.chunks_exact(block_rides) {
        for (_, hash, _) in block {
            // The in-process driver folds the same hashes in the same order.
            digest.u64(*hash);
        }
        block_digests.push(digest.hex());
        latencies.push_block(block.iter().map(|(.., ms)| *ms).collect());
    }
    Folded {
        latencies,
        block_digests,
        offers: offers.len() as u64,
        options,
        updates,
    }
}

/// The closed loop as a [`Measured`], so the shared reporting applies.
fn closed_phase(
    served: &Served,
    spec: &InprocSpec,
    length: ClosedLength,
    traced: bool,
    tally: &mut Tally,
) -> (Measured, Vec<Tracer>) {
    let oracle = served.world.service.oracle();
    let (hits0, exact0) = (oracle.cache_hits(), oracle.exact_computations());
    let block_rides = spec.block_rides as u64;
    let result = closed_loop(
        served.server.addr(),
        &served.world,
        length,
        block_rides,
        traced,
        0,
    );
    let result = match tally.op("connect", result) {
        Some(result) => result,
        None => ClosedResult {
            rides: 0,
            wall_s: f64::MIN_POSITIVE,
            logs: Vec::new(),
            tracers: Vec::new(),
        },
    };
    let folded = fold_logs(result.logs, spec.block_rides, tally);
    let (hits, exact) = (
        oracle.cache_hits() - hits0,
        oracle.exact_computations() - exact0,
    );
    let measured = Measured {
        blocks: (result.rides / block_rides) as usize,
        snapshot_after: None,
        loop_s: result.wall_s,
        wall_s: result.wall_s,
        rides: result.rides,
        offers: folded.offers,
        options: folded.options,
        updates: folded.updates,
        latencies: folded.latencies,
        block_digests: folded.block_digests,
        cache_hit_ratio: ratio(hits as f64, (hits + exact) as f64),
        journal: None,
    };
    (measured, result.tracers)
}

/// The open loop: the three rates, one after the other, on fresh connections.
fn open_phase(
    served: &Served,
    opts: &RunOpts,
    seconds: f64,
    first_arrival: u64,
    tally: &mut Tally,
) -> Vec<RateReport> {
    let threads = client_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut reports = Vec::new();
    let mut first = first_arrival;
    for (k, (rate, share)) in OPEN_RATES.into_iter().zip(&PHASE_SHARES[1..]).enumerate() {
        let due = poisson_schedule(&mut schedule_rng(opts.seed, k), rate, seconds * share);
        let riders = (0..threads)
            .map(|_| WireRider::connect(served.server.addr(), &served.world, false))
            .collect::<io::Result<Vec<_>>>();
        let Some(mut riders) = tally.op("connect", riders) else {
            continue;
        };
        let arrivals = open_loop(&due, &mut riders, first);
        first += due.len() as u64;
        for rider in riders {
            tally.absorb(rider.log.tally);
        }
        reports.push(RateReport::new(rate, &arrivals));
    }
    reports
}

/// Each rate draws its arrivals from a generator of its own, so a
/// schedule does not depend on how long the other phases ran.
fn schedule_rng(seed: u64, rate_index: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x0be7_100b ^ ((rate_index as u64 + 1) << 32))
}

/// Digest of the arrival schedules (part of the inputs): the first second
/// of each rate's, whatever the run's length.
fn digest_schedules(inputs: &mut Digest, seed: u64) {
    for (k, rate) in OPEN_RATES.into_iter().enumerate() {
        for due in poisson_schedule(&mut schedule_rng(seed, k), rate, 1.0) {
            inputs.f64(due);
        }
    }
}

fn report_open(outcome: &mut Outcome, reports: &[RateReport]) {
    for r in reports {
        let pct = |p: f64| {
            if r.latency_ms.is_empty() {
                0.0
            } else {
                percentile(&r.latency_ms, p)
            }
        };
        outcome.notes.push(format!(
            "open loop {:.0}/s: {} sent, p50 {:.3} ms, p99 {:.3} ms from due; {:.2}% within {OFFER_SLO_MS} ms; \
             generator lateness p50 {:.3} ms, max {:.3} ms{}",
            r.rate,
            r.sent,
            pct(0.50),
            pct(0.99),
            r.in_slo * 100.0,
            r.lateness_p50_ms,
            r.lateness_max_ms,
            if r.lateness_grew { ", growing" } else { "" }
        ));
    }
    let in_slo = reports
        .iter()
        .filter(|r| r.meets_slo())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    outcome.metric("server.rate_in_slo", in_slo, reports.len() as u64);
    if let Some(middle) = reports.get(1).filter(|r| !r.latency_ms.is_empty()) {
        let samples = middle.latency_ms.len() as u64;
        outcome.metric(
            "server.open_p50_ms",
            percentile(&middle.latency_ms, 0.50),
            samples,
        );
        outcome.metric(
            "server.open_p99_ms",
            percentile(&middle.latency_ms, 0.99),
            samples,
        );
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let spec = spec(opts.quick);
    let mut outcome = Outcome::new(spec.name, opts);
    let inputs = generate_inputs(&spec, opts.seed);
    let mut digest = inputs.digest;
    digest_schedules(&mut digest, opts.seed);
    outcome.inputs_digest = digest.hex();

    // Set-up is measured three times (in a traced run the first is built
    // and dropped like the others here, so no measured pass is the one
    // that grows the process's heap); the last build serves.
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..if opts.traced { 2 } else { 3 } {
        if let Some(Served { mut server, .. }) = served.take() {
            server.shutdown();
        }
        let built = serve(&spec, &inputs, opts, &mut outcome.tally);
        setups.push(built.setup_s);
        served = Some(built);
    }
    let mut reference = served.expect("a served world");
    outcome.stamp_engine(&reference.world.service);

    if !opts.traced {
        let whole = ClosedLength::Seconds(opts.seconds);
        let (closed, _) = closed_phase(&reference, &spec, whole, false, &mut outcome.tally);
        reference.server.shutdown();
        end_to_end(&mut outcome, &setups, &closed, &closed.latencies);
        return outcome;
    }

    // Pass 1, the reference: the closed loop untraced, then the open loop.
    let closed_seconds = ClosedLength::Seconds(opts.seconds * PHASE_SHARES[0]);
    let (closed, _) = closed_phase(&reference, &spec, closed_seconds, false, &mut outcome.tally);
    let reports = open_phase(
        &reference,
        opts,
        opts.seconds,
        closed.rides,
        &mut outcome.tally,
    );
    reference.server.shutdown();
    let reference_world = reference.world;

    // Pass 2: the same rides, traced.
    let served = serve(&spec, &inputs, opts, &mut outcome.tally);
    setups.push(served.setup_s);
    let (traced, tracers) = closed_phase(
        &served,
        &spec,
        ClosedLength::Rides(closed.rides),
        true,
        &mut outcome.tally,
    );
    let Served {
        mut server, world, ..
    } = served;
    server.shutdown();
    drop(world);
    if traced.block_digests != closed.block_digests {
        outcome
            .tally
            .violation("the traced pass produced different offers than the reference pass".into());
    }

    // Pass 3: the in-process twin of the same rides, with the layer probe.
    let twin = inproc::build(&spec, &inputs, opts, None, &mut outcome.tally);
    setups.push(twin.setup_s);
    let mut twin_tracer = Tracer::new(true);
    let mut probe = LayerProbe::default();
    let same = Length::Blocks {
        blocks: closed.blocks,
        snapshot_after: None,
    };
    let inproc = inproc::measure(
        &spec,
        &twin,
        same,
        &mut twin_tracer,
        &mut outcome.tally,
        Some(&mut probe),
    );
    let micro = oracle_micro(&twin.service, opts.seed);
    drop(twin);
    drop(reference_world);
    if inproc.block_digests != closed.block_digests {
        outcome.tally.violation(
            "the wire returned different offers than the same requests in process".into(),
        );
    }

    end_to_end(&mut outcome, &setups, &closed, &closed.latencies);
    report_open(&mut outcome, &reports);
    let rate = |m: &Measured| m.rides as f64 / m.loop_s;
    outcome.metric("traced_rides_per_s", rate(&traced), traced.rides);
    outcome.metric(
        "trace_overhead_pct",
        (rate(&closed) - rate(&traced)) / rate(&closed) * 100.0,
        traced.rides,
    );
    outcome.metric(
        "roadnet.cache_hit_ratio",
        traced.cache_hit_ratio,
        traced.offers,
    );
    outcome.metric(
        "service.updates_per_ride",
        ratio(traced.updates as f64, traced.rides as f64),
        traced.rides,
    );

    // The budget covers every client thread's time. Measured rows: the
    // HTTP round trips (server) and the riders' own work (driver). The
    // service inside each round trip is the twin's time for the same
    // call; under it, the layer probe carves as everywhere else.
    let threads = tracers.len() as f64;
    let merged = Tracer::merge(tracers);
    let mut budget = Budget::from_spans(merged.spans(), traced.loop_s * threads);
    let twin_scale = ratio(traced.rides as f64, inproc.rides as f64);
    let mut service_s = 0.0;
    let mut service_calls = 0;
    // Every other `submit` of the twin is cold (the rest follow a probe
    // and are warm); the cold ones stand for all of them.
    let (submit_mean_s, _) = inproc::span_mean(&twin_tracer, "service.submit");
    service_s += submit_mean_s * inproc.rides as f64;
    service_calls += inproc.rides;
    for name in [
        "service.session_state",
        "service.respond.decline",
        "service.location_update",
    ] {
        let (mean_s, n) = inproc::span_mean(&twin_tracer, name);
        service_s += mean_s * n as f64;
        service_calls += n;
    }
    budget.carve(
        Layer::Server,
        Layer::Service,
        (service_calls as f64 * twin_scale).round() as u64,
        service_s * twin_scale,
    );
    let submit_s = submit_mean_s * inproc.rides as f64 * twin_scale;
    apply_layers(
        &mut outcome,
        &mut budget,
        &probe,
        traced.rides,
        submit_s,
        &micro,
    );
    // The same request, over the wire and in process (the twin's cold
    // submits): what is left is the server's.
    let (post_us, posts) = span_median_us(&merged, &["http.post_rides"]);
    let (submit_us, _) = span_median_us(&twin_tracer, &["service.submit"]);
    outcome.metric("server.self_ms", (post_us - submit_us) / 1e3, posts);
    let (poll_us, polls) = span_median_us(&merged, &["http.get_session"]);
    outcome.metric("server.poll_us", poll_us, polls);
    let (respond_us, responds) = span_median_us(&twin_tracer, &["service.respond.decline"]);
    outcome.metric("service.respond_us", respond_us, responds);
    let (update_us, updates) = span_median_us(&twin_tracer, &["service.location_update"]);
    outcome.metric("service.update_us", update_us, updates);
    outcome.metric("driver.share", budget.share(Layer::Driver), traced.rides);
    outcome.budget = Some(budget);
    outcome.spans = Some(merged);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn never_more_clients_than_cores_and_never_more_than_two() {
        assert_eq!(client_threads(1), 1);
        assert_eq!(client_threads(2), 2);
        assert_eq!(client_threads(64), 2);
        assert_eq!(client_threads(0), 1);
        for nproc in 1..=8 {
            assert!(client_threads(nproc) <= nproc);
        }
    }

    #[test]
    fn poisson_schedules_are_seeded_sorted_and_at_rate() {
        let make = |seed| poisson_schedule(&mut SplitMix64::new(seed), 1000.0, 4.0);
        assert_eq!(make(1), make(1));
        assert_ne!(make(1), make(2));
        let due = make(1);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|t| (0.0..4.0).contains(t)));
        assert!(
            (due.len() as f64 - 4000.0).abs() < 250.0,
            "{} arrivals",
            due.len()
        );
    }

    /// A rider whose offers take a fixed time, recording who served what.
    struct FakeRider<'a> {
        service: Duration,
        fail_every: Option<u64>,
        served: &'a Mutex<Vec<(u64, std::thread::ThreadId)>>,
    }

    impl OpenRider for FakeRider<'_> {
        fn offer(&mut self, arrival: u64) -> bool {
            std::thread::sleep(self.service);
            self.served
                .lock()
                .unwrap()
                .push((arrival, std::thread::current().id()));
            self.fail_every.is_none_or(|n| !arrival.is_multiple_of(n))
        }
        fn finish(&mut self, _arrival: u64) {}
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // One rider, 20 ms per offer, four arrivals due together at t=0:
        // they leave 0, 20, 40, 60 ms late, and each latency counts the
        // wait since it was due — not just its own 20 ms of service.
        let served = Mutex::new(Vec::new());
        let mut riders = [FakeRider {
            service: Duration::from_millis(20),
            fail_every: None,
            served: &served,
        }];
        let arrivals = open_loop(&[0.0, 0.0, 0.0, 0.0], &mut riders, 100);
        assert_eq!(arrivals.len(), 4);
        let mut latency: Vec<f64> = arrivals
            .iter()
            .map(|a| (a.offered_s.unwrap() - a.due_s) * 1e3)
            .collect();
        latency.sort_by(f64::total_cmp);
        for (i, ms) in latency.iter().enumerate() {
            let least = 20.0 * (i + 1) as f64;
            assert!(
                *ms >= least && *ms < least + 15.0,
                "arrival {i} took {ms} ms from due"
            );
        }
        let mut lateness: Vec<f64> = arrivals
            .iter()
            .map(|a| (a.sent_s - a.due_s) * 1e3)
            .collect();
        lateness.sort_by(f64::total_cmp);
        assert!(
            lateness[0] < 5.0 && lateness[3] >= 60.0,
            "lateness {lateness:?}"
        );
        let ids: Vec<u64> = served.lock().unwrap().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [100, 101, 102, 103]);

        let report = RateReport::new(50.0, &arrivals);
        assert_eq!(report.sent, 4);
        assert!(report.lateness_grew, "a backlog that only grows is flagged");
        assert!(!report.meets_slo());
    }

    #[test]
    fn open_loop_waits_for_due_times_and_uses_every_rider_once() {
        let served = Mutex::new(Vec::new());
        let mut riders = [
            FakeRider {
                service: Duration::from_millis(1),
                fail_every: Some(5),
                served: &served,
            },
            FakeRider {
                service: Duration::from_millis(1),
                fail_every: Some(5),
                served: &served,
            },
        ];
        let due: Vec<f64> = (0..20).map(|i| f64::from(i) * 0.005).collect();
        let arrivals = open_loop(&due, &mut riders, 0);
        assert_eq!(arrivals.len(), 20);
        for a in &arrivals {
            assert!(a.sent_s >= a.due_s, "nothing is sent before it is due");
            assert!(
                a.sent_s - a.due_s < 0.004,
                "an idle generator is on time: {a:?}"
            );
        }
        let failed = arrivals.iter().filter(|a| a.offered_s.is_none()).count();
        assert_eq!(failed, 4, "arrivals 0, 5, 10 and 15 fail");
        let threads: std::collections::HashSet<_> =
            served.lock().unwrap().iter().map(|(_, t)| *t).collect();
        assert!(
            threads.len() <= riders.len(),
            "no more sending threads than riders"
        );

        let report = RateReport::new(200.0, &arrivals);
        assert!(!report.lateness_grew);
        assert!(
            (report.in_slo - 0.8).abs() < 1e-9,
            "a failed request misses the SLO"
        );
        assert!(!report.meets_slo());
        let all_good: Vec<Arrival> = arrivals
            .iter()
            .map(|a| Arrival {
                offered_s: Some(a.sent_s + 0.001),
                ..*a
            })
            .collect();
        assert!(RateReport::new(200.0, &all_good).meets_slo());
    }

    #[test]
    fn offers_parse_into_digestable_options() {
        let body = r#"{"session":4,"request":9,"expires_at":300,"options":[{"id":0,"vehicle":17,"pickup_secs":12.5,"pickup_dist":166.7,"price":3.25,"detour_dist":0}]}"#;
        assert_eq!(parse_offer(body).unwrap(), (4, vec![(17, 166.7, 3.25)]));
        assert!(parse_offer(r#"{"session":4}"#).is_err());
        assert!(parse_offer(r#"{"session":4,"options":[{"vehicle":1}]}"#).is_err());
        assert!(parse_offer("not json").is_err());
    }
}
