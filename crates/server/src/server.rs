//! The listener, connection loops, backpressure, and graceful shutdown.
//!
//! Threading model (see DESIGN.md "Network front door"):
//!
//! * one acceptor thread owns the listener;
//! * each accepted connection gets its own small-stack thread running a
//!   keep-alive loop (parse → handle → respond);
//! * handler *execution* is bounded separately by a semaphore of
//!   [`crate::ServerConfig::threads`] permits — connections past that
//!   queue inside their own thread, so the kernel socket buffers (and
//!   eventually the connection cap) provide the backpressure;
//! * connections past [`crate::ServerConfig::max_conns`] are shed on the
//!   accept path with `503` + `Retry-After` before any thread is spawned.
//!
//! Shutdown drains: stop accepting, close the read side of every open
//! connection (in-flight responses still write), wait for the loops to
//! exit (bounded by `drain_timeout`), then flush the admission journal
//! with [`RideService::sync_journal`] so a restart recovers everything
//! the server acknowledged.

use crate::config::ServerConfig;
use crate::http::{self, ConnReader, HttpRequest, ReadLimits, ReadOutcome, Response};
use crate::router::{self, parse_hex_id, Endpoint, Handled};
use crate::sse;
use ptrider_core::{
    Counter, Gauge, Histogram, PromWriter, RideService, Stage, Telemetry, TraceContext,
};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Stack size for connection threads: the handlers call into the engine,
/// whose deep recursion lives on the worker pool, not here.
const CONN_STACK: usize = 256 * 1024;

/// Budget for writing one response (including one SSE frame); a consumer
/// slower than this is disconnected.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// `Retry-After` seconds advertised on the `503` shed path.
const RETRY_AFTER_SECS: u32 = 1;

/// Largest accepted request body; larger bodies get `413`.
const MAX_BODY_BYTES: usize = 64 * 1024;

/// Largest accepted request head (request line + headers); larger heads
/// get `431`.
const MAX_HEADER_BYTES: usize = 8 * 1024;

/// A counting semaphore bounding concurrent handler execution.
struct Semaphore {
    permits: Mutex<usize>,
    available: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits),
            available: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut permits = self.permits.lock().unwrap_or_else(|p| p.into_inner());
        while *permits == 0 {
            permits = self
                .available
                .wait(permits)
                .unwrap_or_else(|p| p.into_inner());
        }
        *permits -= 1;
    }

    fn release(&self) {
        let mut permits = self.permits.lock().unwrap_or_else(|p| p.into_inner());
        *permits += 1;
        drop(permits);
        self.available.notify_one();
    }
}

/// The server's own instrumentation: counters and gauges registered on
/// the service's [`Telemetry`] hub (so they ride along in
/// `metrics_text`'s `ptrider_server_*` section), plus per-endpoint
/// latency histograms rendered into the `/metrics` response.
///
/// [`Telemetry`]: ptrider_core::Telemetry
struct ServerMetrics {
    accepted: Arc<Counter>,
    shed: Arc<Counter>,
    requests: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    open_conns: Arc<Gauge>,
    inflight: Arc<Gauge>,
    endpoints: Vec<(Endpoint, Histogram)>,
}

impl ServerMetrics {
    fn new(service: &RideService) -> ServerMetrics {
        let t = service.telemetry();
        ServerMetrics {
            accepted: t.counter("server_connections_accepted"),
            shed: t.counter("server_connections_shed"),
            requests: t.counter("server_requests"),
            protocol_errors: t.counter("server_protocol_errors"),
            open_conns: t.gauge("server_connections_open"),
            inflight: t.gauge("server_inflight_requests"),
            endpoints: Endpoint::ALL
                .iter()
                .map(|e| (*e, Histogram::new()))
                .collect(),
        }
    }

    fn record(&self, endpoint: Endpoint, elapsed: Duration) {
        if let Some((_, hist)) = self.endpoints.iter().find(|(e, _)| *e == endpoint) {
            hist.record(elapsed.as_nanos() as u64);
        }
    }

    /// The server-side suffix of `/metrics`: one latency histogram per
    /// endpoint, in seconds.
    fn render(&self) -> String {
        let mut w = PromWriter::new();
        for (endpoint, hist) in &self.endpoints {
            let snap = hist.snapshot();
            if snap.count() == 0 {
                continue;
            }
            w.histogram(
                &format!("ptrider_server_{}_latency_seconds", endpoint.name()),
                "Endpoint handling latency in seconds.",
                &snap,
                1e-9,
            );
        }
        w.finish()
    }
}

struct Shared {
    service: Arc<RideService>,
    config: ServerConfig,
    shutdown: AtomicBool,
    open: AtomicUsize,
    inflight: AtomicUsize,
    next_conn_id: AtomicU64,
    /// Mints `X-Request-Id` values when tracing is off (the engine's
    /// telemetry is not allocating trace ids, but every response still
    /// echoes a correlation id).
    next_fallback_trace: AtomicU64,
    handler_permits: Semaphore,
    metrics: ServerMetrics,
    /// Read-side clones of every open connection, so shutdown can force
    /// idle keep-alive loops to wake.
    registry: Mutex<HashMap<u64, TcpStream>>,
    /// Count of live connection threads + the condvar shutdown waits on.
    live: Mutex<usize>,
    drained: Condvar,
    started: Instant,
}

impl Shared {
    fn now_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn limits(&self) -> ReadLimits {
        ReadLimits {
            max_head: MAX_HEADER_BYTES,
            max_body: MAX_BODY_BYTES,
            read_timeout: self.config.read_timeout,
            idle_timeout: self.config.idle_timeout,
        }
    }
}

/// The PTRider HTTP front door. Construct with [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts accepting. The returned handle
    /// reports the bound address (useful with port `0`) and shuts the
    /// server down when asked — or on drop.
    pub fn start(service: Arc<RideService>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = ServerMetrics::new(&service);
        let shared = Arc::new(Shared {
            handler_permits: Semaphore::new(config.threads),
            metrics,
            service,
            config,
            shutdown: AtomicBool::new(false),
            open: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(0),
            next_fallback_trace: AtomicU64::new(1),
            registry: Mutex::new(HashMap::new()),
            live: Mutex::new(0),
            drained: Condvar::new(),
            started: Instant::now(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ptrider-http-accept".to_string())
                .spawn(move || accept_loop(&shared, listener))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

/// A running server: its address and the shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight requests (bounded by
    /// [`ServerConfig::drain_timeout`]), and flushes the admission
    /// journal. Idempotent. Returns `true` when every connection exited
    /// within the drain budget.
    pub fn shutdown(&mut self) -> bool {
        let shared = &self.shared;
        if shared.shutdown.swap(true, Ordering::AcqRel) {
            return true;
        }
        // Wake the acceptor: it is blocked in accept(2), so poke it with
        // a throwaway connection (a failure means it is already awake).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Close the read side of every open connection: idle keep-alive
        // loops wake with EOF and exit; in-flight handlers still hold the
        // write side and finish their response.
        {
            let registry = shared.registry.lock().unwrap_or_else(|p| p.into_inner());
            for stream in registry.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        let deadline = Instant::now() + shared.config.drain_timeout;
        let mut live = shared.live.lock().unwrap_or_else(|p| p.into_inner());
        let drained = loop {
            if *live == 0 {
                break true;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break false;
            }
            let (guard, _) = shared
                .drained
                .wait_timeout(live, remaining)
                .unwrap_or_else(|p| p.into_inner());
            live = guard;
        };
        drop(live);
        // Everything the server acknowledged is on disk before we return.
        shared.service.sync_journal();
        shared.metrics.open_conns.set(0.0);
        shared.metrics.inflight.set(0.0);
        drained
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let _span = shared.service.telemetry().span(Stage::ServerAccept);
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared.metrics.accepted.inc();
        let open = shared.open.load(Ordering::Acquire);
        if open >= shared.config.max_conns {
            shed(shared, &stream);
            continue;
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared
                .registry
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(id, clone);
        }
        let open = shared.open.fetch_add(1, Ordering::AcqRel) + 1;
        shared.metrics.open_conns.set(open as f64);
        *shared.live.lock().unwrap_or_else(|p| p.into_inner()) += 1;
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("ptrider-http-conn".to_string())
            .stack_size(CONN_STACK)
            .spawn(move || {
                conn_loop(&conn_shared, &stream);
                conn_exit(&conn_shared, id);
            });
        if spawned.is_err() {
            // Thread exhaustion is a shed, not a hang.
            conn_exit(shared, id);
            shared.metrics.shed.inc();
        }
    }
}

/// One request's wire trace identity: the id echoed to the client and
/// the engine context (when tracing is on) that everything downstream of
/// the `server.handle` root span records under.
#[derive(Clone, Copy)]
struct RequestTrace {
    /// Echoed as `x-request-id` (and the trace-id half of `traceparent`).
    trace_id: u64,
    /// The engine's live context; `None` when tracing is off — the
    /// header is still echoed, spans are not recorded.
    ctx: Option<TraceContext>,
}

/// Parses an inbound `traceparent` (W3C: `00-{32hex}-{16hex}-{2hex}`),
/// keeping the low 64 bits of the trace id (the engine's native width).
fn parse_traceparent(value: &str) -> Option<(u64, u64)> {
    let mut parts = value.trim().split('-');
    let (version, trace, span, _flags) =
        (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    if version.len() != 2 || trace.len() != 32 || span.len() != 16 {
        return None;
    }
    let trace_id = u64::from_str_radix(&trace[16..], 16).ok()?;
    let parent_span = u64::from_str_radix(span, 16).ok()?;
    (trace_id != 0).then_some((trace_id, parent_span))
}

/// The inbound trace identity, when the client sent one: `traceparent`
/// wins over `X-Request-Id` (which carries no parent span id).
fn inbound_trace(req: &HttpRequest) -> Option<(u64, u64)> {
    if let Some(ids) = req.header("traceparent").and_then(parse_traceparent) {
        return Some(ids);
    }
    parse_hex_id(req.header("x-request-id")?).map(|id| (id, 0))
}

/// Resolves the request's trace identity: adopt the inbound one, else
/// mint — through the telemetry hub when tracing is on (so the id is
/// unique among stored traces), else from the server's fallback counter
/// (correlation only). `req` is `None` on paths that respond before a
/// request could be parsed (shed, protocol errors).
fn request_trace(
    telemetry: &Telemetry,
    req: Option<&HttpRequest>,
    fallback: &AtomicU64,
) -> RequestTrace {
    if let Some((trace_id, parent_span)) = req.and_then(inbound_trace) {
        return RequestTrace {
            trace_id,
            ctx: telemetry.adopt_trace(trace_id, parent_span),
        };
    }
    match telemetry.new_trace() {
        Some(ctx) => RequestTrace {
            trace_id: ctx.trace_id,
            ctx: Some(ctx),
        },
        None => RequestTrace {
            trace_id: fallback.fetch_add(1, Ordering::Relaxed),
            ctx: None,
        },
    }
}

/// Stamps the response with the request's correlation headers:
/// `x-request-id` on every response, plus a `traceparent` naming the
/// root span when the request was actually traced (so the header is
/// never emitted with an invalid all-zero parent id).
fn echo_trace(resp: Response, rt: RequestTrace, root_span: u64) -> Response {
    let resp = resp.with_header("x-request-id", format!("{:016x}", rt.trace_id));
    if rt.ctx.is_some() && root_span != 0 {
        resp.with_header(
            "traceparent",
            format!("00-{:032x}-{:016x}-01", rt.trace_id, root_span),
        )
    } else {
        resp
    }
}

/// The 503 + `Retry-After` shed path: never blocks, never spawns. Runs
/// before any request is read, so the correlation id is always minted.
fn shed(shared: &Shared, stream: &TcpStream) {
    shared.metrics.shed.inc();
    let rt = request_trace(
        shared.service.telemetry(),
        None,
        &shared.next_fallback_trace,
    );
    let resp = Response::error(503, "connection limit reached")
        .with_header("retry-after", RETRY_AFTER_SECS.to_string());
    let resp = echo_trace(resp, rt, 0);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = http::write_response(stream, &resp, false);
    let _ = stream.shutdown(Shutdown::Both);
}

fn conn_exit(shared: &Shared, id: u64) {
    shared
        .registry
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&id);
    let open = shared.open.fetch_sub(1, Ordering::AcqRel) - 1;
    shared.metrics.open_conns.set(open as f64);
    let mut live = shared.live.lock().unwrap_or_else(|p| p.into_inner());
    *live -= 1;
    if *live == 0 {
        shared.drained.notify_all();
    }
}

fn conn_loop(shared: &Arc<Shared>, stream: &TcpStream) {
    let telemetry = shared.service.telemetry();
    let mut reader = ConnReader::new(stream);
    let limits = shared.limits();
    loop {
        let outcome = {
            let _span = telemetry.span(Stage::ServerRead);
            reader.read_request(&limits)
        };
        let req = match outcome {
            ReadOutcome::Request(req) => req,
            ReadOutcome::Closed => return,
            ReadOutcome::Bad(e) => {
                shared.metrics.protocol_errors.inc();
                // Even a protocol failure echoes a correlation id (the
                // request may be unparsable, so the id is minted).
                let rt = request_trace(telemetry, None, &shared.next_fallback_trace);
                let resp = echo_trace(Response::error(e.status, &e.message), rt, 0);
                let _span = telemetry.span(Stage::ServerWrite);
                let _ = http::write_response(stream, &resp, false);
                return;
            }
        };
        shared.metrics.requests.inc();
        let rt = request_trace(telemetry, Some(&req), &shared.next_fallback_trace);
        let handle_started = Instant::now();
        let (handled, endpoint, root_span) = {
            shared.handler_permits.acquire();
            let inflight = shared.inflight.fetch_add(1, Ordering::AcqRel) + 1;
            shared.metrics.inflight.set(inflight as f64);
            // The traced root: the router threads this span's context
            // into the service, so the whole request hangs off it.
            let span = telemetry.span_in(Stage::ServerHandle, rt.ctx);
            let ctx = span.context();
            let suffix = || shared.metrics.render();
            let (handled, endpoint) =
                router::handle(&shared.service, &req, shared.now_secs(), &suffix, ctx);
            let inflight = shared.inflight.fetch_sub(1, Ordering::AcqRel) - 1;
            shared.metrics.inflight.set(inflight as f64);
            shared.handler_permits.release();
            (handled, endpoint, ctx.map_or(0, |c| c.span_id))
        };
        match handled {
            Handled::Respond(resp) => {
                shared.metrics.record(endpoint, handle_started.elapsed());
                let resp = echo_trace(resp, rt, root_span);
                let keep_alive = req.keep_alive() && !shared.shutdown.load(Ordering::Acquire);
                let wrote = {
                    let _span = telemetry.span(Stage::ServerWrite);
                    http::write_response(stream, &resp, keep_alive)
                };
                if wrote.is_err() || !keep_alive {
                    return;
                }
            }
            Handled::Sse(params) => {
                // The stream takes over the connection; it never
                // keep-alives (framing is open-ended).
                let _ = sse::stream(
                    &shared.service,
                    stream,
                    &params,
                    shared.config.sse_poll,
                    &shared.shutdown,
                    rt.trace_id,
                );
                shared.metrics.record(endpoint, handle_started.elapsed());
                return;
            }
        }
    }
}
