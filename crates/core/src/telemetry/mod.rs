//! In-repo telemetry: atomic counters, gauges, log-scale-bucketed latency
//! histograms, scoped spans, request-scoped trace trees and Prometheus
//! exemplars — the runtime observability substrate behind
//! [`crate::RideService::metrics_text`].
//!
//! Vendored offline builds preclude `tracing`/`prometheus`, so the whole
//! registry lives here with zero dependencies. Design constraints:
//!
//! * **Lock-free hot path.** Recording a counter increment or a histogram
//!   sample is a handful of `Relaxed` atomic RMWs; no mutex is ever taken
//!   while recording a sample. The only locked telemetry structure is the
//!   trace store, touched once per completed *span* (not per sample) and
//!   only when tracing is configured.
//! * **The disabled path is a branch.** Every instrumentation site first
//!   checks a plain `bool` captured at engine construction; with
//!   `PTRIDER_TELEMETRY=off` no clock is read and no atomic is touched.
//! * **Exact-enough percentiles.** Histograms use HDR-style log-linear
//!   buckets — 32 linear sub-buckets per power of two — so any reported
//!   p50/p90/p99 overestimates the exact sorted-sample percentile by at
//!   most 1/32 ≈ 3.125% (values below 32 are exact). This bound is
//!   property-tested against exact references.
//!
//! Two levels ([`TelemetryLevel`], env `PTRIDER_TELEMETRY=off|spans`):
//! `off` (the default) times nothing, `spans` times pipeline stages
//! ([`Stage`]) into per-stage histograms and — when a trace capacity is
//! configured (env
//! `PTRIDER_TRACE_CAPACITY`, in spans, default 4096; 0 disables tracing
//! while keeping stage histograms) — records request-scoped
//! [`TraceEvent`]s into the bounded [`trace`] store, one map of traces
//! from which the span dump, parent/child span trees and the
//! slowest-request log are served.
//!
//! The module splits by concern: [`histogram`] (bucket math, exemplar
//! slots), [`trace`] (context propagation and the span store), [`prom`]
//! (text exposition), with the [`Telemetry`] hub, levels and spans here
//! at the root.

pub mod histogram;
pub mod prom;
pub mod trace;

pub use histogram::{Exemplar, Histogram, HistogramSnapshot};
pub use prom::PromWriter;
pub use trace::{SlowEntry, SpanNode, TraceContext, TraceEvent, TraceTree};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::TraceStore;

// ---------------------------------------------------------------------------
// Levels and configuration
// ---------------------------------------------------------------------------

/// How much the engine records at runtime. The named counters and gauges
/// of the registry record at every level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TelemetryLevel {
    /// Time nothing; every instrumentation site reduces to a branch.
    Off,
    /// Per-stage latency histograms and (with a non-zero trace capacity)
    /// request-scoped tracing.
    Spans,
}

impl TelemetryLevel {
    /// Parses the `PTRIDER_TELEMETRY` value: `spans` (any case) is
    /// [`TelemetryLevel::Spans`], anything else [`TelemetryLevel::Off`].
    pub fn parse(s: &str) -> TelemetryLevel {
        if s.trim().eq_ignore_ascii_case("spans") {
            TelemetryLevel::Spans
        } else {
            TelemetryLevel::Off
        }
    }
}

impl std::fmt::Display for TelemetryLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Spans => "spans",
        })
    }
}

/// Default trace-store capacity when tracing is enabled.
const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Telemetry configuration, fixed at engine construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Recording level.
    pub level: TelemetryLevel,
    /// Spans the trace store holds (0 disables tracing — the span dump,
    /// the trace trees and the slow log). Only consulted at the `Spans`
    /// level.
    pub trace_capacity: usize,
}

impl TelemetryConfig {
    /// Reads `PTRIDER_TELEMETRY` and `PTRIDER_TRACE_CAPACITY` from the
    /// environment **at call time** (no once-cache, so A/B harnesses can
    /// flip the variables between engine constructions in one process).
    /// Unset defaults to `off` with the default trace capacity.
    pub fn from_env() -> TelemetryConfig {
        let level = std::env::var("PTRIDER_TELEMETRY")
            .map(|v| TelemetryLevel::parse(&v))
            .unwrap_or(TelemetryLevel::Off);
        let trace_capacity = std::env::var("PTRIDER_TRACE_CAPACITY")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_TRACE_CAPACITY);
        TelemetryConfig {
            level,
            trace_capacity,
        }
    }

    /// A fully disabled configuration.
    pub fn off() -> TelemetryConfig {
        TelemetryConfig {
            level: TelemetryLevel::Off,
            trace_capacity: 0,
        }
    }

    /// Full instrumentation: per-stage histograms and request tracing at
    /// the default capacity.
    pub fn spans() -> TelemetryConfig {
        TelemetryConfig {
            level: TelemetryLevel::Spans,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::from_env()
    }
}

// ---------------------------------------------------------------------------
// Primitives: counter, gauge
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge reading 0.0.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

// ---------------------------------------------------------------------------
// Stages and spans
// ---------------------------------------------------------------------------

/// The instrumented pipeline stages. Each owns one latency histogram
/// (nanoseconds) inside [`Telemetry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// `RideService::submit` end to end (validate → match → offer).
    ServiceSubmit,
    /// `RideService::respond` end to end.
    ServiceRespond,
    /// `RideService::tick` (expiry sweep + auto snapshot).
    ServiceTick,
    /// Time waiting to acquire the world **write** lock on the single
    /// admission writer path — the ROADMAP's lock-bottleneck probe.
    ServiceLockWait,
    /// Matcher: candidate extraction (grid-cell walk + index iteration).
    MatchCandidates,
    /// Matcher: lower-bound pruning checks (P1–P5).
    MatchPrune,
    /// Matcher: exact verification (kinetic-tree insertion enumeration,
    /// including the per-candidate skyline offers).
    MatchVerify,
    /// Matcher: final skyline merge and sort into the option list.
    MatchSkyline,
    /// `Journal::append` (encode + buffered write + publish).
    JournalAppend,
    /// One background group-commit `fsync` (`sync_data`).
    JournalFsync,
    /// Writing one journal snapshot.
    JournalSnapshot,
    /// HTTP server: one `accept` round-trip on the listener, including
    /// the connection-cap admission decision.
    ServerAccept,
    /// HTTP server: reading one request head + body off a connection.
    ServerRead,
    /// HTTP server: dispatching one parsed request through the router
    /// into `RideService`.
    ServerHandle,
    /// HTTP server: serialising and writing one response.
    ServerWrite,
}

impl Stage {
    /// Every stage, in exposition order.
    pub const ALL: [Stage; 15] = [
        Stage::ServiceSubmit,
        Stage::ServiceRespond,
        Stage::ServiceTick,
        Stage::ServiceLockWait,
        Stage::MatchCandidates,
        Stage::MatchPrune,
        Stage::MatchVerify,
        Stage::MatchSkyline,
        Stage::JournalAppend,
        Stage::JournalFsync,
        Stage::JournalSnapshot,
        Stage::ServerAccept,
        Stage::ServerRead,
        Stage::ServerHandle,
        Stage::ServerWrite,
    ];

    /// The stage's dotted span name (`"match.verify"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ServiceSubmit => "service.submit",
            Stage::ServiceRespond => "service.respond",
            Stage::ServiceTick => "service.tick",
            Stage::ServiceLockWait => "service.lock_wait",
            Stage::MatchCandidates => "match.candidates",
            Stage::MatchPrune => "match.prune",
            Stage::MatchVerify => "match.verify",
            Stage::MatchSkyline => "match.skyline",
            Stage::JournalAppend => "journal.append",
            Stage::JournalFsync => "journal.fsync",
            Stage::JournalSnapshot => "journal.snapshot",
            Stage::ServerAccept => "server.accept",
            Stage::ServerRead => "server.read",
            Stage::ServerHandle => "server.handle",
            Stage::ServerWrite => "server.write",
        }
    }
}

/// A scoped timing guard: created by [`Telemetry::span`] or
/// [`Telemetry::span_in`], records its elapsed time into the stage's
/// histogram — and, when it belongs to a trace, a [`TraceEvent`] — on
/// drop.
///
/// When spans are disabled the guard is inert: no clock is read.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

struct SpanInner<'a> {
    telemetry: &'a Telemetry,
    stage: Stage,
    request: u64,
    start: Instant,
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
}

impl<'a> Span<'a> {
    /// Tags the span with an engine request id (shows up in its
    /// [`TraceEvent`]).
    pub fn with_request(mut self, request: u64) -> Span<'a> {
        if let Some(inner) = &mut self.inner {
            inner.request = request;
        }
        self
    }

    /// The context child spans should inherit: this span's trace with this
    /// span as the parent. `None` when the span is inert or untraced.
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().and_then(|i| {
            (i.trace_id != 0).then_some(TraceContext {
                trace_id: i.trace_id,
                span_id: i.span_id,
            })
        })
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let nanos = inner.start.elapsed().as_nanos() as u64;
            inner.telemetry.finish_span(&inner, nanos);
        }
    }
}

// ---------------------------------------------------------------------------
// The per-engine telemetry hub
// ---------------------------------------------------------------------------

/// The per-engine telemetry hub: one latency histogram per [`Stage`], an
/// optional trace store and a registry of named counters and gauges that other layers (the event log's per-cursor loss
/// counters, for instance) can hook metrics into.
///
/// One `Telemetry` is created per engine (`EngineShared`) and shared by
/// every layer via `Arc`; all recording methods take `&self` and all
/// per-sample paths are lock-free.
pub struct Telemetry {
    config: TelemetryConfig,
    origin: Instant,
    stages: Vec<Arc<Histogram>>,
    store: Option<TraceStore>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
}

impl Telemetry {
    /// Builds a hub for the given configuration.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        let stages = Stage::ALL
            .iter()
            .map(|_| Arc::new(Histogram::new()))
            .collect();
        let store = (config.level == TelemetryLevel::Spans && config.trace_capacity > 0)
            .then(|| TraceStore::new(config.trace_capacity));
        Telemetry {
            config,
            origin: Instant::now(),
            stages,
            store,
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
        }
    }

    /// A fully disabled hub.
    pub fn disabled() -> Telemetry {
        Telemetry::new(TelemetryConfig::off())
    }

    /// The active configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// The active level.
    pub fn level(&self) -> TelemetryLevel {
        self.config.level
    }

    /// Whether span timing records. This is the branch every hot
    /// instrumentation site takes first; with spans off no clock is read.
    #[inline]
    pub fn spans_enabled(&self) -> bool {
        self.config.level == TelemetryLevel::Spans
    }

    /// Whether request-scoped tracing is active (`Spans` level and a
    /// non-zero trace capacity).
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.store.is_some()
    }

    /// Mints a fresh trace context (trace id, no parent span) — the root
    /// identity a request carries through the pipeline. `None` unless
    /// tracing is active, so callers thread `Option<TraceContext>` and the
    /// disabled path stays a branch.
    pub fn new_trace(&self) -> Option<TraceContext> {
        self.store.as_ref()?;
        Some(TraceContext {
            trace_id: self.next_trace.fetch_add(1, Ordering::Relaxed),
            span_id: 0,
        })
    }

    /// Adopts an inbound trace identity (from a `traceparent` header):
    /// spans recorded under it keep the caller's trace id and hang off
    /// `parent_span` (a remote id that resolves to a tree root locally).
    /// Falls back to minting when `trace_id` is 0; `None` unless tracing
    /// is active.
    pub fn adopt_trace(&self, trace_id: u64, parent_span: u64) -> Option<TraceContext> {
        if trace_id == 0 {
            return self.new_trace();
        }
        self.store.as_ref()?;
        Some(TraceContext {
            trace_id,
            span_id: parent_span,
        })
    }

    fn alloc_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts a span for `stage` (inert unless spans are enabled). The
    /// span records into the stage histogram but joins no trace.
    #[inline]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        self.span_in(stage, None)
    }

    /// Starts a span for `stage` inside `parent`'s trace: the span gets a
    /// fresh span id, its [`Span::context`] hands that id to children, and
    /// its [`TraceEvent`] lands in the per-trace store on drop. With
    /// `parent == None` (or tracing inactive) this is [`Telemetry::span`].
    pub fn span_in(&self, stage: Stage, parent: Option<TraceContext>) -> Span<'_> {
        if !self.spans_enabled() {
            return Span { inner: None };
        }
        let (trace_id, parent_span_id, span_id) = match parent {
            Some(ctx) if ctx.trace_id != 0 && self.store.is_some() => {
                (ctx.trace_id, ctx.span_id, self.alloc_span_id())
            }
            _ => (0, 0, 0),
        };
        Span {
            inner: Some(SpanInner {
                telemetry: self,
                stage,
                request: 0,
                start: Instant::now(),
                trace_id,
                span_id,
                parent_span_id,
            }),
        }
    }

    fn finish_span(&self, inner: &SpanInner<'_>, nanos: u64) {
        self.stages[inner.stage as usize].record_traced(nanos, inner.trace_id);
        if inner.trace_id == 0 {
            return;
        }
        if let Some(store) = &self.store {
            let start_us = inner.start.duration_since(self.origin).as_micros() as u64;
            store.push(TraceEvent {
                start_us,
                duration_ns: nanos,
                stage: inner.stage,
                request: inner.request,
                trace_id: inner.trace_id,
                span_id: inner.span_id,
                parent_span_id: inner.parent_span_id,
            });
        }
    }

    /// Records an externally measured duration for `stage` (used by the
    /// matchers, which accumulate per-stage nanoseconds across a request
    /// and record once). No-op unless spans are enabled.
    #[inline]
    pub fn record_stage(&self, stage: Stage, nanos: u64) {
        if self.spans_enabled() {
            self.stages[stage as usize].record(nanos);
        }
    }

    /// Like [`Telemetry::record_stage`], but when `ctx` carries a live
    /// trace the duration also lands in the trace store as a child span of
    /// `ctx` (the start time is back-dated by `nanos`, since accumulated
    /// stages only know their total on completion).
    pub fn record_stage_in(
        &self,
        stage: Stage,
        nanos: u64,
        ctx: Option<TraceContext>,
        request: u64,
    ) {
        if !self.spans_enabled() {
            return;
        }
        match (ctx, &self.store) {
            (Some(c), Some(store)) if c.trace_id != 0 => {
                self.stages[stage as usize].record_traced(nanos, c.trace_id);
                let end_us = self.origin.elapsed().as_micros() as u64;
                store.push(TraceEvent {
                    start_us: end_us.saturating_sub(nanos / 1_000),
                    duration_ns: nanos,
                    stage,
                    request,
                    trace_id: c.trace_id,
                    span_id: self.alloc_span_id(),
                    parent_span_id: c.span_id,
                });
            }
            _ => self.stages[stage as usize].record(nanos),
        }
    }

    /// Pushes a span into the trace store **without** touching the stage
    /// histogram — for layers that already record their own histogram (the
    /// journal's append timing) but whose tree attribution is known only
    /// to the caller. No-op when `ctx` is untraced or tracing is off.
    pub fn trace_only(
        &self,
        stage: Stage,
        start: Instant,
        nanos: u64,
        ctx: TraceContext,
        request: u64,
    ) {
        if ctx.trace_id == 0 {
            return;
        }
        if let Some(store) = &self.store {
            let start_us = start.saturating_duration_since(self.origin).as_micros() as u64;
            store.push(TraceEvent {
                start_us,
                duration_ns: nanos,
                stage,
                request,
                trace_id: ctx.trace_id,
                span_id: self.alloc_span_id(),
                parent_span_id: ctx.span_id,
            });
        }
    }

    /// The stage's histogram handle (always live; it simply stays empty
    /// when spans are disabled). Layers that cannot call back into
    /// `Telemetry` (the journal's flusher thread) hold this `Arc` and
    /// record directly.
    pub fn stage_histogram(&self, stage: Stage) -> Arc<Histogram> {
        Arc::clone(&self.stages[stage as usize])
    }

    /// A snapshot of the stage's histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage as usize].snapshot()
    }

    /// The named counter, registering it on first use. Hold the returned
    /// `Arc` for hot-path increments; the registry lock is taken only
    /// here.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut reg = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((_, c)) = reg.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        reg.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// The named gauge, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut reg = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((_, g)) = reg.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        reg.push((name.to_string(), Arc::clone(&g)));
        g
    }

    /// Every registered counter as `(name, value)`, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let reg = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<(String, u64)> = reg.iter().map(|(n, c)| (n.clone(), c.get())).collect();
        out.sort();
        out
    }

    /// Every registered gauge as `(name, value)`, sorted by name.
    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        let reg = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<(String, f64)> = reg.iter().map(|(n, g)| (n.clone(), g.get())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Copies every resident traced span, in start order. Empty unless
    /// tracing is active.
    pub fn trace_dump(&self) -> Vec<TraceEvent> {
        self.store.as_ref().map(|s| s.dump()).unwrap_or_default()
    }

    /// Spans lost to trace eviction or per-trace truncation since startup
    /// (exposed as `ptrider_trace_dropped_total`).
    pub fn trace_dropped(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.dropped())
    }

    /// The stored spans of one trace, if it is still resident. `None`
    /// means unknown or evicted — never a silently partial tree (a trace
    /// that hit the span cap comes back with `truncated` set).
    pub fn trace_tree(&self, trace_id: u64) -> Option<TraceTree> {
        self.store.as_ref()?.tree(trace_id)
    }

    /// The longest root span of each resident trace, the slowest
    /// [`trace::SLOW_LOG_K`] first — every entry resolves through
    /// [`Telemetry::trace_tree`].
    pub fn slow_traces(&self) -> Vec<SlowEntry> {
        self.store.as_ref().map(|s| s.slow()).unwrap_or_default()
    }

    /// Seconds since this hub (≈ the engine) was created.
    pub fn uptime_secs(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("level", &self.config.level)
            .field("trace_capacity", &self.config.trace_capacity)
            .finish()
    }
}

/// A tiny conditional stopwatch for accumulating per-stage nanoseconds in
/// a tight loop: `clock.time(&mut acc, || work())` reads the clock only
/// when the owning [`Telemetry`] runs at the `Spans` level.
#[derive(Clone, Copy, Debug)]
pub struct StageClock {
    enabled: bool,
}

impl StageClock {
    /// A clock that times iff `telemetry` (if any) has spans enabled.
    pub fn new(telemetry: Option<&Telemetry>) -> StageClock {
        StageClock {
            enabled: telemetry.is_some_and(|t| t.spans_enabled()),
        }
    }

    /// Whether [`StageClock::time`] actually reads the clock.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, adding its duration in nanoseconds to `acc` when enabled.
    #[inline]
    pub fn time<R>(&self, acc: &mut u64, f: impl FnOnce() -> R) -> R {
        if self.enabled {
            let start = Instant::now();
            let r = f();
            *acc += start.elapsed().as_nanos() as u64;
            r
        } else {
            f()
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_stage_histograms_and_ring() {
        let t = Telemetry::new(TelemetryConfig {
            level: TelemetryLevel::Spans,
            trace_capacity: 4,
        });
        for i in 0..6u64 {
            let ctx = t.new_trace();
            let _span = t.span_in(Stage::MatchVerify, ctx).with_request(i);
        }
        {
            let _untraced = t.span(Stage::ServiceSubmit);
        }
        assert_eq!(t.stage_snapshot(Stage::MatchVerify).count(), 6);
        assert_eq!(t.stage_snapshot(Stage::ServiceSubmit).count(), 1);
        let dump = t.trace_dump();
        assert_eq!(dump.len(), 4, "the store holds at most its capacity");
        // The store kept the newest traces: requests 2..=5; the untraced
        // submit reached its histogram only.
        let requests: Vec<u64> = dump.iter().map(|e| e.request).collect();
        assert_eq!(requests, vec![2, 3, 4, 5]);
        assert_eq!(t.trace_dropped(), 2, "evicted spans are counted");
    }

    #[test]
    fn disabled_levels_record_nothing() {
        let t = Telemetry::new(TelemetryConfig::off());
        {
            let _s = t.span(Stage::ServiceSubmit);
        }
        t.record_stage(Stage::ServiceSubmit, 42);
        assert_eq!(t.stage_snapshot(Stage::ServiceSubmit).count(), 0);
        assert!(t.trace_dump().is_empty());
        assert!(t.new_trace().is_none());
    }

    #[test]
    fn traced_spans_build_a_tree() {
        let t = Telemetry::new(TelemetryConfig::spans());
        let root_ctx = t.new_trace().expect("tracing on");
        assert_eq!(root_ctx.span_id, 0);
        let trace_id = root_ctx.trace_id;
        {
            let root = t
                .span_in(Stage::ServiceSubmit, Some(root_ctx))
                .with_request(9);
            let child_ctx = root.context().expect("traced span has a context");
            assert_eq!(child_ctx.trace_id, trace_id);
            assert_ne!(child_ctx.span_id, 0);
            {
                let _child = t.span_in(Stage::MatchVerify, Some(child_ctx));
            }
            t.record_stage_in(Stage::MatchSkyline, 1_500, Some(child_ctx), 9);
        }
        let tree = t.trace_tree(trace_id).expect("trace stored");
        assert!(!tree.truncated);
        assert_eq!(tree.spans.len(), 3);
        let roots = tree.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].event.stage, Stage::ServiceSubmit);
        assert_eq!(roots[0].event.request, 9);
        assert_eq!(roots[0].children.len(), 2);
        // Untraced trees are not retrievable.
        assert!(t.trace_tree(trace_id + 999).is_none());
        // The root span landed in the slow log.
        let slow = t.slow_traces();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].trace_id, trace_id);
        // The stage histogram holds an exemplar pointing at this trace.
        let ex = t.stage_histogram(Stage::ServiceSubmit).exemplars();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].trace_id, trace_id);
    }

    #[test]
    fn spans_without_trace_capacity_keep_histograms_only() {
        let t = Telemetry::new(TelemetryConfig {
            level: TelemetryLevel::Spans,
            trace_capacity: 0,
        });
        assert!(t.spans_enabled());
        assert!(!t.tracing_enabled());
        assert!(t.new_trace().is_none());
        {
            let _s = t.span_in(Stage::ServiceSubmit, None);
        }
        assert_eq!(t.stage_snapshot(Stage::ServiceSubmit).count(), 1);
        assert!(t.trace_dump().is_empty());
        assert!(t.slow_traces().is_empty());
    }

    #[test]
    fn adopt_trace_preserves_the_inbound_identity() {
        let t = Telemetry::new(TelemetryConfig::spans());
        let ctx = t.adopt_trace(0xfeed, 0xbeef).unwrap();
        assert_eq!(ctx.trace_id, 0xfeed);
        assert_eq!(ctx.span_id, 0xbeef);
        {
            let _root = t.span_in(Stage::ServerHandle, Some(ctx));
        }
        let tree = t.trace_tree(0xfeed).unwrap();
        assert_eq!(tree.spans[0].parent_span_id, 0xbeef);
        assert_eq!(tree.roots().len(), 1, "remote parent resolves to a root");
        // Adopting trace id 0 falls back to minting.
        let minted = t.adopt_trace(0, 7).unwrap();
        assert_ne!(minted.trace_id, 0);
        assert_eq!(minted.span_id, 0);
    }

    #[test]
    fn registry_returns_stable_handles() {
        let t = Telemetry::new(TelemetryConfig::off());
        let a = t.counter("events_cursor_missed_total");
        let b = t.counter("events_cursor_missed_total");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let g = t.gauge("journal_fsync_failed");
        g.set(1.0);
        assert_eq!(
            t.counter_values(),
            vec![("events_cursor_missed_total".into(), 4)]
        );
        assert_eq!(t.gauge_values(), vec![("journal_fsync_failed".into(), 1.0)]);
    }

    #[test]
    fn stage_clock_accumulates_only_when_enabled() {
        let spans = Telemetry::new(TelemetryConfig::spans());
        let clock = StageClock::new(Some(&spans));
        let mut acc = 0u64;
        clock.time(&mut acc, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(acc >= 1_000_000, "timed at least the sleep: {acc}");
        let off = Telemetry::disabled();
        let clock = StageClock::new(Some(&off));
        let mut acc = 0u64;
        clock.time(&mut acc, || ());
        assert_eq!(acc, 0);
        assert!(!StageClock::new(None).enabled());
    }

    #[test]
    fn level_parsing() {
        assert_eq!(TelemetryLevel::parse("off"), TelemetryLevel::Off);
        assert_eq!(TelemetryLevel::parse("OFF"), TelemetryLevel::Off);
        assert_eq!(TelemetryLevel::parse("spans"), TelemetryLevel::Spans);
        assert_eq!(TelemetryLevel::parse(" Spans "), TelemetryLevel::Spans);
        assert_eq!(TelemetryLevel::parse("bogus"), TelemetryLevel::Off);
        assert_eq!(TelemetryLevel::Spans.to_string(), "spans");
    }
}
