//! Request-scoped tracing: [`TraceContext`] propagation, the per-span
//! [`TraceEvent`] record, and the bounded [`TraceStore`] that keeps (a) the
//! flat chronological ring PR 7 introduced, (b) a per-trace span index from
//! which parent/child span *trees* are reassembled, and (c) a top-K
//! slowest-request log.
//!
//! # Context propagation rules
//!
//! A trace is identified by a non-zero `trace_id`. The context is minted
//! exactly once per request — at the HTTP front door (honoring an inbound
//! `traceparent`/`X-Request-Id`) or at `RideService::submit` for
//! in-process callers — and flows *down* the call tree by value: each
//! traced span allocates a fresh `span_id` and hands `TraceContext {
//! trace_id, span_id }` to its children, so a child's `parent_span_id` is
//! always the span that lexically encloses it. `trace_id == 0` is the
//! "untraced" sentinel everywhere; spans started without a context record
//! histograms but never enter the store.
//!
//! # Storage bounds
//!
//! Every bound is explicit and observable: the flat ring drops its oldest
//! event when full (counted in `trace_dropped_total`); the per-trace index
//! keeps at most [`MAX_TRACES`] traces (FIFO eviction removes a trace
//! wholesale, so a lost trace is a 404, never a complete-looking stub) of
//! at most [`MAX_SPANS_PER_TRACE`] spans each — a trace that hit the span
//! cap is flagged `truncated` so a partial tree is detectable rather than
//! silently incomplete.

use super::Stage;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The identity a traced request carries through the pipeline: which trace
/// it belongs to and which span is the current parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The request's trace id (non-zero; 0 means "untraced").
    pub trace_id: u64,
    /// The span id new child spans should use as their parent. 0 at the
    /// root (or an inbound remote parent id adopted from `traceparent`).
    pub span_id: u64,
}

/// One completed span in the trace ring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Span start, microseconds since the engine's telemetry was created.
    pub start_us: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// The stage.
    pub stage: Stage,
    /// Engine request id the span worked on (0 when not request-scoped).
    pub request: u64,
    /// The trace this span belongs to (0 = untraced; ring only).
    pub trace_id: u64,
    /// This span's id within the trace (0 when untraced).
    pub span_id: u64,
    /// The enclosing span's id (0 at the local root; a remote id when the
    /// trace was adopted from an inbound `traceparent`).
    pub parent_span_id: u64,
}

impl TraceEvent {
    /// Span end, microseconds since the telemetry origin (start plus the
    /// duration, truncated the same way `start_us` is).
    pub fn end_us(&self) -> u64 {
        self.start_us + self.duration_ns / 1_000
    }
}

/// Maximum traces the per-trace index keeps before evicting the oldest.
pub const MAX_TRACES: usize = 512;
/// Maximum spans retained per trace; extra spans set the truncation flag.
pub const MAX_SPANS_PER_TRACE: usize = 256;
/// Entries in the slowest-request log.
pub const SLOW_LOG_K: usize = 32;

/// The spans of one trace, as stored (completion order — children before
/// parents, since spans record on drop).
#[derive(Clone, Debug)]
pub struct TraceTree {
    /// The trace id.
    pub trace_id: u64,
    /// True when the trace lost spans to a storage bound — the tree is a
    /// partial view, not the full request.
    pub truncated: bool,
    /// Every retained span of the trace.
    pub spans: Vec<TraceEvent>,
}

/// One node of a reassembled span tree: the span and its children, each
/// sorted by start time.
#[derive(Clone, Debug)]
pub struct SpanNode<'a> {
    /// The completed span.
    pub event: &'a TraceEvent,
    /// Child spans (spans whose `parent_span_id` is this span's id).
    pub children: Vec<SpanNode<'a>>,
}

impl TraceTree {
    /// Reassembles the parent/child tree: roots are spans whose parent is
    /// 0 or unknown (an adopted remote parent, or a parent lost to
    /// truncation), children hang off their recorded parent, and every
    /// sibling list is sorted by `start_us`.
    pub fn roots(&self) -> Vec<SpanNode<'_>> {
        let known: std::collections::HashSet<u64> = self.spans.iter().map(|s| s.span_id).collect();
        let mut by_parent: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
        let mut roots: Vec<&TraceEvent> = Vec::new();
        for span in &self.spans {
            if span.parent_span_id != 0 && known.contains(&span.parent_span_id) {
                by_parent.entry(span.parent_span_id).or_default().push(span);
            } else {
                roots.push(span);
            }
        }
        fn build<'a>(
            event: &'a TraceEvent,
            by_parent: &HashMap<u64, Vec<&'a TraceEvent>>,
        ) -> SpanNode<'a> {
            let mut children: Vec<SpanNode<'a>> = by_parent
                .get(&event.span_id)
                .map(|kids| kids.iter().map(|k| build(k, by_parent)).collect())
                .unwrap_or_default();
            children.sort_by_key(|c| c.event.start_us);
            SpanNode { event, children }
        }
        let mut out: Vec<SpanNode<'_>> = roots.iter().map(|r| build(r, &by_parent)).collect();
        out.sort_by_key(|n| n.event.start_us);
        out
    }
}

/// One entry of the slowest-request log: the root span of a trace, kept
/// when it ranks among the top-K by duration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowEntry {
    /// The trace the root span belongs to.
    pub trace_id: u64,
    /// The root span's stage (`server.handle` on the wire path,
    /// `service.submit`/`service.respond` for in-process callers).
    pub stage: Stage,
    /// Root span start, microseconds since the telemetry origin.
    pub start_us: u64,
    /// Root span duration in nanoseconds.
    pub duration_ns: u64,
    /// Engine request id, when the root span was request-scoped.
    pub request: u64,
}

struct TraceEntry {
    spans: Vec<TraceEvent>,
    truncated: bool,
}

struct StoreInner {
    /// Flat chronological ring — the PR 7 view, kept for `GET /trace`.
    ring: VecDeque<TraceEvent>,
    /// Per-trace span index keyed by trace id.
    traces: HashMap<u64, TraceEntry>,
    /// Trace insertion order, for FIFO eviction at [`MAX_TRACES`].
    order: VecDeque<u64>,
    /// Top-K slowest root spans (unordered; scanned linearly, K is small).
    slow: Vec<SlowEntry>,
}

/// The bounded span store behind a `Spans`-level [`super::Telemetry`] with
/// a non-zero trace capacity. One mutex guards all three views — pushes
/// happen once per completed span (not per sample), so the lock is far off
/// the per-sample hot path.
pub(crate) struct TraceStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TraceStore {
    pub(crate) fn new(capacity: usize) -> TraceStore {
        TraceStore {
            inner: Mutex::new(StoreInner {
                ring: VecDeque::with_capacity(capacity.min(1024)),
                traces: HashMap::new(),
                order: VecDeque::new(),
                slow: Vec::with_capacity(SLOW_LOG_K),
            }),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Events evicted from the flat ring since startup.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn push(&self, ev: TraceEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.ring.push_back(ev);
        if ev.trace_id == 0 {
            return;
        }
        // Per-trace index. Eviction removes a trace wholesale, so a lost
        // trace reads as 404 — never as a silently complete-looking tree.
        if !inner.traces.contains_key(&ev.trace_id) {
            if inner.traces.len() >= MAX_TRACES {
                if let Some(oldest) = inner.order.pop_front() {
                    inner.traces.remove(&oldest);
                }
            }
            inner.order.push_back(ev.trace_id);
            inner.traces.insert(
                ev.trace_id,
                TraceEntry {
                    spans: Vec::new(),
                    truncated: false,
                },
            );
        }
        let entry = inner.traces.get_mut(&ev.trace_id).expect("just inserted");
        if entry.spans.len() >= MAX_SPANS_PER_TRACE {
            entry.truncated = true;
        } else {
            entry.spans.push(ev);
        }
        // Slow log: root spans only. `parent == 0` catches locally minted
        // roots; adopted traces (remote parent id) surface via the wire
        // root stage.
        if ev.parent_span_id == 0 || ev.stage == Stage::ServerHandle {
            if let Some(existing) = inner.slow.iter_mut().find(|s| s.trace_id == ev.trace_id) {
                if ev.duration_ns > existing.duration_ns {
                    *existing = SlowEntry {
                        trace_id: ev.trace_id,
                        stage: ev.stage,
                        start_us: ev.start_us,
                        duration_ns: ev.duration_ns,
                        request: ev.request,
                    };
                }
            } else {
                let entry = SlowEntry {
                    trace_id: ev.trace_id,
                    stage: ev.stage,
                    start_us: ev.start_us,
                    duration_ns: ev.duration_ns,
                    request: ev.request,
                };
                if inner.slow.len() < SLOW_LOG_K {
                    inner.slow.push(entry);
                } else if let Some(min) = inner
                    .slow
                    .iter_mut()
                    .min_by_key(|s| s.duration_ns)
                    .filter(|s| s.duration_ns < entry.duration_ns)
                {
                    *min = entry;
                }
            }
        }
    }

    pub(crate) fn dump(&self) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .ring
            .iter()
            .copied()
            .collect()
    }

    pub(crate) fn tree(&self, trace_id: u64) -> Option<TraceTree> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.traces.get(&trace_id).map(|e| TraceTree {
            trace_id,
            truncated: e.truncated,
            spans: e.spans.clone(),
        })
    }

    pub(crate) fn slow(&self) -> Vec<SlowEntry> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = inner.slow.clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.duration_ns));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, span: u64, parent: u64, start_us: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            start_us,
            duration_ns: dur_ns,
            stage: Stage::ServiceSubmit,
            request: 0,
            trace_id: trace,
            span_id: span,
            parent_span_id: parent,
        }
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let store = TraceStore::new(2);
        store.push(ev(0, 0, 0, 1, 10));
        store.push(ev(0, 0, 0, 2, 10));
        assert_eq!(store.dropped(), 0);
        store.push(ev(0, 0, 0, 3, 10));
        store.push(ev(0, 0, 0, 4, 10));
        assert_eq!(store.dropped(), 2);
        let ring = store.dump();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring[0].start_us, 3);
    }

    #[test]
    fn trees_reassemble_parent_child_structure() {
        let store = TraceStore::new(64);
        // Completion order: children first (RAII spans drop inside out).
        store.push(ev(7, 2, 1, 10, 5_000));
        store.push(ev(7, 3, 1, 20, 5_000));
        store.push(ev(7, 4, 3, 21, 1_000));
        store.push(ev(7, 1, 0, 0, 50_000));
        let tree = store.tree(7).expect("trace stored");
        assert!(!tree.truncated);
        assert_eq!(tree.spans.len(), 4);
        let roots = tree.roots();
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.event.span_id, 1);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].event.span_id, 2, "sorted by start");
        assert_eq!(root.children[1].event.span_id, 3);
        assert_eq!(root.children[1].children[0].event.span_id, 4);
    }

    #[test]
    fn adopted_remote_parent_becomes_a_root() {
        let store = TraceStore::new(64);
        store.push(ev(9, 2, 0xdead, 0, 1_000)); // parent id unknown locally
        let tree = store.tree(9).unwrap();
        let roots = tree.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].event.span_id, 2);
    }

    #[test]
    fn per_trace_span_cap_sets_truncation_flag() {
        let store = TraceStore::new(MAX_SPANS_PER_TRACE * 2);
        for i in 0..MAX_SPANS_PER_TRACE as u64 + 5 {
            store.push(ev(1, i + 2, 1, i, 100));
        }
        let tree = store.tree(1).unwrap();
        assert!(tree.truncated, "over-cap trace must be flagged");
        assert_eq!(tree.spans.len(), MAX_SPANS_PER_TRACE);
    }

    #[test]
    fn trace_index_evicts_oldest_fifo() {
        let store = TraceStore::new(16);
        for t in 1..=(MAX_TRACES as u64 + 3) {
            store.push(ev(t, 1, 0, t, 100));
        }
        assert!(store.tree(1).is_none(), "oldest trace evicted");
        assert!(store.tree(3).is_none());
        assert!(store.tree(4).is_some());
        assert!(store.tree(MAX_TRACES as u64 + 3).is_some());
    }

    #[test]
    fn slow_log_keeps_top_k_roots_by_duration() {
        let store = TraceStore::new(4096);
        for t in 1..=(SLOW_LOG_K as u64 + 10) {
            store.push(ev(t, 1, 0, t, t * 1_000));
        }
        // Child spans never enter the slow log.
        store.push(ev(1000, 2, 1, 0, 999_999_999));
        let slow = store.slow();
        assert_eq!(slow.len(), SLOW_LOG_K);
        assert_eq!(slow[0].trace_id, SLOW_LOG_K as u64 + 10, "sorted desc");
        assert!(
            slow.iter().all(|s| s.trace_id >= 11),
            "only the K slowest survive: {slow:?}"
        );
        assert!(slow.iter().all(|s| s.trace_id != 1000));
    }
}
