//! Request-scoped tracing: [`TraceContext`] propagation, the per-span
//! [`TraceEvent`] record, and the bounded [`TraceStore`] — one map of
//! traces in arrival order, from which every trace view is served: the
//! flat span dump, parent/child span *trees* and the slowest-request log.
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
//! # Storage bound
//!
//! The store holds at most `capacity` spans. When a span would exceed it,
//! whole traces are evicted oldest first (by the arrival of their first
//! span), so a lost trace is a 404, never a complete-looking stub. One
//! trace keeps at most [`MAX_SPANS_PER_TRACE`] spans (and never more than
//! the capacity); a trace that hit that cap is flagged `truncated`, so a
//! partial tree is detectable rather than silently incomplete. Every span
//! lost either way is counted in `trace_dropped_total`.
//!
//! Eviction never takes the trace being appended to, but it may take a
//! trace whose request is still running on another thread. The store
//! remembers the ids of evicted traces (as many as its capacity, oldest
//! forgotten first), so such a trace's later spans start a fresh entry
//! already flagged `truncated`.

use super::Stage;
use std::collections::{HashMap, HashSet, VecDeque};
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

/// One completed span of a trace.
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
    /// The trace this span belongs to (never 0 in the store).
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
        let known: HashSet<u64> = self.spans.iter().map(|s| s.span_id).collect();
        let mut by_parent: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
        let mut roots: Vec<&TraceEvent> = Vec::new();
        for span in &self.spans {
            if is_root(span, &known) {
                roots.push(span);
            } else {
                by_parent.entry(span.parent_span_id).or_default().push(span);
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

    /// The trace's longest root span.
    fn slowest_root(&self) -> Option<&TraceEvent> {
        let known: HashSet<u64> = self.spans.iter().map(|s| s.span_id).collect();
        self.spans
            .iter()
            .filter(|s| is_root(s, &known))
            .max_by_key(|s| s.duration_ns)
    }
}

/// Whether `span` roots a tree among the trace's `known` span ids.
fn is_root(span: &TraceEvent, known: &HashSet<u64>) -> bool {
    span.parent_span_id == 0 || !known.contains(&span.parent_span_id)
}

/// One entry of the slowest-request log: the longest root span of a
/// resident trace that ranks among the top-K by duration.
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

struct StoreInner {
    /// The resident traces, keyed by trace id.
    traces: HashMap<u64, TraceTree>,
    /// Trace ids in arrival order of their first span — the eviction order.
    order: VecDeque<u64>,
    /// Spans held across all resident traces (at most the capacity).
    resident: usize,
    /// Ids of evicted traces, oldest first, at most the capacity of them;
    /// `evicted_set` holds the same ids for lookup.
    evicted: VecDeque<u64>,
    evicted_set: HashSet<u64>,
}

/// The bounded span store behind a `Spans`-level [`super::Telemetry`] with
/// a non-zero trace capacity. One mutex guards it — pushes happen once per
/// completed traced span (not per sample), so the lock is far off the
/// per-sample hot path.
pub(crate) struct TraceStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TraceStore {
    pub(crate) fn new(capacity: usize) -> TraceStore {
        TraceStore {
            inner: Mutex::new(StoreInner {
                traces: HashMap::new(),
                order: VecDeque::new(),
                resident: 0,
                evicted: VecDeque::new(),
                evicted_set: HashSet::new(),
            }),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Spans lost to eviction or truncation since startup.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stores one span of a traced request (`ev.trace_id != 0`).
    pub(crate) fn push(&self, ev: TraceEvent) {
        debug_assert_ne!(ev.trace_id, 0, "untraced spans never enter the store");
        let mut guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let inner = &mut *guard;
        let tree = inner.traces.entry(ev.trace_id).or_insert_with(|| {
            inner.order.push_back(ev.trace_id);
            TraceTree {
                trace_id: ev.trace_id,
                // Earlier spans of a trace evicted mid-request are gone.
                truncated: inner.evicted_set.contains(&ev.trace_id),
                spans: Vec::new(),
            }
        });
        if tree.spans.len() >= MAX_SPANS_PER_TRACE.min(self.capacity) {
            tree.truncated = true;
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        tree.spans.push(ev);
        inner.resident += 1;
        // Make room by evicting whole traces, oldest first — never the one
        // just appended to, whose span count is within the capacity.
        while inner.resident > self.capacity {
            let Some(oldest) = inner.order.iter().position(|&id| id != ev.trace_id) else {
                break;
            };
            let id = inner.order.remove(oldest).expect("position is in range");
            let evicted = inner.traces.remove(&id).map_or(0, |t| t.spans.len());
            inner.resident -= evicted;
            self.dropped.fetch_add(evicted as u64, Ordering::Relaxed);
            if inner.evicted_set.insert(id) {
                inner.evicted.push_back(id);
                if inner.evicted.len() > self.capacity {
                    let forgotten = inner.evicted.pop_front().expect("non-empty");
                    inner.evicted_set.remove(&forgotten);
                }
            }
        }
    }

    /// Every resident span, in start order.
    pub(crate) fn dump(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<TraceEvent> = inner
            .order
            .iter()
            .flat_map(|id| &inner.traces[id].spans)
            .copied()
            .collect();
        out.sort_by_key(|e| e.start_us);
        out
    }

    pub(crate) fn tree(&self, trace_id: u64) -> Option<TraceTree> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.traces.get(&trace_id).cloned()
    }

    /// The longest root span of each resident trace, the [`SLOW_LOG_K`]
    /// slowest first.
    pub(crate) fn slow(&self) -> Vec<SlowEntry> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<SlowEntry> = inner
            .order
            .iter()
            .filter_map(|id| inner.traces[id].slowest_root())
            .map(|root| SlowEntry {
                trace_id: root.trace_id,
                stage: root.stage,
                start_us: root.start_us,
                duration_ns: root.duration_ns,
                request: root.request,
            })
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.duration_ns));
        out.truncate(SLOW_LOG_K);
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
        let store = TraceStore::new(4);
        store.push(ev(1, 2, 1, 1, 10));
        store.push(ev(1, 1, 0, 0, 10));
        store.push(ev(2, 1, 0, 2, 10));
        store.push(ev(3, 1, 0, 3, 10));
        assert_eq!(store.dropped(), 0);
        // The fifth span evicts trace 1 whole: both of its spans go.
        store.push(ev(4, 1, 0, 4, 10));
        assert_eq!(store.dropped(), 2);
        assert!(store.tree(1).is_none());
        let dump = store.dump();
        let starts: Vec<u64> = dump.iter().map(|e| e.start_us).collect();
        assert_eq!(starts, vec![2, 3, 4], "resident spans in start order");
    }

    #[test]
    fn a_trace_evicted_mid_request_is_never_served_unflagged() {
        let store = TraceStore::new(4);
        store.push(ev(1, 2, 1, 0, 10)); // trace 1's child completes first
        for t in 2..=5 {
            store.push(ev(t, 1, 0, t, 10)); // the fourth evicts trace 1
        }
        store.push(ev(1, 1, 0, 0, 100)); // then trace 1's root
        let tree = store.tree(1);
        assert!(
            tree.as_ref().is_none_or(|t| t.truncated),
            "a stub of trace 1 must be flagged: {tree:?}"
        );
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
        // Three spans per trace, eight traces' worth of capacity.
        let store = TraceStore::new(24);
        for t in 1..=11u64 {
            store.push(ev(t, 2, 1, t, 100));
            store.push(ev(t, 3, 1, t, 100));
            store.push(ev(t, 1, 0, t, 100));
        }
        assert!(store.tree(1).is_none(), "oldest trace evicted");
        assert!(store.tree(3).is_none());
        assert_eq!(store.tree(4).expect("resident").spans.len(), 3);
        assert_eq!(store.tree(11).expect("resident").spans.len(), 3);
        assert_eq!(store.dropped(), 9);
    }

    #[test]
    fn a_trace_never_outgrows_a_small_store() {
        // Capacity below the per-trace cap: the lone trace truncates
        // instead of evicting itself.
        let store = TraceStore::new(3);
        for i in 0..5u64 {
            store.push(ev(1, i + 2, 1, i, 100));
        }
        let tree = store.tree(1).expect("resident");
        assert!(tree.truncated);
        assert_eq!(tree.spans.len(), 3);
        assert_eq!(store.dropped(), 2);
    }

    #[test]
    fn slow_entries_resolve_after_many_traces() {
        // Far more than 512 traces, the oldest the slowest: every slow
        // entry must still name a resident trace.
        let store = TraceStore::new(4096);
        for t in 1..=3_000u64 {
            store.push(ev(t, 2, 1, t, 10));
            store.push(ev(t, 1, 0, t, 1_000_000_000 / t));
        }
        let slow = store.slow();
        assert_eq!(slow.len(), SLOW_LOG_K);
        for entry in &slow {
            assert!(store.tree(entry.trace_id).is_some(), "{entry:?} evicted");
        }
        // The 2,048 resident traces are the newest; the oldest of them leads.
        assert_eq!(slow[0].trace_id, 3_000 - 2_048 + 1);
    }

    #[test]
    fn slow_log_keeps_top_k_roots_by_duration() {
        let store = TraceStore::new(4096);
        for t in 1..=(SLOW_LOG_K as u64 + 10) {
            store.push(ev(t, 1, 0, t, t * 1_000));
        }
        // Child spans never rank: trace 1000 ranks by its 1 ns root.
        store.push(ev(1000, 2, 1, 0, 999_999_999));
        store.push(ev(1000, 1, 0, 0, 1));
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
