//! Property tests for the telemetry subsystem: quantile estimates
//! stay within the log-linear bucketing's documented error bound against
//! exact sorted-sample references, snapshot merging is associative and
//! commutative, `since` inverts `merge`, concurrent recording never
//! tears a snapshot — and, for request-scoped tracing: arbitrary span
//! trees reassemble exactly (every child's parent exists and intervals
//! nest), trees stay per-trace-exact under 4-thread concurrency, the
//! span store keeps its bound by evicting whole traces and counts every
//! span it loses, and exemplar slots never tear under racing recorders.

use proptest::prelude::*;
use ptrider_core::{
    Histogram, HistogramSnapshot, SpanNode, Stage, Telemetry, TelemetryConfig, TelemetryLevel,
    TraceContext,
};
use std::sync::Arc;

/// Builds a snapshot from a slice of samples.
fn snap(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// Exact `q`-quantile of a sample set under the histogram's rank
/// convention: the sample at rank `ceil(q * n)` (1-indexed, clamped).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Samples spanning many orders of magnitude: `mantissa << shift` covers
/// every bucket scale, which uniform draws over `u64` would not. Shifts
/// stop at 40 so the sum of three merged sets stays exactly representable.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u64..4096, 0u32..41).prop_map(|(m, s)| m << s), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// For every quantile the estimate `e` and exact reference `x`
    /// satisfy `x <= e <= x + x/32` — the bound documented on
    /// [`HistogramSnapshot::quantile`] (exact below 32, where buckets
    /// are unit-width).
    #[test]
    fn quantile_within_bucket_error(values in samples(), q in 0.0f64..1.0) {
        let snapshot = snap(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [q, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = snapshot.quantile(q);
            prop_assert!(est >= exact, "q={q}: estimate {est} < exact {exact}");
            prop_assert!(
                est - exact <= exact / 32,
                "q={q}: estimate {est} exceeds exact {exact} by more than 1/32"
            );
        }
        prop_assert_eq!(snapshot.quantile(1.0), *sorted.last().unwrap());
        prop_assert_eq!(snapshot.count(), values.len() as u64);
        prop_assert_eq!(snapshot.sum(), values.iter().sum::<u64>());
    }

    /// Merging is associative and commutative, with `empty` as identity —
    /// shard histograms can be combined in any order.
    #[test]
    fn merge_is_associative_and_commutative(
        a in samples(),
        b in samples(),
        c in samples(),
    ) {
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));

        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        let mut right_inner = sb.clone();
        right_inner.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_inner);
        prop_assert_eq!(&left, &right);

        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);

        let mut with_identity = sa.clone();
        with_identity.merge(&HistogramSnapshot::empty());
        prop_assert_eq!(&with_identity, &sa);

        // Merging snapshots equals recording everything into one
        // histogram (buckets, count, sum and max all line up).
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &snap(&all));
    }

    /// `later.since(earlier)` recovers the delta that was merged in —
    /// the windowed-rate subtraction the simulator's per-interval
    /// reports rely on.
    #[test]
    fn since_inverts_merge(a in samples(), b in samples()) {
        let (sa, sb) = (snap(&a), snap(&b));
        let mut later = sa.clone();
        later.merge(&sb);
        let delta = later.since(&sa);
        prop_assert_eq!(delta.count(), sb.count());
        prop_assert_eq!(delta.sum(), sb.sum());
        prop_assert_eq!(delta.cumulative_buckets(), sb.cumulative_buckets());
    }
}

/// Snapshots taken while writers race must never tear: the count always
/// equals the bucket total (enforced by derivation), never decreases,
/// and the final snapshot is exact.
#[test]
fn concurrent_record_and_snapshot() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 20_000;
    let hist = Arc::new(Histogram::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let hist = Arc::clone(&hist);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Mix of scales, deterministic per thread.
                    hist.record((i % 97) << (t * 4));
                }
            });
        }
        let mut last_count = 0u64;
        for _ in 0..500 {
            let s = hist.snapshot();
            assert!(s.count() >= last_count, "snapshot count went backwards");
            assert!(s.count() <= THREADS * PER_THREAD);
            assert!(s.quantile(0.99) <= s.max().max(96 << ((THREADS - 1) * 4)));
            last_count = s.count();
        }
    });
    let s = hist.snapshot();
    assert_eq!(s.count(), THREADS * PER_THREAD);
    let expected_sum: u64 = (0..THREADS)
        .map(|t| (0..PER_THREAD).map(|i| (i % 97) << (t * 4)).sum::<u64>())
        .sum();
    assert_eq!(s.sum(), expected_sum);
    assert_eq!(s.max(), 96 << ((THREADS - 1) * 4));
}

// ---------------------------------------------------------------------
// Request-scoped tracing
// ---------------------------------------------------------------------

/// A random tree shape as parent pointers: node `i > 0` attaches to some
/// earlier node, node 0 is the root.
fn tree_shapes() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1000, 1..32).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, r)| if i == 0 { 0 } else { r % i })
            .collect()
    })
}

/// Parent-pointer array → children lists.
fn children_of(parents: &[usize]) -> Vec<Vec<usize>> {
    let mut children = vec![Vec::new(); parents.len()];
    for (i, &p) in parents.iter().enumerate().skip(1) {
        children[p].push(i);
    }
    children
}

/// Opens a span for `node` and recurses into its children while the span
/// is live, so the recorded intervals genuinely nest. Each span carries
/// its node index as the request id — the key the checks use to match
/// the reassembled tree against the generated shape.
fn build_subtree(t: &Telemetry, node: usize, children: &[Vec<usize>], parent: TraceContext) {
    let span = t
        .span_in(Stage::MatchVerify, Some(parent))
        .with_request(node as u64);
    let ctx = span.context().expect("traced span has a context");
    for &c in &children[node] {
        build_subtree(t, c, children, ctx);
    }
}

/// Walks a reassembled tree, asserting each child hangs off the parent
/// the shape prescribed and that child intervals sit inside their
/// parent's (with slack for the microsecond start truncation). Returns
/// the number of nodes visited.
fn check_subtree(node: &SpanNode<'_>, parents: &[usize]) -> Result<usize, TestCaseError> {
    // start_us truncates; a child can appear up to 1µs "before" its
    // parent and end up to 1µs "after" on top of the duration rounding.
    const SLACK_US: u64 = 2;
    let end_us = |e: &ptrider_core::TraceEvent| e.start_us + e.duration_ns.div_ceil(1000);
    let mut visited = 1usize;
    for child in &node.children {
        let (i, p) = (child.event.request as usize, node.event.request as usize);
        prop_assert_eq!(
            parents[i],
            p,
            "node {} reattached to {} not {}",
            i,
            p,
            parents[i]
        );
        prop_assert!(
            child.event.start_us + SLACK_US >= node.event.start_us,
            "child {} starts before parent {}",
            i,
            p
        );
        prop_assert!(
            end_us(child.event) <= end_us(node.event) + SLACK_US,
            "child {} ends after parent {}",
            i,
            p
        );
        visited += check_subtree(child, parents)?;
    }
    Ok(visited)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any span tree written through the tracing API reassembles exactly:
    /// one root, every child's parent exists, every parent/child edge
    /// matches the generated shape, and intervals nest.
    #[test]
    fn span_trees_reassemble_exactly(parents in tree_shapes()) {
        let t = Telemetry::new(TelemetryConfig::spans());
        let root_ctx = t.new_trace().expect("tracing on");
        build_subtree(&t, 0, &children_of(&parents), root_ctx);

        let tree = t.trace_tree(root_ctx.trace_id).expect("trace stored");
        prop_assert!(!tree.truncated);
        prop_assert_eq!(tree.spans.len(), parents.len());

        // Every non-root span's parent is a span of the same trace.
        let ids: std::collections::HashSet<u64> =
            tree.spans.iter().map(|s| s.span_id).collect();
        for span in &tree.spans {
            if span.parent_span_id != 0 {
                prop_assert!(
                    ids.contains(&span.parent_span_id),
                    "span {} has a dangling parent {}",
                    span.span_id,
                    span.parent_span_id
                );
            }
        }

        let roots = tree.roots();
        prop_assert_eq!(roots.len(), 1, "exactly one root");
        prop_assert_eq!(roots[0].event.request, 0);
        prop_assert_eq!(check_subtree(&roots[0], &parents)?, parents.len());
    }
}

/// Four threads submit traced work concurrently; every thread's trees
/// reassemble bit-identically to the shape it wrote — concurrency can
/// interleave pushes, never cross-wire the per-trace store.
#[test]
fn concurrent_traces_stay_disjoint() {
    const THREADS: usize = 4;
    const TRACES_PER_THREAD: usize = 16;
    // A fixed fan-and-chain shape exercising both branching and depth.
    let parents: Vec<usize> = vec![0, 0, 0, 1, 1, 3, 3, 6];
    let children = children_of(&parents);
    let t = Telemetry::new(TelemetryConfig::spans());

    let trace_ids: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    (0..TRACES_PER_THREAD)
                        .map(|_| {
                            let ctx = t.new_trace().expect("tracing on");
                            build_subtree(&t, 0, &children, ctx);
                            ctx.trace_id
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut seen = std::collections::HashSet::new();
    for per_thread in &trace_ids {
        for &trace_id in per_thread {
            assert!(seen.insert(trace_id), "trace ids are unique");
            let tree = t.trace_tree(trace_id).expect("trace stored");
            assert!(!tree.truncated);
            assert_eq!(
                tree.spans.len(),
                parents.len(),
                "no foreign spans leaked in"
            );
            assert!(tree.spans.iter().all(|s| s.trace_id == trace_id));
            let roots = tree.roots();
            assert_eq!(roots.len(), 1);
            assert_eq!(check_subtree(&roots[0], &parents).unwrap(), parents.len());
        }
    }
}

/// Exemplar slots are updated by racing recorders through a seqlock;
/// readers must never observe a torn (value, trace id) pair. Values are
/// derived from the trace id so a tear is detectable.
#[test]
fn exemplars_never_tear_under_racing_recorders() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10_000;
    let pair = |trace_id: u64| trace_id.wrapping_mul(3) + 1;
    let hist = Histogram::new();
    std::thread::scope(|scope| {
        for th in 0..THREADS {
            let hist = &hist;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let trace_id = th * PER_THREAD + i + 1;
                    // Spread values across bucket scales so many slots race.
                    hist.record_traced(pair(trace_id) << (i % 16), trace_id);
                }
            });
        }
        // Read while the writers race.
        for _ in 0..200 {
            for ex in hist.exemplars() {
                assert!(ex.trace_id != 0, "exemplar without a trace id");
            }
        }
    });
    let exemplars = hist.exemplars();
    assert!(!exemplars.is_empty(), "recorders retained no exemplars");
    for ex in &exemplars {
        // Undo the shift: the recorded value is pair(trace_id) << s.
        let base = pair(ex.trace_id);
        assert!(
            ex.value % base == 0 && (ex.value / base).is_power_of_two(),
            "torn exemplar: value {} does not derive from trace {}",
            ex.value,
            ex.trace_id
        );
    }
    // Sorted ascending by value, as the exposition order requires.
    assert!(exemplars.windows(2).all(|w| w[0].value <= w[1].value));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The span store under a random capacity and random trace shapes:
    /// resident spans never exceed the capacity, the resident traces are
    /// the newest ones and each is whole (or flagged truncated when it
    /// alone outgrows the store), every lost span is counted as dropped,
    /// and untraced spans reach their histogram but never the store.
    #[test]
    fn span_store_evicts_whole_traces(
        shapes in proptest::collection::vec(tree_shapes(), 1..40),
        capacity in 1usize..300,
        untraced in 0usize..4,
    ) {
        let t = Telemetry::new(TelemetryConfig {
            level: TelemetryLevel::Spans,
            trace_capacity: capacity,
        });
        let mut traces = Vec::new();
        for parents in &shapes {
            let ctx = t.new_trace().expect("tracing on");
            build_subtree(&t, 0, &children_of(parents), ctx);
            traces.push((ctx.trace_id, parents.len()));
            for _ in 0..untraced {
                let _s = t.span(Stage::ServiceTick);
            }
            prop_assert!(t.trace_dump().len() <= capacity);
        }
        prop_assert_eq!(
            t.stage_snapshot(Stage::ServiceTick).count(),
            (shapes.len() * untraced) as u64
        );
        let dump = t.trace_dump();
        prop_assert!(dump.iter().all(|e| e.trace_id != 0));

        let mut resident = 0usize;
        let mut evicted_seen = false;
        for &(trace_id, spans) in traces.iter().rev() {
            match t.trace_tree(trace_id) {
                Some(tree) => {
                    prop_assert!(!evicted_seen, "trace {} outlived a newer one", trace_id);
                    prop_assert_eq!(tree.spans.len(), spans.min(capacity));
                    prop_assert_eq!(tree.truncated, spans > capacity);
                    resident += tree.spans.len();
                }
                None => evicted_seen = true,
            }
        }
        prop_assert_eq!(resident, dump.len());
        let pushed: usize = traces.iter().map(|&(_, spans)| spans).sum();
        prop_assert_eq!(t.trace_dropped(), (pushed - resident) as u64);
    }
}
