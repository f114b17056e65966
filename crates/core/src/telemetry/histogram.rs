//! Log-linear latency histograms: the lock-free [`Histogram`] and the
//! mergeable [`HistogramSnapshot`], plus per-bucket-scale [`Exemplar`]
//! retention linking histogram buckets back to the trace that filled them.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power of two: 2^5 = 32, bounding the relative
/// bucket width — and therefore the percentile overestimate — by 1/32.
pub(crate) const SUB_BITS: u32 = 5;
pub(crate) const SUB: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: 32 exact unit buckets plus
/// 32 sub-buckets for each of the 59 remaining scales (msb 5..=63).
pub(crate) const NUM_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Index of the bucket holding `v`. Buckets are contiguous and ordered.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let scale = (msb - SUB_BITS) as usize;
        let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
        SUB + (scale << SUB_BITS) + sub
    }
}

/// Smallest value mapping to bucket `idx`.
pub(crate) fn bucket_low(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let scale = (idx - SUB) >> SUB_BITS;
        let sub = ((idx - SUB) & (SUB - 1)) as u64;
        (SUB as u64 + sub) << scale
    }
}

/// Largest value mapping to bucket `idx` (saturating at `u64::MAX`).
pub(crate) fn bucket_high(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let scale = (idx - SUB) >> SUB_BITS;
        bucket_low(idx).saturating_add((1u64 << scale) - 1)
    }
}

/// A lock-free log-linear latency histogram over `u64` samples
/// (conventionally nanoseconds).
///
/// Recording is three `Relaxed` atomic RMWs; snapshots are taken by reading
/// every bucket, with the total count derived from the bucket sums so a
/// snapshot is always self-consistent (`count == Σ buckets`) even while
/// writers race.
///
/// The histogram also owns the exemplar slots (one per value scale):
/// [`Histogram::record_traced`] retains the last `(value, trace_id)` pair
/// per scale for Prometheus exemplar exposition.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
    exemplars: Vec<ExemplarSlot>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, || AtomicU64::new(0));
        let mut exemplars = Vec::with_capacity(EXEMPLAR_SLOTS);
        exemplars.resize_with(EXEMPLAR_SLOTS, ExemplarSlot::new);
        Histogram {
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplars,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one sample and, when `trace_id` is non-zero, retains it as
    /// the exemplar for the sample's value scale.
    #[inline]
    pub fn record_traced(&self, v: u64, trace_id: u64) {
        self.record(v);
        if trace_id != 0 {
            self.exemplars[exemplar_slot(v)].store(v, trace_id);
        }
    }

    /// The retained exemplars, sorted by value ascending. Empty until a
    /// traced sample has been recorded.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let mut out: Vec<Exemplar> = self.exemplars.iter().filter_map(|s| s.load()).collect();
        out.sort_by_key(|e| e.value);
        out
    }

    /// A consistent point-in-time copy for percentile queries and
    /// exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("max", &snap.max)
            .finish()
    }
}

/// The last traced sample retained for one bucket scale of a
/// [`Histogram`] — the Prometheus exemplar payload that makes a
/// p99 bucket clickable to the exact trace that landed there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded sample, in the histogram's native unit (nanoseconds).
    pub value: u64,
    /// The trace that produced the sample.
    pub trace_id: u64,
}

/// One exemplar slot: a tiny per-slot seqlock so a `(value, trace_id)`
/// pair is never torn by racing recorders. Writers take the slot with a
/// CAS on the sequence word; a writer that loses the race simply drops
/// its exemplar (exemplars are best-effort samples, not counters).
struct ExemplarSlot {
    seq: AtomicU64,
    value: AtomicU64,
    trace: AtomicU64,
}

impl ExemplarSlot {
    fn new() -> ExemplarSlot {
        ExemplarSlot {
            seq: AtomicU64::new(0),
            value: AtomicU64::new(0),
            trace: AtomicU64::new(0),
        }
    }

    fn store(&self, value: u64, trace_id: u64) {
        let s = self.seq.load(Ordering::Relaxed);
        if s & 1 == 1 {
            return; // another writer is mid-publish; drop this exemplar
        }
        if self
            .seq
            .compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.value.store(value, Ordering::Relaxed);
        self.trace.store(trace_id, Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Release);
    }

    fn load(&self) -> Option<Exemplar> {
        for _ in 0..64 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 == 0 {
                return None; // never written
            }
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let value = self.value.load(Ordering::Relaxed);
            let trace_id = self.trace.load(Ordering::Relaxed);
            if self.seq.load(Ordering::Acquire) == s1 {
                return Some(Exemplar { value, trace_id });
            }
        }
        None // writer wedged mid-publish; skip rather than spin forever
    }
}

/// One exemplar slot per power-of-two value scale (msb), so slow outliers
/// never evict the exemplar for the fast common case.
const EXEMPLAR_SLOTS: usize = 65;

#[inline]
fn exemplar_slot(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`NUM_BUCKETS` entries).
    buckets: Vec<u64>,
    /// Total samples (always `Σ buckets`).
    count: u64,
    /// Sum of all recorded values.
    sum: u64,
    /// Largest recorded value.
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as a `merge` identity).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket upper bound: for the
    /// exact sorted-sample quantile `x`, the estimate `e` satisfies
    /// `x <= e <= x + x/32` (exactly `x` for values below 32). Returns 0
    /// when empty; the top estimate is clamped to the recorded max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_high(idx).min(self.max);
            }
        }
        self.max
    }

    /// Merges another snapshot into this one. Merging is associative and
    /// commutative (property-tested), so snapshots can be combined in any
    /// order. Sums saturate rather than wrap, so an extreme merge degrades
    /// the mean instead of panicking.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The difference `self - earlier`, for windowed rates (per-step sim
    /// reports subtract the previous step's snapshot). Saturates at zero
    /// per bucket; `max` keeps the later snapshot's value.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets,
        }
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs — the
    /// shape Prometheus histogram exposition wants.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                cum += n;
                out.push((bucket_high(idx), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB as u64 {
            let idx = bucket_index(v);
            assert_eq!(bucket_low(idx), v);
            assert_eq!(bucket_high(idx), v);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev_high = None;
        for idx in 0..NUM_BUCKETS {
            let low = bucket_low(idx);
            let high = bucket_high(idx);
            assert!(low <= high, "bucket {idx}");
            if let Some(p) = prev_high {
                assert_eq!(low, p + 1, "bucket {idx} not contiguous");
            }
            assert_eq!(bucket_index(low), idx);
            assert_eq!(bucket_index(high), idx);
            if idx + 1 == NUM_BUCKETS {
                assert_eq!(high, u64::MAX);
                break;
            }
            prev_high = Some(high);
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for idx in SUB..NUM_BUCKETS {
            let low = bucket_low(idx) as f64;
            let width = (bucket_high(idx) - bucket_low(idx)) as f64 + 1.0;
            assert!(
                width / low <= 1.0 / 32.0 + 1e-12,
                "bucket {idx}: width {width} low {low}"
            );
        }
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_match_exact_references_within_bound() {
        let mut samples: Vec<u64> = (0..4000u64)
            .map(|i| (i.wrapping_mul(2654435761) % 1_000_000) + 1)
            .collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count(), samples.len() as u64);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&samples, q);
            let est = snap.quantile(q);
            assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            assert!(
                est <= exact + exact / 32 + 1,
                "q={q}: est {est} too far above exact {exact}"
            );
        }
        assert_eq!(snap.max(), *samples.last().unwrap());
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let h = Histogram::new();
            for i in 0..n {
                h.record((i.wrapping_mul(seed) % 100_000) + 1);
            }
            h.snapshot()
        };
        let (a, b, c) = (mk(7, 500), mk(13, 300), mk(31, 800));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba);
        let mut via_empty = HistogramSnapshot::empty();
        via_empty.merge(&a);
        assert_eq!(via_empty, a);
    }

    #[test]
    fn since_subtracts_an_earlier_snapshot() {
        let h = Histogram::new();
        h.record(10);
        h.record(100);
        let first = h.snapshot();
        h.record(1000);
        h.record(10);
        let second = h.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 1010);
    }

    #[test]
    fn concurrent_record_and_snapshot_stay_self_consistent() {
        let h = Arc::new(Histogram::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        h.record((i % 10_000) * (t + 1) + 1);
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        for _ in 0..200 {
            let snap = h.snapshot();
            // count is derived from the buckets, so it always equals their sum
            assert_eq!(
                snap.count(),
                snap.cumulative_buckets().last().map_or(0, |&(_, c)| c)
            );
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(h.snapshot().count(), total);
    }

    #[test]
    fn exemplars_track_the_last_traced_sample_per_scale() {
        let h = Histogram::new();
        h.record(100); // untraced: no exemplar
        assert!(h.exemplars().is_empty());
        h.record_traced(100, 7);
        h.record_traced(120, 8); // same scale (msb 6): overwrites
        h.record_traced(5000, 9); // different scale: coexists
        h.record_traced(6000, 0); // trace 0 = untraced: never stored
        let ex = h.exemplars();
        assert_eq!(
            ex,
            vec![
                Exemplar {
                    value: 120,
                    trace_id: 8
                },
                Exemplar {
                    value: 5000,
                    trace_id: 9
                },
            ]
        );
    }

    #[test]
    fn exemplar_pairs_are_never_torn_under_racing_recorders() {
        // Each recorder writes (value, value ^ MAGIC) pairs; any torn
        // exemplar breaks the bijection and is caught by the readers.
        const MAGIC: u64 = 0x5eed_cafe_f00d_1234;
        let h = Arc::new(Histogram::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t: u64| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        // All writers hit the same handful of scales so the
                        // CAS race on a slot is actually exercised.
                        let v = (i % 1000) + 64 + t;
                        h.record_traced(v, v ^ MAGIC);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..2000 {
            for ex in h.exemplars() {
                assert_eq!(
                    ex.trace_id,
                    ex.value ^ MAGIC,
                    "torn exemplar: value {} with trace {:#x}",
                    ex.value,
                    ex.trace_id
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}
