//! Order statistics: the percentile rule, block medians and the quartiles
//! `compare` judges spreads with.

/// Percentiles a tail may be reported at, lowest first, in hundredths of
/// a percent (integers, so "ten samples beyond" is counted exactly).
const TAIL_LADDER: [usize; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty series");
    // The epsilon keeps 0.99 × 1000 (990.0000000000001 in binary) at 990.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it, or `None` when even the median has fewer (n < 20).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|p| samples * (10_000 - **p) / 10_000 >= 10)
        .map(|p| *p as f64 / 10_000.0)
}

/// Median of an unsorted series (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver computes spreads with. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        // Like Python, extrapolate when the clamp moved `j` (tiny series).
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Latencies of one workload, kept per block so a percentile is taken
/// inside each block and the blocks' median is reported: one disturbed
/// block (a noisy neighbour, a page-cache flush) then moves nothing.
#[derive(Default)]
pub struct BlockLatencies {
    blocks: Vec<Vec<f64>>,
}

/// What a latency series reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Median of the per-block medians.
    pub p50: f64,
    /// Median of the per-block tail percentiles.
    pub tail: f64,
    /// Which percentile `tail` is (0.99 when every block has
    /// a thousand samples; lower when the blocks are short).
    pub tail_percentile: f64,
    /// Samples over all blocks.
    pub samples: usize,
    /// Number of blocks.
    pub blocks: usize,
}

impl BlockLatencies {
    pub fn push_block(&mut self, mut block: Vec<f64>) {
        if !block.is_empty() {
            block.sort_by(f64::total_cmp);
            self.blocks.push(block);
        }
    }

    pub fn samples(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Every sample, ascending.
    pub fn pooled(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.blocks.iter().flatten().copied().collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// The given percentile of every block, in block order.
    pub fn per_block(&self, p: f64) -> Vec<f64> {
        self.blocks.iter().map(|b| percentile(b, p)).collect()
    }

    /// Block medians of the median and of the highest percentile (capped at
    /// p99, the gated one) the *shortest* block supports. `None` when a
    /// block is too short for any tail.
    pub fn summary(&self) -> Option<LatencySummary> {
        let shortest = self.blocks.iter().map(Vec::len).min()?;
        let tail_percentile = tail_percentile(shortest)?.min(0.99);
        let of = |p: f64| median(&self.per_block(p));
        Some(LatencySummary {
            p50: of(0.50),
            tail: of(tail_percentile),
            tail_percentile,
            samples: self.samples(),
            blocks: self.blocks.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(99), Some(0.50));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Exactly ten samples lie beyond the p99 of a thousand.
        assert_eq!(v.iter().filter(|x| **x > percentile(&v, 0.99)).count(), 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), [2.5, 4.0, 5.5]);
    }

    #[test]
    fn block_summary_takes_medians_across_blocks() {
        let mut lat = BlockLatencies::default();
        for shift in [0.0, 100.0, 1.0] {
            lat.push_block((1..=1000).map(|i| f64::from(i) + shift).collect());
        }
        let s = lat.summary().unwrap();
        assert_eq!(s.tail_percentile, 0.99);
        // The disturbed middle block (+100) is voted out by the median.
        assert_eq!((s.p50, s.tail), (501.0, 991.0));
        assert_eq!((s.samples, s.blocks), (3000, 3));

        let mut short = BlockLatencies::default();
        short.push_block((1..=150).map(f64::from).collect());
        assert_eq!(short.summary().unwrap().tail_percentile, 0.90);
        short.push_block(vec![1.0; 5]);
        assert_eq!(short.summary(), None);
    }
}
