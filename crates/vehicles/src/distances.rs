//! Abstraction over the exact / lower-bound distance backend.
//!
//! The kinetic tree and the matchers only need two operations: an exact
//! shortest-path distance and a cheap admissible lower bound. Keeping them
//! behind a trait lets unit tests plug in toy distance functions and lets
//! the engine plug in the memoising [`ptrider_roadnet::DistanceOracle`]
//! (whose counters drive the pruning-effectiveness experiment).
//!
//! The one contract the kinetic tree relies on is that
//! [`Distances::distances_from`] is the cheap entry point for same-source
//! batches: the oracle answers it with one bounded multi-target Dijkstra,
//! and [`PrefetchedDistances`] leans on it to turn the `O(k²)` leg lookups of
//! schedule verification into `k` batched searches.

use ptrider_roadnet::{DistanceOracle, VertexId};

/// Exact and lower-bound distances between road-network vertices.
pub trait Distances {
    /// Exact shortest-path distance in metres (`f64::INFINITY` if unreachable).
    fn distance(&self, u: VertexId, v: VertexId) -> f64;

    /// Admissible lower bound on [`Self::distance`]. The default
    /// implementation returns 0, which is always valid but prunes nothing.
    fn lower_bound(&self, u: VertexId, v: VertexId) -> f64 {
        let _ = (u, v);
        0.0
    }

    /// One-to-many exact distances from `source` to each of `targets`.
    ///
    /// The default implementation issues one [`Self::distance`] per target;
    /// backends that can answer the batch with a single search (the
    /// memoising oracle's bounded multi-target Dijkstra) override it.
    fn distances_from(&self, source: VertexId, targets: &[VertexId]) -> Vec<f64> {
        targets.iter().map(|&t| self.distance(source, t)).collect()
    }

    /// Whether `distance(u, v)` and `distance(v, u)` always return the same
    /// bits. `false` (the safe default) unless the backend guarantees it.
    fn is_symmetric(&self) -> bool {
        false
    }
}

impl Distances for DistanceOracle {
    fn distance(&self, u: VertexId, v: VertexId) -> f64 {
        DistanceOracle::distance(self, u, v)
    }

    fn lower_bound(&self, u: VertexId, v: VertexId) -> f64 {
        DistanceOracle::lower_bound(self, u, v)
    }

    fn distances_from(&self, source: VertexId, targets: &[VertexId]) -> Vec<f64> {
        DistanceOracle::distances_from(self, source, targets)
    }

    /// On an undirected metric every pair has one canonical cache entry and
    /// one canonical fold, so both directions return the same bits.
    fn is_symmetric(&self) -> bool {
        self.is_metric_undirected()
    }
}

impl<T: Distances + ?Sized> Distances for &T {
    fn distance(&self, u: VertexId, v: VertexId) -> f64 {
        (**self).distance(u, v)
    }

    fn lower_bound(&self, u: VertexId, v: VertexId) -> f64 {
        (**self).lower_bound(u, v)
    }

    fn distances_from(&self, source: VertexId, targets: &[VertexId]) -> Vec<f64> {
        (**self).distances_from(source, targets)
    }

    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }
}

/// A small dense distance matrix prefetched over a fixed set of locations,
/// falling back to the inner backend for pairs outside the set.
///
/// The kinetic tree evaluates every candidate schedule leg-by-leg, and all
/// legs connect points drawn from one small set (the vehicle's location,
/// its outstanding stops and the new request's pickup/drop-off). Prefetching
/// that set through [`Distances::distances_from`] turns `O(k²)` repeated
/// point-to-point searches into `k` bounded one-to-many searches — and
/// subsequent lookups are branch-free array reads.
pub struct PrefetchedDistances<'a, D: Distances> {
    inner: &'a D,
    /// Sorted, deduplicated location set.
    locations: Vec<VertexId>,
    /// Row-major `k × k` exact distances over `locations`.
    matrix: Vec<f64>,
}

impl<'a, D: Distances> PrefetchedDistances<'a, D> {
    /// Prefetches the full pairwise matrix over `locations` (duplicates are
    /// removed) with one batched query per distinct location. On a
    /// symmetric backend only the upper triangle is queried and mirrored:
    /// half the lookups, the same bits.
    pub fn new(inner: &'a D, mut locations: Vec<VertexId>) -> Self {
        locations.sort_unstable();
        locations.dedup();
        let k = locations.len();
        let mut matrix = vec![0.0; k * k];
        let symmetric = inner.is_symmetric();
        for (i, &src) in locations.iter().enumerate() {
            let first = if symmetric { i + 1 } else { 0 };
            let row = inner.distances_from(src, &locations[first..]);
            for (j, d) in (first..k).zip(row) {
                matrix[i * k + j] = d;
                if symmetric {
                    matrix[j * k + i] = d;
                }
            }
        }
        PrefetchedDistances {
            inner,
            locations,
            matrix,
        }
    }

    /// The distinct locations covered by the matrix.
    pub fn locations(&self) -> &[VertexId] {
        &self.locations
    }

    #[inline]
    fn index_of(&self, v: VertexId) -> Option<usize> {
        self.locations.binary_search(&v).ok()
    }
}

impl<D: Distances> Distances for PrefetchedDistances<'_, D> {
    fn distance(&self, u: VertexId, v: VertexId) -> f64 {
        match (self.index_of(u), self.index_of(v)) {
            (Some(i), Some(j)) => self.matrix[i * self.locations.len() + j],
            _ => self.inner.distance(u, v),
        }
    }

    fn lower_bound(&self, u: VertexId, v: VertexId) -> f64 {
        self.inner.lower_bound(u, v)
    }

    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }

    fn distances_from(&self, source: VertexId, targets: &[VertexId]) -> Vec<f64> {
        if let Some(i) = self.index_of(source) {
            if targets.iter().all(|t| self.index_of(*t).is_some()) {
                let row = i * self.locations.len();
                return targets
                    .iter()
                    .map(|t| self.matrix[row + self.index_of(*t).unwrap()])
                    .collect();
            }
        }
        self.inner.distances_from(source, targets)
    }
}

/// Adapter turning a plain closure into a [`Distances`] backend
/// (lower bound is the trivial 0). Handy in unit tests.
pub struct FnDistances<F>(pub F);

impl<F: Fn(VertexId, VertexId) -> f64> Distances for FnDistances<F> {
    fn distance(&self, u: VertexId, v: VertexId) -> f64 {
        (self.0)(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_distances_delegates() {
        let d = FnDistances(|u: VertexId, v: VertexId| (u.0 as f64 - v.0 as f64).abs() * 10.0);
        assert_eq!(d.distance(VertexId(3), VertexId(7)), 40.0);
        assert_eq!(d.lower_bound(VertexId(3), VertexId(7)), 0.0);
    }

    #[test]
    fn reference_impl_delegates() {
        let d = FnDistances(|_, _| 5.0);
        let r: &dyn Distances = &d;
        assert_eq!(r.distance(VertexId(0), VertexId(1)), 5.0);
        assert_eq!(d.distance(VertexId(0), VertexId(1)), 5.0);
    }

    #[test]
    fn distances_from_defaults_to_per_target_queries() {
        let d = FnDistances(|u: VertexId, v: VertexId| (u.0 as f64 - v.0 as f64).abs());
        let out = d.distances_from(VertexId(5), &[VertexId(1), VertexId(5), VertexId(9)]);
        assert_eq!(out, vec![4.0, 0.0, 4.0]);
    }

    /// A symmetric backend that counts the lookups it serves.
    struct CountingSymmetric(std::cell::Cell<usize>);

    impl Distances for CountingSymmetric {
        fn distance(&self, u: VertexId, v: VertexId) -> f64 {
            self.0.set(self.0.get() + 1);
            (u.0 as f64 - v.0 as f64).abs() * 10.0
        }

        fn is_symmetric(&self) -> bool {
            true
        }
    }

    #[test]
    fn a_symmetric_backend_is_queried_for_the_upper_triangle_only() {
        let d = CountingSymmetric(std::cell::Cell::new(0));
        let locations = vec![VertexId(3), VertexId(1), VertexId(7), VertexId(12)];
        let pre = PrefetchedDistances::new(&d, locations);
        assert_eq!(d.0.get(), 6, "k(k-1)/2 pairs for k = 4");
        for &u in pre.locations() {
            for &v in pre.locations() {
                assert_eq!(pre.distance(u, v), (u.0 as f64 - v.0 as f64).abs() * 10.0);
            }
        }
    }

    #[test]
    fn prefetched_matrix_matches_inner_backend() {
        let d = FnDistances(|u: VertexId, v: VertexId| (u.0 as f64 - v.0 as f64).abs() * 10.0);
        let pre =
            PrefetchedDistances::new(&d, vec![VertexId(3), VertexId(1), VertexId(3), VertexId(7)]);
        assert_eq!(pre.locations(), &[VertexId(1), VertexId(3), VertexId(7)]);
        for &u in pre.locations() {
            for &v in pre.locations() {
                assert_eq!(pre.distance(u, v), d.distance(u, v));
            }
        }
        // Pairs outside the set fall back to the inner backend.
        assert_eq!(pre.distance(VertexId(1), VertexId(100)), 990.0);
        assert_eq!(
            pre.distances_from(VertexId(3), &[VertexId(1), VertexId(7)]),
            vec![20.0, 40.0]
        );
    }
}
