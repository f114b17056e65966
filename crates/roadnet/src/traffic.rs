//! Live-traffic metric overlays: epoch-versioned multiplicative edge
//! factors over the free-flow network.
//!
//! A [`TrafficModel`] carries one factor per CSR arc of a specific
//! [`RoadNetwork`]. Factors are **multiplicative over free-flow and
//! constrained to ≥ 1.0**: congestion can only make an edge slower, never
//! faster than the build-time metric. That single invariant is what keeps
//! the whole pruning stack sound without any per-epoch recomputation:
//!
//! * the Euclidean bound `euclid(u, v) · min_weight_ratio` of the *base*
//!   network lower-bounds the base distance, which lower-bounds the traffic
//!   distance (every edge of every path only got heavier);
//! * the grid-index border tables and the landmark tables, both built on
//!   the base metric, lower-bound base distances and hence traffic
//!   distances for the same reason;
//! * the candidate-disk radii of the vehicle index
//!   (`max_pickup_dist / min_weight_ratio` on the base network) can only
//!   *over*-approximate under traffic — the set of vehicles within a given
//!   traffic road distance shrinks as factors grow, so the base-metric disk
//!   still contains every candidate.
//!
//! See DESIGN.md "Traffic model" for the full soundness argument. Factors
//! are **absolute** multipliers over free-flow, not compounding deltas:
//! applying the same model twice yields the same metric, and resetting a
//! factor to `1.0` restores the original weight bit-for-bit (`w * 1.0 ==
//! w`).
//!
//! The model is a plain value: mutate it (each batch mutation bumps its
//! [`TrafficModel::version`]) and hand it to
//! [`crate::DistanceOracle::apply_traffic`] — or the engine-level
//! `apply_traffic_update` entry points — which scale the weights, swap the
//! metric in and invalidate the memo cache under a fresh epoch.

use crate::graph::RoadNetwork;
use crate::types::VertexId;
use serde::{Deserialize, Serialize};

/// One edge-level congestion observation: every directed arc `from → to`
/// (there may be parallel arcs) takes `factor` × its free-flow weight.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficEdge {
    /// Source vertex of the congested arc(s).
    pub from: VertexId,
    /// Target vertex of the congested arc(s).
    pub to: VertexId,
    /// Multiplicative slowdown over free-flow; must be finite and ≥ 1.0.
    pub factor: f64,
}

/// Per-arc multiplicative traffic factors over a specific network.
///
/// Bound to the network it was created from (arc count is the tie); all
/// factors are ≥ 1.0 by construction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficModel {
    /// One factor per CSR arc index of the network.
    factors: Vec<f64>,
    /// Bumped on every batch mutation; purely an observability aid (the
    /// oracle keeps its own metric epoch, stamped on cache entries).
    version: u64,
}

/// Panics unless `factor` is a valid traffic factor (finite, ≥ 1.0).
#[inline]
fn check_factor(factor: f64) {
    assert!(
        factor.is_finite() && factor >= 1.0,
        "traffic factors must be finite and >= 1.0 (got {factor}); \
         slowdowns only — factor decreases would break the base-metric lower bounds"
    );
}

impl TrafficModel {
    /// A free-flow model over `net`: every factor is exactly 1.0.
    pub fn free_flow(net: &RoadNetwork) -> Self {
        TrafficModel {
            factors: vec![1.0; net.num_directed_edges()],
            version: 0,
        }
    }

    /// A uniform congestion model: every arc takes `factor` × free-flow.
    ///
    /// # Panics
    /// Panics if `factor` is not finite or is below 1.0.
    pub fn uniform(net: &RoadNetwork, factor: f64) -> Self {
        check_factor(factor);
        TrafficModel {
            factors: vec![factor; net.num_directed_edges()],
            version: 0,
        }
    }

    /// Number of per-arc factors (the network's directed-arc count).
    pub fn num_arcs(&self) -> usize {
        self.factors.len()
    }

    /// Version counter, bumped once per batch mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The factor of the CSR arc at `index`.
    pub fn factor(&self, index: usize) -> f64 {
        self.factors[index]
    }

    /// All per-arc factors, indexed by CSR arc index.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// Sets the factor of one CSR arc (no version bump; use the batch
    /// mutators for observable updates).
    ///
    /// # Panics
    /// Panics on an out-of-range index or an invalid factor.
    pub fn set_arc_factor(&mut self, index: usize, factor: f64) {
        check_factor(factor);
        self.factors[index] = factor;
    }

    /// Sets the factor of every arc `from → to` (parallel arcs included).
    /// Returns how many arcs matched.
    ///
    /// # Panics
    /// Panics on an invalid factor or a vertex outside the network.
    pub fn set_directed_factor(
        &mut self,
        net: &RoadNetwork,
        from: VertexId,
        to: VertexId,
        factor: f64,
    ) -> usize {
        check_factor(factor);
        debug_assert_eq!(self.factors.len(), net.num_directed_edges());
        let mut touched = 0;
        for i in net.out_arc_range(from) {
            if net.arc_target(i) == to {
                self.factors[i] = factor;
                touched += 1;
            }
        }
        touched
    }

    /// Sets the factor of every arc in **both** directions between `u` and
    /// `v` — the symmetric form road-segment congestion usually takes on
    /// undirected networks (symmetric factors preserve undirectedness).
    /// Returns how many arcs matched.
    pub fn set_segment_factor(
        &mut self,
        net: &RoadNetwork,
        u: VertexId,
        v: VertexId,
        factor: f64,
    ) -> usize {
        self.set_directed_factor(net, u, v, factor) + self.set_directed_factor(net, v, u, factor)
    }

    /// Applies a batch of edge observations and bumps the version. Returns
    /// the number of arcs touched.
    pub fn apply_update(&mut self, net: &RoadNetwork, edges: &[TrafficEdge]) -> usize {
        let mut touched = 0;
        for e in edges {
            touched += self.set_directed_factor(net, e.from, e.to, e.factor);
        }
        self.version += 1;
        touched
    }

    /// Resets every factor to free flow (1.0) and bumps the version.
    pub fn reset(&mut self) {
        self.factors.fill(1.0);
        self.version += 1;
    }

    /// Bumps the version (for callers that mutate through the per-arc
    /// setters and want the batch to be observable as one update).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Number of arcs currently above free flow.
    pub fn congested_arcs(&self) -> usize {
        self.factors.iter().filter(|&&f| f > 1.0).count()
    }

    /// The largest factor in the model (1.0 when fully free-flow).
    pub fn max_factor(&self) -> f64 {
        self.factors.iter().copied().fold(1.0, f64::max)
    }

    /// The scaled per-arc weights `base_weight[i] * factor[i]` — the metric
    /// the oracle swaps in via [`RoadNetwork::with_metric`]. A fresh network
    /// built over the same products answers bit-identically to the swapped
    /// metric.
    ///
    /// # Panics
    /// Panics if the model was built for a network with a different arc
    /// count.
    pub fn scaled_weights(&self, net: &RoadNetwork) -> Vec<f64> {
        assert_eq!(
            self.factors.len(),
            net.num_directed_edges(),
            "traffic model built for a different network (arc count mismatch)"
        );
        (0..self.factors.len())
            .map(|i| net.arc_weight(i) * self.factors[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;

    fn line() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(200.0, 0.0);
        b.add_bidirectional_edge(v0, v1, 100.0);
        b.add_bidirectional_edge(v1, v2, 100.0);
        b.build().unwrap()
    }

    #[test]
    fn free_flow_scales_to_the_base_metric_bit_for_bit() {
        let net = line();
        let model = TrafficModel::free_flow(&net);
        assert_eq!(model.num_arcs(), net.num_directed_edges());
        assert_eq!(model.congested_arcs(), 0);
        assert_eq!(model.max_factor(), 1.0);
        let scaled = model.scaled_weights(&net);
        for (i, w) in scaled.iter().enumerate() {
            assert_eq!(w.to_bits(), net.arc_weight(i).to_bits());
        }
        let metric = net.with_metric(scaled).unwrap();
        assert!(metric.is_undirected());
        assert_eq!(
            metric.min_weight_ratio().to_bits(),
            net.min_weight_ratio().to_bits()
        );
    }

    #[test]
    fn segment_factor_touches_both_directions() {
        let net = line();
        let mut model = TrafficModel::free_flow(&net);
        let touched = model.set_segment_factor(&net, VertexId(0), VertexId(1), 2.5);
        assert_eq!(touched, 2);
        assert_eq!(model.congested_arcs(), 2);
        assert_eq!(model.max_factor(), 2.5);
        let metric = net.with_metric(model.scaled_weights(&net)).unwrap();
        // Symmetric factors keep the network undirected.
        assert!(metric.is_undirected());
        assert_eq!(
            crate::dijkstra::distance(&metric, VertexId(0), VertexId(2)),
            Some(350.0)
        );
    }

    #[test]
    fn asymmetric_factor_breaks_undirectedness() {
        let net = line();
        let mut model = TrafficModel::free_flow(&net);
        assert_eq!(
            model.set_directed_factor(&net, VertexId(0), VertexId(1), 3.0),
            1
        );
        let metric = net.with_metric(model.scaled_weights(&net)).unwrap();
        assert!(!metric.is_undirected());
        assert_eq!(
            crate::dijkstra::distance(&metric, VertexId(0), VertexId(1)),
            Some(300.0)
        );
        assert_eq!(
            crate::dijkstra::distance(&metric, VertexId(1), VertexId(0)),
            Some(100.0)
        );
    }

    #[test]
    fn apply_update_bumps_version_and_reset_restores_free_flow() {
        let net = line();
        let mut model = TrafficModel::free_flow(&net);
        assert_eq!(model.version(), 0);
        let touched = model.apply_update(
            &net,
            &[TrafficEdge {
                from: VertexId(1),
                to: VertexId(2),
                factor: 4.0,
            }],
        );
        assert_eq!(touched, 1);
        assert_eq!(model.version(), 1);
        model.reset();
        assert_eq!(model.version(), 2);
        assert_eq!(model.congested_arcs(), 0);
        let scaled = model.scaled_weights(&net);
        for (i, w) in scaled.iter().enumerate() {
            assert_eq!(w.to_bits(), net.arc_weight(i).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "factors must be finite and >= 1.0")]
    fn sub_unit_factor_is_rejected() {
        let net = line();
        let mut model = TrafficModel::free_flow(&net);
        model.set_arc_factor(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "factors must be finite and >= 1.0")]
    fn non_finite_factor_is_rejected() {
        let net = line();
        let _ = TrafficModel::uniform(&net, f64::INFINITY);
    }

    #[test]
    fn metric_length_mismatch_is_rejected() {
        let net = line();
        assert!(matches!(
            net.with_metric(vec![1.0]).unwrap_err(),
            crate::RoadNetError::MetricLengthMismatch {
                expected: 4,
                got: 1
            }
        ));
    }
}
