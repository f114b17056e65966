//! Bidirectional upward point query with stall-on-demand and exact path
//! unpacking.
//!
//! Every shortest path in a contraction hierarchy can be written as an
//! *up-down* path: ranks strictly increase from the source to some apex
//! vertex and strictly decrease from there to the target. The query
//! therefore runs two Dijkstra searches that both climb: a forward search
//! from `s` relaxing the upward arcs, and a backward search from `t`
//! relaxing the downward arcs in reverse. Whenever a vertex carries labels
//! from both sides, their sum is a candidate distance; the smallest such
//! candidate over all meeting vertices is exact.
//!
//! **Termination** is per-direction: a side stops once the smallest key in
//! its frontier is no smaller than the best candidate found so far (the
//! plain bidirectional `topf + topb ≥ best` test is wrong here because the
//! two searches do not partition one shortest path).
//!
//! **Stall-on-demand**: when the forward search settles `u`, it checks the
//! *downward* arcs into `u` — if some higher-ranked `x` already has a
//! forward label with `dist(x) + w(x→u) < dist(u)`, then `u`'s label is not
//! part of any shortest up-down path and its expansion is skipped
//! (symmetrically for the backward side via the upward arcs). The meeting
//! check still runs for stalled vertices — their labels are genuine path
//! lengths, so using them can only tighten the candidate, never corrupt it.
//!
//! **Unpacking**: shortcut weights are nested sums (`w₁ + w₂` where either
//! side may itself be a shortcut), so the raw candidate `d_f + d_b` can
//! differ from Dijkstra's left-to-right fold of the same path in the last
//! float bit. The query therefore walks the parent pointers of both search
//! trees from the best meeting vertex, expands every shortcut into its
//! original edges ([`ContractionHierarchy::unpack_arc`]), and re-folds the
//! weights in `s → t` order — returning exactly the `f64` Dijkstra produces
//! for that path. The skylines of the matchers are tie-sensitive, so this
//! bit-level agreement is what makes the backends interchangeable.

use super::ContractionHierarchy;
use crate::scratch::with_scratch_pair;
use crate::types::{VertexId, INFINITE_DISTANCE};

/// Result of a settle-capped bidirectional upward query
/// ([`bounded_distance`]).
pub(crate) enum Bounded {
    /// Both upward search spaces were exhausted within the cap: the exact
    /// distance, unpacked and re-folded like [`distance`] (bit-identical to
    /// Dijkstra; `INFINITE_DISTANCE` when unreachable).
    Exact(f64),
    /// The cap was hit first: a value guaranteed not to exceed the exact
    /// distance.
    AtLeast(f64),
}

/// Settle-capped variant of [`distance`] serving the oracle's `lower_bound`
/// on the CH backend: tiny upward spaces resolve **exactly** (and the
/// caller can cache the answer); larger ones yield an admissible truncated
/// bound in `O(settle_cap · log)` regardless of graph size.
///
/// Why the truncated bound is admissible: let `P` be a shortest up-down
/// path of length `d*` and consider the moment the cap fires. On each side,
/// either every vertex of `P`'s leg is settled with final labels — in which
/// case the meeting check has already pushed `best ≤ d*` — or the first
/// unsettled vertex of the leg still sits in that side's frontier with a
/// key that is a prefix length of `P`, hence `≤ d*`. So
/// `min(best, top_f, top_b) ≤ d*` in real arithmetic. A final `1 - 1e-9`
/// haircut absorbs float association differences between frontier-key sums
/// and Dijkstra's path-order fold (relative error bounded by a few ulps per
/// term; the margin is ~4 orders looser), so the returned bound never
/// exceeds the exact folded distance even bit-wise.
pub(crate) fn bounded_distance(
    ch: &ContractionHierarchy,
    s: u32,
    t: u32,
    settle_cap: usize,
) -> Bounded {
    if s == t {
        return Bounded::Exact(0.0);
    }
    let (up, down) = ch.graphs();
    let n = ch.num_vertices();
    with_scratch_pair(|f, b| {
        f.begin(n);
        b.begin(n);
        f.set(VertexId(s), 0.0);
        f.push(0.0, VertexId(s));
        b.set(VertexId(t), 0.0);
        b.push(0.0, VertexId(t));
        let mut best = INFINITE_DISTANCE;
        let mut meet = u32::MAX;
        let mut settles = 0usize;
        loop {
            let top_f = f.peek().map(|(k, _)| k).unwrap_or(INFINITE_DISTANCE);
            let top_b = b.peek().map(|(k, _)| k).unwrap_or(INFINITE_DISTANCE);
            let min_top = top_f.min(top_b);
            if min_top >= best || min_top.is_infinite() {
                break;
            }
            if settles >= settle_cap {
                let bound = best.min(min_top) * (1.0 - 1e-9);
                return Bounded::AtLeast(bound.max(0.0));
            }
            if top_f <= top_b {
                let Some((d, u)) = f.pop() else { break };
                if d > f.get(u) {
                    continue; // stale frontier entry
                }
                settles += 1;
                let db = b.get(u);
                if db.is_finite() && d + db < best {
                    best = d + db;
                    meet = u.0;
                }
                let stalled = down.arcs(u.0).any(|(x, w)| f.get(VertexId(x)) + w < d);
                if stalled {
                    continue;
                }
                for (x, w) in up.arcs(u.0) {
                    let nd = d + w;
                    if f.relax(VertexId(x), nd, u) {
                        f.push(nd, VertexId(x));
                    }
                }
            } else {
                let Some((d, u)) = b.pop() else { break };
                if d > b.get(u) {
                    continue;
                }
                settles += 1;
                let df = f.get(u);
                if df.is_finite() && d + df < best {
                    best = d + df;
                    meet = u.0;
                }
                let stalled = up.arcs(u.0).any(|(x, w)| b.get(VertexId(x)) + w < d);
                if stalled {
                    continue;
                }
                for (x, w) in down.arcs(u.0) {
                    let nd = d + w;
                    if b.relax(VertexId(x), nd, u) {
                        b.push(nd, VertexId(x));
                    }
                }
            }
        }
        if meet == u32::MAX {
            return Bounded::Exact(INFINITE_DISTANCE);
        }
        // Complete: unpack exactly like the full query.
        let mut total = 0.0;
        let mut fwd_chain = vec![meet];
        let mut cur = VertexId(meet);
        while let Some(p) = f.parent_of(cur) {
            fwd_chain.push(p.0);
            cur = p;
        }
        debug_assert_eq!(*fwd_chain.last().unwrap(), s);
        for pair in fwd_chain.windows(2).rev() {
            ch.unpack_arc(pair[1], pair[0], &mut total);
        }
        let mut cur = VertexId(meet);
        while let Some(p) = b.parent_of(cur) {
            ch.unpack_arc(cur.0, p.0, &mut total);
            cur = p;
        }
        debug_assert_eq!(cur.0, t);
        Bounded::Exact(total)
    })
}

/// Point query over internal (rank) ids.
pub(super) fn distance(ch: &ContractionHierarchy, s: u32, t: u32) -> f64 {
    if s == t {
        return 0.0;
    }
    let (up, down) = ch.graphs();
    let n = ch.num_vertices();
    with_scratch_pair(|f, b| {
        f.begin(n);
        b.begin(n);
        f.set(VertexId(s), 0.0);
        f.push(0.0, VertexId(s));
        b.set(VertexId(t), 0.0);
        b.push(0.0, VertexId(t));
        let mut best = INFINITE_DISTANCE;
        let mut meet = u32::MAX;
        loop {
            let top_f = f.peek().map(|(k, _)| k).unwrap_or(INFINITE_DISTANCE);
            let top_b = b.peek().map(|(k, _)| k).unwrap_or(INFINITE_DISTANCE);
            let min_top = top_f.min(top_b);
            if min_top >= best || min_top.is_infinite() {
                break;
            }
            if top_f <= top_b {
                let Some((d, u)) = f.pop() else { break };
                if d > f.get(u) {
                    continue; // stale frontier entry
                }
                let db = b.get(u);
                if db.is_finite() && d + db < best {
                    best = d + db;
                    meet = u.0;
                }
                // Stall: a higher-ranked vertex reaches u more cheaply, so
                // no shortest up-path extends through this label.
                let stalled = down.arcs(u.0).any(|(x, w)| f.get(VertexId(x)) + w < d);
                if stalled {
                    continue;
                }
                for (x, w) in up.arcs(u.0) {
                    let nd = d + w;
                    if f.relax(VertexId(x), nd, u) {
                        f.push(nd, VertexId(x));
                    }
                }
            } else {
                let Some((d, u)) = b.pop() else { break };
                if d > b.get(u) {
                    continue;
                }
                let df = f.get(u);
                if df.is_finite() && d + df < best {
                    best = d + df;
                    meet = u.0;
                }
                let stalled = up.arcs(u.0).any(|(x, w)| b.get(VertexId(x)) + w < d);
                if stalled {
                    continue;
                }
                for (x, w) in down.arcs(u.0) {
                    let nd = d + w;
                    if b.relax(VertexId(x), nd, u) {
                        b.push(nd, VertexId(x));
                    }
                }
            }
        }
        if meet == u32::MAX {
            return INFINITE_DISTANCE;
        }

        // Unpack the winning up-down path and re-fold its original edge
        // weights in s → t order, reproducing Dijkstra's sum bit-for-bit.
        let mut total = 0.0;
        let mut fwd_chain = vec![meet];
        let mut cur = VertexId(meet);
        while let Some(p) = f.parent_of(cur) {
            fwd_chain.push(p.0);
            cur = p;
        }
        debug_assert_eq!(*fwd_chain.last().unwrap(), s);
        for pair in fwd_chain.windows(2).rev() {
            // fwd_chain runs meet → s; reversed windows give s → meet arcs.
            ch.unpack_arc(pair[1], pair[0], &mut total);
        }
        let mut cur = VertexId(meet);
        while let Some(p) = b.parent_of(cur) {
            ch.unpack_arc(cur.0, p.0, &mut total);
            cur = p;
        }
        debug_assert_eq!(cur.0, t);
        total
    })
}

#[cfg(test)]
mod tests {
    use super::super::ContractionHierarchy;
    use crate::dijkstra;
    use crate::graph::RoadNetworkBuilder;

    #[test]
    fn query_alternates_and_terminates_on_asymmetric_weights() {
        // A ladder where one rail is cheap and the other expensive, so the
        // two search frontiers advance at very different rates.
        let mut b = RoadNetworkBuilder::new();
        let k = 6usize;
        let lo: Vec<_> = (0..k)
            .map(|i| b.add_vertex(i as f64 * 100.0, 0.0))
            .collect();
        let hi: Vec<_> = (0..k)
            .map(|i| b.add_vertex(i as f64 * 100.0, 100.0))
            .collect();
        for i in 0..k - 1 {
            b.add_bidirectional_edge(lo[i], lo[i + 1], 10.0);
            b.add_bidirectional_edge(hi[i], hi[i + 1], 500.0);
        }
        for i in 0..k {
            b.add_bidirectional_edge(lo[i], hi[i], 50.0);
        }
        let net = b.build().unwrap();
        let ch = ContractionHierarchy::build(&net).unwrap();
        for u in net.vertices() {
            for v in net.vertices() {
                let exact = dijkstra::distance(&net, u, v).unwrap();
                let got = ch.distance(u, v);
                assert_eq!(got, exact, "{u}->{v}: {got} vs {exact}");
            }
        }
    }

    #[test]
    fn unpacked_sums_match_dijkstra_bit_for_bit_on_irrational_weights() {
        // Weights whose partial sums are association-sensitive: if the
        // query returned raw shortcut sums, these would differ in the last
        // bits; with unpacking they must be identical.
        let mut b = RoadNetworkBuilder::new();
        let k = 12usize;
        let vs: Vec<_> = (0..k).map(|i| b.add_vertex(i as f64 * 97.0, 0.0)).collect();
        for i in 0..k - 1 {
            let w = 100.0 + (i as f64 * 0.7).sin() * 13.37 + 1.0 / (i as f64 + 3.0);
            b.add_bidirectional_edge(vs[i], vs[i + 1], w);
        }
        let net = b.build().unwrap();
        let ch = ContractionHierarchy::build(&net).unwrap();
        for u in net.vertices() {
            for v in net.vertices() {
                let exact = dijkstra::distance(&net, u, v).unwrap();
                let got = ch.distance(u, v);
                assert!(
                    got.to_bits() == exact.to_bits(),
                    "{u}->{v}: ch {got:?} vs dijkstra {exact:?}"
                );
            }
        }
    }
}
