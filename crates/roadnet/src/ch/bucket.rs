//! Many-to-many bucket query: one-to-many distances over a contraction
//! hierarchy.
//!
//! The matchers batch their verification distances through
//! [`crate::DistanceOracle::distances_from`]; on the ALT backend that is a
//! bounded multi-target Dijkstra whose ball radius is the furthest miss. A
//! hierarchy answers the same batch with the bucket scheme of Knopp et al.:
//!
//! 1. for every (distinct) target `t`, run the *backward* upward search from
//!    `t` and deposit an entry `(t, dist(u → t))` in the bucket of every
//!    vertex `u` it settles;
//! 2. run one *forward* upward search from the source; every settled vertex
//!    `u` scans its bucket and proposes `dist(s → u) + dist(u → t)` for each
//!    entry.
//!
//! Each search touches only an upward search space (hundreds of vertices on
//! a city graph), so the batch costs `k + 1` tiny searches — and unlike the
//! multi-target Dijkstra its cost does not grow with the geometric spread of
//! the targets. Stall-on-demand prunes expansions in both phases; stalled
//! vertices still deposit/scan buckets (their labels are genuine path
//! lengths, so candidates derived from them are upper bounds that can only
//! be tightened, and the optimal meeting vertex is never stalled).
//!
//! Results are **unpacked** exactly like the point query: bucket entries
//! remember their parent toward the target, so the winning up-down path per
//! target can be reconstructed, expanded into original edges and re-folded
//! in path order — keeping batch answers bit-identical to point queries and
//! to Dijkstra.

use super::ContractionHierarchy;
use crate::scratch::with_scratch;
use crate::types::{VertexId, INFINITE_DISTANCE};
use std::collections::HashMap;

/// Bucket entry at vertex `u` for one target: `(target slot, dist(u → t),
/// parent vertex toward t, or u32::MAX when u is the target itself)`.
type Entry = (u32, f64, u32);

pub(super) fn distances_from(ch: &ContractionHierarchy, source: u32, targets: &[u32]) -> Vec<f64> {
    if targets.is_empty() {
        return Vec::new();
    }
    let (up, down) = ch.graphs();
    let n = ch.num_vertices();

    // Deduplicate targets into slots so repeated targets share one backward
    // search and one bucket entry set.
    let mut slot_of: HashMap<u32, usize> = HashMap::with_capacity(targets.len());
    let mut distinct: Vec<u32> = Vec::with_capacity(targets.len());
    for &t in targets {
        slot_of.entry(t).or_insert_with(|| {
            distinct.push(t);
            distinct.len() - 1
        });
    }

    let mut buckets: HashMap<u32, Vec<Entry>> = HashMap::new();
    for (slot, &t) in distinct.iter().enumerate() {
        if t == source {
            continue; // answered trivially below, no search needed
        }
        with_scratch(|s| {
            s.begin(n);
            s.set(VertexId(t), 0.0);
            s.push(0.0, VertexId(t));
            while let Some((d, u)) = s.pop() {
                if d > s.get(u) {
                    continue;
                }
                let parent = s.parent_of(u).map(|p| p.0).unwrap_or(u32::MAX);
                buckets
                    .entry(u.0)
                    .or_default()
                    .push((slot as u32, d, parent));
                // Backward stall: some higher-ranked x reaches t more
                // cheaply through u than u's own label claims.
                if up.arcs(u.0).any(|(x, w)| s.get(VertexId(x)) + w < d) {
                    continue;
                }
                for (x, w) in down.arcs(u.0) {
                    let nd = d + w;
                    if s.relax(VertexId(x), nd, u) {
                        s.push(nd, VertexId(x));
                    }
                }
            }
        });
    }

    // Forward upward search; per slot, remember the best candidate and its
    // meeting vertex for unpacking.
    let mut best = vec![INFINITE_DISTANCE; distinct.len()];
    let mut meet = vec![u32::MAX; distinct.len()];
    with_scratch(|s| {
        s.begin(n);
        s.set(VertexId(source), 0.0);
        s.push(0.0, VertexId(source));
        while let Some((d, u)) = s.pop() {
            if d > s.get(u) {
                continue;
            }
            if let Some(entries) = buckets.get(&u.0) {
                for &(slot, bd, _) in entries {
                    let cand = d + bd;
                    if cand < best[slot as usize] {
                        best[slot as usize] = cand;
                        meet[slot as usize] = u.0;
                    }
                }
            }
            if down.arcs(u.0).any(|(x, w)| s.get(VertexId(x)) + w < d) {
                continue;
            }
            for (x, w) in up.arcs(u.0) {
                let nd = d + w;
                if s.relax(VertexId(x), nd, u) {
                    s.push(nd, VertexId(x));
                }
            }
        }

        // Unpack each reachable target's winning path while the forward
        // parent tree is still alive in this scratch.
        let mut fwd_chain = Vec::new();
        for slot in 0..distinct.len() {
            let m = meet[slot];
            if m == u32::MAX {
                continue;
            }
            let mut total = 0.0;
            fwd_chain.clear();
            fwd_chain.push(m);
            let mut cur = VertexId(m);
            while let Some(p) = s.parent_of(cur) {
                fwd_chain.push(p.0);
                cur = p;
            }
            debug_assert_eq!(*fwd_chain.last().unwrap(), source);
            for pair in fwd_chain.windows(2).rev() {
                ch.unpack_arc(pair[1], pair[0], &mut total);
            }
            // Backward chain: follow bucket parents from the meeting vertex
            // to the target.
            let mut cur = m;
            loop {
                let entry = buckets
                    .get(&cur)
                    .and_then(|es| es.iter().find(|e| e.0 == slot as u32))
                    .expect("bucket chain: settled vertices carry entries");
                let parent = entry.2;
                if parent == u32::MAX {
                    break; // reached the target
                }
                ch.unpack_arc(cur, parent, &mut total);
                cur = parent;
            }
            debug_assert_eq!(cur, distinct[slot]);
            best[slot] = total;
        }
    });
    if let Some(&slot) = slot_of.get(&source) {
        best[slot] = 0.0;
    }

    targets.iter().map(|t| best[slot_of[t]]).collect()
}

#[cfg(test)]
mod tests {
    use super::super::ContractionHierarchy;
    use crate::dijkstra;
    use crate::graph::RoadNetworkBuilder;
    use crate::types::VertexId;

    #[test]
    fn buckets_handle_duplicates_source_and_unreachable_targets() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(200.0, 0.0);
        let island = b.add_vertex(900.0, 900.0);
        b.add_bidirectional_edge(v0, v1, 100.0);
        b.add_directed_edge(v1, v2, 30.0);
        let net = b.build().unwrap();
        let ch = ContractionHierarchy::build(&net).unwrap();
        let targets = vec![v2, v0, island, v2, v1];
        let got = ch.distances_from(v0, &targets);
        assert_eq!(got.len(), targets.len());
        for (t, d) in targets.iter().zip(&got) {
            let exact = dijkstra::distance(&net, v0, *t).unwrap_or(crate::types::INFINITE_DISTANCE);
            assert!(
                *d == exact || (d.is_infinite() && exact.is_infinite()),
                "{t}: {d} vs {exact}"
            );
        }
    }

    #[test]
    fn empty_targets_yield_empty_output() {
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let _ = b.add_vertex(1.0, 0.0);
        let net = b.build().unwrap();
        let ch = ContractionHierarchy::build(&net).unwrap();
        assert!(ch.distances_from(v0, &[]).is_empty());
        assert_eq!(ch.distances_from(v0, &[VertexId(0)]), vec![0.0]);
    }
}
