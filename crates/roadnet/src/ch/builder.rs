//! Contraction-hierarchy construction: node ordering and witness-search
//! contraction.
//!
//! Vertices are contracted in ascending importance, where importance is the
//! classic *edge difference* heuristic (shortcuts a contraction would insert
//! minus arcs it removes) combined with a *deleted neighbours* term that
//! spreads contraction evenly across the network and a *level* term that
//! keeps the hierarchy shallow (a vertex whose neighbours are already high
//! in the hierarchy is pushed later, which empirically shrinks the upward
//! search spaces by ~2x on city lattices versus plain edge difference).
//! Priorities go stale as neighbours are contracted, so the queue is
//! maintained **lazily**: when a vertex is popped its priority is
//! recomputed, and it is only contracted if it still beats the next-best
//! entry — otherwise it is re-inserted with the fresh value (Geisberger et
//! al.'s lazy-update scheme).
//!
//! Contracting `v` must preserve all shortest paths that ran through `v`:
//! for every in-arc `u → v` (weight `w₁`) and out-arc `v → x` (weight `w₂`)
//! a **witness search** — a bounded Dijkstra from `u` in the current overlay
//! graph with `v` removed — checks whether some other path of length at most
//! `w₁ + w₂` already connects `u` to `x`. Only when no witness exists is the
//! shortcut `u → x` with weight `w₁ + w₂` inserted (remembering `v` as its
//! *middle* vertex so queries can unpack it). Witness searches are capped
//! ([`ChConfig::witness_settle_limit`]); an aborted witness search
//! conservatively inserts the shortcut, which can only cost memory, never
//! correctness.
//!
//! The final search graphs are **relabelled by rank**: internal vertex `r`
//! is the vertex contracted `r`-th. Upward searches then walk toward high
//! internal ids, concentrating the hot set of every query in the same
//! high-rank array suffix.
//!
//! # Parallel construction (`threads >= 2`)
//!
//! With more than one worker the lazy queue is replaced by **independent-set
//! rounds**: each round (1) refreshes stale priorities in parallel,
//! (2) selects every remaining vertex that is a strict `(priority, id)`
//! minimum within its 2-hop neighbourhood — a set that is independent *and*
//! 2-hop independent by construction — (3) plans all selected contractions
//! concurrently with read-only witness searches, and (4) applies the round
//! sequentially in ascending vertex id: freeze arcs, assign ranks, unlink,
//! insert the planned shortcuts, check the budget.
//!
//! Two properties make the concurrent witness searches sound. First, a
//! round's witness searches exclude **every** selected vertex, not just the
//! one being contracted, so any witness found consists solely of vertices
//! (and arcs) that survive the whole round — it cannot be invalidated by a
//! sibling contraction. Second, an *extra* shortcut is always safe: its
//! weight is the length of a real path, so it can never shorten a distance,
//! only spend memory; omission is the only dangerous direction, and a
//! shortcut is only omitted when a round-surviving witness exists. 2-hop
//! independence additionally means no two selected vertices share a
//! neighbour, so the planned shortcut sets are endpoint-disjoint and each
//! frozen arc list is exactly what the planning phase saw.
//!
//! The rounds are deterministic: selection depends only on priorities and
//! vertex ids, never on thread scheduling, so every `threads >= 2` produces
//! the identical hierarchy. `threads == 1` takes the historical sequential
//! path, whose lazy-queue tie-breaks differ — both orders satisfy the same
//! bit-identical-to-Dijkstra contract (pinned by proptest).

use super::{ChBuildError, ChConfig, ContractionHierarchy, SearchGraph, NO_MIDDLE};
use crate::graph::RoadNetwork;
use crate::scratch::with_scratch;
use crate::types::VertexId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Overlay arc: `(other endpoint, weight, middle vertex or NO_MIDDLE)`.
type Arc = (u32, f64, u32);

/// Inserts or min-updates the arc `list ∋ (to, w, mid)`; returns `true` when
/// the arc is new.
fn upsert(list: &mut Vec<Arc>, to: u32, w: f64, mid: u32) -> bool {
    for entry in list.iter_mut() {
        if entry.0 == to {
            if w < entry.1 {
                entry.1 = w;
                entry.2 = mid;
            }
            return false;
        }
    }
    list.push((to, w, mid));
    true
}

/// Witness-searches the contraction of `v` and records every shortcut it
/// would need into `shortcuts` (cleared first). Returns the shortcut count.
///
/// `fwd` is the current overlay adjacency (uncontracted vertices only);
/// `in_arcs` / `out_arcs` are `v`'s current incoming and outgoing arcs.
/// `banned`, when present, removes further vertices from the witness
/// searches — the parallel build passes the whole round's selected set so a
/// found witness survives every contraction of the round (`banned[v]` is
/// expected to be true then; `v` is always excluded regardless).
fn plan_shortcuts(
    fwd: &[Vec<Arc>],
    v: u32,
    in_arcs: &[Arc],
    out_arcs: &[Arc],
    settle_limit: usize,
    banned: Option<&[bool]>,
    shortcuts: &mut Vec<(u32, u32, f64)>,
) -> usize {
    shortcuts.clear();
    if in_arcs.is_empty() || out_arcs.is_empty() {
        return 0;
    }
    let n = fwd.len();
    for &(u, w1, _) in in_arcs {
        // Distance cap: no witness longer than the longest candidate
        // shortcut from this `u` can matter.
        let mut limit = f64::NEG_INFINITY;
        let mut targets = 0usize;
        for &(x, w2, _) in out_arcs {
            if x != u {
                limit = limit.max(w1 + w2);
                targets += 1;
            }
        }
        if targets == 0 {
            continue;
        }
        with_scratch(|s| {
            s.begin(n);
            s.set(VertexId(u), 0.0);
            s.push(0.0, VertexId(u));
            let mut settled = 0usize;
            let mut remaining = targets;
            while let Some((d, y)) = s.pop() {
                if d > s.get(y) {
                    continue;
                }
                if d > limit {
                    break;
                }
                settled += 1;
                if settled > settle_limit {
                    break;
                }
                if remaining > 0 && out_arcs.iter().any(|&(x, _, _)| x == y.0 && x != u) {
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
                for &(z, w, _) in &fwd[y.index()] {
                    if z == v || banned.is_some_and(|b| b[z as usize]) {
                        continue; // contracted-this-round vertices are removed
                    }
                    let nd = d + w;
                    if s.relax(VertexId(z), nd, y) {
                        s.push(nd, VertexId(z));
                    }
                }
            }
            for &(x, w2, _) in out_arcs {
                if x == u {
                    continue;
                }
                let combined = w1 + w2;
                // A witness of equal length makes the shortcut redundant;
                // only a strictly longer (or aborted/absent) witness forces
                // insertion.
                if s.get(VertexId(x)) > combined {
                    shortcuts.push((u, x, combined));
                }
            }
        });
    }
    shortcuts.len()
}

/// Contraction priority; lower contracts first. Weights were tuned on the
/// synthetic city graphs (40–160 blocks per side): the level term is what
/// keeps upward search spaces small as the graph grows.
#[allow(clippy::too_many_arguments)]
fn priority(
    fwd: &[Vec<Arc>],
    v: u32,
    in_arcs: &[Arc],
    out_arcs: &[Arc],
    deleted_neighbors: u32,
    level: u32,
    settle_limit: usize,
    shortcuts: &mut Vec<(u32, u32, f64)>,
) -> i64 {
    let added = plan_shortcuts(fwd, v, in_arcs, out_arcs, settle_limit, None, shortcuts) as i64;
    let removed = (in_arcs.len() + out_arcs.len()) as i64;
    8 * added - 4 * removed + deleted_neighbors as i64 + 8 * level as i64
}

pub(super) fn build(
    net: &RoadNetwork,
    config: &ChConfig,
    threads: usize,
) -> Result<ContractionHierarchy, ChBuildError> {
    if threads >= 2 {
        build_parallel(net, config, threads)
    } else {
        build_sequential(net, config)
    }
}

fn build_sequential(
    net: &RoadNetwork,
    config: &ChConfig,
) -> Result<ContractionHierarchy, ChBuildError> {
    let n = net.num_vertices();

    // Overlay adjacency over uncontracted vertices, parallel arcs deduped to
    // their minimum weight. `fwd[u]` holds outgoing arcs, `bwd[v]` incoming.
    let mut fwd: Vec<Vec<Arc>> = vec![Vec::new(); n];
    let mut bwd: Vec<Vec<Arc>> = vec![Vec::new(); n];
    for e in net.edges() {
        if e.from == e.to {
            continue; // self-loops never lie on a shortest path
        }
        upsert(&mut fwd[e.from.index()], e.to.0, e.weight, NO_MIDDLE);
        upsert(&mut bwd[e.to.index()], e.from.0, e.weight, NO_MIDDLE);
    }
    let original_arcs: usize = fwd.iter().map(Vec::len).sum();
    let shortcut_budget = ((original_arcs as f64) * config.max_shortcut_factor).ceil() as usize;

    let mut contracted = vec![false; n];
    let mut deleted_neighbors = vec![0u32; n];
    let mut level = vec![0u32; n];
    let mut rank = vec![0u32; n];
    // Frozen arcs in *external* ids, translated to internal ids at the end.
    let mut up_ext: Vec<Vec<Arc>> = vec![Vec::new(); n];
    let mut down_ext: Vec<Vec<Arc>> = vec![Vec::new(); n];
    let mut planned: Vec<(u32, u32, f64)> = Vec::new();

    let mut queue: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::with_capacity(n);
    for v in 0..n as u32 {
        let p = priority(
            &fwd,
            v,
            &bwd[v as usize],
            &fwd[v as usize],
            0,
            0,
            config.witness_settle_limit,
            &mut planned,
        );
        queue.push(Reverse((p, v)));
    }

    let mut next_rank = 0u32;
    let mut num_shortcuts = 0usize;
    while let Some(Reverse((_, v))) = queue.pop() {
        let vi = v as usize;
        if contracted[vi] {
            continue;
        }
        // Lazy update: recompute against the current overlay; contract only
        // if the fresh priority still wins, else re-insert.
        let fresh = priority(
            &fwd,
            v,
            &bwd[vi],
            &fwd[vi],
            deleted_neighbors[vi],
            level[vi],
            config.witness_settle_limit,
            &mut planned,
        );
        if let Some(&Reverse((top, _))) = queue.peek() {
            if fresh > top {
                queue.push(Reverse((fresh, v)));
                continue;
            }
        }

        // Contract: freeze v's remaining arcs as its upward/downward search
        // arcs (every remaining neighbour is contracted later, i.e. ranked
        // higher), unlink v from the overlay, then insert the planned
        // shortcuts between the surviving neighbours.
        rank[vi] = next_rank;
        next_rank += 1;
        contracted[vi] = true;
        up_ext[vi] = std::mem::take(&mut fwd[vi]);
        down_ext[vi] = std::mem::take(&mut bwd[vi]);
        for &(x, _, _) in &up_ext[vi] {
            bwd[x as usize].retain(|&(y, _, _)| y != v);
        }
        for &(u, _, _) in &down_ext[vi] {
            fwd[u as usize].retain(|&(y, _, _)| y != v);
        }
        let mut touched: Vec<u32> = up_ext[vi]
            .iter()
            .chain(down_ext[vi].iter())
            .map(|&(x, _, _)| x)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for x in touched {
            deleted_neighbors[x as usize] += 1;
            level[x as usize] = level[x as usize].max(level[vi] + 1);
        }
        for &(a, b, w) in &planned {
            if upsert(&mut fwd[a as usize], b, w, v) {
                num_shortcuts += 1;
            }
            upsert(&mut bwd[b as usize], a, w, v);
        }
        if num_shortcuts > shortcut_budget {
            return Err(ChBuildError::TooManyShortcuts {
                shortcuts: num_shortcuts,
                original_arcs,
            });
        }
    }
    debug_assert_eq!(next_rank as usize, n);
    Ok(finish(rank, up_ext, down_ext, num_shortcuts))
}

/// Relabels the frozen external-id adjacency by rank and assembles the
/// hierarchy: internal id `r` hosts the arcs of the vertex contracted
/// `r`-th, with targets and middles translated to internal ids too.
fn finish(
    rank: Vec<u32>,
    up_ext: Vec<Vec<Arc>>,
    down_ext: Vec<Vec<Arc>>,
    num_shortcuts: usize,
) -> ContractionHierarchy {
    let n = rank.len();
    let translate = |ext_adj: Vec<Vec<Arc>>| -> Vec<Vec<Arc>> {
        let mut internal: Vec<Vec<Arc>> = vec![Vec::new(); n];
        for (v, list) in ext_adj.into_iter().enumerate() {
            let r = rank[v] as usize;
            internal[r] = list
                .into_iter()
                .map(|(to, w, mid)| {
                    let mid = if mid == NO_MIDDLE {
                        NO_MIDDLE
                    } else {
                        rank[mid as usize]
                    };
                    (rank[to as usize], w, mid)
                })
                .collect();
        }
        internal
    };
    let up = SearchGraph::from_adjacency(translate(up_ext));
    let down = SearchGraph::from_adjacency(translate(down_ext));
    ContractionHierarchy::from_parts(rank, up, down, num_shortcuts)
}

/// Maps `f` over `items` in roughly equal chunks on `threads` scoped
/// workers, returning per-chunk results in input order. Chunk boundaries
/// never affect the result for per-item-pure `f`, so outputs are identical
/// for every worker count.
pub(super) fn par_map_chunks<'a, T, R, F>(items: &'a [T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> R + Sync,
{
    let chunk = items.len().div_ceil(threads).max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| scope.spawn(move || f(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preprocessing worker panicked"))
            .collect()
    })
}

/// Is `v` a strict `(priority, id)` minimum within its 2-hop neighbourhood
/// of the overlay? The set of all such vertices is 2-hop independent (two
/// vertices within 2 hops compare against each other, and the shared key
/// order is total), and it always contains the global minimum, so every
/// round makes progress.
fn is_local_minimum(v: u32, fwd: &[Vec<Arc>], bwd: &[Vec<Arc>], priorities: &[i64]) -> bool {
    let key = |x: u32| (priorities[x as usize], x);
    let own = key(v);
    let beaten_via = |w: u32| -> bool {
        if key(w) < own {
            return true;
        }
        fwd[w as usize]
            .iter()
            .chain(bwd[w as usize].iter())
            .any(|&(z, _, _)| z != v && key(z) < own)
    };
    !fwd[v as usize]
        .iter()
        .chain(bwd[v as usize].iter())
        .any(|&(w, _, _)| beaten_via(w))
}

/// Independent-set parallel contraction; see the module docs for the round
/// structure and why concurrent witness searches stay correct.
fn build_parallel(
    net: &RoadNetwork,
    config: &ChConfig,
    threads: usize,
) -> Result<ContractionHierarchy, ChBuildError> {
    let n = net.num_vertices();

    let mut fwd: Vec<Vec<Arc>> = vec![Vec::new(); n];
    let mut bwd: Vec<Vec<Arc>> = vec![Vec::new(); n];
    for e in net.edges() {
        if e.from == e.to {
            continue; // self-loops never lie on a shortest path
        }
        upsert(&mut fwd[e.from.index()], e.to.0, e.weight, NO_MIDDLE);
        upsert(&mut bwd[e.to.index()], e.from.0, e.weight, NO_MIDDLE);
    }
    let original_arcs: usize = fwd.iter().map(Vec::len).sum();
    let shortcut_budget = ((original_arcs as f64) * config.max_shortcut_factor).ceil() as usize;

    let mut deleted_neighbors = vec![0u32; n];
    let mut level = vec![0u32; n];
    let mut rank = vec![0u32; n];
    let mut up_ext: Vec<Vec<Arc>> = vec![Vec::new(); n];
    let mut down_ext: Vec<Vec<Arc>> = vec![Vec::new(); n];

    let mut priorities = vec![0i64; n];
    // Priorities are refreshed when a neighbour was contracted last round —
    // the parallel analogue of the sequential lazy-update (which also lets
    // 2-hop staleness linger until relevant). Selection only needs a
    // consistent total order, not fresh values, for correctness.
    let mut dirty = vec![true; n];
    let mut banned = vec![false; n];
    let mut remaining: Vec<u32> = (0..n as u32).collect();
    let mut next_rank = 0u32;
    let mut num_shortcuts = 0usize;

    while !remaining.is_empty() {
        // Round phase 1: refresh stale priorities in parallel.
        let stale: Vec<u32> = remaining
            .iter()
            .copied()
            .filter(|&v| dirty[v as usize])
            .collect();
        if !stale.is_empty() {
            let fresh = par_map_chunks(&stale, threads, |chunk| {
                let mut planned = Vec::new();
                chunk
                    .iter()
                    .map(|&v| {
                        let vi = v as usize;
                        priority(
                            &fwd,
                            v,
                            &bwd[vi],
                            &fwd[vi],
                            deleted_neighbors[vi],
                            level[vi],
                            config.witness_settle_limit,
                            &mut planned,
                        )
                    })
                    .collect::<Vec<i64>>()
            });
            for (&v, p) in stale.iter().zip(fresh.into_iter().flatten()) {
                priorities[v as usize] = p;
                dirty[v as usize] = false;
            }
        }

        // Round phase 2: select the 2-hop independent set of local minima.
        let selected: Vec<u32> = par_map_chunks(&remaining, threads, |chunk| {
            chunk
                .iter()
                .copied()
                .filter(|&v| is_local_minimum(v, &fwd, &bwd, &priorities))
                .collect::<Vec<u32>>()
        })
        .concat();
        debug_assert!(!selected.is_empty(), "global minimum is always selected");

        // Round phase 3: plan every selected contraction concurrently.
        // Witness searches exclude the whole selected set (`banned`), so the
        // witnesses they find survive the round's sibling contractions.
        for &v in &selected {
            banned[v as usize] = true;
        }
        let plans: Vec<Vec<(u32, u32, f64)>> = par_map_chunks(&selected, threads, |chunk| {
            let mut out = Vec::with_capacity(chunk.len());
            let mut planned = Vec::new();
            for &v in chunk {
                let vi = v as usize;
                plan_shortcuts(
                    &fwd,
                    v,
                    &bwd[vi],
                    &fwd[vi],
                    config.witness_settle_limit,
                    Some(&banned),
                    &mut planned,
                );
                out.push(std::mem::take(&mut planned));
            }
            out
        })
        .concat();
        for &v in &selected {
            banned[v as usize] = false;
        }

        // Round phase 4: apply sequentially in ascending vertex id (the
        // selection already is — `remaining` stays sorted). 2-hop
        // independence means no frozen list or planned shortcut is
        // disturbed by a sibling's application, so the batch equals any
        // serialisation of the round.
        for (&v, planned) in selected.iter().zip(&plans) {
            let vi = v as usize;
            rank[vi] = next_rank;
            next_rank += 1;
            up_ext[vi] = std::mem::take(&mut fwd[vi]);
            down_ext[vi] = std::mem::take(&mut bwd[vi]);
            for &(x, _, _) in &up_ext[vi] {
                bwd[x as usize].retain(|&(y, _, _)| y != v);
            }
            for &(u, _, _) in &down_ext[vi] {
                fwd[u as usize].retain(|&(y, _, _)| y != v);
            }
            let mut touched: Vec<u32> = up_ext[vi]
                .iter()
                .chain(down_ext[vi].iter())
                .map(|&(x, _, _)| x)
                .collect();
            touched.sort_unstable();
            touched.dedup();
            for x in touched {
                deleted_neighbors[x as usize] += 1;
                level[x as usize] = level[x as usize].max(level[vi] + 1);
                dirty[x as usize] = true;
            }
            for &(a, b, w) in planned {
                if upsert(&mut fwd[a as usize], b, w, v) {
                    num_shortcuts += 1;
                }
                upsert(&mut bwd[b as usize], a, w, v);
            }
            if num_shortcuts > shortcut_budget {
                return Err(ChBuildError::TooManyShortcuts {
                    shortcuts: num_shortcuts,
                    original_arcs,
                });
            }
        }

        let mut i = 0usize;
        remaining.retain(|&v| {
            let keep = selected.get(i) != Some(&v);
            if !keep {
                i += 1;
            }
            keep
        });
    }
    debug_assert_eq!(next_rank as usize, n);
    Ok(finish(rank, up_ext, down_ext, num_shortcuts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;

    #[test]
    fn upsert_keeps_minimum_weight_and_its_middle() {
        let mut list = Vec::new();
        assert!(upsert(&mut list, 3, 10.0, 7));
        assert!(!upsert(&mut list, 3, 5.0, 9));
        assert!(!upsert(&mut list, 3, 7.0, 11));
        assert!(upsert(&mut list, 4, 1.0, NO_MIDDLE));
        assert_eq!(list, vec![(3, 5.0, 9), (4, 1.0, NO_MIDDLE)]);
    }

    #[test]
    fn line_graph_needs_no_redundant_shortcuts() {
        // Contracting the middle of a 3-line inserts exactly the two
        // through-shortcuts (one per direction); the endpoints none.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(200.0, 0.0);
        b.add_bidirectional_edge(v0, v1, 100.0);
        b.add_bidirectional_edge(v1, v2, 100.0);
        let net = b.build().unwrap();
        for threads in [1, 2, 4] {
            let ch = build(&net, &ChConfig::default(), threads).unwrap();
            // Only the middle vertex can force shortcuts, and only if it is
            // contracted first.
            assert!(ch.num_shortcuts() <= 2);
            assert_eq!(ch.distance(v0, v2), 200.0);
        }
    }

    #[test]
    fn triangle_with_witness_path_adds_no_shortcut() {
        // dist(a, c) via b is 2; the direct arc a→c of weight 2 is an equal
        // witness, so contracting b must not insert a shortcut.
        let mut b = RoadNetworkBuilder::new();
        let va = b.add_vertex(0.0, 0.0);
        let vb = b.add_vertex(50.0, 50.0);
        let vc = b.add_vertex(100.0, 0.0);
        b.add_bidirectional_edge(va, vb, 1.0);
        b.add_bidirectional_edge(vb, vc, 1.0);
        b.add_bidirectional_edge(va, vc, 2.0);
        let net = b.build().unwrap();
        for threads in [1, 2, 4] {
            let ch = build(&net, &ChConfig::default(), threads).unwrap();
            assert_eq!(ch.num_shortcuts(), 0, "threads={threads}");
            assert_eq!(ch.distance(va, vc), 2.0);
        }
    }

    #[test]
    fn parallel_rounds_are_thread_count_invariant() {
        // Every worker count >= 2 runs the same deterministic round
        // structure, so the hierarchies must be identical — ranks, shortcut
        // counts, and arcs.
        let mut b = RoadNetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..7 {
            for x in 0..7 {
                ids.push(b.add_vertex(x as f64 * 90.0, y as f64 * 110.0));
            }
        }
        for y in 0..7usize {
            for x in 0..7usize {
                let u = ids[y * 7 + x];
                if x + 1 < 7 {
                    b.add_bidirectional_edge(u, ids[y * 7 + x + 1], 80.0 + (x * y) as f64);
                }
                if y + 1 < 7 {
                    b.add_bidirectional_edge(u, ids[(y + 1) * 7 + x], 95.0 + (x + y) as f64);
                }
            }
        }
        let net = b.build().unwrap();
        let reference = build(&net, &ChConfig::default(), 2).unwrap();
        for threads in [3, 5, 8, 64] {
            let ch = build(&net, &ChConfig::default(), threads).unwrap();
            assert_eq!(ch.num_shortcuts(), reference.num_shortcuts());
            for &v in &ids {
                assert_eq!(ch.rank(v), reference.rank(v), "threads={threads}, {v}");
            }
        }
    }
}
