//! Thread-local, generation-stamped scratch state for shortest-path
//! searches.
//!
//! The seed implementation allocated a fresh `O(V)` distance vector for
//! every point-to-point query — the dominant per-query cost once graphs
//! grow past a few thousand vertices and the main obstacle to running the
//! matchers' verification loops in parallel. This module replaces that with
//! one reusable [`SearchScratch`] per thread:
//!
//! * `dist` / `parent` arrays are allocated once and grown on demand;
//! * instead of clearing them between queries, every slot carries a
//!   generation stamp — a slot is "unvisited" unless its stamp equals the
//!   current query's generation, so starting a new query is a single
//!   counter increment;
//! * the binary heap is drained by the search loop and merely `clear()`ed,
//!   keeping its allocation.
//!
//! When the `u32` generation counter would wrap, the stamp array is zeroed
//! once and the counter restarts — correctness never depends on stamps
//! from 4 billion queries ago.

use crate::types::{OrdF64, VertexId, INFINITE_DISTANCE};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable per-thread state for Dijkstra / A* runs.
pub struct SearchScratch {
    dist: Vec<f64>,
    parent: Vec<VertexId>,
    stamp: Vec<u32>,
    generation: u32,
    /// Priority queue of `(key, vertex)`; `key` is `g` for Dijkstra and
    /// `g + h` for A*.
    pub(crate) heap: BinaryHeap<Reverse<(OrdF64, VertexId)>>,
}

impl SearchScratch {
    /// An empty scratch; its arrays grow on the first [`Self::begin`].
    pub(crate) fn new() -> Self {
        SearchScratch {
            dist: Vec::new(),
            parent: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Starts a new query over a graph with `n` vertices: bumps the
    /// generation, grows the arrays if needed and clears the heap.
    pub fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INFINITE_DISTANCE);
            self.parent.resize(n, VertexId(u32::MAX));
            self.stamp.resize(n, 0);
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
    }

    /// Tentative distance of `v` in the current query.
    #[inline]
    pub fn get(&self, v: VertexId) -> f64 {
        if self.stamp[v.index()] == self.generation {
            self.dist[v.index()]
        } else {
            INFINITE_DISTANCE
        }
    }

    /// Sets the tentative distance of `v` in the current query (and clears
    /// its predecessor, so stale parents from earlier generations can never
    /// leak into [`Self::parent_of`]).
    #[inline]
    pub fn set(&mut self, v: VertexId, d: f64) {
        self.dist[v.index()] = d;
        self.parent[v.index()] = VertexId(u32::MAX);
        self.stamp[v.index()] = self.generation;
    }

    /// Sets the tentative distance and predecessor of `v`.
    #[inline]
    pub fn set_with_parent(&mut self, v: VertexId, d: f64, parent: VertexId) {
        self.dist[v.index()] = d;
        self.parent[v.index()] = parent;
        self.stamp[v.index()] = self.generation;
    }

    /// Predecessor of `v` on the current query's shortest-path tree, if `v`
    /// was labelled via [`Self::set_with_parent`] this query.
    #[inline]
    pub fn parent_of(&self, v: VertexId) -> Option<VertexId> {
        if self.stamp[v.index()] == self.generation {
            let p = self.parent[v.index()];
            (p.0 != u32::MAX).then_some(p)
        } else {
            None
        }
    }

    /// Pushes `(key, v)` onto the search frontier.
    #[inline]
    pub fn push(&mut self, key: f64, v: VertexId) {
        self.heap.push(Reverse((OrdF64(key), v)));
    }

    /// Pops the frontier entry with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, VertexId)> {
        self.heap.pop().map(|Reverse((OrdF64(k), v))| (k, v))
    }

    /// Smallest key currently on the frontier, without popping it. Drives
    /// the alternation and termination tests of bidirectional searches
    /// (e.g. the contraction-hierarchy upward query).
    #[inline]
    pub fn peek(&self) -> Option<(f64, VertexId)> {
        self.heap.peek().map(|&Reverse((OrdF64(k), v))| (k, v))
    }
}

thread_local! {
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
    /// Second scratch for algorithms that need two independent distance
    /// labellings at once (e.g. bidirectional search).
    static SCRATCH_B: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// Runs `f` with this thread's primary scratch buffer.
pub fn with_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Runs `f` with both of this thread's scratch buffers.
pub fn with_scratch_pair<R>(f: impl FnOnce(&mut SearchScratch, &mut SearchScratch) -> R) -> R {
    SCRATCH.with(|a| SCRATCH_B.with(|b| f(&mut a.borrow_mut(), &mut b.borrow_mut())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_isolate_queries() {
        let mut s = SearchScratch::new();
        s.begin(4);
        s.set(VertexId(1), 5.0);
        assert_eq!(s.get(VertexId(1)), 5.0);
        assert_eq!(s.get(VertexId(2)), INFINITE_DISTANCE);
        s.begin(4);
        // Previous query's labels are invisible without any clearing.
        assert_eq!(s.get(VertexId(1)), INFINITE_DISTANCE);
    }

    #[test]
    fn arrays_grow_on_demand() {
        let mut s = SearchScratch::new();
        s.begin(2);
        s.set(VertexId(1), 1.0);
        s.begin(10);
        s.set(VertexId(9), 2.0);
        assert_eq!(s.get(VertexId(9)), 2.0);
        assert_eq!(s.get(VertexId(1)), INFINITE_DISTANCE);
    }

    #[test]
    fn wraparound_resets_stamps() {
        let mut s = SearchScratch::new();
        s.begin(3);
        s.set(VertexId(0), 1.0);
        s.generation = u32::MAX;
        s.begin(3);
        assert_eq!(s.generation, 1);
        assert_eq!(s.get(VertexId(0)), INFINITE_DISTANCE);
    }

    #[test]
    fn heap_orders_by_key() {
        let mut s = SearchScratch::new();
        s.begin(4);
        s.push(3.0, VertexId(3));
        s.push(1.0, VertexId(1));
        s.push(2.0, VertexId(2));
        assert_eq!(s.pop(), Some((1.0, VertexId(1))));
        assert_eq!(s.pop(), Some((2.0, VertexId(2))));
        assert_eq!(s.pop(), Some((3.0, VertexId(3))));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn thread_local_scratch_is_reusable() {
        let total: f64 = (0..10)
            .map(|i| {
                with_scratch(|s| {
                    s.begin(8);
                    s.set(VertexId(i % 8), i as f64);
                    s.get(VertexId(i % 8))
                })
            })
            .sum();
        assert_eq!(total, 45.0);
    }
}
