//! Thread-local, generation-stamped scratch state for shortest-path
//! searches, and the one frontier type every search in the crate pops from.
//!
//! The seed implementation allocated a fresh `O(V)` distance vector for
//! every point-to-point query — the dominant per-query cost once graphs
//! grow past a few thousand vertices and the main obstacle to running the
//! matchers' verification loops in parallel. This module replaces that with
//! one reusable [`SearchScratch`] per thread:
//!
//! * every vertex owns one 16-byte label slot — tentative distance, parent
//!   and generation stamp side by side — so a relaxation reads and writes
//!   one cache line instead of three parallel arrays;
//! * instead of clearing the slots between queries, a slot is "unvisited"
//!   unless its stamp equals the current query's generation, so starting a
//!   new query is a single counter increment;
//! * a parallel `u32` mark array, stamped by the same generation, records
//!   which vertices are pending targets and which are settled — the state
//!   multi-target and resumable searches need on top of the labels;
//! * the [`Frontier`] is drained by the search loop and merely cleared,
//!   keeping its allocation.
//!
//! When the generation counter would overflow the mark encoding, the stamps
//! and marks are zeroed once and the counter restarts — correctness never
//! depends on stamps from 2 billion queries ago.
//!
//! # The frontier key
//!
//! A [`Frontier`] entry is one `u128`: the key's `f64` bit pattern in the
//! high 64 bits and the vertex id in the low 32. For keys in `[+0.0, +∞]`
//! the IEEE-754 bit pattern is monotone in the value, so integer order on
//! the packed entry is exactly the lexicographic `(key, vertex id)` order —
//! the same pop sequence, ties included, as a heap of `(f64, VertexId)`
//! pairs compared with `total_cmp`, at the price of one integer compare.
//! No search forms a negative, `-0.0` or NaN key (roots start at `+0.0`
//! and weights and heuristics are finite and non-negative); `push`
//! debug-asserts it.

use crate::types::{VertexId, INFINITE_DISTANCE};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-priority queue of `(key, vertex)` entries packed into one `u128`
/// each (see the module docs): pops in ascending `(key, vertex id)` order.
#[derive(Default)]
pub struct Frontier {
    heap: BinaryHeap<Reverse<u128>>,
}

impl Frontier {
    /// Pushes `(key, v)`; `key` must lie in `[+0.0, +∞]`.
    #[inline]
    pub fn push(&mut self, key: f64, v: VertexId) {
        debug_assert!(
            key.is_sign_positive() && !key.is_nan(),
            "frontier key {key:?} outside [+0.0, +inf]"
        );
        self.heap
            .push(Reverse((key.to_bits() as u128) << 32 | v.0 as u128));
    }

    /// Pops the entry with the smallest key (smallest vertex id on ties).
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, VertexId)> {
        self.heap.pop().map(|Reverse(e)| unpack(e))
    }

    /// The entry [`Self::pop`] would return, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(f64, VertexId)> {
        self.heap.peek().map(|&Reverse(e)| unpack(e))
    }

    /// Empties the frontier, keeping its allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[inline]
fn unpack(e: u128) -> (f64, VertexId) {
    (f64::from_bits((e >> 32) as u64), VertexId(e as u32))
}

/// One vertex's label: valid only while `stamp` equals the scratch's
/// current generation.
#[derive(Clone, Copy)]
struct Label {
    dist: f64,
    parent: u32,
    stamp: u32,
}

const NO_PARENT: u32 = u32::MAX;

/// Generations stop here so `generation << 1 | 1` still fits a `u32` mark.
const MAX_GENERATION: u32 = u32::MAX >> 1;

/// Reusable per-thread state for Dijkstra / A* runs.
pub struct SearchScratch {
    labels: Vec<Label>,
    /// `generation << 1` marks a pending target, `generation << 1 | 1` a
    /// settled vertex; any other value means unmarked this query.
    marks: Vec<u32>,
    generation: u32,
    /// `key` is `g` for Dijkstra and `g + h` for A*.
    frontier: Frontier,
}

impl SearchScratch {
    /// An empty scratch; its arrays grow on the first [`Self::begin`].
    pub(crate) fn new() -> Self {
        SearchScratch {
            labels: Vec::new(),
            marks: Vec::new(),
            generation: 0,
            frontier: Frontier::default(),
        }
    }

    /// Starts a new query over a graph with `n` vertices: bumps the
    /// generation, grows the arrays if needed and clears the frontier.
    pub fn begin(&mut self, n: usize) {
        if self.labels.len() < n {
            let unset = Label {
                dist: INFINITE_DISTANCE,
                parent: NO_PARENT,
                stamp: 0,
            };
            self.labels.resize(n, unset);
            self.marks.resize(n, 0);
        }
        if self.generation == MAX_GENERATION {
            self.labels.iter_mut().for_each(|l| l.stamp = 0);
            self.marks.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.frontier.clear();
    }

    /// Tentative distance of `v` in the current query.
    #[inline]
    pub fn get(&self, v: VertexId) -> f64 {
        let l = &self.labels[v.index()];
        if l.stamp == self.generation {
            l.dist
        } else {
            INFINITE_DISTANCE
        }
    }

    /// Sets the tentative distance of `v` in the current query (and clears
    /// its predecessor, so stale parents from earlier generations can never
    /// leak into [`Self::parent_of`]).
    #[inline]
    pub fn set(&mut self, v: VertexId, d: f64) {
        self.labels[v.index()] = Label {
            dist: d,
            parent: NO_PARENT,
            stamp: self.generation,
        };
    }

    /// Lowers `v`'s tentative distance to `d` and its predecessor to
    /// `parent` if `d < self.get(v)`, with one slot access. Returns whether
    /// the label changed; the caller pushes `v` onto the frontier if so.
    #[inline]
    pub fn relax(&mut self, v: VertexId, d: f64, parent: VertexId) -> bool {
        let generation = self.generation;
        let l = &mut self.labels[v.index()];
        let current = if l.stamp == generation {
            l.dist
        } else {
            INFINITE_DISTANCE
        };
        if d < current {
            *l = Label {
                dist: d,
                parent: parent.0,
                stamp: generation,
            };
            true
        } else {
            false
        }
    }

    /// Predecessor of `v` on the current query's shortest-path tree, if `v`
    /// was labelled via [`Self::relax`] this query.
    #[inline]
    pub fn parent_of(&self, v: VertexId) -> Option<VertexId> {
        let l = &self.labels[v.index()];
        (l.stamp == self.generation && l.parent != NO_PARENT).then_some(VertexId(l.parent))
    }

    /// Marks `v` as a pending target of the current query. Returns `false`
    /// (and leaves the mark alone) if `v` is already pending or settled.
    #[inline]
    pub(crate) fn mark_target(&mut self, v: VertexId) -> bool {
        let m = &mut self.marks[v.index()];
        if *m >> 1 == self.generation {
            false
        } else {
            *m = self.generation << 1;
            true
        }
    }

    /// Marks `v` settled in the current query; returns whether it was a
    /// pending target.
    #[inline]
    pub(crate) fn mark_settled(&mut self, v: VertexId) -> bool {
        let m = &mut self.marks[v.index()];
        let was_pending = *m == self.generation << 1;
        *m = self.generation << 1 | 1;
        was_pending
    }

    /// Whether `v` was marked settled in the current query.
    #[inline]
    pub(crate) fn is_settled(&self, v: VertexId) -> bool {
        self.marks[v.index()] == self.generation << 1 | 1
    }

    /// Pushes `(key, v)` onto the search frontier.
    #[inline]
    pub fn push(&mut self, key: f64, v: VertexId) {
        self.frontier.push(key, v);
    }

    /// Pops the frontier entry with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, VertexId)> {
        self.frontier.pop()
    }
}

thread_local! {
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// Runs `f` with this thread's scratch buffer.
pub fn with_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_slot_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Label>(), 16);
    }

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
        assert!(s.mark_target(VertexId(1)));
        s.generation = MAX_GENERATION;
        s.begin(3);
        assert_eq!(s.generation, 1);
        assert_eq!(s.get(VertexId(0)), INFINITE_DISTANCE);
        assert!(s.mark_target(VertexId(1)));
    }

    #[test]
    fn relax_only_lowers_and_records_the_parent() {
        let mut s = SearchScratch::new();
        s.begin(3);
        assert!(s.relax(VertexId(1), 4.0, VertexId(0)));
        assert!(!s.relax(VertexId(1), 4.0, VertexId(2)));
        assert!(s.relax(VertexId(1), 3.0, VertexId(2)));
        assert_eq!(s.get(VertexId(1)), 3.0);
        assert_eq!(s.parent_of(VertexId(1)), Some(VertexId(2)));
        // An infinite candidate never labels an unvisited vertex.
        assert!(!s.relax(VertexId(2), INFINITE_DISTANCE, VertexId(0)));
        s.set(VertexId(0), 0.0);
        assert_eq!(s.parent_of(VertexId(0)), None);
    }

    #[test]
    fn marks_track_pending_and_settled_per_generation() {
        let mut s = SearchScratch::new();
        s.begin(3);
        assert!(s.mark_target(VertexId(0)));
        assert!(!s.mark_target(VertexId(0)));
        assert!(s.mark_settled(VertexId(0)));
        assert!(!s.mark_settled(VertexId(1)));
        assert!(s.is_settled(VertexId(0)) && s.is_settled(VertexId(1)));
        assert!(!s.mark_target(VertexId(1)));
        assert!(!s.is_settled(VertexId(2)));
        s.begin(3);
        assert!(!s.is_settled(VertexId(0)));
        assert!(s.mark_target(VertexId(0)));
    }

    #[test]
    fn heap_orders_by_key() {
        let mut f = Frontier::default();
        f.push(3.0, VertexId(3));
        f.push(1.0, VertexId(7));
        f.push(1.0, VertexId(2));
        f.push(INFINITE_DISTANCE, VertexId(0));
        f.push(0.0, VertexId(9));
        assert_eq!(f.peek(), Some((0.0, VertexId(9))));
        assert_eq!(f.pop(), Some((0.0, VertexId(9))));
        assert_eq!(f.pop(), Some((1.0, VertexId(2))));
        assert_eq!(f.pop(), Some((1.0, VertexId(7))));
        assert_eq!(f.pop(), Some((3.0, VertexId(3))));
        assert_eq!(f.pop(), Some((INFINITE_DISTANCE, VertexId(0))));
        assert_eq!(f.pop(), None);
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
