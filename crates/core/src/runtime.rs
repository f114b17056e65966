//! The matching runtime's one remaining trace: [`MatchRuntime`].
//!
//! Every request — a single submit and every request of a burst alike —
//! is matched on its caller's thread; no match runs on a spawned thread.

/// A field-less stand-in kept only because the benchmark harness reads
/// `RideService::runtime().parallelism()` as part of its pinned API
/// surface. It holds no state and configures nothing.
#[derive(Debug, Default)]
pub struct MatchRuntime;

impl MatchRuntime {
    /// Threads one match runs on: always `1`, the caller's own.
    pub fn parallelism(&self) -> usize {
        1
    }
}
