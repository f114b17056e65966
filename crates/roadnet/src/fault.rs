//! Deterministic fault injection for crash-recovery tests.
//!
//! A [`FaultPlan`] is a process-global schedule of exactly one injected
//! panic at a **named site** threaded through the write path:
//! [`MID_COMMIT`] and [`POST_APPEND`] abort an operation mid-flight so
//! crash-recovery tests can kill a service at an exact, reproducible point.
//!
//! Tests place the panic with [`arm`] / [`disarm`] and
//! [`FaultPlan::panic_once`]; [`panic_point`] panics when the armed plan
//! scheduled this exact hit of its site. With no plan armed every site is
//! a cheap no-op.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Panic site: inside `commit_choice`, after the vehicle accepted the
/// insertion but before the spatial index was updated — the world is
/// mid-mutation and the write guard poisons on unwind.
pub const MID_COMMIT: &str = "mid-commit";
/// Panic site: after the journal record was appended (durable) but before
/// the caller acknowledged the operation to the rider.
pub const POST_APPEND: &str = "post-append";

/// All panic sites.
pub const PANIC_SITES: &[&str] = &[MID_COMMIT, POST_APPEND];

/// A schedule of one injected panic.
///
/// The plan is immutable once armed; per-site hit counters live inside it
/// so re-arming (or disarming and re-arming the same plan) restarts the
/// schedule from hit zero.
#[derive(Debug)]
pub struct FaultPlan {
    /// Site name the panic is scheduled at.
    site: &'static str,
    /// 0-based hit index of that site the panic fires on.
    at: u64,
    hits: Mutex<HashMap<&'static str, u64>>,
}

impl FaultPlan {
    /// A plan that panics exactly once: on the `at`-th hit (0-based) of
    /// `site`, which must be one of [`PANIC_SITES`]. The run is
    /// byte-identical to an unfaulted run right up to the scheduled panic.
    pub fn panic_once(site: &'static str, at: u64) -> Self {
        assert!(
            PANIC_SITES.contains(&site),
            "panic_once site must be one of {PANIC_SITES:?}, got {site:?}"
        );
        FaultPlan {
            site,
            at,
            hits: Mutex::new(HashMap::new()),
        }
    }

    /// Hits of `site` this plan has counted so far. A plan counts every
    /// panic site, so arming one whose hit never comes (`at = u64::MAX`)
    /// measures how often a run reaches each site.
    pub fn hits(&self, site: &str) -> u64 {
        let hits = self.hits.lock().unwrap_or_else(|p| p.into_inner());
        hits.get(site).copied().unwrap_or(0)
    }

    /// Next 0-based hit index for `site` (and advances the counter).
    fn take_hit(&self, site: &'static str) -> u64 {
        let mut hits = self.hits.lock().unwrap_or_else(|p| p.into_inner());
        let n = hits.entry(site).or_insert(0);
        let hit = *n;
        *n += 1;
        hit
    }
}

/// The armed plan, if any.
fn armed_slot() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Arms `plan` process-wide, replacing any previously armed plan.
pub fn arm(plan: FaultPlan) {
    *armed_slot().write().unwrap_or_else(|p| p.into_inner()) = Some(Arc::new(plan));
}

/// Disarms the armed plan.
pub fn disarm() {
    *armed_slot().write().unwrap_or_else(|p| p.into_inner()) = None;
}

/// The plan currently armed, if any.
pub fn current() -> Option<Arc<FaultPlan>> {
    armed_slot()
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
}

/// Panics when the armed plan scheduled this exact hit of `site`;
/// otherwise a cheap no-op. An armed plan counts the hits of every panic
/// site, not only its own (see [`FaultPlan::hits`]).
pub fn panic_point(site: &'static str) {
    debug_assert!(PANIC_SITES.contains(&site), "not a panic site: {site}");
    let Some(plan) = current() else { return };
    let hit = plan.take_hit(site);
    if plan.site == site && hit == plan.at {
        panic!("injected fault: {site} (hit {hit})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_once_fires_exactly_at_the_scheduled_hit() {
        arm(FaultPlan::panic_once(MID_COMMIT, 2));
        let armed = current().expect("a plan is armed");
        panic_point(MID_COMMIT); // hit 0
        panic_point(POST_APPEND); // counted, never fires
        panic_point(MID_COMMIT); // hit 1
        let r = std::panic::catch_unwind(|| panic_point(MID_COMMIT)); // hit 2
        disarm();
        assert!(r.is_err(), "hit 2 must panic");
        assert_eq!(armed.hits(MID_COMMIT), 3);
        assert_eq!(armed.hits(POST_APPEND), 1);
    }
}
