//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded, process-global schedule of injected
//! failures at **named sites** threaded through the whole workspace:
//! the error-class site ([`JOURNAL_WRITE`]) simulates transient failures
//! that the call site is expected to absorb with a single retry, while
//! panic-class sites ([`POOL_JOB`], [`MID_COMMIT`], [`POST_APPEND`]) abort
//! the operation mid-flight so crash-recovery tests can kill a service at
//! an exact, reproducible point.
//!
//! Two arming paths:
//!
//! * **Programmatic** — [`arm`] / [`disarm`], used by the crash-recovery
//!   proptests to place one panic at an exact hit count
//!   ([`FaultPlan::panic_once`]). Panics are only ever injected through
//!   this path.
//! * **Environment** — `PTRIDER_CHAOS=<seed>` arms a
//!   [`FaultPlan::transient`] plan for the whole process (read once).
//!   Transient plans fire only error-class sites, and the firing rule
//!   guarantees two consecutive hits of one site never both fail — so a
//!   caller that retries once always succeeds and the full test suite
//!   stays green with chaos armed. This is the CI chaos matrix mode.
//!
//! Schedules are pure functions of `(seed, site, hit index)`: the same
//! seed over the same operation sequence injects the same faults, which
//! is what makes a chaos run replayable.
//!
//! Sites are queried through two free functions: [`fail_point`] returns
//! `true` when the current hit of an error-class site should be treated
//! as failed (the caller then retries once), and [`panic_point`] panics
//! when a programmatically armed plan scheduled this exact hit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Panic site: inside a spawned chunk of a burst's tentative matching,
/// before the chunk's own work runs.
pub const POOL_JOB: &str = "pool-job";
/// Panic site: inside `commit_choice`, after the vehicle accepted the
/// insertion but before the spatial index was updated — the world is
/// mid-mutation and the write guard poisons on unwind.
pub const MID_COMMIT: &str = "mid-commit";
/// Panic site: after the journal record was appended (durable) but before
/// the caller acknowledged the operation to the rider.
pub const POST_APPEND: &str = "post-append";
/// Error site: a journal append's write/flush to the WAL file.
pub const JOURNAL_WRITE: &str = "journal-write";

/// All error-class sites (fire under [`FaultPlan::transient`] plans).
pub const ERROR_SITES: &[&str] = &[JOURNAL_WRITE];
/// All panic-class sites (fire only under [`FaultPlan::panic_once`] plans).
pub const PANIC_SITES: &[&str] = &[POOL_JOB, MID_COMMIT, POST_APPEND];

/// FNV-1a over a byte string; the site-name half of the schedule hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates `seed ^ site` into period/offset bits.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What a plan injects.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Mode {
    /// Periodic transient errors at error-class sites only; never panics.
    Transient,
    /// Exactly one panic at `site`, on its `at`-th hit (0-based); error
    /// sites never fire. Used by crash-recovery tests.
    PanicOnce {
        /// Site name the panic is scheduled at.
        site: &'static str,
        /// 0-based hit index of that site the panic fires on.
        at: u64,
    },
}

/// A seeded, deterministic schedule of injected faults.
///
/// The plan is immutable once armed; per-site hit counters live inside it
/// so re-arming (or disarming and re-arming the same plan) restarts the
/// schedule from hit zero.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    mode: Mode,
    hits: Mutex<HashMap<&'static str, u64>>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan that injects *transient* errors at error-class sites: site
    /// hit `n` fails when `n ≡ offset (mod period)` with a per-site
    /// `period ∈ 3..=6` derived from the seed. Because the period is at
    /// least 3, two consecutive hits never both fail — a caller that
    /// retries a failed attempt once always succeeds, and the suite stays
    /// green with the plan armed. Panic-class sites never fire.
    pub fn transient(seed: u64) -> Self {
        FaultPlan {
            seed,
            mode: Mode::Transient,
            hits: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// A plan that panics exactly once: on the `at`-th hit (0-based) of
    /// `site`, which must be one of [`PANIC_SITES`]. Error-class sites
    /// never fire under this mode, so the run is byte-identical to an
    /// unfaulted run right up to the scheduled panic.
    pub fn panic_once(site: &'static str, at: u64) -> Self {
        assert!(
            PANIC_SITES.contains(&site),
            "panic_once site must be one of {PANIC_SITES:?}, got {site:?}"
        );
        FaultPlan {
            seed: 0,
            mode: Mode::PanicOnce { site, at },
            hits: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Total faults (errors plus panics) injected by this plan so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Next 0-based hit index for `site` (and advances the counter).
    fn take_hit(&self, site: &'static str) -> u64 {
        let mut hits = self.hits.lock().unwrap_or_else(|p| p.into_inner());
        let n = hits.entry(site).or_insert(0);
        let hit = *n;
        *n += 1;
        hit
    }

    /// Whether error-class `site` fails on its `hit`-th call.
    fn error_fires(&self, site: &'static str, hit: u64) -> bool {
        if self.mode != Mode::Transient {
            return false;
        }
        let h = mix(self.seed ^ fnv1a(site.as_bytes()));
        let period = 3 + (h % 4); // 3..=6: consecutive hits never both fail
        let offset = (h >> 32) % period;
        hit % period == offset
    }
}

/// The programmatically armed plan (None = fall through to the env plan).
fn armed_slot() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// The `PTRIDER_CHAOS=<seed>` environment plan, read once per process.
/// Any non-empty value arms a transient plan; a decimal value is the seed
/// directly, anything else is hashed into one.
fn env_plan() -> Option<&'static Arc<FaultPlan>> {
    static PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let raw = std::env::var("PTRIDER_CHAOS").ok()?;
        if raw.is_empty() {
            return None;
        }
        let seed = raw.parse::<u64>().unwrap_or_else(|_| fnv1a(raw.as_bytes()));
        Some(Arc::new(FaultPlan::transient(seed)))
    })
    .as_ref()
}

/// Arms `plan` process-wide, replacing any previously armed plan. The
/// environment plan (if any) is shadowed until [`disarm`].
pub fn arm(plan: FaultPlan) {
    *armed_slot().write().unwrap_or_else(|p| p.into_inner()) = Some(Arc::new(plan));
}

/// Disarms the programmatically armed plan; the `PTRIDER_CHAOS`
/// environment plan (if any) becomes visible again.
pub fn disarm() {
    *armed_slot().write().unwrap_or_else(|p| p.into_inner()) = None;
}

/// The plan currently in effect: the programmatically armed one, else the
/// environment one, else `None`.
pub fn current() -> Option<Arc<FaultPlan>> {
    let armed = armed_slot()
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    armed.or_else(|| env_plan().cloned())
}

/// Total faults injected by the plan currently in effect (0 when none).
pub fn injected_faults() -> u64 {
    current().map(|p| p.injected()).unwrap_or(0)
}

/// Error-class fault query: returns `true` when the current hit of `site`
/// should be treated as a transient failure. The caller is expected to
/// retry the operation exactly once; the schedule guarantees the retry's
/// hit does not fail again.
pub fn fail_point(site: &'static str) -> bool {
    debug_assert!(ERROR_SITES.contains(&site), "not an error site: {site}");
    let Some(plan) = current() else { return false };
    let hit = plan.take_hit(site);
    if plan.error_fires(site, hit) {
        plan.injected.fetch_add(1, Ordering::Relaxed);
        true
    } else {
        false
    }
}

/// Panic-class fault query: panics when the programmatically armed plan
/// scheduled this exact hit of `site`; otherwise a cheap no-op. Transient
/// (environment) plans never panic.
pub fn panic_point(site: &'static str) {
    debug_assert!(PANIC_SITES.contains(&site), "not a panic site: {site}");
    let Some(plan) = current() else { return };
    if let Mode::PanicOnce { site: s, at } = plan.mode {
        if s == site {
            let hit = plan.take_hit(site);
            if hit == at {
                plan.injected.fetch_add(1, Ordering::Relaxed);
                panic!("injected fault: {site} (hit {hit})");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_schedule_is_deterministic_and_never_consecutive() {
        for seed in [0u64, 1, 7, 20090529] {
            let plan = FaultPlan::transient(seed);
            for &site in ERROR_SITES {
                let fires: Vec<bool> = (0..64).map(|n| plan.error_fires(site, n)).collect();
                let again: Vec<bool> = (0..64).map(|n| plan.error_fires(site, n)).collect();
                assert_eq!(fires, again, "schedule must be pure");
                assert!(fires.iter().any(|&f| f), "site {site} must fire sometimes");
                for w in fires.windows(2) {
                    assert!(!(w[0] && w[1]), "consecutive hits fired at {site}");
                }
            }
        }
    }

    #[test]
    fn transient_plans_fail_and_then_succeed_on_retry() {
        // Exercised on a local (unarmed) plan so concurrently running tests
        // cannot interleave hits of the shared per-site counters.
        let plan = FaultPlan::transient(42);
        let mut failures = 0usize;
        for _ in 0..32 {
            let hit = plan.take_hit(JOURNAL_WRITE);
            if plan.error_fires(JOURNAL_WRITE, hit) {
                failures += 1;
                let retry = plan.take_hit(JOURNAL_WRITE);
                assert!(!plan.error_fires(JOURNAL_WRITE, retry), "retry must pass");
            }
        }
        assert!(failures > 0, "a 32-hit run must inject at least once");
    }

    #[test]
    fn panic_once_fires_exactly_at_the_scheduled_hit() {
        let plan = FaultPlan::panic_once(MID_COMMIT, 2);
        // Error sites never fire under panic-once plans.
        assert!(!plan.error_fires(JOURNAL_WRITE, 0));
        arm(plan);
        panic_point(MID_COMMIT); // hit 0
        panic_point(MID_COMMIT); // hit 1
        let r = std::panic::catch_unwind(|| panic_point(MID_COMMIT)); // hit 2
        disarm();
        assert!(r.is_err(), "hit 2 must panic");
    }
}
