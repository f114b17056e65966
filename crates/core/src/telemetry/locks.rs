//! The lock-contention profiler: named [`LockSite`]s recording wait/hold
//! histograms and contended-acquisition counts, and the drop-in
//! [`ProfiledMutex`]/[`ProfiledRwLock`] wrappers that feed them.
//!
//! A profiled lock without a site (telemetry below `Spans`) is a plain
//! `std::sync` lock behind one `Option` branch — no clock is read and no
//! atomic is touched. With a site attached, every acquisition:
//!
//! 1. counts itself, 2. tries the lock non-blockingly — a miss counts as a
//!    *contended* acquisition — 3. records the wait time (0 for an
//!    uncontended try-lock hit, so wait percentiles describe the true
//!    acquisition distribution, not just the unlucky tail), and 4. records
//!    the hold time when the guard drops.
//!
//! The per-site summaries roll up into [`ContentionReport`] — the
//! geo-sharding baseline instrument: it names the lock, the wait, and how
//! often anyone queued behind it.

use super::histogram::{HistogramSnapshot, ShardedHistogram};
use super::Counter;
use std::sync::{
    Arc, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError,
};
use std::time::Instant;

/// One named lock site: wait/hold histograms (nanoseconds) plus
/// acquisition and contention counters. Sites are registered through
/// [`super::Telemetry::lock_site`] and live for the engine's lifetime.
pub struct LockSite {
    name: String,
    wait: ShardedHistogram,
    hold: ShardedHistogram,
    acquisitions: Counter,
    contended: Counter,
}

impl LockSite {
    pub(crate) fn new(name: &str) -> LockSite {
        LockSite {
            name: name.to_string(),
            wait: ShardedHistogram::new(),
            hold: ShardedHistogram::new(),
            acquisitions: Counter::new(),
            contended: Counter::new(),
        }
    }

    /// The site's name (`"world.write"`, `"sessions"`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total acquisitions through this site.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.get()
    }

    /// Acquisitions that found the lock held and had to wait.
    pub fn contended(&self) -> u64 {
        self.contended.get()
    }

    /// Snapshot of the wait-time histogram (nanoseconds; one sample per
    /// acquisition, 0 when the try-lock hit).
    pub fn wait_snapshot(&self) -> HistogramSnapshot {
        self.wait.snapshot()
    }

    /// Snapshot of the hold-time histogram (nanoseconds; one sample per
    /// released guard).
    pub fn hold_snapshot(&self) -> HistogramSnapshot {
        self.hold.snapshot()
    }

    /// Summarizes the site for a [`ContentionReport`].
    pub fn summary(&self) -> LockSiteSummary {
        let wait = self.wait_snapshot();
        let hold = self.hold_snapshot();
        LockSiteSummary {
            name: self.name.clone(),
            acquisitions: self.acquisitions(),
            contended: self.contended(),
            wait_p50_ns: wait.quantile(0.5),
            wait_p99_ns: wait.quantile(0.99),
            wait_max_ns: wait.max(),
            wait_total_ns: wait.sum(),
            hold_p50_ns: hold.quantile(0.5),
            hold_p99_ns: hold.quantile(0.99),
            hold_max_ns: hold.max(),
        }
    }
}

impl std::fmt::Debug for LockSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockSite")
            .field("name", &self.name)
            .field("acquisitions", &self.acquisitions())
            .field("contended", &self.contended())
            .finish()
    }
}

/// Point-in-time rollup of one lock site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockSiteSummary {
    /// Site name.
    pub name: String,
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to wait.
    pub contended: u64,
    /// Median wait across all acquisitions, nanoseconds.
    pub wait_p50_ns: u64,
    /// 99th-percentile wait, nanoseconds.
    pub wait_p99_ns: u64,
    /// Worst observed wait, nanoseconds.
    pub wait_max_ns: u64,
    /// Total nanoseconds spent waiting at this site.
    pub wait_total_ns: u64,
    /// Median hold time, nanoseconds.
    pub hold_p50_ns: u64,
    /// 99th-percentile hold time, nanoseconds.
    pub hold_p99_ns: u64,
    /// Worst observed hold, nanoseconds.
    pub hold_max_ns: u64,
}

/// Every registered lock site, summarized — the quantitative baseline the
/// geo-sharding work measures itself against.
#[derive(Clone, Debug, Default)]
pub struct ContentionReport {
    /// One summary per registered site, in registration order.
    pub sites: Vec<LockSiteSummary>,
}

impl ContentionReport {
    /// Looks a site up by name.
    pub fn site(&self, name: &str) -> Option<&LockSiteSummary> {
        self.sites.iter().find(|s| s.name == name)
    }
}

fn wrap_result<G, P>(
    result: Result<G, PoisonError<G>>,
    wrap: impl FnOnce(G) -> P,
) -> LockResult<P> {
    match result {
        Ok(g) => Ok(wrap(g)),
        Err(p) => Err(PoisonError::new(wrap(p.into_inner()))),
    }
}

/// A `std::sync::Mutex` that, when a [`LockSite`] is attached, records
/// wait/hold times and contended acquisitions. Guards preserve poisoning
/// semantics (`LockResult`), so callers keep their existing
/// `unwrap`/`unwrap_or_else(|p| p.into_inner())` patterns.
#[derive(Debug)]
pub struct ProfiledMutex<T> {
    inner: Mutex<T>,
    site: Option<Arc<LockSite>>,
}

impl<T> ProfiledMutex<T> {
    /// Wraps `value`; profiling is active iff `site` is `Some` (which
    /// [`super::Telemetry::lock_site`] only returns at the `Spans` level).
    pub fn new(value: T, site: Option<Arc<LockSite>>) -> ProfiledMutex<T> {
        ProfiledMutex {
            inner: Mutex::new(value),
            site,
        }
    }

    /// Acquires the lock, recording wait/contention when profiled.
    pub fn lock(&self) -> LockResult<ProfiledMutexGuard<'_, T>> {
        let Some(site) = &self.site else {
            return wrap_result(self.inner.lock(), |g| ProfiledMutexGuard {
                guard: g,
                site: None,
                acquired: None,
            });
        };
        site.acquisitions.inc();
        let start = Instant::now();
        let result = match self.inner.try_lock() {
            Ok(g) => Ok(g),
            Err(TryLockError::Poisoned(p)) => Err(p),
            Err(TryLockError::WouldBlock) => {
                site.contended.inc();
                self.inner.lock()
            }
        };
        site.wait.record(start.elapsed().as_nanos() as u64);
        let acquired = Instant::now();
        wrap_result(result, |g| ProfiledMutexGuard {
            guard: g,
            site: Some(site),
            acquired: Some(acquired),
        })
    }

    /// Mutable access without locking (the usual `Mutex::get_mut`).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

/// RAII guard for [`ProfiledMutex`]; records hold time on drop.
pub struct ProfiledMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    site: Option<&'a Arc<LockSite>>,
    acquired: Option<Instant>,
}

impl<T> std::ops::Deref for ProfiledMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for ProfiledMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for ProfiledMutexGuard<'_, T> {
    fn drop(&mut self) {
        if let (Some(site), Some(at)) = (self.site, self.acquired) {
            site.hold.record(at.elapsed().as_nanos() as u64);
        }
    }
}

/// A `std::sync::RwLock` with separate read/write [`LockSite`]s — the
/// world lock's write site *is* the admission-writer queue the e17 sweep
/// could only infer.
#[derive(Debug)]
pub struct ProfiledRwLock<T> {
    inner: RwLock<T>,
    read_site: Option<Arc<LockSite>>,
    write_site: Option<Arc<LockSite>>,
}

impl<T> ProfiledRwLock<T> {
    /// Wraps `value`; each side profiles iff its site is `Some`.
    pub fn new(
        value: T,
        read_site: Option<Arc<LockSite>>,
        write_site: Option<Arc<LockSite>>,
    ) -> ProfiledRwLock<T> {
        ProfiledRwLock {
            inner: RwLock::new(value),
            read_site,
            write_site,
        }
    }

    /// Acquires a shared read guard, recording wait/contention when
    /// profiled.
    pub fn read(&self) -> LockResult<ProfiledReadGuard<'_, T>> {
        let Some(site) = &self.read_site else {
            return wrap_result(self.inner.read(), |g| ProfiledReadGuard {
                guard: g,
                site: None,
                acquired: None,
            });
        };
        site.acquisitions.inc();
        let start = Instant::now();
        let result = match self.inner.try_read() {
            Ok(g) => Ok(g),
            Err(TryLockError::Poisoned(p)) => Err(p),
            Err(TryLockError::WouldBlock) => {
                site.contended.inc();
                self.inner.read()
            }
        };
        site.wait.record(start.elapsed().as_nanos() as u64);
        let acquired = Instant::now();
        wrap_result(result, |g| ProfiledReadGuard {
            guard: g,
            site: Some(site),
            acquired: Some(acquired),
        })
    }

    /// Acquires the exclusive write guard, recording wait/contention when
    /// profiled.
    pub fn write(&self) -> LockResult<ProfiledWriteGuard<'_, T>> {
        let Some(site) = &self.write_site else {
            return wrap_result(self.inner.write(), |g| ProfiledWriteGuard {
                guard: g,
                site: None,
                acquired: None,
            });
        };
        site.acquisitions.inc();
        let start = Instant::now();
        let result = match self.inner.try_write() {
            Ok(g) => Ok(g),
            Err(TryLockError::Poisoned(p)) => Err(p),
            Err(TryLockError::WouldBlock) => {
                site.contended.inc();
                self.inner.write()
            }
        };
        site.wait.record(start.elapsed().as_nanos() as u64);
        let acquired = Instant::now();
        wrap_result(result, |g| ProfiledWriteGuard {
            guard: g,
            site: Some(site),
            acquired: Some(acquired),
        })
    }
}

/// RAII read guard for [`ProfiledRwLock`]; records hold time on drop.
pub struct ProfiledReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    site: Option<&'a Arc<LockSite>>,
    acquired: Option<Instant>,
}

impl<T> std::ops::Deref for ProfiledReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Drop for ProfiledReadGuard<'_, T> {
    fn drop(&mut self) {
        if let (Some(site), Some(at)) = (self.site, self.acquired) {
            site.hold.record(at.elapsed().as_nanos() as u64);
        }
    }
}

/// RAII write guard for [`ProfiledRwLock`]; records hold time on drop.
pub struct ProfiledWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    site: Option<&'a Arc<LockSite>>,
    acquired: Option<Instant>,
}

impl<T> std::ops::Deref for ProfiledWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for ProfiledWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for ProfiledWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let (Some(site), Some(at)) = (self.site, self.acquired) {
            site.hold.record(at.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unprofiled_locks_pass_through() {
        let m = ProfiledMutex::new(5, None);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock().unwrap(), 6);
        let rw = ProfiledRwLock::new(7, None, None);
        assert_eq!(*rw.read().unwrap(), 7);
        *rw.write().unwrap() = 8;
        assert_eq!(*rw.read().unwrap(), 8);
    }

    #[test]
    fn profiled_mutex_accounts_wait_and_hold() {
        let site = Arc::new(LockSite::new("test.mutex"));
        let m = ProfiledMutex::new(0u64, Some(Arc::clone(&site)));
        {
            let _g = m.lock().unwrap(); // uncontended
        }
        assert_eq!(site.acquisitions(), 1);
        assert_eq!(site.contended(), 0);
        assert_eq!(site.wait_snapshot().count(), 1);
        assert_eq!(site.hold_snapshot().count(), 1);

        // Thread A holds ~40ms; B must queue behind it.
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let mut g = m.lock().unwrap();
                std::thread::sleep(Duration::from_millis(40));
                *g += 1;
            });
            // Give A time to take the lock before B tries.
            std::thread::sleep(Duration::from_millis(10));
            let waiter = scope.spawn(|| {
                let mut g = m.lock().unwrap();
                *g += 1;
            });
            holder.join().unwrap();
            waiter.join().unwrap();
        });
        assert_eq!(*m.lock().unwrap(), 2);
        assert_eq!(site.acquisitions(), 4);
        assert!(site.contended() >= 1, "B queued behind A");
        let wait = site.wait_snapshot();
        assert!(
            wait.max() >= 20_000_000,
            "B waited most of A's hold: {} ns",
            wait.max()
        );
        let hold = site.hold_snapshot();
        assert!(
            hold.max() >= 35_000_000,
            "A's hold was recorded: {} ns",
            hold.max()
        );
        let summary = site.summary();
        assert_eq!(summary.acquisitions, 4);
        assert!(summary.wait_max_ns >= 20_000_000);
    }

    #[test]
    fn profiled_rwlock_separates_read_and_write_sites() {
        let rs = Arc::new(LockSite::new("world.read"));
        let ws = Arc::new(LockSite::new("world.write"));
        let rw = ProfiledRwLock::new(0u64, Some(Arc::clone(&rs)), Some(Arc::clone(&ws)));
        {
            let _r = rw.read().unwrap();
        }
        {
            let mut w = rw.write().unwrap();
            *w = 1;
        }
        assert_eq!(rs.acquisitions(), 1);
        assert_eq!(ws.acquisitions(), 1);
        assert_eq!(rs.hold_snapshot().count(), 1);
        assert_eq!(ws.hold_snapshot().count(), 1);

        // A held read blocks a writer: the write site sees contention.
        // `write` counts contention before it blocks, so once the count
        // moves the writer is queued and the hold below is all wait.
        std::thread::scope(|scope| {
            let r = rw.read().unwrap();
            let writer = scope.spawn(|| {
                let mut w = rw.write().unwrap();
                *w = 2;
            });
            while ws.contended() == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(10));
            drop(r);
            writer.join().unwrap();
        });
        assert!(ws.contended() >= 1, "writer queued behind reader");
        assert!(ws.wait_snapshot().max() >= 10_000_000);
    }

    #[test]
    fn poisoned_profiled_mutex_hands_back_the_guard() {
        let site = Arc::new(LockSite::new("poison"));
        let m = Arc::new(ProfiledMutex::new(1u64, Some(site)));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        let v = *m.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(v, 1);
    }
}
