//! The matching runtime: how wide a burst fans out.
//!
//! Every request is matched on its caller's thread. The one place the
//! engine fans out is phase 1 (tentative matching) of conflict-graph batch
//! admission (`engine::run_batch_greedy`): [`MatchRuntime::fill_chunked`]
//! splits the burst into contiguous chunks, runs the first on the caller
//! and each other chunk on its own `std::thread::scope` thread, and returns
//! once every chunk has finished.
//!
//! The width is [`crate::EngineConfig::pool_size`]; `0` (the default)
//! means `std::thread::available_parallelism()`.
//!
//! A panic in a spawned chunk does not unwind past the scope: every
//! spawned chunk is joined first, each panic is counted into
//! [`MatchRuntime::job_panics`], and then the first payload (in chunk
//! order) is re-raised on the caller.

use ptrider_roadnet::fault;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cores the runtime detected on this machine.
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The engine's matching runtime: the resolved fan-out width plus the
/// tally of panicked chunks. Owned by the engine's shared substrate.
#[derive(Debug)]
pub struct MatchRuntime {
    /// Total parallelism: the caller's thread plus spawned chunks.
    parallelism: usize,
    /// Spawned chunks that panicked over the runtime's lifetime.
    job_panics: AtomicU64,
}

impl MatchRuntime {
    /// Builds a runtime for `configured` (the
    /// [`crate::EngineConfig::pool_size`] value): an explicit size (≥ 1)
    /// wins, `0` means [`detected_parallelism`].
    pub fn from_config(configured: usize) -> Self {
        let parallelism = if configured >= 1 {
            configured
        } else {
            detected_parallelism()
        };
        Self::with_parallelism(parallelism)
    }

    /// Builds a runtime with an explicit total parallelism (1 = fully
    /// inline: no thread is ever spawned).
    pub fn with_parallelism(parallelism: usize) -> Self {
        MatchRuntime {
            parallelism: parallelism.max(1),
            job_panics: AtomicU64::new(0),
        }
    }

    /// Total parallelism of the runtime (caller thread included).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Total spawned chunks that panicked over this runtime's lifetime
    /// (every panic is counted, including the ones whose payloads were not
    /// re-raised because an earlier chunk of the same call panicked too);
    /// surfaced as [`crate::EngineStats::runtime_job_panics`].
    pub fn job_panics(&self) -> u64 {
        self.job_panics.load(Ordering::Relaxed)
    }

    /// Fills every element of `slots` via `fill(global_index, slot)`,
    /// split into at most [`Self::parallelism`] contiguous chunks: the
    /// first chunk runs on the caller, each other chunk on its own scoped
    /// thread. Returns once every slot is filled.
    ///
    /// Chunk boundaries depend only on the parallelism and `slots.len()` —
    /// deterministic for a given configuration, which the bit-identity
    /// properties rely on. A panic in a spawned chunk is re-raised here
    /// after every chunk has joined (see the module docs).
    pub fn fill_chunked<T, F>(&self, slots: &mut [T], fill: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        if slots.is_empty() {
            return;
        }
        let chunk_size = slots.len().div_ceil(self.parallelism.min(slots.len()));
        let fill_chunk = |offset: usize, chunk: &mut [T]| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                fill(offset + j, slot);
            }
        };
        let mut chunks = slots.chunks_mut(chunk_size);
        let local = chunks.next().expect("a non-empty slice has a first chunk");
        let (local_result, panics) = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .enumerate()
                .map(|(ci, chunk)| {
                    let fill_chunk = &fill_chunk;
                    scope.spawn(move || {
                        // Chaos site: an injected panic here is counted and
                        // re-raised exactly like a genuine chunk panic.
                        fault::panic_point(fault::POOL_JOB);
                        fill_chunk((ci + 1) * chunk_size, chunk)
                    })
                })
                .collect();
            let local_result = catch_unwind(AssertUnwindSafe(|| fill_chunk(0, local)));
            let panics: Vec<_> = handles
                .into_iter()
                .filter_map(|handle| handle.join().err())
                .collect();
            (local_result, panics)
        });
        if !panics.is_empty() {
            self.job_panics
                .fetch_add(panics.len() as u64, Ordering::Relaxed);
        }
        if let Err(payload) = local_result {
            resume_unwind(payload);
        }
        if let Some(first) = panics.into_iter().next() {
            resume_unwind(first);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runtime_resolution_prefers_explicit_config() {
        assert_eq!(MatchRuntime::from_config(3).parallelism(), 3);
        assert_eq!(
            MatchRuntime::from_config(0).parallelism(),
            detected_parallelism()
        );
        assert_eq!(MatchRuntime::with_parallelism(0).parallelism(), 1);
    }

    #[test]
    fn fill_chunked_covers_every_slot_exactly_once() {
        for parallelism in [1usize, 2, 4] {
            let rt = MatchRuntime::with_parallelism(parallelism);
            for len in [0usize, 1, 3, 8, 17] {
                let mut slots = vec![usize::MAX; len];
                rt.fill_chunked(&mut slots, |i, slot| {
                    *slot = i * 10;
                });
                let expected: Vec<usize> = (0..len).map(|i| i * 10).collect();
                assert_eq!(slots, expected, "parallelism {parallelism}, len {len}");
            }
        }
    }

    #[test]
    fn parallelism_one_never_spawns() {
        let rt = MatchRuntime::with_parallelism(1);
        let caller = std::thread::current().id();
        let mut slots = vec![None; 5];
        rt.fill_chunked(&mut slots, |_, slot| {
            *slot = Some(std::thread::current().id());
        });
        assert!(slots.iter().all(|&id| id == Some(caller)));
    }

    #[test]
    fn job_panic_propagates_after_the_batch_drains() {
        let rt = MatchRuntime::with_parallelism(3);
        let finished = AtomicUsize::new(0);
        let mut slots = vec![0u8; 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            rt.fill_chunked(&mut slots, |i, _| {
                if i == 1 {
                    panic!("chunk failed");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "the chunk panic must reach the caller");
        assert_eq!(finished.load(Ordering::Relaxed), 2, "the others ran");
        assert_eq!(rt.job_panics(), 1);
        // The runtime is still usable after a panicked call.
        rt.fill_chunked(&mut slots, |i, slot| *slot = i as u8);
        assert_eq!(slots, vec![0, 1, 2]);
        assert_eq!(rt.job_panics(), 1);
    }

    #[test]
    fn every_job_panic_is_counted_not_just_the_first() {
        let rt = MatchRuntime::with_parallelism(3);
        let mut slots = vec![0u8; 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            rt.fill_chunked(&mut slots, |i, _| match i {
                1 => panic!("first failure"),
                2 => panic!("second failure"),
                _ => {}
            });
        }));
        let payload = result.expect_err("the call must re-raise");
        assert_eq!(rt.job_panics(), 2, "both panics must be counted");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"first failure"),
            "the first chunk's payload is re-raised"
        );
    }
}
