//! Parallel candidate verification on the persistent matching runtime.
//!
//! `verify_vehicle` — the kinetic-tree insertion enumeration plus pricing —
//! is read-only over [`MatchContext`] and independent per vehicle, so a
//! batch of candidate vehicles can be verified on multiple threads, each
//! accumulating its own [`Skyline`] and [`MatchStats`], merged at the end.
//! The merge is exact: the skyline's non-dominated set is independent of
//! insertion order (dominance is transitive), one vehicle's options always
//! stay on one thread in enumeration order, and per-thread results are
//! merged in deterministic chunk order — so the parallel path returns
//! byte-identical skylines to the sequential one (property-tested in
//! `tests/matcher_equivalence.rs`) for **any** worker count.
//!
//! Chunks are dispatched onto the engine's long-lived
//! [`crate::runtime::WorkerPool`] (reached through
//! [`MatchContext::runtime`]) instead of spawning scoped threads per batch:
//! the workers keep their generation-stamped scratch buffers warm across
//! batches and the per-batch cost drops from N thread spawns to N queue
//! pushes. The caller verifies the first chunk inline while the workers
//! take the rest. A context without a runtime handle falls back to the
//! sequential loop — never to per-batch spawning.

use super::plan::DistancePlan;
use super::{verify_vehicle, MatchContext, MatchStats};
use crate::skyline::Skyline;
use ptrider_vehicles::{ProspectiveRequest, Vehicle};

/// Minimum vehicles per chunk.
const MIN_PER_THREAD: usize = 4;

/// How many chunks (caller + pool workers) to split a batch into.
fn worker_count(ctx: &MatchContext<'_>, batch: usize) -> usize {
    let available = ctx.runtime.map(|rt| rt.parallelism()).unwrap_or(1);
    if batch < ctx.config.par_auto_min_batch.max(2) || available < 2 {
        1
    } else {
        available.min(batch / MIN_PER_THREAD).max(1)
    }
}

/// Verifies one contiguous chunk into a fresh skyline + stats pair.
fn verify_chunk(
    ctx: &MatchContext<'_>,
    req: &ProspectiveRequest,
    chunk: &[&Vehicle],
) -> (Skyline, MatchStats) {
    let mut sky = Skyline::new();
    let mut st = MatchStats::default();
    for vehicle in chunk {
        verify_vehicle(ctx, req, vehicle, &mut sky, &mut st);
    }
    (sky, st)
}

/// Verifies a batch of vehicles, in parallel when worthwhile, merging all
/// options and counters into `skyline` / `stats`. The request's distance
/// plan first caches the batch's `s`/`d` legs, so the verification itself
/// (on any thread) reads them from the oracle cache.
pub(crate) fn verify_vehicles(
    ctx: &MatchContext<'_>,
    req: &ProspectiveRequest,
    plan: &mut DistancePlan<'_>,
    vehicles: &[&Vehicle],
    skyline: &mut Skyline,
    stats: &mut MatchStats,
) {
    plan.prepare(vehicles);
    let workers = worker_count(ctx, vehicles.len());
    let runtime = match ctx.runtime {
        Some(rt) if workers > 1 => rt,
        _ => {
            for vehicle in vehicles {
                verify_vehicle(ctx, req, vehicle, skyline, stats);
            }
            return;
        }
    };

    let chunk_size = vehicles.len().div_ceil(workers);
    let chunks: Vec<&[&Vehicle]> = vehicles.chunks(chunk_size).collect();
    let mut results: Vec<Option<(Skyline, MatchStats)>> = vec![None; chunks.len()];
    // When the request carries a live trace, each chunk job additionally
    // pushes a `pool.job` span under the request's tree (the pool's own
    // job histogram is recorded by the worker loop — `trace_only` keeps
    // the sample from being counted twice).
    let traced = ctx
        .telemetry
        .filter(|t| t.tracing_enabled())
        .zip(ctx.trace.filter(|c| c.trace_id != 0));
    // One result slot per chunk: the caller takes the first chunk, the pool
    // workers take the rest (one job each), via the runtime's shared
    // scoped-dispatch helper.
    runtime.fill_chunked(chunks.len(), &mut results, |ci, slot| {
        let start = traced.map(|_| std::time::Instant::now());
        *slot = Some(verify_chunk(ctx, req, chunks[ci]));
        if let (Some((t, c)), Some(start)) = (traced, start) {
            t.trace_only(
                crate::telemetry::Stage::PoolJob,
                start,
                start.elapsed().as_nanos() as u64,
                c,
                req.id.0,
            );
        }
    });

    // Deterministic merge in chunk order.
    for result in results {
        let (sky, st) = result.expect("every verification chunk completes");
        skyline.merge(sky);
        stats.merge(&st);
    }
}
