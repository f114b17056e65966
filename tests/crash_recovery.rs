//! Crash-recovery chaos property: kill the service at an arbitrary
//! injected panic site and hit index, recover from the journal, and the
//! recovered state is **bit-identical** to an observed pre-crash state.
//!
//! The run records `fingerprint()` after every completed operation, keyed
//! by the journal sequence number. A [`fault::FaultPlan::panic_once`] is
//! armed at a proptest-chosen `(site, hit)`; until that hit fires the run
//! is byte-identical to a fault-free one, so the recorded trail *is* the
//! reference — including the environmental accumulators (wall-clock match
//! seconds, oracle cache misses) that no separate run could reproduce.
//!
//! The hit is drawn from the hits the script actually reaches: each case
//! first runs its script under a plan that counts every panic site
//! without firing ([`fault::FaultPlan::hits`]), then draws the hit below
//! that count — so every case really kills the service, and the test
//! asserts it.
//!
//! After the crash the torn service is dropped and recovered twice over
//! fresh engines:
//!
//! * both recoveries must agree bit for bit (replay is deterministic);
//! * if the killed operation died *before* its journal append
//!   ([`fault::MID_COMMIT`]) the recovered `journal_next_seq()` indexes a
//!   recorded fingerprint, which must match exactly: the torn in-memory op
//!   simply never happened;
//! * if it died *after* the append ([`fault::POST_APPEND`]) the journal
//!   holds one record nobody observed live; the recovered seq is then
//!   exactly one past the recorded trail, and determinism plus continued
//!   service (a fresh submit/confirm round-trip) stand in for the missing
//!   observation.
//!
//! Covered with frequent automatic snapshots so the snapshot + tail path
//! is exercised, not just from-genesis replay. The scripts include bursts
//! (`submit_batch_greedy`), which commit each choice before matching the
//! next request; a deterministic case kills a burst between two of its
//! commits.
//!
//! The fault plan is process-global, so every test here holds
//! [`FAULT_PLAN`] while it runs.

use proptest::prelude::*;
use ptrider::roadnet::RoadNetworkBuilder;
use ptrider::{
    fault, Decision, EngineConfig, GridConfig, Journal, JournalConfig, OptionId, PtRider,
    RideService, RoadNetwork, ServiceConfig, SessionId, VertexId,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Serialises the tests of this binary over the process-global fault plan.
static FAULT_PLAN: Mutex<()> = Mutex::new(());

/// Where the chaos run puts its vehicles: spread over the lattice so
/// bursts find several candidates and conflict on some of them.
const VEHICLES: [u32; 6] = [0, 4, 7, 12, 20, 24];

/// A 5x5 lattice with 1 km edges — big enough for multi-stop schedules,
/// small enough that every engine builds in microseconds.
fn lattice() -> RoadNetwork {
    let side = 5usize;
    let mut b = RoadNetworkBuilder::new();
    let mut ids = Vec::new();
    for y in 0..side {
        for x in 0..side {
            ids.push(b.add_vertex(x as f64 * 1000.0, y as f64 * 1000.0));
        }
    }
    for y in 0..side {
        for x in 0..side {
            let u = ids[y * side + x];
            if x + 1 < side {
                b.add_bidirectional_edge(u, ids[y * side + x + 1], 1000.0);
            }
            if y + 1 < side {
                b.add_bidirectional_edge(u, ids[(y + 1) * side + x], 1000.0);
            }
        }
    }
    b.build().unwrap()
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ptrider-crash-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One scripted admission operation. The script is pure data so a case is
/// reproducible from its seed alone.
#[derive(Clone, Copy, Debug)]
enum ScriptOp {
    Submit {
        origin: u32,
        destination: u32,
        riders: u32,
        at: f64,
    },
    Respond {
        submit_index: usize,
        choose: bool,
        at: f64,
    },
    Tick {
        at: f64,
    },
    Prune,
    /// `submit_batch_greedy` over the first `len` specs (2–4); every rider
    /// takes option 0.
    Burst {
        specs: [(u32, u32, u32); 4],
        len: usize,
        at: f64,
    },
}

/// A `(origin, destination, riders)` spec with distinct endpoints.
fn spec(next: &mut impl FnMut(u64) -> u64) -> (u32, u32, u32) {
    let origin = next(25) as u32;
    let mut destination = next(25) as u32;
    if destination == origin {
        destination = (destination + 1) % 25;
    }
    (origin, destination, 1 + next(2) as u32)
}

/// Derives a deterministic script from a seed with a tiny xorshift
/// (the vendored proptest has no shrinking, so readable scripts matter
/// more than minimal ones).
fn script(seed: u64, len: usize) -> Vec<ScriptOp> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut ops = Vec::with_capacity(len);
    let mut submits = 0usize;
    let mut clock = 0.0f64;
    for _ in 0..len {
        clock += 1.0;
        let roll = next(11);
        if submits == 0 || roll < 4 {
            let (origin, destination, riders) = spec(&mut next);
            ops.push(ScriptOp::Submit {
                origin,
                destination,
                riders,
                at: clock,
            });
            submits += 1;
        } else if roll < 8 {
            ops.push(ScriptOp::Respond {
                submit_index: next(submits as u64) as usize,
                choose: next(3) > 0,
                at: clock,
            });
        } else if roll == 8 {
            // Jump the clock so open offers cross the TTL.
            clock += 10.0;
            ops.push(ScriptOp::Tick { at: clock });
        } else if roll == 9 {
            ops.push(ScriptOp::Prune);
        } else {
            let specs = [
                spec(&mut next),
                spec(&mut next),
                spec(&mut next),
                spec(&mut next),
            ];
            ops.push(ScriptOp::Burst {
                specs,
                len: 2 + next(3) as usize,
                at: clock,
            });
        }
    }
    ops
}

fn build_service(
    engine_config: EngineConfig,
    service_config: ServiceConfig,
    dir: &PathBuf,
) -> RideService {
    let journal = Journal::create(dir, JournalConfig::default().with_snapshot_every_ops(6))
        .expect("journal dir is writable");
    RideService::new(lattice(), GridConfig::with_dimensions(3, 3), engine_config)
        .with_service_config(service_config)
        .with_journal(journal)
}

/// Runs the script, calling `observe` after every completed operation.
/// Returns the index of the operation that died on an injected panic, or
/// `None` when every operation completed.
fn run_script(
    svc: &RideService,
    ops: &[ScriptOp],
    mut observe: impl FnMut(&RideService),
) -> Option<usize> {
    let mut sessions: Vec<SessionId> = Vec::new();
    for (index, op) in ops.iter().enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| match *op {
            ScriptOp::Submit {
                origin,
                destination,
                riders,
                at,
            } => {
                let offer = svc
                    .submit(VertexId(origin), VertexId(destination), riders, at)
                    .expect("scripted probes are valid");
                Some(offer.session)
            }
            ScriptOp::Respond {
                submit_index,
                choose,
                at,
            } => {
                if let Some(&session) = sessions.get(submit_index) {
                    let decision = if choose {
                        Decision::Choose(OptionId(0))
                    } else {
                        Decision::Decline
                    };
                    // Re-responds, expiries and empty skylines yield typed
                    // errors; all are legal script outcomes.
                    let _ = svc.respond(session, decision, at);
                }
                None
            }
            ScriptOp::Tick { at } => {
                svc.tick(at);
                None
            }
            ScriptOp::Prune => {
                svc.prune_resolved();
                None
            }
            ScriptOp::Burst { specs, len, at } => {
                let specs: Vec<_> = specs[..len]
                    .iter()
                    .map(|&(o, d, r)| (VertexId(o), VertexId(d), r))
                    .collect();
                svc.submit_batch_greedy(&specs, at, |_| Some(0));
                None
            }
        }));
        match outcome {
            Ok(Some(session)) => sessions.push(session),
            Ok(None) => {}
            Err(_) => return Some(index),
        }
        observe(svc);
    }
    None
}

fn recover_once(
    engine_config: EngineConfig,
    service_config: ServiceConfig,
    dir: &PathBuf,
) -> RideService {
    let engine = PtRider::new(lattice(), GridConfig::with_dimensions(3, 3), engine_config);
    RideService::recover(
        engine,
        service_config,
        dir,
        JournalConfig::default().with_snapshot_every_ops(6),
    )
    .expect("recovery succeeds")
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default().with_offer_ttl_secs(8.0)
}

/// Runs `ops` fault-free and returns the plan that counted its hits of
/// every panic site ([`fault::FaultPlan::hits`]). The chaos run is
/// byte-identical to this one up to its scheduled panic, so it reaches
/// the same hits.
fn count_hits(ops: &[ScriptOp]) -> Arc<fault::FaultPlan> {
    let dir = temp_dir();
    let svc = build_service(EngineConfig::default(), service_config(), &dir);
    for at in VEHICLES {
        svc.add_vehicle(VertexId(at));
    }
    // A panic-once plan whose hit never comes counts every panic site.
    fault::arm(fault::FaultPlan::panic_once(fault::MID_COMMIT, u64::MAX));
    let plan = fault::current().expect("a plan is armed");
    let died_at = run_script(&svc, ops, |_| {});
    fault::disarm();
    assert_eq!(died_at, None, "the counting run never fires");
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    plan
}

/// What one chaos case observed.
struct CaseOutcome {
    /// Index of the script operation the injected panic killed.
    died_at: Option<usize>,
    /// Recovery landed on a fingerprint the live run recorded.
    on_trail: bool,
    /// The journal position recovery landed on.
    recovered_seq: u64,
    /// The journal position of the last state the live run observed.
    last_observed_seq: u64,
}

fn run_case(
    ops: &[ScriptOp],
    site: &'static str,
    panic_at: u64,
) -> Result<CaseOutcome, TestCaseError> {
    let engine_config = EngineConfig::default();
    let service_config = service_config();
    let dir = temp_dir();

    // Chaos run, recording its own reference trail: every fingerprint is
    // observed *before* the scheduled panic fires, while the run is still
    // byte-identical to a fault-free one.
    let mut fingerprints: HashMap<u64, u64> = HashMap::new();
    let mut max_seq = 0u64;
    let died_at = {
        let svc = build_service(engine_config, service_config, &dir);
        for at in VEHICLES {
            svc.add_vehicle(VertexId(at));
        }
        let mut record = |svc: &RideService| {
            let seq = svc.journal_next_seq().expect("journal attached");
            let fp = svc.fingerprint();
            max_seq = max_seq.max(seq);
            if let Some(prev) = fingerprints.insert(seq, fp) {
                // An op that appends nothing must also change nothing.
                assert_eq!(prev, fp, "seq {seq} observed with two states");
            }
        };
        record(&svc);
        fault::arm(fault::FaultPlan::panic_once(site, panic_at));
        let died_at = run_script(&svc, ops, &mut record);
        fault::disarm();
        died_at
    };
    // Recover twice over fresh engines; wherever the crash landed, replay
    // must be deterministic.
    let recovered = recover_once(engine_config, service_config, &dir);
    let again = recover_once(engine_config, service_config, &dir);
    let seq = recovered.journal_next_seq().expect("journal attached");
    prop_assert_eq!(
        again.journal_next_seq().expect("journal attached"),
        seq,
        "both recoveries replay the same journal position"
    );
    prop_assert_eq!(
        recovered.fingerprint(),
        again.fingerprint(),
        "replay is deterministic ({} hit {})",
        site,
        panic_at
    );

    let on_trail = fingerprints.contains_key(&seq);
    match fingerprints.get(&seq).copied() {
        // The crash predates the killed op's append: the recovered state
        // is one the live run observed, bit for bit.
        Some(expected) => prop_assert_eq!(
            recovered.fingerprint(),
            expected,
            "recovery diverged at seq {} ({} hit {})",
            seq,
            site,
            panic_at
        ),
        // The op was journaled and *then* killed: its post-state was never
        // observed live, so the journal is exactly one record past the
        // trail. Determinism (above) plus continued service (below) cover
        // the unobserved state.
        None => prop_assert_eq!(
            seq,
            max_seq + 1,
            "a post-append death journals exactly the killed op ({} hit {})",
            site,
            panic_at
        ),
    }

    // Whatever it recovered to, the service keeps serving and journaling.
    // (A decline is legal even when a saturated fleet leaves the skyline
    // empty, so it probes liveness without assuming spare capacity.)
    let offer = recovered
        .submit(VertexId(0), VertexId(24), 1, 1e6)
        .expect("the recovered service accepts new work");
    let resolved = recovered
        .respond(offer.session, Decision::Decline, 1e6)
        .expect("the recovered service resolves new work");
    prop_assert!(resolved.is_none(), "a decline resolves without a pickup");
    prop_assert!(
        recovered.journal_next_seq().expect("journal attached") > seq,
        "the recovered service appends past the crash point"
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(CaseOutcome {
        died_at,
        on_trail,
        recovered_seq: seq,
        last_observed_seq: max_seq,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn crashed_service_recovers_to_an_observed_state(
        seed in 0u64..1_000_000,
        site_index in 0usize..2,
        pick in 0u64..1_000_000,
    ) {
        let _plan = FAULT_PLAN.lock().unwrap_or_else(|p| p.into_inner());
        let ops = script(seed, 28);
        let counted = count_hits(&ops);
        // Only sites the script reaches can kill it.
        let reached: Vec<&'static str> = fault::PANIC_SITES
            .iter()
            .copied()
            .filter(|&site| counted.hits(site) > 0)
            .collect();
        if let Some(&site) = reached.get(site_index % reached.len().max(1)) {
            let hits = counted.hits(site);
            let panic_at = pick % hits;
            let outcome = run_case(&ops, site, panic_at)?;
            prop_assert!(
                outcome.died_at.is_some(),
                "{} hit {} of {} never fired (seed {})",
                site,
                panic_at,
                hits,
                seed
            );
        }
    }
}

/// A burst dies between two of its commits: the second commit panics
/// after the first has already changed the world. `Op::Batch` is appended
/// only after the whole burst, so recovery lands on the pre-burst state.
#[test]
fn a_burst_killed_mid_commit_recovers_to_the_pre_burst_state() -> Result<(), TestCaseError> {
    let _plan = FAULT_PLAN.lock().unwrap_or_else(|p| p.into_inner());
    let ops = [
        ScriptOp::Submit {
            origin: 6,
            destination: 18,
            riders: 1,
            at: 1.0,
        },
        ScriptOp::Respond {
            submit_index: 0,
            choose: true,
            at: 2.0,
        },
        ScriptOp::Burst {
            specs: [(5, 9, 1), (11, 13, 2), (15, 3, 1), (21, 17, 1)],
            len: 4,
            at: 3.0,
        },
        ScriptOp::Submit {
            origin: 2,
            destination: 22,
            riders: 1,
            at: 4.0,
        },
    ];
    let before_burst = count_hits(&ops[..2]).hits(fault::MID_COMMIT);
    let through_burst = count_hits(&ops[..3]).hits(fault::MID_COMMIT);
    prop_assert!(
        through_burst >= before_burst + 2,
        "the burst commits at least twice"
    );
    let outcome = run_case(&ops, fault::MID_COMMIT, before_burst + 1)?;
    prop_assert_eq!(outcome.died_at, Some(2), "the burst dies");
    prop_assert!(outcome.on_trail, "recovery lands on a recorded state");
    prop_assert_eq!(
        outcome.recovered_seq,
        outcome.last_observed_seq,
        "recovery lands on the pre-burst state"
    );
    Ok(())
}

/// A journaled service that has run script `seed`, plus one submit, so its
/// WAL holds records no snapshot covers yet.
fn scripted_service(dir: &PathBuf, seed: u64) -> RideService {
    let svc = build_service(EngineConfig::default(), service_config(), dir);
    for at in VEHICLES {
        svc.add_vehicle(VertexId(at));
    }
    assert_eq!(run_script(&svc, &script(seed, 40), |_| {}), None);
    svc.submit(VertexId(0), VertexId(24), 1, 1e6)
        .expect("a valid probe");
    svc
}

/// The journal directory's file names, sorted.
fn file_names(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn a_snapshot_leaves_only_the_snapshot_and_one_wal() {
    let _plan = FAULT_PLAN.lock().unwrap_or_else(|p| p.into_inner());
    let dir = temp_dir();
    let svc = scripted_service(&dir, 7);
    assert!(svc.snapshot().is_some(), "the snapshot was written");
    assert_eq!(file_names(&dir), ["snapshot.bin", "wal.bin"]);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash after the snapshot's rename but before the WAL swap's leaves
/// the old WAL, whose records the snapshot all covers, beside a stray
/// `wal.tmp`.
#[test]
fn a_crash_between_the_snapshot_and_the_wal_swap_recovers() {
    let _plan = FAULT_PLAN.lock().unwrap_or_else(|p| p.into_inner());
    let dir = temp_dir();
    let svc = scripted_service(&dir, 11);
    let old_wal = std::fs::read(dir.join("wal.bin")).unwrap();
    let watermark = svc.snapshot().expect("the snapshot was written");
    let fresh_wal = std::fs::read(dir.join("wal.bin")).unwrap();
    let (live, live_seq) = (svc.fingerprint(), svc.journal_next_seq());
    drop(svc);
    assert_eq!(live_seq, Some(watermark));

    std::fs::write(dir.join("wal.bin"), &old_wal).unwrap();
    std::fs::write(dir.join("wal.tmp"), &fresh_wal).unwrap();
    let recovered = recover_once(EngineConfig::default(), service_config(), &dir);
    assert_eq!(recovered.fingerprint(), live);
    assert_eq!(recovered.journal_next_seq(), live_seq);
    assert_eq!(file_names(&dir), ["snapshot.bin", "wal.bin"]);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The segmented layout of earlier builds renamed the WAL to
/// `segment-<first seq>.bin` before moving its fsynced replacement from
/// `wal.tmp` to `wal.bin`; a crash between the two renames left no
/// `wal.bin`. The segment's records all lie below the snapshot watermark.
#[test]
fn a_directory_left_mid_rotation_by_the_segmented_layout_recovers() {
    let _plan = FAULT_PLAN.lock().unwrap_or_else(|p| p.into_inner());
    let dir = temp_dir();
    let svc = scripted_service(&dir, 13);
    let old_wal = std::fs::read(dir.join("wal.bin")).unwrap();
    // A version-2 header carries the WAL's first sequence number; a
    // version-1 WAL starts at 0.
    let first_seq = if old_wal[4..8] == 2u32.to_le_bytes() {
        u64::from_le_bytes(old_wal[8..16].try_into().unwrap())
    } else {
        0
    };
    svc.snapshot().expect("the snapshot was written");
    let (live, live_seq) = (svc.fingerprint(), svc.journal_next_seq());
    drop(svc);

    std::fs::write(dir.join(format!("segment-{first_seq:020}.bin")), &old_wal).unwrap();
    std::fs::rename(dir.join("wal.bin"), dir.join("wal.tmp")).unwrap();
    let recovered = recover_once(EngineConfig::default(), service_config(), &dir);
    assert_eq!(recovered.fingerprint(), live);
    assert_eq!(recovered.journal_next_seq(), live_seq);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
