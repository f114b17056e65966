//! A panic inside the admission critical section must degrade into typed
//! errors, not cascading panics — and the journal must bring the service
//! back untorn.
//!
//! The scenario: an injected [`fault::MID_COMMIT`] panic kills a `respond`
//! *after* the vehicle accepted the insertion but *before* the spatial
//! index was updated and before anything was journaled. The sessions and
//! world locks poison. From there:
//!
//! * session-lifecycle calls surface [`ServiceError::Unavailable`];
//! * read-only accessors (`stats`, `session_state`, `fingerprint`,
//!   `match_request_with`) stay live by re-entering the poisoned locks;
//! * `RideService::recover` over the journal reproduces the exact
//!   pre-crash state — the half-committed respond was never journaled, so
//!   it simply never happened, and the rider's offer is still open.
//!
//! This test owns its process's global fault plan; it lives in its own
//! test binary so no concurrently running test can observe the armed plan.

use ptrider::roadnet::RoadNetworkBuilder;
use ptrider::{
    fault, Decision, EngineConfig, GridConfig, Journal, JournalConfig, MatcherKind, OptionId,
    PtRider, Request, RequestId, RideService, RoadNetwork, ServiceConfig, ServiceError,
    SessionState, VertexId,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// A 5x5 lattice with 1 km edges.
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptrider-poison-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn poisoned_locks_surface_unavailable_and_recovery_rebuilds_the_service() {
    let dir = temp_dir("mid-commit");
    let config = ServiceConfig::default().with_offer_ttl_secs(1e9);
    let journal = Journal::create(&dir, JournalConfig::default()).unwrap();
    let svc = RideService::new(
        lattice(),
        GridConfig::with_dimensions(3, 3),
        EngineConfig::default(),
    )
    .with_service_config(config)
    .with_journal(journal);

    svc.add_vehicle(VertexId(0));
    let offer = svc.submit(VertexId(6), VertexId(8), 1, 0.0).unwrap();
    assert!(!offer.options.is_empty());
    let pre_crash = svc.fingerprint();
    let pre_seq = svc.journal_next_seq().unwrap();

    // Kill the confirm mid-commit: the vehicle has accepted the insertion,
    // the index update and the journal append have not happened yet.
    fault::arm(fault::FaultPlan::panic_once(fault::MID_COMMIT, 0));
    let crash = catch_unwind(AssertUnwindSafe(|| {
        svc.respond(offer.session, Decision::Choose(OptionId(0)), 1.0)
    }));
    fault::disarm();
    assert!(crash.is_err(), "the injected mid-commit panic must fire");

    // Mutating session calls refuse the torn state with a typed error.
    match svc.submit(VertexId(12), VertexId(14), 1, 2.0) {
        Err(ServiceError::Unavailable(lock)) => {
            assert!(["sessions", "world", "ledger"].contains(&lock), "{lock}")
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert!(matches!(
        svc.respond(offer.session, Decision::Decline, 2.0),
        Err(ServiceError::Unavailable(_))
    ));

    // Read-only accessors keep answering on the poisoned service.
    assert_eq!(svc.stats().offers_made, 1);
    assert_eq!(svc.num_vehicles(), 1);
    assert_eq!(
        svc.session_state(offer.session),
        Some(SessionState::Offered),
        "the session never resolved: the panic predates the state change"
    );
    assert_eq!(
        svc.journal_next_seq(),
        Some(pre_seq),
        "nothing was journaled by the killed respond"
    );
    // A read-only probe still matches over the torn world.
    let probe = Request::new(RequestId(99), VertexId(12), VertexId(14), 1, 2.0);
    let probed = catch_unwind(AssertUnwindSafe(|| {
        svc.match_request_with(MatcherKind::DualSide, &probe)
    }));
    assert!(
        probed.is_ok_and(|r| r.is_ok()),
        "match_request_with answers on a poisoned world"
    );

    drop(svc);

    // Recovery: the torn in-memory commit was never journaled, so replay
    // reconstructs the exact pre-crash state with the offer still open.
    let engine = PtRider::new(
        lattice(),
        GridConfig::with_dimensions(3, 3),
        EngineConfig::default(),
    );
    let recovered = RideService::recover(engine, config, &dir, JournalConfig::default())
        .expect("recovery succeeds");
    assert_eq!(recovered.fingerprint(), pre_crash, "bit-identical recovery");
    assert_eq!(
        recovered.session_state(offer.session),
        Some(SessionState::Offered)
    );

    // The rider's confirm now succeeds on the recovered service.
    let confirmation = recovered
        .respond(offer.session, Decision::Choose(OptionId(0)), 1.0)
        .unwrap()
        .expect("the surviving offer confirms");
    assert_eq!(confirmation.request, offer.request);
    assert_eq!(recovered.stats().offers_confirmed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
