//! Regression coverage for `EventLog` overflow accounting: a slow
//! observer's `EventCursor::missed` must count **exactly** the events the
//! bounded log dropped on it — no more, no less — and observers that keep
//! up, or subscribe late, miss nothing.
//!
//! The log is driven through the public `RideService` surface (the only
//! publisher), with a tiny retention capacity so a handful of session
//! lifecycles overflows it deterministically: every submit/decline cycle
//! publishes exactly three events (`Submitted`, `Offered`, `Declined`).

use ptrider::datagen::{synthetic_city, CityConfig};
use ptrider::{
    Decision, EngineConfig, EngineEvent, GridConfig, Journal, JournalConfig, PtRider, RideService,
    ServiceConfig, VertexId,
};

const CAPACITY: usize = 4;

fn engine() -> PtRider {
    PtRider::new(
        synthetic_city(&CityConfig::tiny(3)),
        GridConfig::with_dimensions(4, 4),
        EngineConfig::paper_defaults(),
    )
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_offer_ttl_secs(1e9)
        .with_event_capacity(CAPACITY)
}

fn tiny_service() -> RideService {
    let service = RideService::from_engine(engine()).with_service_config(service_config());
    service.add_vehicle(VertexId(0));
    service
}

/// One submit + decline = exactly three published events.
fn run_cycle(service: &RideService, k: u64) {
    let offer = service
        .submit(VertexId(10), VertexId(60), 1, k as f64)
        .expect("probe request is valid");
    service
        .respond(offer.session, Decision::Decline, k as f64)
        .expect("open offer accepts a decline");
}

#[test]
fn slow_cursor_missed_counts_exactly_the_dropped_events() {
    let service = tiny_service();
    // Subscribe *before* the flood: this cursor is owed every event.
    let mut slow = service.subscribe();
    let drained = service.poll_events(&mut slow);
    assert_eq!(drained.len(), 1, "only the VehicleAdded event so far");

    let cycles = 7u64;
    for k in 0..cycles {
        run_cycle(&service, k);
    }
    let published = service.events_published();
    assert_eq!(published, 1 + 3 * cycles, "3 events per cycle");

    // The bounded log retains only the last CAPACITY events; everything
    // older was dropped on this cursor, and `missed` must equal that count
    // exactly: published - already_seen - retained.
    let events = service.poll_events(&mut slow);
    assert_eq!(events.len(), CAPACITY);
    assert_eq!(slow.missed(), published - 1 - CAPACITY as u64);
    // The delivered tail is the newest suffix, in publish order: the last
    // cycle's Offered + Declined preceded by the one before.
    assert!(matches!(events.last(), Some(EngineEvent::Declined { .. })));
    assert!(matches!(
        events[events.len() - 2],
        EngineEvent::Offered { .. }
    ));

    // Once caught up, a further in-capacity burst loses nothing more.
    run_cycle(&service, cycles);
    let events = service.poll_events(&mut slow);
    assert_eq!(events.len(), 3);
    assert_eq!(
        slow.missed(),
        published - 1 - CAPACITY as u64,
        "no new loss"
    );
}

#[test]
fn keeping_up_and_late_subscribers_miss_nothing() {
    let service = tiny_service();
    let mut keeper = service.subscribe();
    let mut seen = 0usize;
    for k in 0..6u64 {
        run_cycle(&service, k);
        // Polling every cycle stays within the retention window.
        seen += service.poll_events(&mut keeper).len();
        assert_eq!(keeper.missed(), 0, "a keeping-up cursor never misses");
    }
    assert_eq!(seen as u64, service.events_published());

    // A late subscriber starts at the oldest *retained* event and is owed
    // nothing older.
    let mut late = service.subscribe();
    let events = service.poll_events(&mut late);
    assert_eq!(events.len(), CAPACITY);
    assert_eq!(late.missed(), 0);
}

#[test]
fn missed_accumulates_over_repeated_overflows() {
    let service = tiny_service();
    let mut slow = service.subscribe();
    assert_eq!(service.poll_events(&mut slow).len(), 1);

    let mut expected_missed = 0u64;
    let mut seen_since = 0u64;
    for round in 1..=3u64 {
        for k in 0..4u64 {
            run_cycle(&service, round * 10 + k);
        }
        // 12 events published per round, 4 retained: 8 dropped each time,
        // minus nothing — the cursor drained the window last round.
        let events = service.poll_events(&mut slow);
        assert_eq!(events.len(), CAPACITY);
        seen_since += events.len() as u64;
        expected_missed += 12 - CAPACITY as u64;
        assert_eq!(
            slow.missed(),
            expected_missed,
            "round {round}: drops accumulate exactly"
        );
    }
    assert_eq!(service.events_published(), 1 + 36);
    assert_eq!(seen_since + expected_missed + 1, 1 + 36);
}

#[test]
fn a_recovered_log_evicts_where_the_live_one_did() {
    let dir = std::env::temp_dir().join(format!("ptrider-event-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::create(&dir, JournalConfig::default().with_snapshot_every_ops(0))
        .expect("journal dir is writable");
    let service = RideService::from_engine(engine())
        .with_service_config(service_config())
        .with_journal(journal);
    service.add_vehicle(VertexId(0));
    // The snapshot catches the log below capacity, still holding events
    // the WAL tail will not re-publish; the tail then overflows it.
    run_cycle(&service, 0);
    assert!(service.snapshot().is_some());
    assert_eq!(service.events_published(), 4);
    for k in 1..4u64 {
        run_cycle(&service, k);
    }
    assert!(service.sync_journal());

    let recovered =
        RideService::recover(engine(), service_config(), &dir, JournalConfig::default())
            .expect("the journal recovers");
    assert_eq!(recovered.events_published(), service.events_published());
    assert_eq!(recovered.fingerprint(), service.fingerprint());
    drop((service, recovered));
    let _ = std::fs::remove_dir_all(&dir);
}
