//! End-to-end telemetry: a spans-level service driven through the full
//! session lifecycle (with a journal and an event cursor attached) must
//! expose every subsystem in `metrics_text()` / `metrics_json()`, fill
//! the per-stage histograms and the trace ring — and the seqlock-mirrored
//! `stats()` snapshot must never tear under concurrent load.

use ptrider::datagen::{synthetic_city, CityConfig};
use ptrider::roadnet::{DistanceOracle, GridIndex};
use ptrider::{
    Decision, EngineConfig, GridConfig, Journal, JournalConfig, PtRider, RideService,
    ServiceConfig, TelemetryConfig, TelemetryLevel, VertexId,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ptrider-telemetry-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A service over the tiny city with an explicit telemetry level —
/// explicit so the test is immune to `PTRIDER_TELEMETRY` in the
/// environment (the CI matrix sets it).
fn service_with(level: TelemetryConfig) -> RideService {
    let net = Arc::new(synthetic_city(&CityConfig::tiny(7)));
    let grid = Arc::new(GridIndex::build(&net, GridConfig::with_dimensions(4, 4)));
    let config = EngineConfig::paper_defaults();
    let oracle = DistanceOracle::new(Arc::clone(&net), Arc::clone(&grid));
    let engine = PtRider::with_oracle_and_telemetry(net, grid, oracle, config, level);
    RideService::from_engine(engine)
        .with_service_config(ServiceConfig::default().with_offer_ttl_secs(5.0))
}

/// Drives a few full sessions: submits, one choose, one decline, one
/// abandoned offer expired by `tick`.
fn drive(service: &RideService) {
    let n = service.network().num_vertices() as u32;
    for v in 0..4 {
        service.add_vehicle(VertexId(v * 7 % n));
    }
    let mut clock = 0.0;
    let mut offers = Vec::new();
    for i in 0..6u32 {
        clock += 1.0;
        let (o, d) = ((i * 13 + 5) % n, (i * 29 + 60) % n);
        if o == d {
            continue;
        }
        if let Ok(offer) = service.submit(VertexId(o), VertexId(d), 1, clock) {
            offers.push(offer);
        }
    }
    if let Some(offer) = offers.first() {
        if let Some((id, _)) = offer.iter_ids().next() {
            let _ = service.respond(offer.session, Decision::Choose(id), clock);
        }
    }
    if let Some(offer) = offers.get(1) {
        let _ = service.respond(offer.session, Decision::Decline, clock);
    }
    let _ = service.tick(clock + 100.0);
}

#[test]
fn metrics_text_covers_every_subsystem() {
    let dir = temp_dir();
    let journal = Journal::create(&dir, JournalConfig::default()).expect("temp dir is writable");
    let service = service_with(TelemetryConfig::spans()).with_journal(journal);
    let mut cursor = service.subscribe();
    drive(&service);
    let _ = service.poll_events(&mut cursor);

    let text = service.metrics_text();
    // One representative metric per subsystem.
    for needle in [
        "ptrider_service_requests_submitted_total", // service
        "ptrider_service_open_offers",
        "ptrider_match_vehicles_verified_total",   // matcher
        "ptrider_oracle_exact_computations_total", // oracle
        "ptrider_oracle_traffic_epoch",
        "ptrider_journal_fsync_failed 0", // journal, healthy
        "ptrider_events_published_total", // event log
        "ptrider_events_cursor_missed_total{cursor=", // per-cursor lag
        "ptrider_telemetry_uptime_seconds",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    // Spans level: per-stage histograms for the driven stages.
    for stage in ["service_submit", "service_respond", "service_tick"] {
        let name = format!("ptrider_stage_{stage}_seconds_count");
        assert!(text.contains(&name), "missing {name} in:\n{text}");
    }
    assert!(
        text.contains("ptrider_stage_journal_append_seconds_count"),
        "journal append stage missing:\n{text}"
    );

    // The trace ring captured the driven spans.
    let events = service.telemetry().trace_dump();
    assert!(!events.is_empty(), "trace ring is empty at spans level");
    assert!(events.iter().any(|e| e.request != 0));

    let json = service.metrics_json();
    for key in [
        "\"service\"",
        "\"oracle\"",
        "\"journal\"",
        "\"events\"",
        "\"stages\"",
        "\"telemetry\"",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    assert!(json.contains("\"fsync_failed\":false"));
    // Crude structural validity: balanced braces outside strings (the
    // exposition never emits braces inside string values).
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced JSON:\n{json}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_off_is_inert_but_stats_metrics_remain() {
    let service = service_with(TelemetryConfig::off());
    drive(&service);
    assert_eq!(service.telemetry().level(), TelemetryLevel::Off);

    let text = service.metrics_text();
    // Engine statistics are ledger-derived and always exposed...
    assert!(text.contains("ptrider_service_requests_submitted_total"));
    // ...but no stage histograms and no trace events exist.
    assert!(!text.contains("ptrider_stage_"));
    assert!(service.telemetry().trace_dump().is_empty());
    assert_eq!(
        service
            .telemetry()
            .stage_snapshot(ptrider::Stage::ServiceSubmit)
            .count(),
        0
    );

    let json = service.metrics_json();
    assert!(json.contains("\"journal\":null"));
    assert!(json.contains("\"level\":\"off\""));
}

/// Regression test for stats-snapshot tearing: `stats()` used to read the
/// ledger fields without the mutex, so a reader racing a submit could see
/// `offers_made` ahead of `requests_submitted`. The seqlock mirror makes
/// every read a consistent point-in-time copy; these cross-field
/// invariants each hold inside any single ledger critical section, so a
/// violation can only come from a torn read.
#[test]
fn stats_snapshot_never_tears_under_load() {
    let service = Arc::new(service_with(TelemetryConfig::counters()));
    let n = service.network().num_vertices() as u32;
    for v in 0..6 {
        service.add_vehicle(VertexId(v * 11 % n));
    }
    std::thread::scope(|scope| {
        for t in 0..2u32 {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for i in 0..150u32 {
                    let (o, d) = ((i * 13 + t * 3 + 5) % n, (i * 29 + 60) % n);
                    if o == d {
                        continue;
                    }
                    if let Ok(offer) = service.submit(VertexId(o), VertexId(d), 1, f64::from(i)) {
                        let _ = service.respond(offer.session, Decision::Decline, f64::from(i));
                    }
                }
            });
        }
        let service = Arc::clone(&service);
        scope.spawn(move || {
            let mut last_submitted = 0u64;
            for _ in 0..2_000 {
                let s = service.stats();
                assert!(
                    s.offers_made <= s.requests_submitted,
                    "torn snapshot: offers_made {} > requests_submitted {}",
                    s.offers_made,
                    s.requests_submitted
                );
                assert!(s.requests_with_options <= s.requests_submitted);
                assert!(
                    s.offers_confirmed + s.offers_declined + s.offers_expired <= s.offers_made,
                    "torn snapshot: more offers resolved than made"
                );
                assert!(
                    s.requests_submitted >= last_submitted,
                    "snapshot went backwards"
                );
                last_submitted = s.requests_submitted;
            }
        });
    });
}
