//! Journal directories written by earlier builds still recover.
//!
//! `tests/data/parent_snapshot/{alt,ch}` are journal directories written by
//! the last build that still had the CH backend: the same five-vehicle
//! script (submits, confirms, declines, one congested traffic epoch, one
//! open offer, then a snapshot) once per backend. The stats block of each
//! snapshot keeps the 8-byte slot that held the CH customization count: 0
//! in the ALT snapshot, 1 in the CH one. The decoder reads and drops it.
//!
//! `tests/data/parent_wal/{holds_off,holds_on}` were written by the last
//! build whose submit records did not carry their offer: six vehicles
//! driven one vertex at a time along shortest paths, 40 submits (riders
//! choose or decline, the fleet moves three steps after each), a snapshot
//! after the twentieth, and the last offer left open. Their WAL tails are
//! old-tag submits, which replay re-matches against the index it rebuilds
//! on the first of them.

use ptrider::datagen::{synthetic_city, CityConfig};
use ptrider::{
    Decision, EngineConfig, GridConfig, JournalConfig, OptionId, PtRider, RideService,
    ServiceConfig, SessionId, VertexId,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// `RideService::fingerprint` of the ALT run, printed by the writer.
const ALT_FINGERPRINT: u64 = 0x6b33_9791_a5a6_139f;

/// `RideService::fingerprint` of the two `parent_wal` runs, printed by the
/// writer.
const WAL_HOLDS_OFF_FINGERPRINT: u64 = 0xbd3a_4896_7931_c953;
const WAL_HOLDS_ON_FINGERPRINT: u64 = 0xfdfe_2b8d_bed9_5e14;

/// Recovers a copy of one fixture directory (recovery re-opens the journal
/// for appending, so the committed files are never touched).
fn recover_fixture(fixture: &str, service_config: ServiceConfig) -> RideService {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(fixture);
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ptrider-snapshot-compat-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for file in ["snapshot.bin", "wal.bin"] {
        std::fs::copy(fixture.join(file), dir.join(file)).unwrap();
    }
    let engine = PtRider::new(
        synthetic_city(&CityConfig::tiny(11)),
        GridConfig::with_dimensions(4, 4),
        EngineConfig::paper_defaults(),
    );
    let service = RideService::recover(engine, service_config, &dir, JournalConfig::default())
        .expect("a parent-format journal decodes");
    let _ = std::fs::remove_dir_all(&dir);
    service
}

fn recover(name: &str) -> RideService {
    recover_fixture(
        &format!("parent_snapshot/{name}"),
        ServiceConfig::default().with_offer_ttl_secs(30.0),
    )
}

fn recover_parent_wal(hold: bool, fingerprint: u64) {
    let name = if hold { "holds_on" } else { "holds_off" };
    let service = recover_fixture(
        &format!("parent_wal/{name}"),
        ServiceConfig::default()
            .with_offer_ttl_secs(30.0)
            .with_hold_offers(hold),
    );
    assert_eq!(service.fingerprint(), fingerprint, "{name}");
    let stats = service.stats();
    assert_eq!(stats.requests_submitted, 40);
    assert_eq!(stats.requests_chosen, 32);
    assert_eq!(stats.location_updates, 243);
    assert_eq!(service.open_offers(), 1);
    // The offer open at the crash (the 40th session, submitted at t = 40)
    // can still be confirmed.
    let confirmation = service
        .respond(SessionId(39), Decision::Choose(OptionId(0)), 41.0)
        .expect("the open offer is respondable")
        .expect("a choice confirms");
    assert_eq!(confirmation.session, SessionId(39));
}

#[test]
fn a_parent_wal_recovers_bit_identically() {
    recover_parent_wal(false, WAL_HOLDS_OFF_FINGERPRINT);
}

#[test]
fn a_parent_wal_with_holds_recovers_bit_identically() {
    recover_parent_wal(true, WAL_HOLDS_ON_FINGERPRINT);
}

#[test]
fn a_parent_alt_snapshot_recovers_bit_identically() {
    let service = recover("alt");
    assert_eq!(service.fingerprint(), ALT_FINGERPRINT);
    let stats = service.stats();
    assert_eq!(stats.requests_submitted, 6);
    assert_eq!(stats.requests_chosen, 3);
    assert_eq!(stats.traffic_epochs, 1);
}

#[test]
fn a_parent_ch_snapshot_recovers_to_the_same_world() {
    let alt = recover("alt");
    let ch = recover("ch");
    // The CH run differs only in the dropped slot and in the environmental
    // accumulators (wall-clock match time, and matcher work, which moves
    // with the bounds a backend prunes by); every other counter and every
    // schedule agrees.
    let (mut a, mut c) = (alt.stats(), ch.stats());
    for s in [&mut a, &mut c] {
        s.total_match_secs = 0.0;
        s.match_work = Default::default();
    }
    assert_eq!(a, c);
    for (o, d) in [(5u32, 95u32), (33, 66), (81, 14)] {
        let from_alt = alt.submit(VertexId(o), VertexId(d), 1, 20.0).unwrap();
        let from_ch = ch.submit(VertexId(o), VertexId(d), 1, 20.0).unwrap();
        assert_eq!(
            format!("{:?}", from_alt.options),
            format!("{:?}", from_ch.options),
            "{o} -> {d}"
        );
    }
}
