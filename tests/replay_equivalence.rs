//! Recovery replays results, not the matcher — and the result is the live
//! service, bit for bit.
//!
//! A moving fleet (location updates one vertex at a time along shortest
//! paths, stop arrivals) serves a scripted stream of 220 submits: riders
//! choose, decline or walk away (a tick expires those), a snapshot is
//! taken halfway, and the last offer is still open at the crash. The
//! script runs once with capacity holds off and once with them on.
//!
//! Replay installs each journaled skyline without running the matcher and
//! rebuilds the vehicle index once, after the last record. After
//! `recover`:
//!
//! * the fingerprints are equal;
//! * for 60 probe requests the dual-side matcher — which reads the rebuilt
//!   index — gives bit-identical options on the live and the recovered
//!   service;
//! * the offer that was open at the crash can still be confirmed, and
//!   confirming it on both services keeps them equal.

use ptrider::datagen::{synthetic_city, CityConfig};
use ptrider::roadnet::dijkstra;
use ptrider::{
    Decision, EngineConfig, GridConfig, Journal, JournalConfig, MatcherKind, Offer, OptionId,
    PtRider, Request, RequestId, RideService, ServiceConfig, VehicleId, VertexId,
};
use std::path::{Path, PathBuf};

const SUBMITS: usize = 220;
const PROBES: u64 = 60;
const FLEET: [u32; 8] = [2, 17, 33, 41, 58, 67, 86, 95];

fn engine() -> PtRider {
    PtRider::new(
        synthetic_city(&CityConfig::tiny(5)),
        GridConfig::with_dimensions(4, 4),
        EngineConfig::paper_defaults(),
    )
}

fn service_config(hold: bool) -> ServiceConfig {
    ServiceConfig::default()
        .with_offer_ttl_secs(0.5)
        .with_hold_offers(hold)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptrider-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copies a journal directory, so the live service keeps its own files.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A tiny xorshift, so the script is pure data derived from one seed.
fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move |bound| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    }
}

/// Moves every busy vehicle one vertex toward its next stop, or serves the
/// stop it stands on.
fn step_fleet(svc: &RideService, fleet: &[VehicleId]) {
    for &v in fleet {
        let (location, stop) = svc
            .with_vehicle(v, |veh| (veh.location(), veh.next_stop()))
            .unwrap();
        let Some(stop) = stop else { continue };
        if location == stop.location {
            svc.vehicle_arrived(v).unwrap();
            continue;
        }
        let (_, path) = dijkstra::shortest_path(svc.network(), location, stop.location).unwrap();
        let travelled = svc.oracle().distance(location, path[1]);
        svc.location_update(v, path[1], travelled).unwrap();
    }
}

/// Runs the script on a journaled service and returns it with the offer
/// left open at the end and the clock.
fn run_script(dir: &Path, hold: bool) -> (RideService, Offer, f64) {
    let journal = Journal::create(dir, JournalConfig::default().with_snapshot_every_ops(0))
        .expect("journal dir is writable");
    let svc = RideService::from_engine(engine())
        .with_service_config(service_config(hold))
        .with_journal(journal);
    let fleet: Vec<VehicleId> = FLEET
        .iter()
        .map(|&v| svc.add_vehicle(VertexId(v)))
        .collect();
    let mut next = rng(0x5eed);
    let mut clock = 0.0;
    let mut open = None;
    for i in 0..SUBMITS {
        clock += 1.0;
        if i == SUBMITS / 2 {
            svc.snapshot().expect("snapshot written");
        }
        let origin = next(100) as u32;
        let destination = (origin + 1 + next(99) as u32) % 100;
        let offer = svc
            .submit(
                VertexId(origin),
                VertexId(destination),
                1 + next(2) as u32,
                clock,
            )
            .unwrap();
        if i + 1 == SUBMITS {
            open = Some(offer);
            break;
        }
        match next(8) {
            // Walk away: the tick below expires the offer (and its hold).
            0 => {}
            1 => {
                svc.respond(offer.session, Decision::Decline, clock)
                    .unwrap();
            }
            _ if offer.options.is_empty() => {
                svc.respond(offer.session, Decision::Decline, clock)
                    .unwrap();
            }
            _ => {
                let k = next(offer.options.len() as u64) as u32;
                let _ = svc.respond(offer.session, Decision::Choose(OptionId(k)), clock);
            }
        }
        // Every offer is resolved before the fleet moves, so no vehicle
        // drives to a pickup that is only held.
        svc.tick(clock + 0.75);
        assert_eq!(svc.open_offers(), 0);
        step_fleet(&svc, &fleet);
    }
    let stats = svc.stats();
    assert!(stats.location_updates > 1000 && stats.pickups > 50 && stats.dropoffs > 50);
    (svc, open.expect("the script ends on an open offer"), clock)
}

fn option_bits(svc: &RideService, request: &Request) -> String {
    let result = svc
        .match_request_with(MatcherKind::DualSide, request)
        .expect("probe requests are valid");
    format!("{:?}", result.options)
}

fn live_and_recovered_agree(hold: bool) {
    let tag = if hold { "hold" } else { "plain" };
    let dir = temp_dir(tag);
    let (live, open, clock) = run_script(&dir, hold);
    assert!(!open.options.is_empty(), "the open offer has options");
    assert!(live.sync_journal());
    let copy = temp_dir(&format!("{tag}-copy"));
    copy_dir(&dir, &copy);

    let recovered = RideService::recover(
        engine(),
        service_config(hold),
        &copy,
        JournalConfig::default(),
    )
    .expect("the journal recovers");
    assert_eq!(recovered.fingerprint(), live.fingerprint());

    let mut next = rng(0xfeed);
    let mut answered = 0;
    for i in 0..PROBES {
        let origin = next(100) as u32;
        let destination = (origin + 1 + next(99) as u32) % 100;
        let request = Request::new(
            RequestId(1_000_000 + i),
            VertexId(origin),
            VertexId(destination),
            1,
            clock,
        );
        let expected = option_bits(&live, &request);
        assert_eq!(option_bits(&recovered, &request), expected, "probe {i}");
        answered += usize::from(expected != "[]");
    }
    assert!(answered >= 20, "only {answered} probes found options");

    for svc in [&live, &recovered] {
        let confirmation = svc
            .respond(open.session, Decision::Choose(OptionId(0)), clock)
            .expect("the open offer is still respondable")
            .expect("a choice confirms");
        assert_eq!(confirmation.request, open.request);
    }
    assert_eq!(recovered.fingerprint(), live.fingerprint());
    drop((live, recovered));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}

#[test]
fn a_moving_fleet_recovers_to_the_live_service() {
    live_and_recovered_agree(false);
}

#[test]
fn a_moving_fleet_with_holds_recovers_to_the_live_service() {
    live_and_recovered_agree(true);
}
