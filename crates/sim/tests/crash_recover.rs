//! Crash-recovery at simulator scale: a journaled day is killed mid-run
//! and recovered into a bit-identical service.
//!
//! The simulator drives every admission path the journal covers — vehicle
//! placement, submits, responds, location updates, stop arrivals, offer
//! ticks, session pruning and traffic epochs — so replaying its log is the
//! strongest end-to-end exercise of `RideService::recover` short of the
//! chaos proptest. Fingerprints are compared: the fingerprint hashes the
//! full world + ledger + sessions + event-log state, so one equality
//! covers every stat and every schedule.

use ptrider_core::{EngineConfig, GridConfig, JournalConfig, PtRider, RideService, ServiceConfig};
use ptrider_datagen::{CityConfig, TripConfig, Workload, WorkloadConfig};
use ptrider_sim::{SimConfig, Simulator, TrafficSimConfig};
use std::path::PathBuf;

fn workload(seed: u64) -> Workload {
    Workload::generate(WorkloadConfig {
        city: CityConfig::tiny(seed),
        num_vehicles: 10,
        trips: TripConfig {
            num_trips: 50,
            day_secs: 1200.0,
            seed,
            ..TripConfig::default()
        },
        seed,
    })
}

fn sim_config() -> SimConfig {
    SimConfig {
        dt_secs: 5.0,
        start_secs: 0.0,
        end_secs: 1200.0,
        grid: GridConfig::with_dimensions(4, 4),
        traffic: Some(TrafficSimConfig {
            period_secs: 300.0,
            ..TrafficSimConfig::default()
        }),
        seed: 9,
        ..SimConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptrider-sim-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn simulated_day_recovers_bit_identically_from_the_journal() {
    let seed = 20090529u64;
    let dir = temp_dir("day-recover");
    let config = sim_config();
    let engine_config = EngineConfig::paper_defaults();
    let mut sim = Simulator::new_with_journal(
        workload(seed),
        engine_config,
        config,
        &dir,
        JournalConfig::default(),
    )
    .expect("journal dir is writable");

    // Half a day, with a mid-run snapshot so recovery exercises the
    // snapshot + tail path rather than a from-genesis replay.
    for _ in 0..120 {
        sim.step();
    }
    sim.service().snapshot().expect("snapshot written");
    for _ in 0..120 {
        sim.step();
    }
    let reference = sim.service().fingerprint();
    let seq = sim.service().journal_next_seq().expect("journal attached");
    let stats = sim.service().stats();
    assert!(stats.requests_submitted > 0, "the day did real work");
    assert!(stats.traffic_epochs > 0, "traffic epochs were journaled");
    drop(sim);

    // Recovery: a fresh engine built exactly like the simulator builds its
    // own (same network, grid, matcher), fed the journal directory.
    let Workload { network, .. } = workload(seed);
    let mut engine = PtRider::new(network, config.grid, engine_config);
    engine.set_matcher(config.matcher);
    let recovered = RideService::recover(
        engine,
        ServiceConfig::default(),
        &dir,
        JournalConfig::default(),
    )
    .expect("recovery succeeds");

    assert_eq!(recovered.journal_next_seq(), Some(seq));
    assert_eq!(
        recovered.fingerprint(),
        reference,
        "recovered state is bit-identical to the pre-crash service"
    );
    // Spot-check a few ledger dimensions directly for a readable failure
    // mode should the fingerprint ever regress.
    let rstats = recovered.stats();
    assert_eq!(rstats.requests_submitted, stats.requests_submitted);
    assert_eq!(rstats.offers_confirmed, stats.offers_confirmed);
    assert_eq!(rstats.pickups, stats.pickups);
    assert_eq!(rstats.dropoffs, stats.dropoffs);
    assert_eq!(rstats.traffic_epochs, stats.traffic_epochs);
    assert_eq!(recovered.num_vehicles(), 10);
    let _ = std::fs::remove_dir_all(&dir);
}
