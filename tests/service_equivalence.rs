//! Property tests for the service-layer front door.
//!
//! **Concurrent `&self` submits are bit-identical to sequential ones.** N
//! submitter threads hammer one `RideService` over a fixed world while a
//! second service built identically answers the same requests one by one
//! on the test thread — the per-request option skylines must agree bit for
//! bit (vehicle ids, pickup-distance and price bit patterns, full
//! schedules). The two sides' oracle *cache histories* diverge wildly (the
//! concurrent service's cache is raced by every submitter), which is
//! exactly what the canonical-direction folds of `ptrider_roadnet::oracle`
//! make irrelevant.
//!
//! On top of the equivalence property, the integration tests drive the
//! full session lifecycle concurrently and check the conservation
//! invariants (every session resolved, the fleet carries exactly the
//! confirmed requests).

use proptest::prelude::*;
use ptrider::datagen::{synthetic_city, CityConfig, TripConfig, TripGenerator};
use ptrider::{
    Decision, EngineConfig, EngineEvent, GridConfig, MatcherKind, OptionId, RideOption,
    RideService, ServiceConfig, SessionState, VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds a service with a deterministic fleet and warm-up, so every
/// instance constructed from the same inputs reaches an identical world.
/// Warm-up riders answer at their submit's timestamp, so no offer TTL can
/// expire them.
fn build_service(
    seed: u64,
    num_vehicles: usize,
    warm_requests: usize,
    matcher: MatcherKind,
    service_config: ServiceConfig,
) -> RideService {
    let city = synthetic_city(&CityConfig::tiny(seed));
    let service = RideService::new(
        city,
        GridConfig::with_dimensions(4, 4),
        EngineConfig::paper_defaults(),
    )
    .with_matcher(matcher)
    .with_service_config(service_config);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e55);
    let n = service.network().num_vertices() as u32;
    for _ in 0..num_vehicles.max(1) {
        service.add_vehicle(VertexId(rng.gen_range(0..n)));
    }
    let warm = TripGenerator::new(
        service.network(),
        TripConfig {
            num_trips: warm_requests,
            seed: seed ^ 0x77,
            ..TripConfig::default()
        },
    )
    .generate();
    for (i, trip) in warm.iter().enumerate() {
        let now = i as f64;
        let offer = service
            .submit(trip.origin, trip.destination, trip.riders, now)
            .expect("generated trips are valid requests");
        let decision = if offer.options.is_empty() {
            Decision::Decline
        } else {
            Decision::Choose(OptionId(0))
        };
        let _ = service.respond(offer.session, decision, now);
    }
    service
}

/// Bit-level equality of two skylines, modulo the *submitting request's own
/// id*: request ids are allocated in arrival order, which legitimately
/// differs between the sequential replay and a racy concurrent submission —
/// every other byte of every option (vehicles, pickup/price bit patterns,
/// schedule shapes, co-riders' ids) must agree exactly.
fn assert_options_bit_identical(
    a: &[RideOption],
    self_a: ptrider::RequestId,
    b: &[RideOption],
    self_b: ptrider::RequestId,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "option count ({})", label);
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.vehicle, y.vehicle, "vehicle ({})", label);
        prop_assert_eq!(
            x.pickup_dist.to_bits(),
            y.pickup_dist.to_bits(),
            "pickup bits ({})",
            label
        );
        prop_assert_eq!(
            x.price.to_bits(),
            y.price.to_bits(),
            "price bits ({})",
            label
        );
        prop_assert_eq!(
            x.schedule.len(),
            y.schedule.len(),
            "schedule len ({})",
            label
        );
        for (sx, sy) in x.schedule.iter().zip(&y.schedule) {
            prop_assert_eq!(sx.location, sy.location, "stop location ({})", label);
            prop_assert_eq!(sx.kind, sy.kind, "stop kind ({})", label);
            prop_assert_eq!(sx.riders, sy.riders, "stop riders ({})", label);
            let own_x = sx.request == self_a;
            let own_y = sy.request == self_b;
            prop_assert_eq!(own_x, own_y, "stop ownership ({})", label);
            if !own_x {
                prop_assert_eq!(sx.request, sy.request, "co-rider id ({})", label);
            }
        }
    }
    Ok(())
}

fn run_scenario(
    seed: u64,
    num_vehicles: usize,
    warm_requests: usize,
    num_probes: usize,
) -> Result<(), TestCaseError> {
    let matcher = match seed % 3 {
        0 => MatcherKind::Naive,
        1 => MatcherKind::SingleSide,
        _ => MatcherKind::DualSide,
    };
    let probes: Vec<(VertexId, VertexId, u32)> = TripGenerator::new(
        &synthetic_city(&CityConfig::tiny(seed)),
        TripConfig {
            num_trips: num_probes,
            seed: seed ^ 0xface,
            ..TripConfig::default()
        },
    )
    .generate()
    .iter()
    .map(|t| (t.origin, t.destination, t.riders))
    .filter(|(o, d, _)| o != d)
    .collect();
    if probes.is_empty() {
        return Ok(());
    }

    let build = || {
        build_service(
            seed,
            num_vehicles,
            warm_requests,
            matcher,
            ServiceConfig::default(),
        )
    };
    // Reference: a second service answers every probe one by one on this
    // thread, never committing, so the world stays fixed.
    let reference = build();
    let expected: Vec<(ptrider::RequestId, Vec<RideOption>)> = probes
        .iter()
        .map(|&(o, d, riders)| {
            let offer = reference
                .submit(o, d, riders, 1_000.0)
                .expect("probe requests are valid");
            (offer.request, offer.options)
        })
        .collect();

    let service = build();
    // Concurrent submitters: every probe is submitted from one of 4
    // threads, racing on the shared `&self` service (and, transitively,
    // on the oracle's sharded cache).
    let submitters = 4usize;
    let mut results: Vec<(usize, ptrider::RequestId, Vec<RideOption>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..submitters {
            let service = &service;
            let probes = &probes;
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                for (i, &(o, d, riders)) in probes.iter().enumerate() {
                    if i % submitters == t {
                        let offer = service
                            .submit(o, d, riders, 1_000.0)
                            .expect("probe requests are valid");
                        mine.push((i, offer.request, offer.options));
                    }
                }
                mine
            }));
        }
        for handle in handles {
            results.extend(handle.join().expect("submitter thread"));
        }
    });
    prop_assert_eq!(results.len(), probes.len());
    for (i, request, options) in results {
        let label = format!("matcher {matcher} probe {i}");
        let (expected_id, expected_options) = &expected[i];
        assert_options_bit_identical(expected_options, *expected_id, &options, request, &label)?;
    }
    prop_assert_eq!(
        service.open_offers(),
        probes.len(),
        "every probe left an open offer"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_submits_match_sequential_facade_on_alt(
        seed in 0u64..1_000_000,
        num_vehicles in 1usize..16,
        warm_requests in 0usize..6,
        num_probes in 1usize..10,
    ) {
        run_scenario(seed, num_vehicles, warm_requests, num_probes)?;
    }
}

/// A concurrent submit/respond storm: sessions race on the world write
/// lock, yet every session ends in a terminal-or-offered state consistent
/// with its observed response and the fleet carries exactly the confirmed
/// requests.
#[test]
fn concurrent_lifecycle_storm_preserves_invariants() {
    let service = build_service(
        42,
        12,
        4,
        MatcherKind::DualSide,
        ServiceConfig::default().with_offer_ttl_secs(1e9),
    );
    // The warm-up's counts and events are the baseline of the storm's.
    let warm = service.stats();
    let mut cursor = service.subscribe();
    let _ = service.poll_events(&mut cursor);
    let probes: Vec<(VertexId, VertexId, u32)> = TripGenerator::new(
        service.network(),
        TripConfig {
            num_trips: 64,
            seed: 0xabcd,
            ..TripConfig::default()
        },
    )
    .generate()
    .iter()
    .map(|t| (t.origin, t.destination, t.riders))
    .filter(|(o, d, _)| o != d)
    .collect();

    let confirmed = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let service = &service;
            let probes = &probes;
            let confirmed = &confirmed;
            scope.spawn(move || {
                for (i, &(o, d, riders)) in probes.iter().enumerate() {
                    if i % 4 != t {
                        continue;
                    }
                    let offer = service.submit(o, d, riders, 0.0).expect("valid probe");
                    let decision = if offer.options.is_empty() || i % 3 == 0 {
                        Decision::Decline
                    } else {
                        Decision::Choose(OptionId(0))
                    };
                    match service.respond(offer.session, decision, 0.0) {
                        Ok(Some(_)) => {
                            confirmed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Ok(None) => {}
                        Err(_) => {
                            // Assignment raced with a competing commit; the
                            // session stays offered — decline to settle it.
                            let _ = service.respond(offer.session, Decision::Decline, 0.0);
                        }
                    }
                }
            });
        }
    });

    let confirmed = confirmed.load(std::sync::atomic::Ordering::Relaxed);
    let stats = service.stats();
    assert_eq!(
        (stats.offers_made - warm.offers_made) as usize,
        probes.len()
    );
    assert_eq!(
        (stats.offers_confirmed - warm.offers_confirmed) as usize,
        confirmed
    );
    assert_eq!(service.open_offers(), 0, "every session was settled");
    // The fleet carries exactly the confirmed requests: the warm-up's
    // (which may or may not have been assigned, so read from its stats)
    // plus the storm's.
    let fleet_load =
        service.with_vehicles(|vehicles| vehicles.map(|v| v.num_requests()).sum::<usize>());
    let served: usize = (stats.pickups + stats.dropoffs) as usize; // storm serves no stops
    assert_eq!(served, 0);
    assert_eq!(fleet_load, warm.requests_chosen as usize + confirmed);

    // The event log saw one Submitted + one Offered per probe and one
    // terminal event per settled session.
    let events = service.poll_events(&mut cursor);
    let submitted = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::Submitted { .. }))
        .count();
    let offered = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::Offered { .. }))
        .count();
    let terminal = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                EngineEvent::Confirmed { .. } | EngineEvent::Declined { .. }
            )
        })
        .count();
    assert_eq!(submitted, probes.len());
    assert_eq!(offered, probes.len());
    assert_eq!(terminal, probes.len());
}

/// The same storm with capacity holds on: option 0's seats are reserved at
/// offer time inside the write critical section, so a rider choosing the
/// held option can never lose the race to a competing commit — every
/// choose succeeds outright and `assignments_failed` stays at zero.
#[test]
fn concurrent_lifecycle_storm_with_holds_never_fails_an_assignment() {
    let service = build_service(
        42,
        12,
        0,
        MatcherKind::DualSide,
        ServiceConfig::default()
            .with_offer_ttl_secs(1e9)
            .with_hold_offers(true),
    );
    let probes: Vec<(VertexId, VertexId, u32)> = TripGenerator::new(
        service.network(),
        TripConfig {
            num_trips: 64,
            seed: 0xabcd,
            ..TripConfig::default()
        },
    )
    .generate()
    .iter()
    .map(|t| (t.origin, t.destination, t.riders))
    .filter(|(o, d, _)| o != d)
    .collect();

    let confirmed = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let service = &service;
            let probes = &probes;
            let confirmed = &confirmed;
            scope.spawn(move || {
                for (i, &(o, d, riders)) in probes.iter().enumerate() {
                    if i % 4 != t {
                        continue;
                    }
                    let offer = service.submit(o, d, riders, 0.0).expect("valid probe");
                    let decision = if offer.options.is_empty() || i % 3 == 0 {
                        Decision::Decline
                    } else {
                        Decision::Choose(OptionId(0))
                    };
                    match service.respond(offer.session, decision, 0.0) {
                        Ok(Some(_)) => {
                            confirmed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Ok(None) => {}
                        Err(e) => panic!("a held option can never fail to commit: {e:?}"),
                    }
                }
            });
        }
    });

    let confirmed = confirmed.load(std::sync::atomic::Ordering::Relaxed);
    let stats = service.stats();
    assert_eq!(stats.offers_made as usize, probes.len());
    assert_eq!(stats.offers_confirmed as usize, confirmed);
    assert_eq!(
        stats.assignments_failed, 0,
        "holds reserve capacity at offer time"
    );
    assert_eq!(service.open_offers(), 0, "every session was settled");
    // Declined holds released their seats: the fleet carries exactly the
    // confirmed requests.
    let fleet_load =
        service.with_vehicles(|vehicles| vehicles.map(|v| v.num_requests()).sum::<usize>());
    assert_eq!(fleet_load, confirmed);
}

/// Expiry under a finite TTL: offers left unanswered expire on `tick`, and
/// a rider coming back later is turned away with a typed error — while a
/// resubmission gets a fresh request id (the request-state-leak
/// regression, service edition).
#[test]
fn expired_offers_release_state() {
    let service = build_service(
        7,
        6,
        0,
        MatcherKind::DualSide,
        ServiceConfig::default().with_offer_ttl_secs(30.0),
    );
    let first = service.submit(VertexId(3), VertexId(90), 1, 0.0).unwrap();
    assert_eq!(service.tick(30.0), 0, "the deadline itself is inclusive");
    assert_eq!(service.tick(31.0), 1);
    assert_eq!(
        service.session_state(first.session),
        Some(SessionState::Expired)
    );
    assert!(service
        .respond(first.session, Decision::Choose(OptionId(0)), 32.0)
        .is_err());
    assert_eq!(service.open_offers(), 0);

    let second = service.submit(VertexId(3), VertexId(90), 1, 40.0).unwrap();
    assert_ne!(first.request, second.request, "fresh RequestId");
    assert_ne!(first.session, second.session);
    // The re-offered skyline is reproduced bit-identically: nothing
    // stale from the expired session influences matching.
    assert_eq!(first.options.len(), second.options.len());
    for (a, b) in first.options.iter().zip(&second.options) {
        assert_eq!(a.vehicle, b.vehicle);
        assert_eq!(a.price.to_bits(), b.price.to_bits());
    }
    assert_eq!(service.stats().offers_expired, 1);
}
