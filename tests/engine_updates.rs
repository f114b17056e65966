//! Integration tests of the engine's update flow (Fig. 2): request →
//! options → choice → location / pickup / drop-off updates, index
//! consistency and capacity handling across crates.

use ptrider::datagen::{synthetic_city, CityConfig};
use ptrider::roadnet::dijkstra;
use ptrider::vehicles::StopEvent;
use ptrider::{
    Decision, EngineConfig, GridConfig, MatcherKind, Offer, OptionId, RideService, VehicleId,
    VertexId,
};

fn service(config: EngineConfig, matcher: MatcherKind) -> RideService {
    RideService::new(
        synthetic_city(&CityConfig::tiny(5)),
        GridConfig::with_dimensions(4, 4),
        config,
    )
    .with_matcher(matcher)
}

fn small_city_engine(matcher: MatcherKind) -> RideService {
    service(
        EngineConfig::paper_defaults().with_detour_factor(0.5),
        matcher,
    )
}

/// Submits a valid request and returns its offer.
fn submit(engine: &RideService, origin: u32, destination: u32, riders: u32, now: f64) -> Offer {
    engine
        .submit(VertexId(origin), VertexId(destination), riders, now)
        .expect("a valid request")
}

/// Confirms option `index` of `offer`, answering at the submit's timestamp.
fn choose(engine: &RideService, offer: &Offer, index: usize, now: f64) {
    let option = OptionId(index as u32);
    engine
        .respond(offer.session, Decision::Choose(option), now)
        .unwrap()
        .expect("a choice confirms");
}

fn decline(engine: &RideService, offer: &Offer, now: f64) {
    engine
        .respond(offer.session, Decision::Decline, now)
        .unwrap();
}

/// Asserts that the vehicle index lists `vehicle` under the cell of its
/// current location.
fn assert_indexed_at_location(engine: &RideService, vehicle: VehicleId) {
    let location = engine.with_vehicle(vehicle, |v| v.location()).unwrap();
    let cell = engine.oracle().grid().cell_of(location);
    assert_eq!(
        engine.with_vehicle_index(|index| index.cell_of(vehicle)),
        Some(cell),
        "{vehicle} at {location}"
    );
}

/// Drives a vehicle along shortest paths, serving stops until it is empty.
/// After every move and every stop the vehicle must be indexed in its
/// location cell.
fn drive_until_idle(engine: &RideService, vehicle: VehicleId) -> Vec<StopEvent> {
    let mut events = Vec::new();
    let net = engine.oracle().network_arc();
    for _ in 0..64 {
        let Some((stop, loc)) = engine
            .with_vehicle(vehicle, |v| v.next_stop().map(|stop| (stop, v.location())))
            .unwrap()
        else {
            break;
        };
        if loc != stop.location {
            let (dist, path) = dijkstra::shortest_path(&net, loc, stop.location).unwrap();
            // Jump vertex by vertex so location updates stay incremental.
            let mut prev = loc;
            for v in path.into_iter().skip(1) {
                let leg = dijkstra::distance(&net, prev, v).unwrap();
                engine.location_update(vehicle, v, leg).unwrap();
                assert_indexed_at_location(engine, vehicle);
                prev = v;
            }
            assert!(dist >= 0.0);
        }
        if let Some(event) = engine.vehicle_arrived(vehicle).unwrap() {
            events.push(event);
        }
        assert_indexed_at_location(engine, vehicle);
    }
    events
}

#[test]
fn shared_ride_of_two_requests_completes_in_order() {
    let engine = small_city_engine(MatcherKind::DualSide);
    let taxi = engine.add_vehicle(VertexId(0));

    // Two overlapping trips along the same corridor.
    let r1 = submit(&engine, 2, 8, 1, 0.0);
    choose(&engine, &r1, 0, 0.0);
    let r2 = submit(&engine, 3, 9, 2, 10.0);
    assert!(
        !r2.options.is_empty(),
        "the busy taxi must still offer an option"
    );
    let own = r2.options.iter().position(|o| o.vehicle == taxi).unwrap();
    choose(&engine, &r2, own, 10.0);

    assert_eq!(engine.with_vehicle(taxi, |v| v.num_requests()), Some(2));
    let events = drive_until_idle(&engine, taxi);
    // Two pickups and two drop-offs, each pickup before its drop-off.
    assert_eq!(events.len(), 4);
    let pickups = events
        .iter()
        .filter(|e| matches!(e, StopEvent::PickedUp { .. }))
        .count();
    assert_eq!(pickups, 2);
    assert!(engine.with_vehicle(taxi, |v| v.is_empty()).unwrap());
    assert_eq!(engine.stats().pickups, 2);
    assert_eq!(engine.stats().dropoffs, 2);
    // At some point both parties were on board together (the corridor
    // overlaps), so the ride was genuinely shared.
    let max_onboard = events
        .iter()
        .scan(0i32, |acc, e| {
            match e {
                StopEvent::PickedUp { riders, .. } => *acc += *riders as i32,
                StopEvent::DroppedOff { request, .. } => *acc -= request.riders as i32,
            }
            Some(*acc)
        })
        .max()
        .unwrap();
    assert!(
        max_onboard >= 3,
        "rides should overlap, max onboard {max_onboard}"
    );
}

#[test]
fn capacity_limits_how_many_requests_a_vehicle_accepts() {
    let engine = service(
        EngineConfig::paper_defaults()
            .with_capacity(2)
            .with_detour_factor(1.0),
        MatcherKind::DualSide,
    );
    let taxi = engine.add_vehicle(VertexId(0));

    // First group of 2 fills the taxi for the overlapping segment.
    let r1 = submit(&engine, 1, 9, 2, 0.0);
    choose(&engine, &r1, 0, 0.0);

    // A second group of 2 on the same corridor: the only way to serve it is
    // strictly after the first group is dropped off (no seat overlap), which
    // the waiting-time constraint may or may not allow — but a group of 3 can
    // never be served at all.
    let opts3 = submit(&engine, 2, 8, 3, 5.0).options;
    assert!(
        opts3.is_empty(),
        "a 3-rider group cannot fit a capacity-2 taxi: {opts3:?}"
    );
    assert_eq!(engine.with_vehicle(taxi, |v| v.num_requests()), Some(1));
}

#[test]
fn vehicle_index_tracks_empty_and_non_empty_transitions() {
    let engine = small_city_engine(MatcherKind::SingleSide);
    let taxi = engine.add_vehicle(VertexId(0));
    let registered_empty = || engine.with_vehicle_index(|index| index.is_registered_empty(taxi));
    assert_eq!(registered_empty(), Some(true));
    assert_indexed_at_location(&engine, taxi);

    let r1 = submit(&engine, 4, 9, 1, 0.0);
    choose(&engine, &r1, 0, 0.0);
    assert_eq!(registered_empty(), Some(false));
    assert_indexed_at_location(&engine, taxi);

    // Complete the trip, checking the registration after every move: the
    // vehicle stays in its location cell, busy and then empty again.
    let events = drive_until_idle(&engine, taxi);
    assert_eq!(events.len(), 2);
    assert_eq!(registered_empty(), Some(true));

    // Idle moves carry the registration along too.
    let net = engine.oracle().network_arc();
    let here = engine.with_vehicle(taxi, |v| v.location()).unwrap();
    let (_, path) = dijkstra::shortest_path(&net, here, VertexId(99)).unwrap();
    let mut cells = std::collections::BTreeSet::new();
    for pair in path.windows(2) {
        let leg = dijkstra::distance(&net, pair[0], pair[1]).unwrap();
        engine.location_update(taxi, pair[1], leg).unwrap();
        assert_eq!(registered_empty(), Some(true));
        assert_indexed_at_location(&engine, taxi);
        cells.insert(engine.with_vehicle_index(|index| index.cell_of(taxi)));
    }
    assert!(cells.len() > 1, "the idle taxi crossed cells");
}

#[test]
fn location_updates_keep_matching_consistent() {
    let engine = small_city_engine(MatcherKind::DualSide);
    let taxi = engine.add_vehicle(VertexId(0));

    // Before moving, a request near vertex 90 is expensive/far for the taxi.
    let probe1 = submit(&engine, 90, 95, 1, 0.0);
    decline(&engine, &probe1, 0.0);

    // Drive the empty taxi across the city with location updates.
    let net = engine.oracle().network_arc();
    let (_, path) = dijkstra::shortest_path(&net, VertexId(0), VertexId(90)).unwrap();
    let mut prev = VertexId(0);
    for v in path.into_iter().skip(1) {
        let leg = dijkstra::distance(&net, prev, v).unwrap();
        engine.location_update(taxi, v, leg).unwrap();
        prev = v;
    }
    assert_eq!(
        engine.with_vehicle(taxi, |v| v.location()),
        Some(VertexId(90))
    );

    // The same request is now much closer.
    let probe2 = submit(&engine, 90, 95, 1, 60.0);
    decline(&engine, &probe2, 60.0);
    let far_pickup = probe1
        .options
        .first()
        .map(|o| o.pickup_dist)
        .unwrap_or(f64::MAX);
    let near_pickup = probe2.options.first().map(|o| o.pickup_dist).unwrap();
    assert!(near_pickup < far_pickup);
    assert_eq!(near_pickup, 0.0, "the taxi is standing at the origin");
    // One location update per vertex crossed on the way to v90.
    assert!(engine.stats().location_updates > 0);
}

#[test]
fn rejected_and_declined_requests_leave_no_state_behind() {
    let engine = small_city_engine(MatcherKind::Naive);
    let taxi = engine.add_vehicle(VertexId(50));

    // A request no vehicle can reach within the pickup radius.
    let tight_engine = service(
        EngineConfig::paper_defaults().with_max_pickup_dist(100.0),
        MatcherKind::DualSide,
    );
    let far_taxi = tight_engine.add_vehicle(VertexId(0));
    let req = submit(&tight_engine, 99, 90, 1, 0.0);
    assert!(req.options.is_empty());
    decline(&tight_engine, &req, 0.0);
    assert!(tight_engine
        .with_vehicle(far_taxi, |v| v.is_empty())
        .unwrap());
    assert_eq!(tight_engine.open_offers(), 0);

    // Declining after options keeps the vehicle untouched.
    let req = submit(&engine, 52, 58, 1, 0.0);
    assert!(!req.options.is_empty());
    decline(&engine, &req, 0.0);
    assert!(engine.with_vehicle(taxi, |v| v.is_empty()).unwrap());
    assert_eq!(engine.stats().requests_chosen, 0);
}
