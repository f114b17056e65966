//! Experiment E1: the worked example of Section 2 / Fig. 1.
//!
//! The paper states that request `R2 = ⟨v12, v17, 2, 5, 0.2⟩` — submitted
//! while vehicle `c1` (at `v1`) serves `R1 = ⟨v2, v16, 2, 5, 0.2⟩` with trip
//! schedule `⟨v1, v2, v16⟩` and vehicle `c2` (at `v13`) is empty — receives
//! exactly two non-dominated options: `r1 = ⟨c1, 14, 4⟩` and
//! `r2 = ⟨c2, 8, 8.8⟩`, with `c1`'s new schedule `⟨v1, v2, v12, v16, v17⟩`.
//! This test replays the scenario against every matcher.

use ptrider::datagen::{fig1_vertex, Fig1Scenario};
use ptrider::{
    Decision, GridConfig, MatcherKind, Offer, OptionId, RideService, StopKind, VehicleId,
};

fn build_engine(scenario: &Fig1Scenario, kind: MatcherKind) -> (RideService, VehicleId, VehicleId) {
    let engine = RideService::new(
        scenario.network.clone(),
        GridConfig::with_dimensions(4, 4),
        scenario.config,
    )
    .with_matcher(kind);
    let c1 = engine.add_vehicle(scenario.c1_start);
    let c2 = engine.add_vehicle(scenario.c2_start);
    (engine, c1, c2)
}

/// Submits R2 at time 0 and returns its offer.
fn submit_r2(engine: &RideService, scenario: &Fig1Scenario) -> Offer {
    engine
        .submit(scenario.r2.0, scenario.r2.1, scenario.r2.2, 0.0)
        .expect("R2 is a valid request")
}

/// Assigns R1 to c1, reproducing the paper's starting state.
fn assign_r1(engine: &RideService, c1: VehicleId, scenario: &Fig1Scenario) {
    let offer = engine
        .submit(scenario.r1.0, scenario.r1.1, scenario.r1.2, 0.0)
        .expect("R1 is a valid request");
    let options = &offer.options;
    // c1 dominates c2 for R1 (pickup 6 vs 16, price 12 vs 16), so exactly one
    // option is returned and it belongs to c1.
    assert_eq!(options.len(), 1, "R1 must receive exactly c1's option");
    assert_eq!(options[0].vehicle, c1);
    assert_eq!(options[0].pickup_dist, 6.0);
    assert!((options[0].price - 12.0).abs() < 1e-9);
    engine
        .respond(offer.session, Decision::Choose(OptionId(0)), 0.0)
        .unwrap();

    // c1's committed schedule is the paper's tr1 = <v1, v2, v16> (the vehicle
    // is at v1, the schedule lists the remaining stops v2 then v16).
    let locations: Vec<_> = engine
        .with_vehicle(c1, |v| {
            v.current_schedule().iter().map(|s| s.location).collect()
        })
        .unwrap();
    assert_eq!(locations, vec![fig1_vertex(2), fig1_vertex(16)]);
}

#[test]
fn fig1_example_reproduces_with_every_matcher() {
    let scenario = Fig1Scenario::new();
    for kind in MatcherKind::all() {
        let (engine, c1, c2) = build_engine(&scenario, kind);
        assign_r1(&engine, c1, &scenario);

        let options = submit_r2(&engine, &scenario).options;
        assert_eq!(
            options.len(),
            2,
            "{kind}: R2 must receive the paper's two options, got {options:?}"
        );

        let by_c1 = options
            .iter()
            .find(|o| o.vehicle == c1)
            .unwrap_or_else(|| panic!("{kind}: c1 must offer an option"));
        let by_c2 = options
            .iter()
            .find(|o| o.vehicle == c2)
            .unwrap_or_else(|| panic!("{kind}: c2 must offer an option"));

        // r1 = <c1, 14, 4>: pick-up distance 14, price 4.
        assert_eq!(by_c1.pickup_dist, 14.0, "{kind}: c1 pickup distance");
        assert!(
            (by_c1.price - 4.0).abs() < 1e-9,
            "{kind}: c1 price {}",
            by_c1.price
        );
        // The new schedule is tr2 = <v1, v2, v12, v16, v17> — from the
        // vehicle location v1, the remaining stops are v2, v12, v16, v17.
        let schedule: Vec<_> = by_c1.schedule.iter().map(|s| s.location).collect();
        assert_eq!(
            schedule,
            vec![
                fig1_vertex(2),
                fig1_vertex(12),
                fig1_vertex(16),
                fig1_vertex(17)
            ],
            "{kind}: c1's offered schedule"
        );

        // r2 = <c2, 8, 8.8>.
        assert_eq!(by_c2.pickup_dist, 8.0, "{kind}: c2 pickup distance");
        assert!(
            (by_c2.price - 8.8).abs() < 1e-9,
            "{kind}: c2 price {}",
            by_c2.price
        );

        // Neither option dominates the other (Definition 4).
        assert!(!by_c1.dominates(by_c2));
        assert!(!by_c2.dominates(by_c1));
    }
}

#[test]
fn fig1_price_model_example_of_definition_3() {
    // Definition 3's example computes the price of inserting R2 into c1's
    // schedule directly: f_2 · (dist_tr2 − dist_tr1 + dist(v12, v17)) = 4.
    let scenario = Fig1Scenario::new();
    let (engine, c1, _c2) = build_engine(&scenario, MatcherKind::Naive);
    assign_r1(&engine, c1, &scenario);

    let dist_tr1 = engine
        .with_vehicle(c1, |v| v.current_best_distance())
        .unwrap();
    assert_eq!(dist_tr1, 18.0); // 6 + 12

    let options = submit_r2(&engine, &scenario).options;
    let by_c1 = options.iter().find(|o| o.vehicle == c1).unwrap();
    assert_eq!(by_c1.new_total_dist, 21.0); // 6 + 8 + 4 + 3
    assert_eq!(by_c1.old_total_dist, 18.0);
    let direct = 7.0; // dist(v12, v17)
    let expected = scenario.config.price.price(2, by_c1.detour_dist(), direct);
    assert!((expected - 4.0).abs() < 1e-9);
    assert!((by_c1.price - expected).abs() < 1e-9);
}

#[test]
fn fig1_choosing_the_cheaper_option_extends_c1() {
    let scenario = Fig1Scenario::new();
    let (engine, c1, _c2) = build_engine(&scenario, MatcherKind::DualSide);
    assign_r1(&engine, c1, &scenario);
    let offer = submit_r2(&engine, &scenario);
    let (cheap, option) = offer
        .iter_ids()
        .min_by(|(_, a), (_, b)| a.price.partial_cmp(&b.price).unwrap())
        .unwrap();
    assert_eq!(option.vehicle, c1);
    engine
        .respond(offer.session, Decision::Choose(cheap), 0.0)
        .unwrap();

    let v = engine.with_vehicle(c1, |v| v.clone()).unwrap();
    assert_eq!(v.num_requests(), 2);
    // The committed best schedule now serves both requests in the paper's
    // order: pickup R1 at v2, pickup R2 at v12, drop R1 at v16, drop R2 at v17.
    let schedule = v.current_schedule();
    let kinds: Vec<_> = schedule.iter().map(|s| (s.location, s.kind)).collect();
    assert_eq!(
        kinds,
        vec![
            (fig1_vertex(2), StopKind::Pickup),
            (fig1_vertex(12), StopKind::Pickup),
            (fig1_vertex(16), StopKind::Dropoff),
            (fig1_vertex(17), StopKind::Dropoff),
        ]
    );
    assert_eq!(v.current_best_distance(), 21.0);
}
