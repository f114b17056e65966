//! Walkthrough of the paper's worked example (Section 2, Fig. 1).
//!
//! Vehicle c1 is at v1 and already serves R1 = <v2, v16, 2, 5, 0.2>; vehicle
//! c2 is empty at v13. The new request R2 = <v12, v17, 2, 5, 0.2> must
//! receive exactly the two non-dominated options of the paper:
//! r1 = <c1, 14, 4> and r2 = <c2, 8, 8.8>.
//!
//! Run with `cargo run --example fig1_walkthrough`.

use ptrider::datagen::Fig1Scenario;
use ptrider::{Decision, GridConfig, MatcherKind, OptionId, RideService};

fn main() {
    let scenario = Fig1Scenario::new();

    for kind in [
        MatcherKind::Naive,
        MatcherKind::SingleSide,
        MatcherKind::DualSide,
    ] {
        println!("\n== matching algorithm: {kind} ==");
        let engine = RideService::new(
            scenario.network.clone(),
            GridConfig::with_dimensions(4, 4),
            scenario.config,
        )
        .with_matcher(kind);

        // Two taxis: c1 at v1, c2 at v13.
        let c1 = engine.add_vehicle(scenario.c1_start);
        let c2 = engine.add_vehicle(scenario.c2_start);
        println!(
            "c1 = {c1} at {}, c2 = {c2} at {}",
            scenario.c1_start, scenario.c2_start
        );

        // Step 1: R1 = <v2, v16, 2, 5, 0.2> is assigned to c1 (its only
        // non-dominated option), reproducing the paper's starting state with
        // trip schedule <v1, v2, v16>.
        let r1 = engine
            .submit(scenario.r1.0, scenario.r1.1, scenario.r1.2, 0.0)
            .unwrap();
        println!("R1 receives {} option(s):", r1.options.len());
        for o in &r1.options {
            println!("  {} pickup={} price={}", o.vehicle, o.pickup_dist, o.price);
        }
        assert_eq!(r1.options[0].vehicle, c1);
        engine
            .respond(r1.session, Decision::Choose(OptionId(0)), 0.0)
            .unwrap();
        let schedule = engine
            .with_vehicle(c1, |v| {
                v.current_schedule()
                    .iter()
                    .map(|s| s.location.to_string())
                    .collect::<Vec<_>>()
            })
            .unwrap();
        println!("c1 schedule: {schedule:?}");

        // Step 2: R2 = <v12, v17, 2, 5, 0.2>.
        let options = engine
            .submit(scenario.r2.0, scenario.r2.1, scenario.r2.2, 0.0)
            .unwrap()
            .options;
        println!("R2 receives {} option(s):", options.len());
        for o in &options {
            println!(
                "  {} pickup={:.0} price={:.1}   (paper: c2 -> <8, 8.8>, c1 -> <14, 4>)",
                o.vehicle, o.pickup_dist, o.price
            );
        }
        assert_eq!(options.len(), 2, "the paper's example returns two options");
        let by_c1 = options.iter().find(|o| o.vehicle == c1).unwrap();
        let by_c2 = options.iter().find(|o| o.vehicle == c2).unwrap();
        assert_eq!(by_c1.pickup_dist, 14.0);
        assert!((by_c1.price - 4.0).abs() < 1e-9);
        assert_eq!(by_c2.pickup_dist, 8.0);
        assert!((by_c2.price - 8.8).abs() < 1e-9);
    }

    println!("\nAll three matchers reproduce the paper's example exactly.");
}
