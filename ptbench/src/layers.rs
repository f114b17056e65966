//! The replay pass that looks under `submit`: the same request matched
//! read-only — cold once, warm twice — and re-inserted into the vehicles
//! it was offered on, all through public calls, on the very world state
//! the `submit` that follows will see.
//!
//! * the cold `match_request_with` = what `submit` spends in `matching`;
//! * cold − warm, where the cold match computed any distance = what the
//!   exact distances cost (`roadnet`): the warm repeat finds them cached;
//! * `insertion_candidates` on the offered vehicles, warm = the kinetic
//!   tree's own cost per verified vehicle (`vehicles`);
//! * the `submit` that follows − the second warm match = the service's
//!   bookkeeping around the matcher (both run fully warm, back to back).
//!
//! All four are taken on the same rides, so their *shares* of a `submit`
//! are consistent; the budget applies those shares to the `submit` time
//! the traced pass measured (see [`apply_layers`]).

use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::sut::{MatcherKind, Request, RequestId, RideService, VehicleId, VertexId};
use crate::trace::{Budget, Layer};
use std::time::Instant;

/// Targets of one `distances_from` batch in the micro-probe.
const BATCH_TARGETS: usize = 16;

#[derive(Default)]
pub struct LayerProbe {
    pub probes: u64,
    match_cold_ms: Vec<f64>,
    match_cold_s: f64,
    match_warm_s: f64,
    /// Cold minus warm, over the probes that computed a distance.
    roadnet_s: f64,
    /// The warm `submit` minus the second warm match, per probed ride.
    service_self_us: Vec<f64>,
    service_self_s: f64,
    exact: u64,
    considered: u64,
    verified: u64,
    pruned: u64,
    candidates: u64,
    options: u64,
    insert_us: Vec<f64>,
    insert_s: f64,
    vehicles_measured: u64,
    /// Measured vehicles that carried a schedule, their stops and branches.
    busy_vehicles: u64,
    stops: u64,
    branches: u64,
}

impl LayerProbe {
    /// Matches the request cold and twice warm and times the insertion on
    /// every offered vehicle. Returns the second warm match's seconds for
    /// [`Self::submitted`]; `None` when the request is not matchable (the
    /// `submit` that follows will fail and be counted there).
    pub fn probe(
        &mut self,
        service: &RideService,
        origin: VertexId,
        destination: VertexId,
        riders: u32,
        now: f64,
    ) -> Option<f64> {
        // Read-only matching records nothing, so any id will do.
        let request = Request::new(RequestId(u64::MAX), origin, destination, riders, now);
        let matched = || service.match_request_with(MatcherKind::DualSide, &request);
        let t0 = Instant::now();
        let cold = matched().ok()?;
        let t1 = Instant::now();
        std::hint::black_box(matched().ok()?);
        let t2 = Instant::now();
        std::hint::black_box(matched().ok()?);
        let t3 = Instant::now();
        self.probes += 1;
        self.match_cold_ms.push((t1 - t0).as_secs_f64() * 1e3);
        self.match_cold_s += (t1 - t0).as_secs_f64();
        self.match_warm_s += (t2 - t1).as_secs_f64();
        // A first match is also slower for touching the world cold; only
        // where it computed distances is the difference theirs.
        if cold.stats.exact_distance_computations > 0 {
            self.roadnet_s += ((t1 - t0).as_secs_f64() - (t2 - t1).as_secs_f64()).max(0.0);
        }
        self.exact += cold.stats.exact_distance_computations;
        self.considered += cold.stats.vehicles_considered as u64;
        self.verified += cold.stats.vehicles_verified as u64;
        self.pruned += cold.stats.vehicles_pruned as u64;
        self.candidates += cold.stats.candidates_generated as u64;
        self.options += cold.options.len() as u64;

        let oracle = service.oracle();
        let prospective =
            request.to_prospective(oracle.distance(origin, destination), service.config());
        let mut vehicles: Vec<VehicleId> = cold.options.iter().map(|o| o.vehicle).collect();
        vehicles.sort_unstable();
        vehicles.dedup();
        for id in vehicles {
            let t = Instant::now();
            let found =
                service.with_vehicle(id, |v| v.insertion_candidates(oracle, &prospective).len());
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(found);
            self.insert_us.push(dt * 1e6);
            self.insert_s += dt;
            self.vehicles_measured += 1;
            let depth =
                service.with_vehicle(id, |v| (v.kinetic_tree().size(), v.all_schedules().len()));
            if let Some((stops, branches)) = depth.filter(|(stops, _)| *stops > 0) {
                self.stops += stops as u64;
                self.branches += branches as u64;
                self.busy_vehicles += 1;
            }
        }
        Some((t3 - t2).as_secs_f64())
    }

    /// Records the (warm) `submit` that followed a probe.
    pub fn submitted(&mut self, warm_match_s: f64, submit_s: f64) {
        self.service_self_us.push((submit_s - warm_match_s) * 1e6);
        self.service_self_s += submit_s - warm_match_s;
    }

    /// `(name, value)` rows of the layer metrics this probe carries.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per_probe = |x: u64| ratio(x as f64, self.probes as f64);
        let mut cold = self.match_cold_ms.clone();
        cold.sort_by(f64::total_cmp);
        let pct = |p: f64| {
            if cold.is_empty() {
                0.0
            } else {
                percentile(&cold, p)
            }
        };
        let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        vec![
            ("service.self_us", median_or_zero(&self.service_self_us)),
            ("matching.match_p50_ms", pct(0.50)),
            ("matching.match_p99_ms", pct(0.99)),
            ("matching.verified_per_offer", per_probe(self.verified)),
            (
                "matching.pruned_ratio",
                ratio(self.pruned as f64, self.considered as f64),
            ),
            (
                "matching.candidates_per_option",
                ratio(self.candidates as f64, self.options as f64),
            ),
            ("vehicles.insert_us", median_or_zero(&self.insert_us)),
            (
                "vehicles.schedule_depth",
                ratio(
                    (self.stops + self.branches) as f64,
                    self.busy_vehicles as f64,
                ),
            ),
            ("roadnet.exact_per_offer", per_probe(self.exact)),
            (
                "roadnet.exact_us",
                ratio(self.roadnet_s * 1e6, self.exact as f64),
            ),
        ]
    }

    /// Seconds of kinetic-tree insertion in the probed rides' matches: the
    /// measured per-vehicle cost times the vehicles verified, and never
    /// more than the warm match it is part of.
    fn vehicles_s(&self) -> f64 {
        let per_vehicle = ratio(self.insert_s, self.vehicles_measured as f64);
        (per_vehicle * self.verified as f64).min(self.match_warm_s)
    }
}

/// Reports the probe's layer metrics and carves `matching`, `roadnet` and
/// `vehicles` out of the budget's service row. `submit_s` is what the
/// budgeted pass spent in `submit`, over `rides` rides; the probe says
/// which shares of a `submit` belong to whom.
pub fn apply_layers(
    outcome: &mut Outcome,
    budget: &mut Budget,
    probe: &LayerProbe,
    rides: u64,
    submit_s: f64,
    micro: &[(&'static str, f64); 2],
) {
    for (name, value) in probe.metrics().into_iter().chain(micro.iter().copied()) {
        outcome.metric(name, value, probe.probes);
    }
    // A probed ride's cold submit = its cold match + the service around it.
    let whole = probe.match_cold_s + probe.service_self_s.max(0.0);
    let share = |seconds: f64| submit_s * ratio(seconds, whole);
    let scaled =
        |count: u64| (count as f64 * ratio(rides as f64, probe.probes as f64)).round() as u64;
    budget.carve(
        Layer::Service,
        Layer::Matching,
        rides,
        share(probe.match_cold_s),
    );
    budget.carve(
        Layer::Matching,
        Layer::Roadnet,
        scaled(probe.exact),
        share(probe.roadnet_s),
    );
    budget.carve(
        Layer::Matching,
        Layer::Vehicles,
        scaled(probe.verified),
        share(probe.vehicles_s()),
    );
}

pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Times the two oracle entry points no match exposes on its own: an
/// admissible bound (`roadnet.bound_ns`) and a 16-target batch
/// (`roadnet.batch_us`), over seeded vertex pairs. Run last: the batch
/// fills the cache.
pub fn oracle_micro(service: &RideService, seed: u64) -> [(&'static str, f64); 2] {
    let oracle = service.oracle();
    let mut rng = crate::digest::SplitMix64::new(seed ^ 0x04_ac1e);
    let vertices = service.network().num_vertices() as u64;
    let mut vertex = || VertexId(rng.below(vertices) as u32);
    let pairs: Vec<(VertexId, VertexId)> = (0..4096).map(|_| (vertex(), vertex())).collect();
    let t = Instant::now();
    let mut sum = 0.0;
    for (u, v) in &pairs {
        sum += oracle.lower_bound(*u, *v);
    }
    let bound_ns = t.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64;
    let batches: Vec<(VertexId, Vec<VertexId>)> = (0..64)
        .map(|_| (vertex(), (0..BATCH_TARGETS).map(|_| vertex()).collect()))
        .collect();
    let t = Instant::now();
    for (source, targets) in &batches {
        sum += oracle.distances_from(*source, targets).iter().sum::<f64>();
    }
    let batch_us = t.elapsed().as_secs_f64() * 1e6 / batches.len() as f64;
    std::hint::black_box(sum);
    [
        ("roadnet.bound_ns", bound_ns),
        ("roadnet.batch_us", batch_us),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Row;

    #[test]
    fn shares_of_a_submit_are_carved_in_proportion() {
        // Probed rides: 8 s of cold matches of which 5 s were distances
        // (3 s warm), 1 s of insertions, 2 s of service around them.
        let probe = LayerProbe {
            probes: 10,
            match_cold_s: 8.0,
            match_warm_s: 3.0,
            roadnet_s: 5.0,
            service_self_s: 2.0,
            insert_s: 0.5,
            vehicles_measured: 5,
            verified: 10,
            exact: 100,
            ..LayerProbe::default()
        };
        assert_eq!(probe.vehicles_s(), 1.0);
        // The budgeted pass spent 20 s in submits (twice the probed 10 s)
        // and 5 s in other service calls.
        let mut rows = [Row::default(); 7];
        rows[Layer::Service as usize] = Row {
            count: 40,
            busy_s: 25.0,
            self_s: 25.0,
        };
        let mut budget = Budget { wall_s: 30.0, rows };
        let mut outcome = Outcome::new("day.pooled", &crate::RunOpts::for_tests());
        let micro = [("roadnet.bound_ns", 1.0), ("roadnet.batch_us", 2.0)];
        apply_layers(&mut outcome, &mut budget, &probe, 20, 20.0, &micro);
        let near = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(near(budget.row(Layer::Matching).busy_s, 16.0));
        assert!(near(budget.row(Layer::Roadnet).self_s, 10.0));
        assert!(near(budget.row(Layer::Vehicles).self_s, 2.0));
        assert!(near(budget.row(Layer::Matching).self_s, 4.0));
        assert!(
            near(budget.row(Layer::Service).self_s, 9.0),
            "4 s around the matcher + 5 s elsewhere"
        );
        assert_eq!(budget.row(Layer::Roadnet).count, 200);
        assert!(near(budget.attributed_s(), 25.0));
        assert_eq!(outcome.value("roadnet.exact_per_offer"), Some(10.0));
        assert_eq!(outcome.value("roadnet.exact_us"), Some(50_000.0));
        assert_eq!(outcome.value("roadnet.batch_us"), Some(2.0));
    }
}
