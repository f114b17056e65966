//! Shared grid-expansion search used by the single-side and dual-side
//! matchers.
//!
//! The search visits grid cells in ascending order of their lower-bound
//! distance from the request's start location (the order precomputed by
//! [`ptrider_roadnet::GridIndex::cells_by_lower_bound`]). Empty and
//! non-empty vehicles are processed separately, exactly as Section 3.3
//! describes. Every pruning decision uses an *admissible* lower bound, so
//! the returned skyline is identical to the naive matcher's (verified by
//! property tests); pruning only reduces the number of vehicles verified and
//! exact shortest-path distances computed.

use super::plan::{verify_vehicles, DistancePlan};
use super::{MatchContext, MatchResult, MatchStats};
use crate::skyline::Skyline;
use crate::telemetry::Stage;
use ptrider_roadnet::LOWER_BOUND_HAIRCUT;
use ptrider_vehicles::{ProspectiveRequest, Vehicle};
use std::time::Instant;

/// Tolerance for constraint comparisons, in metres.
const EPS: f64 = 1e-6;

/// Shaves a per-vehicle bound before it meets the pickup radius or the
/// skyline. A composed bound (`lb(l, s) + dist(s, d) − dist_tri`, the fare
/// product over it, P5's stop sums) folds its terms in another order than
/// verification folds the schedule it bounds, so even when every term is
/// an exact cached distance it can round an ulp above the verified value
/// and prune an option that is not dominated. The relative haircut dwarfs
/// that error; every per-vehicle time and price bound takes it.
fn shaved(bound: f64) -> f64 {
    bound * LOWER_BOUND_HAIRCUT
}

/// Which pruning rules to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SearchMode {
    /// Start-location side pruning only (P1–P4).
    SingleSide,
    /// Start- and destination-side pruning (P1–P5).
    DualSide,
}

/// Runs the grid-expansion search.
pub(crate) fn grid_search(
    ctx: &MatchContext<'_>,
    req: &ProspectiveRequest,
    mode: SearchMode,
) -> MatchResult {
    let mut skyline = Skyline::new();
    let mut stats = MatchStats::default();
    let exact_before = ctx.oracle.exact_computations();

    // Per-stage span accumulators (only read the clock at the `Spans`
    // level). Prune, verify and skyline work are timed directly; candidate
    // extraction — the cell walk and index iteration — is the search's
    // remaining time, so the four stages partition the whole search.
    let clock = ctx.stage_clock();
    let search_start = clock.enabled().then(Instant::now);
    let mut prune_ns = 0u64;
    let mut verify_ns = 0u64;
    let mut skyline_ns = 0u64;

    let grid = ctx.grid;
    let fare = &ctx.config.price;
    let direct = req.direct_dist;
    let max_pick = ctx.config.max_pickup_dist;
    let s = req.pickup;
    let s_cell = grid.cell_of(s);
    // The grid's cell-distance tables are built from forward searches only,
    // so they bound dist(x, s) solely on networks with symmetric distances.
    // With one-way edges the cell bound degrades to 0 (no cell-level
    // termination; the per-vehicle bounds below use the direction-safe
    // oracle and keep the skyline identical to the naive scan).
    let symmetric = ctx.oracle.network().is_undirected();
    let s_min = {
        let m = grid.vertex_min(s);
        if symmetric && m.is_finite() {
            m
        } else {
            0.0
        }
    };
    // Universal price floor for non-empty vehicles (zero detour).
    let price_floor_shared = fare.floor(req.riders, direct);

    let mut empty_done = false;
    let mut non_empty_done = false;
    // Vehicles that survived the cheap bound pruning of the current cell;
    // verified as one batch before the next cell so the
    // cell-level termination checks still see the up-to-date skyline.
    let mut batch: Vec<&Vehicle> = Vec::new();
    let mut plan = DistancePlan::new(ctx.oracle, req);

    for &(cell, cell_lb) in grid.cells_by_lower_bound(s_cell) {
        if empty_done && non_empty_done {
            break;
        }
        stats.cells_visited += 1;
        // Lower bound on dist(x, s) for any vertex x in this cell (P1).
        let t_cell_lb = if !symmetric || cell == s_cell {
            0.0
        } else if cell_lb.is_finite() {
            (cell_lb + s_min) * LOWER_BOUND_HAIRCUT
        } else {
            f64::INFINITY
        };

        if !empty_done {
            let empty_floor = fare.empty_vehicle_price(req.riders, t_cell_lb, direct);
            if t_cell_lb > max_pick || skyline.would_dominate(t_cell_lb, empty_floor) {
                // Every empty vehicle in this or any later cell is either out
                // of pickup range or dominated (P4).
                empty_done = true;
            } else {
                for vid in ctx.index.empty_in_cell(cell) {
                    let Some(vehicle) = ctx.vehicles.get(&vid) else {
                        continue;
                    };
                    stats.vehicles_considered += 1;
                    if clock.time(&mut prune_ns, || {
                        empty_survives_pruning(ctx, req, vehicle, &skyline, &mut stats)
                    }) {
                        batch.push(vehicle);
                    }
                }
            }
        }

        if !non_empty_done {
            if t_cell_lb > max_pick || skyline.would_dominate(t_cell_lb, price_floor_shared) {
                // Every unseen non-empty vehicle has its current location in
                // this or a later cell, so its pickup bound is at least
                // t_cell_lb and its price at least the shared floor (P4).
                non_empty_done = true;
            } else {
                for vid in ctx.index.non_empty_in_cell(cell) {
                    let Some(vehicle) = ctx.vehicles.get(&vid) else {
                        continue;
                    };
                    stats.vehicles_considered += 1;
                    if clock.time(&mut prune_ns, || {
                        non_empty_survives_pruning(ctx, req, vehicle, mode, &skyline, &mut stats)
                    }) {
                        batch.push(vehicle);
                    }
                }
            }
        }

        if !batch.is_empty() {
            clock.time(&mut verify_ns, || {
                verify_vehicles(ctx, req, &mut plan, &batch, &mut skyline, &mut stats)
            });
            batch.clear();
        }
    }

    stats.exact_distance_computations = ctx.oracle.exact_computations() - exact_before;
    let options = clock.time(&mut skyline_ns, || skyline.into_sorted_options());
    if let Some(start) = search_start {
        let total_ns = start.elapsed().as_nanos() as u64;
        let candidates_ns = total_ns.saturating_sub(prune_ns + verify_ns + skyline_ns);
        ctx.record_stage(Stage::MatchCandidates, candidates_ns);
        ctx.record_stage(Stage::MatchPrune, prune_ns);
        ctx.record_stage(Stage::MatchVerify, verify_ns);
        ctx.record_stage(Stage::MatchSkyline, skyline_ns);
    }
    MatchResult { options, stats }
}

/// Empty vehicle: its price is a closed-form function of its pickup distance
/// (P2), so a lower bound on the pickup distance bounds both dimensions.
/// Returns `true` when the vehicle cannot be pruned and must be verified.
fn empty_survives_pruning(
    ctx: &MatchContext<'_>,
    req: &ProspectiveRequest,
    vehicle: &Vehicle,
    skyline: &Skyline,
    stats: &mut MatchStats,
) -> bool {
    let t_lb = shaved(ctx.oracle.lower_bound(vehicle.location(), req.pickup));
    if t_lb > ctx.config.max_pickup_dist {
        stats.vehicles_pruned += 1;
        return false;
    }
    let fare = &ctx.config.price;
    let p_lb = shaved(fare.empty_vehicle_price(req.riders, t_lb, req.direct_dist));
    if skyline.would_dominate(t_lb, p_lb) {
        stats.vehicles_pruned += 1;
        return false;
    }
    true
}

/// Non-empty vehicle: prune with the pickup-distance bound, the detour/price
/// bound (P3) and — in dual-side mode — the destination-side analysis (P5).
/// Returns `true` when the vehicle cannot be pruned and must be verified.
fn non_empty_survives_pruning(
    ctx: &MatchContext<'_>,
    req: &ProspectiveRequest,
    vehicle: &Vehicle,
    mode: SearchMode,
    skyline: &Skyline,
    stats: &mut MatchStats,
) -> bool {
    let loc = vehicle.location();
    let mut time_lb = shaved(ctx.oracle.lower_bound(loc, req.pickup));
    if time_lb > ctx.config.max_pickup_dist {
        stats.vehicles_pruned += 1;
        return false;
    }
    let dist_tri = vehicle.current_best_distance();
    // The new schedule must reach s and then d: dist_trj ≥ lb(l, s) + dist(s, d).
    let mut delta_lb = (time_lb + req.direct_dist - dist_tri).max(0.0);

    if mode == SearchMode::DualSide {
        // Destination-side length bound: the new schedule also reaches d.
        let d_lb = ctx.oracle.lower_bound(loc, req.dropoff);
        delta_lb = delta_lb.max((d_lb - dist_tri).max(0.0));

        match destination_side_analysis(ctx, req, vehicle) {
            Analysis::Infeasible => {
                stats.vehicles_pruned += 1;
                return false;
            }
            Analysis::Bounds { pickup_dist_lb } => {
                time_lb = time_lb.max(shaved(pickup_dist_lb));
                if time_lb > ctx.config.max_pickup_dist {
                    stats.vehicles_pruned += 1;
                    return false;
                }
                delta_lb = delta_lb.max((time_lb + req.direct_dist - dist_tri).max(0.0));
            }
        }
    }

    let fare = &ctx.config.price;
    let p_lb = shaved(fare.price(req.riders, delta_lb, req.direct_dist));
    if skyline.would_dominate(time_lb, p_lb) {
        stats.vehicles_pruned += 1;
        return false;
    }
    true
}

/// Outcome of the destination-side placement analysis (P5).
enum Analysis {
    /// No valid schedule can serve the request with this vehicle.
    Infeasible,
    /// The request can only be served with a pickup distance of at least
    /// `pickup_dist_lb`.
    Bounds { pickup_dist_lb: f64 },
}

/// For every outstanding stop of the vehicle, decide — using lower bounds
/// only — whether it could be placed between the new pickup and drop-off or
/// after the new drop-off. A stop that fits neither place must be served
/// *before* the new pickup, which raises the pickup-distance lower bound; a
/// stop that cannot be served anywhere at all makes the vehicle infeasible.
///
/// This is the reconstruction of the paper's dual-side pruning: a schedule
/// that is near the start location but far from the destination fails the
/// "between" and "after" placements and is pruned (or degraded) without any
/// exact shortest-path computation.
fn destination_side_analysis(
    ctx: &MatchContext<'_>,
    req: &ProspectiveRequest,
    vehicle: &Vehicle,
) -> Analysis {
    let oracle = ctx.oracle;
    let loc = vehicle.location();
    let s = req.pickup;
    let d = req.dropoff;
    let direct = req.direct_dist;
    let mut pickup_dist_lb: f64 = 0.0;

    for r in vehicle.requests() {
        let (stop_loc, budget) = if r.is_waiting() {
            // The outstanding pickup must happen within its odometer deadline.
            (r.pickup, r.pickup_deadline_odometer - vehicle.odometer())
        } else {
            // The outstanding drop-off must happen within the remaining
            // on-board budget.
            (r.dropoff, r.remaining_onboard_budget())
        };
        if budget < -EPS {
            // Already violated; the vehicle cannot accept anything.
            return Analysis::Infeasible;
        }

        // Placement between the new pickup and drop-off: the stop would ride
        // inside the new request's trip, which must stay within the new
        // request's own service budget, and the stop must still be reachable
        // within its own budget after passing through s.
        let between_ok = oracle.lower_bound(s, stop_loc) + oracle.lower_bound(stop_loc, d)
            <= req.max_onboard_dist + EPS
            && oracle.lower_bound(loc, s) + oracle.lower_bound(s, stop_loc) <= budget + EPS;

        // Placement after the new drop-off: the vehicle first drives to s,
        // carries the new riders to d, then reaches the stop.
        let after_ok =
            oracle.lower_bound(loc, s) + direct + oracle.lower_bound(d, stop_loc) <= budget + EPS;

        if !between_ok && !after_ok {
            // The stop has to be served before the new pickup.
            if oracle.lower_bound(loc, stop_loc) > budget + EPS {
                return Analysis::Infeasible;
            }
            let before_bound = oracle.lower_bound(loc, stop_loc) + oracle.lower_bound(stop_loc, s);
            pickup_dist_lb = pickup_dist_lb.max(before_bound);
        }
    }

    Analysis::Bounds { pickup_dist_lb }
}
