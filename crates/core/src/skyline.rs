//! Skyline maintenance over (pick-up time, price) options (Definition 4).
//!
//! PTRider returns, for every request, all *qualified and non-dominated*
//! results. The skyline keeps exactly those: an option is removed as soon as
//! another option dominates it, and a dominated option is never admitted.
//! Ties (identical time and price from different vehicles) are kept — they
//! do not dominate each other under Definition 4.

use crate::options::{dominates, RideOption};

/// Incrementally maintained set of non-dominated ride options.
#[derive(Clone, Debug, Default)]
pub struct Skyline {
    options: Vec<RideOption>,
}

impl Skyline {
    /// Creates an empty skyline.
    pub fn new() -> Self {
        Skyline {
            options: Vec::new(),
        }
    }

    /// Number of options currently in the skyline.
    pub fn len(&self) -> usize {
        self.options.len()
    }

    /// `true` when no option has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.options.is_empty()
    }

    /// The current non-dominated options.
    pub fn options(&self) -> &[RideOption] {
        &self.options
    }

    /// Attempts to insert an option. Returns `true` if the option was
    /// admitted (it is not dominated by any current member); dominated
    /// members are evicted.
    pub fn insert(&mut self, option: RideOption) -> bool {
        let candidate = (option.pickup_dist, option.price);
        if self
            .options
            .iter()
            .any(|o| dominates((o.pickup_dist, o.price), candidate))
        {
            return false;
        }
        self.options
            .retain(|o| !dominates(candidate, (o.pickup_dist, o.price)));
        self.options.push(option);
        true
    }

    /// `true` if a *hypothetical* option with the given lower bounds on time
    /// and price would necessarily be dominated by the current skyline —
    /// i.e. some member has `time ≤ time_lb` and `price ≤ price_lb` with at
    /// least one strict inequality. Because the true time and price of the
    /// candidate are at least the bounds, the candidate is then guaranteed to
    /// be dominated and can be pruned without exact computation.
    pub fn would_dominate(&self, time_lb: f64, price_lb: f64) -> bool {
        self.options
            .iter()
            .any(|o| dominates((o.pickup_dist, o.price), (time_lb, price_lb)))
    }

    /// Consumes the skyline and returns the options sorted by ascending
    /// pick-up time (ties broken by price then vehicle id) — the order the
    /// demo's result screen displays them in.
    pub fn into_sorted_options(mut self) -> Vec<RideOption> {
        self.options.sort_by(|a, b| {
            a.pickup_dist
                .partial_cmp(&b.pickup_dist)
                .unwrap()
                .then(a.price.partial_cmp(&b.price).unwrap())
                .then(a.vehicle.cmp(&b.vehicle))
        });
        self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrider_vehicles::VehicleId;

    fn opt(vehicle: u32, time: f64, price: f64) -> RideOption {
        RideOption {
            vehicle: VehicleId(vehicle),
            pickup_dist: time,
            pickup_secs: time,
            price,
            schedule: Vec::new(),
            new_total_dist: 0.0,
            old_total_dist: 0.0,
        }
    }

    #[test]
    fn keeps_only_non_dominated() {
        let mut s = Skyline::new();
        assert!(s.insert(opt(1, 10.0, 5.0)));
        assert!(s.insert(opt(2, 5.0, 8.0))); // trade-off: kept
        assert!(!s.insert(opt(3, 12.0, 6.0))); // dominated by option 1
        assert!(s.insert(opt(4, 4.0, 7.0))); // dominates option 2
        let vehicles: Vec<_> = s.options().iter().map(|o| o.vehicle.0).collect();
        assert!(vehicles.contains(&1));
        assert!(vehicles.contains(&4));
        assert!(!vehicles.contains(&2));
        assert!(!vehicles.contains(&3));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ties_are_kept() {
        let mut s = Skyline::new();
        assert!(s.insert(opt(1, 10.0, 5.0)));
        assert!(s.insert(opt(2, 10.0, 5.0)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn would_dominate_is_conservative() {
        let mut s = Skyline::new();
        s.insert(opt(1, 10.0, 5.0));
        // A candidate that is certainly later and more expensive.
        assert!(s.would_dominate(11.0, 6.0));
        // Equal bounds: not strictly dominated, must not be pruned.
        assert!(!s.would_dominate(10.0, 5.0));
        // Could still be cheaper: must not be pruned.
        assert!(!s.would_dominate(11.0, 4.0));
        // Empty skyline never dominates.
        assert!(!Skyline::new().would_dominate(0.0, 0.0));
    }

    #[test]
    fn sorted_options_are_ordered_by_time() {
        let mut s = Skyline::new();
        s.insert(opt(1, 10.0, 5.0));
        s.insert(opt(2, 5.0, 8.0));
        s.insert(opt(3, 7.0, 6.0));
        let sorted = s.into_sorted_options();
        let times: Vec<_> = sorted.iter().map(|o| o.pickup_dist).collect();
        assert_eq!(times, vec![5.0, 7.0, 10.0]);
    }

    #[test]
    fn skyline_invariant_no_member_dominates_another() {
        let mut s = Skyline::new();
        let pts = [
            (10.0, 5.0),
            (9.0, 6.0),
            (8.0, 7.0),
            (12.0, 4.0),
            (7.0, 7.5),
            (10.0, 5.0),
            (6.0, 9.0),
            (11.0, 4.5),
        ];
        for (i, (t, p)) in pts.iter().enumerate() {
            s.insert(opt(i as u32, *t, *p));
        }
        for a in s.options() {
            for b in s.options() {
                if !std::ptr::eq(a, b) {
                    assert!(!a.dominates(b), "{a:?} dominates {b:?}");
                }
            }
        }
    }
}
