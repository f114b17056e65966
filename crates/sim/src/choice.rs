//! Rider choice models.
//!
//! PTRider returns several non-dominated (pick-up time, price) options; the
//! real rider picks one on their phone (Fig. 4(b)). The simulator models
//! that decision with a [`ChoicePolicy`].

use ptrider_core::RideOption;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a simulated rider chooses among the returned options.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ChoicePolicy {
    /// Always take the cheapest option (ties: earliest pickup).
    Cheapest,
    /// Always take the earliest pickup (ties: cheapest).
    Fastest,
    /// Pick uniformly at random among the options.
    Random,
    /// Minimise `alpha · time + (1 − alpha) · price` after normalising both
    /// dimensions to `[0, 1]` over the returned options. `alpha = 1` is
    /// equivalent to [`ChoicePolicy::Fastest`], `alpha = 0` to
    /// [`ChoicePolicy::Cheapest`].
    Weighted {
        /// Weight of the time dimension, in `[0, 1]`.
        alpha: f64,
    },
}

impl Default for ChoicePolicy {
    fn default() -> Self {
        ChoicePolicy::Weighted { alpha: 0.5 }
    }
}

impl ChoicePolicy {
    /// Chooses one option; returns `None` when no options were offered.
    pub fn choose<'a, R: Rng>(
        &self,
        options: &'a [RideOption],
        rng: &mut R,
    ) -> Option<&'a RideOption> {
        self.choose_index(options, rng).map(|i| &options[i])
    }

    /// Like [`Self::choose`] but returning the option's *index* — the
    /// selector form [`ptrider_core::RideService::submit_batch_greedy`]
    /// consumes, so the simulator's burst arrival mode can hand the policy
    /// straight to batch admission.
    pub fn choose_index<R: Rng>(&self, options: &[RideOption], rng: &mut R) -> Option<usize> {
        if options.is_empty() {
            return None;
        }
        let enumerated = || options.iter().enumerate();
        let best = match self {
            ChoicePolicy::Cheapest => enumerated().min_by(|(_, a), (_, b)| {
                a.price
                    .partial_cmp(&b.price)
                    .unwrap()
                    .then(a.pickup_dist.partial_cmp(&b.pickup_dist).unwrap())
            }),
            ChoicePolicy::Fastest => enumerated().min_by(|(_, a), (_, b)| {
                a.pickup_dist
                    .partial_cmp(&b.pickup_dist)
                    .unwrap()
                    .then(a.price.partial_cmp(&b.price).unwrap())
            }),
            ChoicePolicy::Random => {
                let i = rng.gen_range(0..options.len());
                return Some(i);
            }
            ChoicePolicy::Weighted { alpha } => {
                let alpha = alpha.clamp(0.0, 1.0);
                let max_t = options
                    .iter()
                    .map(|o| o.pickup_dist)
                    .fold(f64::MIN, f64::max)
                    .max(1e-9);
                let max_p = options
                    .iter()
                    .map(|o| o.price)
                    .fold(f64::MIN, f64::max)
                    .max(1e-9);
                enumerated().min_by(|(_, a), (_, b)| {
                    let ua = alpha * a.pickup_dist / max_t + (1.0 - alpha) * a.price / max_p;
                    let ub = alpha * b.pickup_dist / max_t + (1.0 - alpha) * b.price / max_p;
                    ua.partial_cmp(&ub).unwrap()
                })
            }
        };
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrider_core::VehicleId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    fn options() -> Vec<RideOption> {
        vec![opt(1, 500.0, 9.0), opt(2, 2000.0, 4.0), opt(3, 1000.0, 6.0)]
    }

    #[test]
    fn cheapest_and_fastest_pick_extremes() {
        let opts = options();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(
            ChoicePolicy::Cheapest
                .choose(&opts, &mut rng)
                .unwrap()
                .vehicle,
            VehicleId(2)
        );
        assert_eq!(
            ChoicePolicy::Fastest
                .choose(&opts, &mut rng)
                .unwrap()
                .vehicle,
            VehicleId(1)
        );
    }

    #[test]
    fn weighted_extremes_match_pure_policies() {
        let opts = options();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(
            ChoicePolicy::Weighted { alpha: 1.0 }
                .choose(&opts, &mut rng)
                .unwrap()
                .vehicle,
            VehicleId(1)
        );
        assert_eq!(
            ChoicePolicy::Weighted { alpha: 0.0 }
                .choose(&opts, &mut rng)
                .unwrap()
                .vehicle,
            VehicleId(2)
        );
        // A balanced rider picks the compromise option here.
        assert_eq!(
            ChoicePolicy::Weighted { alpha: 0.5 }
                .choose(&opts, &mut rng)
                .unwrap()
                .vehicle,
            VehicleId(3)
        );
    }

    #[test]
    fn random_choice_is_always_one_of_the_options() {
        let opts = options();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let c = ChoicePolicy::Random.choose(&opts, &mut rng).unwrap();
            assert!(opts.iter().any(|o| o.vehicle == c.vehicle));
        }
    }

    #[test]
    fn empty_options_yield_none() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(ChoicePolicy::default().choose(&[], &mut rng).is_none());
        assert!(ChoicePolicy::default()
            .choose_index(&[], &mut rng)
            .is_none());
    }

    #[test]
    fn choose_index_agrees_with_choose() {
        let opts = options();
        for policy in [
            ChoicePolicy::Cheapest,
            ChoicePolicy::Fastest,
            ChoicePolicy::Random,
            ChoicePolicy::Weighted { alpha: 0.3 },
        ] {
            // Identical RNG streams so Random draws the same index.
            let mut rng_a = ChaCha8Rng::seed_from_u64(17);
            let mut rng_b = ChaCha8Rng::seed_from_u64(17);
            let by_ref = policy.choose(&opts, &mut rng_a).unwrap();
            let by_idx = policy.choose_index(&opts, &mut rng_b).unwrap();
            assert_eq!(by_ref.vehicle, opts[by_idx].vehicle, "{policy:?}");
        }
    }
}
