//! One-day taxi trip workload generator.
//!
//! The real Shanghai trace (432,327 trips, one day) is substituted by a
//! synthetic stream with the same aggregate shape:
//!
//! * **temporal**: trips arrive over 24 hours with a morning and an evening
//!   rush-hour peak on top of a base load;
//! * **spatial**: origins and destinations are skewed toward the city centre
//!   plus a handful of hotspots (stations/airport analogue), with a uniform
//!   background;
//! * **group size**: mostly single riders, occasionally groups of 2–4.
//!
//! Trips are generated deterministically from a seed so experiments are
//! reproducible.

use ptrider_roadnet::{Point, RoadNetwork, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One trip of the workload: a ridesharing request template.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimedTrip {
    /// Submission time in seconds since midnight.
    pub time_secs: f64,
    /// Start vertex.
    pub origin: VertexId,
    /// Destination vertex.
    pub destination: VertexId,
    /// Number of riders in the group.
    pub riders: u32,
}

/// Configuration of the trip generator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TripConfig {
    /// Total number of trips over the day.
    pub num_trips: usize,
    /// Length of the simulated day in seconds (86,400 for a full day).
    pub day_secs: f64,
    /// Fraction of trips whose endpoints are drawn from the centre-skewed
    /// hotspot mixture (the rest are uniform over the network).
    pub hotspot_fraction: f64,
    /// Number of hotspots (the first is always the city centre).
    pub num_hotspots: usize,
    /// Standard deviation of a hotspot cloud, as a fraction of the city
    /// extent.
    pub hotspot_spread: f64,
    /// Probabilities of group sizes 1, 2, 3 and 4 (must sum to ≤ 1; the
    /// remainder goes to size 1).
    pub group_size_probs: [f64; 4],
    /// Random seed.
    pub seed: u64,
}

impl Default for TripConfig {
    fn default() -> Self {
        TripConfig {
            num_trips: 10_000,
            day_secs: 86_400.0,
            hotspot_fraction: 0.7,
            num_hotspots: 5,
            hotspot_spread: 0.08,
            group_size_probs: [0.70, 0.20, 0.08, 0.02],
            seed: 20090529,
        }
    }
}

impl TripConfig {
    /// A small configuration for tests.
    pub fn small(num_trips: usize, seed: u64) -> Self {
        TripConfig {
            num_trips,
            seed,
            ..Self::default()
        }
    }
}

/// Configuration of the peak-burst stream: `num_bursts` bursts of
/// `burst_size` *simultaneous* trips each, spaced `period_secs` apart
/// starting at `start_secs`. Models the arrival shape of peak travel
/// periods (every request in a burst carries the same submission
/// timestamp), which is what greedy batch admission is built for.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BurstConfig {
    /// Number of bursts.
    pub num_bursts: usize,
    /// Simultaneous trips per burst.
    pub burst_size: usize,
    /// Submission time of the first burst, seconds since midnight.
    pub start_secs: f64,
    /// Spacing between consecutive bursts in seconds.
    pub period_secs: f64,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            num_bursts: 16,
            burst_size: 32,
            // The morning peak, one burst per dispatch window.
            start_secs: 8.0 * 3600.0,
            period_secs: 30.0,
        }
    }
}

/// Deterministic trip workload generator over a road network.
pub struct TripGenerator<'a> {
    net: &'a RoadNetwork,
    config: TripConfig,
    rng: ChaCha8Rng,
    hotspots: Vec<Point>,
    bbox: (Point, Point),
}

impl<'a> TripGenerator<'a> {
    /// Creates a generator over the network.
    pub fn new(net: &'a RoadNetwork, config: TripConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let bbox = net.bounding_box();
        let centre = Point::new((bbox.0.x + bbox.1.x) / 2.0, (bbox.0.y + bbox.1.y) / 2.0);
        let mut hotspots = vec![centre];
        for _ in 1..config.num_hotspots.max(1) {
            hotspots.push(Point::new(
                rng.gen_range(bbox.0.x..=bbox.1.x),
                rng.gen_range(bbox.0.y..=bbox.1.y),
            ));
        }
        TripGenerator {
            net,
            config,
            rng,
            hotspots,
            bbox,
        }
    }

    /// The hotspot centres used by the generator (first is the city centre).
    pub fn hotspots(&self) -> &[Point] {
        &self.hotspots
    }

    /// Generates the full day of trips, sorted by submission time.
    pub fn generate(&mut self) -> Vec<TimedTrip> {
        let mut trips = Vec::with_capacity(self.config.num_trips);
        while trips.len() < self.config.num_trips {
            let time_secs = self.sample_time();
            let origin = self.sample_location();
            let destination = self.sample_location();
            if origin == destination {
                continue;
            }
            let riders = self.sample_group_size();
            trips.push(TimedTrip {
                time_secs,
                origin,
                destination,
                riders,
            });
        }
        trips.sort_by(|a, b| a.time_secs.partial_cmp(&b.time_secs).unwrap());
        trips
    }

    /// Generates a peak-burst trip stream: every burst's trips share one
    /// submission timestamp, with endpoints drawn from the generator's
    /// usual hotspot mixture (peak-hour demand is spatially skewed too).
    /// Sorted by time by construction; deterministic per seed.
    pub fn generate_bursts(&mut self, bursts: &BurstConfig) -> Vec<TimedTrip> {
        let mut trips = Vec::with_capacity(bursts.num_bursts * bursts.burst_size);
        for b in 0..bursts.num_bursts {
            let time_secs = bursts.start_secs + b as f64 * bursts.period_secs;
            let mut generated = 0;
            while generated < bursts.burst_size {
                let origin = self.sample_location();
                let destination = self.sample_location();
                if origin == destination {
                    continue;
                }
                let riders = self.sample_group_size();
                trips.push(TimedTrip {
                    time_secs,
                    origin,
                    destination,
                    riders,
                });
                generated += 1;
            }
        }
        trips
    }

    /// Samples a submission time with morning (8:00) and evening (18:30)
    /// peaks over a uniform base load.
    fn sample_time(&mut self) -> f64 {
        let day = self.config.day_secs;
        let r: f64 = self.rng.gen();
        let t = if r < 0.30 {
            // Morning peak, ~90 min spread around 8:00.
            self.sample_gaussian(8.0 * 3600.0, 1.5 * 3600.0)
        } else if r < 0.65 {
            // Evening peak, ~2 h spread around 18:30.
            self.sample_gaussian(18.5 * 3600.0, 2.0 * 3600.0)
        } else {
            self.rng.gen_range(0.0..day)
        };
        t.rem_euclid(day)
    }

    /// Box–Muller Gaussian sample.
    fn sample_gaussian(&mut self, mean: f64, std: f64) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + z * std
    }

    /// Samples a trip endpoint: hotspot mixture or uniform background.
    fn sample_location(&mut self) -> VertexId {
        if self.rng.gen::<f64>() < self.config.hotspot_fraction {
            let spread_x = (self.bbox.1.x - self.bbox.0.x) * self.config.hotspot_spread;
            let spread_y = (self.bbox.1.y - self.bbox.0.y) * self.config.hotspot_spread;
            let idx = self.rng.gen_range(0..self.hotspots.len());
            let h = self.hotspots[idx];
            let p = Point::new(
                self.sample_gaussian(h.x, spread_x.max(1.0)),
                self.sample_gaussian(h.y, spread_y.max(1.0)),
            );
            self.nearest_vertex(p)
        } else {
            VertexId(self.rng.gen_range(0..self.net.num_vertices() as u32))
        }
    }

    /// Nearest vertex to a point (linear scan — generation is offline).
    fn nearest_vertex(&self, p: Point) -> VertexId {
        let mut best = VertexId(0);
        let mut best_d = f64::INFINITY;
        for v in self.net.vertices() {
            let d = self.net.coord(v).euclidean(&p);
            if d < best_d {
                best_d = d;
                best = v;
            }
        }
        best
    }

    /// Samples a group size from the configured distribution.
    fn sample_group_size(&mut self) -> u32 {
        let r: f64 = self.rng.gen();
        let p = &self.config.group_size_probs;
        if r < p[0] {
            1
        } else if r < p[0] + p[1] {
            2
        } else if r < p[0] + p[1] + p[2] {
            3
        } else if r < p[0] + p[1] + p[2] + p[3] {
            4
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::{synthetic_city, CityConfig};

    fn trips(n: usize, seed: u64) -> (Vec<TimedTrip>, RoadNetwork) {
        let net = synthetic_city(&CityConfig::tiny(seed));
        let mut gen = TripGenerator::new(&net, TripConfig::small(n, seed));
        let t = gen.generate();
        (t, net)
    }

    #[test]
    fn bursts_share_timestamps_and_are_deterministic() {
        let net = synthetic_city(&CityConfig::tiny(8));
        let bursts = BurstConfig {
            num_bursts: 5,
            burst_size: 12,
            start_secs: 100.0,
            period_secs: 30.0,
        };
        let make = || TripGenerator::new(&net, TripConfig::small(0, 8)).generate_bursts(&bursts);
        let t = make();
        assert_eq!(t.len(), 60);
        for (b, chunk) in t.chunks(12).enumerate() {
            for trip in chunk {
                assert_eq!(trip.time_secs, 100.0 + b as f64 * 30.0);
                assert_ne!(trip.origin, trip.destination);
                assert!((1..=4).contains(&trip.riders));
            }
        }
        // Sorted by time (burst order) and reproducible.
        for w in t.windows(2) {
            assert!(w[0].time_secs <= w[1].time_secs);
        }
        assert_eq!(t, make());
    }

    #[test]
    fn generates_requested_number_sorted_by_time() {
        let (t, _net) = trips(500, 1);
        assert_eq!(t.len(), 500);
        for w in t.windows(2) {
            assert!(w[0].time_secs <= w[1].time_secs);
        }
        for trip in &t {
            assert!(trip.time_secs >= 0.0 && trip.time_secs < 86_400.0);
            assert_ne!(trip.origin, trip.destination);
            assert!((1..=4).contains(&trip.riders));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = trips(200, 9);
        let (b, _) = trips(200, 9);
        let (c, _) = trips(200, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn group_sizes_follow_distribution_roughly() {
        let (t, _) = trips(4000, 2);
        let singles = t.iter().filter(|x| x.riders == 1).count() as f64 / t.len() as f64;
        assert!(singles > 0.6 && singles < 0.8, "singles fraction {singles}");
        let quads = t.iter().filter(|x| x.riders == 4).count() as f64 / t.len() as f64;
        assert!(quads < 0.06, "quads fraction {quads}");
    }

    #[test]
    fn rush_hours_are_busier_than_night() {
        let (t, _) = trips(5000, 3);
        let in_window = |lo: f64, hi: f64| {
            t.iter()
                .filter(|x| x.time_secs >= lo * 3600.0 && x.time_secs < hi * 3600.0)
                .count()
        };
        let morning_peak = in_window(7.0, 9.0);
        let night = in_window(2.0, 4.0);
        assert!(
            morning_peak > 3 * night,
            "morning {morning_peak} vs night {night}"
        );
    }

    #[test]
    fn hotspot_trips_cluster_near_centre() {
        let net = synthetic_city(&CityConfig::tiny(4));
        let config = TripConfig {
            hotspot_fraction: 1.0,
            num_hotspots: 1,
            ..TripConfig::small(1000, 4)
        };
        let mut gen = TripGenerator::new(&net, config);
        let centre = gen.hotspots()[0];
        let trips = gen.generate();
        let (min, max) = net.bounding_box();
        let extent = ((max.x - min.x).powi(2) + (max.y - min.y).powi(2)).sqrt();
        let mean_dist: f64 = trips
            .iter()
            .map(|t| net.coord(t.origin).euclidean(&centre))
            .sum::<f64>()
            / trips.len() as f64;
        // With a 8% spread, origins should on average sit well inside a
        // quarter of the city diagonal from the centre.
        assert!(
            mean_dist < extent / 4.0,
            "mean dist {mean_dist} vs extent {extent}"
        );
    }
}
