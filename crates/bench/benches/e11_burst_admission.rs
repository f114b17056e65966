//! E11 — peak-burst batch admission throughput.
//!
//! Replays bursts of simultaneous requests (the peak-period arrival shape
//! of `ptrider_datagen::BurstConfig`) through `submit_batch_greedy` at
//! fan-out widths 1, 2 and 4, beside the strictly sequential reference
//! loop (`submit_batch_sequential`). Every rider takes the first option, so
//! commits, conflicts and re-matches really occur; each sample therefore
//! runs on a fresh world, built outside the timed region.
//!
//! The city is 100×100 and the pickup radius is capped at 3 km so candidate
//! sets are *local*, as they are on real city scales — with the paper's
//! 12 km default on a small benchmark city every vehicle is a candidate for
//! every request and each burst collapses into one sequential partition.
//!
//! Rows alternate within each round so drift hits all of them alike. The
//! outcomes of every row are compared bit for bit with the reference's; a
//! divergence panics. This is a plain `main`, not a Criterion group: the
//! measured call mutates the world, so it cannot be iterated in place.
//!
//! Run with `cargo bench -p ptrider-bench --bench e11_burst_admission`.

#![forbid(unsafe_code)]

use ptrider_bench::{build_world, WorldParams};
use ptrider_core::{detected_parallelism, BatchOutcome, EngineConfig, RideOption};
use ptrider_datagen::{BurstConfig, TripConfig, TripGenerator};
use ptrider_roadnet::VertexId;
use std::time::Instant;

const ROUNDS: usize = 10;
const BURSTS: BurstConfig = BurstConfig {
    num_bursts: 6,
    burst_size: 64,
    start_secs: 0.0,
    period_secs: 1.0,
};

/// One outcome's bit-level signature: request id, chosen index, and the
/// option skyline's (vehicle, pickup bits, price bits) triples.
type Signature = Vec<(u64, Option<usize>, Vec<(u32, u64, u64)>)>;

fn signature(outcomes: &[BatchOutcome]) -> Signature {
    outcomes
        .iter()
        .map(|o| {
            let options = o
                .options
                .iter()
                .map(|r| (r.vehicle.0, r.pickup_dist.to_bits(), r.price.to_bits()))
                .collect();
            (o.request.0, o.chosen, options)
        })
        .collect()
}

struct Sample {
    requests_per_sec: f64,
    partitions_per_burst: f64,
    rematch_rate: f64,
    signature: Signature,
}

/// Admits the burst stream on a fresh world: through the sequential
/// reference loop when `pool` is `None`, otherwise through
/// `submit_batch_greedy` fanned out to that many threads.
fn run(params: WorldParams, pool: Option<usize>) -> Sample {
    let config = EngineConfig::paper_defaults()
        .with_max_pickup_dist(3_000.0)
        .with_pool_size(pool.unwrap_or(1));
    let mut engine = build_world(params, config, 0).engine;
    let trips = TripGenerator::new(
        engine.network(),
        TripConfig {
            seed: params.seed ^ 0xe11,
            num_trips: 0,
            ..TripConfig::default()
        },
    )
    .generate_bursts(&BURSTS);
    let bursts: Vec<Vec<(VertexId, VertexId, u32)>> = trips
        .chunks(BURSTS.burst_size)
        .map(|chunk| {
            chunk
                .iter()
                .map(|t| (t.origin, t.destination, t.riders))
                .collect()
        })
        .collect();

    let first = |options: &[RideOption]| (!options.is_empty()).then_some(0);
    let mut outcomes = Vec::with_capacity(trips.len());
    let start = Instant::now();
    for (k, burst) in bursts.iter().enumerate() {
        outcomes.extend(match pool {
            None => engine.submit_batch_sequential(burst, k as f64, first),
            Some(_) => engine.submit_batch_greedy(burst, k as f64, first),
        });
    }
    let elapsed = start.elapsed().as_secs_f64();

    let stats = engine.stats();
    Sample {
        requests_per_sec: trips.len() as f64 / elapsed.max(1e-9),
        partitions_per_burst: stats.batch_partitions as f64 / bursts.len() as f64,
        rematch_rate: stats.batch_rematches as f64 / stats.batch_requests.max(1) as f64,
        signature: signature(&outcomes),
    }
}

fn main() {
    let params = WorldParams {
        city_side: 100,
        ..WorldParams::default()
    };
    let rows: [(&str, Option<usize>); 4] = [
        ("reference_sequential", None),
        ("greedy_pool1", Some(1)),
        ("greedy_pool2", Some(2)),
        ("greedy_pool4", Some(4)),
    ];
    println!(
        "[E11] {} bursts x {} requests, {}x{} city, {} vehicles, 3 km pickup radius, \
         {ROUNDS} alternating rounds, {} cores",
        BURSTS.num_bursts,
        BURSTS.burst_size,
        params.city_side,
        params.city_side,
        params.vehicles,
        detected_parallelism()
    );

    let mut samples: Vec<Vec<Sample>> = rows.iter().map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        for (row, &(_, pool)) in rows.iter().enumerate() {
            samples[row].push(run(params, pool));
        }
    }

    let reference = &samples[0][0].signature;
    for (&(label, pool), runs) in rows.iter().zip(&samples) {
        assert!(
            runs.iter().all(|s| &s.signature == reference),
            "{label}: outcomes differ from the sequential reference"
        );
        let mut rates: Vec<f64> = runs.iter().map(|s| s.requests_per_sec).collect();
        // Paired by round: the row and the reference ran back to back.
        let wins = (rates.iter().zip(&samples[0]))
            .filter(|(rate, reference)| **rate > reference.requests_per_sec)
            .count();
        rates.sort_by(f64::total_cmp);
        let rates: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        // The reference loop builds no conflict graph, so it has no
        // partitions or re-matches to report.
        let graph = pool.map_or(String::new(), |_| {
            format!(
                "beat the reference in {wins}/{ROUNDS} rounds  partitions/burst {:.2}  \
                 re-match rate {:.3}",
                runs[0].partitions_per_burst, runs[0].rematch_rate
            )
        });
        println!(
            "[E11] {label:<20} req/s (sorted) {:<40} {graph}",
            rates.join("/")
        );
    }
    println!("[E11] outcomes bit-identical to the sequential reference in every run");
}
