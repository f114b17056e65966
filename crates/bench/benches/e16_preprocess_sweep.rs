//! E16 — preprocessing scaling smoke: CH construction (sequential vs
//! independent-set parallel), CCH customization (sequential vs
//! level-parallel) and point-query latency across growing synthetic
//! cities.
//!
//! Criterion keeps the sizes modest so the bench stays runnable in CI; a
//! 1-CPU sweep up to continental sizes (2×10⁵ vertices) is on record in
//! `bench/legacy/BENCH_e9.json` (frozen; `e16_preprocess_sweep`). Every
//! timed artefact is cross-checked for bit-identity on sampled pairs, so
//! the bench doubles as a smoke gate: a parallel path that diverges
//! panics here.

use criterion::{criterion_group, criterion_main, Criterion};
use ptrider_datagen::{synthetic_city, CityConfig, CongestionConfig, CongestionProfile};
use ptrider_roadnet::{CchTopology, ChConfig, ContractionHierarchy, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_preprocess_sweep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));

    let config = ChConfig::default();
    for side in [60usize, 100, 140] {
        let city = synthetic_city(&CityConfig {
            cols: side,
            rows: side,
            seed: 0xe16,
            ..CityConfig::default()
        });
        let n = city.num_vertices() as u32;
        println!("[exp] e16 sweep point: side {side} ({n} vertices)");

        group.bench_function(format!("ch_build_seq_{side}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    ContractionHierarchy::build_with_threads(&city, &config, 1).unwrap(),
                )
            });
        });
        group.bench_function(format!("ch_build_par4_{side}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    ContractionHierarchy::build_with_threads(&city, &config, 4).unwrap(),
                )
            });
        });

        let topo = CchTopology::build(&city).expect("city graphs repair");
        let profile = CongestionProfile::build(&city, CongestionConfig::default());
        let model = profile.model_at(&city, 8.0 * 3600.0);
        let scaled = model.scaled_weights(&city);
        group.bench_function(format!("cch_customize_seq_{side}"), |b| {
            b.iter(|| std::hint::black_box(topo.customize_with_threads(&scaled, 1)));
        });
        group.bench_function(format!("cch_customize_par4_{side}"), |b| {
            b.iter(|| std::hint::black_box(topo.customize_with_threads(&scaled, 4)));
        });

        // Query latency on the sequential build plus the bit-identity smoke
        // across every timed artefact.
        let seq = ContractionHierarchy::build_with_threads(&city, &config, 1).unwrap();
        let par = ContractionHierarchy::build_with_threads(&city, &config, 4).unwrap();
        let one = topo.customize_with_threads(&scaled, 1);
        let four = topo.customize_with_threads(&scaled, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(side as u64);
        let pairs: Vec<(VertexId, VertexId)> = (0..256)
            .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
            .collect();
        group.bench_function(format!("ch_query_{side}"), |b| {
            b.iter(|| {
                for &(u, v) in &pairs {
                    std::hint::black_box(seq.distance(u, v));
                }
            });
        });
        for &(u, v) in pairs.iter().take(48) {
            let a = seq.distance(u, v);
            let b = par.distance(u, v);
            assert!(
                a.to_bits() == b.to_bits() || (a.is_infinite() && b.is_infinite()),
                "parallel CH diverged at side {side}: {u}->{v} {a} vs {b}"
            );
            let x = one.distance(u, v);
            let y = four.distance(u, v);
            assert!(
                x.to_bits() == y.to_bits() || (x.is_infinite() && y.is_infinite()),
                "parallel customize diverged at side {side}: {u}->{v} {x} vs {y}"
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
