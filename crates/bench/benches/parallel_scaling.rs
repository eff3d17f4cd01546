//! Criterion bench of the deterministic parallel execution layer: λ=9 batch
//! evaluation and short evolution runs at 1/2/4/8 workers, plus a sharded
//! fault campaign.  The interesting read-out is the ratio between worker
//! counts (the wall-clock form of the Fig. 12/13 speedup curves); absolute
//! numbers depend on the host.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ehw_array::genotype::Genotype;
use ehw_evolution::fitness::{FitnessEvaluator, SoftwareEvaluator};
use ehw_evolution::strategy::{run_evolution, EsConfig, NullObserver};
use ehw_image::noise::salt_pepper;
use ehw_image::synth;
use ehw_parallel::ParallelConfig;
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn denoise_evaluator(size: usize) -> SoftwareEvaluator {
    let clean = synth::shapes(size, size, 5);
    let mut rng = StdRng::seed_from_u64(3);
    let noisy = salt_pepper(&clean, 0.4, &mut rng);
    SoftwareEvaluator::new(noisy, clean)
}

fn bench_batch_evaluation_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/evaluate_batch_9_64x64");
    let evaluator = denoise_evaluator(64);
    let mut rng = StdRng::seed_from_u64(4);
    let batch: Vec<Genotype> = (0..9).map(|_| Genotype::random(&mut rng)).collect();
    for workers in WORKER_COUNTS {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            let cfg = ParallelConfig::with_workers(w);
            // A fresh copy per iteration, so the phenotype memo never
            // answers a repeat of the batch.
            b.iter(|| {
                black_box(
                    evaluator
                        .clone()
                        .evaluate_batch_bounded(&batch, None, None, cfg),
                )
            })
        });
    }
    group.finish();
}

fn bench_evolution_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/evolution_10gen_64x64");
    group.sample_size(10);
    for workers in WORKER_COUNTS {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                let mut evaluator = denoise_evaluator(64);
                let config = EsConfig {
                    parallel: ParallelConfig::with_workers(w),
                    ..EsConfig::paper(3, 3, 10, 9)
                };
                black_box(run_evolution(&config, &mut evaluator, &mut NullObserver))
            })
        });
    }
    group.finish();
}

fn bench_fault_campaign_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/fault_campaign_16pos_16x16");
    group.sample_size(10);
    let clean = synth::shapes(16, 16, 2);
    let mut rng = StdRng::seed_from_u64(5);
    let noisy = salt_pepper(&clean, 0.2, &mut rng);
    let spec = JobSpec::fault_campaign(noisy, clean)
        .recovery_mutation_rate(1)
        .recovery_generations(2)
        .build()
        .expect("valid campaign spec");
    for workers in WORKER_COUNTS {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::with_workers(w));
                black_box(execute(&mut platform, &spec, 7))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_evaluation_scaling,
    bench_evolution_scaling,
    bench_fault_campaign_scaling
);
criterion_main!(benches);
