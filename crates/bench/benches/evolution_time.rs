//! Criterion benches for the evolutionary machinery: candidate generation,
//! fitness evaluation batches, and the Fig. 11 pipeline timing model that the
//! evolution-time experiments (Figs. 12–14) are built on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ehw_evolution::fitness::{FitnessEvaluator, SoftwareEvaluator};
use ehw_evolution::strategy::{run_evolution, EsConfig, MutationStrategy, NullObserver};
use ehw_image::noise::salt_pepper;
use ehw_image::synth;
use ehw_parallel::ParallelConfig;
use ehw_platform::timing::PipelineTimer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn denoise_evaluator(size: usize) -> SoftwareEvaluator {
    let clean = synth::shapes(size, size, 5);
    let mut rng = StdRng::seed_from_u64(3);
    let noisy = salt_pepper(&clean, 0.4, &mut rng);
    SoftwareEvaluator::new(noisy, clean)
}

fn bench_batch_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("evolution/evaluate_batch_9");
    for size in [32usize, 64] {
        let evaluator = denoise_evaluator(size);
        let mut rng = StdRng::seed_from_u64(4);
        let batch: Vec<_> = (0..9)
            .map(|_| ehw_array::genotype::Genotype::random(&mut rng))
            .collect();
        // Explicitly thread the environment's worker knob (EHW_WORKERS) so
        // the bench measures the same pool configuration the binaries use;
        // see the parallel_scaling bench for the full worker sweep.
        let parallel = ParallelConfig::from_env();
        group.bench_with_input(BenchmarkId::from_parameter(size), &batch, |b, batch| {
            // A fresh copy per iteration, so the phenotype memo never
            // answers a repeat of the batch.
            b.iter(|| {
                black_box(
                    evaluator
                        .clone()
                        .evaluate_batch_bounded(batch, None, None, parallel),
                )
            })
        });
    }
    group.finish();
}

fn bench_short_evolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("evolution/50_generations_32x32");
    group.sample_size(10);
    for (name, strategy) in [
        ("classic", MutationStrategy::Classic),
        ("two_level", MutationStrategy::two_level()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut evaluator = denoise_evaluator(32);
                let config = EsConfig {
                    strategy,
                    ..EsConfig::paper(3, 3, 50, 9)
                };
                black_box(run_evolution(&config, &mut evaluator, &mut NullObserver))
            })
        });
    }
    group.finish();
}

fn bench_pipeline_timing_model(c: &mut Criterion) {
    let timer_single = PipelineTimer::paper(1, 128, 128);
    let timer_triple = PipelineTimer::paper(3, 128, 128);
    let reconfigs = vec![3usize; 9];
    let mut group = c.benchmark_group("timing/generation_schedule");
    group.bench_function("1_array", |b| {
        b.iter(|| black_box(timer_single.generation_time(black_box(&reconfigs))))
    });
    group.bench_function("3_arrays", |b| {
        b.iter(|| black_box(timer_triple.generation_time(black_box(&reconfigs))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_evaluation,
    bench_short_evolution,
    bench_pipeline_timing_model
);
criterion_main!(benches);
