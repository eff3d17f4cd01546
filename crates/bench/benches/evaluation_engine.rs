//! Criterion benches of the compiled evaluation engine against the reference
//! interpreter it replaced: candidate-batch fitness evaluation (the inner
//! loop of every evolution run), plan compilation, and the shared window
//! extraction pass.
//!
//! The headline number is `candidate_evaluation/*` at one worker: the
//! compiled + shared-window path versus the pre-engine interpreter that
//! re-extracts clamped windows and resolves genotype/fault state per pixel.

use criterion::{criterion_group, criterion_main, Criterion};
use ehw_array::compiled::CompiledArray;
use ehw_array::genotype::Genotype;
use ehw_bench::oracle::interpret_filter_image;
use ehw_evolution::fitness::{plan_mae, plan_mae_bounded, FitnessEvaluator, SoftwareEvaluator};
use ehw_image::metrics::mae;
use ehw_image::window::SharedWindows;
use ehw_parallel::ParallelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;

const LAMBDA: usize = 9;

fn candidate_batch(seed: u64) -> Vec<Genotype> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..LAMBDA).map(|_| Genotype::random(&mut rng)).collect()
}

fn bench_candidate_evaluation(c: &mut Criterion) {
    let task = ehw_bench::denoise_task(128, 0.4, 1);
    let batch = candidate_batch(7);
    let no_faults = BTreeMap::new();
    let mut group = c.benchmark_group("candidate_evaluation/128x128x9");

    // The pre-engine baseline: per-candidate window extraction, per-pixel
    // genotype resolution and fault-map lookups.
    group.bench_function("interpreter", |b| {
        b.iter(|| {
            let total: u64 = batch
                .iter()
                .map(|g| {
                    mae(
                        &interpret_filter_image(g, &no_faults, &task.input),
                        &task.reference,
                    )
                })
                .sum();
            black_box(total)
        })
    });

    // The engine: one shared extraction pass, one compiled plan per
    // candidate, flat inner loop.
    let windows = SharedWindows::new(&task.input);
    group.bench_function("compiled", |b| {
        b.iter(|| {
            let total: u64 = batch
                .iter()
                .map(|g| plan_mae(&CompiledArray::new(g), &windows, &task.reference))
                .sum();
            black_box(total)
        })
    });

    // The engine with an incumbent bound (the in-evolution configuration):
    // most candidates stop long before the last pixel.
    let bound = plan_mae(&CompiledArray::new(&batch[0]), &windows, &task.reference);
    group.bench_function("compiled_bounded", |b| {
        b.iter(|| {
            let total: u64 = batch
                .iter()
                .map(|g| {
                    plan_mae_bounded(
                        &CompiledArray::new(g),
                        &windows,
                        &task.reference,
                        Some(bound),
                    )
                    .0
                })
                .sum();
            black_box(total)
        })
    });

    group.finish();
}

fn bench_evaluator_batch(c: &mut Criterion) {
    let task = ehw_bench::denoise_task(128, 0.4, 1);
    let batch = candidate_batch(7);
    let mut group = c.benchmark_group("software_evaluator/128x128x9");
    for workers in [1usize, 4] {
        let cfg = ParallelConfig::with_workers(workers);
        group.bench_function(format!("batch-{workers}w"), |b| {
            // A fresh copy per iteration, so the phenotype memo never
            // answers a repeat of the batch.
            let eval = SoftwareEvaluator::new(task.input.clone(), task.reference.clone());
            b.iter(|| black_box(eval.clone().evaluate_batch_bounded(&batch, None, None, cfg)))
        });
    }
    group.finish();
}

fn bench_compile_and_extraction(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let g = Genotype::random(&mut rng);
    c.bench_function("engine/compile_plan", |b| {
        b.iter(|| black_box(CompiledArray::new(black_box(&g))))
    });
    let img = ehw_image::synth::paper_scene_128();
    c.bench_function("engine/shared_windows_128x128", |b| {
        b.iter(|| black_box(SharedWindows::new(black_box(&img))))
    });
}

criterion_group!(
    benches,
    bench_candidate_evaluation,
    bench_evaluator_batch,
    bench_compile_and_extraction
);
criterion_main!(benches);
