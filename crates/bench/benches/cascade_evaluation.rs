//! Criterion benches of the compiled cascade engine against the naive oracle
//! it replaced: one full cascaded evolution run per iteration, across the
//! fitness arrangements and schedules of §IV.B.
//!
//! The headline number is `cascade_evolution/*`: the oracle refilters the
//! whole upstream chain from the source image for every candidate, while the
//! engine computes each generation's stage input once, shares one window
//! extraction across the λ-batch, and early-exits candidates that cannot
//! beat the stage parent.

use criterion::{criterion_group, criterion_main, Criterion};
use ehw_bench::CascadeEngine;
use ehw_parallel::ParallelConfig;
use ehw_platform::jobs::JobSpec;
use ehw_platform::modes::{CascadeFitness, CascadeSchedule};
use ehw_platform::platform::EhwPlatform;
use std::hint::black_box;

fn run(engine: CascadeEngine, fitness: CascadeFitness, schedule: CascadeSchedule) -> u64 {
    let task = ehw_bench::denoise_task(48, 0.4, 11);
    let spec = JobSpec::cascade(task.input, task.reference)
        .stages(3)
        .generations(5)
        .fitness(fitness)
        .schedule(schedule)
        .build()
        .expect("valid cascade spec");
    let mut platform = EhwPlatform::with_parallel(3, ParallelConfig::serial());
    let result = engine.run(&mut platform, &spec, 77);
    result.final_fitness().expect("three stages")
}

fn bench_cascade_evolution(c: &mut Criterion) {
    let cases = [
        (
            "separate_sequential",
            CascadeFitness::Separate,
            CascadeSchedule::Sequential,
        ),
        (
            "merged_interleaved",
            CascadeFitness::Merged,
            CascadeSchedule::Interleaved,
        ),
    ];
    for (name, fitness, schedule) in cases {
        let mut group = c.benchmark_group(format!("cascade_evolution/{name}"));
        // Byte-identity gate: a speedup only counts if the engines agree.
        assert_eq!(
            run(CascadeEngine::Naive, fitness, schedule),
            run(CascadeEngine::Compiled, fitness, schedule),
            "{name}: engine diverged from the oracle"
        );
        group.bench_function("naive", |b| {
            b.iter(|| black_box(run(CascadeEngine::Naive, fitness, schedule)))
        });
        group.bench_function("compiled", |b| {
            b.iter(|| black_box(run(CascadeEngine::Compiled, fitness, schedule)))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_cascade_evolution);
criterion_main!(benches);
