//! Property suite pinning the compiled cascade engine to the naive oracle:
//! for random fitness arrangement × schedule × initialisation × seed — on
//! healthy and damaged platforms — a whole cascaded evolution run must be
//! byte-identical between `ehw_bench::oracle::run_cascade` and the cascade
//! job (stage genotypes, per-stage chain fitness and evaluation counts), and
//! the compiled engine must be independent of the worker count (1, 2 and 8).

use ehw_bench::oracle;
use ehw_fabric::fault::FaultKind;
use ehw_image::noise::salt_pepper;
use ehw_image::synth;
use ehw_parallel::ParallelConfig;
use ehw_platform::evo_modes::{CascadeInit, CascadeResult, EvolutionTask};
use ehw_platform::jobs::{execute, CascadeBuilder, JobSpec};
use ehw_platform::modes::{CascadeFitness, CascadeSchedule};
use ehw_platform::platform::EhwPlatform;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_fitness() -> impl Strategy<Value = CascadeFitness> {
    prop_oneof![Just(CascadeFitness::Separate), Just(CascadeFitness::Merged)]
}

fn arb_schedule() -> impl Strategy<Value = CascadeSchedule> {
    prop_oneof![
        Just(CascadeSchedule::Sequential),
        Just(CascadeSchedule::Interleaved),
    ]
}

fn arb_init() -> impl Strategy<Value = CascadeInit> {
    prop_oneof![Just(CascadeInit::Identity), Just(CascadeInit::Random)]
}

fn denoise_task(size: usize, seed: u64) -> EvolutionTask {
    let clean = synth::shapes(size, size, 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let noisy = salt_pepper(&clean, 0.3, &mut rng);
    EvolutionTask::new(noisy, clean)
}

/// Builds a three-stage platform, optionally with a permanent fault injected
/// into stage 1 so the compiled engine's plans must carry the fault overlay
/// exactly like the oracle's interpreter arrays do.
fn platform(workers: usize, faulty: bool) -> EhwPlatform {
    let mut p = EhwPlatform::with_parallel(3, ParallelConfig::with_workers(workers));
    if faulty {
        p.inject_pe_fault(1, 0, 3, FaultKind::Lpd);
    }
    p
}

/// A three-stage cascade job over `task`.
fn cascade(task: &EvolutionTask) -> CascadeBuilder {
    JobSpec::cascade(task.input.clone(), task.reference.clone()).stages(3)
}

/// Runs the cascade on `platform` and returns its payload.
fn run_on(p: &mut EhwPlatform, spec: &JobSpec, seed: u64) -> CascadeResult {
    let job = execute(p, spec, seed);
    job.as_cascade().expect("cascade job").clone()
}

fn run(spec: &JobSpec, seed: u64, workers: usize, faulty: bool) -> CascadeResult {
    run_on(&mut platform(workers, faulty), spec, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compiled_cascade_equals_naive_oracle(
        seed in any::<u64>(),
        img_seed in 0u64..1_000,
        fitness in arb_fitness(),
        schedule in arb_schedule(),
        init in arb_init(),
        faulty in any::<bool>(),
    ) {
        let task = denoise_task(14, img_seed);
        let compiled_spec = cascade(&task)
            .generations(4)
            .offspring(5)
            .fitness(fitness)
            .schedule(schedule)
            .init(init)
            .build()
            .expect("valid spec");
        let naive = oracle::run_cascade(&mut platform(1, faulty), &compiled_spec, seed);
        let reference = run(&compiled_spec, seed, 1, faulty);
        for workers in [1usize, 2, 8] {
            let compiled = run(&compiled_spec, seed, workers, faulty);
            prop_assert_eq!(
                &compiled.stage_genotypes, &naive.stage_genotypes,
                "genotypes diverged at {} workers ({:?}/{:?})", workers, fitness, schedule
            );
            prop_assert_eq!(&compiled.stage_fitness, &naive.stage_fitness);
            prop_assert_eq!(compiled.evaluations, naive.evaluations);
            prop_assert_eq!(compiled.final_fitness(), naive.final_fitness());
            // The stage evaluators' memo must not change the engine's work
            // accounting either: plans evaluated, memo hits and early exits
            // are worker-invariant.
            prop_assert_eq!(
                compiled.stats, reference.stats,
                "EngineStats diverged at {} workers ({:?}/{:?})", workers, fitness, schedule
            );
        }
    }

    #[test]
    fn compiled_cascade_configures_the_platform_like_the_oracle(
        seed in any::<u64>(),
        img_seed in 0u64..1_000,
        schedule in arb_schedule(),
    ) {
        // Beyond the returned result: the platform both engines leave behind
        // must hold the same circuits and report the same chain fitness.
        let task = denoise_task(12, img_seed);
        let spec = cascade(&task)
            .generations(3)
            .offspring(4)
            .schedule(schedule)
            .build()
            .expect("valid spec");
        let mut naive_platform = platform(1, false);
        let _ = oracle::run_cascade(&mut naive_platform, &spec, seed);
        let mut compiled_platform = platform(1, false);
        let _ = run_on(&mut compiled_platform, &spec, seed);
        for i in 0..3 {
            prop_assert_eq!(
                naive_platform.acb(i).genotype(),
                compiled_platform.acb(i).genotype(),
                "stage {} circuit diverged", i
            );
        }
        prop_assert_eq!(
            naive_platform.chain_fitness(&task.input, &task.reference),
            compiled_platform.chain_fitness(&task.input, &task.reference)
        );
    }
}

#[test]
fn compiled_and_naive_cascades_are_byte_identical() {
    // Deterministic spot check of the engine equivalence across every
    // fitness × schedule pair: same config and seed ⇒ identical genotypes,
    // stage fitness and evaluation counts, and the compiled engine must
    // actually have saved work.
    let task = {
        let clean = synth::shapes(20, 20, 4);
        let mut rng = StdRng::seed_from_u64(71);
        let noisy = salt_pepper(&clean, 0.35, &mut rng);
        EvolutionTask::new(noisy, clean)
    };
    for fitness in [CascadeFitness::Separate, CascadeFitness::Merged] {
        for schedule in [CascadeSchedule::Sequential, CascadeSchedule::Interleaved] {
            let spec = cascade(&task)
                .generations(8)
                .fitness(fitness)
                .schedule(schedule)
                .build()
                .expect("valid spec");
            let naive = oracle::run_cascade(&mut EhwPlatform::paper_three_arrays(), &spec, 67);
            let compiled = run_on(&mut EhwPlatform::paper_three_arrays(), &spec, 67);
            assert_eq!(
                naive.stage_genotypes, compiled.stage_genotypes,
                "{fitness:?}/{schedule:?}"
            );
            assert_eq!(naive.stage_fitness, compiled.stage_fitness);
            assert_eq!(naive.evaluations, compiled.evaluations);
            assert!(
                compiled.stats.early_exits > 0 || compiled.stats.memo_hits > 0,
                "engine saved nothing: {:?}",
                compiled.stats
            );
            // Every candidate is either a plan evaluation or a memo hit,
            // never both.
            assert_eq!(
                compiled.stats.memo_hits + compiled.stats.plans_evaluated,
                compiled.evaluations,
                "{fitness:?}/{schedule:?}: {:?}",
                compiled.stats
            );
        }
    }
}
