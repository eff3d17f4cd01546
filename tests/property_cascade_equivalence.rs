//! Property suite pinning the compiled cascade engine to the naive oracle:
//! for random fitness arrangement × schedule × initialisation × seed — on
//! healthy and damaged platforms — a whole cascaded evolution run must be
//! byte-identical between `CascadeEngine::Naive` and `CascadeEngine::Compiled`
//! (stage genotypes, per-stage chain fitness and evaluation counts), and the
//! compiled engine must be independent of the worker count (1, 2 and 8).

use ehw_fabric::fault::FaultKind;
use ehw_image::noise::salt_pepper;
use ehw_image::synth;
use ehw_parallel::ParallelConfig;
use ehw_platform::evo_modes::{CascadeEngine, CascadeInit, CascadeResult, EvolutionTask};
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
        let spec = |engine: CascadeEngine| {
            cascade(&task)
                .generations(4)
                .offspring(5)
                .fitness(fitness)
                .schedule(schedule)
                .init(init)
                .engine(engine)
                .build()
                .expect("valid spec")
        };
        let naive = run(&spec(CascadeEngine::Naive), seed, 1, faulty);
        let compiled_spec = spec(CascadeEngine::Compiled);
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
            // The suffix-shared Merged path must not change the engine's
            // work accounting either: plans evaluated, memo hits and early
            // exits are worker-invariant.
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
        let spec = |engine: CascadeEngine| {
            cascade(&task)
                .generations(3)
                .offspring(4)
                .schedule(schedule)
                .engine(engine)
                .build()
                .expect("valid spec")
        };
        let mut naive_platform = platform(1, false);
        let _ = run_on(&mut naive_platform, &spec(CascadeEngine::Naive), seed);
        let mut compiled_platform = platform(1, false);
        let _ = run_on(&mut compiled_platform, &spec(CascadeEngine::Compiled), seed);
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
