//! Cross-thread determinism suite: the parallel execution layer is
//! *scheduling only*.
//!
//! Every property here drives the same seeded workload through 1, 2 and 8
//! workers and asserts byte-identical results: the same best genotype, the
//! same fitness trajectory, the same engine counters, the same
//! fault-campaign report.  This is the
//! contract that makes `EHW_WORKERS` safe to sweep in benches and CI — worker
//! count changes wall-clock time, never results.

use std::sync::Arc;

use ehw_array::array::ProcessingArray;
use ehw_array::genotype::Genotype;
use ehw_array::pe::FaultBehaviour;
use ehw_evolution::fitness::{FitnessEvaluator, SoftwareEvaluator};
use ehw_evolution::strategy::{run_evolution, EsConfig, MutationStrategy, NullObserver};
use ehw_image::noise::salt_pepper;
use ehw_image::synth;
use ehw_image::window::SharedWindows;
use ehw_parallel::{ordered_map, ParallelConfig};
use ehw_platform::evo_modes::EvolutionTask;
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn denoise_task(size: usize, seed: u64) -> EvolutionTask {
    let clean = synth::shapes(size, size, 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let noisy = salt_pepper(&clean, 0.3, &mut rng);
    EvolutionTask::new(noisy, clean)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // ------------------------------------------------------------------
    // EvolutionStrategy: serial == parallel at 1, 2 and 8 workers
    // ------------------------------------------------------------------

    #[test]
    fn evolution_strategy_is_worker_count_invariant(
        seed in any::<u64>(),
        mutation_rate in 1usize..5,
        two_level in any::<bool>(),
    ) {
        let task = denoise_task(16, seed ^ 0xA5A5);
        let runs: Vec<_> = WORKER_COUNTS
            .iter()
            .map(|&workers| {
                let mut config = EsConfig::paper(mutation_rate, 3, 12, seed);
                config.parallel = ParallelConfig::with_workers(workers);
                if two_level {
                    config.strategy = MutationStrategy::two_level();
                }
                let mut evaluator =
                    SoftwareEvaluator::new(task.input.clone(), task.reference.clone());
                run_evolution(&config, &mut evaluator, &mut NullObserver)
            })
            .collect();
        for r in &runs[1..] {
            prop_assert_eq!(r.best_genotype.encode(), runs[0].best_genotype.encode());
            prop_assert_eq!(r.best_fitness, runs[0].best_fitness);
            prop_assert_eq!(&r.history, &runs[0].history);
            prop_assert_eq!(r.total_pe_reconfigurations, runs[0].total_pe_reconfigurations);
            prop_assert_eq!(r.evaluations, runs[0].evaluations);
        }
    }

    #[test]
    fn platform_evolution_is_worker_count_invariant(seed in any::<u64>()) {
        let task = denoise_task(16, seed ^ 0x3C3C);
        let spec = JobSpec::evolution(task.input, task.reference)
            .mutation_rate(2)
            .num_arrays(3)
            .generations(10)
            .build()
            .expect("valid spec");
        let results: Vec<_> = WORKER_COUNTS
            .iter()
            .map(|&workers| {
                let mut platform =
                    EhwPlatform::with_parallel(3, ParallelConfig::with_workers(workers));
                let job = execute(&mut platform, &spec, seed);
                let (result, _time) = job.as_evolution().expect("evolution job");
                (result.clone(), platform.acb(0).genotype().encode())
            })
            .collect();
        for (result, configured) in &results[1..] {
            prop_assert_eq!(
                result.best_genotype.encode(),
                results[0].0.best_genotype.encode()
            );
            prop_assert_eq!(&result.history, &results[0].0.history);
            prop_assert_eq!(configured, &results[0].1);
        }
    }

    #[test]
    fn engine_stats_are_worker_count_invariant(seed in any::<u64>()) {
        // The memo is consulted and filled in batch order on the calling
        // thread, so even its work-saved counters must not move with the
        // worker count: on a one-array evaluator and on three arrays, two
        // of them damaged (every fault behaviour present).
        let task = denoise_task(16, seed ^ 0x5A5A);
        let mut random = ProcessingArray::identity();
        random.inject_fault(1, 2, FaultBehaviour::RandomOutput { seed });
        let mut stuck_inverted = ProcessingArray::identity();
        stuck_inverted.inject_fault(0, 3, FaultBehaviour::StuckAt { value: 9 });
        stuck_inverted.inject_fault(2, 1, FaultBehaviour::InvertedOutput);
        let windows = Arc::new(SharedWindows::new(&task.input));
        for arrays in [
            vec![ProcessingArray::identity()],
            vec![ProcessingArray::identity(), random, stuck_inverted],
        ] {
            let runs: Vec<_> = WORKER_COUNTS
                .iter()
                .map(|&workers| {
                    let mut config = EsConfig::paper(3, arrays.len(), 40, seed);
                    config.parallel = ParallelConfig::with_workers(workers);
                    let mut evaluator = SoftwareEvaluator::with_arrays(
                        arrays.clone(),
                        windows.clone(),
                        task.reference.clone(),
                    );
                    let result = run_evolution(&config, &mut evaluator, &mut NullObserver);
                    (result.history, result.evaluations, evaluator.engine_stats())
                })
                .collect();
            for run in &runs[1..] {
                prop_assert_eq!(run, &runs[0], "{} arrays", arrays.len());
            }
        }
    }

    // ------------------------------------------------------------------
    // FaultCampaign: serial == parallel at 1, 2 and 8 workers
    // ------------------------------------------------------------------

    #[test]
    fn fault_campaign_is_worker_count_invariant(seed in any::<u64>()) {
        let task = denoise_task(12, seed ^ 0x7E7E);
        let baseline = {
            let mut rng = StdRng::seed_from_u64(seed);
            Genotype::random(&mut rng)
        };
        let spec = JobSpec::fault_campaign(task.input, task.reference)
            .baseline(baseline)
            .arrays(vec![0, 1])
            .recovery_mutation_rate(1)
            .recovery_generations(2)
            .build()
            .expect("valid spec");
        let reports: Vec<_> = WORKER_COUNTS
            .iter()
            .map(|&workers| {
                let mut platform =
                    EhwPlatform::with_parallel(2, ParallelConfig::with_workers(workers));
                let job = execute(&mut platform, &spec, seed ^ 1);
                job.as_campaign().expect("campaign job").clone()
            })
            .collect();
        for report in &reports[1..] {
            prop_assert_eq!(&report.positions, &reports[0].positions);
        }
        prop_assert_eq!(reports[0].len(), 32);
    }

    // ------------------------------------------------------------------
    // The pool primitive itself, over item and worker counts that reach
    // every chunk size down to one item
    // ------------------------------------------------------------------

    #[test]
    fn ordered_map_is_schedule_invariant(
        items in proptest::collection::vec(any::<u64>(), 0..80),
        workers in 1usize..9,
    ) {
        let serial = ordered_map(ParallelConfig::serial(), &items, |i, &x| {
            x.wrapping_mul(31).wrapping_add(i as u64)
        });
        let parallel = ordered_map(ParallelConfig::with_workers(workers), &items, |i, &x| {
            x.wrapping_mul(31).wrapping_add(i as u64)
        });
        prop_assert_eq!(serial, parallel);
    }
}

// ----------------------------------------------------------------------
// Deterministic spot checks (non-property, fixed seeds)
// ----------------------------------------------------------------------

#[test]
fn batch_evaluation_matches_sequential_evaluation() {
    let task = denoise_task(24, 99);
    let mut rng = StdRng::seed_from_u64(5);
    let batch: Vec<Genotype> = (0..9).map(|_| Genotype::random(&mut rng)).collect();

    let mut eval = SoftwareEvaluator::new(task.input.clone(), task.reference.clone());
    let sequential: Vec<u64> = batch.iter().map(|g| eval.evaluate(g)).collect();
    for workers in WORKER_COUNTS {
        let mut eval = SoftwareEvaluator::new(task.input.clone(), task.reference.clone());
        let parallel =
            eval.evaluate_batch_bounded(&batch, None, None, ParallelConfig::with_workers(workers));
        assert_eq!(parallel, sequential, "diverged at {workers} workers");
    }
}

#[test]
fn processing_modes_are_worker_count_invariant() {
    let img = synth::shapes(32, 32, 4);
    let mut rng = StdRng::seed_from_u64(17);
    let genotypes: Vec<Genotype> = (0..3).map(|_| Genotype::random(&mut rng)).collect();

    let outputs: Vec<_> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut platform = EhwPlatform::with_parallel(3, ParallelConfig::with_workers(workers));
            for (i, g) in genotypes.iter().enumerate() {
                platform.configure_array(i, g);
            }
            (
                platform.process_parallel(&img),
                platform.process_independent(&[img.clone(), img.clone(), img.clone()]),
            )
        })
        .collect();
    for out in &outputs[1..] {
        assert_eq!(out.0, outputs[0].0);
        assert_eq!(out.1, outputs[0].1);
    }
}
