//! Service-layer equivalence and determinism suite.
//!
//! The `ehw-service` front-end is *routing only*: a job's outcome is a pure
//! function of its spec and its effective seed, never of how the pool is
//! sized or scheduled.  Three families of properties pin that down:
//!
//! 1. **Direct-execution equivalence** — every [`JobSpec`] kind, run through
//!    an [`EhwService`], returns byte-identical results to the same spec run
//!    directly through [`execute`] on a serial platform with the same seed,
//!    at any worker or platform count.
//! 2. **Pool invariance** — a mixed-kind batch produces byte-identical
//!    results at 1/2/8 workers × 1/2 platforms, and derived (unpinned) seeds
//!    follow the service root sequence reproducibly.
//! 3. **Backpressure** — a full queue blocks `submit` instead of dropping:
//!    every submitted job resolves, and a submitter against a saturated
//!    queue provably waits until a shard frees capacity.

use ehw_image::noise::salt_pepper;
use ehw_image::synth;
use ehw_parallel::ParallelConfig;
use ehw_platform::evo_modes::EvolutionTask;
use ehw_platform::jobs::execute;
use ehw_platform::modes::{CascadeFitness, CascadeSchedule};
use ehw_platform::platform::EhwPlatform;
use ehw_service::{EhwService, JobResult, JobSpec, ServiceConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{SeedSequence, SeedableRng};

fn denoise_task(size: usize, seed: u64) -> EvolutionTask {
    let clean = synth::shapes(size, size, 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let noisy = salt_pepper(&clean, 0.3, &mut rng);
    EvolutionTask::new(noisy, clean)
}

/// Everything observable about a job result, in comparable form.
fn fingerprint(result: &JobResult) -> (u64, u64, Vec<Vec<u8>>, Vec<u64>) {
    (
        result.seed,
        result.evaluations,
        result.genotypes().iter().map(|g| g.encode()).collect(),
        result.history().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // ------------------------------------------------------------------
    // 1. Direct-execution equivalence, per job kind
    // ------------------------------------------------------------------

    #[test]
    fn evolution_jobs_match_direct_execution(
        seed in any::<u64>(),
        mutation_rate in 1usize..4,
        arrays in 1usize..4,
        workers in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let task = denoise_task(16, seed ^ 0x51);
        let spec = JobSpec::evolution(task.input.clone(), task.reference.clone())
            .num_arrays(arrays)
            .mutation_rate(mutation_rate)
            .generations(6)
            .seed(seed)
            .build()
            .expect("valid spec");
        let service = EhwService::new(
            ServiceConfig::new(1).workers_per_platform(workers),
        ).expect("valid config");
        let job = service.submit(spec.clone()).expect("accepted").wait().expect("shard pool is alive");
        let (got, got_time) = job.as_evolution().expect("evolution job");

        let mut platform =
            EhwPlatform::with_parallel(arrays, ParallelConfig::serial());
        let direct = execute(&mut platform, &spec, seed);
        let (want, want_time) = direct.as_evolution().expect("evolution job");

        prop_assert_eq!(got.best_genotype.encode(), want.best_genotype.encode());
        prop_assert_eq!(got.best_fitness, want.best_fitness);
        prop_assert_eq!(got.initial_fitness, want.initial_fitness);
        prop_assert_eq!(&got.history, &want.history);
        prop_assert_eq!(got.evaluations, want.evaluations);
        prop_assert_eq!(got.total_pe_reconfigurations, want.total_pe_reconfigurations);
        prop_assert_eq!(got_time.total_s, want_time.total_s);
        prop_assert_eq!(got_time.reconfiguration_s, want_time.reconfiguration_s);
        prop_assert_eq!(job.evaluations, want.evaluations);
    }

    #[test]
    fn cascade_jobs_match_direct_execution(
        seed in any::<u64>(),
        merged in any::<bool>(),
        interleaved in any::<bool>(),
        workers in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let task = denoise_task(14, seed ^ 0x52);
        let fitness = if merged { CascadeFitness::Merged } else { CascadeFitness::Separate };
        let schedule = if interleaved { CascadeSchedule::Interleaved } else { CascadeSchedule::Sequential };
        let spec = JobSpec::cascade(task.input.clone(), task.reference.clone())
            .stages(2)
            .generations(4)
            .mutation_rate(2)
            .fitness(fitness)
            .schedule(schedule)
            .seed(seed)
            .build()
            .expect("valid spec");
        let service = EhwService::new(
            ServiceConfig::new(1).workers_per_platform(workers),
        ).expect("valid config");
        let job = service.submit(spec.clone()).expect("accepted").wait().expect("shard pool is alive");
        let got = job.as_cascade().expect("cascade job");

        let mut platform = EhwPlatform::with_parallel(2, ParallelConfig::serial());
        let direct = execute(&mut platform, &spec, seed);
        let want = direct.as_cascade().expect("cascade job");

        prop_assert_eq!(&got.stage_genotypes, &want.stage_genotypes);
        prop_assert_eq!(&got.stage_fitness, &want.stage_fitness);
        prop_assert_eq!(got.evaluations, want.evaluations);
        prop_assert_eq!(got.stats, want.stats);
        prop_assert_eq!(job.evaluations, want.evaluations);
    }

    #[test]
    fn campaign_jobs_match_direct_execution(
        seed in any::<u64>(),
        workers in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let task = denoise_task(12, seed ^ 0x53);
        let spec = JobSpec::fault_campaign(task.input.clone(), task.reference.clone())
            .recovery_generations(2)
            .recovery_mutation_rate(1)
            .seed(seed)
            .build()
            .expect("valid spec");
        let service = EhwService::new(
            ServiceConfig::new(1).workers_per_platform(workers),
        ).expect("valid config");
        let job = service.submit(spec.clone()).expect("accepted").wait().expect("shard pool is alive");
        let got = job.as_campaign().expect("campaign job");

        let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::serial());
        let direct = execute(&mut platform, &spec, seed);
        let want = direct.as_campaign().expect("campaign job");

        prop_assert_eq!(&got.positions, &want.positions);
        prop_assert_eq!(job.evaluations, want.total_evaluations());
    }
}

// ----------------------------------------------------------------------
// 2. Pool invariance and seed derivation
// ----------------------------------------------------------------------

fn mixed_specs(task: &EvolutionTask) -> Vec<JobSpec> {
    // Two of each kind; the first of each pair pins its seed, the second
    // derives it from the service root — both must reproduce.
    vec![
        JobSpec::evolution(task.input.clone(), task.reference.clone())
            .generations(5)
            .seed(11)
            .build()
            .unwrap(),
        JobSpec::evolution(task.input.clone(), task.reference.clone())
            .num_arrays(2)
            .generations(5)
            .build()
            .unwrap(),
        JobSpec::cascade(task.input.clone(), task.reference.clone())
            .stages(2)
            .generations(3)
            .seed(13)
            .build()
            .unwrap(),
        JobSpec::cascade(task.input.clone(), task.reference.clone())
            .stages(3)
            .generations(3)
            .schedule(CascadeSchedule::Interleaved)
            .build()
            .unwrap(),
        JobSpec::fault_campaign(task.input.clone(), task.reference.clone())
            .recovery_generations(2)
            .seed(17)
            .build()
            .unwrap(),
        JobSpec::fault_campaign(task.input.clone(), task.reference.clone())
            .recovery_generations(2)
            .build()
            .unwrap(),
    ]
}

#[test]
fn mixed_batches_are_byte_identical_across_worker_and_platform_configs() {
    let task = denoise_task(14, 0xBEEF);
    let run = |platforms: usize, workers: usize| {
        let service = EhwService::new(
            ServiceConfig::new(platforms)
                .workers_per_platform(workers)
                .seed(2013),
        )
        .expect("valid config");
        let results = service
            .run_batch(mixed_specs(&task))
            .expect("batch accepted");
        results.iter().map(fingerprint).collect::<Vec<_>>()
    };

    let reference = run(1, 1);
    for &(platforms, workers) in &[(1usize, 2usize), (1, 8), (2, 1), (2, 2), (2, 8)] {
        let got = run(platforms, workers);
        assert_eq!(
            got, reference,
            "diverged at {platforms} platforms x {workers} workers"
        );
    }
}

#[test]
fn derived_seeds_follow_the_root_and_reproduce_the_legacy_path() {
    let task = denoise_task(16, 0xCAFE);
    let service = EhwService::new(ServiceConfig::new(2).seed(777)).expect("valid config");
    // Job 0 unpinned, job 1 unpinned: seeds must be root.fork(0), root.fork(1).
    let spec = |gens: usize| {
        JobSpec::evolution(task.input.clone(), task.reference.clone())
            .generations(gens)
            .build()
            .unwrap()
    };
    let h0 = service.submit(spec(5)).expect("accepted");
    let h1 = service.submit(spec(5)).expect("accepted");
    let root = SeedSequence::new(777);
    assert_eq!(h0.seed(), root.fork(0).seed());
    assert_eq!(h1.seed(), root.fork(1).seed());
    let r0 = h0.wait().expect("shard pool is alive");

    // Re-running the spec directly with the derived seed reproduces the job
    // byte for byte.
    let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::serial());
    let direct = execute(&mut platform, &spec(5), r0.seed);
    let (want, _) = direct.as_evolution().expect("evolution job");
    let (got, _) = r0.as_evolution().expect("evolution job");
    assert_eq!(got.best_genotype.encode(), want.best_genotype.encode());
    assert_eq!(got.history, want.history);
    let _ = h1.wait().expect("shard pool is alive");
}

// ----------------------------------------------------------------------
// 3. Queue saturation: backpressure blocks, nothing is dropped
// ----------------------------------------------------------------------

#[test]
fn queue_saturation_blocks_submitters_and_drops_nothing() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // Large enough that a job takes milliseconds even in release builds, so
    // the polling loop below reliably observes the throttled window.
    let task = denoise_task(32, 0xD00D);
    // One shard, queue depth 1: while the shard chews on a job, at most one
    // more fits in the queue; further submissions must block.
    let service =
        Arc::new(EhwService::new(ServiceConfig::new(1).queue_depth(1)).expect("valid config"));
    let spec = |seed: u64| {
        JobSpec::evolution(task.input.clone(), task.reference.clone())
            .generations(80)
            .seed(seed)
            .build()
            .unwrap()
    };

    const JOBS: usize = 8;
    let submitted = Arc::new(AtomicUsize::new(0));
    let submitter = {
        let service = Arc::clone(&service);
        let submitted = Arc::clone(&submitted);
        let specs: Vec<JobSpec> = (0..JOBS as u64).map(spec).collect();
        std::thread::spawn(move || {
            let mut handles = Vec::new();
            for spec in specs {
                handles.push(service.submit(spec).expect("accepted"));
                submitted.fetch_add(1, Ordering::SeqCst);
            }
            handles
        })
    };

    // The submitter can get at most `queue_depth + platforms` jobs in before
    // it has to wait for the single shard to finish one — poll and assert it
    // is throttled well below the full batch.  The count is checked *before*
    // each sleep so a fast host cannot drain the whole batch inside the
    // first poll interval unobserved.
    let mut throttled = false;
    for _ in 0..2000 {
        let n = submitted.load(Ordering::SeqCst);
        if n > 0 && n < JOBS && !submitter.is_finished() {
            throttled = true;
            break;
        }
        if submitter.is_finished() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let handles = submitter.join().expect("submitter survives");
    assert!(
        throttled,
        "the submitter was never observed blocking on the full queue"
    );

    // Nothing was dropped: all handles resolve, in submission order, and the
    // counters agree.
    assert_eq!(handles.len(), JOBS);
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.job_id(), i as u64);
        let result = handle.wait().expect("shard pool is alive");
        assert!(!result.is_failed());
        assert_eq!(result.job_id, i as u64);
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, JOBS as u64);
    assert_eq!(stats.completed, JOBS as u64);
}
