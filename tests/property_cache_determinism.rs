//! Cross-job cache determinism suite.
//!
//! The cross-job cache (shared windows) is an *accelerator*, never an
//! oracle: every hit returns exactly the bytes the miss path would have
//! computed.  These properties pin that contract:
//!
//! 1. **Cache transparency** — mixed batches of all four job kinds
//!    (same-image and distinct-image jobs, including an identical-spec
//!    replay) produce byte-identical [`JobResult`]s with the cache on and
//!    off, across 1/2 platforms × 1/2/8 workers, while the cache-on run
//!    observably hits.
//! 2. **Eviction under pressure** — training on one image more than the
//!    cache holds evicts (observably) and still changes nothing about the
//!    results.

use ehw_image::noise::{salt_pepper, NoiseModel};
use ehw_image::synth;
use ehw_platform::cache::WINDOWS_CAPACITY;
use ehw_platform::evo_modes::EvolutionTask;
use ehw_server::wire::encode_result;
use ehw_service::{
    EhwService, JobResult, JobSpec, NoiseSegment, SceneKind, ServiceConfig, StreamSourceSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn denoise_task(size: usize, seed: u64) -> EvolutionTask {
    let clean = synth::shapes(size, size, 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let noisy = salt_pepper(&clean, 0.3, &mut rng);
    EvolutionTask::new(noisy, clean)
}

/// Everything observable about a job result, in comparable form — including
/// the engine stats, which the cache must also leave untouched, and the
/// output as it travels the wire (with the job id, which depends on the
/// submission count, zeroed), which covers the stream and campaign payloads.
#[allow(clippy::type_complexity)]
fn fingerprint(result: &JobResult) -> (u64, u64, Vec<Vec<u8>>, Vec<u64>, (u64, u64, u64), String) {
    (
        result.seed,
        result.evaluations,
        result.genotypes().iter().map(|g| g.encode()).collect(),
        result.history().to_vec(),
        (
            result.stats.plans_evaluated,
            result.stats.memo_hits,
            result.stats.early_exits,
        ),
        encode_result(&JobResult {
            job_id: 0,
            ..result.clone()
        })
        .to_json(),
    )
}

/// A batch that exercises every sharing pattern: two identical specs (an
/// exact resubmit), a same-image sibling with a different seed, a
/// distinct-image job, a wider platform shape on the shared image, and one
/// job of each other kind: a cascade, a fault campaign and a stream (which
/// bypass the cache entirely).
fn mixed_specs(shared: &EvolutionTask, distinct: &EvolutionTask) -> Vec<JobSpec> {
    vec![
        JobSpec::evolution(shared.input.clone(), shared.reference.clone())
            .generations(4)
            .seed(11)
            .build()
            .unwrap(),
        JobSpec::evolution(shared.input.clone(), shared.reference.clone())
            .generations(4)
            .seed(11)
            .build()
            .unwrap(),
        JobSpec::evolution(shared.input.clone(), shared.reference.clone())
            .generations(4)
            .seed(12)
            .build()
            .unwrap(),
        JobSpec::evolution(distinct.input.clone(), distinct.reference.clone())
            .generations(4)
            .seed(13)
            .build()
            .unwrap(),
        JobSpec::evolution(shared.input.clone(), shared.reference.clone())
            .num_arrays(2)
            .generations(4)
            .seed(14)
            .build()
            .unwrap(),
        JobSpec::cascade(shared.input.clone(), shared.reference.clone())
            .stages(2)
            .generations(3)
            .seed(15)
            .build()
            .unwrap(),
        JobSpec::fault_campaign(shared.input.clone(), shared.reference.clone())
            .recovery_generations(2)
            .seed(16)
            .build()
            .unwrap(),
        JobSpec::stream(StreamSourceSpec::Synthetic {
            scene: SceneKind::Shapes { complexity: 4 },
            width: 12,
            height: 12,
            frames: 8,
            schedule: vec![
                NoiseSegment {
                    start_frame: 0,
                    noise: NoiseModel::SaltPepper { density: 0.1 },
                },
                NoiseSegment {
                    start_frame: 4,
                    noise: NoiseModel::SaltPepper { density: 0.5 },
                },
            ],
        })
        .drift_window(2)
        .drift_threshold_pct(130)
        .adaptation_generations(4)
        .seed(17)
        .build()
        .unwrap(),
    ]
}

// ----------------------------------------------------------------------
// 1. Cache transparency across pool shapes
// ----------------------------------------------------------------------

#[test]
fn mixed_batches_are_byte_identical_with_the_cache_on_and_off() {
    let shared = denoise_task(12, 0xA11CE);
    let distinct = denoise_task(12, 0xB0B);
    let run = |cache: bool, platforms: usize, workers: usize| {
        let service = EhwService::new(
            ServiceConfig::new(platforms)
                .workers_per_platform(workers)
                .seed(99)
                .cache(cache),
        )
        .expect("valid config");
        let results = service
            .run_batch(mixed_specs(&shared, &distinct))
            .expect("batch accepted");
        let stats = service.stats();
        (results.iter().map(fingerprint).collect::<Vec<_>>(), stats)
    };

    let (reference, off_stats) = run(false, 1, 1);
    assert_eq!(
        off_stats.cache,
        Default::default(),
        "cache off must not count"
    );
    for cache in [false, true] {
        for &(platforms, workers) in &[(1usize, 2usize), (1, 8), (2, 1), (2, 8)] {
            let (got, _) = run(cache, platforms, workers);
            assert_eq!(
                got, reference,
                "diverged at cache={cache}, {platforms} platforms x {workers} workers"
            );
        }
    }

    // The transparency above is not vacuous: a sequential cache-on run
    // actually hits — every same-image sibling shares one window extraction.
    let (got, on_stats) = run(true, 1, 1);
    assert_eq!(got, reference);
    assert!(on_stats.cache.windows_hits > 0, "{:?}", on_stats.cache);
}

// ----------------------------------------------------------------------
// 2. Eviction under pressure changes nothing
// ----------------------------------------------------------------------

#[test]
fn a_cache_squeezed_to_toy_capacities_evicts_but_stays_transparent() {
    // One training image more than the cache holds, each trained on once
    // per round: pickup is FIFO, so by the time an image comes round again
    // the LRU has evicted it, and every job of the second round rebuilds.
    let distinct_images = WINDOWS_CAPACITY + 1;
    let tasks: Vec<EvolutionTask> = (0..distinct_images as u64)
        .map(|i| denoise_task(12, 0xD1CE + i))
        .collect();
    let specs = || {
        tasks
            .iter()
            .zip(11u64..)
            .map(|(task, seed)| {
                JobSpec::evolution(task.input.clone(), task.reference.clone())
                    .generations(3)
                    .seed(seed)
                    .build()
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };

    let uncached = EhwService::new(ServiceConfig::new(1).seed(7).cache(false)).unwrap();
    assert!(uncached.cache().is_none());
    let reference: Vec<_> = uncached
        .run_batch(specs())
        .expect("batch accepted")
        .iter()
        .map(fingerprint)
        .collect();

    let cached = EhwService::new(ServiceConfig::new(1).seed(7)).unwrap();
    for _ in 0..2 {
        let got: Vec<_> = cached
            .run_batch(specs())
            .expect("batch accepted")
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(got, reference, "eviction pressure changed results");
    }
    // More builds than distinct training images: an extraction was evicted
    // and rebuilt.
    let stats = cached.stats();
    assert!(
        stats.cache.windows_misses > distinct_images as u64,
        "{:?}",
        stats.cache
    );
}

// ----------------------------------------------------------------------
// 3. Randomised transparency (proptest)
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn any_evolution_job_is_unchanged_by_the_cache(
        seed in any::<u64>(),
        arrays in 1usize..3,
        workers in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let task = denoise_task(12, seed ^ 0xC0FFEE);
        let spec = || JobSpec::evolution(task.input.clone(), task.reference.clone())
            .num_arrays(arrays)
            .generations(4)
            .seed(seed)
            .build()
            .unwrap();
        let run = |cache: bool| {
            let service = EhwService::new(
                ServiceConfig::new(1)
                    .workers_per_platform(workers)
                    .seed(3)
                    .cache(cache),
            )
            .expect("valid config");
            // Twice, so the cache-on run replays its own first job.
            let results = service.run_batch(vec![spec(), spec()]).expect("accepted");
            results.iter().map(fingerprint).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(true), run(false));
    }
}
