//! Evaluation-engine benchmark summary — the recorded perf trajectory.
//!
//! Measures the candidate-evaluation hot path three ways on the paper's
//! 128×128 / 40 % salt & pepper workload and writes the numbers to
//! `BENCH_evaluation.json` so every future PR can prove (or disprove) that it
//! moved the needle:
//!
//! * **interpreter** — the pre-engine baseline: per-candidate window
//!   extraction, per-pixel genotype resolution and fault-map lookups,
//! * **compiled** — the engine: one shared window-extraction pass per image,
//!   one flat compiled plan per candidate,
//! * **evolution** — a real (1+λ) run with the engine's early-exit bound and
//!   per-generation memo, at 1 and 4 workers, reporting the early-exit rate,
//! * **cascade** — a three-stage cascaded evolution (the Fig. 16 workload)
//!   run through the naive oracle and the compiled cascade engine, single
//!   worker, with a byte-identity gate between the two,
//! * **plan_compile** — ns/candidate of a fresh plan compile vs patching the
//!   parent's plan with the gene diff (the software mirror of partial
//!   reconfiguration),
//! * **window_layout** — full-image evals/sec of the AoS window-gather path
//!   vs the SoA per-selector plane path, same plan, single worker,
//! * **reference_filters** — µs per filter for the nine built-in reference
//!   filters through the legacy per-window kernel stream vs the plane-routed
//!   `ReferenceFilter::apply`, byte-identity gated,
//! * **cross_job_cache** — the service-level cache: shared-window hits of
//!   a replayed same-image batch (byte-identity gated against a cache-off
//!   service),
//! * **streaming** — the frame-stream engine: steady-state frames/sec with
//!   a trained incumbent and no drift, frames-to-recover after a scripted
//!   noise shift (detection to applied adaptation), and the warm-vs-cold
//!   bootstrap evaluations-to-target gap.
//!
//! Usage: `cargo run --release -p ehw-bench --bin bench_summary`
//! (`--size=`, `--reps=`, `--generations=`, `--cascade-generations=`,
//! `--out=` to adjust).

use std::fmt::Write as _;
use std::time::Instant;

use ehw_array::compiled::CompiledArray;
use ehw_array::genotype::Genotype;
use ehw_bench::oracle::{self, interpret_filter_image};
use ehw_bench::CascadeEngine;
use ehw_evolution::fitness::{plan_mae, FitnessEvaluator, SoftwareEvaluator};
use ehw_evolution::strategy::{run_evolution, EsConfig, NullObserver};
use ehw_image::filters::ReferenceFilter;
use ehw_image::metrics::mae;
use ehw_image::window::{SharedWindows, Window3x3, WindowPlanes};
use ehw_parallel::ParallelConfig;
use ehw_platform::fault_campaign::{run_campaign, CampaignReport};
use ehw_platform::jobs::{execute, JobControl};
use ehw_platform::platform::EhwPlatform;
use ehw_platform::scenario::ScenarioRegistry;
use ehw_platform::self_healing::RecoveryPolicy;
use ehw_service::{EhwService, JobSpec, ServiceConfig};
use ehw_stream::{
    run_stream, AdaptationConfig, DriftConfig, FrameSource, NoiseSegment, SceneKind, StreamConfig,
    StreamEvent, SyntheticSource,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const LAMBDA: usize = 9;

/// Throughput of one measured configuration.
struct Throughput {
    evals_per_sec: f64,
    pixels_per_sec: f64,
}

fn time_batches(reps: usize, pixels_per_eval: usize, mut run: impl FnMut() -> u64) -> Throughput {
    // One warm-up round keeps first-touch page faults out of the measurement.
    let mut checksum = run();
    let start = Instant::now();
    for _ in 0..reps {
        checksum = checksum.wrapping_add(run());
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(checksum);
    let evals = (reps * LAMBDA) as f64;
    Throughput {
        evals_per_sec: evals / elapsed,
        pixels_per_sec: evals * pixels_per_eval as f64 / elapsed,
    }
}

fn main() {
    let size = ehw_bench::arg_usize("size", 128);
    let reps = ehw_bench::arg_usize("reps", 20);
    let generations = ehw_bench::arg_usize("generations", 60);
    let out = std::env::args()
        .find_map(|a| a.strip_prefix("--out=").map(str::to_owned))
        .unwrap_or_else(|| "BENCH_evaluation.json".to_owned());

    ehw_bench::banner(
        "bench_summary",
        "compiled evaluation engine vs. the reference interpreter",
        reps,
        generations,
    );

    let task = ehw_bench::denoise_task(size, 0.4, 1);
    let pixels = task.input.width() * task.input.height();
    let mut rng = StdRng::seed_from_u64(7);
    let batch: Vec<Genotype> = (0..LAMBDA).map(|_| Genotype::random(&mut rng)).collect();

    // --- interpreter baseline (1 worker by construction) -------------------
    let no_faults = BTreeMap::new();
    let interp = time_batches(reps, pixels, || {
        batch
            .iter()
            .map(|g| {
                mae(
                    &interpret_filter_image(g, &no_faults, &task.input),
                    &task.reference,
                )
            })
            .sum()
    });

    // --- compiled engine, unbounded, 1 and 4 workers -----------------------
    let windows = SharedWindows::new(&task.input);
    let compiled_1w = time_batches(reps, pixels, || {
        batch
            .iter()
            .map(|g| plan_mae(&CompiledArray::new(g), &windows, &task.reference))
            .sum()
    });
    let compiled_4w = {
        // A fresh copy of the evaluator per rep: re-scoring the same batch
        // on one evaluator would time its phenotype memo, not the plans.
        let eval = SoftwareEvaluator::new(task.input.clone(), task.reference.clone());
        let cfg = ParallelConfig::with_workers(4);
        time_batches(reps, pixels, || {
            eval.clone()
                .evaluate_batch_bounded(&batch, None, None, cfg)
                .into_iter()
                .sum()
        })
    };

    // Consistency gate: the engine must agree with the interpreter bit for
    // bit before any of its numbers mean anything.
    for g in &batch {
        let plan_fit = plan_mae(&CompiledArray::new(g), &windows, &task.reference);
        let interp_fit = mae(
            &interpret_filter_image(g, &no_faults, &task.input),
            &task.reference,
        );
        assert_eq!(plan_fit, interp_fit, "engine diverged from the interpreter");
    }

    // --- plan compilation: fresh vs patch ----------------------------------
    // λ mutated children of one parent — the engine's per-generation unit.
    // The fresh path is what the evaluator actually does without patching:
    // `ProcessingArray::compile_with`, a full plan rebuild plus the fault
    // overlay merge.  The patch path is what it does with patching: replay a
    // precomputed ≤ k-entry gene diff into the worker-resident parent plan
    // and replay it back after the evaluation.  The diffs themselves are
    // mutation bookkeeping (computed once per candidate outside the workers,
    // like a DPR frame list) and are priced separately below.
    let parent = batch[0].clone();
    let children: Vec<Genotype> = (1..=LAMBDA)
        .map(|i| {
            let mut child = parent.clone();
            child.pe_genes[(3 * i) % 16] = (child.pe_genes[(3 * i) % 16] + 1) % 16;
            child.input_genes[i % 8] = (child.input_genes[i % 8] + 1) % 9;
            if i % 2 == 0 {
                child.output_gene = (child.output_gene + 1) % 4;
            }
            child
        })
        .collect();
    let parent_plan = CompiledArray::new(&parent);
    // Identity gate: a patched plan must be the fresh compile, byte for byte.
    for child in &children {
        assert_eq!(
            parent_plan.patch(&child.diff_from(&parent)),
            CompiledArray::new(child),
            "patched plan diverged from the fresh compile"
        );
    }
    let compile_rounds = 100_000usize;
    let compile_denom = (compile_rounds * children.len()) as f64;
    let fresh_ns = {
        let base = ehw_array::array::ProcessingArray::new(parent.clone());
        let start = Instant::now();
        for _ in 0..compile_rounds {
            for child in &children {
                std::hint::black_box(base.compile_with(std::hint::black_box(child)));
            }
        }
        start.elapsed().as_nanos() as f64 / compile_denom
    };
    let diff_ns = {
        let start = Instant::now();
        for _ in 0..compile_rounds {
            for child in &children {
                std::hint::black_box(std::hint::black_box(child).diff_from(&parent));
            }
        }
        start.elapsed().as_nanos() as f64 / compile_denom
    };
    let patch_ns = {
        // The production data path keeps one resident plan per worker and
        // applies/reverts each candidate's precomputed gene diff in place —
        // no plan struct copy and no diff recomputation per candidate.
        let diffs: Vec<_> = children.iter().map(|c| c.diff_from(&parent)).collect();
        let mut plan = parent_plan;
        let start = Instant::now();
        for _ in 0..compile_rounds {
            for diff in &diffs {
                plan.apply(std::hint::black_box(diff));
                std::hint::black_box(&plan);
                plan.revert(std::hint::black_box(diff));
            }
        }
        let elapsed = start.elapsed().as_nanos() as f64 / compile_denom;
        assert_eq!(plan, parent_plan, "apply/revert round trip drifted");
        elapsed
    };
    let patch_speedup = fresh_ns / patch_ns.max(1e-9);

    // --- window layout: AoS gather vs SoA planes ---------------------------
    // Same plans, same windows; only the memory layout of the shared window
    // pass differs.  The AoS path gathers nine strided bytes per window and
    // lane; the plane path memcpys contiguous selector runs.
    let aos: Vec<Window3x3> = (0..windows.len())
        .map(|k| oracle::gather_window(windows.planes(), k))
        .collect();
    let mut layout_out = vec![0u8; windows.len()];
    let aos_tp = time_batches(reps, pixels, || {
        let mut sum = 0u64;
        for g in &batch {
            let plan = CompiledArray::new(g);
            plan.evaluate_windows_into(&aos, &mut layout_out);
            sum = sum.wrapping_add(layout_out[0] as u64);
        }
        sum
    });
    let planes_tp = time_batches(reps, pixels, || {
        let mut sum = 0u64;
        for g in &batch {
            let plan = CompiledArray::new(g);
            plan.evaluate_planes_into(windows.planes(), 0, &mut layout_out);
            sum = sum.wrapping_add(layout_out[0] as u64);
        }
        sum
    });
    let plane_speedup = planes_tp.evals_per_sec / aos_tp.evals_per_sec.max(1e-9);

    // --- reference filters: AoS per-window kernels vs plane routing --------
    // All nine built-in reference filters over the noisy image: the legacy
    // path streams a Window3x3 per pixel into the scalar kernel, the plane
    // path extracts WindowPlanes once per image and runs each filter as
    // linear passes over the nine selector planes.  A byte-identity gate
    // precedes the timing.
    let filter_planes = WindowPlanes::new(&task.input);
    for f in ReferenceFilter::ALL {
        assert_eq!(
            f.apply_planes(&filter_planes),
            oracle::map_windows(&task.input, |w| oracle::filter_kernel(f, w)),
            "plane-routed filter {f:?} diverged from the scalar kernel"
        );
    }
    let filter_reps = reps.max(1);
    let time_filters = |pass: &mut dyn FnMut() -> u64| {
        let mut checksum = pass();
        let start = Instant::now();
        for _ in 0..filter_reps {
            checksum = checksum.wrapping_add(pass());
        }
        std::hint::black_box(checksum);
        start.elapsed().as_secs_f64().max(1e-9) / (filter_reps * ReferenceFilter::ALL.len()) as f64
    };
    let filter_aos_s = time_filters(&mut || {
        let mut sum = 0u64;
        for f in ReferenceFilter::ALL {
            let out = oracle::map_windows(std::hint::black_box(&task.input), |w| {
                oracle::filter_kernel(f, w)
            });
            sum = sum.wrapping_add(out.pixel(0, 0) as u64);
        }
        sum
    });
    let filter_plane_s = time_filters(&mut || {
        let mut sum = 0u64;
        for f in ReferenceFilter::ALL {
            let out = f.apply(std::hint::black_box(&task.input));
            sum = sum.wrapping_add(out.pixel(0, 0) as u64);
        }
        sum
    });
    let filter_speedup = filter_aos_s / filter_plane_s.max(1e-9);

    // --- in-evolution early-exit rate at 1 and 4 workers -------------------
    let mut evolution = Vec::new();
    for workers in [1usize, 4] {
        let config = EsConfig {
            parallel: ParallelConfig::with_workers(workers),
            ..EsConfig::paper(3, 1, generations, 42)
        };
        let mut eval = SoftwareEvaluator::new(task.input.clone(), task.reference.clone());
        let start = Instant::now();
        let result = run_evolution(&config, &mut eval, &mut NullObserver);
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let stats = eval.engine_stats();
        evolution.push((
            workers,
            result.evaluations as f64 / elapsed,
            stats.early_exit_rate(),
            stats.memo_hits,
            result.best_fitness,
        ));
    }

    // --- cascaded evolution: naive oracle vs compiled engine ---------------
    // The Fig. 16 workload (three stages, 64×64, 40 % salt & pepper,
    // separate fitness, sequential schedule), single worker, so the number
    // is the pure engine effect.  The generation budget is pinned
    // independently of `--generations` so the gated speedup is always
    // measured under the committed baseline's conditions, and each engine is
    // timed best-of-N (identical deterministic runs, so min = least noise).
    let cascade_size = ehw_bench::arg_usize("cascade-size", 64);
    let cascade_generations = ehw_bench::arg_usize("cascade-generations", 60);
    let cascade_reps = ehw_bench::arg_usize("cascade-reps", 3).max(1);
    let cascade_task = ehw_bench::denoise_task(cascade_size, 0.4, 9);
    let run_cascade = |engine: CascadeEngine| {
        let spec = JobSpec::cascade(cascade_task.input.clone(), cascade_task.reference.clone())
            .stages(3)
            .generations(cascade_generations)
            .build()
            .expect("valid cascade spec");
        let mut best_s = f64::INFINITY;
        let mut result = None;
        for _ in 0..cascade_reps {
            let mut platform = EhwPlatform::with_parallel(3, ParallelConfig::serial());
            let start = Instant::now();
            let cascade = engine.run(&mut platform, &spec, 4242);
            best_s = best_s.min(start.elapsed().as_secs_f64().max(1e-9));
            result = Some(cascade);
        }
        (best_s, result.expect("at least one cascade rep"))
    };
    let (naive_s, naive_result) = run_cascade(CascadeEngine::Naive);
    let (compiled_s, compiled_result) = run_cascade(CascadeEngine::Compiled);
    // Byte-identity gate: the engines must agree exactly before the speedup
    // means anything.
    assert_eq!(
        naive_result.stage_genotypes, compiled_result.stage_genotypes,
        "cascade engine diverged from the naive oracle"
    );
    assert_eq!(naive_result.stage_fitness, compiled_result.stage_fitness);
    assert_eq!(naive_result.evaluations, compiled_result.evaluations);
    let cascade_speedup = naive_s / compiled_s;
    let cascade_stats = compiled_result.stats;

    // --- service throughput: jobs/sec through the pool, 1 vs 2 platforms --
    // A batch of single-array evolution jobs pushed through the ehw-service
    // front-end; the figure tracks the serving path itself (queueing, shard
    // dispatch, platform recycling), not the per-candidate engine the
    // sections above cover.  A byte-identity gate across the two pool sizes
    // guards the determinism contract while measuring.
    let service_jobs = ehw_bench::arg_usize("service-jobs", 48);
    let service_size = ehw_bench::arg_usize("service-size", 48);
    let service_generations = ehw_bench::arg_usize("service-generations", 25);
    let service_reps = ehw_bench::arg_usize("service-reps", 3).max(1);
    let service_task = ehw_bench::denoise_task(service_size, 0.4, 21);
    let service_specs = |n: usize| -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                JobSpec::evolution(service_task.input.clone(), service_task.reference.clone())
                    .generations(service_generations)
                    .seed(100 + i as u64)
                    .build()
                    .expect("valid evolution spec")
            })
            .collect()
    };
    // Best-of-N timing (identical deterministic batches, so min = least
    // noise, like the cascade measurement above) keeps the gated scaling
    // ratio stable on loaded runners; the identity gate covers evaluations,
    // histories AND evolved genotypes.
    type ServiceOutcome = Vec<(u64, Vec<u64>, Vec<Vec<u8>>)>;
    let measure_service = |platforms: usize| -> (f64, ServiceOutcome) {
        let service = EhwService::new(ServiceConfig::new(platforms)).expect("valid service config");
        // Warm-up: several jobs per shard so every shard almost surely
        // constructs its pooled platform before timing starts (queue pickup
        // is racy — one shard could swallow a one-job-per-shard warm-up);
        // best-of-N below excludes any stragglers from the gated number.
        let _ = service
            .run_batch(service_specs(platforms * 4))
            .expect("warm-up batch");
        let mut best_s = f64::INFINITY;
        let mut outcome = None;
        for _ in 0..service_reps {
            let start = Instant::now();
            let results = service
                .run_batch(service_specs(service_jobs))
                .expect("measured batch");
            best_s = best_s.min(start.elapsed().as_secs_f64().max(1e-9));
            outcome = Some(
                results
                    .iter()
                    .map(|r| {
                        (
                            r.evaluations,
                            r.history().to_vec(),
                            r.genotypes().iter().map(|g| g.encode()).collect(),
                        )
                    })
                    .collect(),
            );
        }
        (
            service_jobs as f64 / best_s,
            outcome.expect("at least one service rep"),
        )
    };
    let (service_1p, outcome_1p) = measure_service(1);
    let (service_2p, outcome_2p) = measure_service(2);
    assert_eq!(
        outcome_1p, outcome_2p,
        "service results diverged between pool sizes"
    );
    let service_scaling = service_2p / service_1p;

    // --- cross-job cache: window sharing ------------------------------------
    // One batch of same-image jobs submitted twice against a cache-on
    // service — every job after the first reuses one window extraction —
    // gated byte-identical against a cache-off service running the
    // identical sequence.
    let cache_jobs = ehw_bench::arg_usize("cache-jobs", 8);
    let cache_task = ehw_bench::denoise_task(service_size, 0.4, 33);
    let cache_specs = || -> Vec<JobSpec> {
        (0..cache_jobs)
            .map(|i| {
                JobSpec::evolution(cache_task.input.clone(), cache_task.reference.clone())
                    .generations(service_generations)
                    .seed(300 + i as u64)
                    .build()
                    .expect("valid evolution spec")
            })
            .collect()
    };
    let run_twice = |cache: bool| -> (Vec<ServiceOutcome>, ehw_service::CacheStats) {
        let service =
            EhwService::new(ServiceConfig::new(1).cache(cache)).expect("valid service config");
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let results = service.run_batch(cache_specs()).expect("cache batch");
            outcomes.push(
                results
                    .iter()
                    .map(|r| {
                        (
                            r.evaluations,
                            r.history().to_vec(),
                            r.genotypes().iter().map(|g| g.encode()).collect(),
                        )
                    })
                    .collect(),
            );
        }
        (outcomes, service.stats().cache)
    };
    let (cached_outcomes, svc_cache_stats) = run_twice(true);
    let (uncached_outcomes, _) = run_twice(false);
    // Byte-identity gate: the cache must change nothing about the results.
    assert_eq!(
        cached_outcomes, uncached_outcomes,
        "cross-job cache changed results"
    );
    assert!(
        svc_cache_stats.windows_hits > 0,
        "same-image jobs never shared windows"
    );

    // --- resilience: schedule compile cost + scenario campaign overhead ----
    // Two figures for the declarative fault-scenario layer.  (1) Compile
    // cost: turning every builtin scenario into its injection schedule,
    // ns/event — pure data work, should stay far below any campaign cost.
    // (2) Campaign overhead: the systematic sweep as the job path runs a
    // campaign spec that names no scenario or policy (the "legacy" side) vs
    // the same sweep spelled out as SingleSweep + the default recovery
    // ladder and handed straight to `run_campaign`, byte-identity gated; the
    // ratio is the price of the job envelope (should hold ~1.0).
    let resilience_size = ehw_bench::arg_usize("resilience-size", 32);
    let resilience_task = ehw_bench::denoise_task(resilience_size, 0.4, 55);
    let registry = ScenarioRegistry::builtin();
    let schedule_rounds = 2_000usize;
    let (schedule_events, schedule_compile_ns) = {
        let events: usize = registry
            .scenarios()
            .iter()
            .map(|s| s.compile(&[0, 1], 9).len())
            .sum();
        let start = Instant::now();
        for _ in 0..schedule_rounds {
            for scenario in registry.scenarios() {
                std::hint::black_box(scenario.compile(std::hint::black_box(&[0, 1]), 9));
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / (schedule_rounds * events) as f64;
        (events, ns)
    };
    let campaign = JobSpec::fault_campaign(
        resilience_task.input.clone(),
        resilience_task.reference.clone(),
    )
    .baseline({
        let mut rng = StdRng::seed_from_u64(77);
        Genotype::random(&mut rng)
    })
    .arrays(vec![0, 1])
    .recovery_mutation_rate(1)
    .recovery_generations(2);
    let time_campaign = |run: &mut dyn FnMut() -> CampaignReport| -> (f64, CampaignReport) {
        let _ = run(); // warm-up
        let start = Instant::now();
        let report = run();
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        (report.total_evaluations() as f64 / elapsed, report)
    };
    let legacy_spec = campaign.clone().build().expect("valid campaign spec");
    let (legacy_campaign_eps, legacy_report) = time_campaign(&mut || {
        let mut platform = EhwPlatform::with_parallel(2, ParallelConfig::serial());
        let job = execute(&mut platform, &legacy_spec, 77);
        job.as_campaign().expect("campaign job").clone()
    });
    let single_sweep = registry.scenario("single_sweep").expect("builtin").clone();
    let JobSpec::FaultCampaign(scenario_spec) = campaign
        .scenario(single_sweep)
        .policy(RecoveryPolicy::default_ladder())
        .build()
        .expect("valid campaign spec")
    else {
        unreachable!("the campaign builder builds campaign specs")
    };
    let (scenario_campaign_eps, scenario_report) = time_campaign(&mut || {
        let mut platform = EhwPlatform::with_parallel(2, ParallelConfig::serial());
        run_campaign(&mut platform, &scenario_spec, 77, &JobControl::new())
    });
    // Byte-identity gate: the scenario layer must reproduce the historical
    // campaign exactly before its overhead number means anything.
    assert_eq!(
        legacy_report, scenario_report,
        "scenario campaign diverged from the legacy sweep"
    );
    let scenario_vs_legacy = scenario_campaign_eps / legacy_campaign_eps.max(1e-9);

    // --- streaming: steady state, drift recovery, warm vs cold bootstrap ---
    // Three figures for the frame-stream engine.  (1) Steady state: a
    // trained incumbent filters a constant-noise stream with the drift
    // detector parked far out of reach — pure filtering throughput in
    // frames/sec.  (2) Recovery: the noise shifts hard mid-stream; the
    // figures are the frames from the shift to the drift tick and to the
    // first *applied* adaptation.  (3) Warm vs cold: the bootstrap evolution
    // chases the trained incumbent's frame-0 fitness as an explicit target,
    // once from a random parent and once warm-started from that incumbent —
    // the evaluations gap is what an explicit bootstrap parent saves.
    let stream_size = ehw_bench::arg_usize("stream-size", 32);
    let stream_frames = ehw_bench::arg_usize("stream-frames", 48);
    let stream_generations = ehw_bench::arg_usize("stream-generations", 20);
    let stream_reps = ehw_bench::arg_usize("stream-reps", 3).max(1);
    let stream_scene = SceneKind::Shapes { complexity: 4 };
    let calm = vec![NoiseSegment {
        start_frame: 0,
        noise: ehw_image::noise::NoiseModel::SaltPepper { density: 0.3 },
    }];
    let shift_frame = stream_frames / 2;
    let shifting = vec![
        NoiseSegment {
            start_frame: 0,
            noise: ehw_image::noise::NoiseModel::SaltPepper { density: 0.1 },
        },
        NoiseSegment {
            start_frame: shift_frame,
            noise: ehw_image::noise::NoiseModel::SaltPepper { density: 0.5 },
        },
    ];
    let make_source = |schedule: &[NoiseSegment], seed: u64| {
        SyntheticSource::new(
            stream_scene,
            stream_size,
            stream_size,
            stream_frames,
            schedule.to_vec(),
            seed,
        )
        .expect("valid synthetic source")
    };
    // Train the incumbent on frame 0 of the calm stream — the deployment
    // story: evolve offline, then stream.
    let (trained, trained_fitness) = {
        let mut source = make_source(&calm, 91);
        let frame0 = source.frame(0).expect("streams have a frame 0");
        let config = EsConfig::paper(3, 1, stream_generations * 2, 92);
        let mut eval = SoftwareEvaluator::new(frame0, source.reference().clone());
        let result = run_evolution(&config, &mut eval, &mut NullObserver);
        (result.best_genotype, result.best_fitness)
    };
    let stream_adaptation = AdaptationConfig {
        generations: stream_generations,
        ..AdaptationConfig::default()
    };
    // (1) Steady state: drift threshold far beyond any real degradation, so
    // the run is filtering only.  Best-of-N of identical deterministic runs.
    let steady_config = StreamConfig {
        seed: 93,
        drift: DriftConfig {
            threshold_pct: 100_000,
            ..DriftConfig::default()
        },
        adaptation: stream_adaptation,
        parallel: ParallelConfig::serial(),
    };
    let mut steady_s = f64::INFINITY;
    let mut steady_report = None;
    for _ in 0..stream_reps {
        let mut source = make_source(&calm, 91);
        let start = Instant::now();
        let report = run_stream(
            &mut source,
            Some(trained.clone()),
            None,
            &steady_config,
            &mut |_| {},
            &|| false,
        );
        steady_s = steady_s.min(start.elapsed().as_secs_f64().max(1e-9));
        steady_report = Some(report);
    }
    let steady_report = steady_report.expect("at least one steady rep");
    assert_eq!(
        steady_report.drift_events, 0,
        "steady-state stream must not drift"
    );
    let stream_fps = steady_report.frames as f64 / steady_s;
    // (2) Recovery after the scripted shift.
    let recovery_config = StreamConfig {
        seed: 94,
        drift: DriftConfig {
            window: 4,
            threshold_pct: 130,
            cooldown: 6,
        },
        adaptation: stream_adaptation,
        parallel: ParallelConfig::serial(),
    };
    let mut recovery_events = Vec::new();
    let recovery_report = {
        let mut source = make_source(&shifting, 95);
        run_stream(
            &mut source,
            Some(trained.clone()),
            None,
            &recovery_config,
            &mut |e| recovery_events.push(*e),
            &|| false,
        )
    };
    let first_drift = recovery_events.iter().find_map(|e| match e {
        StreamEvent::Drift { frame, .. } if *frame >= shift_frame => Some(*frame),
        _ => None,
    });
    let first_recovery = recovery_events.iter().find_map(|e| match e {
        StreamEvent::Adaptation {
            frame,
            accepted: true,
            ..
        } if *frame >= shift_frame => Some(*frame),
        _ => None,
    });
    let drift_frame = first_drift.expect("the scripted shift must trip the detector");
    let recovery_frame = first_recovery.expect("an adaptation must beat the drifted incumbent");
    let frames_to_detect = drift_frame - shift_frame;
    let frames_to_recover = recovery_frame - shift_frame;
    // (3) Warm vs cold bootstrap, evaluations to the incumbent's fitness on
    // a short calm stream (no drift, so evaluations ≈ bootstrap only).
    let bootstrap_adaptation = AdaptationConfig {
        generations: stream_generations * 2,
        target_fitness: Some(trained_fitness),
        ..AdaptationConfig::default()
    };
    let bootstrap_config = StreamConfig {
        seed: 96,
        drift: DriftConfig {
            threshold_pct: 100_000,
            ..DriftConfig::default()
        },
        adaptation: bootstrap_adaptation,
        parallel: ParallelConfig::serial(),
    };
    let bootstrap = |warm_parent: Option<Genotype>| {
        let mut source =
            SyntheticSource::new(stream_scene, stream_size, stream_size, 4, calm.clone(), 91)
                .expect("valid synthetic source");
        run_stream(
            &mut source,
            None,
            warm_parent,
            &bootstrap_config,
            &mut |_| {},
            &|| false,
        )
    };
    let cold_bootstrap = bootstrap(None);
    let warm_bootstrap = bootstrap(Some(trained.clone()));
    let (cold_boot_evals, warm_boot_evals) =
        (cold_bootstrap.evaluations, warm_bootstrap.evaluations);
    let warm_boot_speedup = cold_boot_evals as f64 / warm_boot_evals.max(1) as f64;

    let speedup_1w = compiled_1w.evals_per_sec / interp.evals_per_sec;

    // --- report ------------------------------------------------------------
    ehw_bench::print_table(
        &["configuration", "evals/s", "Mpixels/s", "speedup vs interp"],
        &[
            vec![
                "interpreter 1w".into(),
                format!("{:.1}", interp.evals_per_sec),
                format!("{:.2}", interp.pixels_per_sec / 1e6),
                "1.00x".into(),
            ],
            vec![
                "compiled 1w".into(),
                format!("{:.1}", compiled_1w.evals_per_sec),
                format!("{:.2}", compiled_1w.pixels_per_sec / 1e6),
                format!("{speedup_1w:.2}x"),
            ],
            vec![
                "compiled 4w".into(),
                format!("{:.1}", compiled_4w.evals_per_sec),
                format!("{:.2}", compiled_4w.pixels_per_sec / 1e6),
                format!("{:.2}x", compiled_4w.evals_per_sec / interp.evals_per_sec),
            ],
        ],
    );
    println!(
        "plan compile: fresh {fresh_ns:.1} ns/candidate, patch {patch_ns:.1} ns/candidate \
         (+ {diff_ns:.1} ns diff bookkeeping), speedup {patch_speedup:.2}x"
    );
    println!(
        "window layout 1w: AoS {:.1} evals/s, planes {:.1} evals/s, speedup {plane_speedup:.2}x",
        aos_tp.evals_per_sec, planes_tp.evals_per_sec
    );
    println!(
        "reference filters ({size}x{size}, all {}): AoS kernel {:.1} µs/filter, \
         planes {:.1} µs/filter, speedup {filter_speedup:.2}x",
        ReferenceFilter::ALL.len(),
        filter_aos_s * 1e6,
        filter_plane_s * 1e6
    );
    for (workers, evals_per_sec, rate, memo_hits, best) in &evolution {
        println!(
            "evolution {workers}w: {evals_per_sec:.1} evals/s, early-exit rate {:.1}%, \
             {memo_hits} memo hits, best fitness {best}",
            rate * 100.0
        );
    }
    println!(
        "cascade 1w ({cascade_size}x{cascade_size}, 3 stages, {cascade_generations} gens/stage): \
         naive {naive_s:.3}s, compiled {compiled_s:.3}s, speedup {cascade_speedup:.2}x, \
         early-exit rate {:.1}%, {} memo hits, {} evaluations",
        cascade_stats.early_exit_rate() * 100.0,
        cascade_stats.memo_hits,
        compiled_result.evaluations
    );
    println!(
        "service ({service_jobs} evolution jobs, {service_size}x{service_size}, \
         {service_generations} gens): {service_1p:.2} jobs/s @1 platform, \
         {service_2p:.2} jobs/s @2 platforms, scaling {service_scaling:.2}x"
    );
    println!(
        "cross-job cache ({cache_jobs} same-image jobs x2 passes): {} window hits",
        svc_cache_stats.windows_hits
    );
    println!(
        "resilience: schedule compile {schedule_compile_ns:.0} ns/event \
         ({schedule_events} events over {} builtin scenarios); campaign \
         ({resilience_size}x{resilience_size}, 2 arrays): legacy \
         {legacy_campaign_eps:.1} evals/s, scenario layer \
         {scenario_campaign_eps:.1} evals/s, ratio {scenario_vs_legacy:.2}x",
        registry.scenarios().len()
    );
    println!(
        "streaming ({stream_size}x{stream_size}, {stream_frames} frames): \
         {stream_fps:.1} frames/s steady state; shift at frame {shift_frame}: \
         detected +{frames_to_detect}, recovered +{frames_to_recover} \
         ({} adaptations applied); bootstrap to fitness {trained_fitness}: \
         cold {cold_boot_evals} evals, warm {warm_boot_evals} evals, \
         speedup {warm_boot_speedup:.1}x",
        recovery_report.adaptations_applied
    );

    // --- BENCH_evaluation.json ---------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"workload\": {{");
    let _ = writeln!(json, "    \"image\": \"{size}x{size} salt&pepper 40%\",");
    let _ = writeln!(json, "    \"lambda\": {LAMBDA},");
    let _ = writeln!(json, "    \"reps\": {reps},");
    let _ = writeln!(json, "    \"generations\": {generations}");
    let _ = writeln!(json, "  }},");
    let mut tp = |name: &str, t: &Throughput, trailing: &str| {
        let _ = writeln!(json, "  \"{name}\": {{");
        let _ = writeln!(json, "    \"evals_per_sec\": {:.1},", t.evals_per_sec);
        let _ = writeln!(json, "    \"pixels_per_sec\": {:.0}", t.pixels_per_sec);
        let _ = writeln!(json, "  }}{trailing}");
    };
    tp("interpreter_1_worker", &interp, ",");
    tp("compiled_1_worker", &compiled_1w, ",");
    tp("compiled_4_workers", &compiled_4w, ",");
    let _ = writeln!(
        json,
        "  \"speedup_compiled_vs_interpreter_1_worker\": {speedup_1w:.2},"
    );
    let _ = writeln!(json, "  \"plan_compile\": {{");
    let _ = writeln!(json, "    \"fresh_ns_per_candidate\": {fresh_ns:.1},");
    let _ = writeln!(json, "    \"patch_ns_per_candidate\": {patch_ns:.1},");
    let _ = writeln!(json, "    \"diff_ns_per_candidate\": {diff_ns:.1},");
    let _ = writeln!(json, "    \"patch_speedup\": {patch_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"window_layout\": {{");
    let _ = writeln!(
        json,
        "    \"aos_evals_per_sec\": {:.1},",
        aos_tp.evals_per_sec
    );
    let _ = writeln!(
        json,
        "    \"plane_evals_per_sec\": {:.1},",
        planes_tp.evals_per_sec
    );
    let _ = writeln!(json, "    \"plane_speedup\": {plane_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"reference_filters\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"all {} built-in filters, {size}x{size} salt&pepper 40%\",",
        ReferenceFilter::ALL.len()
    );
    let _ = writeln!(
        json,
        "    \"aos_us_per_filter\": {:.1},",
        filter_aos_s * 1e6
    );
    let _ = writeln!(
        json,
        "    \"plane_us_per_filter\": {:.1},",
        filter_plane_s * 1e6
    );
    let _ = writeln!(json, "    \"plane_speedup\": {filter_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cascade\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"{cascade_size}x{cascade_size} salt&pepper 40%, 3 stages, \
         separate/sequential, {cascade_generations} generations per stage\","
    );
    let _ = writeln!(json, "    \"naive_s\": {naive_s:.4},");
    let _ = writeln!(json, "    \"compiled_s\": {compiled_s:.4},");
    let _ = writeln!(
        json,
        "    \"speedup_compiled_vs_naive_1_worker\": {cascade_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "    \"early_exit_rate\": {:.4},",
        cascade_stats.early_exit_rate()
    );
    let _ = writeln!(json, "    \"memo_hits\": {},", cascade_stats.memo_hits);
    let _ = writeln!(json, "    \"evaluations\": {}", compiled_result.evaluations);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"service_throughput\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"{service_jobs} evolution jobs, {service_size}x{service_size} \
         salt&pepper 40%, {service_generations} generations, 1 worker per platform\","
    );
    let _ = writeln!(json, "    \"jobs\": {service_jobs},");
    let _ = writeln!(json, "    \"jobs_per_sec_1_platform\": {service_1p:.2},");
    let _ = writeln!(json, "    \"jobs_per_sec_2_platforms\": {service_2p:.2},");
    let _ = writeln!(json, "    \"scaling_2_platforms\": {service_scaling:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cross_job_cache\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"{cache_jobs} same-image evolution jobs x2 passes, \
         {service_size}x{service_size} salt&pepper 40%, {service_generations} generations\","
    );
    let _ = writeln!(
        json,
        "    \"windows_hits\": {}",
        svc_cache_stats.windows_hits
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"resilience\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"{} builtin scenarios compiled over 2 arrays; \
         single-PE sweep campaign, {resilience_size}x{resilience_size} salt&pepper 40%, \
         2 arrays, 2 recovery generations\",",
        registry.scenarios().len()
    );
    let _ = writeln!(
        json,
        "    \"schedule_compile_ns_per_event\": {schedule_compile_ns:.0},"
    );
    let _ = writeln!(
        json,
        "    \"schedule_compile_events_per_sec\": {:.0},",
        1e9 / schedule_compile_ns.max(1e-9)
    );
    let _ = writeln!(json, "    \"schedule_events\": {schedule_events},");
    let _ = writeln!(
        json,
        "    \"legacy_campaign_evals_per_sec\": {legacy_campaign_eps:.1},"
    );
    let _ = writeln!(
        json,
        "    \"campaign_evals_per_sec\": {scenario_campaign_eps:.1},"
    );
    let _ = writeln!(
        json,
        "    \"scenario_vs_legacy_ratio\": {scenario_vs_legacy:.2}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"streaming\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"{stream_size}x{stream_size} shapes stream, {stream_frames} frames, \
         salt&pepper 10%->50% shift at frame {shift_frame}, {stream_generations} adaptation \
         generations, 1 worker\","
    );
    let _ = writeln!(
        json,
        "    \"frames_per_sec_steady_state\": {stream_fps:.1},"
    );
    let _ = writeln!(json, "    \"shift_frame\": {shift_frame},");
    let _ = writeln!(json, "    \"frames_to_detect\": {frames_to_detect},");
    let _ = writeln!(json, "    \"frames_to_recover\": {frames_to_recover},");
    let _ = writeln!(
        json,
        "    \"adaptations_applied\": {},",
        recovery_report.adaptations_applied
    );
    let _ = writeln!(
        json,
        "    \"cold_bootstrap_evaluations\": {cold_boot_evals},"
    );
    let _ = writeln!(
        json,
        "    \"warm_bootstrap_evaluations\": {warm_boot_evals},"
    );
    let _ = writeln!(
        json,
        "    \"warm_bootstrap_speedup\": {warm_boot_speedup:.2}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"evolution\": [");
    for (i, (workers, evals_per_sec, rate, memo_hits, best)) in evolution.iter().enumerate() {
        let comma = if i + 1 < evolution.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"workers\": {workers}, \"evals_per_sec\": {evals_per_sec:.1}, \
             \"early_exit_rate\": {rate:.4}, \"memo_hits\": {memo_hits}, \
             \"best_fitness\": {best} }}{comma}"
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out, &json).expect("write benchmark summary");
    println!("wrote {out}");
}
