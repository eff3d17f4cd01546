//! The traced run: the run's jobs replayed through each layer's public
//! functions from outside, giving a per-layer time and count table.
//!
//! Spans are recorded in the benchmark's own code around the calls into
//! each layer; nothing inside the program is instrumented.  The run makes
//! these passes over the first half of the run's jobs:
//!
//! 1. an untraced HTTP pass, the end-to-end baseline the traced pass is
//!    compared with;
//! 2. a traced HTTP pass on a fresh server (client-timed round trips), then
//!    the server's cache counters from `/metrics`;
//! 3. an in-process `EhwService` pass (queue wait, service overhead);
//! 4. a direct pass per job: `json::parse`, `wire::decode_spec_with`,
//!    `EhwPlatform::reset`, `jobs::execute`, `wire::encode_result` — its
//!    results are also the correctness references;
//! 5. component loops on the workload's images (array, image, evolution,
//!    parallel, stream and scenario layers).

use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ehw_array::{CompiledArray, Genotype, ProcessingArray};
use ehw_evolution::FitnessEvaluator;
use ehw_image::pgm;
use ehw_image::window::SharedWindows;
use ehw_parallel::{ordered_map_init, ParallelConfig};
use ehw_platform::evo_modes::{EvolutionTask, PlatformEvaluator};
use ehw_platform::jobs;
use ehw_platform::platform::EhwPlatform;
use ehw_server::json::{self, Value};
use ehw_server::wire;
use ehw_service::{EhwService, JobOptions, JobResult, JobSpec, ScenarioRegistry, StreamSourceSpec};
use ehw_stream::{StreamConfig, SyntheticSource};
use rand::SeedSequence;

use crate::digest;
use crate::host::Host;
use crate::load::{self, Load};
use crate::run::{self, format_value, Metric, Outcome, Summary};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workload::{self, JobPlan, Workload};

/// A per-layer metric and the end-to-end metric and workload it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

const WIRE: &str = "latency_p50_ms, jobs_per_s on tiny-jobs; near zero on big-evolve";
const EXECUTE: &str = "latency_p95_ms on mixed";
const EVALUATION: &str = "evals_per_s, latency_p50_ms on big-evolve";

/// Every per-layer metric the traced run reports.
pub const LAYER_METRICS: [LayerMetric; 32] = [
    metric("server.submit_rtt_us", "us", WIRE),
    metric("server.result_rtt_us", "us", WIRE),
    metric(
        "server.metrics_rtt_us",
        "us",
        "jobs_per_s on tiny-jobs, the workload that reads /metrics under load",
    ),
    metric("server.request_bytes", "bytes", WIRE),
    metric("server.json_parse_us", "us", WIRE),
    metric("server.decode_spec_us", "us", WIRE),
    metric("server.encode_result_us", "us", WIRE),
    metric("server.http_overhead_ms", "ms", WIRE),
    metric(
        "service.queue_wait_ms",
        "ms",
        "latency_p50_ms on tiny-jobs (2 clients, 1 shard); about 0 on mixed",
    ),
    metric("service.overhead_ms", "ms", "latency_p50_ms on tiny-jobs"),
    metric("platform.execute_ms.evolution", "ms", EXECUTE),
    metric("platform.execute_ms.cascade", "ms", EXECUTE),
    metric("platform.execute_ms.fault_campaign", "ms", EXECUTE),
    metric("platform.execute_ms.stream", "ms", EXECUTE),
    metric("platform.reset_us", "us", EXECUTE),
    metric(
        "cache.windows_hit_ratio",
        "ratio",
        "evals_per_s on mixed; about 0 on big-evolve",
    ),
    metric(
        "cache.fitness_hit_ratio",
        "ratio",
        "evals_per_s on mixed; about 0 on big-evolve, where only the lock cost remains",
    ),
    metric(
        "cache.fitness_lookups",
        "count",
        "evals_per_s on mixed and big-evolve (each lookup takes the cache lock)",
    ),
    metric("evolution.evaluations_per_job", "count", EVALUATION),
    metric("evolution.early_exit_ratio", "ratio", EVALUATION),
    metric("evolution.memo_hit_ratio", "ratio", EVALUATION),
    metric("evolution.batch_us", "us", EVALUATION),
    metric("array.compile_ns", "ns", "evals_per_s on big-evolve"),
    metric("array.patch_ns", "ns", "evals_per_s on big-evolve"),
    metric("array.diff_ns", "ns", "evals_per_s on big-evolve"),
    metric(
        "array.eval_ns_per_window",
        "ns",
        "evals_per_s on big-evolve",
    ),
    metric(
        "image.windows_build_us",
        "us",
        "latency_p50_ms on big-evolve (every job misses the window cache); small on mixed",
    ),
    metric(
        "image.pgm_decode_us",
        "us",
        "latency_p50_ms on big-evolve; small on mixed",
    ),
    metric(
        "parallel.call_overhead_us",
        "us",
        "latency_p50_ms on big-evolve; none on mixed and tiny-jobs, where 1 worker runs inline",
    ),
    metric(
        "parallel.calls_per_job",
        "count",
        "latency_p50_ms on big-evolve; 0 on mixed and tiny-jobs",
    ),
    metric("stream.frames_per_s", "1/s", EXECUTE),
    metric("scenario.compile_us", "us", EXECUTE),
];

/// `GET /metrics` reads made after the traced pass, so the round trip is
/// measured on workloads that do not read metrics under load.
const METRICS_PROBES: usize = 20;

/// How often an in-process client checks whether its job started.
const QUEUE_POLL: Duration = Duration::from_micros(50);

/// Each component loop runs at least this long, to beat timer noise.
const COMPONENT_MIN: Duration = Duration::from_millis(40);

/// Training images the component loops run on.
const COMPONENT_IMAGES: usize = 4;

/// Probe jobs of absent kinds are executed this many times.
const PROBE_REPEATS: usize = 3;

pub fn traced_run(
    w: &Workload,
    seed: u64,
    host: &Host,
    plans: &[JobPlan],
    warmup: &[JobPlan],
    give_up_after: Duration,
) -> Result<Outcome, String> {
    let plans = &plans[..plans.len().div_ceil(2)];
    let tracer = Tracer::new();

    let (server, setups) = run::setup(w, warmup)?;
    let plain = load::run(&Load {
        addr: server.local_addr(),
        plans,
        clients: w.clients,
        metrics_every: w.metrics_every,
        tracer: None,
        give_up_after,
    });
    drop(server);

    let (server, _) = run::start_server(w, warmup)?;
    let traced = load::run(&Load {
        addr: server.local_addr(),
        plans,
        clients: w.clients,
        metrics_every: w.metrics_every,
        tracer: Some(&tracer),
        give_up_after,
    });
    let probes = load::metrics_probe(server.local_addr(), METRICS_PROBES, Some(&tracer));
    let cache = load::cache_counters(server.local_addr())?;
    drop(server);

    let service = service_pass(w, plans, warmup, &tracer)?;
    let direct = direct_pass(w, plans, &tracer);
    let present: Vec<&str> = plans.iter().map(JobPlan::kind).collect();
    let absent: Vec<&str> = ["evolution", "cascade", "fault_campaign", "stream"]
        .into_iter()
        .filter(|kind| !present.contains(kind))
        .collect();
    let probe_plans = workload::probes(seed, &absent);
    probe_pass(w, &probe_plans, &tracer);
    let components = component_pass(w, seed, plans, &probe_plans, &tracer);

    let references: Vec<Option<u64>> = direct
        .iter()
        .map(|job| Some(digest::digest_result(&job.result)))
        .collect();
    let plain_check = digest::check(&plain.jobs, &references);
    let traced_check = digest::check(&traced.jobs, &references);
    let plain_summary = Summary::of(&plain, &plain_check);
    let traced_summary = Summary::of(&traced, &traced_check);
    let probe_failures = probes.iter().filter(|read| read.outcome.is_err()).count();

    let spans = tracer.spans();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let settled: Vec<&load::JobRecord> = traced.jobs.iter().filter(|j| j.outcome.is_ok()).collect();
    let http_latency = stats::mean(&settled.iter().map(|j| ms(j.latency)).collect::<Vec<_>>());
    let service_latency = stats::mean(&service.iter().map(|j| ms(j.latency)).collect::<Vec<_>>());
    let direct_execute = stats::mean(&direct.iter().map(|j| ms(j.execute)).collect::<Vec<_>>());
    let metrics_rtts: Vec<f64> = traced
        .metrics
        .iter()
        .chain(&probes)
        .filter(|read| read.outcome.is_ok())
        .map(|read| us(read.rtt))
        .collect();
    let evolutions: Vec<&JobResult> = direct
        .iter()
        .zip(plans)
        .filter(|(_, plan)| plan.kind() == "evolution")
        .map(|(job, _)| &job.result)
        .collect();
    let engine = evolutions.iter().fold([0u64; 3], |sum, result| {
        [
            sum[0] + result.stats.plans_evaluated,
            sum[1] + result.stats.memo_hits,
            sum[2] + result.stats.early_exits,
        ]
    });
    let generations: Vec<f64> = evolutions
        .iter()
        .filter_map(|result| result.as_evolution())
        .map(|(evolution, _)| evolution.generations_run as f64)
        .collect();
    let ratio = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    let execute_ms = |kind: &str| trace::mean_us(&spans, execute_span(kind)) / 1e3;

    let values: Vec<(&str, f64)> = vec![
        (
            "server.submit_rtt_us",
            stats::mean(&settled.iter().map(|j| us(j.submit_rtt)).collect::<Vec<_>>()),
        ),
        (
            "server.result_rtt_us",
            stats::mean(&settled.iter().map(|j| us(j.result_rtt)).collect::<Vec<_>>()),
        ),
        ("server.metrics_rtt_us", stats::mean(&metrics_rtts)),
        (
            "server.request_bytes",
            stats::mean(
                &traced
                    .jobs
                    .iter()
                    .map(|j| j.request_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "server.json_parse_us",
            trace::mean_us(&spans, "server.json_parse"),
        ),
        (
            "server.decode_spec_us",
            trace::mean_us(&spans, "server.decode_spec"),
        ),
        (
            "server.encode_result_us",
            trace::mean_us(&spans, "server.encode_result"),
        ),
        ("server.http_overhead_ms", http_latency - service_latency),
        (
            "service.queue_wait_ms",
            stats::mean(&service.iter().map(|j| ms(j.queue_wait)).collect::<Vec<_>>()),
        ),
        ("service.overhead_ms", service_latency - direct_execute),
        ("platform.execute_ms.evolution", execute_ms("evolution")),
        ("platform.execute_ms.cascade", execute_ms("cascade")),
        (
            "platform.execute_ms.fault_campaign",
            execute_ms("fault_campaign"),
        ),
        ("platform.execute_ms.stream", execute_ms("stream")),
        (
            "platform.reset_us",
            trace::mean_us(&spans, "platform.reset"),
        ),
        (
            "cache.windows_hit_ratio",
            ratio(
                cache.windows_hits,
                cache.windows_hits + cache.windows_misses,
            ),
        ),
        (
            "cache.fitness_hit_ratio",
            ratio(
                cache.fitness_hits,
                cache.fitness_hits + cache.fitness_misses,
            ),
        ),
        (
            "cache.fitness_lookups",
            (cache.fitness_hits + cache.fitness_misses) as f64,
        ),
        (
            "evolution.evaluations_per_job",
            stats::mean(
                &evolutions
                    .iter()
                    .map(|r| r.evaluations as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("evolution.early_exit_ratio", ratio(engine[2], engine[0])),
        (
            "evolution.memo_hit_ratio",
            ratio(engine[1], engine[0] + engine[1]),
        ),
        ("evolution.batch_us", components.batch_us),
        ("array.compile_ns", components.compile_ns),
        ("array.patch_ns", components.patch_ns),
        ("array.diff_ns", components.diff_ns),
        ("array.eval_ns_per_window", components.eval_ns_per_window),
        ("image.windows_build_us", components.windows_build_us),
        ("image.pgm_decode_us", components.pgm_decode_us),
        ("parallel.call_overhead_us", components.call_overhead_us),
        // One λ-batch per generation goes through the pool; with one worker
        // it runs inline and spawns nothing.
        (
            "parallel.calls_per_job",
            if w.workers_per_platform > 1 {
                stats::mean(&generations)
            } else {
                0.0
            },
        ),
        ("stream.frames_per_s", components.frames_per_s),
        ("scenario.compile_us", components.scenario_compile_us),
    ];
    let metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|layer| Metric {
            name: layer.name,
            unit: layer.unit,
            value: values
                .iter()
                .find(|(name, _)| *name == layer.name)
                .map_or(f64::NAN, |&(_, value)| value),
        })
        .collect();

    let spans_path = PathBuf::from(format!(".bench_out/spans-{}-seed{seed}.jsonl", w.name));
    let spans_note = match trace::write_jsonl(&spans_path, &spans) {
        Ok(()) => format!(
            "# {} spans written to {}",
            spans.len(),
            spans_path.display()
        ),
        Err(error) => format!("# spans not written to {}: {error}", spans_path.display()),
    };

    let mut lines = vec![
        host.line(),
        format!(
            "# traced run of {}, seed {seed}: every pass runs the first {} of the run's jobs",
            w.name,
            plans.len()
        ),
        "# layer table (self = span time minus the part its child spans cover):".into(),
        format!(
            "  {:<36} {:>7} {:>11} {:>11} {:>11}",
            "span", "count", "total ms", "self ms", "mean us"
        ),
    ];
    for row in trace::layer_table(&spans) {
        lines.push(format!(
            "  {:<36} {:>7} {:>11.3} {:>11.3} {:>11.2}",
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.total_ns as f64 / 1e3 / row.count as f64
        ));
    }
    lines
        .push("# per-layer metrics -> the end-to-end metric and workload each should move:".into());
    for (layer, value) in LAYER_METRICS.iter().zip(&metrics) {
        lines.push(format!(
            "  {:<36} {:>14} {:<6} -> {}",
            layer.name,
            format_value(value.value),
            layer.unit,
            layer.moves
        ));
    }
    lines.push(
        "# end to end, untraced pass vs traced pass (the difference is the tracing overhead):"
            .into(),
    );
    for (name, untraced, traced) in [
        (
            "jobs_per_s",
            plain_summary.jobs_per_s,
            traced_summary.jobs_per_s,
        ),
        (
            "evals_per_s",
            plain_summary.evals_per_s,
            traced_summary.evals_per_s,
        ),
        (
            "latency_p50_ms",
            plain_summary.latency_p50_ms,
            traced_summary.latency_p50_ms,
        ),
        (
            "latency_p95_ms",
            plain_summary.latency_p95_ms,
            traced_summary.latency_p95_ms,
        ),
    ] {
        lines.push(format!(
            "  {name:<16} {:>12} {:>12} {:>+8.2}%",
            format_value(untraced),
            format_value(traced),
            (traced / untraced - 1.0) * 100.0
        ));
    }
    lines.push(format!(
        "  setup_s (untraced set-up median) {}",
        format_value(stats::median(&setups))
    ));
    lines.push(format!(
        "# correctness: {} + {} HTTP results checked against the direct pass, {} mismatches",
        plain_check.results,
        traced_check.results,
        plain_check.mismatches.len() + traced_check.mismatches.len()
    ));
    lines.extend(
        plain
            .failures()
            .chain(traced.failures())
            .take(5)
            .map(|why| format!("# failure: {why}")),
    );
    lines.push(spans_note);

    let attempted = plain_summary.attempted + traced_summary.attempted + probes.len();
    let failed = plain_summary.failed + traced_summary.failed + probe_failures;
    Ok(Outcome {
        report: lines,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn execute_span(kind: &str) -> &'static str {
    match kind {
        "evolution" => "platform.execute.evolution",
        "cascade" => "platform.execute.cascade",
        "fault_campaign" => "platform.execute.fault_campaign",
        _ => "platform.execute.stream",
    }
}

struct ServiceJob {
    latency: Duration,
    queue_wait: Duration,
}

/// Runs the jobs through an in-process service shaped like the server's,
/// with the same closed-loop client count and the same warm-up.
fn service_pass(
    w: &Workload,
    plans: &[JobPlan],
    warmup: &[JobPlan],
    tracer: &Tracer,
) -> Result<Vec<ServiceJob>, String> {
    let service = EhwService::new(w.service_config()).map_err(|e| e.to_string())?;
    for plan in warmup {
        let handle = service.submit(plan.spec()).map_err(|e| e.to_string())?;
        handle.wait().map_err(|e| e.to_string())?;
    }
    let cursor = AtomicUsize::new(0);
    let finished: Vec<Result<ServiceJob, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..w.clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(plan) = plans.get(index) else { break };
                        done.push(service_job(&service, plan, index, tracer));
                    }
                    done
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("service client panicked"))
            .collect()
    });
    finished.into_iter().collect()
}

fn service_job(
    service: &EhwService,
    plan: &JobPlan,
    index: usize,
    tracer: &Tracer,
) -> Result<ServiceJob, String> {
    let spec = plan.spec();
    let root = tracer.begin("service.job", None, Some(index));
    let submitted = Instant::now();
    let handle = service
        .submit_with(spec, JobOptions::default())
        .map_err(|e| e.to_string())?;
    let monitor = handle.monitor();
    let mut early = None;
    let running = loop {
        if monitor.is_running() {
            break Instant::now();
        }
        match handle.try_wait() {
            Ok(Some(result)) => {
                early = Some(result);
                break Instant::now();
            }
            Ok(None) => std::thread::sleep(QUEUE_POLL),
            Err(lost) => return Err(lost.to_string()),
        }
    };
    let result = match early {
        Some(result) => result,
        None => handle.wait().map_err(|e| e.to_string())?,
    };
    let settled = Instant::now();
    tracer.record(
        "service.queue_wait",
        submitted,
        running,
        Some(root),
        Some(index),
    );
    tracer.record("service.run", running, settled, Some(root), Some(index));
    tracer.end(root);
    if result.is_failed() || result.is_cancelled() {
        return Err(format!("in-process job {index} did not complete"));
    }
    Ok(ServiceJob {
        latency: settled - submitted,
        queue_wait: running - submitted,
    })
}

struct DirectJob {
    result: JobResult,
    execute: Duration,
}

/// Replays each job through the server's codec and the platform directly,
/// recycling one platform per array count as a service shard does.
fn direct_pass(w: &Workload, plans: &[JobPlan], tracer: &Tracer) -> Vec<DirectJob> {
    let registry = ScenarioRegistry::builtin();
    let parallel = ParallelConfig::with_workers(w.workers_per_platform);
    let mut platforms: HashMap<usize, EhwPlatform> = HashMap::new();
    let mut body = Vec::new();
    plans
        .iter()
        .enumerate()
        .map(|(index, plan)| {
            let job = Some(index);
            let root = tracer.begin("replay.job", None, job);
            body.clear();
            plan.write_body(&mut body);
            let text = std::str::from_utf8(&body).expect("job bodies are UTF-8");
            let mut doc = tracer
                .span("server.json_parse", Some(root), job, || json::parse(text))
                .expect("job bodies are valid JSON");
            // `POST /streams` fills in the kind before decoding.
            if let (Value::Object(pairs), "/streams") = (&mut doc, plan.path()) {
                pairs.push(("kind".into(), Value::String("stream".into())));
            }
            let decoded = tracer.span("server.decode_spec", Some(root), job, || {
                wire::decode_spec_with(&doc, &registry)
            });
            black_box(decoded.expect("job bodies decode"));
            let spec = plan.spec();
            let arrays = spec.arrays_needed();
            let mut platform = match platforms.remove(&arrays) {
                Some(mut platform) => {
                    tracer.span("platform.reset", Some(root), job, || platform.reset());
                    platform
                }
                None => EhwPlatform::with_parallel(arrays, parallel),
            };
            let started = Instant::now();
            let result = tracer.span(execute_span(plan.kind()), Some(root), job, || {
                jobs::execute(&mut platform, &spec, plan.seed)
            });
            let execute = started.elapsed();
            platforms.insert(arrays, platform);
            black_box(tracer.span("server.encode_result", Some(root), job, || {
                wire::encode_result(&result).to_json()
            }));
            tracer.end(root);
            DirectJob { result, execute }
        })
        .collect()
}

/// Executes the probe jobs of kinds the workload never submits.
fn probe_pass(w: &Workload, probes: &[JobPlan], tracer: &Tracer) {
    let parallel = ParallelConfig::with_workers(w.workers_per_platform);
    for plan in probes {
        let spec = plan.spec();
        for _ in 0..PROBE_REPEATS {
            let mut platform = EhwPlatform::with_parallel(spec.arrays_needed(), parallel);
            black_box(tracer.span(execute_span(plan.kind()), None, None, || {
                jobs::execute(&mut platform, &spec, plan.seed)
            }));
        }
    }
}

/// Calls `f` in doubling batches inside one span until [`COMPONENT_MIN`]
/// has passed; returns seconds per call.
fn per_call<R>(tracer: &Tracer, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    let id = tracer.begin(name, None, None);
    let started = Instant::now();
    let mut calls = 0u64;
    let mut batch = 1u64;
    while started.elapsed() < COMPONENT_MIN {
        for _ in 0..batch {
            black_box(f());
        }
        calls += batch;
        batch = (batch * 2).min(1 << 14);
    }
    let seconds = started.elapsed().as_secs_f64();
    tracer.end(id);
    seconds / calls as f64
}

struct Components {
    pgm_decode_us: f64,
    windows_build_us: f64,
    compile_ns: f64,
    patch_ns: f64,
    diff_ns: f64,
    eval_ns_per_window: f64,
    batch_us: f64,
    call_overhead_us: f64,
    frames_per_s: f64,
    scenario_compile_us: f64,
}

fn component_pass(
    w: &Workload,
    seed: u64,
    plans: &[JobPlan],
    probes: &[JobPlan],
    tracer: &Tracer,
) -> Components {
    let mut rng = SeedSequence::new(seed).fork(u64::MAX).rng();
    let parallel = ParallelConfig::with_workers(w.workers_per_platform);
    let all: Vec<&JobPlan> = plans.iter().chain(probes).collect();

    let mut pairs = Vec::new();
    for plan in &all {
        if let Some(pair) = plan.pair() {
            if pairs.len() < COMPONENT_IMAGES
                && !pairs
                    .iter()
                    .any(|p: &&workload::Pair| std::sync::Arc::ptr_eq(&p.input, &pair.input))
            {
                pairs.push(pair);
            }
        }
    }

    let parents: Vec<Genotype> = (0..64).map(|_| Genotype::random(&mut rng)).collect();
    let children: Vec<Genotype> = parents.iter().map(|p| p.mutated(3, &mut rng)).collect();
    let diffs: Vec<_> = children
        .iter()
        .zip(&parents)
        .map(|(c, p)| c.diff_from(p))
        .collect();
    let array = ProcessingArray::identity();
    let mut plans_compiled: Vec<CompiledArray> =
        parents.iter().map(|p| array.compile_with(p)).collect();

    let mut k = 0usize;
    let compile_ns = per_call(tracer, "array.compile", || {
        k += 1;
        array.compile_with(&children[k % 64])
    }) * 1e9;
    let diff_ns = per_call(tracer, "array.diff", || {
        k += 1;
        children[k % 64].diff_from(&parents[k % 64])
    }) * 1e9;
    let patch_ns = per_call(tracer, "array.patch", || {
        k += 1;
        let i = k % 64;
        plans_compiled[i].apply(&diffs[i]);
        plans_compiled[i].revert(&diffs[i]);
    }) * 1e9;

    let mut pgm_decode = Vec::new();
    let mut windows_build = Vec::new();
    let mut eval_window = Vec::new();
    let mut batch = Vec::new();
    for pair in &pairs {
        let input = &pair.input.image;
        let bytes = pgm::encode_p5(input);
        pgm_decode.push(per_call(tracer, "image.pgm_decode", || pgm::decode(&bytes)) * 1e6);
        windows_build
            .push(per_call(tracer, "image.windows_build", || SharedWindows::new(input)) * 1e6);

        let windows = SharedWindows::new(input);
        let plan = array.compile_with(&parents[0]);
        let mut out = vec![0u8; windows.len()];
        let per_image = per_call(tracer, "array.eval", || {
            plan.evaluate_planes_into(windows.planes(), 0, &mut out);
            out[0]
        });
        eval_window.push(per_image * 1e9 / windows.len() as f64);

        let platform = EhwPlatform::with_parallel(1, parallel);
        let task = EvolutionTask::new(input.clone(), pair.reference.image.clone());
        let mut evaluator = PlatformEvaluator::new(&platform, &task);
        let parent = Genotype::random(&mut rng);
        let fitness = evaluator.evaluate(&parent);
        let batches: Vec<Vec<Genotype>> = (0..16)
            .map(|_| (0..9).map(|_| parent.mutated(3, &mut rng)).collect())
            .collect();
        let mut n = 0usize;
        batch.push(
            per_call(tracer, "evolution.batch", || {
                n += 1;
                evaluator.evaluate_batch_bounded(
                    &batches[n % 16],
                    Some(fitness),
                    Some((&parent, fitness)),
                    parallel,
                )
            }) * 1e6,
        );
    }

    let items = [0u64; 9];
    let pool_call = |workers: usize, name: &'static str| {
        per_call(tracer, name, || {
            ordered_map_init(
                ParallelConfig::with_workers(workers),
                &items,
                || (),
                |_, i, x| x + i as u64,
            )
        })
    };
    let call_overhead_us =
        (pool_call(2, "parallel.call.2_workers") - pool_call(1, "parallel.call.1_worker")) * 1e6;

    let streams: Vec<(JobSpec, u64)> = all
        .iter()
        .filter(|plan| plan.kind() == "stream")
        .map(|plan| (plan.spec(), plan.seed))
        .collect();
    let frames_per_s = stream_rate(&streams, parallel, tracer);

    let campaigns: Vec<(JobSpec, u64)> = all
        .iter()
        .filter(|plan| plan.kind() == "fault_campaign")
        .map(|plan| (plan.spec(), plan.seed))
        .collect();
    let mut scenario_compile = Vec::new();
    for (spec, seed) in campaigns.iter().take(COMPONENT_IMAGES) {
        if let JobSpec::FaultCampaign(campaign) = spec {
            let mut salt = 0u64;
            scenario_compile.push(
                per_call(tracer, "scenario.compile", || {
                    salt += 1;
                    campaign.scenario().compile(campaign.arrays(), seed ^ salt)
                }) * 1e6,
            );
        }
    }
    Components {
        pgm_decode_us: stats::mean(&pgm_decode),
        windows_build_us: stats::mean(&windows_build),
        compile_ns,
        patch_ns,
        diff_ns,
        eval_ns_per_window: stats::mean(&eval_window),
        batch_us: stats::mean(&batch),
        call_overhead_us,
        frames_per_s,
        scenario_compile_us: stats::mean(&scenario_compile),
    }
}

/// Frames per second of `run_stream` over the stream specs, cycling through
/// them until [`COMPONENT_MIN`] has passed.
fn stream_rate(streams: &[(JobSpec, u64)], parallel: ParallelConfig, tracer: &Tracer) -> f64 {
    let mut frames = 0usize;
    let started = Instant::now();
    for (spec, seed) in streams.iter().cycle() {
        let JobSpec::Stream(stream) = spec else {
            continue;
        };
        let StreamSourceSpec::Synthetic {
            scene,
            width,
            height,
            frames: count,
            schedule,
        } = stream.source()
        else {
            continue;
        };
        let mut source = SyntheticSource::new(
            *scene,
            *width,
            *height,
            *count,
            schedule.clone(),
            SeedSequence::new(*seed).fork(0).seed(),
        )
        .expect("generated stream sources are valid");
        let config = StreamConfig {
            seed: *seed,
            drift: *stream.drift(),
            adaptation: *stream.adaptation(),
            parallel,
        };
        let report = tracer.span("stream.run", None, None, || {
            ehw_stream::run_stream(
                &mut source,
                stream.initial().cloned(),
                None,
                &config,
                &mut |_| {},
                &|| false,
            )
        });
        frames += report.frames;
        if started.elapsed() >= COMPONENT_MIN {
            break;
        }
    }
    frames as f64 / started.elapsed().as_secs_f64()
}
