//! Shared helpers for the experiment binaries and Criterion benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section (§VI); this library provides the common pieces: command
//! line parsing (`--runs`, `--generations`, …), workload construction (the
//! synthetic stand-ins for the paper's 128×128 / 256×256 camera images with
//! 40 % salt & pepper noise) and plain-text table printing so results can be
//! diffed against EXPERIMENTS.md.
//!
//! [`oracle`] holds the reference implementations the production fast paths
//! are pinned to: the equivalence suites, the benches and the figure
//! binaries' `--naive` mode run them.

pub mod oracle;

use ehw_image::image::GrayImage;
use ehw_image::noise::NoiseModel;
use ehw_image::synth;
use ehw_parallel::ParallelConfig;
use ehw_platform::evo_modes::{CascadeResult, EvolutionTask};
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;
use ehw_service::{EhwService, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parses `--name=value` (usize) from the process arguments, falling back to
/// `default`.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let prefix = format!("--{name}=");
    std::env::args()
        .find_map(|a| a.strip_prefix(&prefix).and_then(|v| v.parse().ok()))
        .unwrap_or(default)
}

/// Parses `--name=value` (f64) from the process arguments.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    let prefix = format!("--{name}=");
    std::env::args()
        .find_map(|a| a.strip_prefix(&prefix).and_then(|v| v.parse().ok()))
        .unwrap_or(default)
}

/// `true` if `--name` was passed as a bare flag.
pub fn arg_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// The host-parallelism knob shared by every experiment binary: `--workers=`
/// from the command line, falling back to `EHW_WORKERS` / the host's
/// available parallelism.  Worker count is scheduling only — every figure is
/// byte-identical at any setting; only wall-clock time changes.
pub fn arg_parallel() -> ParallelConfig {
    ParallelConfig::with_workers(arg_usize("workers", ParallelConfig::from_env().workers))
}

/// Which implementation runs a figure binary's cascades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadeEngine {
    /// [`oracle::run_cascade`] on a local platform: per-candidate chain
    /// refiltering.
    Naive,
    /// The platform's cascade jobs (the compiled engine).
    Compiled,
}

impl CascadeEngine {
    /// Runs a cascade spec on `platform` with this engine, seeded as
    /// `ehw_platform::jobs::execute` seeds it.
    pub fn run(self, platform: &mut EhwPlatform, spec: &JobSpec, seed: u64) -> CascadeResult {
        match self {
            CascadeEngine::Naive => oracle::run_cascade(platform, spec, seed),
            CascadeEngine::Compiled => execute(platform, spec, seed)
                .as_cascade()
                .expect("cascade job")
                .clone(),
        }
    }
}

/// The cascade-engine knob shared by the cascade figure binaries: `--naive`
/// runs the cascades through the oracle, the default through the job path.
/// Results are byte-identical either way; only wall-clock time changes.
pub fn arg_cascade_engine() -> CascadeEngine {
    if arg_flag("naive") {
        CascadeEngine::Naive
    } else {
        CascadeEngine::Compiled
    }
}

/// The one shared argument bundle of the experiment binaries.
///
/// Every figure binary used to copy-paste the same handful of
/// `arg_usize`/`arg_parallel`/`arg_cascade_engine` lines; this struct parses
/// them once — `--runs=`, `--generations=`, `--size=`, `--workers=`,
/// `--naive`, `--platforms=`, `--queue-depth=` — and routes the
/// parallelism/pool knobs into a [`ServiceConfig`], so the binaries exercise
/// the same serving path production traffic takes.  Binary-specific flags
/// stay next to the binary.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentArgs {
    /// `--runs=` (independent repetitions of the experiment).
    pub runs: usize,
    /// `--generations=`.
    pub generations: usize,
    /// `--size=` (square image side).
    pub size: usize,
    /// `--workers=` / `EHW_WORKERS`.
    pub parallel: ParallelConfig,
    /// `--naive` flag → the oracle cascade engine.
    pub engine: CascadeEngine,
    /// `--platforms=` (service pool shards; default 1).
    pub platforms: usize,
    /// `--queue-depth=` (service backpressure depth; default 2 × platforms).
    pub queue_depth: usize,
}

impl ExperimentArgs {
    /// Parses the shared flags with binary-specific defaults for the
    /// experiment shape (`runs`, `generations`, `size`).
    pub fn parse(default_runs: usize, default_generations: usize, default_size: usize) -> Self {
        let platforms = arg_usize("platforms", 1).max(1);
        ExperimentArgs {
            runs: arg_usize("runs", default_runs),
            generations: arg_usize("generations", default_generations),
            size: arg_usize("size", default_size),
            parallel: arg_parallel(),
            engine: arg_cascade_engine(),
            platforms,
            queue_depth: arg_usize("queue-depth", platforms * 2).max(1),
        }
    }

    /// The service sizing these arguments describe: `--platforms=` shards ×
    /// `--workers=` workers each, `--queue-depth=` backpressure.
    pub fn service_config(&self, seed: u64) -> ServiceConfig {
        ServiceConfig::new(self.platforms)
            .workers_per_platform(self.parallel.workers)
            .queue_depth(self.queue_depth)
            .seed(seed)
    }

    /// Starts an [`EhwService`] sized from these arguments.
    pub fn service(&self, seed: u64) -> EhwService {
        EhwService::new(self.service_config(seed)).expect("experiment service config is valid")
    }

    /// A platform honouring the shared `--workers=` knob, for binaries that
    /// drive the legacy entry points directly.
    pub fn platform(&self, arrays: usize) -> EhwPlatform {
        EhwPlatform::with_parallel(arrays, self.parallel)
    }
}

/// The Fig. 16/17 adapted-cascade sweep: for each of the two schedules,
/// `args.runs` three-stage cascade jobs (λ = 9, k = 2) with pinned seeds
/// `schedule_seed_base + run` over the tasks
/// `denoise_task(args.size, 0.4, task_seed_base + run)`.  Runs them as one
/// service batch, or through the naive oracle under `--naive`, and returns
/// each run's per-stage chain fitness in `[sequential runs…, interleaved
/// runs…]` order, so both figure binaries stay in lockstep by construction.
pub fn cascade_sweep(
    args: &ExperimentArgs,
    task_seed_base: u64,
    sequential_seed_base: u64,
    interleaved_seed_base: u64,
) -> Vec<Vec<u64>> {
    let specs = cascade_sweep_specs(
        args,
        task_seed_base,
        sequential_seed_base,
        interleaved_seed_base,
    );
    match args.engine {
        CascadeEngine::Compiled => {
            let results = args
                .service(0)
                .run_batch(specs)
                .expect("service accepts the batch");
            results
                .iter()
                .map(|result| {
                    // A failed job has an empty history; the figures would
                    // then silently average or rank fewer runs than
                    // requested — fail loudly instead.
                    assert!(!result.is_failed(), "cascade job {} failed", result.job_id);
                    result.history().to_vec()
                })
                .collect()
        }
        CascadeEngine::Naive => specs
            .iter()
            .map(|spec| {
                let seed = spec.seed().expect("sweep seeds are pinned");
                CascadeEngine::Naive
                    .run(&mut args.platform(3), spec, seed)
                    .stage_fitness
            })
            .collect(),
    }
}

fn cascade_sweep_specs(
    args: &ExperimentArgs,
    task_seed_base: u64,
    sequential_seed_base: u64,
    interleaved_seed_base: u64,
) -> Vec<JobSpec> {
    use ehw_platform::modes::CascadeSchedule;
    let mut specs = Vec::new();
    for &(schedule, seed_base) in &[
        (CascadeSchedule::Sequential, sequential_seed_base),
        (CascadeSchedule::Interleaved, interleaved_seed_base),
    ] {
        for run in 0..args.runs {
            let task = denoise_task(args.size, 0.4, task_seed_base + run as u64);
            specs.push(
                JobSpec::cascade(task.input, task.reference)
                    .stages(3)
                    .generations(args.generations)
                    .mutation_rate(2)
                    .schedule(schedule)
                    .seed(seed_base + run as u64)
                    .build()
                    .expect("valid cascade spec"),
            );
        }
    }
    specs
}

/// The salt & pepper denoising workload the paper evaluates on: a synthetic
/// scene of the given size corrupted with the given noise density.
pub fn denoise_task(size: usize, density: f64, seed: u64) -> EvolutionTask {
    let clean = clean_scene(size);
    let mut rng = StdRng::seed_from_u64(seed);
    let noisy = NoiseModel::SaltPepper { density }.apply(&clean, &mut rng);
    EvolutionTask::new(noisy, clean)
}

/// The clean scene of the given size (for tasks that need it separately).
pub fn clean_scene(size: usize) -> GrayImage {
    match size {
        128 => synth::paper_scene_128(),
        256 => synth::paper_scene_256(),
        _ => synth::shapes(size, size, 5),
    }
}

/// Prints a fixed-width text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in rows {
        line(row);
    }
}

/// Prints the standard experiment banner with the scaled-down defaults so
/// readers know how the run compares with the paper's 50 × 100 000 budget.
pub fn banner(figure: &str, description: &str, runs: usize, generations: usize) {
    println!("==============================================================");
    println!("{figure}: {description}");
    println!(
        "runs = {runs}, generations = {generations} (paper: 50 runs x 100,000 generations; \
         use --runs=/--generations= to change)"
    );
    println!("==============================================================");
}

/// Formats seconds with a sensible unit (sign-preserving).
pub fn fmt_time(seconds: f64) -> String {
    let magnitude = seconds.abs();
    if magnitude >= 1.0 {
        format!("{seconds:.2} s")
    } else if magnitude >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.2} us", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denoise_task_has_requested_size_and_noise() {
        let task = denoise_task(64, 0.4, 1);
        assert_eq!(task.input.width(), 64);
        assert_eq!(task.reference.height(), 64);
        assert_ne!(task.input, task.reference);
        let paper = denoise_task(128, 0.4, 1);
        assert_eq!(paper.input.width(), 128);
    }

    #[test]
    fn fmt_time_selects_unit() {
        assert!(fmt_time(2.5).ends_with(" s"));
        assert!(fmt_time(0.002).ends_with(" ms"));
        assert!(fmt_time(0.000002).ends_with(" us"));
    }

    #[test]
    fn arg_parsers_fall_back_to_defaults() {
        assert_eq!(arg_usize("definitely-not-passed", 7), 7);
        assert_eq!(arg_f64("definitely-not-passed", 0.5), 0.5);
        assert!(!arg_flag("definitely-not-passed"));
        assert_eq!(arg_cascade_engine(), CascadeEngine::Compiled);
    }

    #[test]
    fn experiment_args_fall_back_to_defaults_and_build_a_valid_service_config() {
        let args = ExperimentArgs::parse(3, 100, 64);
        assert_eq!(args.runs, 3);
        assert_eq!(args.generations, 100);
        assert_eq!(args.size, 64);
        assert_eq!(args.platforms, 1);
        assert_eq!(args.queue_depth, 2);
        assert_eq!(args.engine, CascadeEngine::Compiled);
        let cfg = args.service_config(9);
        assert_eq!(cfg.platforms, 1);
        assert_eq!(cfg.workers_per_platform, args.parallel.workers);
        assert_eq!(cfg.seed, 9);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn table_printing_does_not_panic_on_ragged_rows() {
        print_table(
            &["a", "b"],
            &[
                vec!["1".into(), "2".into(), "extra".into()],
                vec!["x".into()],
            ],
        );
    }
}
