//! The job path: one typed request format for every workload the platform
//! serves.
//!
//! Every workload — single-filter and parallel evolution, cascades, fault
//! campaigns and streams — is *data* here:
//!
//! * [`JobSpec`] — a validated, self-contained description of one unit of
//!   service work (an evolution, a cascade, a fault campaign or a stream),
//!   built through builder types that check λ, generation budgets and image
//!   shapes at **construction**, returning [`SpecError`] instead of panicking
//!   once the job is already holding a platform,
//! * [`execute`] — the single execution path: given a platform and a seed it
//!   runs any spec kind and returns a [`JobResult`],
//! * [`JobResult`] — a uniform result envelope: every job kind reports its
//!   genotype(s), fitness history, candidate-evaluation count and
//!   [`EngineStats`] the same way, with the kind-specific payload preserved
//!   in [`JobOutput`].
//!
//! Callers build a spec and either run it on a platform they own with
//! [`execute`] — the tests, examples and experiment binaries do — or submit
//! it to the `ehw-service` front-end, which multiplexes jobs over a sharded
//! pool of platforms and reaches the same code through
//! [`execute_controlled_cached`].
//!
//! # Determinism
//!
//! A job's outcome is a pure function of `(spec, seed, platform shape)`:
//! worker counts, queue order and pool size are scheduling only.  The service
//! layer derives the seed of job `n` from its root [`rand::SeedSequence`] as
//! `root.fork(n)` unless the spec pins one, so a batch of submitted jobs is
//! byte-reproducible end to end (`tests/property_service_equivalence.rs`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use ehw_array::genotype::{Genotype, ARRAY_ROWS, TOTAL_GENES};
use ehw_evolution::fitness::EngineStats;
use ehw_evolution::strategy::{
    run_evolution, EsConfig, EvolutionResult, GenerationObserver, MutationStrategy,
};
use ehw_image::image::GrayImage;
use ehw_stream::{
    AdaptationConfig, DriftConfig, FrameSource, NoiseSegment, PgmDirSource, SceneKind,
    StreamConfig, StreamEvent, StreamReport, SyntheticSource,
};

use crate::evo_modes::{
    CascadeConfig, CascadeInit, CascadeResult, EvolutionTask, PlatformEvaluator,
};
use crate::fault_campaign::CampaignReport;
use crate::modes::{CascadeFitness, CascadeSchedule};
use crate::platform::{EhwPlatform, MAX_ARRAYS};
use crate::scenario::FaultScenario;
use crate::self_healing::{RecoveryPolicy, RecoveryStep};
use crate::timing::{EvolutionTimeEstimate, PipelineTimer};

// ---------------------------------------------------------------------------
// Validation errors
// ---------------------------------------------------------------------------

/// Why a job specification was rejected at construction.
///
/// Every variant carries the offending values, so a service front-end can
/// relay the message to a remote client without extra context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Training input and reference images have different shapes.
    ImageShapeMismatch {
        /// `(width, height)` of the training input.
        input: (usize, usize),
        /// `(width, height)` of the reference.
        reference: (usize, usize),
    },
    /// λ (offspring per generation) must be at least 1.
    ZeroOffspring,
    /// λ exceeds [`MAX_OFFSPRING`]: every generation holds its whole
    /// offspring batch in memory.
    TooManyOffspring {
        /// What the spec asked for.
        offspring: usize,
        /// The cap ([`MAX_OFFSPRING`]).
        max: usize,
    },
    /// The job's pixel evaluations ([`JobSpec::work`]) exceed
    /// [`MAX_JOB_WORK`].
    TooMuchWork {
        /// What the spec asks for, saturated at `u64::MAX`.
        work: u64,
        /// The cap ([`MAX_JOB_WORK`]).
        max: u64,
    },
    /// The generation budget must be at least 1.
    ZeroGenerations,
    /// A mutation rate exceeds the genotype's gene count: mutating draws
    /// that many genes per offspring, so a larger rate only costs time.
    MutationRateTooHigh {
        /// What the spec asked for.
        rate: usize,
        /// The genes in a genotype ([`TOTAL_GENES`]).
        max: usize,
    },
    /// The requested array/stage count is outside `1..=MAX_ARRAYS`.
    BadArrayCount {
        /// What the spec asked for.
        requested: usize,
        /// The floorplan limit ([`MAX_ARRAYS`]).
        max: usize,
    },
    /// A fault campaign must target at least one array.
    EmptyCampaign,
    /// A campaign target index is outside the platform the spec describes.
    CampaignArrayOutOfRange {
        /// The out-of-range target.
        array: usize,
        /// Number of arrays the campaign platform has.
        arrays: usize,
    },
    /// A by-name scenario reference did not resolve against the registry.
    UnknownScenario {
        /// The unresolved name.
        name: String,
    },
    /// A by-name recovery-policy reference did not resolve against the
    /// registry.
    UnknownPolicy {
        /// The unresolved name.
        name: String,
    },
    /// The campaign's fault scenario is malformed (carries the rendered
    /// [`ScenarioError`](crate::scenario::ScenarioError)).
    InvalidScenario {
        /// Why the scenario was rejected.
        reason: String,
    },
    /// The campaign's recovery-policy ladder is malformed (carries the
    /// rendered [`PolicyError`](crate::self_healing::PolicyError)).
    InvalidPolicy {
        /// Why the ladder was rejected.
        reason: String,
    },
    /// The stream's frame source, drift detector or adaptation budget is
    /// malformed (carries the rendered
    /// [`SourceError`](ehw_stream::SourceError) or parameter check).
    InvalidStream {
        /// Why the stream spec was rejected.
        reason: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ImageShapeMismatch { input, reference } => write!(
                f,
                "training input is {}x{} but the reference is {}x{}",
                input.0, input.1, reference.0, reference.1
            ),
            SpecError::ZeroOffspring => write!(f, "offspring (lambda) must be at least 1"),
            SpecError::TooManyOffspring { offspring, max } => write!(
                f,
                "offspring (lambda) {offspring} exceeds the MAX_OFFSPRING cap of {max}"
            ),
            SpecError::TooMuchWork { work, max } => write!(
                f,
                "the job asks for {work} pixel evaluations, over the MAX_JOB_WORK cap of {max}"
            ),
            SpecError::ZeroGenerations => write!(f, "generations must be at least 1"),
            SpecError::MutationRateTooHigh { rate, max } => write!(
                f,
                "mutation rate {rate} exceeds the {max} genes of a genotype"
            ),
            SpecError::BadArrayCount { requested, max } => {
                write!(f, "array count {requested} is outside 1..={max}")
            }
            SpecError::EmptyCampaign => {
                write!(f, "a fault campaign must target at least one array")
            }
            SpecError::CampaignArrayOutOfRange { array, arrays } => write!(
                f,
                "campaign targets array {array} but the platform has {arrays} arrays"
            ),
            SpecError::UnknownScenario { name } => {
                write!(f, "unknown fault scenario '{name}' (see GET /registry)")
            }
            SpecError::UnknownPolicy { name } => {
                write!(f, "unknown recovery policy '{name}' (see GET /registry)")
            }
            SpecError::InvalidScenario { reason } => {
                write!(f, "invalid fault scenario: {reason}")
            }
            SpecError::InvalidPolicy { reason } => {
                write!(f, "invalid recovery policy: {reason}")
            }
            SpecError::InvalidStream { reason } => {
                write!(f, "invalid stream spec: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

fn validate_shapes(input: &GrayImage, reference: &GrayImage) -> Result<(), SpecError> {
    if input.width() != reference.width() || input.height() != reference.height() {
        return Err(SpecError::ImageShapeMismatch {
            input: (input.width(), input.height()),
            reference: (reference.width(), reference.height()),
        });
    }
    Ok(())
}

fn validate_arrays(requested: usize) -> Result<(), SpecError> {
    if requested == 0 || requested > MAX_ARRAYS {
        return Err(SpecError::BadArrayCount {
            requested,
            max: MAX_ARRAYS,
        });
    }
    Ok(())
}

/// The largest λ a spec may ask for: 455× the paper's λ = 9.  Every
/// generation holds its whole offspring batch in memory, so λ needs a
/// ceiling of its own — on a 1×1 image [`JobSpec::work`] stays tiny at any
/// λ.  A batch this size, with its gene diffs, takes well under 1 MiB.
pub const MAX_OFFSPRING: usize = 4_096;

/// The most pixel evaluations ([`JobSpec::work`]) a spec may ask for.  The
/// paper's longest evolution, 128×128 over 100,000 generations at λ = 9, is
/// 1.5·10^10 of them, and Fig. 13's 256×256 run at the same budget
/// 5.9·10^10: the cap leaves 68× and 17× margin over them.
pub const MAX_JOB_WORK: u64 = 1_000_000_000_000;

fn validate_budget(
    offspring: usize,
    mutation_rate: usize,
    generations: usize,
) -> Result<(), SpecError> {
    if offspring == 0 {
        return Err(SpecError::ZeroOffspring);
    }
    if offspring > MAX_OFFSPRING {
        return Err(SpecError::TooManyOffspring {
            offspring,
            max: MAX_OFFSPRING,
        });
    }
    if generations == 0 {
        return Err(SpecError::ZeroGenerations);
    }
    validate_rate(mutation_rate)
}

/// Passes `spec` through unless its [`work`](JobSpec::work) exceeds
/// [`MAX_JOB_WORK`].
fn validate_work(spec: JobSpec) -> Result<JobSpec, SpecError> {
    match spec.work() {
        work if work > MAX_JOB_WORK => Err(SpecError::TooMuchWork {
            work,
            max: MAX_JOB_WORK,
        }),
        _ => Ok(spec),
    }
}

/// Candidate evaluations of one (1+λ) run: the initial parent plus λ per
/// generation, saturating.
fn run_candidates(generations: usize, offspring: usize) -> u64 {
    (generations as u64)
        .saturating_mul(offspring as u64)
        .saturating_add(1)
}

fn validate_rate(rate: usize) -> Result<(), SpecError> {
    if rate > TOTAL_GENES {
        return Err(SpecError::MutationRateTooHigh {
            rate,
            max: TOTAL_GENES,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Specs
// ---------------------------------------------------------------------------

/// A validated (1+λ) evolution request: one training pair evolved with the
/// offspring distributed over `num_arrays` arrays (the parallel evolution
/// mode; `num_arrays == 1` is the single-filter case).
#[derive(Debug, Clone)]
pub struct EvolutionSpec {
    task: EvolutionTask,
    config: EsConfig,
    seed: Option<u64>,
}

impl EvolutionSpec {
    /// The training pair.
    pub fn task(&self) -> &EvolutionTask {
        &self.task
    }
}

/// Builder for [`JobSpec::Evolution`]; see [`JobSpec::evolution`].
#[derive(Debug, Clone)]
pub struct EvolutionBuilder {
    input: GrayImage,
    reference: GrayImage,
    config: EsConfig,
    seed: Option<u64>,
}

impl EvolutionBuilder {
    /// Offspring per generation (λ, paper default 9).
    pub fn offspring(mut self, offspring: usize) -> Self {
        self.config.offspring = offspring;
        self
    }

    /// Mutation rate k (genes mutated per offspring, paper default 3).
    pub fn mutation_rate(mut self, k: usize) -> Self {
        self.config.mutation_rate = k;
        self
    }

    /// Generation budget.
    pub fn generations(mut self, generations: usize) -> Self {
        self.config.generations = generations;
        self
    }

    /// Number of arrays the offspring are distributed over (default 1).
    pub fn num_arrays(mut self, num_arrays: usize) -> Self {
        self.config.num_arrays = num_arrays;
        self
    }

    /// Offspring-generation scheme (default classic).
    pub fn strategy(mut self, strategy: MutationStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Stop early once a candidate reaches this fitness.
    pub fn target_fitness(mut self, target: u64) -> Self {
        self.config.target_fitness = Some(target);
        self
    }

    /// Pins the RNG seed.  Unseeded jobs have their seed derived by the
    /// service from its root sequence and the job id.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Validates the request and produces the spec.
    pub fn build(self) -> Result<JobSpec, SpecError> {
        validate_shapes(&self.input, &self.reference)?;
        validate_budget(
            self.config.offspring,
            self.config.mutation_rate,
            self.config.generations,
        )?;
        if let MutationStrategy::TwoLevel { low_rate } = self.config.strategy {
            validate_rate(low_rate)?;
        }
        validate_arrays(self.config.num_arrays)?;
        validate_work(JobSpec::Evolution(EvolutionSpec {
            task: EvolutionTask {
                input: self.input,
                reference: self.reference,
            },
            config: self.config,
            seed: self.seed,
        }))
    }
}

/// Test fixture: a spec no validated builder path can produce — zero
/// offspring makes the evolution-strategy config panic when the job runs,
/// exercising the service's panic-capture ([`JobOutput::Failed`]) path.
/// Bypasses [`EvolutionBuilder::build`] validation on purpose.
#[doc(hidden)]
pub fn doomed_spec_for_test((input, reference): (GrayImage, GrayImage)) -> JobSpec {
    let mut builder = JobSpec::evolution(input, reference);
    builder.config.offspring = 0;
    JobSpec::Evolution(EvolutionSpec {
        task: EvolutionTask {
            input: builder.input,
            reference: builder.reference,
        },
        config: builder.config,
        seed: builder.seed,
    })
}

/// A validated cascaded-evolution request: one circuit evolved per stage so
/// the chain progressively approaches the reference.
#[derive(Debug, Clone)]
pub struct CascadeSpec {
    task: EvolutionTask,
    stages: usize,
    config: CascadeConfig,
    seed: Option<u64>,
}

impl CascadeSpec {
    /// The training pair.
    pub fn task(&self) -> &EvolutionTask {
        &self.task
    }

    /// The cascade configuration (its seed is replaced by the job's seed at
    /// execution).
    pub fn config(&self) -> &CascadeConfig {
        &self.config
    }
}

/// Builder for [`JobSpec::Cascade`]; see [`JobSpec::cascade`].
#[derive(Debug, Clone)]
pub struct CascadeBuilder {
    input: GrayImage,
    reference: GrayImage,
    stages: usize,
    config: CascadeConfig,
    seed: Option<u64>,
}

impl CascadeBuilder {
    /// Number of cascade stages (default 3, the paper's demonstrator).
    pub fn stages(mut self, stages: usize) -> Self {
        self.stages = stages;
        self
    }

    /// Generations per stage (sequential) or rounds (interleaved).
    pub fn generations(mut self, generations: usize) -> Self {
        self.config.generations = generations;
        self
    }

    /// Offspring per generation (λ, paper default 9).
    pub fn offspring(mut self, offspring: usize) -> Self {
        self.config.offspring = offspring;
        self
    }

    /// Mutation rate k (genes mutated per offspring).
    pub fn mutation_rate(mut self, k: usize) -> Self {
        self.config.mutation_rate = k;
        self
    }

    /// Separate per-stage fitness or one merged fitness at the chain end.
    pub fn fitness(mut self, fitness: CascadeFitness) -> Self {
        self.config.fitness = fitness;
        self
    }

    /// Sequential or interleaved stage scheduling.
    pub fn schedule(mut self, schedule: CascadeSchedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Per-stage parent initialisation.
    pub fn init(mut self, init: CascadeInit) -> Self {
        self.config.init = init;
        self
    }

    /// Pins the RNG seed (see [`EvolutionBuilder::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Validates the request and produces the spec.
    pub fn build(self) -> Result<JobSpec, SpecError> {
        validate_shapes(&self.input, &self.reference)?;
        validate_budget(
            self.config.offspring,
            self.config.mutation_rate,
            self.config.generations,
        )?;
        validate_arrays(self.stages)?;
        validate_work(JobSpec::Cascade(CascadeSpec {
            task: EvolutionTask {
                input: self.input,
                reference: self.reference,
            },
            stages: self.stages,
            config: self.config,
            seed: self.seed,
        }))
    }
}

/// A validated fault-injection campaign: compile the fault scenario into its
/// deterministic injection schedule, run every event against the targeted
/// arrays, and recover each one by walking the recovery-policy ladder.
///
/// The default scenario/policy pair — a `SingleSweep` under the one-rung
/// re-evolve ladder — is the paper's systematic campaign (§VI.D).
#[derive(Debug, Clone)]
pub struct FaultCampaignSpec {
    task: EvolutionTask,
    baseline: Genotype,
    arrays: Vec<usize>,
    platform_arrays: usize,
    recovery: EsConfig,
    scenario: FaultScenario,
    policy: RecoveryPolicy,
    seed: Option<u64>,
}

impl FaultCampaignSpec {
    /// The training pair the degradation/recovery is measured on.
    pub(crate) fn task(&self) -> &EvolutionTask {
        &self.task
    }

    /// The known-good genotype restored before each injection.
    pub(crate) fn baseline(&self) -> &Genotype {
        &self.baseline
    }

    /// The targeted array indices, in injection order.
    pub fn arrays(&self) -> &[usize] {
        &self.arrays
    }

    /// The recovery-evolution parameters.
    pub(crate) fn recovery(&self) -> &EsConfig {
        &self.recovery
    }

    /// The declarative fault scenario the campaign compiles and replays.
    pub fn scenario(&self) -> &FaultScenario {
        &self.scenario
    }

    /// The recovery-policy escalation ladder applied to each event.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }
}

/// Builder for [`JobSpec::FaultCampaign`]; see [`JobSpec::fault_campaign`].
#[derive(Debug, Clone)]
pub struct FaultCampaignBuilder {
    input: GrayImage,
    reference: GrayImage,
    baseline: Genotype,
    arrays: Vec<usize>,
    platform_arrays: usize,
    recovery: EsConfig,
    scenario: FaultScenario,
    policy: RecoveryPolicy,
    seed: Option<u64>,
}

impl FaultCampaignBuilder {
    /// The known-good genotype restored before each injection (default
    /// identity).
    pub fn baseline(mut self, baseline: Genotype) -> Self {
        self.baseline = baseline;
        self
    }

    /// The array indices to campaign over, in injection order (default
    /// `[0]`).
    pub fn arrays(mut self, arrays: Vec<usize>) -> Self {
        self.arrays = arrays;
        self
    }

    /// Number of arrays the campaign platform has (default: enough for the
    /// highest targeted index).
    pub fn platform_arrays(mut self, platform_arrays: usize) -> Self {
        self.platform_arrays = platform_arrays;
        self
    }

    /// Recovery generation budget per position.
    pub fn recovery_generations(mut self, generations: usize) -> Self {
        self.recovery.generations = generations;
        self
    }

    /// Recovery mutation rate.
    pub fn recovery_mutation_rate(mut self, k: usize) -> Self {
        self.recovery.mutation_rate = k;
        self
    }

    /// Recovery offspring per generation.
    pub fn recovery_offspring(mut self, offspring: usize) -> Self {
        self.recovery.offspring = offspring;
        self
    }

    /// Stop a position's recovery early once this fitness is reached.
    pub fn recovery_target(mut self, target: u64) -> Self {
        self.recovery.target_fitness = Some(target);
        self
    }

    /// The declarative fault scenario to compile and replay (default: the
    /// systematic `SingleSweep` of §VI.D).
    pub fn scenario(mut self, scenario: FaultScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// The recovery-policy escalation ladder (default: the one-rung
    /// unconditional re-evolve — the historic reaction).
    pub fn policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Pins the RNG seed (see [`EvolutionBuilder::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Validates the request and produces the spec.
    pub fn build(self) -> Result<JobSpec, SpecError> {
        validate_shapes(&self.input, &self.reference)?;
        validate_budget(
            self.recovery.offspring,
            self.recovery.mutation_rate,
            self.recovery.generations,
        )?;
        self.scenario
            .validate()
            .map_err(|e| SpecError::InvalidScenario {
                reason: e.to_string(),
            })?;
        self.policy
            .validate()
            .map_err(|e| SpecError::InvalidPolicy {
                reason: e.to_string(),
            })?;
        if self.arrays.is_empty() {
            return Err(SpecError::EmptyCampaign);
        }
        let highest = *self.arrays.iter().max().expect("arrays is non-empty");
        let platform_arrays = if self.platform_arrays == 0 {
            highest + 1
        } else {
            self.platform_arrays
        };
        validate_arrays(platform_arrays)?;
        if highest >= platform_arrays {
            return Err(SpecError::CampaignArrayOutOfRange {
                array: highest,
                arrays: platform_arrays,
            });
        }
        validate_work(JobSpec::FaultCampaign(FaultCampaignSpec {
            task: EvolutionTask {
                input: self.input,
                reference: self.reference,
            },
            baseline: self.baseline,
            arrays: self.arrays,
            platform_arrays,
            recovery: self.recovery,
            scenario: self.scenario,
            policy: self.policy,
            seed: self.seed,
        }))
    }
}

/// Where a stream job's frames come from.
///
/// The synthetic variant is constructed at execution time (its noise seed is
/// the stream seed's lane 0, so unseeded jobs get service-derived noise);
/// the PGM variant is loaded and shape-checked eagerly at `build()` so a
/// malformed file rejects the spec instead of failing mid-stream.
#[derive(Debug, Clone)]
pub enum StreamSourceSpec {
    /// Deterministic synthetic frames: a clean scene corrupted per frame by
    /// a scriptable noise-shift schedule.
    Synthetic {
        /// The clean scene to render.
        scene: SceneKind,
        /// Frame width in pixels.
        width: usize,
        /// Frame height in pixels.
        height: usize,
        /// Total frames in the stream.
        frames: usize,
        /// The noise-shift schedule (validated at `build()`).
        schedule: Vec<NoiseSegment>,
    },
    /// Replay of an already-loaded PGM frame directory.
    PgmDir(PgmDirSource),
}

/// A validated streaming-denoise request: frames filtered through an
/// incumbent evolved genotype, with drift detection and budgeted online
/// re-adaptation (see [`ehw_stream`]).
#[derive(Debug, Clone)]
pub struct StreamSpec {
    source: StreamSourceSpec,
    initial: Option<Genotype>,
    drift: DriftConfig,
    adaptation: AdaptationConfig,
    seed: Option<u64>,
}

impl StreamSpec {
    /// Where the frames come from.
    pub fn source(&self) -> &StreamSourceSpec {
        &self.source
    }

    /// The incumbent genotype to start from; `None` bootstraps one by
    /// evolving on the first frame.
    pub fn initial(&self) -> Option<&Genotype> {
        self.initial.as_ref()
    }

    /// The drift-detector parameters.
    pub fn drift(&self) -> &DriftConfig {
        &self.drift
    }

    /// The per-adaptation (and bootstrap) evolution budget.
    pub fn adaptation(&self) -> &AdaptationConfig {
        &self.adaptation
    }
}

/// Builder for [`JobSpec::Stream`]; see [`JobSpec::stream`].
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    source: StreamSourceSpec,
    initial: Option<Genotype>,
    drift: DriftConfig,
    adaptation: AdaptationConfig,
    seed: Option<u64>,
}

impl StreamBuilder {
    /// Starts the stream from this incumbent genotype instead of
    /// bootstrapping one on the first frame.
    pub fn initial(mut self, genotype: Genotype) -> Self {
        self.initial = Some(genotype);
        self
    }

    /// Replaces the whole drift-detector configuration.
    pub fn drift(mut self, drift: DriftConfig) -> Self {
        self.drift = drift;
        self
    }

    /// Calibration-window length in frames.
    pub fn drift_window(mut self, window: usize) -> Self {
        self.drift.window = window;
        self
    }

    /// Drift threshold: fires when the windowed fitness exceeds this
    /// percentage of the latched baseline (e.g. 150 = 1.5×).
    pub fn drift_threshold_pct(mut self, threshold_pct: u32) -> Self {
        self.drift.threshold_pct = threshold_pct;
        self
    }

    /// Replaces the whole adaptation budget.
    pub fn adaptation(mut self, adaptation: AdaptationConfig) -> Self {
        self.adaptation = adaptation;
        self
    }

    /// Generation budget per adaptation (and for the bootstrap).
    pub fn adaptation_generations(mut self, generations: usize) -> Self {
        self.adaptation.generations = generations;
        self
    }

    /// Pins the RNG seed (see [`EvolutionBuilder::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Validates the request and produces the spec.
    pub fn build(self) -> Result<JobSpec, SpecError> {
        let invalid = |reason: String| SpecError::InvalidStream { reason };
        match &self.source {
            StreamSourceSpec::Synthetic {
                width,
                height,
                frames,
                schedule,
                ..
            } => {
                ehw_stream::source::validate_synthetic(*width, *height, *frames, schedule)
                    .map_err(|e| invalid(e.to_string()))?;
            }
            // PgmDirSource::new already loaded and shape-checked every frame.
            StreamSourceSpec::PgmDir(_) => {}
        }
        if self.drift.window == 0 {
            return Err(invalid("drift window must be at least 1 frame".into()));
        }
        if self.drift.threshold_pct < 100 {
            return Err(invalid(format!(
                "drift threshold {}% would fire on improvement (must be >= 100)",
                self.drift.threshold_pct
            )));
        }
        validate_budget(
            self.adaptation.offspring,
            self.adaptation.mutation_rate,
            self.adaptation.generations,
        )?;
        if self.adaptation.max_millis == Some(0) {
            return Err(invalid(
                "an explicit adaptation wall-clock budget must be at least 1 ms".into(),
            ));
        }
        validate_work(JobSpec::Stream(StreamSpec {
            source: self.source,
            initial: self.initial,
            drift: self.drift,
            adaptation: self.adaptation,
            seed: self.seed,
        }))
    }
}

/// One validated unit of service work.
///
/// Constructed through the builder entry points ([`evolution`](Self::evolution),
/// [`cascade`](Self::cascade), [`fault_campaign`](Self::fault_campaign),
/// [`stream`](Self::stream)),
/// which validate λ, generation budgets, array counts and image shapes up
/// front — a spec that exists is executable.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// A (1+λ) evolution over one training pair.
    Evolution(EvolutionSpec),
    /// A cascaded evolution (one circuit per stage).
    Cascade(CascadeSpec),
    /// A systematic PE-level fault-injection campaign.
    FaultCampaign(FaultCampaignSpec),
    /// A streaming denoise with drift detection and online re-adaptation.
    Stream(StreamSpec),
}

impl JobSpec {
    /// Starts building an evolution job over the given training pair, with
    /// the paper's EA defaults (λ = 9, k = 3, classic mutation, one array).
    pub fn evolution(input: GrayImage, reference: GrayImage) -> EvolutionBuilder {
        EvolutionBuilder {
            input,
            reference,
            config: EsConfig::paper(3, 1, 100, 0),
            seed: None,
        }
    }

    /// Starts building a cascade job over the given training pair, with the
    /// paper's defaults (3 stages, λ = 9, k = 2, separate fitness, sequential
    /// schedule, pass-through initialisation).
    pub fn cascade(input: GrayImage, reference: GrayImage) -> CascadeBuilder {
        CascadeBuilder {
            input,
            reference,
            stages: 3,
            config: CascadeConfig::paper(100, 2, 0),
            seed: None,
        }
    }

    /// Starts building a fault-campaign job over the given training pair
    /// (identity baseline, array 0, a short inherited-start recovery).
    pub fn fault_campaign(input: GrayImage, reference: GrayImage) -> FaultCampaignBuilder {
        FaultCampaignBuilder {
            input,
            reference,
            baseline: Genotype::identity(),
            arrays: vec![0],
            platform_arrays: 0,
            recovery: EsConfig::paper(2, 1, 30, 0),
            scenario: FaultScenario::single_sweep(),
            policy: RecoveryPolicy::default_ladder(),
            seed: None,
        }
    }

    /// Starts building a streaming-denoise job over the given frame source,
    /// with the default drift detector and adaptation budget.
    pub fn stream(source: StreamSourceSpec) -> StreamBuilder {
        StreamBuilder {
            source,
            initial: None,
            drift: DriftConfig::default(),
            adaptation: AdaptationConfig::default(),
            seed: None,
        }
    }

    /// A short, human-readable kind tag (`"evolution"`, `"cascade"`,
    /// `"fault_campaign"`, `"stream"`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Evolution(_) => "evolution",
            JobSpec::Cascade(_) => "cascade",
            JobSpec::FaultCampaign(_) => "fault_campaign",
            JobSpec::Stream(_) => "stream",
        }
    }

    /// Number of platform arrays this job needs — what the service sizes the
    /// executing platform to.  Streams run the compiled single-array plan.
    pub fn arrays_needed(&self) -> usize {
        match self {
            JobSpec::Evolution(s) => s.config.num_arrays,
            JobSpec::Cascade(s) => s.stages,
            JobSpec::FaultCampaign(s) => s.platform_arrays,
            JobSpec::Stream(_) => 1,
        }
    }

    /// The pixel evaluations the job asks for, from the spec alone: each
    /// candidate evaluation or fitness measurement filters every pixel of
    /// its image once, and a merged-fitness cascade candidate once per
    /// stage.  Counts are upper bounds where the run decides (a stream
    /// adapting at every frame, every campaign event firing, every ladder
    /// step running) and saturate at `u64::MAX`.  Arithmetic only — a few
    /// operations per scenario phase and ladder step, no allocation — since
    /// builders check every spec against [`MAX_JOB_WORK`].
    pub fn work(&self) -> u64 {
        match self {
            JobSpec::Evolution(s) => {
                let c = &s.config;
                (s.task.input.len() as u64)
                    .saturating_mul(run_candidates(c.generations, c.offspring))
            }
            JobSpec::Cascade(s) => {
                let c = &s.config;
                // A merged candidate runs through every stage after its own.
                let chain = match c.fitness {
                    CascadeFitness::Separate => 1,
                    CascadeFitness::Merged => s.stages,
                };
                (s.task.input.len() as u64)
                    .saturating_mul(run_candidates(c.generations, c.offspring + 1))
                    .saturating_mul((s.stages * chain) as u64)
            }
            JobSpec::FaultCampaign(s) => {
                let r = &s.recovery;
                // The clean and faulty measurements, then every ladder step.
                let per_event = s.policy.steps.iter().fold(2u64, |n, step| {
                    n.saturating_add(match *step {
                        RecoveryStep::Scrub { attempts } => attempts as u64,
                        RecoveryStep::TmrRemap => ARRAY_ROWS as u64,
                        RecoveryStep::Reevolve { generations, .. } => {
                            run_candidates(generations.unwrap_or(r.generations), r.offspring)
                        }
                    })
                });
                (s.task.input.len() as u64)
                    .saturating_mul(s.scenario.max_events(s.arrays.len()))
                    .saturating_mul(per_event)
            }
            JobSpec::Stream(s) => {
                let (pixels, frames) = match &s.source {
                    StreamSourceSpec::Synthetic {
                        width,
                        height,
                        frames,
                        ..
                    } => (width.saturating_mul(*height), *frames),
                    StreamSourceSpec::PgmDir(source) => (source.reference().len(), source.len()),
                };
                // One filtering pass per frame, and at most one adaptation
                // per frame plus the bootstrap.
                let a = &s.adaptation;
                let adaptations = (frames as u64)
                    .saturating_add(1)
                    .saturating_mul(run_candidates(a.generations, a.offspring));
                (pixels as u64).saturating_mul(adaptations.saturating_add(frames as u64))
            }
        }
    }

    /// The pinned seed, if any; unseeded specs are seeded by the service from
    /// its root sequence and the job id.
    pub fn seed(&self) -> Option<u64> {
        match self {
            JobSpec::Evolution(s) => s.seed,
            JobSpec::Cascade(s) => s.seed,
            JobSpec::FaultCampaign(s) => s.seed,
            JobSpec::Stream(s) => s.seed,
        }
    }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

/// Why a job was stopped before completing its configured budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// A client asked for the job to be cancelled.
    Requested,
    /// The job's deadline expired while it was queued or running.
    DeadlineExpired,
}

impl std::fmt::Display for CancelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelKind::Requested => write!(f, "cancelled on request"),
            CancelKind::DeadlineExpired => write!(f, "deadline expired"),
        }
    }
}

/// Cooperative cancellation token and deadline for one job.
///
/// The engines never preempt work mid-generation:
/// [`execute_controlled_cached`] polls the token at **generation boundaries** (and the service layer polls
/// it once more at queue pickup), so a cancelled job winds down within one
/// generation and reports [`JobOutput::Cancelled`].  A default token never
/// stops anything.
#[derive(Debug, Default)]
pub struct JobControl {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl JobControl {
    /// A token that can be cancelled but has no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token whose job must finish by `deadline`.
    pub fn with_deadline(deadline: Option<Instant>) -> Self {
        JobControl {
            cancelled: AtomicBool::new(false),
            deadline,
        }
    }

    /// Requests cancellation; the job stops at its next generation boundary.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// `true` once [`cancel`](Self::cancel) has been called.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Why the job should stop now, if it should: an explicit cancel wins
    /// over an expired deadline.
    pub fn stop_reason(&self) -> Option<CancelKind> {
        if self.cancel_requested() {
            return Some(CancelKind::Requested);
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(CancelKind::DeadlineExpired),
            _ => None,
        }
    }
}

/// One progress event, emitted at each generation boundary of a running job
/// (cascades count scheduler steps — one stage-generation each; streams emit
/// one event per frame, drift fire and adaptation; fault campaigns emit no
/// intra-job events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// The generation (cascade scheduler step, or stream frame index) that
    /// just finished.
    pub generation: usize,
    /// Best fitness so far, where the workload tracks one (evolutions do;
    /// cascade steps do not; stream frames report the frame's fitness).
    pub best_fitness: Option<u64>,
    /// The originating stream event, for stream jobs; `None` for every other
    /// job kind.
    pub stream: Option<StreamEvent>,
}

/// Composes the platform timing observer with the job control plane: relays
/// generation events to the timer and the progress sink, and records which
/// stop reason (if any) actually interrupted the run — so a deadline that
/// expires *after* the last generation does not retroactively cancel a
/// finished job.
struct ControlledObserver<'a, O: GenerationObserver> {
    inner: O,
    control: &'a JobControl,
    progress: &'a mut dyn FnMut(JobProgress),
    stopped: Option<CancelKind>,
}

impl<O: GenerationObserver> GenerationObserver for ControlledObserver<'_, O> {
    fn on_generation(&mut self, generation: usize, reconfigs: &[usize], best_fitness: u64) {
        self.inner
            .on_generation(generation, reconfigs, best_fitness);
        (self.progress)(JobProgress {
            generation,
            best_fitness: Some(best_fitness),
            stream: None,
        });
        self.stopped = self.stopped.or_else(|| self.control.stop_reason());
    }

    fn should_stop(&self) -> bool {
        self.stopped.is_some()
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// The kind-specific payload of a [`JobResult`].
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Payload of an evolution job.
    Evolution {
        /// The evolution outcome (best genotype, history, counters).
        result: EvolutionResult,
        /// The modelled on-FPGA pipeline time of the run.
        time: EvolutionTimeEstimate,
    },
    /// Payload of a cascade job.
    Cascade(CascadeResult),
    /// Payload of a fault-campaign job.
    FaultCampaign(CampaignReport),
    /// Payload of a stream job.
    Stream(StreamReport),
    /// The job panicked while executing (service-side catch; the worker and
    /// the rest of the queue survive).
    Failed(String),
    /// The job was stopped at a generation boundary by its cancellation
    /// token or deadline before completing its budget; any partial work is
    /// discarded from the payload but still counted in the envelope's
    /// `evaluations`/`stats`.
    Cancelled(CancelKind),
}

/// The uniform result envelope every job kind resolves to.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The id the service assigned at submission (0 for direct [`execute`]
    /// calls).
    pub job_id: u64,
    /// The effective RNG seed the job ran with (pinned or derived).
    pub seed: u64,
    /// Total candidate evaluations performed.
    pub evaluations: u64,
    /// Work-saved counters of the evaluation engine.  For fault-campaign
    /// jobs this aggregates the counters of every position's recovery
    /// evolution (`CampaignReport::total_stats`).
    pub stats: EngineStats,
    /// The kind-specific payload.
    pub output: JobOutput,
}

impl JobResult {
    /// The evolved genotype(s): one for an evolution job, one per stage for a
    /// cascade, none for a campaign, stream (whose final incumbent travels
    /// encoded in [`StreamReport::final_genotype`]) or a failed job.
    pub fn genotypes(&self) -> Vec<&Genotype> {
        match &self.output {
            JobOutput::Evolution { result, .. } => vec![&result.best_genotype],
            JobOutput::Cascade(r) => r.stage_genotypes.iter().collect(),
            JobOutput::FaultCampaign(_)
            | JobOutput::Stream(_)
            | JobOutput::Failed(_)
            | JobOutput::Cancelled(_) => Vec::new(),
        }
    }

    /// The headline genotype: the best circuit (evolution) or the last stage
    /// of the chain (cascade).
    pub fn best_genotype(&self) -> Option<&Genotype> {
        match &self.output {
            JobOutput::Evolution { result, .. } => Some(&result.best_genotype),
            JobOutput::Cascade(r) => r.stage_genotypes.last(),
            JobOutput::FaultCampaign(_)
            | JobOutput::Stream(_)
            | JobOutput::Failed(_)
            | JobOutput::Cancelled(_) => None,
        }
    }

    /// The fitness trajectory: per-generation best (evolution) or per-stage
    /// chain fitness (cascade); empty for campaigns, streams and failures.
    pub fn history(&self) -> &[u64] {
        match &self.output {
            JobOutput::Evolution { result, .. } => &result.history,
            JobOutput::Cascade(r) => &r.stage_fitness,
            JobOutput::FaultCampaign(_)
            | JobOutput::Stream(_)
            | JobOutput::Failed(_)
            | JobOutput::Cancelled(_) => &[],
        }
    }

    /// The final fitness the job reached, when it has one (streams: the
    /// fitness of the last processed frame).
    pub fn final_fitness(&self) -> Option<u64> {
        match &self.output {
            JobOutput::Evolution { result, .. } => Some(result.best_fitness),
            JobOutput::Cascade(r) => r.final_fitness(),
            JobOutput::Stream(r) => r.final_fitness,
            JobOutput::FaultCampaign(_) | JobOutput::Failed(_) | JobOutput::Cancelled(_) => None,
        }
    }

    /// The evolution payload, if this was an evolution job.
    pub fn as_evolution(&self) -> Option<(&EvolutionResult, &EvolutionTimeEstimate)> {
        match &self.output {
            JobOutput::Evolution { result, time } => Some((result, time)),
            _ => None,
        }
    }

    /// The cascade payload, if this was a cascade job.
    pub fn as_cascade(&self) -> Option<&CascadeResult> {
        match &self.output {
            JobOutput::Cascade(r) => Some(r),
            _ => None,
        }
    }

    /// The campaign payload, if this was a fault-campaign job.
    pub fn as_campaign(&self) -> Option<&CampaignReport> {
        match &self.output {
            JobOutput::FaultCampaign(r) => Some(r),
            _ => None,
        }
    }

    /// The stream payload, if this was a stream job.
    pub fn as_stream(&self) -> Option<&StreamReport> {
        match &self.output {
            JobOutput::Stream(r) => Some(r),
            _ => None,
        }
    }

    /// `true` if the job failed (service-side panic capture).
    pub fn is_failed(&self) -> bool {
        matches!(self.output, JobOutput::Failed(_))
    }

    /// The captured panic message of a failed job, when it is one.
    pub fn failure(&self) -> Option<&str> {
        match &self.output {
            JobOutput::Failed(message) => Some(message),
            _ => None,
        }
    }

    /// `true` if the job was stopped by its cancellation token or deadline;
    /// [`cancel_kind`](Self::cancel_kind) says which.
    pub fn is_cancelled(&self) -> bool {
        matches!(self.output, JobOutput::Cancelled(_))
    }

    /// Why a cancelled job was stopped, when it was.
    pub fn cancel_kind(&self) -> Option<CancelKind> {
        match self.output {
            JobOutput::Cancelled(kind) => Some(kind),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Executes a job spec on the given platform with the given effective seed.
///
/// The platform's array count must match [`JobSpec::arrays_needed`], and the
/// platform's [`ParallelConfig`](ehw_parallel::ParallelConfig) governs host
/// parallelism (scheduling only: results are byte-identical at any worker
/// count).  The evolved circuits are left configured in the platform.
pub fn execute(platform: &mut EhwPlatform, spec: &JobSpec, seed: u64) -> JobResult {
    execute_controlled_cached(platform, spec, seed, &JobControl::new(), &mut |_| {}, None)
}

/// [`execute`] with a cancellation token, a progress sink and an optional
/// service-scope [`CrossJobCache`](crate::cache::CrossJobCache) — the entry
/// the `ehw-service` shards use.
///
/// `control` is polled at every generation boundary (cascades: every
/// scheduler step; campaigns: every recovery generation of every position);
/// once it reports a stop reason the engines wind down and the result's
/// output is [`JobOutput::Cancelled`], with the envelope's `evaluations` and
/// `stats` still counting the partial work.  `progress` receives one
/// [`JobProgress`] per generation boundary (campaigns emit none).  An
/// uncancelled run is byte-identical to plain [`execute`].
///
/// For evolution jobs the cache supplies a shared window extraction for the
/// training image.  Cascade, fault-campaign and stream jobs run uncached:
/// their inner images change per stage, position or frame, so the windows
/// tier would not hit (each cascade stage keeps its own evaluator and
/// phenotype memo for as long as its inputs stay current).  A result is
/// byte-identical with and without a cache — see the determinism contract
/// in [`crate::cache`].
pub fn execute_controlled_cached(
    platform: &mut EhwPlatform,
    spec: &JobSpec,
    seed: u64,
    control: &JobControl,
    progress: &mut dyn FnMut(JobProgress),
    cache: Option<&std::sync::Arc<crate::cache::CrossJobCache>>,
) -> JobResult {
    // Hard assert (not debug): a mismatched platform would not fail — it
    // would silently run a *different* job (the engines iterate the
    // platform's arrays, not the spec's count), defeating the builders'
    // "a spec that exists is executable" contract.
    assert_eq!(
        platform.num_arrays(),
        spec.arrays_needed(),
        "platform has {} arrays but the {} spec needs {}",
        platform.num_arrays(),
        spec.kind(),
        spec.arrays_needed()
    );
    match spec {
        JobSpec::Evolution(s) => {
            let config = EsConfig {
                seed,
                num_arrays: platform.num_arrays(),
                parallel: platform.parallel_config(),
                ..s.config
            };
            let mut evaluator = match cache {
                Some(cache) => PlatformEvaluator::with_windows(
                    platform,
                    &s.task,
                    cache.windows_for(&s.task.input),
                ),
                None => PlatformEvaluator::new(platform, &s.task),
            };
            let timer = PipelineTimer::new(
                platform.timing(),
                platform.num_arrays(),
                s.task.input.width(),
                s.task.input.height(),
            );
            let mut observer = ControlledObserver {
                inner: timer,
                control,
                progress,
                stopped: None,
            };
            let result = run_evolution(&config, &mut evaluator, &mut observer);
            platform.configure_all_arrays(&result.best_genotype);
            let output = match observer.stopped {
                Some(kind) => JobOutput::Cancelled(kind),
                None => JobOutput::Evolution {
                    result: result.clone(),
                    time: observer.inner.estimate(),
                },
            };
            JobResult {
                job_id: 0,
                seed,
                evaluations: result.evaluations,
                stats: evaluator.engine_stats(),
                output,
            }
        }
        JobSpec::Cascade(s) => {
            let config = CascadeConfig { seed, ..s.config };
            let mut stopped = None;
            let result =
                crate::evo_modes::evolve_cascade(platform, &s.task, &config, &mut |step| {
                    progress(JobProgress {
                        generation: step,
                        best_fitness: None,
                        stream: None,
                    });
                    stopped = stopped.or_else(|| control.stop_reason());
                    stopped.is_none()
                });
            let (evaluations, stats) = (result.evaluations, result.stats);
            let output = match stopped {
                Some(kind) => JobOutput::Cancelled(kind),
                None => JobOutput::Cascade(result),
            };
            JobResult {
                job_id: 0,
                seed,
                evaluations,
                stats,
                output,
            }
        }
        JobSpec::FaultCampaign(s) => {
            let report = crate::fault_campaign::run_campaign(platform, s, seed, control);
            let output = match control.stop_reason() {
                Some(kind) => JobOutput::Cancelled(kind),
                None => JobOutput::FaultCampaign(report.clone()),
            };
            JobResult {
                job_id: 0,
                seed,
                evaluations: report.total_evaluations(),
                stats: report.total_stats(),
                output,
            }
        }
        JobSpec::Stream(s) => {
            // Lane 0 of the stream seed drives the frame source's noise; the
            // engine forks its bootstrap/adaptation lanes from the same root
            // inside `run_stream`, so the whole stream is a pure function of
            // (spec, seed) at any worker count.
            let streams = rand::SeedSequence::new(seed);
            let mut source: Box<dyn FrameSource> = match &s.source {
                StreamSourceSpec::Synthetic {
                    scene,
                    width,
                    height,
                    frames,
                    schedule,
                } => Box::new(
                    SyntheticSource::new(
                        *scene,
                        *width,
                        *height,
                        *frames,
                        schedule.clone(),
                        streams.fork(0).seed(),
                    )
                    .expect("stream spec validated at build"),
                ),
                StreamSourceSpec::PgmDir(source) => Box::new(source.clone()),
            };
            let stream_config = StreamConfig {
                seed,
                drift: s.drift,
                adaptation: s.adaptation,
                parallel: platform.parallel_config(),
            };
            let mut sink = |event: &StreamEvent| {
                let (generation, best_fitness) = match *event {
                    StreamEvent::Frame { index, fitness } => (index, Some(fitness)),
                    StreamEvent::Drift { frame, .. } => (frame, None),
                    StreamEvent::Adaptation {
                        frame,
                        accepted,
                        incumbent_fitness,
                        candidate_fitness,
                        ..
                    } => (
                        frame,
                        Some(if accepted {
                            candidate_fitness
                        } else {
                            incumbent_fitness
                        }),
                    ),
                };
                progress(JobProgress {
                    generation,
                    best_fitness,
                    stream: Some(*event),
                });
            };
            let report = ehw_stream::run_stream(
                source.as_mut(),
                s.initial.clone(),
                None,
                &stream_config,
                &mut sink,
                &|| control.stop_reason().is_some(),
            );
            let evaluations = report.evaluations;
            let output = if report.stopped {
                JobOutput::Cancelled(control.stop_reason().unwrap_or(CancelKind::Requested))
            } else {
                JobOutput::Stream(report)
            };
            JobResult {
                job_id: 0,
                seed,
                evaluations,
                stats: EngineStats::default(),
                output,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::noise::salt_pepper;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn training_pair(size: usize, seed: u64) -> (GrayImage, GrayImage) {
        let clean = synth::shapes(size, size, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        (noisy, clean)
    }

    #[test]
    fn builders_validate_shapes_at_construction() {
        let a = synth::gradient(16, 16);
        let b = synth::gradient(16, 17);
        let err = JobSpec::evolution(a.clone(), b.clone())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::ImageShapeMismatch {
                input: (16, 16),
                reference: (16, 17)
            }
        );
        assert!(JobSpec::cascade(a.clone(), b.clone()).build().is_err());
        assert!(JobSpec::fault_campaign(a, b).build().is_err());
    }

    #[test]
    fn builders_validate_budgets_and_array_counts() {
        let (noisy, clean) = training_pair(16, 1);
        assert_eq!(
            JobSpec::evolution(noisy.clone(), clean.clone())
                .offspring(0)
                .build()
                .unwrap_err(),
            SpecError::ZeroOffspring
        );
        assert_eq!(
            JobSpec::evolution(noisy.clone(), clean.clone())
                .generations(0)
                .build()
                .unwrap_err(),
            SpecError::ZeroGenerations
        );
        assert_eq!(
            JobSpec::evolution(noisy.clone(), clean.clone())
                .num_arrays(MAX_ARRAYS + 1)
                .build()
                .unwrap_err(),
            SpecError::BadArrayCount {
                requested: MAX_ARRAYS + 1,
                max: MAX_ARRAYS
            }
        );
        assert_eq!(
            JobSpec::cascade(noisy.clone(), clean.clone())
                .stages(0)
                .build()
                .unwrap_err(),
            SpecError::BadArrayCount {
                requested: 0,
                max: MAX_ARRAYS
            }
        );
        assert_eq!(
            JobSpec::fault_campaign(noisy.clone(), clean.clone())
                .arrays(Vec::new())
                .build()
                .unwrap_err(),
            SpecError::EmptyCampaign
        );
        assert_eq!(
            JobSpec::fault_campaign(noisy, clean)
                .arrays(vec![2])
                .platform_arrays(2)
                .build()
                .unwrap_err(),
            SpecError::CampaignArrayOutOfRange {
                array: 2,
                arrays: 2
            }
        );
    }

    #[test]
    fn builders_cap_every_mutation_rate_at_the_gene_count() {
        // `Genotype::mutated` draws one gene per unit of rate, so an
        // unbounded rate would hold a worker for as long as it asks.
        let (noisy, clean) = training_pair(16, 1);
        let too_high = SpecError::MutationRateTooHigh {
            rate: TOTAL_GENES + 1,
            max: TOTAL_GENES,
        };
        let evolution = || JobSpec::evolution(noisy.clone(), clean.clone());
        assert!(evolution().mutation_rate(TOTAL_GENES).build().is_ok());
        assert_eq!(
            evolution()
                .mutation_rate(TOTAL_GENES + 1)
                .build()
                .unwrap_err(),
            too_high
        );
        assert_eq!(
            evolution()
                .strategy(MutationStrategy::TwoLevel {
                    low_rate: TOTAL_GENES + 1
                })
                .build()
                .unwrap_err(),
            too_high
        );
        assert_eq!(
            JobSpec::cascade(noisy.clone(), clean.clone())
                .mutation_rate(TOTAL_GENES + 1)
                .build()
                .unwrap_err(),
            too_high
        );
        assert_eq!(
            JobSpec::fault_campaign(noisy.clone(), clean.clone())
                .recovery_mutation_rate(TOTAL_GENES + 1)
                .build()
                .unwrap_err(),
            too_high
        );
        assert_eq!(
            JobSpec::stream(stream_source(4))
                .adaptation(AdaptationConfig {
                    mutation_rate: usize::MAX,
                    ..AdaptationConfig::default()
                })
                .build()
                .unwrap_err(),
            SpecError::MutationRateTooHigh {
                rate: usize::MAX,
                max: TOTAL_GENES
            }
        );
    }

    #[test]
    fn builders_cap_lambda_and_the_total_work() {
        // A 10^12 λ on a 1×1 image asks for little pixel work but would
        // allocate 10^12 genotypes per generation: λ has its own cap.
        let dot = GrayImage::from_vec(1, 1, vec![0]);
        assert_eq!(
            JobSpec::evolution(dot.clone(), dot)
                .offspring(1_000_000_000_000)
                .generations(1)
                .build()
                .unwrap_err(),
            SpecError::TooManyOffspring {
                offspring: 1_000_000_000_000,
                max: MAX_OFFSPRING
            }
        );
        // Budgets past the work cap are refused for every kind, saturating
        // rather than wrapping.
        let (noisy, clean) = training_pair(16, 1);
        let over = SpecError::TooMuchWork {
            work: u64::MAX,
            max: MAX_JOB_WORK,
        };
        let huge = usize::MAX;
        let refused = [
            JobSpec::evolution(noisy.clone(), clean.clone())
                .generations(huge)
                .build(),
            JobSpec::cascade(noisy.clone(), clean.clone())
                .generations(huge)
                .build(),
            JobSpec::fault_campaign(noisy.clone(), clean.clone())
                .recovery_generations(huge)
                .build(),
            JobSpec::stream(stream_source(4))
                .adaptation_generations(huge)
                .build(),
        ];
        for result in refused {
            assert_eq!(result.unwrap_err(), over);
        }
        assert!(over.to_string().contains("MAX_JOB_WORK"), "{over}");
        // The paper's largest budgets fit: 128×128 and Fig. 13's 256×256
        // over 100,000 generations at λ = 9.
        for (size, work) in [(128, 16_384 * 900_001), (256, 65_536 * 900_001)] {
            let image = ehw_image::synth::gradient(size, size);
            let spec = JobSpec::evolution(image.clone(), image)
                .generations(100_000)
                .build()
                .expect("the paper's budget is within the cap");
            assert_eq!(spec.work(), work);
        }
        assert!(JobSpec::evolution(noisy, clean)
            .offspring(MAX_OFFSPRING)
            .build()
            .is_ok());
    }

    #[test]
    fn campaign_platform_is_sized_to_the_highest_target_by_default() {
        let (noisy, clean) = training_pair(16, 2);
        let spec = JobSpec::fault_campaign(noisy, clean)
            .arrays(vec![1, 0])
            .build()
            .unwrap();
        assert_eq!(spec.arrays_needed(), 2);
        assert_eq!(spec.kind(), "fault_campaign");
        assert_eq!(spec.seed(), None);
    }

    #[test]
    fn execute_runs_every_kind_and_fills_the_envelope() {
        let (noisy, clean) = training_pair(20, 3);
        let specs = vec![
            JobSpec::evolution(noisy.clone(), clean.clone())
                .generations(5)
                .build()
                .unwrap(),
            JobSpec::cascade(noisy.clone(), clean.clone())
                .stages(2)
                .generations(4)
                .build()
                .unwrap(),
            JobSpec::fault_campaign(noisy, clean)
                .recovery_generations(2)
                .build()
                .unwrap(),
        ];
        for spec in &specs {
            let mut platform = EhwPlatform::new(spec.arrays_needed());
            let result = execute(&mut platform, spec, 42);
            assert_eq!(result.seed, 42);
            assert!(result.evaluations > 0, "{} counted no work", spec.kind());
            assert!(!result.is_failed());
            match spec {
                JobSpec::Evolution(_) => {
                    assert!(result.as_evolution().is_some());
                    assert_eq!(result.genotypes().len(), 1);
                    assert_eq!(result.history().len(), 5);
                    assert!(result.final_fitness().is_some());
                }
                JobSpec::Cascade(_) => {
                    assert_eq!(result.genotypes().len(), 2);
                    assert_eq!(result.history().len(), 2);
                    assert!(result.best_genotype().is_some());
                }
                JobSpec::FaultCampaign(_) => {
                    let report = result.as_campaign().expect("campaign payload");
                    assert_eq!(report.len(), 16);
                    assert_eq!(result.evaluations, report.total_evaluations());
                    assert!(result.best_genotype().is_none());
                    assert!(result.history().is_empty());
                }
                JobSpec::Stream(_) => unreachable!("no stream spec in this list"),
            }
        }
    }

    #[test]
    fn spec_errors_render_actionable_messages() {
        let msg = SpecError::ImageShapeMismatch {
            input: (8, 8),
            reference: (8, 9),
        }
        .to_string();
        assert!(msg.contains("8x8") && msg.contains("8x9"), "{msg}");
        let msg = SpecError::CampaignArrayOutOfRange {
            array: 5,
            arrays: 2,
        }
        .to_string();
        assert!(msg.contains('5') && msg.contains('2'), "{msg}");
        let msg = SpecError::UnknownScenario {
            name: "meteor".into(),
        }
        .to_string();
        assert!(msg.contains("meteor") && msg.contains("/registry"), "{msg}");
        let msg = SpecError::UnknownPolicy {
            name: "prayer".into(),
        }
        .to_string();
        assert!(msg.contains("prayer") && msg.contains("/registry"), "{msg}");
    }

    #[test]
    fn campaign_builder_rejects_malformed_scenarios_and_policies() {
        use crate::scenario::{FaultScenario, ScenarioKind, TargetFilter};
        use crate::self_healing::{RecoveryPolicy, RecoveryStep};
        let (noisy, clean) = training_pair(8, 40);

        let err = JobSpec::fault_campaign(noisy.clone(), clean.clone())
            .scenario(FaultScenario::new("bad", ScenarioKind::MultiPe { k: 0 }))
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::InvalidScenario { .. }), "{err}");

        let err = JobSpec::fault_campaign(noisy.clone(), clean.clone())
            .scenario(FaultScenario::single_sweep().with_filter(TargetFilter::Positions(vec![])))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, SpecError::InvalidScenario { ref reason } if reason.contains("target")),
            "{err}"
        );

        let err = JobSpec::fault_campaign(noisy.clone(), clean.clone())
            .policy(RecoveryPolicy {
                steps: vec![],
                stop_margin: None,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SpecError::InvalidPolicy { .. }), "{err}");

        let err = JobSpec::fault_campaign(noisy, clean)
            .policy(RecoveryPolicy {
                steps: vec![RecoveryStep::Scrub { attempts: 0 }],
                stop_margin: None,
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, SpecError::InvalidPolicy { ref reason } if reason.contains("scrub")),
            "{err}"
        );
    }

    fn stream_source(frames: usize) -> StreamSourceSpec {
        StreamSourceSpec::Synthetic {
            scene: SceneKind::Shapes { complexity: 4 },
            width: 16,
            height: 16,
            frames,
            schedule: vec![
                NoiseSegment {
                    start_frame: 0,
                    noise: ehw_image::noise::NoiseModel::SaltPepper { density: 0.1 },
                },
                NoiseSegment {
                    start_frame: 8,
                    noise: ehw_image::noise::NoiseModel::SaltPepper { density: 0.5 },
                },
            ],
        }
    }

    #[test]
    fn stream_builder_validates_source_and_budgets() {
        assert!(matches!(
            JobSpec::stream(stream_source(0)).build().unwrap_err(),
            SpecError::InvalidStream { .. }
        ));
        let tiny = StreamSourceSpec::Synthetic {
            scene: SceneKind::Gradient,
            width: 2,
            height: 16,
            frames: 4,
            schedule: vec![NoiseSegment {
                start_frame: 0,
                noise: ehw_image::noise::NoiseModel::SaltPepper { density: 0.1 },
            }],
        };
        assert!(matches!(
            JobSpec::stream(tiny).build().unwrap_err(),
            SpecError::InvalidStream { .. }
        ));
        let unsorted = StreamSourceSpec::Synthetic {
            scene: SceneKind::Gradient,
            width: 16,
            height: 16,
            frames: 4,
            schedule: vec![NoiseSegment {
                start_frame: 3,
                noise: ehw_image::noise::NoiseModel::SaltPepper { density: 0.1 },
            }],
        };
        let err = JobSpec::stream(unsorted).build().unwrap_err();
        assert!(
            matches!(err, SpecError::InvalidStream { ref reason } if reason.contains("frame 0")),
            "{err}"
        );
        assert!(matches!(
            JobSpec::stream(stream_source(4))
                .drift_window(0)
                .build()
                .unwrap_err(),
            SpecError::InvalidStream { .. }
        ));
        assert!(matches!(
            JobSpec::stream(stream_source(4))
                .drift_threshold_pct(90)
                .build()
                .unwrap_err(),
            SpecError::InvalidStream { .. }
        ));
        assert_eq!(
            JobSpec::stream(stream_source(4))
                .adaptation_generations(0)
                .build()
                .unwrap_err(),
            SpecError::ZeroGenerations
        );
        assert!(matches!(
            JobSpec::stream(stream_source(4))
                .adaptation(AdaptationConfig {
                    max_millis: Some(0),
                    ..AdaptationConfig::default()
                })
                .build()
                .unwrap_err(),
            SpecError::InvalidStream { .. }
        ));
        let spec = JobSpec::stream(stream_source(4)).build().unwrap();
        assert_eq!(spec.kind(), "stream");
        assert_eq!(spec.arrays_needed(), 1);
        assert_eq!(spec.seed(), None);
    }

    #[test]
    fn stream_builder_rejects_synthetic_streams_too_large_to_render() {
        // A 10^12-pixel frame used to pass validation and abort the process
        // when the shard allocated it; 10^9 small frames would hold a shard
        // for hours.
        for (width, height, frames) in [
            (1_000_000, 1_000_000, 1_000_000_000),
            (1_000_000, 1_000_000, 1),
            (16, 16, 1_000_000_000),
        ] {
            let huge = StreamSourceSpec::Synthetic {
                scene: SceneKind::Gradient,
                width,
                height,
                frames,
                schedule: vec![NoiseSegment {
                    start_frame: 0,
                    noise: ehw_image::noise::NoiseModel::SaltPepper { density: 0.1 },
                }],
            };
            let err = JobSpec::stream(huge).build().unwrap_err();
            assert!(
                matches!(err, SpecError::InvalidStream { ref reason } if reason.contains("maximum")),
                "{width}x{height}x{frames}: {err}"
            );
        }
    }

    #[test]
    fn execute_runs_a_stream_and_fills_the_envelope() {
        let spec = JobSpec::stream(stream_source(12))
            .drift_window(3)
            .drift_threshold_pct(140)
            .adaptation_generations(10)
            .build()
            .unwrap();
        let mut platform = EhwPlatform::new(1);
        let mut events = Vec::new();
        let result = execute_controlled_cached(
            &mut platform,
            &spec,
            42,
            &JobControl::new(),
            &mut |p| events.push(p),
            None,
        );
        assert!(!result.is_failed() && !result.is_cancelled());
        let report = result.as_stream().expect("stream payload");
        assert_eq!(report.frames, 12);
        assert!(result.evaluations > 0, "bootstrap counted no work");
        assert_eq!(result.final_fitness(), report.final_fitness);
        assert!(result.best_genotype().is_none());
        // One progress event per frame, each carrying the stream event.
        let frame_events: Vec<&JobProgress> = events
            .iter()
            .filter(|p| matches!(p.stream, Some(StreamEvent::Frame { .. })))
            .collect();
        assert_eq!(frame_events.len(), 12);
        assert!(events.iter().all(|p| p.stream.is_some()));
    }

    #[test]
    fn stream_execution_is_a_pure_function_of_spec_and_seed() {
        let make = || {
            JobSpec::stream(stream_source(10))
                .drift_window(3)
                .adaptation_generations(8)
                .build()
                .unwrap()
        };
        let run = |spec: &JobSpec| {
            let mut platform = EhwPlatform::new(1);
            execute(&mut platform, spec, 7)
        };
        let a = run(&make());
        let b = run(&make());
        assert_eq!(a.as_stream(), b.as_stream());
    }

    #[test]
    fn a_huge_generation_budget_allocates_nothing_up_front() {
        // The budget arrives over the wire: presizing the fitness history
        // from it would abort the process before the first generation.  At
        // λ = 1 on this 8×8 image the work cap admits 1.6·10^10
        // generations, a 125 GB history no host can hand out.
        let (noisy, clean) = training_pair(8, 5);
        let spec = JobSpec::evolution(noisy, clean)
            .offspring(1)
            .generations((MAX_JOB_WORK / 64 - 1) as usize)
            .build()
            .unwrap();
        assert_eq!(spec.work(), MAX_JOB_WORK);
        let mut platform = EhwPlatform::new(spec.arrays_needed());
        let control = JobControl::new();
        let mut generations = Vec::new();
        let result = execute_controlled_cached(
            &mut platform,
            &spec,
            1,
            &control,
            &mut |p| {
                generations.push(p.generation);
                control.cancel();
            },
            None,
        );
        assert_eq!(result.cancel_kind(), Some(CancelKind::Requested));
        assert_eq!(generations, [0]);
    }

    #[test]
    fn cancelled_stream_reports_cancelled() {
        let spec = JobSpec::stream(stream_source(12)).build().unwrap();
        let mut platform = EhwPlatform::new(1);
        let control = JobControl::new();
        control.cancel();
        let result =
            execute_controlled_cached(&mut platform, &spec, 3, &control, &mut |_| {}, None);
        assert_eq!(result.cancel_kind(), Some(CancelKind::Requested));
    }

    #[test]
    fn campaign_builder_accepts_registry_scenarios_and_policies() {
        use crate::scenario::ScenarioRegistry;
        let registry = ScenarioRegistry::builtin();
        let (noisy, clean) = training_pair(8, 41);
        for scenario in registry.scenarios() {
            for (_, policy) in registry.policies() {
                let spec = JobSpec::fault_campaign(noisy.clone(), clean.clone())
                    .scenario(scenario.clone())
                    .policy(policy.clone())
                    .build();
                assert!(spec.is_ok(), "{}: {:?}", scenario.name, spec.err());
            }
        }
    }
}
