//! Evolution-mode drivers (§IV.B).
//!
//! These functions are the software that would run on the MicroBlaze: they
//! generate candidates with the (1+λ) strategy, decide which array evaluates
//! which candidate, read back fitness values and finally configure the
//! selected circuits into the arrays.
//!
//! * [`evolve_independent`] — each array is evolved sequentially with its own
//!   training pair (independent processing, independent cascade, or to
//!   prepare a redundant parallel configuration),
//! * [`PlatformEvaluator`] — the offspring of each generation are
//!   distributed over the arrays and evaluated simultaneously; evolution time
//!   follows the pipeline of Fig. 11 (run as a
//!   [`JobSpec::evolution`](crate::jobs::JobSpec::evolution) job),
//! * the cascade engine — cascaded evolution with separate or merged
//!   fitness, sequential or interleaved scheduling (Figs. 6, 16, 17; run as a
//!   [`JobSpec::cascade`](crate::jobs::JobSpec::cascade) job),
//! * [`evolve_same_filter_cascade`] — the "same filter in every stage"
//!   baseline of Figs. 16–17,
//! * [`evolve_imitation`] — evolution by imitation (Fig. 7): a bypassed array
//!   learns to reproduce a neighbour's output without any reference image.

use std::sync::Arc;

use ehw_parallel::ParallelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use ehw_array::array::ProcessingArray;
use ehw_array::compiled::CompiledArray;
use ehw_array::genotype::Genotype;
use ehw_evolution::fitness::{
    plan_filter_windows, EngineStats, FitnessEvaluator, SoftwareEvaluator,
};
use ehw_evolution::strategy::{
    run_evolution, run_evolution_with_parent, EsConfig, EvolutionResult, GenerationObserver,
    NullObserver,
};
use ehw_image::image::GrayImage;
use ehw_image::window::SharedWindows;

use crate::modes::{CascadeFitness, CascadeSchedule};
use crate::platform::EhwPlatform;
use crate::timing::{EvolutionTimeEstimate, PipelineTimer};

/// A training pair: what the array sees and what it should produce.
#[derive(Debug, Clone)]
pub struct EvolutionTask {
    /// Training input image (e.g. a noisy scene).
    pub input: GrayImage,
    /// Reference image (e.g. the noise-free scene, or an edge map).
    pub reference: GrayImage,
}

impl EvolutionTask {
    /// Creates a task.
    ///
    /// # Panics
    /// Panics if the images have different dimensions.
    pub fn new(input: GrayImage, reference: GrayImage) -> Self {
        assert_eq!(input.width(), reference.width(), "image width mismatch");
        assert_eq!(input.height(), reference.height(), "image height mismatch");
        Self { input, reference }
    }
}

/// Fitness evaluator that distributes candidates over the platform's arrays —
/// the software counterpart of the parallel evolution mode, where each array
/// evaluates one candidate of the generation.  A thin holder of a
/// [`SoftwareEvaluator`] over copies of the platform's arrays: array faults
/// are honoured, since a candidate assigned to a damaged array is compiled
/// against that array's fault overlay.
///
/// When constructed `with_windows`, the window extraction is shared with
/// every other job training on the same image (the service-scope
/// [`CrossJobCache`](crate::cache::CrossJobCache) hands it out); scoring is
/// identical either way.
#[derive(Debug)]
pub struct PlatformEvaluator(SoftwareEvaluator);

impl PlatformEvaluator {
    /// Creates an evaluator over the platform's current arrays and the given
    /// training pair.
    pub fn new(platform: &EhwPlatform, task: &EvolutionTask) -> Self {
        Self::with_windows(platform, task, Arc::new(SharedWindows::new(&task.input)))
    }

    /// [`new`](Self::new) over an already extracted, possibly shared, window
    /// set of `task.input`.
    pub(crate) fn with_windows(
        platform: &EhwPlatform,
        task: &EvolutionTask,
        windows: Arc<SharedWindows>,
    ) -> Self {
        let arrays = platform
            .acbs()
            .iter()
            .map(|acb| acb.array().clone())
            .collect();
        Self(SoftwareEvaluator::with_arrays(
            arrays,
            windows,
            task.reference.clone(),
        ))
    }

    /// Work-saved counters of the engine paths (memo hits, early exits).
    pub(crate) fn engine_stats(&self) -> EngineStats {
        self.0.engine_stats()
    }
}

impl FitnessEvaluator for PlatformEvaluator {
    fn evaluate(&mut self, genotype: &Genotype) -> u64 {
        self.0.evaluate(genotype)
    }

    fn evaluate_batch_bounded(
        &mut self,
        batch: &[Genotype],
        bound: Option<u64>,
        incumbent: Option<(&Genotype, u64)>,
        parallel: ParallelConfig,
    ) -> Vec<u64> {
        self.0
            .evaluate_batch_bounded(batch, bound, incumbent, parallel)
    }

    fn evaluations(&self) -> u64 {
        self.0.evaluations()
    }
}

// ---------------------------------------------------------------------------
// Independent evolution
// ---------------------------------------------------------------------------

/// Evolves every array sequentially, each with its own training pair
/// (independent evolution, §IV.B).  The best circuit of each run is
/// configured into its array.  Returns one result per array, together with
/// the modelled evolution time of the whole (sequential) process.
///
/// # Panics
/// Panics if the number of tasks does not match the number of arrays.
pub fn evolve_independent(
    platform: &mut EhwPlatform,
    tasks: &[EvolutionTask],
    config: &EsConfig,
) -> (Vec<EvolutionResult>, EvolutionTimeEstimate) {
    assert_eq!(
        tasks.len(),
        platform.num_arrays(),
        "independent evolution needs one task per array"
    );
    let mut results = Vec::with_capacity(tasks.len());
    let mut total = EvolutionTimeEstimate::default();
    for (index, task) in tasks.iter().enumerate() {
        let mut cfg = *config;
        cfg.num_arrays = 1;
        cfg.parallel = platform.parallel_config();
        cfg.seed = config.seed.wrapping_add(index as u64);
        let mut evaluator = SoftwareEvaluator::with_array(
            platform.acb(index).array().clone(),
            task.input.clone(),
            task.reference.clone(),
        );
        let mut timer = PipelineTimer::new(
            platform.timing(),
            1,
            task.input.width(),
            task.input.height(),
        );
        let result = run_evolution(&cfg, &mut evaluator, &mut timer);
        platform.configure_array(index, &result.best_genotype);
        let est = timer.estimate();
        total.total_s += est.total_s;
        total.reconfiguration_s += est.reconfiguration_s;
        total.evaluation_s += est.evaluation_s;
        total.generations += est.generations;
        total.candidates += est.candidates;
        total.pe_reconfigurations += est.pe_reconfigurations;
        results.push(result);
    }
    (results, total)
}

// ---------------------------------------------------------------------------
// Cascaded evolution
// ---------------------------------------------------------------------------

/// How the per-stage parents of a cascaded evolution are initialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CascadeInit {
    /// Every stage starts from the identity (pass-through) circuit, so the
    /// chain output starts equal to the previous stage and can only improve
    /// under elitist selection — the monotone per-stage improvement of
    /// Figs. 16–17 is then guaranteed regardless of the generation budget.
    Identity,
    /// Every stage starts from a random genotype, like the first generation
    /// of the paper's embedded EA.
    Random,
}

/// Configuration of a cascaded evolution run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CascadeConfig {
    /// Generations spent on each stage (sequential) or rounds of one
    /// generation per stage (interleaved).
    pub generations: usize,
    /// Offspring per generation.
    pub offspring: usize,
    /// Mutation rate (genes per offspring).
    pub mutation_rate: usize,
    /// Separate per-stage fitness or a single merged fitness at the chain end.
    pub fitness: CascadeFitness,
    /// Sequential or interleaved stage scheduling.
    pub schedule: CascadeSchedule,
    /// Parent initialisation of each stage.
    pub init: CascadeInit,
    /// RNG seed.
    pub seed: u64,
}

impl CascadeConfig {
    /// A reasonable default mirroring the paper's EA parameters (nine
    /// offspring, separate fitness, sequential stages, pass-through
    /// initialisation).
    pub(crate) fn paper(generations: usize, mutation_rate: usize, seed: u64) -> Self {
        Self {
            generations,
            offspring: 9,
            mutation_rate,
            fitness: CascadeFitness::Separate,
            schedule: CascadeSchedule::Sequential,
            init: CascadeInit::Identity,
            seed,
        }
    }
}

/// Outcome of cascaded evolution.
#[derive(Debug, Clone)]
pub struct CascadeResult {
    /// Best genotype evolved for each stage, in chain order.
    pub stage_genotypes: Vec<Genotype>,
    /// MAE of the chain output after each stage against the reference (the
    /// per-stage values plotted in Figs. 16–17).
    pub stage_fitness: Vec<u64>,
    /// Candidate evaluations performed (parent re-evaluations + offspring),
    /// memoised or not.
    pub evaluations: u64,
    /// Work-saved counters of the cascade engine (plans evaluated, memo
    /// hits, early exits).
    pub stats: EngineStats,
}

impl CascadeResult {
    /// Fitness at the end of the chain, or `None` for a zero-stage result
    /// (no platform can be built with zero arrays, but a `CascadeResult` is
    /// plain data and may legitimately be empty, e.g. when deserialised or
    /// aggregated).
    pub fn final_fitness(&self) -> Option<u64> {
        self.stage_fitness.last().copied()
    }
}

/// Cascaded evolution (§IV.B, Fig. 6), the engine behind
/// [`JobSpec::cascade`](crate::jobs::JobSpec::cascade) jobs: evolves one
/// circuit per stage so the chain progressively approaches the reference.
/// Honours the configured fitness arrangement and schedule, and configures
/// the evolved circuits into the platform before returning.
///
/// Each stage is scored by one [`SoftwareEvaluator`] over the cached windows
/// of its input (for merged fitness, chained through the downstream
/// parents), so candidates are patched from the parent's plan, early-exit at
/// the parent's fitness and are answered from the evaluator's phenotype memo
/// when they repeat a circuit already scored.  Everything observable
/// (`stage_genotypes`, `stage_fitness`, `evaluations`) is byte-identical to
/// per-candidate chain refiltering at any worker count — enforced against
/// the naive oracle in `ehw_bench::oracle` by
/// `tests/property_cascade_equivalence.rs`.
///
/// `on_step` is invoked after every scheduler step (one stage-generation)
/// with a running step index; returning `false` stops the cascade at that
/// boundary — the job layer's cancellation/deadline/progress seam.
pub(crate) fn evolve_cascade(
    platform: &mut EhwPlatform,
    task: &EvolutionTask,
    config: &CascadeConfig,
    on_step: &mut dyn FnMut(usize) -> bool,
) -> CascadeResult {
    let stages = platform.num_arrays();
    let arrays: Vec<ProcessingArray> = platform
        .acbs()
        .iter()
        .map(|acb| acb.array().clone())
        .collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let parents = initial_parents(stages, config.init, &mut rng);
    let parent_plans = arrays
        .iter()
        .zip(&parents)
        .map(|(a, g)| a.compile_with(g))
        .collect();

    let mut windows = vec![None; stages];
    windows[0] = Some((Arc::new(SharedWindows::new(&task.input)), 0));
    let mut state = CascadeState {
        task,
        fitness_mode: config.fitness,
        parallel: platform.parallel_config(),
        arrays,
        parents,
        parent_plans,
        changed_at: vec![0; stages],
        epoch: 0,
        windows,
        scorers: (0..stages).map(|_| None).collect(),
        evaluations: 0,
        stats: EngineStats::default(),
    };

    let mut step_index = 0usize;
    drive_schedule(config.schedule, stages, config.generations, |stage| {
        state.one_generation(stage, config, &mut rng);
        let go = on_step(step_index);
        step_index += 1;
        go
    });

    for (stage, genotype) in state.parents.iter().enumerate() {
        platform.configure_array(stage, genotype);
    }
    let stage_fitness = platform.chain_fitness(&task.input, &task.reference);
    CascadeResult {
        stats: state.total_stats(),
        stage_genotypes: state.parents,
        stage_fitness,
        evaluations: state.evaluations,
    }
}

/// Drives the configured schedule: sequential scheduling exhausts each
/// stage's generation budget before moving on; interleaved scheduling gives
/// every stage one generation per round.  `step(stage)` runs one generation
/// and reports whether to continue; a `false` return ends the drive early.
fn drive_schedule(
    schedule: CascadeSchedule,
    stages: usize,
    generations: usize,
    mut step: impl FnMut(usize) -> bool,
) {
    match schedule {
        CascadeSchedule::Sequential => {
            for stage in 0..stages {
                for _ in 0..generations {
                    if !step(stage) {
                        return;
                    }
                }
            }
        }
        CascadeSchedule::Interleaved => {
            for _ in 0..generations {
                for stage in 0..stages {
                    if !step(stage) {
                        return;
                    }
                }
            }
        }
    }
}

fn initial_parents(stages: usize, init: CascadeInit, rng: &mut StdRng) -> Vec<Genotype> {
    (0..stages)
        .map(|_| match init {
            CascadeInit::Identity => Genotype::identity(),
            CascadeInit::Random => Genotype::random(rng),
        })
        .collect()
}

/// Mutable state of the compiled cascade engine.
///
/// Each stage is scored by one [`SoftwareEvaluator`] over the windows of its
/// input — under merged fitness, chained through the downstream parents'
/// plans — so the evaluator's phenotype memo answers every candidate that
/// repeats a circuit already scored under the same parent fitness.  What a
/// stage's evaluator depends on besides the candidate is the upstream
/// parents (via the stage input) and, for merged fitness, the downstream
/// parents.  Evaluators and stage windows are tagged with the *epoch* (a
/// counter bumped on every parent replacement) at which they were built, and
/// stay current while none of the stages they depend on changed after it:
/// sequential scheduling keeps one evaluator per stage for the stage's whole
/// generation budget, and interleaved scheduling keeps every one the
/// intervening rounds left untouched.
struct CascadeState<'a> {
    task: &'a EvolutionTask,
    fitness_mode: CascadeFitness,
    parallel: ParallelConfig,
    /// Each stage's array, its fault overlay included.
    arrays: Vec<ProcessingArray>,
    parents: Vec<Genotype>,
    /// Compiled plan of each stage's current parent.
    parent_plans: Vec<CompiledArray>,
    /// Epoch at which each stage's parent was last replaced.
    changed_at: Vec<u64>,
    epoch: u64,
    /// `windows[s]`: the 3×3 windows of stage `s`'s input (the task input
    /// filtered through parents `0..s`), tagged with their epoch.
    windows: Vec<Option<(Arc<SharedWindows>, u64)>>,
    /// Each stage's evaluator, once built.
    scorers: Vec<Option<StageScorer>>,
    evaluations: u64,
    stats: EngineStats,
}

/// The evaluator of one cascade stage.
struct StageScorer {
    evaluator: SoftwareEvaluator,
    /// Epoch at which the evaluator was built.
    built_at: u64,
    /// Exact fitness of the stage's current parent on this evaluator.
    parent_fitness: u64,
}

impl CascadeState<'_> {
    /// `true` if a value computed at `epoch` that depends on the parents of
    /// stages `0..s` is still current.
    fn prefix_fresh(&self, s: usize, epoch: u64) -> bool {
        self.changed_at[..s].iter().all(|&c| c <= epoch)
    }

    /// `true` if stage `s`'s evaluator built at `epoch` is still current: the
    /// upstream prefix is fresh and — for merged fitness — no downstream
    /// parent has been replaced since.  The stage's own parent does not
    /// matter: the memo is keyed by circuit and rebinds to each new bound.
    fn scorer_fresh(&self, s: usize, epoch: u64) -> bool {
        self.prefix_fresh(s, epoch)
            && (self.fitness_mode == CascadeFitness::Separate
                || self.changed_at[s + 1..].iter().all(|&c| c <= epoch))
    }

    /// The current windows of stage `s`'s input, refiltered forward from the
    /// deepest stage whose windows are still fresh (stage 0's input is the
    /// task input, which never changes), caching every stage on the way.
    fn stage_windows(&mut self, s: usize) -> Arc<SharedWindows> {
        let mut t = s;
        while !self.windows[t]
            .as_ref()
            .is_some_and(|(_, e)| self.prefix_fresh(t, *e))
        {
            t -= 1;
        }
        for u in t..s {
            let upstream = &self.windows[u].as_ref().expect("fresh windows").0;
            let input = plan_filter_windows(&self.parent_plans[u], upstream);
            self.windows[u + 1] = Some((Arc::new(SharedWindows::new(&input)), self.epoch));
        }
        Arc::clone(&self.windows[s].as_ref().expect("fresh windows").0)
    }

    /// The exact fitness of stage `s`'s current parent.  A current evaluator
    /// already holds it (a memo hit); otherwise the stage gets a new
    /// evaluator and the parent is scored on it.  Counts one evaluation
    /// either way, as the unconditional parent re-evaluation of
    /// per-candidate refiltering would.
    fn parent_fitness(&mut self, s: usize) -> u64 {
        self.evaluations += 1;
        if let Some(scorer) = &self.scorers[s] {
            if self.scorer_fresh(s, scorer.built_at) {
                self.stats.memo_hits += 1;
                return scorer.parent_fitness;
            }
        }
        let downstream = match self.fitness_mode {
            CascadeFitness::Separate => Vec::new(),
            CascadeFitness::Merged => self.parent_plans[s + 1..].to_vec(),
        };
        let mut evaluator = SoftwareEvaluator::chained(
            self.arrays[s].clone(),
            self.stage_windows(s),
            downstream,
            self.task.reference.clone(),
        );
        let parent_fitness = evaluator.evaluate(&self.parents[s]);
        let scorer = StageScorer {
            evaluator,
            built_at: self.epoch,
            parent_fitness,
        };
        if let Some(old) = self.scorers[s].replace(scorer) {
            self.stats.accumulate(old.evaluator.engine_stats());
        }
        parent_fitness
    }

    /// One (1+λ) generation of stage `s`: score the offspring batch on the
    /// stage's evaluator with the parent's fitness as the early-exit bound,
    /// and apply elitist selection with neutral drift.
    fn one_generation(&mut self, s: usize, config: &CascadeConfig, rng: &mut StdRng) {
        let bound = self.parent_fitness(s);
        let offspring: Vec<Genotype> = (0..config.offspring)
            .map(|_| self.parents[s].mutated(config.mutation_rate, rng))
            .collect();
        self.evaluations += offspring.len() as u64;
        let scorer = self.scorers[s].as_mut().expect("the parent was scored");
        // Early exit is sound under elitist selection: a candidate whose
        // running sum exceeds the parent's fitness can never be selected, so
        // its deterministic partial sum (> bound) stands in for the exact
        // value without changing the argmin below.
        let fitnesses = scorer.evaluator.evaluate_batch_bounded(
            &offspring,
            Some(bound),
            Some((&self.parents[s], bound)),
            self.parallel,
        );

        let mut best_child: Option<(usize, u64)> = None;
        for (i, &fitness) in fitnesses.iter().enumerate() {
            if best_child.is_none_or(|(_, f)| fitness < f) {
                best_child = Some((i, fitness));
            }
        }
        if let Some((i, fitness)) = best_child {
            // A neutrally-drifting child that is genotype-identical to the
            // parent replaces nothing observable: skipping it keeps every
            // downstream window and evaluator current instead of patching in
            // an identical plan and invalidating them all.
            if fitness <= bound && self.parents[s] != offspring[i] {
                // `fitness <= bound` implies the value is exact, so the
                // scorer holds the true parent fitness for the generations
                // ahead.
                self.epoch += 1;
                let diff = offspring[i].diff_from(&self.parents[s]);
                self.parents[s] = offspring[i].clone();
                self.parent_plans[s] = self.parent_plans[s].patch(&diff);
                self.changed_at[s] = self.epoch;
                scorer.parent_fitness = fitness;
            }
        }
    }

    /// The engine counters of every generation run: the state's own parent
    /// reuses plus each stage evaluator's work.
    fn total_stats(&self) -> EngineStats {
        let mut stats = self.stats;
        for scorer in self.scorers.iter().flatten() {
            stats.accumulate(scorer.evaluator.engine_stats());
        }
        stats
    }
}

/// The "same filter in every stage" baseline of Figs. 16–17: a single circuit
/// is evolved for the first stage and replicated into every stage of the
/// cascade.  Returns the per-stage chain fitness.
pub fn evolve_same_filter_cascade(
    platform: &mut EhwPlatform,
    task: &EvolutionTask,
    config: &EsConfig,
) -> CascadeResult {
    let mut cfg = *config;
    cfg.num_arrays = 1;
    let mut evaluator = SoftwareEvaluator::with_array(
        platform.acb(0).array().clone(),
        task.input.clone(),
        task.reference.clone(),
    );
    let result = run_evolution(&cfg, &mut evaluator, &mut NullObserver);
    platform.configure_all_arrays(&result.best_genotype);
    let stage_fitness = platform.chain_fitness(&task.input, &task.reference);
    CascadeResult {
        stage_genotypes: vec![result.best_genotype; platform.num_arrays()],
        stage_fitness,
        evaluations: result.evaluations,
        stats: evaluator.engine_stats(),
    }
}

// ---------------------------------------------------------------------------
// Evolution by imitation
// ---------------------------------------------------------------------------

/// How the imitation run is seeded (§VI.D, Fig. 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImitationStart {
    /// Start from the master's genotype (the "inherited" strategy, which the
    /// paper shows performs markedly better).
    FromMaster,
    /// Start from a random genotype.
    Random,
}

/// Evolution by imitation (§IV.B, Fig. 7): the array `apprentice` — typically
/// bypassed and possibly damaged — is evolved so its output matches the output
/// of array `master` on the same input stream.  No reference image is needed.
/// The evolved circuit is configured into the apprentice array.
pub fn evolve_imitation(
    platform: &mut EhwPlatform,
    apprentice: usize,
    master: usize,
    input: &GrayImage,
    config: &EsConfig,
    start: ImitationStart,
    observer: &mut dyn GenerationObserver,
) -> EvolutionResult {
    assert_ne!(apprentice, master, "an array cannot imitate itself");
    let master_output = platform.acb(master).raw_output(input);
    let mut evaluator = SoftwareEvaluator::with_array(
        platform.acb(apprentice).array().clone(),
        input.clone(),
        master_output,
    );
    let initial = match start {
        ImitationStart::FromMaster => Some(platform.acb(master).genotype().clone()),
        ImitationStart::Random => None,
    };
    let mut cfg = *config;
    cfg.num_arrays = 1;
    let result = run_evolution_with_parent(&cfg, initial, &mut evaluator, observer);
    platform.configure_array(apprentice, &result.best_genotype);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{execute, CascadeBuilder, JobSpec};
    use ehw_fabric::fault::FaultKind;
    use ehw_image::filters;
    use ehw_image::metrics::mae;
    use ehw_image::noise::salt_pepper;
    use ehw_image::synth;

    fn denoise_task(size: usize, density: f64, seed: u64) -> EvolutionTask {
        let clean = synth::shapes(size, size, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy = salt_pepper(&clean, density, &mut rng);
        EvolutionTask::new(noisy, clean)
    }

    /// A cascade job over `task` with one stage per array of `platform`.
    fn cascade_spec(platform: &EhwPlatform, task: &EvolutionTask) -> CascadeBuilder {
        JobSpec::cascade(task.input.clone(), task.reference.clone()).stages(platform.num_arrays())
    }

    fn run_cascade(platform: &mut EhwPlatform, spec: CascadeBuilder, seed: u64) -> CascadeResult {
        let spec = spec.build().expect("valid cascade spec");
        let job = execute(platform, &spec, seed);
        job.as_cascade().expect("cascade job").clone()
    }

    #[test]
    fn platform_evaluator_batch_matches_sequential() {
        let platform = EhwPlatform::paper_three_arrays();
        let task = denoise_task(24, 0.3, 1);
        let mut eval = PlatformEvaluator::new(&platform, &task);
        let mut rng = StdRng::seed_from_u64(2);
        let batch: Vec<Genotype> = (0..6).map(|_| Genotype::random(&mut rng)).collect();
        let parallel = eval.evaluate_batch_bounded(&batch, None, None, ParallelConfig::from_env());
        let sequential: Vec<u64> = batch
            .iter()
            .map(|g| {
                let mut e = PlatformEvaluator::new(&platform, &task);
                e.evaluate(g)
            })
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn platform_evaluator_memo_is_keyed_by_array() {
        // The same genotype lands on array 0 (healthy) and array 1 (damaged)
        // via round-robin; the memo must NOT share their results.
        let mut platform = EhwPlatform::new(2);
        platform.inject_pe_fault(1, 0, 3, FaultKind::Lpd);
        let task = denoise_task(24, 0.3, 2);
        let mut eval = PlatformEvaluator::new(&platform, &task);
        let g = Genotype::identity();
        let batch = vec![g.clone(), g.clone(), g.clone(), g.clone()];
        let fits = eval.evaluate_batch_bounded(&batch, None, None, ParallelConfig::from_env());
        // Candidates 0/2 run on the healthy array, 1/3 on the damaged one.
        assert_eq!(fits[0], fits[2]);
        assert_eq!(fits[1], fits[3]);
        assert_ne!(
            fits[0], fits[1],
            "fault overlay must be baked into the plan"
        );
        // Two of the four were memo hits (one per array).
        assert_eq!(eval.engine_stats().plans_evaluated, 2);
        assert_eq!(eval.engine_stats().memo_hits, 2);
        assert_eq!(eval.evaluations(), 4);
    }

    #[test]
    fn parallel_evolution_improves_and_configures_all_arrays() {
        let mut platform = EhwPlatform::paper_three_arrays();
        let task = denoise_task(24, 0.3, 3);
        let spec = JobSpec::evolution(task.input, task.reference)
            .num_arrays(3)
            .generations(40)
            .build()
            .unwrap();
        let job = execute(&mut platform, &spec, 7);
        let (result, time) = job.as_evolution().expect("evolution job");
        assert!(result.best_fitness <= result.initial_fitness);
        assert!(time.total_s > 0.0);
        assert_eq!(time.generations, 40);
        for i in 0..3 {
            assert_eq!(platform.acb(i).genotype(), &result.best_genotype);
        }
    }

    #[test]
    fn independent_evolution_handles_different_tasks_per_array() {
        let mut platform = EhwPlatform::new(2);
        let clean = synth::shapes(24, 24, 3);
        let denoise = denoise_task(24, 0.2, 5);
        let edges = EvolutionTask::new(clean.clone(), filters::sobel_edge(&clean));
        let config = EsConfig::paper(2, 1, 25, 11);
        let (results, time) = evolve_independent(&mut platform, &[denoise, edges], &config);
        assert_eq!(results.len(), 2);
        assert!(time.generations >= 50);
        // The two arrays end up with different circuits (different tasks).
        assert_ne!(platform.acb(0).genotype(), platform.acb(1).genotype());
    }

    #[test]
    #[should_panic(expected = "one task per array")]
    fn independent_evolution_checks_task_count() {
        let mut platform = EhwPlatform::new(2);
        let task = denoise_task(16, 0.2, 1);
        let config = EsConfig::paper(1, 1, 5, 1);
        let _ = evolve_independent(&mut platform, &[task], &config);
    }

    #[test]
    fn cascade_evolution_improves_over_stages() {
        let mut platform = EhwPlatform::paper_three_arrays();
        let task = denoise_task(24, 0.4, 9);
        let spec = cascade_spec(&platform, &task).generations(30);
        let result = run_cascade(&mut platform, spec, 13);
        assert_eq!(result.stage_fitness.len(), 3);
        assert_eq!(result.stage_genotypes.len(), 3);
        // With pass-through initialisation and elitist selection the chain can
        // only improve stage by stage (the shape of Figs. 16-17)...
        for w in result.stage_fitness.windows(2) {
            assert!(
                w[1] <= w[0],
                "stage fitness must not degrade: {:?}",
                result.stage_fitness
            );
        }
        // ...and the whole chain beats the unfiltered noisy input.
        let identity_fitness = mae(&task.input, &task.reference);
        assert!(result.final_fitness().expect("three stages") < identity_fitness);
    }

    #[test]
    fn interleaved_and_sequential_cascades_both_converge() {
        let task = denoise_task(20, 0.3, 17);
        let mut seq_platform = EhwPlatform::paper_three_arrays();
        let spec = cascade_spec(&seq_platform, &task)
            .generations(20)
            .schedule(CascadeSchedule::Sequential);
        let seq = run_cascade(&mut seq_platform, spec, 3);
        let mut int_platform = EhwPlatform::paper_three_arrays();
        let spec = cascade_spec(&int_platform, &task)
            .generations(20)
            .schedule(CascadeSchedule::Interleaved);
        let interleaved = run_cascade(&mut int_platform, spec, 3);
        let identity_fitness = mae(&task.input, &task.reference);
        assert!(seq.final_fitness().expect("stages") < identity_fitness);
        assert!(interleaved.final_fitness().expect("stages") < identity_fitness);
        // Sequential scheduling guarantees monotone per-stage improvement
        // (each stage starts as a pass-through of the previous one);
        // interleaved scheduling only converges towards it.
        for w in seq.stage_fitness.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn merged_fitness_cascade_runs() {
        let mut platform = EhwPlatform::new(2);
        let task = denoise_task(20, 0.3, 19);
        let spec = cascade_spec(&platform, &task)
            .generations(15)
            .fitness(CascadeFitness::Merged)
            .schedule(CascadeSchedule::Interleaved);
        let result = run_cascade(&mut platform, spec, 23);
        assert_eq!(result.stage_fitness.len(), 2);
        assert!(result.final_fitness().expect("stages") < mae(&task.input, &task.reference));
    }

    #[test]
    fn random_init_cascade_still_runs() {
        let mut platform = EhwPlatform::new(2);
        let task = denoise_task(16, 0.2, 53);
        let spec = cascade_spec(&platform, &task)
            .generations(10)
            .init(CascadeInit::Random);
        let result = run_cascade(&mut platform, spec, 59);
        assert_eq!(result.stage_fitness.len(), 2);
    }

    #[test]
    fn empty_cascade_result_has_no_final_fitness() {
        // Regression: `final_fitness` used to `expect("at least one stage")`
        // and panic on zero-stage data; an empty result is valid plain data
        // and must answer gracefully.
        let empty = CascadeResult {
            stage_genotypes: Vec::new(),
            stage_fitness: Vec::new(),
            evaluations: 0,
            stats: EngineStats::default(),
        };
        assert_eq!(empty.final_fitness(), None);
    }

    #[test]
    fn compiled_cascade_is_identical_at_any_worker_count() {
        let task = denoise_task(20, 0.3, 73);
        let run = |parallel: ParallelConfig| {
            let mut platform = EhwPlatform::with_parallel(3, parallel);
            let spec = cascade_spec(&platform, &task)
                .generations(6)
                .schedule(CascadeSchedule::Interleaved);
            run_cascade(&mut platform, spec, 79)
        };
        let reference = run(ParallelConfig::serial());
        for workers in [2usize, 8] {
            let r = run(ParallelConfig::with_workers(workers));
            assert_eq!(r.stage_genotypes, reference.stage_genotypes);
            assert_eq!(r.stage_fitness, reference.stage_fitness);
            assert_eq!(r.evaluations, reference.evaluations);
            assert_eq!(
                r.stats, reference.stats,
                "EngineStats must be worker-invariant"
            );
        }
    }

    #[test]
    fn merged_cascade_stats_are_worker_invariant() {
        // Merged stages chain each candidate through the downstream parents
        // and rebuild their evaluator whenever one changes; the memo and the
        // EngineStats accounting must be independent of the worker count.
        let task = denoise_task(20, 0.35, 83);
        for schedule in [CascadeSchedule::Sequential, CascadeSchedule::Interleaved] {
            let run = |parallel: ParallelConfig| {
                let mut platform = EhwPlatform::with_parallel(3, parallel);
                let spec = cascade_spec(&platform, &task)
                    .generations(8)
                    .fitness(CascadeFitness::Merged)
                    .schedule(schedule);
                run_cascade(&mut platform, spec, 89)
            };
            let reference = run(ParallelConfig::serial());
            for workers in [2usize, 8] {
                let r = run(ParallelConfig::with_workers(workers));
                assert_eq!(r.stage_genotypes, reference.stage_genotypes, "{schedule:?}");
                assert_eq!(r.stage_fitness, reference.stage_fitness);
                assert_eq!(r.evaluations, reference.evaluations);
                assert_eq!(r.stats, reference.stats);
            }
        }
    }

    #[test]
    fn a_seeded_cascade_answers_a_third_of_its_candidates_from_the_memo() {
        // The count the stage evaluators' memo exists for: on a fixed
        // three-stage, 100-generations-per-stage 32×32 run, offspring that
        // repeat the parent's circuit or one already scored under the same
        // parent fitness, and parent fitnesses reused unchanged, are at
        // least a third of all candidates.
        let mut platform = EhwPlatform::with_parallel(3, ParallelConfig::serial());
        let task = denoise_task(32, 0.4, 16);
        let spec = cascade_spec(&platform, &task).generations(100);
        let result = run_cascade(&mut platform, spec, 16);
        let stats = result.stats;
        let ratio = stats.memo_hits as f64 / result.evaluations as f64;
        assert!(
            ratio >= 1.0 / 3.0,
            "memo answered {ratio:.3} of candidates: {stats:?}"
        );
        assert_eq!(stats.memo_hits + stats.plans_evaluated, result.evaluations);
    }

    #[test]
    fn same_filter_cascade_replicates_one_genotype() {
        let mut platform = EhwPlatform::paper_three_arrays();
        let task = denoise_task(20, 0.3, 29);
        let config = EsConfig::paper(2, 1, 20, 31);
        let result = evolve_same_filter_cascade(&mut platform, &task, &config);
        assert_eq!(result.stage_genotypes.len(), 3);
        assert_eq!(result.stage_genotypes[0], result.stage_genotypes[1]);
        assert_eq!(result.stage_genotypes[1], result.stage_genotypes[2]);
        for i in 0..3 {
            assert_eq!(platform.acb(i).genotype(), &result.stage_genotypes[0]);
        }
    }

    #[test]
    fn imitation_from_master_reaches_zero_on_healthy_array() {
        // Without faults, starting from the master genotype reproduces it
        // exactly: fitness 0 from generation zero.
        let mut platform = EhwPlatform::paper_three_arrays();
        let mut rng = StdRng::seed_from_u64(37);
        let master_genotype = Genotype::random(&mut rng);
        platform.configure_array(0, &master_genotype);
        let input = synth::shapes(24, 24, 3);
        let config = EsConfig::paper(1, 1, 10, 41);
        let result = evolve_imitation(
            &mut platform,
            1,
            0,
            &input,
            &config,
            ImitationStart::FromMaster,
            &mut NullObserver,
        );
        assert_eq!(result.initial_fitness, 0);
        assert_eq!(result.best_fitness, 0);
        assert_eq!(platform.acb(1).genotype(), &master_genotype);
    }

    #[test]
    fn imitation_on_damaged_array_improves_fitness() {
        let mut platform = EhwPlatform::paper_three_arrays();
        let mut rng = StdRng::seed_from_u64(43);
        let master_genotype = Genotype::random(&mut rng);
        platform.configure_all_arrays(&master_genotype);
        platform.inject_pe_fault(1, 0, 3, FaultKind::Lpd);

        let input = synth::shapes(24, 24, 3);
        let config = EsConfig {
            target_fitness: Some(0),
            ..EsConfig::paper(2, 1, 60, 47)
        };
        let result = evolve_imitation(
            &mut platform,
            1,
            0,
            &input,
            &config,
            ImitationStart::FromMaster,
            &mut NullObserver,
        );
        // The damaged apprentice should at least not get worse, and usually
        // improves by routing around the damaged PE.
        assert!(result.best_fitness <= result.initial_fitness);
    }

    #[test]
    #[should_panic(expected = "cannot imitate itself")]
    fn imitation_rejects_self_reference() {
        let mut platform = EhwPlatform::new(2);
        let input = synth::gradient(16, 16);
        let config = EsConfig::paper(1, 1, 5, 1);
        let _ = evolve_imitation(
            &mut platform,
            0,
            0,
            &input,
            &config,
            ImitationStart::Random,
            &mut NullObserver,
        );
    }
}
