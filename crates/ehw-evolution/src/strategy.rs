//! The (1+λ) Evolution Strategy and the paper's two-level mutation EA.
//!
//! §III.A: *"getting inspiration from Cartesian Genetic Programming (CGP), a
//! simple (1+λ) Evolution Strategy with 1 parent and λ offspring has been
//! implemented."*  The experiments of §VI.B use **nine offspring per
//! generation** and mutation rates k ∈ {1, 3, 5}.
//!
//! The strategy here mirrors the embedded implementation:
//!
//! * offspring are generated by mutating the selected parent (classic mode) or
//!   by the **two-level scheme** of §VI.B (new EA): the first `num_arrays`
//!   offspring mutate the parent with rate k, the remaining offspring mutate
//!   those first candidates with rate 1,
//! * candidates are assigned round-robin to the available arrays; the number
//!   of **PE reconfigurations** each candidate needs is the number of
//!   PE-function genes in which it differs from whatever is currently
//!   configured in its array — the quantity that dominates evolution time,
//! * selection is elitist: the best offspring replaces the parent if its
//!   fitness is **equal or better** (neutral drift, as in CGP practice),
//! * every generation is scored through the one evaluation path,
//!   [`FitnessEvaluator::evaluate_batch_bounded`], with the parent as the
//!   incumbent: its fitness bounds each candidate's error accumulation, which
//!   changes the work done but never the selected candidate.

use ehw_parallel::ParallelConfig;
use rand::rngs::StdRng;
use rand::{SeedSequence, SeedableRng};
use serde::{Deserialize, Serialize};

use ehw_array::genotype::Genotype;

use crate::fitness::FitnessEvaluator;

/// How offspring are produced from the current parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MutationStrategy {
    /// Classic EA: every offspring mutates the parent with the nominal rate.
    Classic,
    /// The paper's new EA (§VI.B): the first `num_arrays` offspring mutate
    /// the parent with the nominal rate; the remaining offspring mutate those
    /// candidates with `low_rate` (k = 1 in the paper), so consecutive
    /// configurations of the same array differ in few PE genes.
    TwoLevel {
        /// Mutation rate of the secondary offspring (1 in the paper).
        low_rate: usize,
    },
}

impl MutationStrategy {
    /// The paper's new EA with its published low rate of one gene.
    pub fn two_level() -> Self {
        MutationStrategy::TwoLevel { low_rate: 1 }
    }
}

/// Configuration of one evolution run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EsConfig {
    /// Offspring per generation (λ); the paper uses 9.
    pub offspring: usize,
    /// Nominal mutation rate k (genes mutated per offspring).
    pub mutation_rate: usize,
    /// Number of generations to run.
    pub generations: usize,
    /// Number of physical arrays candidates are distributed over (1 or 3 in
    /// the paper); used for reconfiguration accounting and by the two-level
    /// scheme.
    pub num_arrays: usize,
    /// Offspring-generation scheme.
    pub strategy: MutationStrategy,
    /// Stop early if a candidate reaches this fitness (0 = only stop at a
    /// perfect solution when `Some(0)`).
    pub target_fitness: Option<u64>,
    /// RNG seed; every run is fully reproducible.
    pub seed: u64,
    /// How candidate evaluation is spread over host threads.  Scheduling
    /// only: every offspring draws from its own [`SeedSequence`]-derived
    /// stream, so the same seed produces a byte-identical best genotype and
    /// fitness trajectory at any worker count.
    pub parallel: ParallelConfig,
}

impl EsConfig {
    /// The configuration used by the paper's speed-up experiments: nine
    /// offspring, classic mutation, the given mutation rate, distributed over
    /// `num_arrays` arrays.
    pub fn paper(mutation_rate: usize, num_arrays: usize, generations: usize, seed: u64) -> Self {
        EsConfig {
            offspring: 9,
            mutation_rate,
            generations,
            num_arrays,
            strategy: MutationStrategy::Classic,
            target_fitness: None,
            seed,
            parallel: ParallelConfig::from_env(),
        }
    }

    fn validate(&self) {
        assert!(self.offspring > 0, "offspring must be positive");
        assert!(self.num_arrays > 0, "num_arrays must be positive");
        assert!(self.generations > 0, "generations must be positive");
    }
}

/// Observer called once per generation — the hook the platform's timing model
/// uses to turn reconfiguration counts into pipeline time, and the seam the
/// service layer threads cooperative cancellation through.
pub trait GenerationObserver {
    /// Called after each generation with the per-candidate PE-reconfiguration
    /// counts (in evaluation order, candidates assigned round-robin to
    /// arrays) and the best fitness seen so far.
    fn on_generation(
        &mut self,
        generation: usize,
        candidate_pe_reconfigs: &[usize],
        best_fitness: u64,
    );

    /// Cooperative stop signal, polled once per generation right after
    /// [`on_generation`](Self::on_generation).  Returning `true` ends the run
    /// at this generation boundary with the result accumulated so far —
    /// the mechanism behind job cancellation and per-job deadlines in the
    /// service layer.  The default never stops.
    fn should_stop(&self) -> bool {
        false
    }
}

/// An observer that ignores every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl GenerationObserver for NullObserver {
    fn on_generation(
        &mut self,
        _generation: usize,
        _candidate_pe_reconfigs: &[usize],
        _best_fitness: u64,
    ) {
    }
}

/// Result of one evolution run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvolutionResult {
    /// Best genotype found.
    pub best_genotype: Genotype,
    /// Fitness of the best genotype (aggregated MAE; lower is better).
    pub best_fitness: u64,
    /// Fitness of the initial (random) parent.
    pub initial_fitness: u64,
    /// Best fitness after each generation.
    pub history: Vec<u64>,
    /// Number of generations actually executed (may be fewer than configured
    /// if the target fitness was reached).
    pub generations_run: usize,
    /// Total candidate evaluations.
    pub evaluations: u64,
    /// Total PE reconfigurations required to step the arrays through every
    /// evaluated candidate.
    pub total_pe_reconfigurations: u64,
}

impl EvolutionResult {
    /// Relative fitness improvement over the initial parent, in `[0, 1]`.
    pub fn improvement(&self) -> f64 {
        if self.initial_fitness == 0 {
            return 0.0;
        }
        1.0 - self.best_fitness as f64 / self.initial_fitness as f64
    }
}

/// Runs a (1+λ) evolution with the given configuration, fitness evaluator and
/// per-generation observer, starting from a random parent.
pub fn run_evolution<E, O>(
    config: &EsConfig,
    evaluator: &mut E,
    observer: &mut O,
) -> EvolutionResult
where
    E: FitnessEvaluator + ?Sized,
    O: GenerationObserver + ?Sized,
{
    run_evolution_with_parent(config, None, evaluator, observer)
}

/// Runs a (1+λ) evolution starting from the given parent genotype (or a
/// random one when `None`).
///
/// Starting from a known-good parent is what §VI.D calls *inherited* start:
/// when recovering a faulty array by imitation, seeding evolution with the
/// genotype of the non-faulty master converges much better than a random
/// start (Fig. 19).
pub fn run_evolution_with_parent<E, O>(
    config: &EsConfig,
    initial_parent: Option<Genotype>,
    evaluator: &mut E,
    observer: &mut O,
) -> EvolutionResult
where
    E: FitnessEvaluator + ?Sized,
    O: GenerationObserver + ?Sized,
{
    config.validate();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Root of the per-candidate stream tree: candidate `i` of generation `g`
    // mutates with the RNG `streams.fork(g).fork(i)`.  Streams are addressed
    // purely by (generation, candidate), never pulled from a shared RNG, so
    // the offspring are identical no matter how evaluation is scheduled over
    // workers — the determinism guarantee of the parallel execution layer.
    let streams = SeedSequence::new(config.seed);

    // First generation: the provided parent, or a random one as in the
    // paper's embedded EA.
    let mut parent = initial_parent.unwrap_or_else(|| Genotype::random(&mut rng));
    let mut parent_fitness = evaluator.evaluate(&parent);
    let initial_fitness = parent_fitness;

    // The genotype currently configured in each physical array; the first
    // configuration of each array is a full write, counted as 16 PEs.
    let mut configured: Vec<Option<Genotype>> = vec![None; config.num_arrays];

    let mut best = parent.clone();
    let mut best_fitness = parent_fitness;
    let mut history = Vec::new();
    let mut total_reconfigs: u64 = 0;
    let mut generations_run = 0;

    for generation in 0..config.generations {
        // --- offspring generation -----------------------------------------
        let primaries = config.num_arrays.min(config.offspring);
        let gen_streams = streams.fork(generation as u64);
        let mut offspring: Vec<Genotype> = Vec::with_capacity(config.offspring);
        for i in 0..config.offspring {
            let mut candidate_rng = gen_streams.fork(i as u64).rng();
            let child = match config.strategy {
                MutationStrategy::Classic => {
                    parent.mutated(config.mutation_rate, &mut candidate_rng)
                }
                MutationStrategy::TwoLevel { low_rate } => {
                    if i < primaries {
                        parent.mutated(config.mutation_rate, &mut candidate_rng)
                    } else {
                        // Secondary offspring mutate the primary candidate of
                        // the same array with the low rate, so reconfiguring
                        // from one to the next touches few PEs.
                        offspring[i % primaries].mutated(low_rate, &mut candidate_rng)
                    }
                }
            };
            offspring.push(child);
        }

        // --- reconfiguration accounting ------------------------------------
        let mut reconfigs = Vec::with_capacity(config.offspring);
        for (i, child) in offspring.iter().enumerate() {
            let array = i % config.num_arrays;
            let count = match &configured[array] {
                Some(current) => child.pe_reconfigurations_from(current),
                None => ehw_array::genotype::PE_GENES,
            };
            reconfigs.push(count);
            total_reconfigs += count as u64;
            configured[array] = Some(child.clone());
        }

        // --- evaluation ----------------------------------------------------
        // The incumbent (parent) fitness is the early-exit bound: elitist
        // selection only ever accepts candidates scoring `<= parent_fitness`,
        // and those are exactly the ones the bounded path evaluates exactly.
        // Early-exited candidates report deterministic values
        // `> parent_fitness`, so selection — and therefore the whole
        // trajectory — is byte-identical to exhaustive evaluation.
        let fitnesses = evaluator.evaluate_batch_bounded(
            &offspring,
            Some(parent_fitness),
            Some((&parent, parent_fitness)),
            config.parallel,
        );

        // --- elitist selection with neutral drift ---------------------------
        let (best_idx, &gen_best) = fitnesses
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .expect("offspring is non-empty");
        if gen_best <= parent_fitness {
            parent = offspring[best_idx].clone();
            parent_fitness = gen_best;
        }
        if gen_best < best_fitness {
            best = offspring[best_idx].clone();
            best_fitness = gen_best;
        }

        history.push(best_fitness);
        generations_run = generation + 1;
        observer.on_generation(generation, &reconfigs, best_fitness);

        if let Some(target) = config.target_fitness {
            if best_fitness <= target {
                break;
            }
        }
        if observer.should_stop() {
            break;
        }
    }

    EvolutionResult {
        best_genotype: best,
        best_fitness,
        initial_fitness,
        history,
        generations_run,
        evaluations: evaluator.evaluations(),
        total_pe_reconfigurations: total_reconfigs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::SoftwareEvaluator;
    use ehw_image::noise::salt_pepper;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn denoise_evaluator(size: usize, density: f64, seed: u64) -> SoftwareEvaluator {
        let clean = synth::shapes(size, size, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy = salt_pepper(&clean, density, &mut rng);
        SoftwareEvaluator::new(noisy, clean)
    }

    /// An evaluator with a cheap, deterministic fitness used for fast tests:
    /// distance of the genotype to a fixed random target genotype.
    struct ToyEvaluator {
        target: Genotype,
        evals: u64,
    }

    impl ToyEvaluator {
        fn new(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            Self {
                target: Genotype::random(&mut rng),
                evals: 0,
            }
        }
    }

    impl FitnessEvaluator for ToyEvaluator {
        fn evaluate(&mut self, genotype: &Genotype) -> u64 {
            self.evals += 1;
            genotype.hamming_distance(&self.target) as u64
        }
        fn evaluations(&self) -> u64 {
            self.evals
        }
    }

    #[test]
    fn history_is_monotonically_non_increasing() {
        let config = EsConfig::paper(3, 1, 200, 42);
        let mut eval = ToyEvaluator::new(7);
        let result = run_evolution(&config, &mut eval, &mut NullObserver);
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert!(result.best_fitness <= result.initial_fitness);
        assert_eq!(result.generations_run, 200);
        assert_eq!(result.history.len(), 200);
    }

    #[test]
    fn toy_problem_converges_to_target() {
        let config = EsConfig {
            target_fitness: Some(0),
            ..EsConfig::paper(1, 1, 5_000, 1)
        };
        let mut eval = ToyEvaluator::new(9);
        let result = run_evolution(&config, &mut eval, &mut NullObserver);
        assert_eq!(result.best_fitness, 0);
        assert!(
            result.generations_run < 5_000,
            "should stop early at the target"
        );
        assert_eq!(result.best_genotype.hamming_distance(&eval.target), 0);
    }

    #[test]
    fn results_are_identical_at_any_worker_count() {
        // The determinism guarantee of the parallel execution layer: same
        // seed ⇒ byte-identical best genotype and fitness trajectory whether
        // the offspring are evaluated on 1, 2 or 8 workers.
        let reference = {
            let config = EsConfig {
                parallel: ParallelConfig::serial(),
                ..EsConfig::paper(3, 3, 40, 2024)
            };
            let mut eval = denoise_evaluator(24, 0.3, 6);
            run_evolution(&config, &mut eval, &mut NullObserver)
        };
        for workers in [2usize, 8] {
            let config = EsConfig {
                parallel: ParallelConfig::with_workers(workers),
                ..EsConfig::paper(3, 3, 40, 2024)
            };
            let mut eval = denoise_evaluator(24, 0.3, 6);
            let r = run_evolution(&config, &mut eval, &mut NullObserver);
            assert_eq!(
                r.best_genotype.encode(),
                reference.best_genotype.encode(),
                "genotype diverged at {workers} workers"
            );
            assert_eq!(r.best_fitness, reference.best_fitness);
            assert_eq!(r.history, reference.history);
            assert_eq!(
                r.total_pe_reconfigurations,
                reference.total_pe_reconfigurations
            );
            assert_eq!(r.evaluations, reference.evaluations);
        }
    }

    #[test]
    fn offspring_streams_are_addressed_by_position() {
        // Two runs that differ only in the worker knob must generate the
        // exact same candidate stream — checked indirectly above — and a run
        // with a different seed must not.
        let a = {
            let mut eval = ToyEvaluator::new(7);
            run_evolution(&EsConfig::paper(3, 1, 50, 1), &mut eval, &mut NullObserver)
        };
        let b = {
            let mut eval = ToyEvaluator::new(7);
            run_evolution(&EsConfig::paper(3, 1, 50, 2), &mut eval, &mut NullObserver)
        };
        assert_ne!(
            a.history, b.history,
            "different seeds should explore differently"
        );
    }

    #[test]
    fn runs_are_reproducible_for_equal_seeds() {
        let config = EsConfig::paper(3, 3, 100, 123);
        let mut e1 = ToyEvaluator::new(5);
        let mut e2 = ToyEvaluator::new(5);
        let r1 = run_evolution(&config, &mut e1, &mut NullObserver);
        let r2 = run_evolution(&config, &mut e2, &mut NullObserver);
        assert_eq!(r1.best_fitness, r2.best_fitness);
        assert_eq!(r1.history, r2.history);
        assert_eq!(r1.total_pe_reconfigurations, r2.total_pe_reconfigurations);
    }

    #[test]
    fn higher_mutation_rate_means_more_reconfigurations() {
        let mut totals = Vec::new();
        for k in [1usize, 3, 5] {
            let config = EsConfig::paper(k, 1, 300, 7);
            let mut eval = ToyEvaluator::new(3);
            let result = run_evolution(&config, &mut eval, &mut NullObserver);
            totals.push(result.total_pe_reconfigurations);
        }
        assert!(totals[0] < totals[1], "k=1 vs k=3: {totals:?}");
        assert!(totals[1] < totals[2], "k=3 vs k=5: {totals:?}");
    }

    #[test]
    fn two_level_ea_needs_fewer_reconfigurations_than_classic() {
        // The headline property behind Fig. 14.
        let classic = {
            let config = EsConfig::paper(5, 3, 300, 11);
            let mut eval = ToyEvaluator::new(3);
            run_evolution(&config, &mut eval, &mut NullObserver).total_pe_reconfigurations
        };
        let two_level = {
            let config = EsConfig {
                strategy: MutationStrategy::two_level(),
                ..EsConfig::paper(5, 3, 300, 11)
            };
            let mut eval = ToyEvaluator::new(3);
            run_evolution(&config, &mut eval, &mut NullObserver).total_pe_reconfigurations
        };
        assert!(
            two_level < classic,
            "two-level {two_level} should be below classic {classic}"
        );
    }

    #[test]
    fn observer_sees_every_generation_with_lambda_candidates() {
        struct Counting {
            generations: usize,
            candidates: usize,
        }
        impl GenerationObserver for Counting {
            fn on_generation(&mut self, _g: usize, reconfigs: &[usize], _best: u64) {
                self.generations += 1;
                self.candidates += reconfigs.len();
            }
        }
        let config = EsConfig::paper(3, 3, 50, 2);
        let mut eval = ToyEvaluator::new(1);
        let mut obs = Counting {
            generations: 0,
            candidates: 0,
        };
        run_evolution(&config, &mut eval, &mut obs);
        assert_eq!(obs.generations, 50);
        assert_eq!(obs.candidates, 50 * 9);
    }

    #[test]
    fn observer_stop_signal_ends_the_run_at_a_generation_boundary() {
        struct StopAfter {
            seen: usize,
            limit: usize,
        }
        impl GenerationObserver for StopAfter {
            fn on_generation(&mut self, _g: usize, _reconfigs: &[usize], _best: u64) {
                self.seen += 1;
            }
            fn should_stop(&self) -> bool {
                self.seen >= self.limit
            }
        }
        let config = EsConfig::paper(3, 1, 100, 13);
        let mut eval = ToyEvaluator::new(2);
        let mut obs = StopAfter { seen: 0, limit: 7 };
        let result = run_evolution(&config, &mut eval, &mut obs);
        // The run winds down exactly at the boundary the observer requested,
        // with the partial result intact.
        assert_eq!(result.generations_run, 7);
        assert_eq!(result.history.len(), 7);
        assert!(result.evaluations > 0);
    }

    #[test]
    fn evolution_improves_denoising_fitness() {
        // A short real run on the image workload: with elitist selection the
        // best fitness can only improve, and on salt & pepper noise it should
        // improve noticeably even in a few hundred generations.
        let mut eval = denoise_evaluator(32, 0.3, 1);
        let config = EsConfig::paper(3, 1, 150, 99);
        let result = run_evolution(&config, &mut eval, &mut NullObserver);
        assert!(result.best_fitness < result.initial_fitness);
        assert!(result.improvement() > 0.0);
    }

    #[test]
    fn reconfiguration_count_bounded_by_full_writes() {
        let config = EsConfig::paper(3, 1, 100, 5);
        let mut eval = ToyEvaluator::new(2);
        let result = run_evolution(&config, &mut eval, &mut NullObserver);
        // Each candidate can require at most a full 16-PE rewrite.
        assert!(result.total_pe_reconfigurations <= (100 * 9 * 16) as u64);
        // And at least the initial full configuration of the array.
        assert!(result.total_pe_reconfigurations >= 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_offspring_panics() {
        let mut config = EsConfig::paper(1, 1, 10, 0);
        config.offspring = 0;
        let mut eval = ToyEvaluator::new(1);
        run_evolution(&config, &mut eval, &mut NullObserver);
    }

    #[test]
    fn inherited_parent_starts_from_its_fitness() {
        // Seeding evolution with the target genotype itself must immediately
        // report fitness zero — the property the imitation recovery of §VI.D
        // exploits when starting from the master's genotype.
        let mut eval = ToyEvaluator::new(4);
        let target = eval.target.clone();
        let config = EsConfig::paper(1, 1, 5, 8);
        let result = run_evolution_with_parent(&config, Some(target), &mut eval, &mut NullObserver);
        assert_eq!(result.initial_fitness, 0);
        assert_eq!(result.best_fitness, 0);
    }

    #[test]
    fn inherited_parent_converges_faster_than_random_start() {
        let config = EsConfig {
            target_fitness: Some(0),
            ..EsConfig::paper(1, 1, 3_000, 21)
        };
        // Start one gene away from the target.
        let mut eval_near = ToyEvaluator::new(6);
        let mut rng = StdRng::seed_from_u64(77);
        let near = eval_near.target.mutated(1, &mut rng);
        let near_result =
            run_evolution_with_parent(&config, Some(near), &mut eval_near, &mut NullObserver);

        let mut eval_rand = ToyEvaluator::new(6);
        let random_result = run_evolution(&config, &mut eval_rand, &mut NullObserver);

        assert!(near_result.generations_run <= random_result.generations_run);
    }

    #[test]
    fn improvement_handles_zero_initial_fitness() {
        let img = synth::shapes(16, 16, 2);
        let mut eval = SoftwareEvaluator::new(img.clone(), img);
        // The identity task can be solved by generation 0 only by luck; force
        // the degenerate case through the accessor instead.
        let config = EsConfig::paper(1, 1, 5, 3);
        let result = run_evolution(&config, &mut eval, &mut NullObserver);
        let _ = result.improvement(); // must not divide by zero / NaN panic
    }
}
