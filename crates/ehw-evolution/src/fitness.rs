//! Fitness evaluation.
//!
//! The hardware fitness unit streams the array output and a comparison stream
//! (reference image, input image, or the output of a neighbouring array)
//! through an accumulator of absolute differences.  The software counterpart
//! is a [`FitnessEvaluator`]: given a genotype it configures the functional
//! array model, filters the training image and returns the aggregated MAE —
//! lower is better, zero means a pixel-exact match.
//!
//! # The compiled evaluation engine
//!
//! Scoring one candidate touches every pixel of the training image; scoring a
//! λ-batch of them is the hot loop of the whole platform.  The engine path
//! ([`FitnessEvaluator::evaluate_batch_bounded`]) removes four sources of
//! redundant work the naive path pays for:
//!
//! 1. **Plans, not interpreters** — each candidate is compiled once into a
//!    [`CompiledArray`] (flat opcodes + dense fault overlay); the per-pixel
//!    loop performs zero map lookups and zero gene decoding.
//! 2. **Shared window streaming** — the training image's 3×3 windows are
//!    extracted once ([`SharedWindows`]) and shared by every candidate of
//!    every batch, instead of re-extracted per candidate with clamped reads.
//! 3. **Early-exit fitness** — given the incumbent (parent) fitness as a
//!    bound, a candidate's MAE accumulation stops as soon as the running sum
//!    exceeds it: under elitist selection such a candidate can never be
//!    selected, so its exact value is irrelevant.  Early-exited candidates
//!    report their (deterministic) partial sum, which is `> bound`; complete
//!    evaluations report the exact fitness, which is `<= bound`.
//! 4. **One score per circuit** — many offspring compute a circuit already
//!    scored: their mutations hit only genes no path to the output reads
//!    (the wasted evaluations Goldman & Punch measured in CGP), or they
//!    repeat a circuit an earlier generation tried under the same parent
//!    fitness.  [`SoftwareEvaluator`] keys each candidate by its array and
//!    its plan's [`phenotype`](CompiledArray::phenotype) and keeps a memo of
//!    the `(sum, early_exited)` pairs [`plan_mae_bounded`] returned under
//!    the current bound, seeded with the incumbent's known fitness; a hit is
//!    the very pair a fresh evaluation would return.  A cascade stage is one
//!    more such evaluator, [`chained`](SoftwareEvaluator::chained) through
//!    the downstream stages under merged fitness.
//!
//! This is the only evaluation path.  Every shortcut is observationally
//! equivalent: the evolution trajectory (best genotype, fitness history,
//! evaluation counts) is byte-identical to exhaustive scoring of every
//! candidate, at any worker count, and only the [`EngineStats`] counters
//! show the work saved.  The equivalence proptest suite enforces it against
//! the reference evaluators of `ehw_bench::oracle`, which live outside the
//! production crates.

use std::collections::BTreeMap;
use std::sync::Arc;

use ehw_array::array::ProcessingArray;
use ehw_array::compiled::CompiledArray;
use ehw_array::genotype::{GeneDiff, Genotype};
use ehw_image::image::GrayImage;
use ehw_image::metrics::sad;
use ehw_image::window::SharedWindows;
use ehw_parallel::ParallelConfig;

/// Anything that can score a candidate genotype.  Lower fitness is better.
pub trait FitnessEvaluator {
    /// Evaluates one candidate.
    fn evaluate(&mut self, genotype: &Genotype) -> u64;

    /// Evaluates a batch with the engine shortcuts of the module docs, in
    /// batch order, spread over the workers of `parallel`.
    ///
    /// * `bound` — the incumbent fitness: a returned value is the exact
    ///   fitness whenever it is `<= bound`, and some deterministic value
    ///   `> bound` otherwise (the candidate was early-exited).  `None`
    ///   disables early exit and every value is exact.
    /// * `incumbent` — the genotype the bound belongs to and its exact
    ///   fitness on this evaluator; candidates computing the same circuit
    ///   may reuse the value without being re-evaluated.  Implementations
    ///   must only honour this when a candidate would provably score
    ///   identically (same circuit, same array, same faults); when in doubt,
    ///   ignore it.
    ///
    /// Results must not depend on the worker count.  Every candidate counts
    /// towards [`evaluations`](Self::evaluations), memoised or not.  The
    /// default scores each candidate exactly with
    /// [`evaluate`](Self::evaluate), one after another.
    fn evaluate_batch_bounded(
        &mut self,
        batch: &[Genotype],
        bound: Option<u64>,
        incumbent: Option<(&Genotype, u64)>,
        parallel: ParallelConfig,
    ) -> Vec<u64> {
        let _ = (bound, incumbent, parallel);
        batch.iter().map(|g| self.evaluate(g)).collect()
    }

    /// Number of single-candidate evaluations performed so far.
    fn evaluations(&self) -> u64;
}

/// Work-saved counters of an engine-backed evaluator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Candidates actually run through a compiled plan (memo misses).
    /// With [`memo_hits`](Self::memo_hits) it sums to the batch candidates
    /// scored; single-candidate [`FitnessEvaluator::evaluate`] calls count
    /// here too.
    pub plans_evaluated: u64,
    /// Candidates answered without a plan evaluation: from an earlier
    /// candidate of the same batch or from the evaluator's phenotype memo
    /// (which holds the incumbent's fitness).  The cascade engine also
    /// counts here each stage-parent fitness it reuses unchanged.
    pub memo_hits: u64,
    /// Plan evaluations that stopped before the last pixel because the
    /// running MAE sum exceeded the incumbent bound.
    pub early_exits: u64,
}

impl EngineStats {
    /// Fraction of plan evaluations that early-exited, in `[0, 1]`.
    pub fn early_exit_rate(&self) -> f64 {
        if self.plans_evaluated == 0 {
            return 0.0;
        }
        self.early_exits as f64 / self.plans_evaluated as f64
    }

    /// Adds another evaluator's counters into this one — used to aggregate
    /// the stats of many short-lived evaluators (e.g. the per-position
    /// recovery evolutions of a fault campaign) into one report.
    pub fn accumulate(&mut self, other: EngineStats) {
        self.plans_evaluated += other.plans_evaluated;
        self.memo_hits += other.memo_hits;
        self.early_exits += other.early_exits;
    }
}

/// Aggregated MAE of a compiled plan over a shared window buffer.
///
/// Bit-identical to `mae(&plan.filter_image(input), reference)` — the sum of
/// absolute differences between the plan's response to every window and the
/// corresponding reference pixel.
pub fn plan_mae(plan: &CompiledArray, windows: &SharedWindows, reference: &GrayImage) -> u64 {
    plan_mae_bounded(plan, windows, reference, None).0
}

/// [`plan_mae`] with an early-exit bound: the windows are evaluated in
/// lane-parallel blocks, each block's absolute differences are summed with
/// [`sad`], and accumulation stops at the first block boundary where the
/// running sum exceeds `bound`.  Returns the sum and whether the
/// evaluation exited early; the sum is the exact MAE iff it is `<= bound`
/// (equivalently, iff the exit flag is `false`), and is a deterministic
/// partial sum otherwise.
pub fn plan_mae_bounded(
    plan: &CompiledArray,
    windows: &SharedWindows,
    reference: &GrayImage,
    bound: Option<u64>,
) -> (u64, bool) {
    // Hard assert (not debug): the pre-engine path funnelled through `mae`,
    // which checks dimensions in every build profile; a silent truncation
    // here would evolve against a quietly wrong objective.
    assert_eq!(windows.len(), reference.len(), "window/reference mismatch");
    let planes = windows.planes();
    let mut sum = 0u64;
    let mut buf = [0u8; CompiledArray::BLOCK];
    let mut start = 0;
    for rchunk in reference.as_slice().chunks(CompiledArray::BLOCK) {
        let out = &mut buf[..rchunk.len()];
        plan.evaluate_planes_into(planes, start, out);
        start += rchunk.len();
        sum += sad(out, rchunk);
        if let Some(bound) = bound {
            if sum > bound {
                return (sum, true);
            }
        }
    }
    (sum, false)
}

/// Filters a shared window buffer through a plan, producing the stage output
/// image — bit-identical to `plan.filter_image(source)` on the image the
/// windows were extracted from.  This is the cascade engine's bridge from a
/// stage's one-time extraction pass to the downstream chain, and lets
/// monitoring paths (calibration baselines, deviation checks) reuse one
/// window pass across every stage plan.
pub fn plan_filter_windows(plan: &CompiledArray, windows: &SharedWindows) -> GrayImage {
    let mut data = vec![0u8; windows.len()];
    plan.evaluate_planes_into(windows.planes(), 0, &mut data);
    GrayImage::from_vec(windows.width(), windows.height(), data)
}

/// [`plan_mae_bounded`] applied to a raw image instead of a pre-extracted
/// window buffer: windows are extracted one row at a time (streaming, never
/// materialising the full window set) and accumulation stops at the first
/// row boundary where the running sum exceeds `bound`.  The exit granularity
/// is a row rather than a 64-window block, so the partial sum of an
/// early-exited evaluation may differ from [`plan_mae_bounded`]'s — both are
/// deterministic, `> bound`, and exact iff `<= bound`, which is the only
/// contract bounded callers may rely on.
fn plan_image_mae_bounded(
    plan: &CompiledArray,
    input: &GrayImage,
    reference: &GrayImage,
    bound: Option<u64>,
) -> (u64, bool) {
    // Width and height individually: a same-area reference of a different
    // shape would otherwise silently truncate every row's comparison in the
    // zip below — the quietly-wrong-objective failure the plan_mae_bounded
    // hard assert exists to prevent.
    assert_eq!(input.width(), reference.width(), "image width mismatch");
    assert_eq!(input.height(), reference.height(), "image height mismatch");
    let width = input.width();
    let mut row_windows: Vec<ehw_image::window::Window3x3> = Vec::with_capacity(width);
    let mut buf = vec![0u8; width];
    let mut sum = 0u64;
    for y in 0..input.height() {
        row_windows.clear();
        ehw_image::window::for_each_window_in_rows(input, y, y + 1, |_, _, w| {
            row_windows.push(*w);
        });
        plan.evaluate_windows_into(&row_windows, &mut buf);
        sum += sad(&buf, reference.row(y));
        if let Some(bound) = bound {
            if sum > bound {
                return (sum, true);
            }
        }
    }
    (sum, false)
}

/// MAE at the end of a cascade chain: `plan`'s response to `windows` is
/// filtered through the `downstream` plans in order and the final image is
/// compared against `reference`.  The early-exit bound applies to the final
/// accumulation (the only one whose value is selected on), so the last
/// downstream stage is fused with the bounded comparison and stops filtering
/// as soon as the running sum exceeds `bound`; with no downstream stages this
/// is exactly [`plan_mae_bounded`].
fn chain_mae_bounded(
    plan: &CompiledArray,
    windows: &SharedWindows,
    downstream: &[CompiledArray],
    reference: &GrayImage,
    bound: Option<u64>,
) -> (u64, bool) {
    match downstream.split_last() {
        None => plan_mae_bounded(plan, windows, reference, bound),
        Some((last, mid)) => {
            let mut stream = plan_filter_windows(plan, windows);
            for p in mid {
                stream = p.filter_image(&stream);
            }
            plan_image_mae_bounded(last, &stream, reference, bound)
        }
    }
}

/// How one batch slot is resolved: evaluated through a plan (index into the
/// unique list) or answered from a known value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The slot shares the result of the `n`-th unique evaluation.
    Unique(usize),
    /// The slot's fitness is already known (a memo hit or the incumbent).
    Known(u64),
}

/// Scatters unique results (as returned by [`plan_mae_bounded`], in the order
/// of the batch's unique list) back into batch order and tallies memo hits
/// and early exits into `stats`.
fn scatter_results(slots: Vec<Slot>, results: &[(u64, bool)], stats: &mut EngineStats) -> Vec<u64> {
    stats.plans_evaluated += results.len() as u64;
    stats.early_exits += results.iter().filter(|r| r.1).count() as u64;
    let mut seen_unique = vec![false; results.len()];
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Known(f) => {
                stats.memo_hits += 1;
                f
            }
            Slot::Unique(u) => {
                if seen_unique[u] {
                    stats.memo_hits += 1;
                } else {
                    seen_unique[u] = true;
                }
                results[u].0
            }
        })
        .collect()
}

/// Entries the evaluator's phenotype memo holds before it starts over.  A
/// constant, not a setting: on e2ebench `mixed` (seed 1, 20 s) a memo this
/// size answers 25.8% of evolution candidates, an unbounded one 26.0%.
const MEMO_CAP: usize = 4_096;

/// Arrays an evaluator may hold: the memo key carries the array index in
/// the bits above the [`phenotype`](CompiledArray::phenotype).
const MAX_MEMO_ARRAYS: usize = 1 << (128 - CompiledArray::PHENOTYPE_BITS);

/// A memo key: a candidate's plan [`phenotype`](CompiledArray::phenotype)
/// on its array, with the array index in the bits above it.
fn memo_key(array: usize, phenotype: u128) -> u128 {
    phenotype | (array as u128) << CompiledArray::PHENOTYPE_BITS
}

/// The phenotype memo of [`SoftwareEvaluator`]: each key maps to the sum
/// [`plan_mae_bounded`] returned for it under `bound`, which also tells
/// whether it early-exited (iff it is `> bound`).  A hit is therefore the
/// very pair a fresh evaluation would return.  It starts empty, grows as
/// candidates are scored, and is cleared when the bound changes or when it
/// holds [`MEMO_CAP`] entries.
///
/// A B-tree rather than a hash table: it grows a few hundred bytes at a
/// time, where a table doubles, and on e2ebench `mixed` the doubling tables
/// of two concurrent jobs raised peak RSS by 5–12%.  A lookup costs a few
/// dozen word compares, nothing next to one plan evaluation.
#[derive(Debug, Clone, Default)]
struct PhenotypeMemo {
    bound: Option<u64>,
    sums: BTreeMap<u128, u64>,
}

impl PhenotypeMemo {
    /// Drops every entry computed under a bound other than `bound`.
    fn rebind(&mut self, bound: Option<u64>) {
        if self.bound != bound {
            self.sums.clear();
            self.bound = bound;
        }
    }

    fn get(&self, key: u128) -> Option<u64> {
        self.sums.get(&key).copied()
    }

    fn insert(&mut self, key: u128, sum: u64) {
        if self.sums.len() >= MEMO_CAP {
            self.sums.clear();
        }
        self.sums.insert(key, sum);
    }
}

/// Software fitness evaluator: functional array models, one training image
/// and one reference image.
///
/// Candidate `i` of a batch is scored on array `i % arrays` (round-robin,
/// like the hardware's candidate distribution over the parallel evolution
/// mode's arrays); single candidates are scored on the first array.  Faults
/// injected into an array persist across candidates — a damaged array keeps
/// being damaged no matter what genotype is configured, which is how the
/// self-healing experiments drive evolution *around* the fault.  The fault
/// corrupts the compiled *plan*, never a per-pixel lookup.
///
/// A [`chained`](Self::chained) evaluator scores one cascade stage: under
/// merged fitness each candidate's output is filtered through the fixed
/// downstream plans before the comparison.  Every other evaluator compares
/// the array output itself.
///
/// Batches go through the evaluator's phenotype memo (module docs, item 4):
/// at most 4,096 entries, empty until the first batch, cleared
/// whenever the bound changes.  [`evaluate`](FitnessEvaluator::evaluate)
/// never touches it.
#[derive(Debug, Clone)]
pub struct SoftwareEvaluator {
    arrays: Vec<ProcessingArray>,
    /// The input's 3×3 windows, extracted once and shared by every candidate
    /// of every batch (and, through the service's cross-job cache, by every
    /// job training on the same image).
    windows: Arc<SharedWindows>,
    /// Plans every candidate output passes through before the comparison;
    /// empty except on a merged-fitness cascade stage.
    downstream: Vec<CompiledArray>,
    reference: GrayImage,
    evaluations: u64,
    stats: EngineStats,
    memo: PhenotypeMemo,
}

impl SoftwareEvaluator {
    /// Creates an evaluator for the given training pair.
    ///
    /// # Panics
    /// Panics if the images have different dimensions.
    pub fn new(input: GrayImage, reference: GrayImage) -> Self {
        Self::with_array(ProcessingArray::identity(), input, reference)
    }

    /// Creates an evaluator that scores candidates on a specific array model
    /// (including any faults already injected into it) — used when evolution
    /// must happen *on the damaged hardware*, e.g. during self-healing.
    ///
    /// # Panics
    /// Panics if the images have different dimensions.
    pub fn with_array(array: ProcessingArray, input: GrayImage, reference: GrayImage) -> Self {
        Self::with_arrays(vec![array], Arc::new(SharedWindows::new(&input)), reference)
    }

    /// Creates an evaluator that distributes batch candidates round-robin
    /// over `arrays`, scoring against an already extracted, possibly shared,
    /// window set of the training input.
    ///
    /// # Panics
    /// Panics if `arrays` is empty or holds more than 64 arrays, or if the
    /// windows and the reference have different dimensions.
    pub fn with_arrays(
        arrays: Vec<ProcessingArray>,
        windows: Arc<SharedWindows>,
        reference: GrayImage,
    ) -> Self {
        assert!(!arrays.is_empty(), "an evaluator needs at least one array");
        assert!(
            arrays.len() <= MAX_MEMO_ARRAYS,
            "an evaluator holds at most {MAX_MEMO_ARRAYS} arrays"
        );
        assert_eq!(windows.width(), reference.width(), "image width mismatch");
        assert_eq!(
            windows.height(),
            reference.height(),
            "image height mismatch"
        );
        Self {
            arrays,
            windows,
            downstream: Vec::new(),
            reference,
            evaluations: 0,
            stats: EngineStats::default(),
            memo: PhenotypeMemo::default(),
        }
    }

    /// Creates an evaluator for one cascade stage: a candidate on `array`
    /// filters `windows` (the stage input), its output runs through the
    /// `downstream` plans in order (none under separate fitness), and the
    /// chain end is compared with `reference`.
    ///
    /// # Panics
    /// As [`with_arrays`](Self::with_arrays).
    pub fn chained(
        array: ProcessingArray,
        windows: Arc<SharedWindows>,
        downstream: Vec<CompiledArray>,
        reference: GrayImage,
    ) -> Self {
        Self {
            downstream,
            ..Self::with_arrays(vec![array], windows, reference)
        }
    }

    /// Work-saved counters of the engine paths (memo hits, early exits).
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }
}

impl FitnessEvaluator for SoftwareEvaluator {
    fn evaluate(&mut self, genotype: &Genotype) -> u64 {
        self.evaluations += 1;
        self.stats.plans_evaluated += 1;
        let plan = self.arrays[0].compile_with(genotype);
        chain_mae_bounded(
            &plan,
            &self.windows,
            &self.downstream,
            &self.reference,
            None,
        )
        .0
    }

    fn evaluate_batch_bounded(
        &mut self,
        batch: &[Genotype],
        bound: Option<u64>,
        incumbent: Option<(&Genotype, u64)>,
        parallel: ParallelConfig,
    ) -> Vec<u64> {
        // Every candidate is keyed by (array, phenotype) and resolved in
        // batch order on this thread: a memo hit, a repeat of an earlier
        // candidate of the batch, or a plan evaluation.  Only the
        // evaluations are fanned over the worker pool, which merges results
        // in candidate order, so values and stats are identical at any
        // worker count.  When the incumbent is known, its plan is compiled
        // once per array; keying and evaluation both apply a candidate's
        // ≤ k-gene diff to such a resident plan and revert it afterwards
        // (bit-identical to a fresh compile under the same overlay, with no
        // per-candidate plan copy).  Early exit stays sound per candidate: a
        // value is exact iff it is `<= bound` on *its* array.
        self.evaluations += batch.len() as u64;
        self.memo.rebind(bound);
        let num_arrays = self.arrays.len();
        let mut parent_plans: Option<Vec<CompiledArray>> =
            incumbent.map(|(pg, _)| self.arrays.iter().map(|a| a.compile_with(pg)).collect());
        // Gene diffs are mutation bookkeeping: computed once per candidate up
        // front (the DPR "frame list"), so the per-candidate patch step is
        // just the ≤ k-entry apply/revert replay.
        let diffs: Vec<GeneDiff> = match incumbent {
            Some((pg, _)) => batch.iter().map(|g| g.diff_from(pg)).collect(),
            None => Vec::new(),
        };
        // The incumbent's fitness was scored on the first array, so it is
        // known only for candidates landing there — with a single array.
        if let (Some((_, fitness)), Some(plans), 1) = (incumbent, &parent_plans, num_arrays) {
            if bound.is_none_or(|b| fitness <= b) {
                self.memo.insert(memo_key(0, plans[0].phenotype()), fitness);
            }
        }
        let keys: Vec<u128> = (0..batch.len())
            .map(|i| {
                let array = i % num_arrays;
                let key = match &mut parent_plans {
                    Some(plans) => {
                        let plan = &mut plans[array];
                        plan.apply(&diffs[i]);
                        let key = plan.phenotype();
                        plan.revert(&diffs[i]);
                        key
                    }
                    None => self.arrays[array].compile_with(&batch[i]).phenotype(),
                };
                memo_key(array, key)
            })
            .collect();
        let mut slots = Vec::with_capacity(batch.len());
        let mut todo: Vec<usize> = Vec::new();
        let mut first: BTreeMap<u128, usize> = BTreeMap::new();
        for (i, &key) in keys.iter().enumerate() {
            slots.push(match self.memo.get(key) {
                Some(sum) => Slot::Known(sum),
                None => Slot::Unique(*first.entry(key).or_insert_with(|| {
                    todo.push(i);
                    todo.len() - 1
                })),
            });
        }
        let (arrays, windows, downstream, reference) = (
            &self.arrays,
            &self.windows,
            &self.downstream,
            &self.reference,
        );
        let results = ehw_parallel::ordered_map_init(
            parallel,
            &todo,
            || parent_plans.clone(),
            |plans, _, &i| match plans {
                Some(plans) => {
                    let plan = &mut plans[i % num_arrays];
                    plan.apply(&diffs[i]);
                    let result = chain_mae_bounded(plan, windows, downstream, reference, bound);
                    plan.revert(&diffs[i]);
                    result
                }
                None => {
                    let plan = arrays[i % num_arrays].compile_with(&batch[i]);
                    chain_mae_bounded(&plan, windows, downstream, reference, bound)
                }
            },
        );
        for (&i, &(sum, _)) in todo.iter().zip(&results) {
            self.memo.insert(keys[i], sum);
        }
        scatter_results(slots, &results, &mut self.stats)
    }

    fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::metrics::mae;
    use ehw_image::noise::salt_pepper;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_genotype_scores_zero_on_identity_task() {
        let img = synth::shapes(32, 32, 3);
        let mut eval = SoftwareEvaluator::new(img.clone(), img);
        assert_eq!(eval.evaluate(&Genotype::identity()), 0);
        assert_eq!(eval.evaluations(), 1);
    }

    #[test]
    fn noisy_identity_scores_noise_level() {
        let clean = synth::shapes(64, 64, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = salt_pepper(&clean, 0.2, &mut rng);
        let mut eval = SoftwareEvaluator::new(noisy.clone(), clean.clone());
        // An identity filter leaves all the noise in place.
        let identity_fitness = eval.evaluate(&Genotype::identity());
        assert_eq!(identity_fitness, mae(&noisy, &clean));
        assert!(identity_fitness > 0);
    }

    #[test]
    fn batch_matches_sequential_evaluation() {
        let clean = synth::shapes(32, 32, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let mut eval = SoftwareEvaluator::new(noisy, clean);
        let batch: Vec<Genotype> = (0..9).map(|_| Genotype::random(&mut rng)).collect();
        let parallel = eval.evaluate_batch_bounded(&batch, None, None, ParallelConfig::from_env());
        let sequential: Vec<u64> = batch.iter().map(|g| eval.evaluate(g)).collect();
        assert_eq!(parallel, sequential);
        assert_eq!(eval.evaluations(), 9 + 9);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_images_panic() {
        let a = synth::gradient(16, 16);
        let b = synth::gradient(16, 17);
        let _ = SoftwareEvaluator::new(a, b);
    }

    fn toy_batch(seed: u64, n: usize) -> Vec<Genotype> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Genotype::random(&mut rng)).collect()
    }

    #[test]
    fn evaluations_counter_matches_batch_sizes_on_every_path() {
        // Regression: the serial, exhaustive-batch and bounded paths must
        // all count one evaluation per *requested* candidate — memo hits and
        // early exits included — at any worker count.
        let clean = synth::shapes(24, 24, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        for workers in [1usize, 2, 8] {
            let mut eval = SoftwareEvaluator::new(noisy.clone(), clean.clone());
            let cfg = ParallelConfig::with_workers(workers);
            let mut batch = toy_batch(7, 5);
            // Duplicates (memo hits) still count.
            batch.push(batch[0].clone());
            batch.push(batch[2].clone());

            eval.evaluate(&batch[0]); // serial: 1
            eval.evaluate_batch_bounded(&batch, None, None, cfg); // exhaustive batch: 7
                                                                  // Bounded with a tight bound (early exits) and the incumbent
                                                                  // shortcut: still 7.
            eval.evaluate_batch_bounded(&batch, Some(0), Some((&batch[0], 123)), cfg);
            assert_eq!(eval.evaluations(), 1 + 7 + 7, "workers = {workers}");
        }
    }

    #[test]
    fn bounded_matches_unbounded_when_bound_not_hit() {
        let clean = synth::shapes(24, 24, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let batch = toy_batch(11, 9);
        let mut eval = SoftwareEvaluator::new(noisy, clean);
        let exact = eval.evaluate_batch_bounded(&batch, None, None, ParallelConfig::serial());
        let max = *exact.iter().max().unwrap();
        let bounded =
            eval.evaluate_batch_bounded(&batch, Some(max), None, ParallelConfig::serial());
        assert_eq!(bounded, exact, "no candidate exceeds the bound");
    }

    #[test]
    fn bounded_early_exits_report_values_above_the_bound() {
        let clean = synth::shapes(24, 24, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let noisy = salt_pepper(&clean, 0.4, &mut rng);
        let batch = toy_batch(13, 9);
        let mut eval = SoftwareEvaluator::new(noisy, clean);
        let exact = eval.evaluate_batch_bounded(&batch, None, None, ParallelConfig::serial());
        let bound = exact.iter().copied().min().unwrap();
        let bounded =
            eval.evaluate_batch_bounded(&batch, Some(bound), None, ParallelConfig::serial());
        for (i, (&b, &e)) in bounded.iter().zip(exact.iter()).enumerate() {
            if e <= bound {
                assert_eq!(b, e, "candidate {i}: exact values must survive");
            } else {
                assert!(b > bound, "candidate {i}: early exit must report > bound");
                assert!(
                    b <= e,
                    "candidate {i}: partial sum cannot exceed the exact MAE"
                );
            }
        }
        assert!(eval.engine_stats().early_exits > 0);
    }

    #[test]
    fn bounded_results_are_identical_at_any_worker_count() {
        let clean = synth::shapes(24, 24, 3);
        let mut rng = StdRng::seed_from_u64(8);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let batch = toy_batch(17, 12);
        let reference = {
            let mut eval = SoftwareEvaluator::new(noisy.clone(), clean.clone());
            eval.evaluate_batch_bounded(&batch, Some(500), None, ParallelConfig::serial())
        };
        for workers in [2usize, 8] {
            let mut eval = SoftwareEvaluator::new(noisy.clone(), clean.clone());
            let got = eval.evaluate_batch_bounded(
                &batch,
                Some(500),
                None,
                ParallelConfig::with_workers(workers),
            );
            assert_eq!(got, reference, "diverged at {workers} workers");
        }
    }

    #[test]
    fn memo_answers_repeat_batches_with_the_fresh_pairs() {
        // A repeated batch under the same bound is answered wholly from the
        // memo, early-exited partial sums included, and matches a fresh
        // evaluator; a new bound starts the memo over.
        let clean = synth::shapes(24, 24, 3);
        let mut rng = StdRng::seed_from_u64(12);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let batch = toy_batch(23, 9);
        let fresh = |bound| {
            let mut eval = SoftwareEvaluator::new(noisy.clone(), clean.clone());
            eval.evaluate_batch_bounded(&batch, bound, None, ParallelConfig::serial())
        };
        let exact = fresh(None);
        let min = exact.iter().copied().min().unwrap();
        let bound = Some(min);
        let mut eval = SoftwareEvaluator::new(noisy.clone(), clean.clone());
        let first = eval.evaluate_batch_bounded(&batch, bound, None, ParallelConfig::serial());
        let evaluated = eval.engine_stats().plans_evaluated;
        let again = eval.evaluate_batch_bounded(&batch, bound, None, ParallelConfig::serial());
        assert_eq!(first, fresh(bound));
        assert_eq!(again, first);
        assert_eq!(eval.engine_stats().plans_evaluated, evaluated);
        assert!(first.iter().any(|&f| f > min), "some early exits");

        let unbounded = eval.evaluate_batch_bounded(&batch, None, None, ParallelConfig::serial());
        assert_eq!(unbounded, exact);
        assert_eq!(eval.engine_stats().plans_evaluated, 2 * evaluated);
        assert_eq!(eval.evaluations(), 27);
    }

    #[test]
    fn the_memo_never_holds_more_than_its_cap() {
        // A long evolution on a tiny image: the parent stalls early, so the
        // bound stops changing and the memo grows until it starts over.
        struct Watch(SoftwareEvaluator, usize);
        impl FitnessEvaluator for Watch {
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
                let out = self
                    .0
                    .evaluate_batch_bounded(batch, bound, incumbent, parallel);
                self.1 = self.1.max(self.0.memo.sums.len());
                out
            }
            fn evaluations(&self) -> u64 {
                self.0.evaluations()
            }
        }
        let clean = synth::shapes(6, 6, 2);
        let mut rng = StdRng::seed_from_u64(13);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let mut watch = Watch(SoftwareEvaluator::new(noisy, clean), 0);
        let config = crate::strategy::EsConfig {
            parallel: ParallelConfig::serial(),
            ..crate::strategy::EsConfig::paper(5, 1, 3_000, 14)
        };
        crate::strategy::run_evolution(&config, &mut watch, &mut crate::strategy::NullObserver);
        // Seen between batches, a full memo is one batch short of the cap at
        // most: it starts over on the insert that would pass it.
        assert!(watch.1 <= MEMO_CAP, "memo held {} entries", watch.1);
        assert!(
            watch.1 > MEMO_CAP - 9,
            "the run must fill the memo: {}",
            watch.1
        );
    }

    #[test]
    fn a_seeded_evolution_answers_a_sixth_of_its_candidates_from_the_memo() {
        // The count the memo exists for: on a fixed 1,000-generation 32×32
        // run, offspring that repeat the parent's circuit or one already
        // scored under the same bound are at least 15% of all candidates.
        let clean = synth::shapes(32, 32, 4);
        let mut rng = StdRng::seed_from_u64(16);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let mut eval = SoftwareEvaluator::new(noisy, clean);
        let config = crate::strategy::EsConfig {
            parallel: ParallelConfig::serial(),
            ..crate::strategy::EsConfig::paper(3, 1, 1_000, 16)
        };
        let result =
            crate::strategy::run_evolution(&config, &mut eval, &mut crate::strategy::NullObserver);
        let stats = eval.engine_stats();
        let ratio = stats.memo_hits as f64 / (result.evaluations - 1) as f64;
        assert!(
            ratio >= 0.15,
            "memo answered {ratio:.3} of candidates: {stats:?}"
        );
        assert_eq!(stats.memo_hits + stats.plans_evaluated, result.evaluations);
    }

    #[test]
    fn memo_and_incumbent_shortcuts_preserve_values() {
        let clean = synth::shapes(20, 20, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let mut batch = toy_batch(19, 4);
        let parent = batch[1].clone();
        batch.push(batch[0].clone()); // in-batch duplicate
        batch.push(parent.clone()); // incumbent duplicate

        let mut plain = SoftwareEvaluator::new(noisy.clone(), clean.clone());
        let exact = plain.evaluate_batch_bounded(&batch, None, None, ParallelConfig::serial());
        let parent_fitness = exact[1];

        let mut engine = SoftwareEvaluator::new(noisy, clean);
        let got = engine.evaluate_batch_bounded(
            &batch,
            None,
            Some((&parent, parent_fitness)),
            ParallelConfig::serial(),
        );
        assert_eq!(got, exact);
        let stats = engine.engine_stats();
        // Duplicate of candidate 0 is a memo hit; the two parent copies are
        // both answered from the incumbent.
        assert_eq!(stats.memo_hits, 3);
        assert_eq!(stats.plans_evaluated, 3);
        assert_eq!(engine.evaluations(), batch.len() as u64);
    }

    #[test]
    fn incumbent_shortcut_is_ignored_across_arrays() {
        // With two arrays the incumbent's fitness belongs to one of them; a
        // copy of the incumbent landing on the other (damaged) array must be
        // scored there, not answered from the incumbent.
        let clean = synth::shapes(20, 20, 3);
        let mut rng = StdRng::seed_from_u64(10);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let mut damaged = ProcessingArray::identity();
        damaged.inject_fault(0, 3, ehw_array::pe::FaultBehaviour::StuckAt { value: 0 });
        let arrays = vec![ProcessingArray::identity(), damaged];
        let windows = Arc::new(SharedWindows::new(&noisy));
        let parent = Genotype::identity();
        let mut exact =
            SoftwareEvaluator::with_arrays(arrays.clone(), windows.clone(), clean.clone());
        let batch = vec![parent.clone(), parent.clone()];
        let expected = exact.evaluate_batch_bounded(&batch, None, None, ParallelConfig::serial());
        assert_ne!(
            expected[0], expected[1],
            "the fault must show in the output"
        );

        let mut engine = SoftwareEvaluator::with_arrays(arrays, windows, clean);
        let got = engine.evaluate_batch_bounded(
            &batch,
            None,
            Some((&parent, expected[0])),
            ParallelConfig::serial(),
        );
        assert_eq!(got, expected);
        assert_eq!(engine.engine_stats().memo_hits, 0);
        assert_eq!(engine.engine_stats().plans_evaluated, 2);
    }

    #[test]
    fn plan_image_mae_bounded_matches_filter_then_mae() {
        let mut rng = StdRng::seed_from_u64(21);
        let img = synth::shapes(23, 17, 3);
        let reference = synth::shapes(23, 17, 4);
        for _ in 0..5 {
            let plan = CompiledArray::new(&Genotype::random(&mut rng));
            let exact = mae(&plan.filter_image(&img), &reference);
            assert_eq!(
                plan_image_mae_bounded(&plan, &img, &reference, None),
                (exact, false)
            );
            // Bounded: exact iff under the bound, deterministic partial
            // otherwise.
            let (sum, exited) = plan_image_mae_bounded(&plan, &img, &reference, Some(exact / 2));
            if exact > exact / 2 {
                assert!(exited && sum > exact / 2 && sum <= exact);
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn plan_image_mae_bounded_rejects_same_area_shape_mismatch() {
        // Regression: a same-area reference of a different shape must fail
        // loudly, not silently truncate every row's comparison.
        let input = synth::gradient(20, 10);
        let reference = synth::gradient(10, 20);
        let plan = CompiledArray::new(&Genotype::identity());
        let _ = plan_image_mae_bounded(&plan, &input, &reference, None);
    }

    #[test]
    fn engine_stats_rate_is_bounded() {
        let stats = EngineStats {
            plans_evaluated: 8,
            early_exits: 2,
            memo_hits: 1,
        };
        assert!((stats.early_exit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(EngineStats::default().early_exit_rate(), 0.0);
    }
}
