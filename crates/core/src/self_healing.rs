//! Self-healing strategies (§V).
//!
//! Two supervisors are provided, matching the two operating modes the paper
//! analyses:
//!
//! * [`CascadedSelfHealing`] — for cascaded operation (§V.A): faults are
//!   detected by periodically running a **calibration image** through each
//!   array and comparing against the output recorded right after evolution.
//!   A detected fault is first scrubbed; if the deviation persists, the fault
//!   is permanent and the damaged stage is **bypassed and re-evolved online**,
//!   either against the original reference (if still available) or by
//!   **imitation** of a neighbouring array.
//! * [`TmrSupervisor`] — for parallel operation (§V.B): the three arrays
//!   filter the same stream, the **pixel voter** masks any single fault in the
//!   output, and the **fitness voter** detects the diverging array without
//!   needing a calibration image.  Recovery follows the same
//!   scrub → classify → imitate sequence; if imitation does not reach an exact
//!   copy, the recovered configuration is pasted into every array so that the
//!   TMR voter remains consistent.

use ehw_image::image::GrayImage;
use ehw_image::metrics::mae;
use ehw_image::window::SharedWindows;
use serde::{Deserialize, Serialize};

use ehw_evolution::fitness::{plan_filter_windows, plan_mae, plan_mae_bounded, SoftwareEvaluator};
use ehw_evolution::strategy::{run_evolution_with_parent, EsConfig, NullObserver};

use crate::evo_modes::{evolve_imitation, ImitationStart};
use crate::platform::EhwPlatform;
use crate::voter::{FitnessVote, FitnessVoter, PixelVoter};

/// How a permanent fault was recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryMethod {
    /// Re-evolution against the original reference image.
    ReEvolution,
    /// Evolution by imitation of a neighbouring array.
    Imitation {
        /// `true` if the imitation reached fitness zero (an exact functional
        /// copy of the master).
        exact: bool,
    },
}

/// Outcome of one self-healing check on one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealingOutcome {
    /// The fitness matched the calibration value: no fault.
    NoFaultDetected,
    /// The deviation disappeared after scrubbing: the fault was transient.
    TransientScrubbed,
    /// The deviation persisted after scrubbing: permanent fault, recovered by
    /// the reported method with the reported residual fitness (0 = perfect).
    PermanentRecovered {
        /// Recovery mechanism that was applied.
        method: RecoveryMethod,
        /// Fitness remaining after recovery (against the calibration target).
        residual_fitness: u64,
    },
}

/// One self-healing event, tied to the array it concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealingEvent {
    /// The array the event refers to.
    pub array: usize,
    /// What happened.
    pub outcome: HealingOutcome,
}

/// Configuration of the recovery step for permanent faults.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Evolution-strategy parameters of the recovery run.
    pub es: EsConfig,
    /// The original training pair, if the reference image is still available
    /// in memory.  When `None`, recovery falls back to evolution by imitation
    /// — the scenario the imitation mode was designed for.
    pub reference: Option<GrayImage>,
}

// ---------------------------------------------------------------------------
// Declarative recovery policies
// ---------------------------------------------------------------------------

/// One rung of a [`RecoveryPolicy`] escalation ladder.
///
/// Each step is a bounded reaction the campaign executor can apply to a
/// damaged array, cheapest first; the historic hard-coded reaction sequence
/// (scrub → remap → re-evolve) is now just one particular ladder value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryStep {
    /// Rewrite the configuration memory from the golden copy: removes every
    /// scrubbing-recoverable (SEU) fault, leaves permanent damage in place.
    /// Each attempt costs one re-measurement; attempts stop early once a
    /// pass no longer changes the measured fitness.
    Scrub {
        /// Maximum scrub-and-measure passes (at least 1).
        attempts: usize,
    },
    /// Spatial remap without evolution: re-route the output row of the
    /// current best configuration across every candidate row of the damaged
    /// array and keep the best — the TMR-style "paste a known-good
    /// configuration elsewhere" reaction, one measurement per row.
    TmrRemap,
    /// Re-evolve on the damaged fabric, seeded with the best configuration
    /// the ladder has found so far.
    Reevolve {
        /// Generation budget override; `None` inherits the campaign's
        /// recovery [`EsConfig`] budget (the historic behaviour).
        generations: Option<usize>,
        /// Optional wall-clock budget in milliseconds, checked at generation
        /// boundaries exactly like job deadlines.  **Opt-in nondeterminism**:
        /// how many generations fit depends on the host clock, so campaigns
        /// that must replay byte-identically leave this `None`.
        max_millis: Option<u64>,
    },
}

impl RecoveryStep {
    /// A re-evolve step inheriting the campaign's generation budget with no
    /// wall-clock bound — the historic behaviour.
    pub(crate) fn reevolve() -> Self {
        RecoveryStep::Reevolve {
            generations: None,
            max_millis: None,
        }
    }
}

/// An ordered escalation ladder of [`RecoveryStep`]s with an optional stop
/// condition, replacing the hard-coded reaction sequence.
///
/// Steps run in order on each injection event.  After every step the
/// executor checks the stop condition: with `stop_margin: Some(m)` the
/// ladder stops escalating once the best measured fitness is within `m` of
/// the clean baseline; with `None` every step always runs (the historic
/// behaviour — the legacy campaign always re-evolved, even on non-critical
/// positions).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// The reaction steps, cheapest first.
    pub steps: Vec<RecoveryStep>,
    /// Stop escalating once `best_fitness <= fitness_clean + margin`;
    /// `None` never stops early.
    pub stop_margin: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::default_ladder()
    }
}

impl RecoveryPolicy {
    /// The historic reaction pinned as data: one unconditional re-evolution
    /// with the campaign's recovery budget.  Campaigns under this policy are
    /// byte-identical to the pre-policy code path.
    pub fn default_ladder() -> Self {
        RecoveryPolicy {
            steps: vec![RecoveryStep::reevolve()],
            stop_margin: None,
        }
    }

    /// Scrub first (free for transient faults), then re-evolve only if the
    /// damage persists beyond the clean baseline.
    pub(crate) fn scrub_then_reevolve() -> Self {
        RecoveryPolicy {
            steps: vec![
                RecoveryStep::Scrub { attempts: 1 },
                RecoveryStep::reevolve(),
            ],
            stop_margin: Some(0),
        }
    }

    /// The full escalation ladder: scrub → spatial remap → re-evolve, each
    /// rung only reached while the damage persists.
    pub(crate) fn full_ladder() -> Self {
        RecoveryPolicy {
            steps: vec![
                RecoveryStep::Scrub { attempts: 1 },
                RecoveryStep::TmrRemap,
                RecoveryStep::reevolve(),
            ],
            stop_margin: Some(0),
        }
    }

    /// A deterministic human-readable label for reports: step tags joined
    /// with `+` (scrub attempts / explicit re-evolve budgets in parens),
    /// `@margin` appended when a stop condition is set.  The built-in
    /// ladders render as `reevolve`, `scrub+reevolve@0` and
    /// `scrub+tmr_remap+reevolve@0`; budgeted re-evolve steps render as
    /// `reevolve(40)`, `reevolve(250ms)` or `reevolve(40,250ms)`.
    pub fn describe(&self) -> String {
        let mut label = self
            .steps
            .iter()
            .map(|step| match step {
                RecoveryStep::Scrub { attempts: 1 } => "scrub".to_string(),
                RecoveryStep::Scrub { attempts } => format!("scrub({attempts})"),
                RecoveryStep::TmrRemap => "tmr_remap".to_string(),
                RecoveryStep::Reevolve {
                    generations: None,
                    max_millis: None,
                } => "reevolve".to_string(),
                RecoveryStep::Reevolve {
                    generations: Some(g),
                    max_millis: None,
                } => format!("reevolve({g})"),
                RecoveryStep::Reevolve {
                    generations: None,
                    max_millis: Some(ms),
                } => format!("reevolve({ms}ms)"),
                RecoveryStep::Reevolve {
                    generations: Some(g),
                    max_millis: Some(ms),
                } => format!("reevolve({g},{ms}ms)"),
            })
            .collect::<Vec<_>>()
            .join("+");
        if let Some(margin) = self.stop_margin {
            label.push_str(&format!("@{margin}"));
        }
        label
    }

    /// Structural validation of the ladder.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.steps.is_empty() {
            return Err(PolicyError::EmptyLadder);
        }
        for step in &self.steps {
            match step {
                RecoveryStep::Scrub { attempts: 0 } => return Err(PolicyError::ZeroScrubAttempts),
                RecoveryStep::Reevolve {
                    generations: Some(0),
                    ..
                } => return Err(PolicyError::ZeroReevolveBudget),
                RecoveryStep::Reevolve {
                    max_millis: Some(0),
                    ..
                } => return Err(PolicyError::ZeroReevolveMillis),
                _ => {}
            }
        }
        Ok(())
    }
}

/// Why a recovery-policy ladder is structurally invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyError {
    /// A ladder with no steps recovers nothing.
    EmptyLadder,
    /// A scrub step needs at least one attempt.
    ZeroScrubAttempts,
    /// An explicit re-evolve budget of zero generations runs nothing.
    ZeroReevolveBudget,
    /// An explicit re-evolve wall-clock budget of zero milliseconds expires
    /// before the first generation.
    ZeroReevolveMillis,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::EmptyLadder => {
                write!(f, "a recovery policy needs at least one step")
            }
            PolicyError::ZeroScrubAttempts => {
                write!(f, "scrub steps need at least 1 attempt")
            }
            PolicyError::ZeroReevolveBudget => {
                write!(
                    f,
                    "an explicit reevolve budget must be at least 1 generation"
                )
            }
            PolicyError::ZeroReevolveMillis => {
                write!(
                    f,
                    "an explicit reevolve wall-clock budget must be at least 1 ms"
                )
            }
        }
    }
}

impl std::error::Error for PolicyError {}

// ---------------------------------------------------------------------------
// Cascaded self-healing (§V.A)
// ---------------------------------------------------------------------------

/// Supervisor implementing the calibration-based strategy of §V.A.
///
/// The calibration image's 3×3 windows are extracted once at calibration
/// time and shared by every subsequent check: a deviation measurement runs
/// each array's cached compiled plan over the shared window buffer instead
/// of refiltering the calibration image from scratch, and the internal
/// "deviating at all?" checks early-exit at the first differing block.
#[derive(Debug, Clone)]
pub struct CascadedSelfHealing {
    calibration_input: GrayImage,
    calibration_windows: SharedWindows,
    golden_outputs: Vec<GrayImage>,
}

impl CascadedSelfHealing {
    /// Records the calibration baseline: the output of every array on the
    /// calibration image, captured right after the initial evolution
    /// (§V.A step b).
    pub fn calibrate(platform: &EhwPlatform, calibration_input: GrayImage) -> Self {
        let calibration_windows = SharedWindows::new(&calibration_input);
        let golden_outputs = platform
            .acbs()
            .iter()
            .map(|acb| plan_filter_windows(acb.array().plan(), &calibration_windows))
            .collect();
        Self {
            calibration_input,
            calibration_windows,
            golden_outputs,
        }
    }

    /// Current deviation of every array from its calibration baseline
    /// (aggregated MAE; 0 means "behaves exactly as recorded").
    pub fn deviations(&self, platform: &EhwPlatform) -> Vec<u64> {
        platform
            .acbs()
            .iter()
            .zip(self.golden_outputs.iter())
            .map(|(acb, golden)| plan_mae(acb.array().plan(), &self.calibration_windows, golden))
            .collect()
    }

    /// Runs one full check-and-heal pass over every array (§V.A steps c–i).
    /// Returns one event per array, in stack order.
    pub fn check_and_heal(
        &mut self,
        platform: &mut EhwPlatform,
        recovery: &RecoveryConfig,
    ) -> Vec<HealingEvent> {
        let mut events = Vec::with_capacity(platform.num_arrays());
        for array in 0..platform.num_arrays() {
            let outcome = self.heal_array(platform, array, recovery);
            events.push(HealingEvent { array, outcome });
        }
        events
    }

    /// `true` if the array's current behaviour differs from its calibration
    /// baseline at all.  Bounded with bound 0, so the comparison stops at the
    /// first 64-window block that deviates — a damaged array is typically
    /// flagged after a fraction of the calibration image.
    fn is_deviating(&self, platform: &EhwPlatform, array: usize) -> bool {
        plan_mae_bounded(
            platform.acb(array).array().plan(),
            &self.calibration_windows,
            &self.golden_outputs[array],
            Some(0),
        )
        .0 > 0
    }

    fn heal_array(
        &mut self,
        platform: &mut EhwPlatform,
        array: usize,
        recovery: &RecoveryConfig,
    ) -> HealingOutcome {
        // Steps d–e: re-evaluate and compare against the calibration value.
        if !self.is_deviating(platform, array) {
            return HealingOutcome::NoFaultDetected;
        }

        // Step f: scrub the damaged array (rewrite its last configuration).
        platform.scrub_array(array);

        // Steps g–h: re-evaluate; if the deviation is gone the fault was
        // transient.
        if !self.is_deviating(platform, array) {
            return HealingOutcome::TransientScrubbed;
        }

        // Step i: permanent fault.  Bypass the stage so the chain keeps
        // running, then re-evolve it online.
        platform.set_bypass(array, true);
        let (method, residual) = match &recovery.reference {
            Some(reference) => {
                let mut evaluator = SoftwareEvaluator::with_array(
                    platform.acb(array).array().clone(),
                    self.calibration_input.clone(),
                    reference.clone(),
                );
                let parent = platform.acb(array).genotype().clone();
                let result = run_evolution_with_parent(
                    &recovery.es,
                    Some(parent),
                    &mut evaluator,
                    &mut NullObserver,
                );
                platform.configure_array(array, &result.best_genotype);
                (RecoveryMethod::ReEvolution, result.best_fitness)
            }
            None => {
                // Learn from the closest neighbouring array (§V.A): the
                // previous stage, or the next one for the first stage.
                let master = if array == 0 { 1 } else { array - 1 };
                let result = evolve_imitation(
                    platform,
                    array,
                    master,
                    &self.calibration_input.clone(),
                    &recovery.es,
                    ImitationStart::FromMaster,
                    &mut NullObserver,
                );
                (
                    RecoveryMethod::Imitation {
                        exact: result.best_fitness == 0,
                    },
                    result.best_fitness,
                )
            }
        };
        platform.set_bypass(array, false);

        // The recovered behaviour becomes the new calibration baseline for
        // this array (same shared window pass as every other check).
        self.golden_outputs[array] = plan_filter_windows(
            platform.acb(array).array().plan(),
            &self.calibration_windows,
        );

        HealingOutcome::PermanentRecovered {
            method,
            residual_fitness: residual,
        }
    }
}

// ---------------------------------------------------------------------------
// TMR self-healing (§V.B)
// ---------------------------------------------------------------------------

/// One step of TMR operation: the voted output plus the diagnosis data.
#[derive(Debug, Clone)]
pub struct TmrStep {
    /// Majority-voted output image (what the downstream consumer sees).
    pub voted_output: GrayImage,
    /// Per-array fitness against the reference stream.
    pub fitnesses: [u64; 3],
    /// Verdict of the fitness voter.
    pub vote: FitnessVote,
    /// Number of pixels where at least one array was outvoted.
    pub disagreeing_pixels: usize,
}

impl TmrStep {
    /// Index of the array flagged as faulty, if any.
    pub fn faulty_array(&self) -> Option<usize> {
        match self.vote {
            FitnessVote::Divergent { array } => Some(array),
            _ => None,
        }
    }
}

/// Supervisor implementing the TMR strategy of §V.B on a three-array
/// platform.
#[derive(Debug, Clone)]
pub struct TmrSupervisor {
    fitness_voter: FitnessVoter,
    pixel_voter: PixelVoter,
}

impl TmrSupervisor {
    /// Creates a supervisor with the given fitness-similarity threshold
    /// (§V.B: a threshold absorbs the small fitness offset a recovered filter
    /// may have).
    pub fn new(fitness_threshold: u64) -> Self {
        Self {
            fitness_voter: FitnessVoter::new(fitness_threshold),
            pixel_voter: PixelVoter,
        }
    }

    /// Processes one image in parallel mode and runs both voters.
    ///
    /// # Panics
    /// Panics if the platform does not have exactly three arrays.
    pub fn process(
        &self,
        platform: &EhwPlatform,
        input: &GrayImage,
        reference: &GrayImage,
    ) -> TmrStep {
        assert_eq!(
            platform.num_arrays(),
            3,
            "TMR requires exactly three arrays"
        );
        let outputs = platform.process_parallel(input);
        let fitnesses = [
            mae(&outputs[0], reference),
            mae(&outputs[1], reference),
            mae(&outputs[2], reference),
        ];
        let vote = self.fitness_voter.vote(fitnesses);
        let pixel = self
            .pixel_voter
            .vote([&outputs[0], &outputs[1], &outputs[2]]);
        TmrStep {
            voted_output: pixel.image,
            fitnesses,
            vote,
            disagreeing_pixels: pixel.disagreeing_pixels,
        }
    }

    /// Recovers the array flagged by the fitness voter (§V.B steps d–h):
    /// scrub, classify, and — for permanent faults — evolve by imitation from
    /// a healthy sibling.  If the imitation does not reach an exact copy, the
    /// recovered configuration is pasted into every array so the voter stays
    /// valid.
    pub(crate) fn heal(
        &self,
        platform: &mut EhwPlatform,
        faulty: usize,
        input: &GrayImage,
        reference: &GrayImage,
        recovery_es: &EsConfig,
    ) -> HealingOutcome {
        assert!(faulty < 3, "TMR array index out of range");
        let healthy = (0..3).find(|&i| i != faulty).expect("two healthy arrays");

        let fitness_of = |platform: &EhwPlatform, idx: usize| {
            mae(&platform.acb(idx).raw_output(input), reference)
        };

        // Step d–f: scrub and re-evaluate.
        let before = fitness_of(platform, faulty);
        platform.scrub_array(faulty);
        let after_scrub = fitness_of(platform, faulty);
        let healthy_fitness = fitness_of(platform, healthy);
        if after_scrub == healthy_fitness {
            return HealingOutcome::TransientScrubbed;
        }
        if after_scrub == before && before == healthy_fitness {
            return HealingOutcome::NoFaultDetected;
        }

        // Step g: permanent fault — evolve by imitation from a healthy array.
        let result = evolve_imitation(
            platform,
            faulty,
            healthy,
            input,
            recovery_es,
            ImitationStart::FromMaster,
            &mut NullObserver,
        );
        let exact = result.best_fitness == 0;
        if !exact {
            // Step h: paste the recovered configuration into every array so
            // the three copies stay functionally identical for the voter.
            let genotype = result.best_genotype.clone();
            platform.configure_all_arrays(&genotype);
        }
        HealingOutcome::PermanentRecovered {
            method: RecoveryMethod::Imitation { exact },
            residual_fitness: result.best_fitness,
        }
    }

    /// Full surveillance step: process one image, and if the fitness voter
    /// flags an array, run the recovery procedure.  Returns the TMR step and
    /// the healing event, if one was triggered.
    pub fn step_and_heal(
        &self,
        platform: &mut EhwPlatform,
        input: &GrayImage,
        reference: &GrayImage,
        recovery_es: &EsConfig,
    ) -> (TmrStep, Option<HealingEvent>) {
        let step = self.process(platform, input, reference);
        let event = step.faulty_array().map(|faulty| HealingEvent {
            array: faulty,
            outcome: self.heal(platform, faulty, input, reference, recovery_es),
        });
        (step, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_array::genotype::Genotype;
    use ehw_fabric::fault::FaultKind;
    use ehw_image::noise::salt_pepper;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn configured_platform(seed: u64) -> (EhwPlatform, Genotype) {
        let mut platform = EhwPlatform::paper_three_arrays();
        let mut rng = StdRng::seed_from_u64(seed);
        let genotype = Genotype::random(&mut rng);
        platform.configure_all_arrays(&genotype);
        (platform, genotype)
    }

    /// A PE position that is always on the active data path: the last PE of
    /// the selected output row, so an injected fault is guaranteed to corrupt
    /// the array output.
    fn critical_pe(genotype: &Genotype) -> (usize, usize) {
        (
            genotype.output_gene as usize,
            ehw_array::genotype::ARRAY_COLS - 1,
        )
    }

    fn recovery_config(generations: usize, reference: Option<GrayImage>) -> RecoveryConfig {
        RecoveryConfig {
            es: EsConfig {
                target_fitness: Some(0),
                ..EsConfig::paper(1, 1, generations, 1234)
            },
            reference,
        }
    }

    #[test]
    fn healthy_platform_reports_no_faults() {
        let (platform, _) = configured_platform(1);
        let cal = synth::shapes(24, 24, 3);
        let mut supervisor = CascadedSelfHealing::calibrate(&platform, cal);
        assert!(supervisor.deviations(&platform).iter().all(|&d| d == 0));
        let mut platform = platform;
        let events = supervisor.check_and_heal(&mut platform, &recovery_config(5, None));
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .all(|e| e.outcome == HealingOutcome::NoFaultDetected));
    }

    #[test]
    fn transient_fault_is_classified_and_scrubbed() {
        let (mut platform, genotype) = configured_platform(2);
        let cal = synth::shapes(24, 24, 3);
        let mut supervisor = CascadedSelfHealing::calibrate(&platform, cal);

        let (row, col) = critical_pe(&genotype);
        platform.inject_pe_fault(1, row, col, FaultKind::Seu);
        assert!(supervisor.deviations(&platform)[1] > 0);

        let events = supervisor.check_and_heal(&mut platform, &recovery_config(5, None));
        assert_eq!(events[1].outcome, HealingOutcome::TransientScrubbed);
        assert_eq!(events[0].outcome, HealingOutcome::NoFaultDetected);
        assert!(supervisor.deviations(&platform).iter().all(|&d| d == 0));
    }

    #[test]
    fn permanent_fault_triggers_imitation_recovery() {
        let (mut platform, genotype) = configured_platform(3);
        let cal = synth::shapes(24, 24, 3);
        let mut supervisor = CascadedSelfHealing::calibrate(&platform, cal);

        let (row, col) = critical_pe(&genotype);
        platform.inject_pe_fault(2, row, col, FaultKind::Lpd);
        let events = supervisor.check_and_heal(&mut platform, &recovery_config(30, None));
        match events[2].outcome {
            HealingOutcome::PermanentRecovered { method, .. } => {
                assert!(matches!(method, RecoveryMethod::Imitation { .. }));
            }
            other => panic!("expected permanent recovery, got {other:?}"),
        }
        // After recovery the supervisor has adopted the new behaviour as its
        // baseline, so a subsequent check is clean.
        let after = supervisor.check_and_heal(&mut platform, &recovery_config(5, None));
        assert_eq!(after[2].outcome, HealingOutcome::NoFaultDetected);
        // The chain keeps running: bypass was released.
        assert!(!platform.acb(2).is_bypassed());
    }

    #[test]
    fn permanent_fault_with_reference_uses_re_evolution() {
        let (mut platform, genotype) = configured_platform(4);
        let clean = synth::shapes(24, 24, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let noisy = salt_pepper(&clean, 0.2, &mut rng);
        let mut supervisor = CascadedSelfHealing::calibrate(&platform, noisy);

        let (row, col) = critical_pe(&genotype);
        platform.inject_pe_fault(0, row, col, FaultKind::Lpd);
        let events = supervisor.check_and_heal(&mut platform, &recovery_config(20, Some(clean)));
        match events[0].outcome {
            HealingOutcome::PermanentRecovered { method, .. } => {
                assert_eq!(method, RecoveryMethod::ReEvolution);
            }
            other => panic!("expected re-evolution recovery, got {other:?}"),
        }
    }

    #[test]
    fn tmr_masks_fault_and_identifies_faulty_array() {
        let (mut platform, genotype) = configured_platform(5);
        let clean = synth::shapes(24, 24, 3);
        let reference = platform.acb(0).raw_output(&clean);
        let supervisor = TmrSupervisor::new(0);

        // Fault-free step: agreement, no disagreeing pixels.
        let step = supervisor.process(&platform, &clean, &reference);
        assert_eq!(step.vote, FitnessVote::Agreement);
        assert_eq!(step.disagreeing_pixels, 0);
        assert_eq!(step.voted_output, reference);

        // Inject a fault in array 1: the voter flags it, the voted output is
        // still the clean one.
        let (row, col) = critical_pe(&genotype);
        platform.inject_pe_fault(1, row, col, FaultKind::Lpd);
        let step = supervisor.process(&platform, &clean, &reference);
        assert_eq!(step.faulty_array(), Some(1));
        assert!(step.disagreeing_pixels > 0);
        assert_eq!(step.voted_output, reference);
    }

    #[test]
    fn tmr_recovers_transient_fault_by_scrubbing() {
        let (mut platform, genotype) = configured_platform(6);
        let clean = synth::shapes(24, 24, 3);
        let reference = platform.acb(0).raw_output(&clean);
        let supervisor = TmrSupervisor::new(0);

        let (row, col) = critical_pe(&genotype);
        platform.inject_pe_fault(2, row, col, FaultKind::Seu);
        let es = EsConfig::paper(1, 1, 5, 9);
        let (step, event) = supervisor.step_and_heal(&mut platform, &clean, &reference, &es);
        assert_eq!(step.faulty_array(), Some(2));
        assert_eq!(
            event.expect("healing triggered").outcome,
            HealingOutcome::TransientScrubbed
        );
        // Next step sees full agreement again.
        let step = supervisor.process(&platform, &clean, &reference);
        assert_eq!(step.vote, FitnessVote::Agreement);
    }

    #[test]
    fn tmr_recovers_permanent_fault_by_imitation() {
        let (mut platform, genotype) = configured_platform(7);
        let clean = synth::shapes(24, 24, 3);
        let reference = platform.acb(0).raw_output(&clean);
        let supervisor = TmrSupervisor::new(150);

        let (row, col) = critical_pe(&genotype);
        platform.inject_pe_fault(0, row, col, FaultKind::Lpd);
        let es = EsConfig {
            target_fitness: Some(0),
            ..EsConfig::paper(1, 1, 40, 13)
        };
        let (step, event) = supervisor.step_and_heal(&mut platform, &clean, &reference, &es);
        assert_eq!(step.faulty_array(), Some(0));
        match event.expect("healing triggered").outcome {
            HealingOutcome::PermanentRecovered {
                method,
                residual_fitness,
            } => {
                assert!(matches!(method, RecoveryMethod::Imitation { .. }));
                // Recovery can be exact or approximate, but it must not be
                // worse than the damaged state it started from.
                assert!(residual_fitness <= step.fitnesses[0]);
            }
            other => panic!("expected permanent recovery, got {other:?}"),
        }
    }

    #[test]
    fn policy_ladders_validate_per_failure_mode() {
        assert!(RecoveryPolicy::default_ladder().validate().is_ok());
        assert!(RecoveryPolicy::scrub_then_reevolve().validate().is_ok());
        assert!(RecoveryPolicy::full_ladder().validate().is_ok());
        assert_eq!(
            RecoveryPolicy {
                steps: vec![],
                stop_margin: None
            }
            .validate(),
            Err(PolicyError::EmptyLadder)
        );
        assert_eq!(
            RecoveryPolicy {
                steps: vec![RecoveryStep::Scrub { attempts: 0 }],
                stop_margin: None
            }
            .validate(),
            Err(PolicyError::ZeroScrubAttempts)
        );
        assert_eq!(
            RecoveryPolicy {
                steps: vec![RecoveryStep::Reevolve {
                    generations: Some(0),
                    max_millis: None
                }],
                stop_margin: None
            }
            .validate(),
            Err(PolicyError::ZeroReevolveBudget)
        );
        assert_eq!(
            RecoveryPolicy {
                steps: vec![RecoveryStep::Reevolve {
                    generations: None,
                    max_millis: Some(0)
                }],
                stop_margin: None
            }
            .validate(),
            Err(PolicyError::ZeroReevolveMillis)
        );
        assert!(RecoveryPolicy {
            steps: vec![RecoveryStep::Reevolve {
                generations: Some(40),
                max_millis: Some(250)
            }],
            stop_margin: None
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn describe_renders_reevolve_budgets() {
        let policy = RecoveryPolicy {
            steps: vec![
                RecoveryStep::Reevolve {
                    generations: Some(40),
                    max_millis: None,
                },
                RecoveryStep::Reevolve {
                    generations: None,
                    max_millis: Some(250),
                },
                RecoveryStep::Reevolve {
                    generations: Some(40),
                    max_millis: Some(250),
                },
            ],
            stop_margin: None,
        };
        assert_eq!(
            policy.describe(),
            "reevolve(40)+reevolve(250ms)+reevolve(40,250ms)"
        );
    }

    #[test]
    fn default_policy_is_the_historic_reaction() {
        // The pre-policy code path was one unconditional re-evolution; the
        // default ladder pins exactly that as data.
        let policy = RecoveryPolicy::default();
        assert_eq!(policy.steps, vec![RecoveryStep::reevolve()]);
        assert_eq!(policy.stop_margin, None);
        assert_eq!(policy, RecoveryPolicy::default_ladder());
    }

    #[test]
    #[should_panic(expected = "exactly three arrays")]
    fn tmr_requires_three_arrays() {
        let platform = EhwPlatform::new(2);
        let img = synth::gradient(16, 16);
        let supervisor = TmrSupervisor::new(0);
        let _ = supervisor.process(&platform, &img, &img);
    }
}
