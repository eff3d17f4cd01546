//! Systematic fault-injection campaigns (§VI.D).
//!
//! *"Using a hardware based fault analysis allows offering a systematic fault
//! analysis, by injecting faults in every position in every array of the
//! architecture."*  The campaign here does exactly that: for every PE slot of
//! the selected arrays it injects the dummy-PE fault, measures how much the
//! filtering quality degrades, runs the configured recovery (re-evolution on
//! the damaged array, seeded with the working genotype), measures the
//! recovered quality, and restores the platform before moving on.
//!
//! The per-position results feed the fault-tolerance discussion of §VI.D and
//! the ablation benches (how critical each PE position is, how much budget
//! recovery needs).
//!
//! The systematic sweep is one instance of the general machinery: a
//! [`FaultScenario`](crate::scenario::FaultScenario) compiles into a
//! deterministic [`InjectionSchedule`](crate::scenario::InjectionSchedule)
//! of multi-fault events, and each event is recovered by walking a
//! [`RecoveryPolicy`] escalation ladder
//! (scrub → TMR remap → re-evolve, with per-step budgets and stop
//! conditions).  [`run_campaign`] runs any scenario under any ladder; the
//! campaign builder's defaults — `SingleSweep` under the one-rung re-evolve
//! ladder — are the systematic sweep.

use ehw_array::array::ProcessingArray;
use ehw_array::genotype::{Genotype, ARRAY_COLS, ARRAY_ROWS};
use ehw_evolution::fitness::{plan_mae, EngineStats, SoftwareEvaluator};
use ehw_evolution::strategy::{run_evolution_with_parent, EsConfig, GenerationObserver};
use ehw_image::window::SharedWindows;
use ehw_parallel::ParallelConfig;
use serde::{Deserialize, Serialize};

use crate::evo_modes::EvolutionTask;
use crate::jobs::{FaultCampaignSpec, JobControl};
use crate::platform::EhwPlatform;
use crate::scenario::{InjectionEvent, PlannedFault, ScenarioKind};
use crate::self_healing::{RecoveryPolicy, RecoveryStep};

/// Relays the job-level cancellation token — and, when the recovery step
/// carries a wall-clock budget, a per-step deadline — into each position's
/// recovery evolution: the campaign has no generation structure of its own,
/// so the cooperative stop happens at the recovery runs' generation
/// boundaries, exactly like job deadlines.  Shared read-only across workers
/// — polling an atomic token is free of the determinism concerns actual
/// work-sharing would raise (an uncancelled, undeadlined run never observes
/// either).
struct RecoveryStopObserver<'a> {
    control: &'a JobControl,
    deadline: Option<std::time::Instant>,
}

impl GenerationObserver for RecoveryStopObserver<'_> {
    fn on_generation(&mut self, _g: usize, _reconfigs: &[usize], _best: u64) {}

    fn should_stop(&self) -> bool {
        self.control.stop_reason().is_some()
            || self
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
    }
}

/// Result of injecting a fault at one PE position and recovering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PositionResult {
    /// Array the fault was injected into.
    pub array: usize,
    /// PE row.
    pub row: usize,
    /// PE column.
    pub col: usize,
    /// Fitness of the working circuit before the fault.
    pub fitness_clean: u64,
    /// Fitness right after injecting the fault (no recovery yet).
    pub fitness_faulty: u64,
    /// Fitness after the recovery evolution.
    pub fitness_recovered: u64,
    /// Candidate evaluations spent on this position: the clean and faulty
    /// measurements plus every candidate of the recovery evolution.
    pub evaluations: u64,
    /// Work-saved counters of the recovery evolution's compiled engine —
    /// how many candidates ran through a plan, were answered from the memo,
    /// or early-exited on the incumbent bound while repairing this position.
    pub stats: EngineStats,
}

/// Fraction of the fault-induced degradation removed by recovery, in
/// `[0, 1]`; 1.0 when the fault never degraded the output.
fn degradation_recovered(clean: u64, faulty: u64, recovered: u64) -> f64 {
    let degradation = faulty.saturating_sub(clean);
    if degradation == 0 {
        return 1.0;
    }
    let remaining = recovered.saturating_sub(clean);
    1.0 - (remaining as f64 / degradation as f64).clamp(0.0, 1.0)
}

impl PositionResult {
    /// `true` if the fault at this position degraded the output at all —
    /// PEs outside the active data path are non-critical.
    pub fn is_critical(&self) -> bool {
        self.fitness_faulty > self.fitness_clean
    }

    /// `true` if recovery restored (at least) the original quality.
    pub(crate) fn fully_recovered(&self) -> bool {
        self.fitness_recovered <= self.fitness_clean
    }

    /// Fraction of the fault-induced degradation removed by recovery, in
    /// `[0, 1]`; 1.0 for non-critical positions.
    pub fn recovery_ratio(&self) -> f64 {
        degradation_recovered(
            self.fitness_clean,
            self.fitness_faulty,
            self.fitness_recovered,
        )
    }
}

/// Result of one multi-fault injection event of a scenario schedule: the
/// degradation it caused on its array and what the recovery-policy ladder
/// restored.  The generalisation of [`PositionResult`] to events that hit
/// several PEs at once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventResult {
    /// Timeline position of the event within the scenario.
    pub tick: usize,
    /// Array the faults were injected into.
    pub array: usize,
    /// The simultaneous faults of the event, in row-major order.
    pub faults: Vec<PlannedFault>,
    /// Fitness of the working circuit before the faults.
    pub fitness_clean: u64,
    /// Fitness right after injecting all faults (no recovery yet).
    pub fitness_faulty: u64,
    /// Best fitness any rung of the recovery ladder reached.
    pub fitness_recovered: u64,
    /// Candidate evaluations spent on this event: the clean and faulty
    /// measurements plus every ladder-step measurement and recovery
    /// candidate.
    pub evaluations: u64,
    /// Aggregate work-saved counters of every re-evolution the ladder ran.
    pub stats: EngineStats,
}

impl EventResult {
    /// `true` if the event degraded the output at all.
    pub(crate) fn is_critical(&self) -> bool {
        self.fitness_faulty > self.fitness_clean
    }

    /// `true` if recovery restored (at least) the original quality.
    pub(crate) fn fully_recovered(&self) -> bool {
        self.fitness_recovered <= self.fitness_clean
    }

    /// Fraction of the fault-induced degradation removed, in `[0, 1]`.
    pub(crate) fn recovery_ratio(&self) -> f64 {
        degradation_recovered(
            self.fitness_clean,
            self.fitness_faulty,
            self.fitness_recovered,
        )
    }

    /// The legacy per-position view of a single-fault event (what the
    /// systematic sweep reports).  Panics if the event holds more than one
    /// fault — only `SingleSweep` schedules are converted.
    fn to_position(&self) -> PositionResult {
        assert_eq!(self.faults.len(), 1, "only single-fault events convert");
        PositionResult {
            array: self.array,
            row: self.faults[0].row,
            col: self.faults[0].col,
            fitness_clean: self.fitness_clean,
            fitness_faulty: self.fitness_faulty,
            fitness_recovered: self.fitness_recovered,
            evaluations: self.evaluations,
            stats: self.stats,
        }
    }
}

/// Aggregate report of a fault campaign.
///
/// A `SingleSweep` campaign fills [`positions`](CampaignReport::positions)
/// (the historic per-PE view); every other scenario kind fills
/// [`events`](CampaignReport::events).  The aggregate statistics range over
/// whichever side is populated.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Name of the scenario that produced the report (empty for a
    /// default-constructed report).
    pub scenario: String,
    /// Label of the recovery-policy ladder that was applied
    /// ([`RecoveryPolicy::describe`]).
    pub policy: String,
    /// One entry per injected position, in injection order (`SingleSweep`
    /// campaigns only).
    pub positions: Vec<PositionResult>,
    /// One entry per injection event, in schedule order (every other
    /// scenario kind).
    pub events: Vec<EventResult>,
}

impl CampaignReport {
    /// Number of injected positions / events.
    pub fn len(&self) -> usize {
        self.positions.len() + self.events.len()
    }

    /// `true` if the campaign injected nothing.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty() && self.events.is_empty()
    }

    /// Positions / events whose faults actually degraded the output.
    pub fn critical_positions(&self) -> usize {
        self.positions.iter().filter(|p| p.is_critical()).count()
            + self.events.iter().filter(|e| e.is_critical()).count()
    }

    /// Positions / events whose recovery reached (at least) the pre-fault
    /// quality.
    pub fn fully_recovered_positions(&self) -> usize {
        self.positions
            .iter()
            .filter(|p| p.fully_recovered())
            .count()
            + self.events.iter().filter(|e| e.fully_recovered()).count()
    }

    /// Total candidate evaluations across all positions / events
    /// (measurements plus recovery work) — the uniform work accounting the
    /// job-oriented service reports for every job kind.
    pub fn total_evaluations(&self) -> u64 {
        self.positions.iter().map(|p| p.evaluations).sum::<u64>()
            + self.events.iter().map(|e| e.evaluations).sum::<u64>()
    }

    /// Aggregate engine counters across every recovery evolution — the
    /// campaign-level analogue of a single evolution's [`EngineStats`],
    /// reported through the job layer.
    pub(crate) fn total_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for p in &self.positions {
            total.accumulate(p.stats);
        }
        for e in &self.events {
            total.accumulate(e.stats);
        }
        total
    }

    /// Mean recovery ratio across all positions / events.
    pub fn mean_recovery_ratio(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let sum = self
            .positions
            .iter()
            .map(|p| p.recovery_ratio())
            .sum::<f64>()
            + self.events.iter().map(|e| e.recovery_ratio()).sum::<f64>();
        sum / self.len() as f64
    }
}

/// Finds a PE position of `array` whose failure visibly corrupts the output
/// on `probe` **and** leaves room for recovery: positions are scanned from the
/// most upstream column of the active output row towards the output, then the
/// remaining rows.  Upstream positions are preferred because a downstream PE
/// can be re-routed around them, which is what makes imitation recovery from
/// an inherited genotype effective (§VI.D).  Falls back to the output PE if
/// nothing else is observable.
pub fn find_injectable_pe(
    platform: &EhwPlatform,
    array: usize,
    probe: &ehw_image::image::GrayImage,
) -> (usize, usize) {
    let acb = platform.acb(array);
    let clean = acb.raw_output(probe);
    let out_row = acb.genotype().output_gene as usize;

    let mut candidates: Vec<(usize, usize)> = (0..ARRAY_COLS.saturating_sub(1))
        .map(|col| (out_row, col))
        .collect();
    for row in 0..ARRAY_ROWS {
        for col in 0..ARRAY_COLS {
            if row != out_row {
                candidates.push((row, col));
            }
        }
    }

    for (row, col) in candidates {
        let mut probe_array = acb.array().clone();
        probe_array.inject_fault(row, col, ehw_array::pe::FaultBehaviour::dummy());
        if probe_array.filter_image(probe) != clean {
            return (row, col);
        }
    }
    (out_row, ARRAY_COLS - 1)
}

/// Everything one event evaluation needs besides the event itself — bundled
/// so the sharded closure stays readable.  All references are to immutable,
/// thread-shared state.
struct CampaignContext<'a> {
    baseline: &'a Genotype,
    task: &'a EvolutionTask,
    windows: &'a SharedWindows,
    recovery: &'a EsConfig,
    policy: &'a RecoveryPolicy,
    control: &'a JobControl,
}

/// Injects one event's faults into a snapshot of its array, measures the
/// degradation, and walks the recovery-policy ladder — the unit of work the
/// campaign shards over workers.  Pure: no shared state is touched, so
/// events can be evaluated in any order, on any thread, with identical
/// results.
///
/// The measurements compile the current best genotype against the array's
/// fault overlay ([`ehw_array::CompiledArray`]) and score it over the one
/// shared extraction pass of the training input — faults corrupt the plan,
/// not a per-pixel interpreter lookup.  Ladder semantics:
///
/// * **Scrub** clears the event's transient (SEU) faults — permanent damage
///   stays — then re-measures, up to the configured attempts, stopping early
///   once a pass no longer improves,
/// * **TmrRemap** re-routes the output row of the best configuration across
///   every candidate row of the damaged array, one measurement per row,
/// * **Reevolve** runs the recovery evolution on the damaged array seeded
///   with the best configuration so far (`generations: None` inherits the
///   campaign budget — the historic behaviour).
///
/// Between rungs the ladder stops once the best fitness is within the
/// policy's `stop_margin` of the clean baseline (never, for the default
/// policy — which makes a `SingleSweep` campaign under the default ladder
/// byte-identical to the historic per-position path).
fn run_event(
    ctx: &CampaignContext<'_>,
    base: &ProcessingArray,
    event: &InjectionEvent,
) -> EventResult {
    // Restore a clean, known-good configuration of the event's positions.
    let mut array = base.clone();
    for fault in &event.faults {
        array.clear_fault(fault.row, fault.col);
    }
    array.set_genotype(ctx.baseline.clone());
    let fitness_clean = plan_mae(array.plan(), ctx.windows, &ctx.task.reference);

    // Inject every planned fault: the overlays are baked into the execution
    // plan the measurements and the recovery work run on.
    for fault in &event.faults {
        array.inject_fault(fault.row, fault.col, fault.behaviour);
    }
    let fitness_faulty = plan_mae(array.plan(), ctx.windows, &ctx.task.reference);

    let mut evaluations: u64 = 2;
    let mut stats = EngineStats::default();
    let mut best_genotype = ctx.baseline.clone();
    let mut best_fitness = fitness_faulty;
    let healed = |best: u64| match ctx.policy.stop_margin {
        Some(margin) => best <= fitness_clean.saturating_add(margin),
        None => false,
    };

    for step in &ctx.policy.steps {
        if healed(best_fitness) {
            break;
        }
        match *step {
            RecoveryStep::Scrub { attempts } => {
                // Golden-copy scrubbing removes the transient faults; if the
                // event planted none, the rung is a no-op (no measurement).
                let mut scrubbed = false;
                for fault in &event.faults {
                    if fault.kind.is_recoverable_by_scrubbing() {
                        array.clear_fault(fault.row, fault.col);
                        scrubbed = true;
                    }
                }
                if !scrubbed {
                    continue;
                }
                for _ in 0..attempts {
                    array.set_genotype(best_genotype.clone());
                    let measured = plan_mae(array.plan(), ctx.windows, &ctx.task.reference);
                    evaluations += 1;
                    if measured < best_fitness {
                        best_fitness = measured;
                    } else {
                        break;
                    }
                }
            }
            RecoveryStep::TmrRemap => {
                for row in 0..ARRAY_ROWS as u8 {
                    let mut candidate = best_genotype.clone();
                    candidate.output_gene = row;
                    array.set_genotype(candidate.clone());
                    let measured = plan_mae(array.plan(), ctx.windows, &ctx.task.reference);
                    evaluations += 1;
                    if measured < best_fitness {
                        best_fitness = measured;
                        best_genotype = candidate;
                    }
                }
            }
            RecoveryStep::Reevolve {
                generations,
                max_millis,
            } => {
                let mut cfg = *ctx.recovery;
                if let Some(budget) = generations {
                    cfg.generations = budget;
                }
                let mut evaluator = SoftwareEvaluator::with_array(
                    array.clone(),
                    ctx.task.input.clone(),
                    ctx.task.reference.clone(),
                );
                let result = run_evolution_with_parent(
                    &cfg,
                    Some(best_genotype.clone()),
                    &mut evaluator,
                    &mut RecoveryStopObserver {
                        control: ctx.control,
                        deadline: max_millis.map(|ms| {
                            std::time::Instant::now() + std::time::Duration::from_millis(ms)
                        }),
                    },
                );
                evaluations += result.evaluations;
                stats.accumulate(evaluator.engine_stats());
                // The evolution is elitist and seeded with `best_genotype`,
                // so its best is never worse than the rung's starting point.
                if result.best_fitness < best_fitness {
                    best_fitness = result.best_fitness;
                    best_genotype = result.best_genotype;
                }
            }
        }
    }

    EventResult {
        tick: event.tick,
        array: event.array,
        faults: event.faults.clone(),
        fitness_clean,
        fitness_faulty,
        fitness_recovered: best_fitness,
        evaluations,
        stats,
    }
}

/// Runs a fault campaign — the one campaign entry point, and what the job
/// path runs for every
/// [`JobSpec::FaultCampaign`](crate::jobs::JobSpec::FaultCampaign).
///
/// The spec's [`FaultScenario`](crate::scenario::FaultScenario) is compiled
/// into its deterministic injection schedule (seeded from `seed`), then every
/// event runs a measure → ladder → measure cycle on a snapshot of its array,
/// sharded over the platform's [`ParallelConfig`].  Sharding is scheduling
/// only: each event derives its state from an immutable snapshot and the
/// seed, so any worker count produces a byte-identical report, listed in
/// schedule order (array by array, row-major for the sweep).  A
/// `SingleSweep` scenario fills the report's per-PE `positions` view; every
/// other kind fills `events`.  The platform is left configured with the
/// baseline on every targeted array.
///
/// A cancelled campaign winds down cooperatively: every event still performs
/// its clean/faulty measurements (cheap, and what keeps the report shape
/// deterministic), but each recovery evolution stops at its first generation
/// boundary after `control` fires.  The job layer discards such a partial
/// report and answers [`JobOutput::Cancelled`](crate::jobs::JobOutput)
/// instead.
pub fn run_campaign(
    platform: &mut EhwPlatform,
    spec: &FaultCampaignSpec,
    seed: u64,
    control: &JobControl,
) -> CampaignReport {
    let scenario = spec.scenario();
    // The whole campaign is fixed here, before any worker starts: one unit
    // of work per injection event, in deterministic schedule order.
    let schedule = scenario.compile(spec.arrays(), seed);

    // Events are the parallel unit; the recovery work inside each event runs
    // serially (determinism makes the nesting choice free, and flat sharding
    // avoids worker oversubscription).
    let recovery = EsConfig {
        seed,
        parallel: ParallelConfig::serial(),
        ..*spec.recovery()
    };

    let snapshots: Vec<ProcessingArray> = platform
        .acbs()
        .iter()
        .map(|acb| acb.array().clone())
        .collect();
    // One window-extraction pass of the training input serves every event of
    // every array (the per-event recovery evolutions build their own,
    // through their SoftwareEvaluator).
    let windows = SharedWindows::new(&spec.task().input);
    let ctx = CampaignContext {
        baseline: spec.baseline(),
        task: spec.task(),
        windows: &windows,
        recovery: &recovery,
        policy: spec.policy(),
        control,
    };
    let results =
        ehw_parallel::ordered_map(platform.parallel_config(), &schedule.events, |_, event| {
            run_event(&ctx, &snapshots[event.array], event)
        });

    // Leave the campaigned arrays configured with the baseline, exactly as
    // the sequential campaign always has.  Faults injected into the platform
    // before the campaign are preserved — only snapshots were damaged here.
    for &array in spec.arrays() {
        platform.configure_array(array, spec.baseline());
    }

    let mut report = CampaignReport {
        scenario: scenario.name.clone(),
        policy: spec.policy().describe(),
        ..CampaignReport::default()
    };
    if scenario.kind == ScenarioKind::SingleSweep {
        report.positions = results.iter().map(EventResult::to_position).collect();
    } else {
        report.events = results;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{execute, FaultCampaignBuilder, JobSpec};
    use crate::scenario::FaultScenario;
    use ehw_image::noise::salt_pepper;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A campaign builder over a small denoising pair: identity baseline,
    /// array 0, one-gene recovery mutations.
    fn small_campaign(seed: u64) -> FaultCampaignBuilder {
        let clean = synth::shapes(16, 16, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy = salt_pepper(&clean, 0.2, &mut rng);
        JobSpec::fault_campaign(noisy, clean).recovery_mutation_rate(1)
    }

    fn campaign_spec(builder: FaultCampaignBuilder) -> FaultCampaignSpec {
        let JobSpec::FaultCampaign(spec) = builder.build().expect("valid campaign spec") else {
            unreachable!("the campaign builder builds campaign specs")
        };
        spec
    }

    /// Runs the campaign uncancelled on `platform`.
    fn run(platform: &mut EhwPlatform, builder: FaultCampaignBuilder, seed: u64) -> CampaignReport {
        run_campaign(platform, &campaign_spec(builder), seed, &JobControl::new())
    }

    #[test]
    fn campaign_covers_every_position_of_the_requested_array() {
        let mut platform = EhwPlatform::new(1);
        let baseline = Genotype::identity();
        let report = run(&mut platform, small_campaign(1).recovery_generations(3), 7);
        assert_eq!(report.len(), 16);
        assert!(!report.is_empty());
        // The platform is left clean and configured with the baseline.
        assert!(platform.injected_faults().is_empty());
        assert_eq!(platform.acb(0).genotype(), &baseline);
        // Every position carries the engine counters of its recovery
        // evolution, and the aggregate is their sum.
        let total = report.total_stats();
        assert!(
            total.plans_evaluated > 0,
            "recovery evolutions run the bounded engine and must report work"
        );
        assert_eq!(
            total.plans_evaluated,
            report
                .positions
                .iter()
                .map(|p| p.stats.plans_evaluated)
                .sum::<u64>()
        );
    }

    #[test]
    fn identity_baseline_has_critical_first_row_only() {
        // With the identity genotype the active path is row 0; faults in the
        // other rows never reach the output.
        let mut platform = EhwPlatform::new(1);
        let report = run(&mut platform, small_campaign(2).recovery_generations(2), 9);
        for p in &report.positions {
            if p.row == 0 {
                assert!(
                    p.is_critical(),
                    "row-0 PE ({},{}) should be critical",
                    p.row,
                    p.col
                );
            } else {
                assert!(!p.is_critical(), "PE ({},{}) should be inert", p.row, p.col);
            }
        }
        assert_eq!(report.critical_positions(), 4);
    }

    #[test]
    fn recovery_never_reports_worse_than_faulty_state() {
        let mut platform = EhwPlatform::new(1);
        let report = run(
            &mut platform,
            small_campaign(3)
                .recovery_mutation_rate(2)
                .recovery_generations(10),
            11,
        );
        for p in &report.positions {
            // Recovery is seeded with the baseline genotype evaluated on the
            // damaged array, and selection is elitist.
            assert!(p.fitness_recovered <= p.fitness_faulty.max(p.fitness_clean));
            let ratio = p.recovery_ratio();
            assert!((0.0..=1.0).contains(&ratio));
        }
        assert!(report.mean_recovery_ratio() > 0.0);
    }

    #[test]
    fn campaign_report_is_identical_at_any_worker_count() {
        let spec = campaign_spec(small_campaign(5).recovery_generations(3));
        let reference = {
            let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::serial());
            run_campaign(&mut platform, &spec, 21, &JobControl::new())
        };
        for workers in [2usize, 8] {
            let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::with_workers(workers));
            let report = run_campaign(&mut platform, &spec, 21, &JobControl::new());
            assert_eq!(
                report.positions, reference.positions,
                "campaign diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn campaign_spanning_multiple_arrays_keeps_injection_order() {
        let mut platform = EhwPlatform::with_parallel(2, ParallelConfig::with_workers(4));
        let report = run(
            &mut platform,
            small_campaign(6).recovery_generations(2).arrays(vec![1, 0]),
            3,
        );
        assert_eq!(report.len(), 32);
        let order: Vec<(usize, usize, usize)> = report
            .positions
            .iter()
            .map(|p| (p.array, p.row, p.col))
            .collect();
        let mut expected = Vec::new();
        for &array in &[1usize, 0] {
            for row in 0..ARRAY_ROWS {
                for col in 0..ARRAY_COLS {
                    expected.push((array, row, col));
                }
            }
        }
        assert_eq!(
            order, expected,
            "report must list positions in injection order"
        );
    }

    #[test]
    fn find_injectable_pe_returns_an_observable_position() {
        let mut platform = EhwPlatform::new(1);
        let mut rng = StdRng::seed_from_u64(4);
        let genotype = Genotype::random(&mut rng);
        platform.configure_array(0, &genotype);
        let probe = synth::shapes(16, 16, 3);

        let (row, col) = find_injectable_pe(&platform, 0, &probe);
        assert!(row < ARRAY_ROWS && col < ARRAY_COLS);

        // Injecting the dummy fault there must actually corrupt the output.
        let clean = platform.acb(0).raw_output(&probe);
        let mut faulty = platform.acb(0).array().clone();
        faulty.inject_fault(row, col, ehw_array::pe::FaultBehaviour::dummy());
        assert_ne!(faulty.filter_image(&probe), clean);
    }

    #[test]
    fn find_injectable_pe_prefers_upstream_of_the_output() {
        // With the identity genotype the whole of row 0 is active; the most
        // upstream column is preferred so recovery can re-route around it.
        let platform = EhwPlatform::new(1);
        let probe = synth::gradient(16, 16);
        assert_eq!(find_injectable_pe(&platform, 0, &probe), (0, 0));
    }

    #[test]
    fn empty_campaign_report_statistics() {
        let report = CampaignReport::default();
        assert!(report.is_empty());
        assert_eq!(report.mean_recovery_ratio(), 0.0);
        assert_eq!(report.critical_positions(), 0);
        assert_eq!(report.fully_recovered_positions(), 0);
    }

    #[test]
    fn scenario_single_sweep_under_default_policy_matches_the_legacy_campaign() {
        // The legacy side is the campaign builder's defaults (no scenario, no
        // policy) run through the job path: the historic systematic sweep.
        let legacy = {
            let spec = small_campaign(7).recovery_generations(3).build().unwrap();
            let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::serial());
            execute(&mut platform, &spec, 13)
        };
        let legacy = legacy.as_campaign().expect("campaign payload");
        let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::serial());
        let report = run(
            &mut platform,
            small_campaign(7)
                .recovery_generations(3)
                .scenario(FaultScenario::single_sweep())
                .policy(RecoveryPolicy::default_ladder()),
            13,
        );
        assert_eq!(&report, legacy);
        assert_eq!(report.scenario, "single_sweep");
        assert_eq!(report.policy, "reevolve");
        assert!(report.events.is_empty());
    }

    #[test]
    fn scrub_ladder_heals_transient_bursts_without_evolving() {
        use crate::scenario::ScenarioKind;
        let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::serial());
        let scenario = FaultScenario::new(
            "burst",
            ScenarioKind::Burst {
                rate: 0.5,
                width: 2,
            },
        );
        let report = run(
            &mut platform,
            small_campaign(8)
                .recovery_generations(5)
                .scenario(scenario)
                .policy(RecoveryPolicy::scrub_then_reevolve()),
            17,
        );
        assert!(report.positions.is_empty());
        assert!(!report.events.is_empty());
        for event in &report.events {
            // Every burst fault is transient, so one scrub pass restores the
            // clean configuration exactly and the re-evolve rung never runs
            // (non-critical events satisfy the stop margin before any rung).
            assert!(event.fully_recovered());
            if event.is_critical() {
                assert_eq!(event.fitness_recovered, event.fitness_clean);
                assert_eq!(event.evaluations, 3, "clean + faulty + one scrub pass");
            } else {
                assert_eq!(event.evaluations, 2, "measurements only");
            }
            assert_eq!(event.stats, EngineStats::default());
        }
        assert_eq!(report.mean_recovery_ratio(), 1.0);
    }

    #[test]
    fn tmr_remap_rung_measures_every_output_row() {
        use crate::scenario::ScenarioKind;
        use crate::self_healing::RecoveryStep;
        let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::serial());
        let scenario = FaultScenario::new("lpd", ScenarioKind::PermanentLpd);
        let policy = RecoveryPolicy {
            steps: vec![RecoveryStep::TmrRemap],
            stop_margin: None,
        };
        let report = run(
            &mut platform,
            small_campaign(9)
                .recovery_generations(2)
                .scenario(scenario)
                .policy(policy),
            19,
        );
        assert_eq!(report.events.len(), 1);
        let event = &report.events[0];
        assert_eq!(
            event.evaluations,
            2 + ARRAY_ROWS as u64,
            "clean + faulty + one measurement per candidate output row"
        );
        assert!(event.fitness_recovered <= event.fitness_faulty);
        assert_eq!(report.policy, "tmr_remap");
    }

    #[test]
    fn reevolve_wall_clock_budget_cuts_recovery_short() {
        use crate::scenario::ScenarioKind;
        use crate::self_healing::RecoveryStep;
        let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::serial());
        // An absurd generation budget that only the wall-clock bound can end.
        let scenario = FaultScenario::new("lpd", ScenarioKind::PermanentLpd);
        let policy = RecoveryPolicy {
            steps: vec![RecoveryStep::Reevolve {
                generations: Some(1_000_000),
                max_millis: Some(50),
            }],
            stop_margin: None,
        };
        let start = std::time::Instant::now();
        let report = run(
            &mut platform,
            small_campaign(12)
                .recovery_generations(5)
                .scenario(scenario)
                .policy(policy),
            29,
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "wall-clock budget did not cut the recovery evolution short"
        );
        assert_eq!(report.events.len(), 1);
        let event = &report.events[0];
        // The budgeted evolution still ran (and is elitist, so the result is
        // never worse than the damaged starting point).
        assert!(event.evaluations > 2);
        assert!(event.fitness_recovered <= event.fitness_faulty);
        assert_eq!(report.policy, "reevolve(1000000,50ms)");
    }

    #[test]
    fn scenario_campaigns_are_identical_at_any_worker_count() {
        use crate::scenario::{CorrelationShape, ScenarioKind};
        let scenario = FaultScenario::new(
            "corr",
            ScenarioKind::Correlated {
                shape: CorrelationShape::Col,
            },
        );
        let spec = campaign_spec(
            small_campaign(10)
                .recovery_generations(2)
                .scenario(scenario)
                .policy(RecoveryPolicy::full_ladder()),
        );
        let reference = {
            let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::serial());
            run_campaign(&mut platform, &spec, 23, &JobControl::new())
        };
        for workers in [2usize, 8] {
            let mut platform = EhwPlatform::with_parallel(1, ParallelConfig::with_workers(workers));
            let report = run_campaign(&mut platform, &spec, 23, &JobControl::new());
            assert_eq!(report, reference, "campaign diverged at {workers} workers");
        }
    }
}
