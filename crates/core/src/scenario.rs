//! Declarative fault scenarios compiled into deterministic injection
//! schedules, plus the named scenario/policy registry.
//!
//! The campaign path historically hard-coded one scenario (the systematic
//! single-PE sweep of §VI.D) and one reaction (an unconditional recovery
//! evolution).  This module makes the scenario side data:
//!
//! * [`FaultScenario`] — a named [`ScenarioKind`]
//!   plus a [`TargetFilter`] and a seed-stream index, *compiled* against a
//!   list of target arrays into an [`InjectionSchedule`]: a plan of
//!   `(tick, faults)` events fixed before any worker touches an array, so
//!   any worker count replays the campaign byte-identically,
//! * [`ScenarioRegistry`] — named scenarios and
//!   [`RecoveryPolicy`] ladders with
//!   built-in defaults, the lookup the wire layer resolves by-name spec
//!   references against,
//! * [`ResilienceReport`] — the per-scenario × per-policy comparison table
//!   aggregated from individual campaign reports.
//!
//! All randomness (which PEs a burst hits, where the LPD lands) is drawn
//! from [`SeedSequence`] streams forked off the job seed — scenario stream
//! first, event slot second — matching the derivation discipline the rest of
//! the workspace uses for cross-worker determinism.

use ehw_array::genotype::{ARRAY_COLS, ARRAY_ROWS};
use ehw_array::pe::FaultBehaviour;
use ehw_evolution::fitness::EngineStats;
use ehw_fabric::fault::FaultKind;
pub use ehw_fabric::scenario::{CorrelationShape, ScenarioError, ScenarioKind, StormPhase};
use rand::rngs::StdRng;
use rand::{Rng, SeedSequence};
use serde::{Deserialize, Serialize};

use crate::fault_campaign::CampaignReport;
use crate::self_healing::RecoveryPolicy;

/// PE positions per array — the geometry scenarios are compiled against.
pub const PES_PER_ARRAY: usize = ARRAY_ROWS * ARRAY_COLS;

// ---------------------------------------------------------------------------
// Scenario spec
// ---------------------------------------------------------------------------

/// Which PE positions of each targeted array a scenario may inject into.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetFilter {
    /// Every PE position (the default).
    All,
    /// Only the listed rows.
    Rows(Vec<usize>),
    /// Only the listed columns.
    Cols(Vec<usize>),
    /// Only the listed `(row, col)` positions.
    Positions(Vec<(usize, usize)>),
}

impl TargetFilter {
    /// `true` if the filter admits the position.
    pub(crate) fn admits(&self, row: usize, col: usize) -> bool {
        match self {
            TargetFilter::All => true,
            TargetFilter::Rows(rows) => rows.contains(&row),
            TargetFilter::Cols(cols) => cols.contains(&col),
            TargetFilter::Positions(positions) => positions.contains(&(row, col)),
        }
    }
}

/// A named, declarative fault scenario: *what* shape of damage to inject,
/// *where* it may land, and *which* seed stream its randomness draws from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// Registry name (also the label campaign reports carry).
    pub name: String,
    /// The spatial/temporal structure of the injections.
    pub kind: ScenarioKind,
    /// Which PE positions may be hit.
    pub filter: TargetFilter,
    /// Seed-stream index: the scenario's randomness is drawn from
    /// `SeedSequence::new(job_seed).fork(stream)`, so two scenarios in one
    /// job can use decorrelated streams by picking different indices.
    pub stream: u64,
}

impl FaultScenario {
    /// A scenario of the given kind targeting every PE, stream 0.
    pub fn new(name: impl Into<String>, kind: ScenarioKind) -> Self {
        FaultScenario {
            name: name.into(),
            kind,
            filter: TargetFilter::All,
            stream: 0,
        }
    }

    /// The legacy campaign as a scenario value: a systematic single-PE sweep
    /// over every position.
    pub fn single_sweep() -> Self {
        FaultScenario::new("single_sweep", ScenarioKind::SingleSweep)
    }

    /// Restricts the injectable positions.
    pub fn with_filter(mut self, filter: TargetFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Selects the seed-stream index.
    pub fn with_stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self
    }

    /// Full validation: structural parameter checks plus the geometry checks
    /// only this layer can do (MultiPe `k` against the PE count, a filter
    /// that admits nothing).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.kind.validate()?;
        if let ScenarioKind::MultiPe { k } = self.kind {
            if k > PES_PER_ARRAY {
                return Err(ScenarioError::MultiPeTooLarge {
                    k,
                    max: PES_PER_ARRAY,
                });
            }
        }
        if self.positions().is_empty() {
            return Err(ScenarioError::EmptyTarget);
        }
        Ok(())
    }

    /// The most injection events [`compile`](Self::compile) yields over
    /// `arrays` target arrays (probabilistic kinds may skip slots), from the
    /// parameters alone: no compile and no allocation.  Saturates at
    /// `u64::MAX`.
    pub(crate) fn max_events(&self, arrays: usize) -> u64 {
        let positions = (0..PES_PER_ARRAY)
            .filter(|&pe| self.filter.admits(pe / ARRAY_COLS, pe % ARRAY_COLS))
            .count() as u64;
        let per_array = match &self.kind {
            ScenarioKind::SingleSweep => positions,
            ScenarioKind::MultiPe { k } => positions.div_ceil((*k as u64).min(positions).max(1)),
            ScenarioKind::Correlated {
                shape: CorrelationShape::Col,
            } => ARRAY_COLS as u64,
            ScenarioKind::Correlated { .. } => ARRAY_ROWS as u64,
            ScenarioKind::Burst { width, .. } => *width as u64,
            ScenarioKind::PermanentLpd => 1,
            ScenarioKind::RateSweep { rates } => rates.len() as u64,
            ScenarioKind::Storm { schedule } => schedule
                .iter()
                .fold(0u64, |n, phase| n.saturating_add(phase.ticks as u64)),
        };
        per_array.saturating_mul(arrays as u64)
    }

    /// The admitted positions of one array, row-major — the deterministic
    /// position pool every kind compiles from.
    fn positions(&self) -> Vec<(usize, usize)> {
        let mut positions = Vec::with_capacity(PES_PER_ARRAY);
        for row in 0..ARRAY_ROWS {
            for col in 0..ARRAY_COLS {
                if self.filter.admits(row, col) {
                    positions.push((row, col));
                }
            }
        }
        positions
    }

    /// Compiles the scenario against the target arrays into a concrete
    /// injection schedule.
    ///
    /// The schedule is a pure function of `(scenario, arrays, seed)`:
    /// every random draw comes from
    /// `SeedSequence::new(seed).fork(self.stream).fork(slot)` where `slot`
    /// counts event slots in generation order, so the same inputs always
    /// produce the same byte-identical plan regardless of worker count or
    /// platform state.  Probabilistic kinds skip slots where no PE fired;
    /// `tick` preserves the timeline (bursts and storms share one tick
    /// across arrays).
    pub fn compile(&self, arrays: &[usize], seed: u64) -> InjectionSchedule {
        let stream = SeedSequence::new(seed).fork(self.stream);
        let positions = self.positions();
        let mut events = Vec::new();
        let mut slot = 0u64;
        let rng_for = |slot: &mut u64| -> StdRng {
            let rng = stream.fork(*slot).rng();
            *slot += 1;
            rng
        };
        let mut tick = 0usize;

        match &self.kind {
            ScenarioKind::SingleSweep => {
                for &array in arrays {
                    for &(row, col) in &positions {
                        events.push(InjectionEvent {
                            tick,
                            array,
                            faults: vec![PlannedFault::dummy_lpd(row, col)],
                        });
                        tick += 1;
                    }
                }
            }
            ScenarioKind::MultiPe { k } => {
                let k = (*k).min(positions.len()).max(1);
                let events_per_array = positions.len().div_ceil(k);
                for &array in arrays {
                    for _ in 0..events_per_array {
                        let mut rng = rng_for(&mut slot);
                        let faults = draw_distinct(&mut rng, &positions, k)
                            .into_iter()
                            .map(|(row, col)| PlannedFault::dummy_lpd(row, col))
                            .collect();
                        events.push(InjectionEvent {
                            tick,
                            array,
                            faults,
                        });
                        tick += 1;
                    }
                }
            }
            ScenarioKind::Correlated { shape } => {
                for &array in arrays {
                    match shape {
                        CorrelationShape::Row => {
                            for row in 0..ARRAY_ROWS {
                                let faults: Vec<PlannedFault> = positions
                                    .iter()
                                    .filter(|&&(r, _)| r == row)
                                    .map(|&(r, c)| PlannedFault::dummy_lpd(r, c))
                                    .collect();
                                if !faults.is_empty() {
                                    events.push(InjectionEvent {
                                        tick,
                                        array,
                                        faults,
                                    });
                                    tick += 1;
                                }
                            }
                        }
                        CorrelationShape::Col => {
                            for col in 0..ARRAY_COLS {
                                let faults: Vec<PlannedFault> = positions
                                    .iter()
                                    .filter(|&&(_, c)| c == col)
                                    .map(|&(r, c)| PlannedFault::dummy_lpd(r, c))
                                    .collect();
                                if !faults.is_empty() {
                                    events.push(InjectionEvent {
                                        tick,
                                        array,
                                        faults,
                                    });
                                    tick += 1;
                                }
                            }
                        }
                        CorrelationShape::Neighborhood => {
                            // One strike per row-count: anchors drawn from
                            // the admitted pool, blast radius Chebyshev 1.
                            for _ in 0..ARRAY_ROWS {
                                let mut rng = rng_for(&mut slot);
                                let anchor = positions[rng.gen_range(0..positions.len())];
                                let faults: Vec<PlannedFault> = positions
                                    .iter()
                                    .filter(|&&(r, c)| {
                                        r.abs_diff(anchor.0) <= 1 && c.abs_diff(anchor.1) <= 1
                                    })
                                    .map(|&(r, c)| PlannedFault::dummy_lpd(r, c))
                                    .collect();
                                events.push(InjectionEvent {
                                    tick,
                                    array,
                                    faults,
                                });
                                tick += 1;
                            }
                        }
                    }
                }
            }
            ScenarioKind::Burst { rate, width } => {
                for _ in 0..*width {
                    for &array in arrays {
                        let mut rng = rng_for(&mut slot);
                        let faults = draw_probabilistic(&mut rng, &positions, *rate);
                        if !faults.is_empty() {
                            events.push(InjectionEvent {
                                tick,
                                array,
                                faults,
                            });
                        }
                    }
                    tick += 1;
                }
            }
            ScenarioKind::PermanentLpd => {
                for &array in arrays {
                    let mut rng = rng_for(&mut slot);
                    let (row, col) = positions[rng.gen_range(0..positions.len())];
                    events.push(InjectionEvent {
                        tick,
                        array,
                        faults: vec![PlannedFault {
                            row,
                            col,
                            behaviour: FaultBehaviour::StuckAt { value: 0 },
                            kind: FaultKind::Lpd,
                        }],
                    });
                    tick += 1;
                }
            }
            ScenarioKind::RateSweep { rates } => {
                for &rate in rates {
                    for &array in arrays {
                        let mut rng = rng_for(&mut slot);
                        let faults = draw_probabilistic(&mut rng, &positions, rate);
                        if !faults.is_empty() {
                            events.push(InjectionEvent {
                                tick,
                                array,
                                faults,
                            });
                        }
                    }
                    tick += 1;
                }
            }
            ScenarioKind::Storm { schedule } => {
                for phase in schedule {
                    for _ in 0..phase.ticks {
                        for &array in arrays {
                            let mut rng = rng_for(&mut slot);
                            let faults = draw_probabilistic(&mut rng, &positions, phase.rate);
                            if !faults.is_empty() {
                                events.push(InjectionEvent {
                                    tick,
                                    array,
                                    faults,
                                });
                            }
                        }
                        tick += 1;
                    }
                }
            }
        }
        InjectionSchedule { events }
    }
}

/// `k` distinct positions drawn from `pool` by partial Fisher–Yates,
/// returned in row-major order so reports read deterministically.
fn draw_distinct(rng: &mut StdRng, pool: &[(usize, usize)], k: usize) -> Vec<(usize, usize)> {
    let mut pool = pool.to_vec();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k.min(pool.len()) {
        let index = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(index));
    }
    out.sort_unstable();
    out
}

/// Each position independently upset (transient SEU) with probability
/// `rate`; pool order is row-major, so the draw sequence is deterministic.
fn draw_probabilistic(rng: &mut StdRng, pool: &[(usize, usize)], rate: f64) -> Vec<PlannedFault> {
    pool.iter()
        .filter(|_| rng.gen_bool(rate))
        .map(|&(row, col)| PlannedFault {
            row,
            col,
            behaviour: FaultBehaviour::dummy(),
            kind: FaultKind::Seu,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Compiled schedule
// ---------------------------------------------------------------------------

/// One planned PE fault of an [`InjectionEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedFault {
    /// PE row.
    pub row: usize,
    /// PE column.
    pub col: usize,
    /// The damaged-PE behaviour baked into the evaluation plan.
    pub behaviour: FaultBehaviour,
    /// Transient (SEU, removable by scrubbing) or permanent (LPD).
    pub kind: FaultKind,
}

impl PlannedFault {
    /// The paper's permanent dummy-PE fault at one position — what the
    /// legacy systematic sweep injects.
    pub(crate) fn dummy_lpd(row: usize, col: usize) -> Self {
        PlannedFault {
            row,
            col,
            behaviour: FaultBehaviour::dummy(),
            kind: FaultKind::Lpd,
        }
    }
}

/// One injection event: a set of simultaneous faults on one array at one
/// point of the scenario timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectionEvent {
    /// Timeline position (bursts/storms share one tick across arrays).
    pub tick: usize,
    /// The array the faults land on.
    pub array: usize,
    /// The simultaneous faults, in row-major order.
    pub faults: Vec<PlannedFault>,
}

/// A compiled injection plan: the full, deterministic list of events a
/// campaign will execute, fixed before any worker starts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InjectionSchedule {
    /// The events, in execution order.
    pub events: Vec<InjectionEvent>,
}

impl InjectionSchedule {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing will be injected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Named scenarios and recovery-policy ladders, the lookup behind by-name
/// references in submitted job specs and the `GET /registry` endpoint.
///
/// [`ScenarioRegistry::builtin`] carries one ready-to-run entry per scenario
/// kind plus the three stock policy ladders; a deployment can overlay its
/// own entries from a registry file (`ehw-server` parses the JSON form).
#[derive(Debug, Clone, Default)]
pub struct ScenarioRegistry {
    scenarios: Vec<FaultScenario>,
    policies: Vec<(String, RecoveryPolicy)>,
}

impl ScenarioRegistry {
    /// A registry with no entries.
    pub(crate) fn empty() -> Self {
        ScenarioRegistry::default()
    }

    /// The built-in entries: one named scenario per kind (paper-ish default
    /// parameters) and the three stock recovery ladders.
    pub fn builtin() -> Self {
        let mut registry = ScenarioRegistry::empty();
        registry.insert_scenario(FaultScenario::single_sweep());
        registry.insert_scenario(FaultScenario::new(
            "multi_pe_2",
            ScenarioKind::MultiPe { k: 2 },
        ));
        registry.insert_scenario(FaultScenario::new(
            "correlated_row",
            ScenarioKind::Correlated {
                shape: CorrelationShape::Row,
            },
        ));
        registry.insert_scenario(FaultScenario::new(
            "correlated_col",
            ScenarioKind::Correlated {
                shape: CorrelationShape::Col,
            },
        ));
        registry.insert_scenario(FaultScenario::new(
            "correlated_neighborhood",
            ScenarioKind::Correlated {
                shape: CorrelationShape::Neighborhood,
            },
        ));
        registry.insert_scenario(FaultScenario::new(
            "burst",
            ScenarioKind::Burst {
                rate: 0.2,
                width: 3,
            },
        ));
        registry.insert_scenario(FaultScenario::new(
            "permanent_lpd",
            ScenarioKind::PermanentLpd,
        ));
        registry.insert_scenario(FaultScenario::new(
            "rate_sweep",
            ScenarioKind::RateSweep {
                rates: vec![0.05, 0.2, 0.5],
            },
        ));
        registry.insert_scenario(FaultScenario::new(
            "storm",
            ScenarioKind::Storm {
                schedule: vec![
                    StormPhase {
                        ticks: 2,
                        rate: 0.1,
                    },
                    StormPhase {
                        ticks: 2,
                        rate: 0.5,
                    },
                    StormPhase {
                        ticks: 2,
                        rate: 0.1,
                    },
                ],
            },
        ));
        registry.insert_policy("reevolve", RecoveryPolicy::default_ladder());
        registry.insert_policy("scrub_then_reevolve", RecoveryPolicy::scrub_then_reevolve());
        registry.insert_policy("full_ladder", RecoveryPolicy::full_ladder());
        registry
    }

    /// Adds (or replaces, by name) a scenario.
    pub fn insert_scenario(&mut self, scenario: FaultScenario) {
        if let Some(existing) = self.scenarios.iter_mut().find(|s| s.name == scenario.name) {
            *existing = scenario;
        } else {
            self.scenarios.push(scenario);
        }
    }

    /// Adds (or replaces, by name) a policy ladder.
    pub fn insert_policy(&mut self, name: impl Into<String>, policy: RecoveryPolicy) {
        let name = name.into();
        if let Some(existing) = self.policies.iter_mut().find(|(n, _)| *n == name) {
            existing.1 = policy;
        } else {
            self.policies.push((name, policy));
        }
    }

    /// Looks up a scenario by name.
    pub fn scenario(&self, name: &str) -> Result<&FaultScenario, crate::jobs::SpecError> {
        self.scenarios
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| crate::jobs::SpecError::UnknownScenario {
                name: name.to_string(),
            })
    }

    /// Looks up a policy ladder by name.
    pub fn policy(&self, name: &str) -> Result<&RecoveryPolicy, crate::jobs::SpecError> {
        self.policies
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p)
            .ok_or_else(|| crate::jobs::SpecError::UnknownPolicy {
                name: name.to_string(),
            })
    }

    /// The registered scenarios, in insertion order.
    pub fn scenarios(&self) -> &[FaultScenario] {
        &self.scenarios
    }

    /// The registered policies, in insertion order.
    pub fn policies(&self) -> &[(String, RecoveryPolicy)] {
        &self.policies
    }
}

// ---------------------------------------------------------------------------
// Resilience report
// ---------------------------------------------------------------------------

/// One row of a [`ResilienceReport`]: how one recovery policy fared against
/// one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceEntry {
    /// Scenario name.
    pub scenario: String,
    /// Policy name.
    pub policy: String,
    /// Injection events (or swept positions) the campaign executed.
    pub events: usize,
    /// Events whose faults degraded the output at all.
    pub critical: usize,
    /// Events whose recovery reached (at least) the pre-fault quality.
    pub fully_recovered: usize,
    /// Mean fraction of the degradation removed, in `[0, 1]`.
    pub mean_recovery_ratio: f64,
    /// Candidate evaluations spent (measurements plus recovery budgets).
    pub evaluations: u64,
    /// Aggregate engine counters of every recovery evolution.
    pub stats: EngineStats,
}

/// The per-scenario × per-policy comparison table: one row per campaign,
/// aggregated from the campaigns' [`CampaignReport`]s — the single artefact
/// a resilience study reads.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// One row per `(scenario, policy)` campaign, in insertion order.
    pub entries: Vec<ResilienceEntry>,
}

impl ResilienceReport {
    /// Folds one campaign's report into the table, labelled with the
    /// scenario/policy names the report carries.
    pub fn push_campaign(&mut self, report: &CampaignReport) {
        self.entries.push(ResilienceEntry {
            scenario: report.scenario.clone(),
            policy: report.policy.clone(),
            events: report.len(),
            critical: report.critical_positions(),
            fully_recovered: report.fully_recovered_positions(),
            mean_recovery_ratio: report.mean_recovery_ratio(),
            evaluations: report.total_evaluations(),
            stats: report.total_stats(),
        });
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no campaign has been folded in.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(kind: ScenarioKind) -> InjectionSchedule {
        FaultScenario::new("t", kind).compile(&[0], 42)
    }

    #[test]
    fn single_sweep_compiles_to_the_systematic_position_order() {
        let schedule = compile(ScenarioKind::SingleSweep);
        assert_eq!(schedule.len(), PES_PER_ARRAY);
        let order: Vec<(usize, usize)> = schedule
            .events
            .iter()
            .map(|e| {
                assert_eq!(e.faults.len(), 1);
                (e.faults[0].row, e.faults[0].col)
            })
            .collect();
        let mut expected = Vec::new();
        for row in 0..ARRAY_ROWS {
            for col in 0..ARRAY_COLS {
                expected.push((row, col));
            }
        }
        assert_eq!(order, expected);
        assert!(schedule
            .events
            .iter()
            .all(|e| e.faults[0].behaviour == FaultBehaviour::dummy()
                && e.faults[0].kind == FaultKind::Lpd));
    }

    #[test]
    fn compilation_is_a_pure_function_of_scenario_arrays_and_seed() {
        for kind in [
            ScenarioKind::MultiPe { k: 3 },
            ScenarioKind::Burst {
                rate: 0.3,
                width: 4,
            },
            ScenarioKind::PermanentLpd,
            ScenarioKind::Storm {
                schedule: vec![StormPhase {
                    ticks: 3,
                    rate: 0.4,
                }],
            },
        ] {
            let scenario = FaultScenario::new("t", kind);
            let a = scenario.compile(&[0, 1], 7);
            let b = scenario.compile(&[0, 1], 7);
            assert_eq!(a, b, "same inputs must compile identically");
            let c = scenario.compile(&[0, 1], 8);
            assert_ne!(a, c, "a different seed must change a random schedule");
        }
    }

    #[test]
    fn multi_pe_draws_distinct_positions_per_event() {
        let schedule = compile(ScenarioKind::MultiPe { k: 4 });
        assert_eq!(schedule.len(), PES_PER_ARRAY / 4);
        for event in &schedule.events {
            assert_eq!(event.faults.len(), 4);
            let mut positions: Vec<(usize, usize)> =
                event.faults.iter().map(|f| (f.row, f.col)).collect();
            let before = positions.len();
            positions.dedup();
            assert_eq!(positions.len(), before, "faults must hit distinct PEs");
        }
    }

    #[test]
    fn correlated_rows_cover_each_row_in_one_event() {
        let schedule = compile(ScenarioKind::Correlated {
            shape: CorrelationShape::Row,
        });
        assert_eq!(schedule.len(), ARRAY_ROWS);
        for (row, event) in schedule.events.iter().enumerate() {
            assert_eq!(event.faults.len(), ARRAY_COLS);
            assert!(event.faults.iter().all(|f| f.row == row));
        }
    }

    #[test]
    fn bursts_are_transient_and_share_ticks_across_arrays() {
        let scenario = FaultScenario::new(
            "b",
            ScenarioKind::Burst {
                rate: 0.9,
                width: 3,
            },
        );
        let schedule = scenario.compile(&[0, 1], 11);
        assert!(!schedule.is_empty());
        assert!(schedule
            .events
            .iter()
            .all(|e| e.faults.iter().all(|f| f.kind == FaultKind::Seu)));
        assert!(schedule.events.iter().all(|e| e.tick < 3));
        // At rate 0.9 over 3 ticks × 2 arrays, both arrays fire.
        assert!(schedule.events.iter().any(|e| e.array == 0));
        assert!(schedule.events.iter().any(|e| e.array == 1));
    }

    #[test]
    fn filters_restrict_the_injectable_positions() {
        let scenario = FaultScenario::new("f", ScenarioKind::SingleSweep)
            .with_filter(TargetFilter::Rows(vec![2]));
        let schedule = scenario.compile(&[0], 1);
        assert_eq!(schedule.len(), ARRAY_COLS);
        assert!(schedule.events.iter().all(|e| e.faults[0].row == 2));
    }

    #[test]
    fn scenario_streams_decorrelate_schedules() {
        let a = FaultScenario::new("a", ScenarioKind::PermanentLpd).compile(&[0], 5);
        let b = FaultScenario::new("b", ScenarioKind::PermanentLpd)
            .with_stream(1)
            .compile(&[0], 5);
        // Different streams under the same seed draw different positions
        // (one 1-in-16 coincidence would be tolerable, but stream 0 vs 1
        // under seed 5 happen to differ — pinned by this test).
        assert_ne!(a, b);
    }

    #[test]
    fn geometry_validation_catches_oversized_multi_pe_and_empty_targets() {
        let too_big = FaultScenario::new(
            "t",
            ScenarioKind::MultiPe {
                k: PES_PER_ARRAY + 1,
            },
        );
        assert_eq!(
            too_big.validate(),
            Err(ScenarioError::MultiPeTooLarge {
                k: PES_PER_ARRAY + 1,
                max: PES_PER_ARRAY
            })
        );
        let empty = FaultScenario::new("t", ScenarioKind::SingleSweep)
            .with_filter(TargetFilter::Positions(vec![]));
        assert_eq!(empty.validate(), Err(ScenarioError::EmptyTarget));
    }

    #[test]
    fn builtin_registry_resolves_names_and_rejects_unknowns() {
        let registry = ScenarioRegistry::builtin();
        assert!(registry.scenarios().len() >= 7);
        assert_eq!(registry.policies().len(), 3);
        for scenario in registry.scenarios() {
            assert!(scenario.validate().is_ok(), "{}", scenario.name);
        }
        for (name, policy) in registry.policies() {
            assert!(policy.validate().is_ok(), "{name}");
        }
        assert!(registry.scenario("single_sweep").is_ok());
        assert!(registry.policy("full_ladder").is_ok());
        assert!(matches!(
            registry.scenario("nope"),
            Err(crate::jobs::SpecError::UnknownScenario { .. })
        ));
        assert!(matches!(
            registry.policy("nope"),
            Err(crate::jobs::SpecError::UnknownPolicy { .. })
        ));
    }

    #[test]
    fn max_events_bounds_every_compiled_schedule() {
        let mut scenarios = ScenarioRegistry::builtin().scenarios().to_vec();
        scenarios.extend([
            FaultScenario::new("k_all", ScenarioKind::MultiPe { k: PES_PER_ARRAY }),
            FaultScenario::new(
                "dense_burst",
                ScenarioKind::Burst {
                    rate: 1.0,
                    width: 4,
                },
            ),
            FaultScenario::new(
                "dense_storm",
                ScenarioKind::Storm {
                    schedule: vec![StormPhase {
                        ticks: 5,
                        rate: 1.0,
                    }],
                },
            ),
            FaultScenario::new(
                "dense_sweep",
                ScenarioKind::RateSweep {
                    rates: vec![1.0; 3],
                },
            ),
        ]);
        let filters = [
            TargetFilter::All,
            TargetFilter::Rows(vec![1]),
            TargetFilter::Cols(vec![0, 2]),
            TargetFilter::Positions(vec![(0, 0), (2, 2)]),
        ];
        for scenario in scenarios {
            for filter in &filters {
                let scenario = scenario.clone().with_filter(filter.clone());
                if scenario.validate().is_err() {
                    continue;
                }
                for arrays in [&[0][..], &[0, 1, 2]] {
                    for seed in 0..4 {
                        let events = scenario.compile(arrays, seed).len() as u64;
                        let bound = scenario.max_events(arrays.len());
                        assert!(
                            events <= bound,
                            "{} {filter:?}: {events} events over a bound of {bound}",
                            scenario.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn registry_inserts_replace_by_name() {
        let mut registry = ScenarioRegistry::builtin();
        let before = registry.scenarios().len();
        registry.insert_scenario(FaultScenario::new("burst", ScenarioKind::PermanentLpd));
        assert_eq!(registry.scenarios().len(), before);
        assert_eq!(
            registry.scenario("burst").unwrap().kind,
            ScenarioKind::PermanentLpd
        );
        registry.insert_policy("reevolve", RecoveryPolicy::full_ladder());
        assert_eq!(registry.policies().len(), 3);
        assert_eq!(
            registry.policy("reevolve").unwrap(),
            &RecoveryPolicy::full_ladder()
        );
    }
}
