//! The streaming engine: filter → score → detect drift → re-adapt.
//!
//! Every frame is filtered through the incumbent genotype's compiled plan
//! ([`plan_filter_windows`] over a [`SharedWindows`] extraction that is then
//! reused for calibration scoring), scored against the clean reference, and
//! fed to the [`DriftDetector`].  When drift fires, the engine waits for the
//! calibration window to refill with post-drift frames (the firing frame is
//! kept as the first piece of post-shift evidence), then re-evolves *from
//! the incumbent* on the newest frame under the per-adaptation budget,
//! scores challenger vs incumbent over the post-drift calibration windows,
//! and swaps only on strict improvement — a failed adaptation can never
//! regress the stream.
//!
//! # Seed lanes
//!
//! All engine randomness forks from the stream seed with fixed lane indices
//! (lane 0 is reserved for the frame source, seeded by the caller):
//!
//! | lane | use                                        |
//! |------|--------------------------------------------|
//! | 0    | frame source noise (seeded by the caller)  |
//! | 1    | bootstrap evolution                        |
//! | 2    | adaptation `k` uses `fork(2).fork(k)`      |
//!
//! Because every evolution run is itself worker-count invariant and every
//! other engine step is pure integer arithmetic, the whole stream replays
//! byte-identically at any worker/pool configuration.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedSequence;
use serde::{Deserialize, Serialize};

use ehw_array::compiled::CompiledArray;
use ehw_array::genotype::Genotype;
use ehw_array::ProcessingArray;
use ehw_evolution::fitness::{plan_filter_windows, plan_mae, SoftwareEvaluator};
use ehw_evolution::strategy::{
    run_evolution_with_parent, EsConfig, GenerationObserver, MutationStrategy,
};
use ehw_image::metrics::mae;
use ehw_image::window::SharedWindows;
use ehw_parallel::ParallelConfig;

use crate::drift::{DriftConfig, DriftDetector};
use crate::source::FrameSource;

/// Seed lane of the bootstrap evolution.
const LANE_BOOTSTRAP: u64 = 1;
/// Seed lane under which adaptation `k` forks its evolution seed.
const LANE_ADAPT: u64 = 2;

/// Budget of one adaptation (and of the bootstrap evolution when the stream
/// starts without a trained genotype).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptationConfig {
    /// Offspring per generation (λ).
    pub offspring: usize,
    /// Genes mutated per offspring.
    pub mutation_rate: usize,
    /// Generation budget per adaptation.
    pub generations: usize,
    /// Optional wall-clock budget in milliseconds, checked at generation
    /// boundaries exactly like job deadlines.  **Opt-in nondeterminism**:
    /// how many generations fit the budget depends on the host clock, so
    /// streams that must replay byte-identically leave this `None`.
    pub max_millis: Option<u64>,
    /// Stop an adaptation early at this fitness.
    pub target_fitness: Option<u64>,
}

impl Default for AdaptationConfig {
    fn default() -> Self {
        AdaptationConfig {
            offspring: 9,
            mutation_rate: 3,
            generations: 30,
            max_millis: None,
            target_fitness: None,
        }
    }
}

/// Configuration of one stream run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Stream seed; root of every engine seed lane.
    pub seed: u64,
    /// Drift-detector parameters.
    pub drift: DriftConfig,
    /// Re-adaptation budget.
    pub adaptation: AdaptationConfig,
    /// Worker scheduling for candidate evaluation (scheduling only — does
    /// not affect results).
    pub parallel: ParallelConfig,
}

/// One engine event, emitted in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent {
    /// A frame was filtered and scored.
    Frame {
        /// Frame index.
        index: usize,
        /// Aggregated MAE of the filtered frame against the reference.
        fitness: u64,
    },
    /// The drift detector fired at this frame.
    Drift {
        /// Frame index at which drift fired.
        frame: usize,
        /// Sliding-window fitness sum at the fire.
        window_fitness: u64,
        /// Baseline fitness sum latched at calibration.
        baseline_fitness: u64,
    },
    /// An adaptation finished (challenger evolved and judged).
    Adaptation {
        /// Frame index that triggered the adaptation.
        frame: usize,
        /// Zero-based adaptation index within the stream.
        index: usize,
        /// Whether the challenger replaced the incumbent.
        accepted: bool,
        /// Incumbent's fitness sum over the calibration windows.
        incumbent_fitness: u64,
        /// Challenger's fitness sum over the calibration windows.
        candidate_fitness: u64,
        /// Generations the adaptation actually ran (may be cut short by the
        /// wall-clock budget or cancellation).
        generations_run: usize,
    },
}

/// Fitness accounting for one stretch of frames between applied adaptations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// First frame of the segment.
    pub start_frame: usize,
    /// Frames in the segment.
    pub frames: usize,
    /// Sum of per-frame fitness over the segment.
    pub fitness_sum: u64,
}

impl SegmentReport {
    /// Mean per-frame fitness over the segment.
    pub fn mean_fitness(&self) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        self.fitness_sum as f64 / self.frames as f64
    }
}

/// Summary of a finished (or cancelled) stream run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Frames processed.
    pub frames: usize,
    /// Times the drift detector fired.
    pub drift_events: usize,
    /// Adaptations attempted (every drift fire attempts one).
    pub adaptations_attempted: usize,
    /// Adaptations whose challenger replaced the incumbent.
    pub adaptations_applied: usize,
    /// Candidate evaluations across bootstrap and all adaptations.
    pub evaluations: u64,
    /// Fitness of the incumbent on the first frame (after bootstrap).
    pub initial_fitness: Option<u64>,
    /// Fitness on the last processed frame.
    pub final_fitness: Option<u64>,
    /// Per-segment fitness, segments delimited by applied adaptations.
    pub segments: Vec<SegmentReport>,
    /// Encoded bytes of the final incumbent genotype.
    pub final_genotype: Vec<u8>,
    /// Order-sensitive hash folded over every filtered frame's content hash
    /// — the byte-identity witness the determinism suite compares.
    pub output_hash: u64,
    /// Whether the run was cut short by the cancel callback.
    pub stopped: bool,
}

/// Evolution observer enforcing the adaptation budget: stops at a generation
/// boundary when the cancel callback fires or the wall-clock deadline passes.
struct BudgetObserver<'a> {
    deadline: Option<Instant>,
    cancel: &'a dyn Fn() -> bool,
}

impl GenerationObserver for BudgetObserver<'_> {
    fn on_generation(&mut self, _generation: usize, _reconfigs: &[usize], _best: u64) {}

    fn should_stop(&self) -> bool {
        (self.cancel)() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

fn es_config(a: &AdaptationConfig, parallel: ParallelConfig, seed: u64) -> EsConfig {
    EsConfig {
        offspring: a.offspring,
        mutation_rate: a.mutation_rate,
        generations: a.generations,
        num_arrays: 1,
        strategy: MutationStrategy::Classic,
        target_fitness: a.target_fitness,
        seed,
        parallel,
    }
}

fn adaptation_deadline(a: &AdaptationConfig) -> Option<Instant> {
    a.max_millis
        .map(|ms| Instant::now() + Duration::from_millis(ms))
}

/// Order-sensitive 64-bit fold (FNV-ish with a rotate so permutations of
/// the same frame hashes do not collide).
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17)
}

/// Runs a stream to completion (or cancellation).
///
/// * `initial` — incumbent genotype to start from; when `None`, a bootstrap
///   evolution is run on the first frame (with `warm_parent` as its starting
///   parent when provided, in place of a random draw).
/// * `on_event` — called once per [`StreamEvent`], in stream order.
/// * `cancel` — polled at every frame boundary and at every adaptation
///   generation boundary; returning `true` ends the run with the partial
///   report accumulated so far and `stopped = true`.
///
/// # Panics
/// Panics when `initial` is `None` and the source yields no frame 0 to
/// bootstrap from (the jobs-layer builder rejects such specs upfront).
pub fn run_stream(
    source: &mut dyn FrameSource,
    initial: Option<Genotype>,
    warm_parent: Option<Genotype>,
    config: &StreamConfig,
    on_event: &mut dyn FnMut(&StreamEvent),
    cancel: &dyn Fn() -> bool,
) -> StreamReport {
    config.drift.validate();
    let streams = SeedSequence::new(config.seed);
    let reference = source.reference().clone();
    let mut evaluations: u64 = 0;

    // --- incumbent -------------------------------------------------------
    let mut incumbent = match initial {
        Some(genotype) => genotype,
        None => {
            let frame0 = source
                .frame(0)
                .expect("cannot bootstrap a stream without frames");
            let cfg = es_config(
                &config.adaptation,
                config.parallel,
                streams.fork(LANE_BOOTSTRAP).seed(),
            );
            let mut evaluator = SoftwareEvaluator::new(frame0, reference.clone());
            let mut observer = BudgetObserver {
                deadline: adaptation_deadline(&config.adaptation),
                cancel,
            };
            let result =
                run_evolution_with_parent(&cfg, warm_parent, &mut evaluator, &mut observer);
            evaluations += result.evaluations;
            result.best_genotype
        }
    };
    let mut plan = CompiledArray::new(&incumbent);

    // --- stream loop ------------------------------------------------------
    let mut detector = DriftDetector::new(config.drift);
    let adapt_lane = streams.fork(LANE_ADAPT);
    let mut calibration: VecDeque<Arc<SharedWindows>> = VecDeque::new();
    let mut report = StreamReport {
        frames: 0,
        drift_events: 0,
        adaptations_attempted: 0,
        adaptations_applied: 0,
        evaluations: 0,
        initial_fitness: None,
        final_fitness: None,
        segments: Vec::new(),
        final_genotype: Vec::new(),
        output_hash: 0xcbf2_9ce4_8422_2325,
        stopped: false,
    };
    let mut segment = SegmentReport {
        start_frame: 0,
        frames: 0,
        fitness_sum: 0,
    };
    let mut adaptation_index = 0usize;
    // Frame at which drift fired, while waiting for the post-drift
    // calibration window to fill before adapting.
    let mut pending_drift: Option<usize> = None;

    for index in 0..source.len() {
        if cancel() {
            report.stopped = true;
            break;
        }
        let Some(input) = source.frame(index) else {
            break;
        };
        let windows = Arc::new(SharedWindows::new(&input));
        let output = plan_filter_windows(&plan, &windows);
        let fitness = mae(&output, &reference);
        report.output_hash = mix(report.output_hash, output.content_hash());
        report.frames += 1;
        report.initial_fitness.get_or_insert(fitness);
        report.final_fitness = Some(fitness);
        segment.frames += 1;
        segment.fitness_sum += fitness;
        calibration.push_back(Arc::clone(&windows));
        if calibration.len() > config.drift.window {
            calibration.pop_front();
        }
        on_event(&StreamEvent::Frame { index, fitness });

        if pending_drift.is_none() {
            if detector.observe(fitness) {
                report.drift_events += 1;
                on_event(&StreamEvent::Drift {
                    frame: index,
                    window_fitness: detector.window_sum(),
                    baseline_fitness: detector.baseline_sum().unwrap_or(0),
                });
                // The calibration buffer straddles the shift; only the
                // firing frame is known post-shift evidence.  Keep it and
                // let the window refill before judging a challenger, so the
                // verdict is rendered on the *new* distribution.
                pending_drift = Some(index);
                while calibration.len() > 1 {
                    calibration.pop_front();
                }
                detector.recalibrate();
            }
            continue;
        }
        if calibration.len() < config.drift.window {
            continue;
        }

        // --- adaptation: post-drift window is full ------------------------
        report.adaptations_attempted += 1;
        let cfg = es_config(
            &config.adaptation,
            config.parallel,
            adapt_lane.fork(adaptation_index as u64).seed(),
        );
        // The adaptation trains on this frame's windows, extracted above.
        let mut evaluator = SoftwareEvaluator::with_arrays(
            vec![ProcessingArray::identity()],
            windows,
            reference.clone(),
        );
        let mut observer = BudgetObserver {
            deadline: adaptation_deadline(&config.adaptation),
            cancel,
        };
        let result =
            run_evolution_with_parent(&cfg, Some(incumbent.clone()), &mut evaluator, &mut observer);
        evaluations += result.evaluations;

        // Judge challenger vs incumbent over the post-drift calibration
        // windows; swap only on strict improvement so a failed adaptation
        // cannot regress the stream.
        let challenger = CompiledArray::new(&result.best_genotype);
        let incumbent_sum: u64 = calibration
            .iter()
            .map(|w| plan_mae(&plan, w, &reference))
            .sum();
        let candidate_sum: u64 = calibration
            .iter()
            .map(|w| plan_mae(&challenger, w, &reference))
            .sum();
        let accepted = candidate_sum < incumbent_sum;
        on_event(&StreamEvent::Adaptation {
            frame: index,
            index: adaptation_index,
            accepted,
            incumbent_fitness: incumbent_sum,
            candidate_fitness: candidate_sum,
            generations_run: result.generations_run,
        });
        adaptation_index += 1;
        pending_drift = None;
        if accepted {
            incumbent = result.best_genotype;
            plan = challenger;
            report.adaptations_applied += 1;
            report.segments.push(segment);
            segment = SegmentReport {
                start_frame: index + 1,
                frames: 0,
                fitness_sum: 0,
            };
        }
        // Either way the detector re-latches: judged-and-kept incumbents
        // get a fresh baseline too, or one shift would re-fire forever.
        detector.recalibrate();
    }

    if segment.frames > 0 {
        report.segments.push(segment);
    }
    report.evaluations = evaluations;
    report.final_genotype = incumbent.encode();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{NoiseSegment, SceneKind, SyntheticSource};
    use ehw_image::noise::NoiseModel;

    fn shift_source(seed: u64) -> SyntheticSource {
        SyntheticSource::new(
            SceneKind::Shapes { complexity: 4 },
            24,
            24,
            36,
            vec![
                NoiseSegment {
                    start_frame: 0,
                    noise: NoiseModel::SaltPepper { density: 0.1 },
                },
                NoiseSegment {
                    start_frame: 18,
                    noise: NoiseModel::SaltPepper { density: 0.6 },
                },
            ],
            seed,
        )
        .unwrap()
    }

    fn test_config(seed: u64, workers: Option<usize>) -> StreamConfig {
        StreamConfig {
            seed,
            drift: DriftConfig {
                window: 4,
                threshold_pct: 140,
                cooldown: 4,
            },
            adaptation: AdaptationConfig {
                generations: 80,
                ..AdaptationConfig::default()
            },
            parallel: workers.map_or_else(ParallelConfig::serial, ParallelConfig::with_workers),
        }
    }

    fn never() -> bool {
        false
    }

    #[test]
    fn scripted_shift_fires_drift_and_recovers() {
        let mut source = shift_source(11);
        let mut events = Vec::new();
        let report = run_stream(
            &mut source,
            None,
            None,
            &test_config(42, None),
            &mut |e| events.push(*e),
            &never,
        );
        assert_eq!(report.frames, 36);
        assert!(!report.stopped);
        assert!(report.drift_events >= 1, "noise shift must fire drift");
        assert!(report.adaptations_attempted >= 1);
        assert_eq!(
            report.segments.iter().map(|s| s.frames).sum::<usize>(),
            36,
            "segments must partition the stream"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, StreamEvent::Drift { frame, .. } if *frame >= 18)));
        // Frame events carry every index exactly once, in order.
        let frame_indices: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Frame { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(frame_indices, (0..36).collect::<Vec<_>>());
        assert!(Genotype::decode(&report.final_genotype).is_some());
    }

    #[test]
    fn adaptation_recovers_calibration_fitness() {
        // After the shift the incumbent degrades; an applied adaptation must
        // leave the post-shift segment no worse than the pre-adaptation
        // frames at the shifted noise level.  The acceptance rule guarantees
        // it on the calibration window by construction; spot-check that the
        // engine actually applied one for this seed.
        let mut source = shift_source(11);
        let report = run_stream(
            &mut source,
            None,
            None,
            &test_config(42, None),
            &mut |_| {},
            &never,
        );
        assert!(
            report.adaptations_applied >= 1,
            "expected the challenger to win at least once: {report:?}"
        );
        assert!(report.segments.len() >= 2);
    }

    #[test]
    fn stream_replays_byte_identically_at_any_worker_count() {
        let reference = {
            let mut source = shift_source(5);
            run_stream(
                &mut source,
                None,
                None,
                &test_config(7, None),
                &mut |_| {},
                &never,
            )
        };
        for workers in [2usize, 8] {
            let mut source = shift_source(5);
            let r = run_stream(
                &mut source,
                None,
                None,
                &test_config(7, Some(workers)),
                &mut |_| {},
                &never,
            );
            assert_eq!(r, reference, "stream diverged at {workers} workers");
        }
    }

    #[test]
    fn explicit_initial_genotype_skips_bootstrap() {
        let mut rng = SeedSequence::new(1).rng();
        let genotype = Genotype::random(&mut rng);
        let mut source = shift_source(3);
        let config = StreamConfig {
            drift: DriftConfig {
                // Huge threshold: no adaptation will ever fire.
                threshold_pct: 100_000,
                ..test_config(9, None).drift
            },
            ..test_config(9, None)
        };
        let report = run_stream(
            &mut source,
            Some(genotype.clone()),
            None,
            &config,
            &mut |_| {},
            &never,
        );
        assert_eq!(report.evaluations, 0, "no bootstrap, no adaptation");
        assert_eq!(report.final_genotype, genotype.encode());
        assert_eq!(report.adaptations_attempted, 0);
    }

    #[test]
    fn cancel_stops_at_a_frame_boundary() {
        use std::cell::Cell;
        let seen = Cell::new(0usize);
        let mut source = shift_source(3);
        let cancel = || seen.get() >= 5;
        let report = run_stream(
            &mut source,
            None,
            None,
            &test_config(1, None),
            &mut |e| {
                if matches!(e, StreamEvent::Frame { .. }) {
                    seen.set(seen.get() + 1);
                }
            },
            &cancel,
        );
        assert!(report.stopped);
        assert_eq!(report.frames, 5, "must stop at the next frame boundary");
    }

    #[test]
    fn wall_clock_budget_cuts_an_adaptation_short() {
        let mut source = shift_source(11);
        let mut config = test_config(42, None);
        config.adaptation.generations = 1_000_000;
        config.adaptation.max_millis = Some(50);
        let start = Instant::now();
        let report = run_stream(&mut source, None, None, &config, &mut |_| {}, &never);
        // One bootstrap plus any adaptations, each capped at ~50ms, must not
        // take anywhere near the time a million generations would.
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "wall-clock budget did not bite"
        );
        assert_eq!(report.frames, 36);
    }

    #[test]
    fn warm_parent_seeds_the_bootstrap() {
        // With adaptations disabled the final genotype IS the bootstrap
        // result; re-running the bootstrap warm-started from it can only
        // match or improve its frame-0 fitness (elitist selection keeps the
        // parent's level as the floor).
        let mut config = test_config(13, None);
        config.drift.threshold_pct = 100_000;
        let mut source = shift_source(3);
        let cold = run_stream(&mut source, None, None, &config, &mut |_| {}, &never);
        let warm_genotype = Genotype::decode(&cold.final_genotype).unwrap();
        let mut source2 = shift_source(3);
        let warm = run_stream(
            &mut source2,
            None,
            Some(warm_genotype),
            &config,
            &mut |_| {},
            &never,
        );
        assert!(
            warm.initial_fitness.unwrap() <= cold.initial_fitness.unwrap(),
            "warm bootstrap must start no worse than cold: {warm:?} vs {cold:?}"
        );
    }
}
