//! Drift detection on a sliding calibration window.
//!
//! The detector watches the incumbent filter's per-frame fitness (aggregated
//! MAE against the clean reference; lower is better).  Once `window` frames
//! have been observed it latches their fitness sum as the *baseline* — the
//! level the filter achieved on the distribution it was trained for.  From
//! then on it compares the sliding window sum against the baseline: when
//!
//! ```text
//! window_sum * 100 > baseline_sum * threshold_pct
//! ```
//!
//! the noise distribution has shifted enough that the incumbent is losing
//! ground, and the detector fires.  All arithmetic is integer, so detection
//! ticks are exactly reproducible.
//!
//! After an adaptation the engine calls `DriftDetector::recalibrate`: the
//! window empties and the baseline re-latches on the next `window` frames —
//! the post-adaptation filter is judged against its own level, not the
//! pre-drift one.  A `cooldown` suppresses re-firing for a number of frames
//! after each fire so one shift cannot trigger a burst of adaptations while
//! the window still straddles the transition.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of a [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Calibration window length in frames (must be positive).
    pub window: usize,
    /// Fire when the window fitness exceeds `threshold_pct`% of the
    /// baseline; 150 means "50% worse than calibration".  Must be ≥ 100.
    pub threshold_pct: u32,
    /// Frames to suppress re-firing after a fire.
    pub cooldown: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 8,
            threshold_pct: 150,
            cooldown: 8,
        }
    }
}

impl DriftConfig {
    /// Panics on degenerate parameters; mirrored by the jobs-layer builder
    /// which reports them as spec errors instead.
    pub(crate) fn validate(&self) {
        assert!(self.window > 0, "drift window must be positive");
        assert!(
            self.threshold_pct >= 100,
            "drift threshold below 100% would fire at calibration level"
        );
    }
}

/// Sliding-window fitness monitor; see the module docs for the model.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    config: DriftConfig,
    window: VecDeque<u64>,
    window_sum: u64,
    baseline_sum: Option<u64>,
    cooldown_left: usize,
}

impl DriftDetector {
    /// Creates a detector with an empty window and no baseline.
    pub(crate) fn new(config: DriftConfig) -> Self {
        config.validate();
        Self {
            config,
            window: VecDeque::new(),
            window_sum: 0,
            baseline_sum: None,
            cooldown_left: 0,
        }
    }

    /// Feeds one frame's fitness; returns `true` when drift fires at this
    /// frame.
    pub(crate) fn observe(&mut self, fitness: u64) -> bool {
        self.window.push_back(fitness);
        self.window_sum += fitness;
        if self.window.len() > self.config.window {
            let old = self.window.pop_front().expect("window is non-empty");
            self.window_sum -= old;
        }
        if self.window.len() < self.config.window {
            return false;
        }
        let Some(baseline) = self.baseline_sum else {
            // First full window: this is the calibration level.
            self.baseline_sum = Some(self.window_sum);
            return false;
        };
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return false;
        }
        let fired = u128::from(self.window_sum) * 100
            > u128::from(baseline) * u128::from(self.config.threshold_pct);
        if fired {
            self.cooldown_left = self.config.cooldown;
        }
        fired
    }

    /// Empties the window and drops the baseline, so the next `window`
    /// frames re-latch it.  Called by the engine after every adaptation
    /// attempt (applied or not) so the detector judges the current filter.
    pub(crate) fn recalibrate(&mut self) {
        self.window.clear();
        self.window_sum = 0;
        self.baseline_sum = None;
        self.cooldown_left = 0;
    }

    /// Sum of the fitness values currently in the window.
    pub(crate) fn window_sum(&self) -> u64 {
        self.window_sum
    }

    /// The latched baseline sum, if calibration has completed.
    pub(crate) fn baseline_sum(&self) -> Option<u64> {
        self.baseline_sum
    }
}

#[cfg(test)]
impl DriftDetector {
    /// Whether the calibration window is full.
    pub(crate) fn calibrated(&self) -> bool {
        self.baseline_sum.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(window: usize, threshold_pct: u32, cooldown: usize) -> DriftDetector {
        DriftDetector::new(DriftConfig {
            window,
            threshold_pct,
            cooldown,
        })
    }

    #[test]
    fn latches_baseline_on_first_full_window() {
        let mut d = detector(3, 150, 0);
        assert!(!d.observe(10));
        assert!(!d.observe(10));
        assert!(!d.calibrated());
        assert!(!d.observe(10));
        assert!(d.calibrated());
        assert_eq!(d.baseline_sum(), Some(30));
    }

    #[test]
    fn fires_past_threshold_and_not_below() {
        let mut d = detector(2, 150, 0);
        d.observe(10);
        d.observe(10); // baseline = 20
        assert!(!d.observe(10)); // window 20 = baseline
        assert!(!d.observe(20)); // window 30, 150% of 20 exactly — not past
        assert!(d.observe(20)); // window 40 > 30
    }

    #[test]
    fn cooldown_suppresses_refiring() {
        let mut d = detector(2, 120, 3);
        d.observe(10);
        d.observe(10); // baseline 20
        assert!(d.observe(50)); // fires, cooldown starts
        assert!(!d.observe(50));
        assert!(!d.observe(50));
        assert!(!d.observe(50));
        assert!(d.observe(50)); // cooldown over, still past threshold
    }

    #[test]
    fn recalibrate_relatches_baseline() {
        let mut d = detector(2, 150, 0);
        d.observe(10);
        d.observe(10);
        assert!(d.observe(100));
        d.recalibrate();
        assert!(!d.calibrated());
        d.observe(100);
        assert!(!d.observe(100)); // second observation latches the new level
        assert_eq!(d.baseline_sum(), Some(200));
        assert!(!d.observe(100)); // steady at the new level: no fire
    }

    #[test]
    fn zero_baseline_fires_on_any_regression() {
        let mut d = detector(2, 150, 0);
        d.observe(0);
        d.observe(0); // a perfect filter calibrates at 0
        assert!(!d.observe(0));
        assert!(d.observe(1), "any positive error beats a zero baseline");
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_below_100_is_rejected() {
        detector(2, 99, 0);
    }
}
