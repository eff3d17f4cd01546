//! Reconfiguration and evaluation timing constants.
//!
//! The evolution-time results of §VI.B (Figs. 12–14) are governed by three
//! quantities:
//!
//! * the **reconfiguration time per PE**: 67.53 µs with the ICAP at its
//!   nominal 100 MHz (§VI.A) — every PE-function gene that mutates costs one
//!   PE reconfiguration, including the readback needed because a PE occupies
//!   less than a full clock-region column,
//! * the **evaluation time per candidate**: the array is pipelined and
//!   processes one pixel per clock, so evaluating a candidate on a W×H image
//!   takes `W·H / f_clk` plus the pipeline latency,
//! * the **mutation time**, performed in software on the MicroBlaze and
//!   overlapped with the evaluation of the previous candidate (Fig. 11), so
//!   it only contributes when nothing can be overlapped.
//!
//! [`TimingModel`] packages these constants so that the platform's
//! generation-pipeline simulator (in `ehw-platform::timing`) can reproduce the
//! published curves, and so ablation benches can sweep e.g. the ICAP clock.

use ehw_fabric::region::FRAMES_PER_PE;
use serde::{Deserialize, Serialize};

/// Nominal ICAP clock frequency used in the paper (Hz).
pub const ICAP_CLOCK_HZ: f64 = 100_000_000.0;

/// Measured reconfiguration time per PE in microseconds (§VI.A).
pub const PE_RECONFIG_TIME_US: f64 = 67.53;

/// Nominal processing clock of the array (Hz); the systolic array accepts one
/// pixel per cycle.
pub const ARRAY_CLOCK_HZ: f64 = 100_000_000.0;

/// Number of configuration frames per PE in the fabric model.
pub(crate) fn pe_frames() -> usize {
    FRAMES_PER_PE
}

/// Timing constants for the evolution-time model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingModel {
    /// Reconfiguration time for one PE, in seconds.
    pub pe_reconfig_s: f64,
    /// Array pixel clock in Hz (one pixel per cycle).
    pub pixel_clock_hz: f64,
    /// Pipeline latency of one array in clock cycles (fill time before the
    /// first valid output pixel).
    pub array_latency_cycles: u64,
    /// Software mutation time per candidate, in seconds.  Mutations run on the
    /// embedded CPU and are overlapped with the previous evaluation.
    pub mutation_s: f64,
    /// Software bookkeeping per generation (selection, register writes), in
    /// seconds.
    pub generation_overhead_s: f64,
}

impl TimingModel {
    /// The constants corresponding to the paper's platform.
    pub fn paper() -> Self {
        TimingModel {
            pe_reconfig_s: PE_RECONFIG_TIME_US * 1e-6,
            pixel_clock_hz: ARRAY_CLOCK_HZ,
            // 4×4 pipelined array plus window-formation line buffers: a few
            // tens of cycles, negligible next to the 16 k pixels of an image.
            array_latency_cycles: 3 * 128 + 16,
            mutation_s: 10e-6,
            generation_overhead_s: 20e-6,
        }
    }

    /// Scales the ICAP throughput (e.g. 0.5 = ICAP at half speed); used by the
    /// ablation bench that studies the reconfiguration/evaluation balance.
    pub fn with_icap_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "ICAP scale must be positive");
        self.pe_reconfig_s /= scale;
        self
    }

    /// Time to reconfigure `pes` processing elements, in seconds.  Every PE is
    /// written through the single ICAP, so the cost is linear.
    pub fn reconfig_time(&self, pes: usize) -> f64 {
        self.pe_reconfig_s * pes as f64
    }

    /// Time to evaluate one candidate on a `width × height` image, in
    /// seconds: pipeline fill plus one pixel per clock.
    pub fn evaluation_time(&self, width: usize, height: usize) -> f64 {
        ((width * height) as f64 + self.array_latency_cycles as f64) / self.pixel_clock_hz
    }

    /// Time for the software mutation of one candidate, in seconds.
    pub fn mutation_time(&self) -> f64 {
        self.mutation_s
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let t = TimingModel::paper();
        assert!((t.pe_reconfig_s - 67.53e-6).abs() < 1e-12);
        assert_eq!(t.pixel_clock_hz, 100e6);
    }

    #[test]
    fn reconfig_time_is_linear_in_pes() {
        let t = TimingModel::paper();
        assert_eq!(t.reconfig_time(0), 0.0);
        let one = t.reconfig_time(1);
        let five = t.reconfig_time(5);
        assert!((five - 5.0 * one).abs() < 1e-15);
        // 16 PEs (a whole array) ≈ 1.08 ms.
        assert!((t.reconfig_time(16) - 1.08048e-3).abs() < 1e-6);
    }

    #[test]
    fn evaluation_time_matches_image_size() {
        let t = TimingModel::paper();
        let small = t.evaluation_time(128, 128);
        let large = t.evaluation_time(256, 256);
        // 128×128 at 100 MHz ≈ 163.84 µs + latency.
        assert!(small > 163e-6 && small < 175e-6, "small = {small}");
        // Four times the pixels ⇒ roughly four times the evaluation time.
        assert!(large / small > 3.8 && large / small < 4.2);
    }

    #[test]
    fn reconfiguration_dominates_small_image_evaluation() {
        // §VI.B: "the reconfiguration time is higher than the evaluation
        // time" for 128×128 images — the reason the 3-array speed-up is
        // limited.  One mutated PE costs 67.53 µs ≈ 40 % of a 163 µs
        // evaluation; with the usual k≥1 mutated PEs per candidate the
        // reconfiguration phase dominates.
        let t = TimingModel::paper();
        assert!(t.reconfig_time(3) > t.evaluation_time(128, 128));
        // ...but not for 256×256 images, where evaluation dominates.
        assert!(t.reconfig_time(3) < t.evaluation_time(256, 256));
    }

    #[test]
    fn icap_scale_changes_reconfig_only() {
        let t = TimingModel::paper();
        let slow = t.with_icap_scale(0.5);
        assert!((slow.reconfig_time(1) - 2.0 * t.reconfig_time(1)).abs() < 1e-12);
        assert_eq!(slow.evaluation_time(64, 64), t.evaluation_time(64, 64));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_icap_scale_panics() {
        let _ = TimingModel::paper().with_icap_scale(0.0);
    }

    #[test]
    fn pe_frames_matches_fabric_model() {
        assert_eq!(pe_frames(), FRAMES_PER_PE);
    }
}
