//! The Array Control Block (ACB).
//!
//! §III.B and Fig. 3: the scalable platform is built by stacking identical
//! modules, each containing *"a processing array with its corresponding
//! controller, the structures to compute and to deal with the variable
//! latency of the arrays, some FIFOs to align data and the fitness unit"*.
//! The number of instantiated ACBs is the scaling knob of the architecture.
//!
//! The software ACB keeps:
//!
//! * the functional model of its 4×4 processing array (including any injected
//!   PE-level faults, which are a property of the fabric and therefore live
//!   here, not in the genotype),
//! * the bypass switch used by the self-healing strategies (a bypassed ACB
//!   forwards its input unchanged to the next stage, while its array keeps
//!   receiving the data stream so it can be re-evolved online),
//!
//! The fitness unit's MAE is computed by the `ehw-evolution` evaluators,
//! which score every candidate against the training pair.

use ehw_array::array::ProcessingArray;
use ehw_array::genotype::Genotype;
use ehw_array::latency::ArrayLatency;
use ehw_array::pe::FaultBehaviour;
use ehw_image::image::GrayImage;

/// One Array Control Block: array + controller state.
#[derive(Debug, Clone)]
pub struct ArrayControlBlock {
    array: ProcessingArray,
    bypass: bool,
}

impl ArrayControlBlock {
    /// Creates an ACB with an identity-configured array.
    pub(crate) fn new() -> Self {
        Self {
            array: ProcessingArray::identity(),
            bypass: false,
        }
    }

    /// The functional array model.
    pub fn array(&self) -> &ProcessingArray {
        &self.array
    }

    /// The genotype currently configured in the array.
    pub fn genotype(&self) -> &Genotype {
        self.array.genotype()
    }

    /// Updates the functional model after the reconfiguration engine has
    /// written a new candidate (called by the platform, which also performs
    /// the frame writes and register updates).
    pub(crate) fn set_genotype(&mut self, genotype: Genotype) {
        self.array.set_genotype(genotype);
    }

    /// Enables or disables bypass mode.
    pub(crate) fn set_bypass(&mut self, bypass: bool) {
        self.bypass = bypass;
    }

    /// `true` if the ACB is currently bypassed.
    pub fn is_bypassed(&self) -> bool {
        self.bypass
    }

    /// The stream this ACB forwards to the next stage: the array output, or
    /// the unmodified input while bypassed.
    pub(crate) fn process(&self, input: &GrayImage) -> GrayImage {
        if self.bypass {
            input.clone()
        } else {
            self.array.filter_image(input)
        }
    }

    /// The array's own output, computed even while the ACB is bypassed — a
    /// bypassed array still receives its input data stream (§IV.A), which is
    /// what makes online re-evolution by imitation possible.
    pub fn raw_output(&self, input: &GrayImage) -> GrayImage {
        self.array.filter_image(input)
    }

    /// The latency of the currently configured array, as measured by the
    /// ACB's latency logic.
    pub fn latency(&self) -> ArrayLatency {
        ArrayLatency::of(self.array.genotype())
    }

    /// Injects a PE-level fault into the array.
    pub(crate) fn inject_fault(&mut self, row: usize, col: usize, behaviour: FaultBehaviour) {
        self.array.inject_fault(row, col, behaviour);
    }

    /// Clears one injected fault.
    pub(crate) fn clear_fault(&mut self, row: usize, col: usize) {
        self.array.clear_fault(row, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::synth;

    #[test]
    fn new_acb_is_identity_and_not_bypassed() {
        let acb = ArrayControlBlock::new();
        assert!(!acb.is_bypassed());
        assert!(!acb.array().has_faults());
        let img = synth::shapes(16, 16, 2);
        assert_eq!(acb.process(&img), img);
    }

    #[test]
    fn bypass_forwards_input_but_array_still_computes() {
        let mut acb = ArrayControlBlock::new();
        // Configure something that visibly changes the image.
        let mut g = Genotype::identity();
        g.pe_genes[3] = ehw_array::pe::PeFunction::InvertW.gene();
        acb.set_genotype(g);
        let img = synth::gradient(16, 16);
        let filtered = acb.raw_output(&img);
        assert_ne!(filtered, img);

        acb.set_bypass(true);
        assert!(acb.is_bypassed());
        // The forwarded stream is the input...
        assert_eq!(acb.process(&img), img);
        // ...but the array keeps producing its own output.
        assert_eq!(acb.raw_output(&img), filtered);

        acb.set_bypass(false);
        assert_eq!(acb.process(&img), filtered);
    }

    #[test]
    fn latency_tracks_output_gene() {
        let mut acb = ArrayControlBlock::new();
        let base = acb.latency().total_cycles();
        let mut g = Genotype::identity();
        g.output_gene = 3;
        acb.set_genotype(g);
        assert_eq!(acb.latency().total_cycles(), base + 3);
    }
}
