//! The multi-array evolvable hardware platform.
//!
//! [`EhwPlatform`] is the software equivalent of the SoPC in Fig. 2: the
//! static control logic (register file + reconfiguration engine, shared by all
//! stages) plus a stack of [`ArrayControlBlock`]s.  The evolutionary
//! algorithm — the code that would run on the MicroBlaze — drives the platform
//! exclusively through this type: configuring candidates, selecting processing
//! modes, reading fitness values, injecting emulated faults and scrubbing.

use ehw_array::genotype::Genotype;
use ehw_array::pe::FaultBehaviour;
use ehw_array::reconfig_map::{full_configuration_plan, reconfig_plan};
use ehw_fabric::fault::FaultKind;
use ehw_fabric::region::{Floorplan, PeSlot, ReconfigurableRegion};
use ehw_fabric::scrub::ScrubReport;
use ehw_image::image::GrayImage;
use ehw_parallel::ParallelConfig;
use ehw_reconfig::engine::{ReconfigEngine, ReconfigStats};
use ehw_reconfig::timing::TimingModel;
use std::collections::BTreeMap;

use crate::acb::ArrayControlBlock;
use crate::registers::{AcbRegister, RegisterFile};

/// Maximum number of arrays the Virtex-5 LX110T floorplan supports (one clock
/// region per array).
pub const MAX_ARRAYS: usize = 8;

/// A fault injected into a specific PE of a specific array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Array (ACB) index.
    pub array: usize,
    /// PE row.
    pub row: usize,
    /// PE column.
    pub col: usize,
    /// Transient (SEU) or permanent (LPD).
    pub kind: FaultKind,
}

/// The complete multi-array platform.
#[derive(Debug)]
pub struct EhwPlatform {
    acbs: Vec<ArrayControlBlock>,
    engine: ReconfigEngine,
    floorplan: Floorplan,
    registers: RegisterFile,
    faults: BTreeMap<(usize, usize, usize), FaultKind>,
    parallel: ParallelConfig,
}

impl EhwPlatform {
    /// Creates a platform with `num_arrays` Array Control Blocks on the
    /// paper's Virtex-5 LX110T floorplan, using the paper's timing constants.
    ///
    /// # Panics
    /// Panics if `num_arrays` is zero or exceeds [`MAX_ARRAYS`].
    pub fn new(num_arrays: usize) -> Self {
        Self::with_timing(num_arrays, TimingModel::paper())
    }

    /// Creates a platform with an explicit host-parallelism configuration
    /// (see [`ParallelConfig`]); [`new`](Self::new) defaults to the
    /// environment (`EHW_WORKERS`).
    pub fn with_parallel(num_arrays: usize, parallel: ParallelConfig) -> Self {
        let mut platform = Self::new(num_arrays);
        platform.parallel = parallel;
        platform
    }

    /// Creates a platform with a custom timing model (for ablation benches).
    pub(crate) fn with_timing(num_arrays: usize, timing: TimingModel) -> Self {
        assert!(
            num_arrays > 0 && num_arrays <= MAX_ARRAYS,
            "num_arrays must be within 1..={MAX_ARRAYS}"
        );
        let floorplan = Floorplan::new(
            ehw_fabric::device::DeviceGeometry::virtex5_lx110t(),
            num_arrays,
            ehw_array::genotype::ARRAY_ROWS,
            ehw_array::genotype::ARRAY_COLS,
        );
        let mut platform = Self {
            acbs: (0..num_arrays).map(|_| ArrayControlBlock::new()).collect(),
            engine: ReconfigEngine::with_timing(timing),
            floorplan,
            registers: RegisterFile::new(),
            faults: BTreeMap::new(),
            parallel: ParallelConfig::from_env(),
        };
        // Initial full configuration: every array starts as the identity
        // filter, written PE by PE through the engine, exactly like the
        // system bring-up on the FPGA.
        for idx in 0..num_arrays {
            platform.write_full_configuration(idx, &Genotype::identity());
        }
        platform
    }

    /// The paper's three-stage demonstrator.
    pub fn paper_three_arrays() -> Self {
        Self::new(3)
    }

    /// Number of Array Control Blocks.
    pub fn num_arrays(&self) -> usize {
        self.acbs.len()
    }

    /// Immutable access to one ACB.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn acb(&self, index: usize) -> &ArrayControlBlock {
        &self.acbs[index]
    }

    /// All ACBs in stack order.
    pub(crate) fn acbs(&self) -> &[ArrayControlBlock] {
        &self.acbs
    }

    /// The platform floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The reconfiguration engine (read access: statistics, library).
    pub fn engine(&self) -> &ReconfigEngine {
        &self.engine
    }

    /// Accumulated reconfiguration statistics.
    pub fn reconfig_stats(&self) -> ReconfigStats {
        self.engine.stats()
    }

    /// The platform register file.
    pub fn registers(&self) -> &RegisterFile {
        &self.registers
    }

    /// The timing model used by the platform.
    pub(crate) fn timing(&self) -> TimingModel {
        *self.engine.timing()
    }

    /// The host-parallelism configuration used for processing modes and
    /// fault campaigns.
    pub fn parallel_config(&self) -> ParallelConfig {
        self.parallel
    }

    /// Restores the platform to its bring-up functional state: every injected
    /// fault cleared, bypass disabled everywhere and the identity filter
    /// configured into every array.
    ///
    /// This is how the service layer recycles a pooled platform between jobs:
    /// after a reset the platform is functionally indistinguishable from a
    /// freshly constructed one (reconfiguration *statistics* keep
    /// accumulating — they describe the platform's life, not its state, and
    /// no result depends on them), so job outcomes cannot leak from one job
    /// to the next.
    pub fn reset(&mut self) {
        for fault in self.injected_faults() {
            self.clear_injected_fault(fault.array, fault.row, fault.col);
        }
        for index in 0..self.num_arrays() {
            self.set_bypass(index, false);
        }
        self.configure_all_arrays(&Genotype::identity());
    }

    fn region(&self, array: usize, row: usize, col: usize) -> ReconfigurableRegion {
        *self
            .floorplan
            .region(PeSlot::new(array, row, col))
            .expect("PE slot is inside the floorplan")
    }

    fn write_mux_registers(&mut self, index: usize, genotype: &Genotype) {
        for (i, &sel) in genotype.input_genes.iter().enumerate() {
            self.registers
                .write(RegisterFile::input_select_address(index, i), sel as u32);
        }
        self.registers.write_acb(
            index,
            AcbRegister::OutputSelect,
            genotype.output_gene as u32,
        );
    }

    fn write_full_configuration(&mut self, index: usize, genotype: &Genotype) -> f64 {
        let plan = full_configuration_plan(index, genotype);
        let mut time = 0.0;
        for write in &plan.pe_writes {
            let region = self.region(index, write.row, write.col);
            time += self.engine.configure_pe(&region, write.gene);
        }
        self.write_mux_registers(index, genotype);
        self.acbs[index].set_genotype(genotype.clone());
        let latency = self.acbs[index].latency().total_cycles() as u32;
        self.registers
            .write_acb(index, AcbRegister::Latency, latency);
        time
    }

    /// Configures a candidate genotype into array `index`, performing only the
    /// PE reconfigurations that differ from what is currently configured plus
    /// the (cheap) mux-register writes.  Returns the model time spent in the
    /// reconfiguration engine.
    pub fn configure_array(&mut self, index: usize, genotype: &Genotype) -> f64 {
        let plan = reconfig_plan(index, self.acbs[index].genotype(), genotype);
        let mut time = 0.0;
        for write in &plan.pe_writes {
            let region = self.region(index, write.row, write.col);
            time += self.engine.configure_pe(&region, write.gene);
        }
        if plan.register_writes > 0 {
            self.write_mux_registers(index, genotype);
        }
        self.acbs[index].set_genotype(genotype.clone());
        // The register file mirrors the latest latency measurement.
        let latency = self.acbs[index].latency().total_cycles() as u32;
        self.registers
            .write_acb(index, AcbRegister::Latency, latency);
        time
    }

    /// Configures the same genotype into every array (TMR bring-up, §V.B
    /// step a).  Returns the total model time.
    pub fn configure_all_arrays(&mut self, genotype: &Genotype) -> f64 {
        (0..self.num_arrays())
            .map(|i| self.configure_array(i, genotype))
            .sum()
    }

    // ------------------------------------------------------------------
    // Processing modes (§IV.A)
    // ------------------------------------------------------------------

    /// Cascaded mode: the output of each stage feeds the next one (bypassed
    /// stages forward their input unchanged).  Returns the output of every
    /// stage, in order; the last entry is the chain output.  Each stage runs
    /// its cached compiled plan and the stage outputs are moved, not copied —
    /// no per-stage clone of the stream.
    pub fn process_cascaded(&self, input: &GrayImage) -> Vec<GrayImage> {
        let mut outputs: Vec<GrayImage> = Vec::with_capacity(self.acbs.len());
        for acb in &self.acbs {
            let out = acb.process(outputs.last().unwrap_or(input));
            outputs.push(out);
        }
        outputs
    }

    /// MAE of every cascaded stage output against `reference` — the values
    /// the per-stage fitness units report in cascaded mode (Figs. 16–17),
    /// computed by streaming through the stages' cached compiled plans while
    /// holding only the current stage output.  One entry per stage; the
    /// vector is empty exactly when the platform has no stages, which
    /// [`EhwPlatform::new`] makes unconstructible.
    pub fn chain_fitness(&self, input: &GrayImage, reference: &GrayImage) -> Vec<u64> {
        let mut fitnesses = Vec::with_capacity(self.acbs.len());
        let mut stream: Option<GrayImage> = None;
        for acb in &self.acbs {
            let out = acb.process(stream.as_ref().unwrap_or(input));
            fitnesses.push(ehw_image::metrics::mae(&out, reference));
            stream = Some(out);
        }
        fitnesses
    }

    /// Parallel mode: every array receives the same input and filters it
    /// simultaneously.  The per-array filtering is fanned over the worker
    /// pool, mirroring the physical parallelism; outputs come back in stack
    /// order regardless of the worker count.
    pub fn process_parallel(&self, input: &GrayImage) -> Vec<GrayImage> {
        ehw_parallel::ordered_map(self.parallel, &self.acbs, |_, acb| acb.raw_output(input))
    }

    /// Independent mode: each array filters its own input.
    ///
    /// # Panics
    /// Panics if the number of inputs does not match the number of arrays.
    pub fn process_independent(&self, inputs: &[GrayImage]) -> Vec<GrayImage> {
        assert_eq!(
            inputs.len(),
            self.acbs.len(),
            "independent mode needs one input per array"
        );
        ehw_parallel::ordered_map(self.parallel, &self.acbs, |i, acb| {
            acb.raw_output(&inputs[i])
        })
    }

    /// Enables or disables bypass for one stage.
    pub fn set_bypass(&mut self, index: usize, bypass: bool) {
        self.acbs[index].set_bypass(bypass);
        self.registers
            .write_acb(index, AcbRegister::Bypass, bypass as u32);
    }

    // ------------------------------------------------------------------
    // Fault emulation and scrubbing (§V, §VI.D)
    // ------------------------------------------------------------------

    /// Injects an emulated PE-level fault: the configuration frames of the PE
    /// are corrupted (SEU or LPD) and the functional model starts producing
    /// dummy-PE output at that position, exactly as if the reconfiguration
    /// engine had written the faulty bitstream of §VI.D.
    pub fn inject_pe_fault(&mut self, array: usize, row: usize, col: usize, kind: FaultKind) {
        let region = self.region(array, row, col);
        // Corrupt one deterministic bit of the PE's configuration.
        let bit = (row * ehw_array::genotype::ARRAY_COLS + col) * 7 + 1;
        self.engine.inject_region_fault(&region, bit, kind);
        self.acbs[array].inject_fault(row, col, FaultBehaviour::dummy());
        self.faults.insert((array, row, col), kind);
    }

    /// All currently injected faults.
    pub fn injected_faults(&self) -> Vec<InjectedFault> {
        self.faults
            .iter()
            .map(|(&(array, row, col), &kind)| InjectedFault {
                array,
                row,
                col,
                kind,
            })
            .collect()
    }

    /// Removes an injected fault outright (test helper; real permanent faults
    /// can only be worked around, not removed).
    pub(crate) fn clear_injected_fault(&mut self, array: usize, row: usize, col: usize) {
        if self.faults.remove(&(array, row, col)).is_some() {
            self.acbs[array].clear_fault(row, col);
            let region = self.region(array, row, col);
            for addr in region.frame_addresses() {
                self.engine.memory_mut().clear_permanent_damage(addr);
            }
        }
    }

    /// Scrubs the configuration of one array: every PE region is read back,
    /// compared against its golden copy and rewritten.  Transient faults
    /// (SEUs) disappear — both in the configuration memory and in the
    /// functional model; permanent faults survive.  Returns the aggregate
    /// scrub report.
    pub fn scrub_array(&mut self, array: usize) -> ScrubReport {
        let regions: Vec<ReconfigurableRegion> =
            self.floorplan.array_regions(array).copied().collect();
        let mut total = ScrubReport::default();
        for region in &regions {
            let report = self.engine.scrub_region(region);
            total.clean += report.clean;
            total.repaired += report.repaired;
            total.permanent += report.permanent;
            total.damaged_frames.extend(report.damaged_frames);
        }
        // Rewriting the frames repairs transient faults: reflect that in the
        // functional model.
        let repaired: Vec<(usize, usize, usize)> = self
            .faults
            .iter()
            .filter(|(&(a, _, _), &kind)| a == array && kind == FaultKind::Seu)
            .map(|(&key, _)| key)
            .collect();
        for key in repaired {
            self.faults.remove(&key);
            self.acbs[array].clear_fault(key.1, key.2);
        }
        total
    }

    /// `true` if the array still has (functional) faults after the last
    /// scrub — i.e. it suffers permanent damage.
    pub fn array_has_permanent_fault(&self, array: usize) -> bool {
        self.faults
            .iter()
            .any(|(&(a, _, _), &kind)| a == array && kind == FaultKind::Lpd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::metrics::mae;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn platform_starts_as_identity_chain() {
        let platform = EhwPlatform::paper_three_arrays();
        assert_eq!(platform.num_arrays(), 3);
        let img = synth::shapes(32, 32, 3);
        let outputs = platform.process_cascaded(&img);
        assert_eq!(outputs.len(), 3);
        for out in &outputs {
            assert_eq!(*out, img);
        }
        // Initial bring-up wrote all 48 PEs.
        assert_eq!(platform.reconfig_stats().pe_reconfigurations, 48);
    }

    #[test]
    #[should_panic(expected = "num_arrays")]
    fn zero_arrays_panics() {
        let _ = EhwPlatform::new(0);
    }

    #[test]
    fn configure_array_counts_only_differing_pes() {
        let mut platform = EhwPlatform::new(2);
        let before = platform.reconfig_stats().pe_reconfigurations;
        let mut rng = StdRng::seed_from_u64(1);
        let parent = Genotype::random(&mut rng);
        platform.configure_array(0, &parent);
        let mid = platform.reconfig_stats().pe_reconfigurations;
        let expected = parent.pe_reconfigurations_from(&Genotype::identity()) as u64;
        assert_eq!(mid - before, expected);

        // Reconfiguring with the same genotype does nothing.
        platform.configure_array(0, &parent);
        assert_eq!(platform.reconfig_stats().pe_reconfigurations, mid);

        // A single-gene mutation costs at most one reconfiguration.
        let child = parent.mutated(1, &mut rng);
        platform.configure_array(0, &child);
        assert!(platform.reconfig_stats().pe_reconfigurations - mid <= 1);
        assert_eq!(platform.acb(0).genotype(), &child);
    }

    #[test]
    fn configure_updates_registers() {
        let mut platform = EhwPlatform::new(1);
        let mut g = Genotype::identity();
        g.input_genes[2] = 7;
        g.output_gene = 3;
        platform.configure_array(0, &g);
        assert_eq!(
            platform
                .registers()
                .peek(RegisterFile::input_select_address(0, 2)),
            7
        );
        assert_eq!(
            platform
                .registers()
                .peek(RegisterFile::address(0, AcbRegister::OutputSelect)),
            3
        );
    }

    #[test]
    fn parallel_mode_outputs_match_sequential_filtering() {
        let mut platform = EhwPlatform::paper_three_arrays();
        let mut rng = StdRng::seed_from_u64(2);
        let genotypes: Vec<Genotype> = (0..3).map(|_| Genotype::random(&mut rng)).collect();
        for (i, g) in genotypes.iter().enumerate() {
            platform.configure_array(i, g);
        }
        let img = synth::shapes(48, 48, 4);
        let outputs = platform.process_parallel(&img);
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(*out, platform.acb(i).raw_output(&img));
        }
    }

    #[test]
    fn chain_fitness_matches_process_cascaded() {
        let mut platform = EhwPlatform::paper_three_arrays();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..3 {
            platform.configure_array(i, &Genotype::random(&mut rng));
        }
        // A bypassed stage must forward its input in both paths.
        platform.set_bypass(1, true);
        let input = synth::shapes(24, 24, 3);
        let reference = synth::shapes(24, 24, 4);
        let expected: Vec<u64> = platform
            .process_cascaded(&input)
            .iter()
            .map(|out| mae(out, &reference))
            .collect();
        assert_eq!(platform.chain_fitness(&input, &reference), expected);
        assert_eq!(expected.len(), 3);
    }

    #[test]
    fn independent_mode_uses_per_array_inputs() {
        let platform = EhwPlatform::new(2);
        let a = synth::gradient(16, 16);
        let b = synth::checkerboard(16, 16, 4);
        let outputs = platform.process_independent(&[a.clone(), b.clone()]);
        assert_eq!(outputs[0], a);
        assert_eq!(outputs[1], b);
    }

    #[test]
    #[should_panic(expected = "one input per array")]
    fn independent_mode_checks_input_count() {
        let platform = EhwPlatform::new(2);
        let a = synth::gradient(8, 8);
        let _ = platform.process_independent(&[a]);
    }

    #[test]
    fn bypass_skips_a_cascade_stage() {
        let mut platform = EhwPlatform::paper_three_arrays();
        // Stage 1 inverts (a single InvertW in its output row); stages 0 and 2
        // stay identity.
        let mut g = Genotype::identity();
        g.pe_genes[0] = ehw_array::pe::PeFunction::InvertW.gene();
        platform.configure_array(1, &g);
        let img = synth::gradient(16, 16);
        let normal = platform.process_cascaded(&img);
        assert_ne!(normal[2], img);

        platform.set_bypass(1, true);
        let bypassed = platform.process_cascaded(&img);
        assert_eq!(bypassed[2], img);
        assert_eq!(
            platform
                .registers()
                .peek(RegisterFile::address(1, AcbRegister::Bypass)),
            1
        );
    }

    #[test]
    fn transient_fault_is_healed_by_scrubbing() {
        let mut platform = EhwPlatform::paper_three_arrays();
        let img = synth::shapes(32, 32, 3);
        let clean = platform.acb(0).raw_output(&img);

        platform.inject_pe_fault(0, 0, 2, FaultKind::Seu);
        let faulty = platform.acb(0).raw_output(&img);
        assert!(mae(&faulty, &clean) > 0);
        assert_eq!(platform.injected_faults().len(), 1);

        let report = platform.scrub_array(0);
        assert!(report.repaired > 0);
        assert_eq!(report.permanent, 0);
        assert_eq!(platform.acb(0).raw_output(&img), clean);
        assert!(platform.injected_faults().is_empty());
        assert!(!platform.array_has_permanent_fault(0));
    }

    #[test]
    fn permanent_fault_survives_scrubbing() {
        let mut platform = EhwPlatform::paper_three_arrays();
        let img = synth::shapes(32, 32, 3);
        let clean = platform.acb(1).raw_output(&img);

        platform.inject_pe_fault(1, 0, 1, FaultKind::Lpd);
        let report = platform.scrub_array(1);
        assert!(report.permanent > 0);
        assert!(platform.array_has_permanent_fault(1));
        assert_ne!(platform.acb(1).raw_output(&img), clean);

        // Clearing (device replacement) restores the array — test helper only.
        platform.clear_injected_fault(1, 0, 1);
        assert_eq!(platform.acb(1).raw_output(&img), clean);
    }

    #[test]
    fn reset_restores_bring_up_functional_state() {
        let mut platform = EhwPlatform::paper_three_arrays();
        let mut rng = StdRng::seed_from_u64(9);
        platform.configure_all_arrays(&Genotype::random(&mut rng));
        platform.inject_pe_fault(1, 0, 2, FaultKind::Lpd);
        platform.set_bypass(2, true);

        platform.reset();

        assert!(platform.injected_faults().is_empty());
        assert!(!platform.array_has_permanent_fault(1));
        let img = synth::shapes(16, 16, 3);
        for out in platform.process_cascaded(&img) {
            assert_eq!(out, img, "reset platform must be an identity chain");
        }
    }

    #[test]
    fn scrubbing_only_touches_the_requested_array() {
        let mut platform = EhwPlatform::paper_three_arrays();
        platform.inject_pe_fault(0, 0, 0, FaultKind::Seu);
        platform.inject_pe_fault(2, 0, 0, FaultKind::Seu);
        platform.scrub_array(0);
        assert_eq!(platform.injected_faults().len(), 1);
        assert_eq!(platform.injected_faults()[0].array, 2);
    }
}
