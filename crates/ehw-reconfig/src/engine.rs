//! The reconfiguration engine.
//!
//! Models the DPR peripheral of the paper's ref. \[14\]: a single engine,
//! attached to the single ICAP, that performs every configuration write of
//! the platform.  Its capabilities are:
//!
//! * **write** a presynthesized partial bitstream into a PE region (relocating
//!   it from the reference location it was generated for),
//! * **readback** the frames of a region,
//! * **copy** a region onto another one (readback / relocate / writeback) —
//!   used to replicate a working filter into the three TMR arrays,
//! * **scrub** a region against the golden copies of its frames,
//! * **inject** a configuration fault into a region's frames.
//!
//! Because a PE occupies less than a clock-region column, the engine must read
//! back the column before rewriting it (§VI.A); that cost is already folded
//! into the measured 67.53 µs per PE, which the engine accumulates in its
//! statistics.  There is exactly one engine, so requests are strictly
//! serialized — the property that limits the parallel-evolution speed-up.

use crate::library::PbsLibrary;
use crate::timing::TimingModel;
use ehw_fabric::bitstream::PartialBitstream;
use ehw_fabric::fault::{FaultKind, FaultRecord};
use ehw_fabric::frame::{ConfigMemory, FrameAddress, FRAME_BYTES};
use ehw_fabric::region::ReconfigurableRegion;
use ehw_fabric::scrub::{ScrubReport, Scrubber};
use serde::{Deserialize, Serialize};

/// Counters accumulated by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReconfigStats {
    /// Number of PE reconfigurations performed.
    pub pe_reconfigurations: u64,
    /// Number of configuration frames written.
    pub frames_written: u64,
    /// Number of configuration frames read back.
    pub frames_read: u64,
    /// Total engine busy time in seconds (model time, 67.53 µs per PE).
    pub busy_time_s: f64,
    /// Number of scrubbing passes executed.
    pub scrub_passes: u64,
}

/// The single reconfiguration engine of the platform.
#[derive(Debug)]
pub struct ReconfigEngine {
    memory: ConfigMemory,
    scrubber: Scrubber,
    library: PbsLibrary,
    timing: TimingModel,
    stats: ReconfigStats,
}

impl ReconfigEngine {
    /// Creates an engine with the presynthesized PE library and paper timing.
    pub fn new() -> Self {
        Self::with_timing(TimingModel::paper())
    }

    /// Creates an engine with a custom timing model (used by ablation benches
    /// that sweep the ICAP speed).
    pub fn with_timing(timing: TimingModel) -> Self {
        Self {
            memory: ConfigMemory::new(),
            scrubber: Scrubber::new(),
            library: PbsLibrary::presynthesized(),
            timing,
            stats: ReconfigStats::default(),
        }
    }

    /// The timing model in use.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ReconfigStats {
        self.stats
    }

    /// Immutable view of the configuration memory (for assertions and fault
    /// analysis).
    pub fn memory(&self) -> &ConfigMemory {
        &self.memory
    }

    /// Mutable access to the configuration memory — used by fault-injection
    /// campaigns, which corrupt configuration cells behind the engine's back
    /// exactly as radiation would.
    pub fn memory_mut(&mut self) -> &mut ConfigMemory {
        &mut self.memory
    }

    /// Configures PE function `gene` into the given region.  Returns the model
    /// time spent (seconds).
    pub fn configure_pe(&mut self, region: &ReconfigurableRegion, gene: u8) -> f64 {
        let pbs = self.library.variant(gene).clone();
        self.write_relocated(region, &pbs)
    }

    /// Writes a caller-provided bitstream (e.g. one previously read back from
    /// another region) into the region.  Returns the model time spent.
    pub(crate) fn write_bitstream(
        &mut self,
        region: &ReconfigurableRegion,
        pbs: &PartialBitstream,
    ) -> f64 {
        self.write_relocated(region, pbs)
    }

    fn write_relocated(&mut self, region: &ReconfigurableRegion, pbs: &PartialBitstream) -> f64 {
        let relocated = pbs.relocated_to(region.base.region, region.base.major);
        let mut written = 0;
        for (offset, (_, frame)) in relocated.addressed_frames().enumerate() {
            // Frames are written at the region's own minor offsets, regardless
            // of the minor offset the PBS was generated at.
            let addr = FrameAddress::new(
                region.base.region,
                region.base.major,
                region.base.minor + offset as u16,
            );
            if (offset) < region.frames {
                self.memory.write_frame(addr, frame.clone());
                self.scrubber.record_golden(addr, frame.clone());
                written += 1;
            }
        }
        // Readback-before-write of the shared column is folded into the
        // measured per-PE cost.
        self.stats.pe_reconfigurations += 1;
        self.stats.frames_written += written;
        let t = self.timing.reconfig_time(1);
        self.stats.busy_time_s += t;
        t
    }

    /// Reads back the frames of a region as a partial bitstream.
    pub(crate) fn readback(&mut self, region: &ReconfigurableRegion) -> PartialBitstream {
        let frames: Vec<_> = region
            .frame_addresses()
            .map(|addr| {
                self.stats.frames_read += 1;
                self.memory.observed(addr)
            })
            .collect();
        PartialBitstream::new(
            format!(
                "readback-a{}r{}c{}",
                region.slot.array, region.slot.row, region.slot.col
            ),
            region.base,
            frames,
        )
    }

    /// Copies the configuration of `from` onto `to` using the engine's
    /// readback / relocation / writeback feature.  Returns the model time
    /// spent (one PE reconfiguration).
    pub fn copy_region(&mut self, from: &ReconfigurableRegion, to: &ReconfigurableRegion) -> f64 {
        let pbs = self.readback(from);
        self.write_bitstream(to, &pbs)
    }

    /// Injects a fault into a bit of the region's configuration, picking the
    /// frame by linear bit index over the whole region.
    pub fn inject_region_fault(
        &mut self,
        region: &ReconfigurableRegion,
        bit: usize,
        kind: FaultKind,
    ) -> FaultRecord {
        let bits_per_frame = FRAME_BYTES * 8;
        let frame_index = (bit / bits_per_frame) % region.frames;
        let bit_in_frame = bit % bits_per_frame;
        let addr = FrameAddress::new(
            region.base.region,
            region.base.major,
            region.base.minor + frame_index as u16,
        );
        self.memory.inject_fault(addr, bit_in_frame, kind)
    }

    /// Scrubs one region: readback, compare against golden copies, rewrite.
    pub fn scrub_region(&mut self, region: &ReconfigurableRegion) -> ScrubReport {
        self.stats.scrub_passes += 1;
        let addrs: Vec<_> = region.frame_addresses().collect();
        self.scrubber.scrub_frames(&mut self.memory, &addrs)
    }
}

impl Default for ReconfigEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Test-only inspection of what a region currently holds.
#[cfg(test)]
impl ReconfigEngine {
    /// Identifies which library function is currently configured in a region,
    /// if its frames match a presynthesized PBS exactly (they will not if the
    /// region has permanent damage).
    pub(crate) fn identify(&mut self, region: &ReconfigurableRegion) -> Option<u8> {
        let pbs = self.readback(region);
        self.library.identify(&pbs)
    }

    /// `true` if the region's observed configuration differs from its golden
    /// copy (i.e. it is currently corrupted).
    pub(crate) fn region_corrupted(&self, region: &ReconfigurableRegion) -> bool {
        region.frame_addresses().any(|addr| {
            self.scrubber
                .golden(addr)
                .map(|g| self.memory.observed(addr) != *g)
                .unwrap_or(false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_fabric::device::DeviceGeometry;
    use ehw_fabric::region::{Floorplan, PeSlot};

    fn floorplan() -> Floorplan {
        Floorplan::new(DeviceGeometry::virtex5_lx110t(), 3, 4, 4)
    }

    fn region(fp: &Floorplan, a: usize, r: usize, c: usize) -> ReconfigurableRegion {
        *fp.region(PeSlot::new(a, r, c)).expect("region")
    }

    #[test]
    fn configure_and_identify_round_trip() {
        let fp = floorplan();
        let mut engine = ReconfigEngine::new();
        let slot = region(&fp, 0, 1, 2);
        for gene in [0u8, 7, 15] {
            let t = engine.configure_pe(&slot, gene);
            assert!(t > 0.0);
            assert_eq!(engine.identify(&slot), Some(gene));
        }
        assert_eq!(engine.stats().pe_reconfigurations, 3);
    }

    #[test]
    fn copy_region_replicates_configuration() {
        let fp = floorplan();
        let mut engine = ReconfigEngine::new();
        let src = region(&fp, 0, 2, 2);
        let dst = region(&fp, 2, 2, 2);
        engine.configure_pe(&src, 9);
        engine.copy_region(&src, &dst);
        assert_eq!(engine.identify(&dst), Some(9));
    }

    #[test]
    fn busy_time_matches_paper_constant() {
        let fp = floorplan();
        let mut engine = ReconfigEngine::new();
        let slot = region(&fp, 0, 0, 0);
        for gene in 0..16u8 {
            engine.configure_pe(&slot, gene);
        }
        let stats = engine.stats();
        assert_eq!(stats.pe_reconfigurations, 16);
        // 16 × 67.53 µs ≈ 1.08 ms.
        assert!((stats.busy_time_s - 16.0 * 67.53e-6).abs() < 1e-9);
    }

    #[test]
    fn seu_detected_and_repaired_by_scrubbing() {
        let fp = floorplan();
        let mut engine = ReconfigEngine::new();
        let slot = region(&fp, 0, 3, 3);
        engine.configure_pe(&slot, 4);
        assert!(!engine.region_corrupted(&slot));

        engine.inject_region_fault(&slot, 123, FaultKind::Seu);
        assert!(engine.region_corrupted(&slot));

        let report = engine.scrub_region(&slot);
        assert_eq!(report.repaired, 1);
        assert!(!engine.region_corrupted(&slot));
        assert_eq!(engine.identify(&slot), Some(4));
    }

    #[test]
    fn lpd_survives_scrubbing_and_reconfiguration() {
        let fp = floorplan();
        let mut engine = ReconfigEngine::new();
        let slot = region(&fp, 1, 1, 1);
        engine.configure_pe(&slot, 2);
        engine.inject_region_fault(&slot, 40, FaultKind::Lpd);

        let report = engine.scrub_region(&slot);
        assert_eq!(report.permanent, 1);
        assert!(engine.region_corrupted(&slot));

        // Reconfiguring with a new function still leaves the region corrupted
        // relative to its (new) golden copy.
        engine.configure_pe(&slot, 11);
        assert!(engine.region_corrupted(&slot));
        assert_eq!(engine.identify(&slot), None);
    }

    #[test]
    fn fault_bit_indices_map_to_distinct_frames() {
        let fp = floorplan();
        let mut engine = ReconfigEngine::new();
        let slot = region(&fp, 0, 0, 1);
        engine.configure_pe(&slot, 3);
        let bits_per_frame = FRAME_BYTES * 8;
        let r0 = engine.inject_region_fault(&slot, 5, FaultKind::Seu);
        let r1 = engine.inject_region_fault(&slot, bits_per_frame + 5, FaultKind::Seu);
        assert_ne!(r0.addr, r1.addr);
        assert_eq!(r0.bit, r1.bit);
    }
}
