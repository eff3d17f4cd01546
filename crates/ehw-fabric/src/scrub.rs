//! Configuration-memory scrubbing.
//!
//! Scrubbing (§II and §V of the paper) reads the configuration memory back,
//! compares it against a golden copy and rewrites any corrupted frame.  It
//! repairs SEUs but not LPDs; the self-healing strategies use exactly that
//! asymmetry to classify a detected fault: if the fitness is still wrong after
//! scrubbing, the fault is permanent and an evolution (or imitation) run is
//! launched.

use crate::frame::{ConfigMemory, Frame, FrameAddress};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Outcome of scrubbing one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameScrubOutcome {
    /// The frame matched its golden copy; nothing was rewritten.
    Clean,
    /// The frame differed and rewriting restored it (transient fault).
    Repaired,
    /// The frame differed and still differs after rewriting (permanent
    /// damage).
    PermanentDamage,
}

/// Aggregate report of one scrubbing pass.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Frames that matched the golden copy.
    pub clean: usize,
    /// Frames repaired by rewriting (SEUs).
    pub repaired: usize,
    /// Frames still corrupted after rewriting (LPDs).
    pub permanent: usize,
    /// Addresses diagnosed as permanently damaged.
    pub damaged_frames: Vec<FrameAddress>,
}

/// A scrubber holding golden copies of the frames it is responsible for.
#[derive(Debug, Clone, Default)]
pub struct Scrubber {
    golden: BTreeMap<FrameAddress, Frame>,
}

impl Scrubber {
    /// Creates a scrubber with an empty golden store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the golden (known-good) content of a frame.  Called by the
    /// reconfiguration engine after every legitimate configuration write.
    pub fn record_golden(&mut self, addr: FrameAddress, frame: Frame) {
        self.golden.insert(addr, frame);
    }

    /// Golden copy of a frame, if known.
    pub fn golden(&self, addr: FrameAddress) -> Option<&Frame> {
        self.golden.get(&addr)
    }

    /// Scrubs a single frame: readback, compare, rewrite if needed, verify.
    pub fn scrub_frame(&self, mem: &mut ConfigMemory, addr: FrameAddress) -> FrameScrubOutcome {
        let Some(golden) = self.golden.get(&addr) else {
            // No golden copy: nothing to compare against, treat as clean.
            return FrameScrubOutcome::Clean;
        };
        let observed = mem.observed(addr);
        if &observed == golden {
            return FrameScrubOutcome::Clean;
        }
        mem.write_frame(addr, golden.clone());
        if &mem.observed(addr) == golden {
            FrameScrubOutcome::Repaired
        } else {
            FrameScrubOutcome::PermanentDamage
        }
    }

    /// Scrubs only the frames of the provided addresses (e.g. one PE region).
    pub fn scrub_frames(&self, mem: &mut ConfigMemory, addrs: &[FrameAddress]) -> ScrubReport {
        let mut report = ScrubReport::default();
        for &addr in addrs {
            match self.scrub_frame(mem, addr) {
                FrameScrubOutcome::Clean => report.clean += 1,
                FrameScrubOutcome::Repaired => report.repaired += 1,
                FrameScrubOutcome::PermanentDamage => {
                    report.permanent += 1;
                    report.damaged_frames.push(addr);
                }
            }
        }
        report
    }
}

/// Test-only whole-store scrubbing and report summaries.
#[cfg(test)]
impl Scrubber {
    /// Scrubs every frame with a golden copy and returns an aggregate report.
    pub(crate) fn scrub_all(&self, mem: &mut ConfigMemory) -> ScrubReport {
        let addrs: Vec<FrameAddress> = self.golden.keys().copied().collect();
        self.scrub_frames(mem, &addrs)
    }
}

#[cfg(test)]
impl ScrubReport {
    /// Total number of frames visited.
    pub(crate) fn total(&self) -> usize {
        self.clean + self.repaired + self.permanent
    }

    /// `true` if no corruption at all was found.
    pub(crate) fn is_clean(&self) -> bool {
        self.repaired == 0 && self.permanent == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn setup() -> (ConfigMemory, Scrubber, Vec<FrameAddress>) {
        let mut mem = ConfigMemory::new();
        let mut scrubber = Scrubber::new();
        let addrs: Vec<_> = (0..8).map(|m| FrameAddress::new(0, 0, m)).collect();
        for (i, &a) in addrs.iter().enumerate() {
            let frame = Frame::from_bytes(&[i as u8 + 1; 32]);
            mem.write_frame(a, frame.clone());
            scrubber.record_golden(a, frame);
        }
        (mem, scrubber, addrs)
    }

    #[test]
    fn clean_memory_scrubs_clean() {
        let (mut mem, scrubber, _) = setup();
        let report = scrubber.scrub_all(&mut mem);
        assert_eq!(report.clean, 8);
        assert!(report.is_clean());
        assert_eq!(report.total(), 8);
    }

    #[test]
    fn seu_is_repaired() {
        let (mut mem, scrubber, addrs) = setup();
        mem.inject_fault(addrs[3], 42, FaultKind::Seu);
        let report = scrubber.scrub_all(&mut mem);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.permanent, 0);
        // A second pass finds everything clean again.
        assert!(scrubber.scrub_all(&mut mem).is_clean());
    }

    #[test]
    fn lpd_is_diagnosed_as_permanent() {
        let (mut mem, scrubber, addrs) = setup();
        mem.inject_fault(addrs[5], 7, FaultKind::Lpd);
        let report = scrubber.scrub_all(&mut mem);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.permanent, 1);
        assert_eq!(report.damaged_frames, vec![addrs[5]]);
        // Permanent damage persists across scrub passes.
        let again = scrubber.scrub_all(&mut mem);
        assert_eq!(again.permanent, 1);
    }

    #[test]
    fn mixed_faults_are_classified_independently() {
        let (mut mem, scrubber, addrs) = setup();
        mem.inject_fault(addrs[1], 3, FaultKind::Seu);
        mem.inject_fault(addrs[2], 9, FaultKind::Lpd);
        mem.inject_fault(addrs[6], 100, FaultKind::Seu);
        let report = scrubber.scrub_all(&mut mem);
        assert_eq!(report.repaired, 2);
        assert_eq!(report.permanent, 1);
        assert_eq!(report.clean, 5);
    }

    #[test]
    fn unprotected_frame_is_ignored() {
        let (mut mem, scrubber, _) = setup();
        let foreign = FrameAddress::new(5, 5, 5);
        mem.inject_fault(foreign, 1, FaultKind::Seu);
        assert_eq!(
            scrubber.scrub_frame(&mut mem, foreign),
            FrameScrubOutcome::Clean
        );
    }

    #[test]
    fn scrub_frames_limits_scope() {
        let (mut mem, scrubber, addrs) = setup();
        mem.inject_fault(addrs[0], 1, FaultKind::Seu);
        mem.inject_fault(addrs[7], 1, FaultKind::Seu);
        // Only scrub the first half: the second fault remains.
        let report = scrubber.scrub_frames(&mut mem, &addrs[..4]);
        assert_eq!(report.repaired, 1);
        assert_ne!(mem.observed(addrs[7]), *scrubber.golden(addrs[7]).unwrap());
    }

    #[test]
    fn golden_store_tracks_latest_write() {
        let (mut mem, mut scrubber, addrs) = setup();
        let new_frame = Frame::from_bytes(&[0xEE; 16]);
        mem.write_frame(addrs[2], new_frame.clone());
        scrubber.record_golden(addrs[2], new_frame.clone());
        assert_eq!(scrubber.golden(addrs[2]), Some(&new_frame));
        assert!(scrubber.scrub_all(&mut mem).is_clean());
    }
}
