//! Configuration frames and the configuration memory.
//!
//! On Virtex-5 devices the configuration memory is addressed in *frames* — the
//! smallest unit the ICAP can read or write.  A partial bitstream is a
//! sequence of frames plus their addresses.  The reconfiguration engine of the
//! paper (ref. \[14\]) reads frames back, relocates them to another region and
//! writes them again, which is also how faults are injected (a "dummy PE"
//! bitstream is written over a working PE).
//!
//! The model here keeps one [`Frame`] of [`FRAME_BYTES`] bytes per
//! [`FrameAddress`].  Permanent damage (LPD) is represented as a per-bit
//! stuck mask: reads observe `written_data XOR stuck_mask`, and rewriting the
//! frame does not clear the mask — exactly the property that lets the
//! self-healing experiments distinguish transient from permanent faults.

use crate::fault::{FaultKind, FaultRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Size of one configuration frame in bytes.
///
/// A real Virtex-5 frame is 41 32-bit words (164 bytes); we round to a nearby
/// power-of-two friendly value to keep the model simple.  Nothing downstream
/// depends on the exact number, only on frames being fixed-size.
pub const FRAME_BYTES: usize = 164;

/// Address of one configuration frame.
///
/// Frames are addressed by clock region row, major column and minor frame
/// index within the column — a simplification of the Virtex-5
/// (block/top/row/major/minor) scheme that preserves the structure the
/// reconfiguration engine needs for relocation (changing `region` moves a
/// frame vertically; changing `major` moves it horizontally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FrameAddress {
    /// Clock region row.
    pub region: u16,
    /// Major column within the region.
    pub major: u16,
    /// Minor frame index within the column.
    pub minor: u16,
}

impl FrameAddress {
    /// Creates a frame address.
    pub fn new(region: u16, major: u16, minor: u16) -> Self {
        Self {
            region,
            major,
            minor,
        }
    }

    /// Returns the same address relocated to another clock region and major
    /// column, keeping the minor index — the transformation applied by the
    /// reconfiguration engine's relocation feature.
    pub(crate) fn relocated(self, region: u16, major: u16) -> Self {
        Self {
            region,
            major,
            minor: self.minor,
        }
    }
}

impl fmt::Display for FrameAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}/C{}/F{}", self.region, self.major, self.minor)
    }
}

/// One configuration frame: a fixed-size block of configuration bits.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    data: Vec<u8>,
}

impl Frame {
    /// A frame with all bits cleared.
    pub(crate) fn zeroed() -> Self {
        Frame {
            data: vec![0; FRAME_BYTES],
        }
    }

    /// Builds a frame from raw bytes, padding or truncating to
    /// [`FRAME_BYTES`].
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut data = bytes.to_vec();
        data.resize(FRAME_BYTES, 0);
        Frame { data }
    }

    /// The frame contents.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Flips a single bit (bit index across the whole frame).
    ///
    /// # Panics
    /// Panics if `bit >= FRAME_BYTES * 8`.
    pub(crate) fn flip_bit(&mut self, bit: usize) {
        assert!(bit < FRAME_BYTES * 8, "bit index out of range");
        self.data[bit / 8] ^= 1 << (bit % 8);
    }

    /// Number of bits set in the frame.
    pub(crate) fn popcount(&self) -> u32 {
        self.data.iter().map(|b| b.count_ones()).sum()
    }

    /// XOR of two frames — used by scrubbing to locate corrupted bits.
    pub(crate) fn xor(&self, other: &Frame) -> Frame {
        Frame {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a ^ b)
                .collect(),
        }
    }
}

impl Default for Frame {
    fn default() -> Self {
        Frame::zeroed()
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frame(popcount={})", self.popcount())
    }
}

/// The device configuration memory: a sparse map from frame address to frame
/// contents, plus a per-frame stuck-bit mask modelling Local Permanent Damage.
#[derive(Debug, Clone, Default)]
pub struct ConfigMemory {
    frames: BTreeMap<FrameAddress, Frame>,
    stuck: BTreeMap<FrameAddress, Frame>,
    writes: u64,
}

impl ConfigMemory {
    /// Creates an empty configuration memory (all frames read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a frame.  Stuck bits caused by permanent damage are *not*
    /// cleared by the write — reads will still observe them flipped.
    pub fn write_frame(&mut self, addr: FrameAddress, frame: Frame) {
        self.writes += 1;
        self.frames.insert(addr, frame);
    }

    /// Reads a frame as the device would observe it: the last written value
    /// with any permanently-stuck bits flipped.  Unwritten frames read as
    /// zero (plus stuck bits).
    pub fn observed(&self, addr: FrameAddress) -> Frame {
        let base = self.frames.get(&addr).cloned().unwrap_or_default();
        match self.stuck.get(&addr) {
            Some(mask) => base.xor(mask),
            None => base,
        }
    }

    /// Injects a fault into the configuration memory and returns a record of
    /// what was done.
    ///
    /// * [`FaultKind::Seu`] flips one bit of the stored frame (a transient
    ///   upset: rewriting the frame repairs it).
    /// * [`FaultKind::Lpd`] sets the bit in the stuck mask (permanent damage:
    ///   rewriting does not repair it).
    pub fn inject_fault(&mut self, addr: FrameAddress, bit: usize, kind: FaultKind) -> FaultRecord {
        assert!(bit < FRAME_BYTES * 8, "bit index out of range");
        match kind {
            FaultKind::Seu => {
                let mut frame = self.frames.get(&addr).cloned().unwrap_or_default();
                frame.flip_bit(bit);
                self.frames.insert(addr, frame);
            }
            FaultKind::Lpd => {
                let mask = self.stuck.entry(addr).or_default();
                mask.flip_bit(bit);
            }
        }
        FaultRecord { addr, bit, kind }
    }

    /// Removes permanent damage from a frame (used by tests to model device
    /// replacement; real LPDs never heal).
    pub fn clear_permanent_damage(&mut self, addr: FrameAddress) {
        self.stuck.remove(&addr);
    }

    /// Number of frame writes performed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

/// Test-only inspection of frames and damage.
#[cfg(test)]
impl Frame {
    /// Returns the value of a single bit.
    pub(crate) fn bit(&self, bit: usize) -> bool {
        assert!(bit < FRAME_BYTES * 8, "bit index out of range");
        (self.data[bit / 8] >> (bit % 8)) & 1 == 1
    }
}

#[cfg(test)]
impl ConfigMemory {
    /// `true` if the frame currently has at least one permanently stuck bit.
    pub(crate) fn has_permanent_damage(&self, addr: FrameAddress) -> bool {
        self.stuck
            .get(&addr)
            .map(|m| m.popcount() > 0)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(r: u16, c: u16, m: u16) -> FrameAddress {
        FrameAddress::new(r, c, m)
    }

    #[test]
    fn frame_bit_manipulation() {
        let mut f = Frame::zeroed();
        assert_eq!(f.popcount(), 0);
        f.flip_bit(0);
        f.flip_bit(9);
        f.flip_bit(FRAME_BYTES * 8 - 1);
        assert_eq!(f.popcount(), 3);
        assert!(f.bit(0) && f.bit(9));
        f.flip_bit(9);
        assert!(!f.bit(9));
        assert_eq!(f.popcount(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frame_bit_out_of_range_panics() {
        let mut f = Frame::zeroed();
        f.flip_bit(FRAME_BYTES * 8);
    }

    #[test]
    fn frame_from_bytes_pads_and_truncates() {
        let f = Frame::from_bytes(&[0xFF; 4]);
        assert_eq!(f.as_bytes().len(), FRAME_BYTES);
        assert_eq!(f.popcount(), 32);
        let g = Frame::from_bytes(&[0xFF; FRAME_BYTES + 10]);
        assert_eq!(g.as_bytes().len(), FRAME_BYTES);
    }

    #[test]
    fn frame_xor_locates_differences() {
        let mut a = Frame::zeroed();
        let mut b = Frame::zeroed();
        a.flip_bit(3);
        b.flip_bit(3);
        b.flip_bit(100);
        let d = a.xor(&b);
        assert_eq!(d.popcount(), 1);
        assert!(d.bit(100));
    }

    #[test]
    fn unwritten_frames_read_zero() {
        let mem = ConfigMemory::new();
        assert_eq!(mem.observed(addr(0, 0, 0)), Frame::zeroed());
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut mem = ConfigMemory::new();
        let f = Frame::from_bytes(&[1, 2, 3, 4]);
        mem.write_frame(addr(1, 2, 3), f.clone());
        assert_eq!(mem.observed(addr(1, 2, 3)), f);
        assert_eq!(mem.write_count(), 1);
    }

    #[test]
    fn seu_is_repaired_by_rewriting() {
        let mut mem = ConfigMemory::new();
        let golden = Frame::from_bytes(&[0xAA; 8]);
        let a = addr(0, 1, 0);
        mem.write_frame(a, golden.clone());
        mem.inject_fault(a, 5, FaultKind::Seu);
        assert_ne!(mem.observed(a), golden);
        // Scrub: rewrite the golden frame.
        mem.write_frame(a, golden.clone());
        assert_eq!(mem.observed(a), golden);
    }

    #[test]
    fn lpd_survives_rewriting() {
        let mut mem = ConfigMemory::new();
        let golden = Frame::from_bytes(&[0x55; 8]);
        let a = addr(2, 3, 1);
        mem.write_frame(a, golden.clone());
        mem.inject_fault(a, 17, FaultKind::Lpd);
        assert_ne!(mem.observed(a), golden);
        assert!(mem.has_permanent_damage(a));
        // Rewriting does NOT clear the damage.
        mem.write_frame(a, golden.clone());
        assert_ne!(mem.observed(a), golden);
        // Only explicit clearing (device replacement) does.
        mem.clear_permanent_damage(a);
        assert_eq!(mem.observed(a), golden);
    }

    #[test]
    fn double_lpd_on_same_bit_cancels() {
        // Flipping the stuck mask twice restores the original behaviour; the
        // fault injector never does this in practice but the model should be
        // consistent.
        let mut mem = ConfigMemory::new();
        let a = addr(1, 1, 1);
        mem.inject_fault(a, 7, FaultKind::Lpd);
        mem.inject_fault(a, 7, FaultKind::Lpd);
        assert!(!mem.has_permanent_damage(a));
    }

    #[test]
    fn relocation_changes_region_and_major_only() {
        let a = addr(1, 5, 3);
        let r = a.relocated(4, 9);
        assert_eq!(r, addr(4, 9, 3));
        assert_eq!(format!("{r}"), "R4/C9/F3");
    }

    #[test]
    fn fault_record_reports_injection() {
        let mut mem = ConfigMemory::new();
        let rec = mem.inject_fault(addr(0, 0, 0), 12, FaultKind::Seu);
        assert_eq!(rec.bit, 12);
        assert_eq!(rec.kind, FaultKind::Seu);
    }
}
