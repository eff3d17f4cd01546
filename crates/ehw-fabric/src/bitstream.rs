//! Partial bitstreams.
//!
//! A partial bitstream (PBS) is the unit of Dynamic Partial Reconfiguration:
//! a set of configuration frames plus the address of the region they belong
//! to.  In the paper the PBSs of the 16 PE variants are presynthesized, stored
//! in external DDR memory and written into the array by the reconfiguration
//! engine, which can also *relocate* a PBS — write it at a different region /
//! column than the one it was generated for.

use crate::frame::{Frame, FrameAddress};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// A partial bitstream: an ordered list of frames anchored at a base address.
///
/// Frame `i` of the bitstream targets `FrameAddress { region, major, minor:
/// base.minor + i }`.  Relocation rewrites `region`/`major` while keeping the
/// frame payload and minor offsets, which is exactly what the reconfiguration
/// engine's readback/relocation/writeback feature does.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartialBitstream {
    /// Human-readable name (e.g. the PE function this PBS implements).
    pub name: String,
    /// Base frame address the bitstream was generated for.
    pub base: FrameAddress,
    /// Frame payloads, in increasing minor order starting at `base.minor`.
    frames: Vec<Frame>,
}

impl PartialBitstream {
    /// Creates a bitstream from frames.
    ///
    /// # Panics
    /// Panics if `frames` is empty.
    pub fn new(name: impl Into<String>, base: FrameAddress, frames: Vec<Frame>) -> Self {
        assert!(
            !frames.is_empty(),
            "a partial bitstream needs at least one frame"
        );
        Self {
            name: name.into(),
            base,
            frames,
        }
    }

    /// Creates a bitstream whose frame payloads are derived deterministically
    /// from a seed — used to give each presynthesized PE variant a distinct,
    /// reproducible bit pattern.
    pub fn synthesize(
        name: impl Into<String>,
        base: FrameAddress,
        frames: usize,
        seed: u64,
    ) -> Self {
        assert!(frames > 0, "a partial bitstream needs at least one frame");
        let payload = (0..frames)
            .map(|i| {
                let mut bytes = Vec::with_capacity(crate::frame::FRAME_BYTES);
                let mut state = seed ^ ((i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                for _ in 0..crate::frame::FRAME_BYTES {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    bytes.push((state & 0xFF) as u8);
                }
                Frame::from_bytes(&bytes)
            })
            .collect();
        Self {
            name: name.into(),
            base,
            frames: payload,
        }
    }

    /// Size of the bitstream payload in bytes.
    pub(crate) fn byte_len(&self) -> usize {
        self.frames.len() * crate::frame::FRAME_BYTES
    }

    /// The frames together with the addresses they target.
    pub fn addressed_frames(&self) -> impl Iterator<Item = (FrameAddress, &Frame)> + '_ {
        self.frames.iter().enumerate().map(move |(i, f)| {
            (
                FrameAddress::new(
                    self.base.region,
                    self.base.major,
                    self.base.minor + i as u16,
                ),
                f,
            )
        })
    }

    /// Returns a copy of this bitstream relocated to a new base region/column.
    pub fn relocated_to(&self, region: u16, major: u16) -> PartialBitstream {
        PartialBitstream {
            name: self.name.clone(),
            base: self.base.relocated(region, major),
            frames: self.frames.clone(),
        }
    }

    /// Serializes the payload (without addresses) into a contiguous byte
    /// buffer, as it would be stored in the external DDR memory.
    pub fn payload_bytes(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.byte_len());
        for f in &self.frames {
            buf.extend_from_slice(f.as_bytes());
        }
        Bytes::from(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_BYTES;

    fn base() -> FrameAddress {
        FrameAddress::new(1, 2, 0)
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_bitstream_panics() {
        let _ = PartialBitstream::new("x", base(), vec![]);
    }

    #[test]
    fn synthesize_is_deterministic_and_seed_sensitive() {
        let a = PartialBitstream::synthesize("pe", base(), 3, 7);
        let b = PartialBitstream::synthesize("pe", base(), 3, 7);
        let c = PartialBitstream::synthesize("pe", base(), 3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.addressed_frames().count(), 3);
        assert_eq!(a.byte_len(), 3 * FRAME_BYTES);
    }

    #[test]
    fn addressed_frames_increment_minor() {
        let pbs = PartialBitstream::synthesize("pe", base(), 4, 1);
        let addrs: Vec<_> = pbs.addressed_frames().map(|(a, _)| a).collect();
        assert_eq!(addrs.len(), 4);
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(a.region, 1);
            assert_eq!(a.major, 2);
            assert_eq!(a.minor, i as u16);
        }
    }

    #[test]
    fn relocation_keeps_payload_changes_base() {
        let pbs = PartialBitstream::synthesize("pe", base(), 2, 5);
        let rel = pbs.relocated_to(6, 9);
        assert_eq!(rel.base, FrameAddress::new(6, 9, 0));
        assert_eq!(rel.payload_bytes(), pbs.payload_bytes());
        assert_eq!(rel.name, pbs.name);
    }

    #[test]
    fn distinct_pe_variants_have_distinct_payloads() {
        // The 16 presynthesized PE bitstreams must be distinguishable.
        let all: Vec<_> = (0..16)
            .map(|i| PartialBitstream::synthesize(format!("pe{i}"), base(), 2, i as u64))
            .collect();
        for i in 0..16 {
            for j in (i + 1)..16 {
                assert_ne!(all[i].payload_bytes(), all[j].payload_bytes());
            }
        }
    }
}
