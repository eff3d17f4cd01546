//! Fault models: Single Event Upsets and Local Permanent Damage.
//!
//! §II of the paper distinguishes two fault classes for SRAM FPGAs operating
//! in harsh environments:
//!
//! * **SEU** (Single Event Upset) — a transient bit-flip in a configuration
//!   cell, repaired by rewriting the affected frame (scrubbing),
//! * **LPD** (Local Permanent Damage) — permanent damage from aging or
//!   high-energy particles; rewriting does not help, the logic occupying the
//!   damaged cells must be abandoned or worked around.
//!
//! The experiments in §VI.D additionally use the paper's own **PE-level fault
//! model**: a fault anywhere inside a PE makes its output misbehave, which is
//! emulated by reconfiguring the PE slot with a "dummy PE" that outputs random
//! values.  That PE-level model lives in `ehw-array`; this module provides the
//! configuration-memory-level counterpart: the two fault classes and the
//! record of one injected fault, which
//! [`ConfigMemory::inject_fault`](crate::frame::ConfigMemory::inject_fault)
//! returns.

use crate::frame::FrameAddress;
use serde::{Deserialize, Serialize};

/// The two configuration-memory fault classes from §II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Single Event Upset: transient bit-flip, repaired by scrubbing.
    Seu,
    /// Local Permanent Damage: stuck bit that survives reconfiguration.
    Lpd,
}

impl FaultKind {
    /// `true` if scrubbing (rewriting the golden frame) repairs this fault.
    pub fn is_recoverable_by_scrubbing(self) -> bool {
        matches!(self, FaultKind::Seu)
    }
}

/// Record of a single injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Frame that was corrupted.
    pub addr: FrameAddress,
    /// Bit index within the frame.
    pub bit: usize,
    /// Fault class.
    pub kind: FaultKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seu_is_scrub_recoverable_lpd_is_not() {
        assert!(FaultKind::Seu.is_recoverable_by_scrubbing());
        assert!(!FaultKind::Lpd.is_recoverable_by_scrubbing());
    }
}
