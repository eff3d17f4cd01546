//! Dynamic Partial Reconfiguration engine model.
//!
//! The paper's reconfiguration engine (their ref. \[14\]) is a hardware
//! peripheral attached to the ICAP that can:
//!
//! * write presynthesized partial bitstreams (PBS) from external memory into
//!   any reconfigurable region,
//! * read configuration frames back, **relocate** them and write them
//!   somewhere else (used both to move PE modules around and to copy a
//!   working PE configuration),
//! * sustain a measured reconfiguration cost of **67.53 µs per PE** with the
//!   ICAP at its nominal 100 MHz.
//!
//! Because there is exactly one ICAP (and one engine) in the system, all
//! reconfigurations are serialized — the property that limits the speed-up of
//! the parallel evolution mode (Figs. 11–13).  The engine model reproduces
//! that serialization and the per-PE timing, and keeps golden copies of every
//! write so that scrubbing can be performed.
//!
//! Modules:
//!
//! * [`library`] — the library of 16 presynthesized PE bitstreams stored in
//!   (modelled) external DDR memory,
//! * [`engine`] — the reconfiguration engine proper: write / readback /
//!   relocate / writeback plus golden-copy maintenance and scrubbing,
//! * [`timing`] — the reconfiguration and evaluation timing constants used by
//!   the evolution-time model.

#![warn(missing_docs)]

pub mod engine;
pub mod library;
pub mod timing;

pub use engine::{ReconfigEngine, ReconfigStats};
pub use library::PbsLibrary;
pub use timing::{TimingModel, ICAP_CLOCK_HZ, PE_RECONFIG_TIME_US};
