//! The single evolvable processing array.
//!
//! This crate models the reconfigurable core of the paper's ref. \[4\], which
//! the multi-array platform replicates: a 2-D mesh of fine-grain Processing
//! Elements (PEs) working in a systolic way, tailored for window-based image
//! processing.
//!
//! From §III.A of the paper:
//!
//! * every PE performs **one operation with one or two inputs** taken from its
//!   west (W) and/or north (N) neighbours, and propagates the registered
//!   result to both its south (S) and east (E) outputs (pipelined execution),
//! * the PE library was reduced to **16 different elements**, so the function
//!   of a PE is coded in a **4-bit gene**,
//! * a 4×4 array has **eight data inputs** (four on the north side, four on
//!   the west side), each preceded by a **9-to-1 multiplexer** that selects
//!   one of the nine pixels of the 3×3 sliding window,
//! * the array output is **one of the four east-side outputs**, selected by
//!   another multiplexer, also under control of the evolutionary algorithm.
//!
//! Modules:
//!
//! * [`pe`] — the 16-entry PE function library and the faulty-PE behaviours
//!   used for fault emulation (§VI.D),
//! * [`genotype`] — the CGP-style genotype (PE genes + input muxes + output
//!   mux) and its mutation/encoding operations,
//! * [`array`](mod@array) — the functional model of the systolic array: evaluate a
//!   window, filter whole images (serially or with row-parallel threads),
//! * [`compiled`] — the flat execution plan every evaluation path runs
//!   (genotype + fault overlay baked once per candidate),
//! * [`latency`] — the variable-latency model the Array Control Blocks use to
//!   align data streams,
//! * [`reconfig_map`] — translation of genotype changes into reconfiguration
//!   requests (only PE-function changes need DPR; mux genes are registers).

#![warn(missing_docs)]

pub mod array;
pub mod compiled;
pub mod genotype;
pub mod latency;
pub mod pe;
pub mod reconfig_map;

pub use array::ProcessingArray;
pub use compiled::CompiledArray;
pub use genotype::{Genotype, ARRAY_COLS, ARRAY_ROWS, INPUT_GENES, PE_GENES};
pub use pe::{FaultBehaviour, PeFunction};
