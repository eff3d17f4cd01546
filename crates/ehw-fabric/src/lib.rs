//! FPGA fabric simulator for the multi-array evolvable hardware platform.
//!
//! The paper implements its system on a Xilinx Virtex-5 LX110T and relies on
//! three FPGA-native mechanisms:
//!
//! * a **configuration memory** organised in frames, written through the ICAP
//!   to perform Dynamic Partial Reconfiguration (DPR),
//! * **SEU / LPD fault behaviour** of SRAM configuration cells (transient
//!   bit-flips and local permanent damage),
//! * **scrubbing** — reading the configuration memory back, comparing against
//!   a golden copy and rewriting corrupted frames.
//!
//! None of that hardware is available to a pure-Rust reproduction, so this
//! crate provides a frame-accurate software model that exposes the same
//! operations to the rest of the workspace:
//!
//! * [`device`] — device geometry (clock regions, CLB columns) modelled after
//!   the Virtex-5 LX110T and the floorplan of Fig. 10,
//! * [`frame`] — configuration frames and the configuration memory,
//! * [`bitstream`] — partial bitstreams (PBS) addressed to a frame range,
//! * [`region`] — reconfigurable regions (one per PE slot) and the floorplan,
//! * [`fault`] — the SEU and LPD fault classes of configuration cells,
//! * [`scenario`] — declarative fault-scenario kinds (sweeps, multi-PE,
//!   correlated, bursts, storms) compiled into injection schedules by the
//!   platform layer,
//! * [`scrub`] — golden-copy scrubbing,
//! * [`resources`] — slice / flip-flop / LUT accounting with the paper's
//!   published utilisation numbers.
//!
//! The higher-level crates (`ehw-reconfig`, `ehw-array`, `ehw-platform`) only
//! observe the fabric through these interfaces, so swapping the real FPGA for
//! this model preserves the behaviour that the paper's experiments measure.

#![warn(missing_docs)]

pub mod bitstream;
pub mod device;
pub mod fault;
pub mod frame;
pub mod region;
pub mod resources;
pub mod scenario;
pub mod scrub;

pub use bitstream::PartialBitstream;
pub use device::DeviceGeometry;
pub use fault::{FaultKind, FaultRecord};
pub use frame::{ConfigMemory, Frame, FrameAddress, FRAME_BYTES};
pub use region::{Floorplan, ReconfigurableRegion};
pub use resources::ResourceUsage;
pub use scenario::{CorrelationShape, ScenarioError, ScenarioKind, StormPhase};
