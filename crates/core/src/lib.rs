//! The multi-array evolvable hardware platform — the paper's contribution.
//!
//! This crate assembles the substrates (`ehw-fabric`, `ehw-reconfig`,
//! `ehw-array`, `ehw-evolution`, `ehw-image`) into the scalable architecture
//! of the paper: a variable number of **Array Control Blocks (ACBs)**, each
//! containing one evolvable 4×4 processing array, data-alignment FIFOs, a
//! latency tracker and a hardware fitness unit, stacked vertically and
//! addressed by the static control logic (§III.B, Figs. 2–3).
//!
//! The platform supports:
//!
//! * **processing modes** (§IV.A): independent, parallel (TMR), cascaded
//!   (collaborative or independent) and bypass,
//! * **evolution modes** (§IV.B): independent, parallel (offspring distributed
//!   over the arrays), cascaded with separate or merged fitness — each in
//!   sequential or interleaved variants — and **evolution by imitation**,
//! * **self-healing strategies** (§V): scrubbing-based fault classification
//!   combined with bypass + imitation recovery for cascaded operation, and a
//!   TMR strategy with fitness and pixel voters for parallel operation,
//! * the **fault-injection campaign** of §VI.D (PE-level dummy-PE faults
//!   injected through the reconfiguration engine), generalised by
//!   [`scenario`] into declarative fault scenarios — sweeps, multi-PE,
//!   correlated damage, SEU bursts, radiation storms — compiled into
//!   deterministic injection schedules and recovered under configurable
//!   [`RecoveryPolicy`] escalation ladders,
//! * the **generation-pipeline timing model** of Figs. 11–14 and the
//!   **resource-utilisation model** of §VI.A,
//! * the **job path** ([`jobs`]): every workload as a typed, validated
//!   [`JobSpec`] executed through one uniform entry point — the layer the
//!   `ehw-service` front-end multiplexes over a sharded platform pool.  The
//!   legacy `evo_modes`/`fault_campaign` free functions are thin shims over
//!   it.
//!
//! The top-level type is [`platform::EhwPlatform`]; see the examples for
//! ready-to-run scenarios (quick start, cascaded denoising, TMR self-healing,
//! edge-detector evolution, imitation recovery).

#![warn(missing_docs)]

pub mod acb;
pub mod cache;
pub mod evo_modes;
pub mod fault_campaign;
pub mod jobs;
pub mod modes;
pub mod platform;
pub mod registers;
pub mod resources;
pub mod scenario;
pub mod self_healing;
pub mod timing;
pub mod voter;

pub use acb::ArrayControlBlock;
pub use cache::{CacheStats, CrossJobCache};
pub use jobs::{JobOutput, JobResult, JobSpec, SpecError, StreamSourceSpec, StreamSpec};
pub use modes::{EvolutionMode, ProcessingMode};
pub use platform::EhwPlatform;
pub use scenario::{
    FaultScenario, InjectionEvent, InjectionSchedule, PlannedFault, ResilienceEntry,
    ResilienceReport, ScenarioKind, ScenarioRegistry, TargetFilter,
};
pub use self_healing::{PolicyError, RecoveryPolicy, RecoveryStep};
pub use timing::{EvolutionTimeEstimate, PipelineTimer};
