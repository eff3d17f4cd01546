//! Evolutionary framework for the evolvable hardware platform.
//!
//! The paper evolves each processing array with a simple **(1+λ) Evolution
//! Strategy** inspired by Cartesian Genetic Programming: one parent, λ
//! offspring per generation (nine in the experiments of §VI.B), mutation of a
//! configurable number of genes (*mutation rate* k), and elitist selection of
//! the best candidate as the next parent.  Fitness is the pixel-aggregated
//! Mean Absolute Error computed by the hardware fitness unit — lower is
//! better.
//!
//! On top of the classic strategy the paper proposes a **new two-level
//! mutation EA** (§VI.B): the first group of offspring (one per array) mutates
//! the parent with the nominal rate k, while the remaining offspring mutate
//! those first candidates with the minimum rate (k = 1).  Consecutive
//! candidates configured into the same array therefore differ in fewer PE
//! genes, which cuts the dominant reconfiguration cost — and, per Fig. 15, it
//! also reaches equal or better fitness.
//!
//! Modules:
//!
//! * [`fitness`] — the [`fitness::FitnessEvaluator`] trait and the software
//!   evaluator backed by the functional array model, which scores each
//!   λ-batch over the host's worker threads and one or more arrays,
//! * [`strategy`] — the (1+λ) ES with classic and two-level mutation, with
//!   exact accounting of the PE reconfigurations each candidate requires,
//! * [`stats`] — aggregation helpers for multi-run experiments (mean / best /
//!   standard deviation across the 50-run averages the paper reports).

#![warn(missing_docs)]

pub mod fitness;
pub mod stats;
pub mod strategy;

pub use fitness::{EngineStats, FitnessEvaluator, SoftwareEvaluator};
pub use strategy::{
    run_evolution, run_evolution_with_parent, EsConfig, EvolutionResult, GenerationObserver,
    MutationStrategy, NullObserver,
};
