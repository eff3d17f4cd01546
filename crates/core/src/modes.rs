//! Processing and evolution mode descriptors.
//!
//! §IV of the paper distinguishes *processing modes* — how the arrays are
//! connected at mission time — from *evolution modes* — how candidates are
//! distributed and scored during adaptation.  The enums here are the
//! configuration vocabulary consumed by [`crate::platform::EhwPlatform`] and
//! the evolution drivers in [`crate::evo_modes`].

use serde::{Deserialize, Serialize};

/// Mission-time arrangement of the processing arrays (§IV.A, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcessingMode {
    /// Every array receives its own input and works on its own task.
    Independent,
    /// All arrays receive the same input and filter it simultaneously; with
    /// three arrays this enables Triple Modular Redundancy.
    Parallel,
    /// The output of each array feeds the next one through a three-line FIFO
    /// that rebuilds the 3×3 window.
    Cascaded,
}

/// Adaptation-time strategy (§IV.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvolutionMode {
    /// Each array is evolved on its own, sequentially, with its own
    /// reference.
    Independent,
    /// The offspring of each generation are distributed over the arrays and
    /// evaluated simultaneously (limited by the single reconfiguration
    /// engine).
    Parallel,
    /// Cascaded evolution: each stage is evolved considering the rest of the
    /// chain.
    Cascaded {
        /// Whether each stage has its own fitness unit or all stages share a
        /// single (final-output) fitness.
        fitness: CascadeFitness,
        /// Whether stages are evolved one after another or interleaved one
        /// generation at a time.
        schedule: CascadeSchedule,
    },
    /// Evolution by imitation: a bypassed array learns to reproduce the
    /// output of a neighbouring array, with no reference image required.
    Imitation,
}

/// Fitness arrangement for cascaded evolution (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CascadeFitness {
    /// Each array is evolved considering its own fitness unit (all against
    /// the same reference).
    Separate,
    /// A single fitness unit at the end of the chain selects or rejects all
    /// candidates jointly.
    Merged,
}

/// Stage scheduling for cascaded evolution (§IV.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CascadeSchedule {
    /// Stage *i + 1* is adapted only once stage *i* has finished.
    Sequential,
    /// All stages advance one generation at a time, in turn.
    Interleaved,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_are_serializable() {
        // The experiment binaries serialise their configuration into result
        // headers; a smoke check that the derives stay in place.
        let mode = EvolutionMode::Cascaded {
            fitness: CascadeFitness::Merged,
            schedule: CascadeSchedule::Interleaved,
        };
        let processing = ProcessingMode::Parallel;
        let debug = format!("{mode:?}/{processing:?}");
        assert!(debug.contains("Merged") && debug.contains("Parallel"));
    }
}
