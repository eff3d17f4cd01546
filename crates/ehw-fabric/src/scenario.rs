//! Declarative fault-scenario primitives.
//!
//! The fault layer historically knew exactly one campaign shape: a
//! systematic single-PE sweep with the dummy-PE behaviour.  This module
//! makes the *shape* of an injection campaign data — a [`ScenarioKind`]
//! names the spatial/temporal structure of the faults (how many at once,
//! how they correlate, whether they recur over time) without binding to any
//! particular array geometry or fault behaviour.  Higher layers compile a
//! kind into a concrete injection schedule against their own floorplan.
//!
//! Everything here is pure data with structural validation; nothing touches
//! the configuration memory.  [`FaultKind`](crate::fault::FaultKind) remains
//! the per-fault transient/permanent classification — a scenario says *where
//! and when*, the kind says *what scrubbing can do about it*.

use serde::{Deserialize, Serialize};

/// Spatial correlation pattern of a [`ScenarioKind::Correlated`] scenario —
/// which PEs fail together in one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorrelationShape {
    /// Every PE of one row fails together (a horizontal routing/clock spine).
    Row,
    /// Every PE of one column fails together (a vertical carry chain).
    Col,
    /// A PE and its 8-neighbourhood fail together (a local radiation strike
    /// spanning adjacent configuration frames).
    Neighborhood,
}

/// One phase of a [`ScenarioKind::Storm`]: `ticks` time steps during which
/// each targeted PE fails independently with probability `rate` per tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StormPhase {
    /// Number of time steps this phase lasts (must be at least 1).
    pub ticks: usize,
    /// Per-PE, per-tick fault probability in `(0, 1]`.
    pub rate: f64,
}

/// The spatial/temporal structure of a fault-injection scenario.
///
/// A kind is geometry-agnostic: it is compiled into a concrete schedule of
/// `(tick, faults)` events by the layer that owns the PE floorplan, with all
/// randomness drawn from seed streams forked off the job seed so any worker
/// count replays the schedule byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// The classic systematic sweep: one permanent dummy-PE fault per event,
    /// visiting every targeted position exactly once.
    SingleSweep,
    /// `k` simultaneous permanent faults per event, positions drawn without
    /// replacement from the target set.
    MultiPe {
        /// Simultaneous faults per event (validated against the array size
        /// by the compiling layer).
        k: usize,
    },
    /// Spatially correlated permanent faults: one event per row / column /
    /// neighbourhood of the target set.
    Correlated {
        /// Which PEs fail together.
        shape: CorrelationShape,
    },
    /// A burst of transient (SEU) upsets: `width` consecutive ticks, each
    /// targeted PE failing independently with probability `rate` per tick.
    Burst {
        /// Per-PE, per-tick upset probability in `(0, 1]`.
        rate: f64,
        /// Number of consecutive ticks the burst lasts (at least 1).
        width: usize,
    },
    /// A single localised permanent damage (LPD) event per array: one
    /// stuck-at fault at a randomly drawn position that no scrub removes.
    PermanentLpd,
    /// One probabilistic SEU event per rate, sweeping the rate axis — the
    /// dose-response curve of the recovery policy.
    RateSweep {
        /// The upset probabilities to sweep, each in `(0, 1]`.
        rates: Vec<f64>,
    },
    /// A radiation storm: a timeline of [`StormPhase`]s with varying upset
    /// rates (quiet → peak → decay), all transient.
    Storm {
        /// The phases, in order.
        schedule: Vec<StormPhase>,
    },
}

impl ScenarioKind {
    /// Short tag used on the wire and in reports.
    pub fn tag(&self) -> &'static str {
        match self {
            ScenarioKind::SingleSweep => "single_sweep",
            ScenarioKind::MultiPe { .. } => "multi_pe",
            ScenarioKind::Correlated { .. } => "correlated",
            ScenarioKind::Burst { .. } => "burst",
            ScenarioKind::PermanentLpd => "permanent_lpd",
            ScenarioKind::RateSweep { .. } => "rate_sweep",
            ScenarioKind::Storm { .. } => "storm",
        }
    }

    /// Structural validation: parameter ranges that hold regardless of the
    /// array geometry the scenario is later compiled against (the compiling
    /// layer additionally checks `k` against its PE count).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        fn check_rate(rate: f64) -> Result<(), ScenarioError> {
            if !(rate > 0.0 && rate <= 1.0) {
                return Err(ScenarioError::RateOutOfRange { rate });
            }
            Ok(())
        }
        match self {
            ScenarioKind::SingleSweep
            | ScenarioKind::Correlated { .. }
            | ScenarioKind::PermanentLpd => Ok(()),
            ScenarioKind::MultiPe { k } => {
                if *k == 0 {
                    return Err(ScenarioError::ZeroMultiPe);
                }
                Ok(())
            }
            ScenarioKind::Burst { rate, width } => {
                check_rate(*rate)?;
                if *width == 0 {
                    return Err(ScenarioError::ZeroBurstWidth);
                }
                Ok(())
            }
            ScenarioKind::RateSweep { rates } => {
                if rates.is_empty() {
                    return Err(ScenarioError::EmptyRateSweep);
                }
                rates.iter().try_for_each(|&rate| check_rate(rate))
            }
            ScenarioKind::Storm { schedule } => {
                if schedule.is_empty() {
                    return Err(ScenarioError::EmptyStormSchedule);
                }
                for phase in schedule {
                    if phase.ticks == 0 {
                        return Err(ScenarioError::ZeroStormTicks);
                    }
                    check_rate(phase.rate)?;
                }
                Ok(())
            }
        }
    }
}

/// Why a scenario's parameters are structurally invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// `MultiPe` with `k == 0` injects nothing.
    ZeroMultiPe,
    /// `MultiPe` asks for more simultaneous faults than the array has PEs.
    MultiPeTooLarge {
        /// The requested simultaneous fault count.
        k: usize,
        /// PEs per array in the compiling layer's floorplan.
        max: usize,
    },
    /// A probability is outside `(0, 1]`.
    RateOutOfRange {
        /// The offending rate.
        rate: f64,
    },
    /// A burst of zero ticks injects nothing.
    ZeroBurstWidth,
    /// A rate sweep needs at least one rate.
    EmptyRateSweep,
    /// A storm needs at least one phase.
    EmptyStormSchedule,
    /// A storm phase of zero ticks injects nothing.
    ZeroStormTicks,
    /// The scenario's target filter admits no PE position at all.
    EmptyTarget,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::ZeroMultiPe => {
                write!(f, "multi_pe needs at least 1 simultaneous fault")
            }
            ScenarioError::MultiPeTooLarge { k, max } => write!(
                f,
                "multi_pe asks for {k} simultaneous faults but an array has only {max} PEs"
            ),
            ScenarioError::RateOutOfRange { rate } => {
                write!(f, "fault rate {rate} is outside (0, 1]")
            }
            ScenarioError::ZeroBurstWidth => write!(f, "burst width must be at least 1 tick"),
            ScenarioError::EmptyRateSweep => write!(f, "rate_sweep needs at least one rate"),
            ScenarioError::EmptyStormSchedule => write!(f, "storm needs at least one phase"),
            ScenarioError::ZeroStormTicks => {
                write!(f, "storm phases must last at least 1 tick")
            }
            ScenarioError::EmptyTarget => {
                write!(f, "the target filter admits no PE position")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structurally_valid_kinds_pass() {
        for kind in [
            ScenarioKind::SingleSweep,
            ScenarioKind::MultiPe { k: 3 },
            ScenarioKind::Correlated {
                shape: CorrelationShape::Row,
            },
            ScenarioKind::Burst {
                rate: 0.25,
                width: 4,
            },
            ScenarioKind::PermanentLpd,
            ScenarioKind::RateSweep {
                rates: vec![0.1, 0.5, 1.0],
            },
            ScenarioKind::Storm {
                schedule: vec![
                    StormPhase {
                        ticks: 2,
                        rate: 0.1,
                    },
                    StormPhase {
                        ticks: 1,
                        rate: 0.9,
                    },
                ],
            },
        ] {
            assert!(kind.validate().is_ok(), "{kind:?}");
        }
    }

    #[test]
    fn malformed_parameters_are_rejected_individually() {
        assert_eq!(
            ScenarioKind::MultiPe { k: 0 }.validate(),
            Err(ScenarioError::ZeroMultiPe)
        );
        assert_eq!(
            ScenarioKind::Burst {
                rate: 0.0,
                width: 1
            }
            .validate(),
            Err(ScenarioError::RateOutOfRange { rate: 0.0 })
        );
        assert_eq!(
            ScenarioKind::Burst {
                rate: 1.5,
                width: 1
            }
            .validate(),
            Err(ScenarioError::RateOutOfRange { rate: 1.5 })
        );
        assert_eq!(
            ScenarioKind::Burst {
                rate: 0.5,
                width: 0
            }
            .validate(),
            Err(ScenarioError::ZeroBurstWidth)
        );
        assert_eq!(
            ScenarioKind::RateSweep { rates: vec![] }.validate(),
            Err(ScenarioError::EmptyRateSweep)
        );
        assert_eq!(
            ScenarioKind::Storm { schedule: vec![] }.validate(),
            Err(ScenarioError::EmptyStormSchedule)
        );
        assert_eq!(
            ScenarioKind::Storm {
                schedule: vec![StormPhase {
                    ticks: 0,
                    rate: 0.5
                }]
            }
            .validate(),
            Err(ScenarioError::ZeroStormTicks)
        );
    }

    #[test]
    fn tags_are_stable_wire_identifiers() {
        assert_eq!(ScenarioKind::SingleSweep.tag(), "single_sweep");
        assert_eq!(ScenarioKind::MultiPe { k: 2 }.tag(), "multi_pe");
    }

    #[test]
    fn errors_render_actionable_messages() {
        let msg = ScenarioError::MultiPeTooLarge { k: 20, max: 16 }.to_string();
        assert!(msg.contains("20") && msg.contains("16"), "{msg}");
        let msg = ScenarioError::RateOutOfRange { rate: 2.0 }.to_string();
        assert!(msg.contains('2'), "{msg}");
    }
}
