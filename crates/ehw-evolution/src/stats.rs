//! Aggregation helpers for multi-run experiments.
//!
//! The paper reports *average* results over **50 independent runs** (e.g.
//! "average evolution time of 50 runs of 100,000 generations each", Figs.
//! 12–15) as well as best-of-run values (Fig. 17).  [`Summary`] captures the
//! statistics the experiment binaries print for each sweep point.

use serde::{Deserialize, Serialize};

/// Basic descriptive statistics of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises a slice of samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarise an empty sample set");
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min,
            max,
        }
    }

    /// Summarises integer samples (fitness values, reconfiguration counts).
    pub fn of_u64(samples: &[u64]) -> Self {
        let as_f64: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Self::of(&as_f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_samples() {
        let s = Summary::of(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_of_u64_matches_f64() {
        let a = Summary::of_u64(&[1, 2, 3, 4]);
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }
}
