//! Order statistics for the reports.

/// The `p`-th percentile (0–100) of `samples`, interpolating linearly
/// between the two nearest ranks; NaN when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `samples`; NaN when there are none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The arithmetic mean of `samples`; NaN when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The quartiles as Python's `statistics.quantiles(samples, n=4)` computes
/// them (its default "exclusive" method), so the steadiness report reads
/// the same as a check made with that function.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len() as i64;
    if len < 2 {
        return [data.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = len + 1;
    std::array::from_fn(|k| {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}
