//! Image quality metrics.
//!
//! The hardware fitness unit of the paper computes the **pixel-aggregated Mean
//! Absolute Error** between two image streams (reference vs. output, input vs.
//! output, or the outputs of two adjacent arrays).  The aggregated — i.e. not
//! normalised — sum is what the paper reports as "fitness" (e.g. MAE ≈ 8000 for
//! a 128×128 image in Fig. 18), so [`mae`] returns the raw sum of absolute
//! differences.

use crate::image::GrayImage;

/// Pixel-aggregated Mean Absolute Error: `Σ |a(x,y) − b(x,y)|`.
///
/// This is exactly the quantity computed by the hardware fitness unit and the
/// value reported as "fitness" throughout the paper (lower is better).
///
/// # Panics
/// Panics if the images have different dimensions.
pub fn mae(a: &GrayImage, b: &GrayImage) -> u64 {
    assert_eq!(a.width(), b.width(), "width mismatch");
    assert_eq!(a.height(), b.height(), "height mismatch");
    sad(a.as_slice(), b.as_slice())
}

/// Bytes per `u16` run of [`sad`]: 256 × 255 = 65,280 ≤ `u16::MAX`.
const SAD_RUN: usize = 256;

/// Sum of absolute differences `Σ |a[i] − b[i]|` of two byte slices — the
/// fitness unit's accumulator, shared by [`mae`] and the plan fitness paths.
///
/// Each run of at most 256 bytes is summed in `u16`, which cannot overflow
/// (256 × 255 = 65,280), so the compiler keeps 8–16 lanes per SIMD register
/// instead of the 2 a `u64` accumulator allows.  Each run's subtotal feeds a
/// running `u64`, so the result equals the plain `u64` sum.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sad(a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.chunks(SAD_RUN)
        .zip(b.chunks(SAD_RUN))
        .map(|(x, y)| {
            x.iter()
                .zip(y)
                .map(|(&p, &q)| u16::from(p.abs_diff(q)))
                .sum::<u16>() as u64
        })
        .sum()
}

/// Mean Squared Error between two images.
///
/// # Panics
/// Panics if the images have different dimensions.
pub(crate) fn mse(a: &GrayImage, b: &GrayImage) -> f64 {
    assert_eq!(a.width(), b.width(), "width mismatch");
    assert_eq!(a.height(), b.height(), "height mismatch");
    let sum: u64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(&x, &y)| {
            let d = x as i64 - y as i64;
            (d * d) as u64
        })
        .sum();
    sum as f64 / a.len() as f64
}

/// Peak Signal-to-Noise Ratio in dB.  Returns `f64::INFINITY` for identical
/// images.
pub fn psnr(a: &GrayImage, b: &GrayImage) -> f64 {
    let m = mse(a, b);
    if m == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0_f64 * 255.0 / m).log10()
    }
}

/// Maximum absolute per-pixel difference between two images.
///
/// # Panics
/// Panics if the images have different dimensions.
pub fn max_abs_error(a: &GrayImage, b: &GrayImage) -> u8 {
    assert_eq!(a.width(), b.width(), "width mismatch");
    assert_eq!(a.height(), b.height(), "height mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(&x, &y)| (x as i16 - y as i16).unsigned_abs() as u8)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_identical_images_is_zero() {
        let a = GrayImage::new(8, 8, 42);
        assert_eq!(mae(&a, &a), 0);
    }

    #[test]
    fn mae_is_symmetric() {
        let a = GrayImage::from_fn(8, 8, |x, y| (x * y) as u8);
        let b = GrayImage::from_fn(8, 8, |x, y| (x + y) as u8);
        assert_eq!(mae(&a, &b), mae(&b, &a));
    }

    #[test]
    fn mae_counts_aggregated_sum() {
        let a = GrayImage::new(4, 4, 10);
        let b = GrayImage::new(4, 4, 13);
        assert_eq!(mae(&a, &b), 16 * 3);
    }

    #[test]
    fn mae_satisfies_triangle_inequality() {
        let a = GrayImage::from_fn(8, 8, |x, _| (x * 20) as u8);
        let b = GrayImage::from_fn(8, 8, |_, y| (y * 20) as u8);
        let c = GrayImage::new(8, 8, 100);
        assert!(mae(&a, &c) <= mae(&a, &b) + mae(&b, &c));
    }

    #[test]
    fn sad_of_extreme_slices_matches_a_u64_reference() {
        // All-0 against all-255 is the worst case for the `u16` runs: a run
        // longer than 257 bytes would overflow and this would fail.
        for len in [0usize, 1, 255, 256, 257, 65_537] {
            let zeros = vec![0u8; len];
            let full = vec![255u8; len];
            let reference: u64 = zeros
                .iter()
                .zip(&full)
                .map(|(&x, &y)| u64::from(x.abs_diff(y)))
                .sum();
            assert_eq!(sad(&zeros, &full), reference, "len {len}");
            assert_eq!(sad(&full, &zeros), reference, "len {len}");
            assert_eq!(reference, 255 * len as u64);
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mae_dimension_mismatch_panics() {
        let a = GrayImage::new(4, 4, 0);
        let b = GrayImage::new(4, 5, 0);
        let _ = mae(&a, &b);
    }

    #[test]
    fn mse_and_psnr_extremes() {
        let a = GrayImage::new(4, 4, 0);
        let b = GrayImage::new(4, 4, 255);
        assert!((mse(&a, &b) - 255.0 * 255.0).abs() < 1e-9);
        assert!((psnr(&a, &b) - 0.0).abs() < 1e-9);
        assert!(psnr(&a, &a).is_infinite());
    }

    #[test]
    fn max_abs_error_finds_worst_pixel() {
        let a = GrayImage::new(4, 4, 100);
        let mut b = a.clone();
        b.set_pixel(2, 2, 30);
        b.set_pixel(1, 1, 90);
        assert_eq!(max_abs_error(&a, &b), 70);
        assert_eq!(max_abs_error(&a, &a), 0);
    }
}
