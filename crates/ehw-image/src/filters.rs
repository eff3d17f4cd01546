//! Conventional window-based reference filters.
//!
//! These serve two purposes in the reproduction:
//!
//! 1. **Baselines** — Fig. 18 compares the evolved cascade against the
//!    conventional median filter on 40 % salt & pepper noise.
//! 2. **Reference-image producers** — the paper obtains an edge-detection
//!    filter by evolving against a Sobel-filtered reference, a smoothing
//!    filter by evolving against a Gaussian-blurred reference, and so on.
//!
//! All filters operate on 3×3 windows with replicated borders, matching the
//! hardware window generator.  Each one is a [`ReferenceFilter`] variant run
//! through [`ReferenceFilter::apply`]; the three the experiments name directly
//! — [`median`], [`gaussian_blur`] and [`sobel_edge`] — also have free
//! functions.

use crate::image::GrayImage;
use crate::window::{Window3x3, WindowPlanes};
use serde::{Deserialize, Serialize};

/// Identifies one of the built-in reference filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReferenceFilter {
    /// 3×3 median filter — the conventional salt & pepper remover.
    Median,
    /// 3×3 box (mean) filter.
    Mean,
    /// 3×3 Gaussian smoothing (kernel 1-2-1 / 2-4-2 / 1-2-1, divided by 16).
    Gaussian,
    /// Sobel gradient magnitude edge detector.
    SobelEdge,
    /// Laplacian edge detector (4-neighbour kernel, absolute value).
    Laplacian,
    /// Morphological erosion (window minimum).
    Erode,
    /// Morphological dilation (window maximum).
    Dilate,
    /// Unsharp masking: centre + (centre − gaussian), saturated.
    Sharpen,
    /// Identity (centre pixel pass-through); useful for calibration tests.
    Identity,
}

impl ReferenceFilter {
    /// All built-in filters, in a stable order.
    pub const ALL: [ReferenceFilter; 9] = [
        ReferenceFilter::Median,
        ReferenceFilter::Mean,
        ReferenceFilter::Gaussian,
        ReferenceFilter::SobelEdge,
        ReferenceFilter::Laplacian,
        ReferenceFilter::Erode,
        ReferenceFilter::Dilate,
        ReferenceFilter::Sharpen,
        ReferenceFilter::Identity,
    ];

    /// Applies the filter to a whole image.
    ///
    /// Routed through the [`WindowPlanes`] SoA layout: the windows are
    /// extracted once and each filter runs as plane-wise passes over nine
    /// contiguous buffers instead of a stride-9 gather per pixel.  Pinned
    /// byte-identical to the scalar per-window kernels of
    /// `ehw_bench::oracle` by `kernel_and_apply_agree_for_all_filters`.
    pub fn apply(&self, img: &GrayImage) -> GrayImage {
        if matches!(self, ReferenceFilter::Identity) {
            // The centre plane is the image itself; skip extraction.
            return img.clone();
        }
        self.apply_planes(&WindowPlanes::new(img))
    }

    /// Applies the filter to pre-extracted window planes — the path for
    /// callers that already hold a [`WindowPlanes`] (shared across filters
    /// or with an evaluation pass over the same image).
    pub fn apply_planes(&self, planes: &WindowPlanes) -> GrayImage {
        let data = match self {
            ReferenceFilter::Median => median_planes(planes),
            ReferenceFilter::Mean => mean_planes(planes),
            ReferenceFilter::Gaussian => gaussian_planes(planes),
            ReferenceFilter::SobelEdge => sobel_planes(planes),
            ReferenceFilter::Laplacian => laplacian_planes(planes),
            ReferenceFilter::Erode => minmax_planes(planes, u8::min),
            ReferenceFilter::Dilate => minmax_planes(planes, u8::max),
            ReferenceFilter::Sharpen => sharpen_planes(planes),
            ReferenceFilter::Identity => planes.plane(Window3x3::CENTER).to_vec(),
        };
        GrayImage::from_vec(planes.width(), planes.height(), data)
    }
}

/// 3×3 median filter.
pub fn median(img: &GrayImage) -> GrayImage {
    ReferenceFilter::Median.apply(img)
}

/// 3×3 Gaussian smoothing filter.
pub fn gaussian_blur(img: &GrayImage) -> GrayImage {
    ReferenceFilter::Gaussian.apply(img)
}

/// Sobel gradient-magnitude edge detector (|Gx| + |Gy|, saturated at 255).
pub fn sobel_edge(img: &GrayImage) -> GrayImage {
    ReferenceFilter::SobelEdge.apply(img)
}

// ---------------------------------------------------------------------------
// Plane-wise implementations
// ---------------------------------------------------------------------------
//
// Each filter below consumes the SoA [`WindowPlanes`] layout: nine contiguous
// per-selector buffers, read linearly, instead of gathering a 9-byte window
// per pixel.  Arithmetic is written to reproduce the scalar per-window
// kernels of `ehw_bench::oracle` bit for bit (same widths, same rounding,
// same saturation); the engine-equivalence suite pins that.

/// Sorts `v[a] <= v[b]` (one compare-exchange of a sorting network).
#[inline(always)]
fn cmp_swap(v: &mut [u8; 9], a: usize, b: usize) {
    if v[a] > v[b] {
        v.swap(a, b);
    }
}

fn median_planes(planes: &WindowPlanes) -> Vec<u8> {
    let p: [&[u8]; 9] = std::array::from_fn(|sel| planes.plane(sel));
    (0..planes.len())
        .map(|i| {
            let mut v: [u8; 9] = std::array::from_fn(|sel| p[sel][i]);
            // Devillard's 19-comparator median-of-9 network: cheaper than a
            // full sort, and the median is method-independent, so the result
            // matches `ehw_bench::oracle::median` exactly.
            cmp_swap(&mut v, 1, 2);
            cmp_swap(&mut v, 4, 5);
            cmp_swap(&mut v, 7, 8);
            cmp_swap(&mut v, 0, 1);
            cmp_swap(&mut v, 3, 4);
            cmp_swap(&mut v, 6, 7);
            cmp_swap(&mut v, 1, 2);
            cmp_swap(&mut v, 4, 5);
            cmp_swap(&mut v, 7, 8);
            cmp_swap(&mut v, 0, 3);
            cmp_swap(&mut v, 5, 8);
            cmp_swap(&mut v, 4, 7);
            cmp_swap(&mut v, 3, 6);
            cmp_swap(&mut v, 1, 4);
            cmp_swap(&mut v, 2, 5);
            cmp_swap(&mut v, 4, 7);
            cmp_swap(&mut v, 4, 2);
            cmp_swap(&mut v, 6, 4);
            cmp_swap(&mut v, 4, 2);
            v[4]
        })
        .collect()
}

fn mean_planes(planes: &WindowPlanes) -> Vec<u8> {
    // 9 * 255 = 2295 fits u16; truncating division matches `ehw_bench::oracle::mean`.
    let mut sum = vec![0u16; planes.len()];
    for sel in 0..9 {
        for (acc, &pixel) in sum.iter_mut().zip(planes.plane(sel)) {
            *acc += pixel as u16;
        }
    }
    sum.into_iter().map(|s| (s / 9) as u8).collect()
}

fn gaussian_planes(planes: &WindowPlanes) -> Vec<u8> {
    // Same 1-2-1 / 2-4-2 / 1-2-1 weights and (sum + 8) / 16 rounding as the
    // scalar kernel; 16 * 255 = 4080 fits u16.
    const K: [u16; 9] = [1, 2, 1, 2, 4, 2, 1, 2, 1];
    let mut sum = vec![0u16; planes.len()];
    for (sel, &k) in K.iter().enumerate() {
        for (acc, &pixel) in sum.iter_mut().zip(planes.plane(sel)) {
            *acc += pixel as u16 * k;
        }
    }
    sum.into_iter().map(|s| ((s + 8) / 16) as u8).collect()
}

fn sobel_planes(planes: &WindowPlanes) -> Vec<u8> {
    let p: [&[u8]; 9] = std::array::from_fn(|sel| planes.plane(sel));
    (0..planes.len())
        .map(|i| {
            let at = |sel: usize| p[sel][i] as i32;
            let gx = (at(2) + 2 * at(5) + at(8)) - (at(0) + 2 * at(3) + at(6));
            let gy = (at(6) + 2 * at(7) + at(8)) - (at(0) + 2 * at(1) + at(2));
            (gx.abs() + gy.abs()).min(255) as u8
        })
        .collect()
}

fn laplacian_planes(planes: &WindowPlanes) -> Vec<u8> {
    let p: [&[u8]; 9] = std::array::from_fn(|sel| planes.plane(sel));
    (0..planes.len())
        .map(|i| {
            let at = |sel: usize| p[sel][i] as i32;
            let lap = 4 * at(4) - at(1) - at(3) - at(5) - at(7);
            lap.unsigned_abs().min(255) as u8
        })
        .collect()
}

fn minmax_planes(planes: &WindowPlanes, fold: impl Fn(u8, u8) -> u8 + Copy) -> Vec<u8> {
    let mut out = planes.plane(0).to_vec();
    for sel in 1..9 {
        for (acc, &pixel) in out.iter_mut().zip(planes.plane(sel)) {
            *acc = fold(*acc, pixel);
        }
    }
    out
}

fn sharpen_planes(planes: &WindowPlanes) -> Vec<u8> {
    let blurred = gaussian_planes(planes);
    planes
        .plane(Window3x3::CENTER)
        .iter()
        .zip(blurred)
        .map(|(&center, g)| {
            let c = center as i32;
            (c + (c - g as i32)).clamp(0, 255) as u8
        })
        .collect()
}

/// Applies `filter` repeatedly `stages` times, as a software stand-in for a
/// cascade of identical stages (the "same filter" baseline in Figs. 16–17).
pub fn cascade(img: &GrayImage, filter: ReferenceFilter, stages: usize) -> GrayImage {
    let mut out = img.clone();
    for _ in 0..stages {
        out = filter.apply(&out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mae;
    use crate::noise::salt_pepper;
    use crate::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn median_removes_isolated_impulse() {
        let mut img = GrayImage::new(9, 9, 100);
        img.set_pixel(4, 4, 255);
        let out = median(&img);
        assert_eq!(out.pixel(4, 4), 100);
    }

    #[test]
    fn median_preserves_constant_image() {
        let img = GrayImage::new(8, 8, 77);
        assert_eq!(median(&img), img);
    }

    #[test]
    fn mean_of_constant_image_is_constant() {
        let img = GrayImage::new(8, 8, 200);
        assert_eq!(ReferenceFilter::Mean.apply(&img), img);
    }

    #[test]
    fn gaussian_preserves_constant_image() {
        let img = GrayImage::new(8, 8, 50);
        assert_eq!(gaussian_blur(&img), img);
    }

    #[test]
    fn sobel_is_zero_on_flat_image_and_high_on_edge() {
        let flat = GrayImage::new(8, 8, 90);
        assert!(sobel_edge(&flat).pixels().all(|p| p == 0));

        let edge = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0 } else { 255 });
        let out = sobel_edge(&edge);
        // Columns adjacent to the step must respond strongly.
        assert!(out.pixel(4, 4) > 200);
        assert_eq!(out.pixel(1, 4), 0);
    }

    #[test]
    fn laplacian_zero_on_flat() {
        let flat = GrayImage::new(8, 8, 123);
        assert!(ReferenceFilter::Laplacian
            .apply(&flat)
            .pixels()
            .all(|p| p == 0));
    }

    #[test]
    fn erode_dilate_order_relation() {
        let img = synth::checkerboard(16, 16, 4);
        let er = ReferenceFilter::Erode.apply(&img);
        let di = ReferenceFilter::Dilate.apply(&img);
        for ((e, o), d) in er.pixels().zip(img.pixels()).zip(di.pixels()) {
            assert!(e <= o && o <= d);
        }
    }

    #[test]
    fn sharpen_keeps_constant_image() {
        let img = GrayImage::new(8, 8, 128);
        assert_eq!(ReferenceFilter::Sharpen.apply(&img), img);
    }

    #[test]
    fn identity_filter_is_identity() {
        let img = synth::gradient(16, 16);
        assert_eq!(ReferenceFilter::Identity.apply(&img), img);
    }

    #[test]
    fn median_reduces_salt_pepper_mae() {
        let clean = synth::shapes(64, 64, 5);
        let mut rng = StdRng::seed_from_u64(11);
        let noisy = salt_pepper(&clean, 0.2, &mut rng);
        let filtered = median(&noisy);
        let before = mae(&noisy, &clean);
        let after = mae(&filtered, &clean);
        assert!(after < before / 2, "before={before}, after={after}");
    }

    #[test]
    fn cascade_of_identity_is_identity() {
        let img = synth::gradient(16, 16);
        assert_eq!(cascade(&img, ReferenceFilter::Identity, 5), img);
    }

    #[test]
    fn cascade_zero_stages_is_clone() {
        let img = synth::gradient(16, 16);
        assert_eq!(cascade(&img, ReferenceFilter::Median, 0), img);
    }
}
