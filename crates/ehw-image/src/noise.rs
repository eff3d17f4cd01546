//! Noise models used to build training images.
//!
//! The paper's flagship workload is *salt & pepper* impulse noise at densities
//! up to 40 % (Fig. 18).  We also provide additive Gaussian noise and burst
//! (block) noise so that examples and ablation benches can explore other
//! filtering tasks.
//!
//! Every generator draws **exclusively** from the caller-supplied `&mut R` —
//! no function in this module constructs an RNG of its own.  That contract is
//! what keeps sharded fault campaigns and parallel evolution reproducible:
//! workers derive per-shard streams with [`rand::SeedSequence`] and corrupt
//! their training images identically no matter how the shards are scheduled
//! (see `seed_split_streams_reproduce_shard_noise_in_any_order`).

use crate::image::GrayImage;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Description of a noise process that can corrupt a clean image.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseModel {
    /// Salt & pepper impulse noise: each pixel is independently replaced by 0
    /// or 255 (with equal probability) with probability `density`.
    SaltPepper {
        /// Fraction of corrupted pixels in `[0, 1]`.
        density: f64,
    },
    /// Additive Gaussian noise with the given standard deviation; the result
    /// is clamped to `[0, 255]`.
    Gaussian {
        /// Standard deviation of the additive noise in grey levels.
        sigma: f64,
    },
    /// Uniform impulse noise: corrupted pixels take a uniformly random value.
    UniformImpulse {
        /// Fraction of corrupted pixels in `[0, 1]`.
        density: f64,
    },
    /// Burst noise: `bursts` rectangular blocks of `size × size` pixels are
    /// overwritten with random values, emulating localized interference.
    Burst {
        /// Number of corrupted blocks.
        bursts: usize,
        /// Side length of each corrupted block in pixels.
        size: usize,
    },
}

impl NoiseModel {
    /// The paper's reference workload: 40 % salt & pepper noise.
    pub fn paper_salt_pepper() -> Self {
        NoiseModel::SaltPepper { density: 0.4 }
    }

    /// Applies the noise model to `img`, returning a corrupted copy.
    pub fn apply<R: Rng + ?Sized>(&self, img: &GrayImage, rng: &mut R) -> GrayImage {
        match *self {
            NoiseModel::SaltPepper { density } => salt_pepper(img, density, rng),
            NoiseModel::Gaussian { sigma } => gaussian(img, sigma, rng),
            NoiseModel::UniformImpulse { density } => uniform_impulse(img, density, rng),
            NoiseModel::Burst { bursts, size } => burst(img, bursts, size, rng),
        }
    }
}

/// Salt & pepper noise: replaces each pixel with 0 or 255 with probability
/// `density` (density is clamped to `[0, 1]`).
pub fn salt_pepper<R: Rng + ?Sized>(img: &GrayImage, density: f64, rng: &mut R) -> GrayImage {
    let density = density.clamp(0.0, 1.0);
    let mut out = img.clone();
    for p in out.as_mut_slice() {
        if rng.gen_bool(density) {
            *p = if rng.gen_bool(0.5) { 255 } else { 0 };
        }
    }
    out
}

/// Additive Gaussian noise with standard deviation `sigma`, clamped to
/// `[0, 255]`.  Uses the Box–Muller transform so only `rand`'s uniform
/// sampling is required.
pub(crate) fn gaussian<R: Rng + ?Sized>(img: &GrayImage, sigma: f64, rng: &mut R) -> GrayImage {
    let mut out = img.clone();
    for p in out.as_mut_slice() {
        let n = sample_standard_normal(rng) * sigma;
        let v = (*p as f64 + n).round().clamp(0.0, 255.0);
        *p = v as u8;
    }
    out
}

/// Uniform impulse noise: corrupted pixels take a uniformly random grey level.
pub(crate) fn uniform_impulse<R: Rng + ?Sized>(
    img: &GrayImage,
    density: f64,
    rng: &mut R,
) -> GrayImage {
    let density = density.clamp(0.0, 1.0);
    let mut out = img.clone();
    for p in out.as_mut_slice() {
        if rng.gen_bool(density) {
            *p = rng.gen::<u8>();
        }
    }
    out
}

/// Burst noise: overwrites `bursts` random `size × size` blocks with random
/// pixel values.
pub(crate) fn burst<R: Rng + ?Sized>(
    img: &GrayImage,
    bursts: usize,
    size: usize,
    rng: &mut R,
) -> GrayImage {
    let mut out = img.clone();
    if size == 0 {
        return out;
    }
    let (w, h) = (out.width(), out.height());
    for _ in 0..bursts {
        let x0 = rng.gen_range(0..w);
        let y0 = rng.gen_range(0..h);
        for dy in 0..size {
            for dx in 0..size {
                let x = x0 + dx;
                let y = y0 + dy;
                if x < w && y < h {
                    out.set_pixel(x, y, rng.gen::<u8>());
                }
            }
        }
    }
    out
}

/// Draws a sample from the standard normal distribution via Box–Muller.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fraction of pixels that differ between the clean and noisy images — how
/// the tests check that a noise generator hits the requested density.
#[cfg(test)]
fn corruption_ratio(clean: &GrayImage, noisy: &GrayImage) -> f64 {
    clean.diff_count(noisy) as f64 / clean.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base() -> GrayImage {
        synth::gradient(64, 64)
    }

    #[test]
    fn salt_pepper_density_is_respected() {
        let img = base();
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = salt_pepper(&img, 0.4, &mut rng);
        let ratio = corruption_ratio(&img, &noisy);
        // Some corrupted pixels may coincide with the original value, so the
        // observed ratio is slightly below the density.
        assert!(ratio > 0.30 && ratio < 0.45, "ratio = {ratio}");
        // Corrupted pixels are extremes only.
        for (c, n) in img.pixels().zip(noisy.pixels()) {
            if c != n {
                assert!(n == 0 || n == 255);
            }
        }
    }

    #[test]
    fn salt_pepper_zero_density_is_identity() {
        let img = base();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(salt_pepper(&img, 0.0, &mut rng), img);
    }

    #[test]
    fn salt_pepper_full_density_corrupts_everything_to_extremes() {
        let img = base();
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = salt_pepper(&img, 1.0, &mut rng);
        assert!(noisy.pixels().all(|p| p == 0 || p == 255));
    }

    #[test]
    fn gaussian_noise_keeps_mean_approximately() {
        let img = GrayImage::new(64, 64, 128);
        let mut rng = StdRng::seed_from_u64(4);
        let noisy = gaussian(&img, 10.0, &mut rng);
        let mean = noisy.mean();
        assert!((mean - 128.0).abs() < 2.0, "mean = {mean}");
        // Most pixels should stay within 4 sigma.
        let far = noisy
            .pixels()
            .filter(|&p| (p as f64 - 128.0).abs() > 40.0)
            .count();
        assert!(far < img.len() / 100);
    }

    #[test]
    fn gaussian_zero_sigma_is_identity() {
        let img = base();
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(gaussian(&img, 0.0, &mut rng), img);
    }

    #[test]
    fn uniform_impulse_density() {
        let img = GrayImage::new(64, 64, 7);
        let mut rng = StdRng::seed_from_u64(6);
        let noisy = uniform_impulse(&img, 0.25, &mut rng);
        let ratio = corruption_ratio(&img, &noisy);
        assert!(ratio > 0.18 && ratio < 0.32, "ratio = {ratio}");
    }

    #[test]
    fn burst_noise_touches_bounded_area() {
        let img = GrayImage::new(64, 64, 200);
        let mut rng = StdRng::seed_from_u64(7);
        let noisy = burst(&img, 3, 4, &mut rng);
        let changed = img.diff_count(&noisy);
        assert!(changed > 0);
        assert!(changed <= 3 * 16);
    }

    #[test]
    fn burst_with_zero_size_is_identity() {
        let img = base();
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(burst(&img, 5, 0, &mut rng), img);
    }

    #[test]
    fn noise_model_dispatch_matches_free_functions() {
        let img = base();
        let model = NoiseModel::SaltPepper { density: 0.2 };
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(model.apply(&img, &mut a), salt_pepper(&img, 0.2, &mut b));
    }

    #[test]
    fn paper_workload_constructor() {
        match NoiseModel::paper_salt_pepper() {
            NoiseModel::SaltPepper { density } => assert!((density - 0.4).abs() < 1e-12),
            other => panic!("unexpected model {other:?}"),
        }
    }

    #[test]
    fn generators_are_deterministic_for_equal_seeds() {
        let img = base();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(
            salt_pepper(&img, 0.3, &mut a),
            salt_pepper(&img, 0.3, &mut b)
        );
    }

    #[test]
    fn seed_split_streams_reproduce_shard_noise_in_any_order() {
        // Fault-campaign sharding hands each shard its own SeedSequence
        // stream; because the generators never construct RNGs internally,
        // generating the shard images in any order — or on any thread —
        // yields identical results.
        let img = base();
        let root = rand::SeedSequence::new(33);
        let corrupt = |i: u64| salt_pepper(&img, 0.3, &mut root.fork(i).rng());
        let forward: Vec<GrayImage> = (0..4).map(corrupt).collect();
        let mut backward: Vec<GrayImage> = (0..4).rev().map(corrupt).collect();
        backward.reverse();
        assert_eq!(forward, backward);
        // And the shard streams are actually distinct.
        assert_ne!(forward[0], forward[1]);
    }
}
