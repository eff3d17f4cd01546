//! Deterministic synthetic training images.
//!
//! The paper stores its training and reference images in flash memory; they
//! are natural photographs (128×128 and 256×256).  We cannot ship those, so
//! this module generates synthetic images with comparable structure: smooth
//! gradients, step edges, textured regions and geometric shapes.  Salt &
//! pepper removal, smoothing and edge detection behave qualitatively the same
//! on these images, which is what the reproduced experiments need.
//!
//! All generators are fully deterministic: either they take no RNG at all, or
//! they derive every pixel from an explicit seed via a small hash, so repeated
//! runs produce identical images.

use crate::image::GrayImage;

/// Horizontal gradient from 0 (left) to 255 (right).
pub fn gradient(width: usize, height: usize) -> GrayImage {
    GrayImage::from_fn(width, height, |x, _| {
        if width <= 1 {
            0
        } else {
            ((x * 255) / (width - 1)) as u8
        }
    })
}

/// Diagonal gradient combining x and y.
pub fn diagonal_gradient(width: usize, height: usize) -> GrayImage {
    GrayImage::from_fn(width, height, |x, y| {
        let denom = (width + height).saturating_sub(2).max(1);
        (((x + y) * 255) / denom) as u8
    })
}

/// Checkerboard with `cell` × `cell` squares of 0 and 255.
pub fn checkerboard(width: usize, height: usize, cell: usize) -> GrayImage {
    let cell = cell.max(1);
    GrayImage::from_fn(width, height, |x, y| {
        if ((x / cell) + (y / cell)).is_multiple_of(2) {
            0
        } else {
            255
        }
    })
}

/// Vertical step edge: left half dark, right half bright.
pub fn step_edge(width: usize, height: usize) -> GrayImage {
    GrayImage::from_fn(width, height, |x, _| if x < width / 2 { 40 } else { 215 })
}

/// Concentric rings of varying intensity, centred on the image.
pub fn rings(width: usize, height: usize, period: usize) -> GrayImage {
    let period = period.max(1);
    let cx = width as f64 / 2.0;
    let cy = height as f64 / 2.0;
    GrayImage::from_fn(width, height, |x, y| {
        let dx = x as f64 - cx;
        let dy = y as f64 - cy;
        let r = (dx * dx + dy * dy).sqrt();
        let phase = (r / period as f64) * std::f64::consts::PI;
        ((phase.sin() * 0.5 + 0.5) * 255.0) as u8
    })
}

/// A composite "scene" with flat regions, rectangles, a disc and gradients —
/// the workhorse training image for the reproduced experiments.  `complexity`
/// controls how many geometric shapes are drawn (deterministically).
pub fn shapes(width: usize, height: usize, complexity: usize) -> GrayImage {
    let mut img = diagonal_gradient(width, height);

    // Deterministic pseudo-random placement derived from the shape index.
    for i in 0..complexity {
        let h = hash64(i as u64 + 1);
        let rw = (width / 6).max(2);
        let rh = (height / 6).max(2);
        let x0 = (h % width as u64) as usize % width.saturating_sub(rw).max(1);
        let y0 = ((h >> 16) % height as u64) as usize % height.saturating_sub(rh).max(1);
        let value = (h >> 32) as u8;
        for y in y0..(y0 + rh).min(height) {
            for x in x0..(x0 + rw).min(width) {
                img.set_pixel(x, y, value);
            }
        }
    }

    // A bright disc in the lower-right quadrant gives the scene a curved edge.
    let cx = (3 * width / 4) as f64;
    let cy = (3 * height / 4) as f64;
    let radius = (width.min(height) as f64) / 6.0;
    for y in 0..height {
        for x in 0..width {
            let dx = x as f64 - cx;
            let dy = y as f64 - cy;
            if dx * dx + dy * dy <= radius * radius {
                img.set_pixel(x, y, 230);
            }
        }
    }
    img
}

/// The default 128×128 training scene used throughout the experiment harness
/// (stand-in for the paper's 128×128 camera image).
pub fn paper_scene_128() -> GrayImage {
    shapes(128, 128, 6)
}

/// The 256×256 variant used for the large-image speed-up experiment (Fig. 13).
pub fn paper_scene_256() -> GrayImage {
    shapes(256, 256, 10)
}

/// SplitMix64 hash used for deterministic procedural content.
fn hash64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_spans_full_range() {
        let g = gradient(128, 16);
        assert_eq!(g.pixel(0, 0), 0);
        assert_eq!(g.pixel(127, 0), 255);
        // Monotone non-decreasing along a row.
        for x in 1..128 {
            assert!(g.pixel(x, 5) >= g.pixel(x - 1, 5));
        }
    }

    #[test]
    fn gradient_single_column_is_zero() {
        let g = gradient(1, 4);
        assert!(g.pixels().all(|p| p == 0));
    }

    #[test]
    fn checkerboard_alternates() {
        let c = checkerboard(8, 8, 2);
        assert_eq!(c.pixel(0, 0), 0);
        assert_eq!(c.pixel(2, 0), 255);
        assert_eq!(c.pixel(0, 2), 255);
        assert_eq!(c.pixel(2, 2), 0);
    }

    #[test]
    fn step_edge_has_two_levels() {
        let s = step_edge(16, 4);
        assert_eq!(s.pixel(0, 0), 40);
        assert_eq!(s.pixel(15, 3), 215);
        let hist = s.histogram();
        assert_eq!(hist[40] + hist[215], s.len() as u64);
    }

    #[test]
    fn rings_are_radially_symmetric() {
        let r = rings(32, 32, 4);
        // Symmetric points at equal radius from the centre (16, 16) must have
        // equal value.
        assert_eq!(r.pixel(16 + 5, 16), r.pixel(16 - 5, 16));
        assert_eq!(r.pixel(16, 16 + 7), r.pixel(16, 16 - 7));
    }

    #[test]
    fn shapes_is_deterministic() {
        assert_eq!(shapes(64, 64, 4), shapes(64, 64, 4));
        // Different complexity gives a different image.
        assert_ne!(shapes(64, 64, 4), shapes(64, 64, 5));
    }

    #[test]
    fn paper_scenes_have_expected_dimensions() {
        let s = paper_scene_128();
        assert_eq!((s.width(), s.height()), (128, 128));
        let l = paper_scene_256();
        assert_eq!((l.width(), l.height()), (256, 256));
    }

    #[test]
    fn shapes_has_nontrivial_dynamic_range() {
        let s = paper_scene_128();
        let (min, max) = s.min_max();
        assert!(max as i32 - min as i32 > 100, "min={min} max={max}");
    }
}
