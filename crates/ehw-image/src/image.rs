//! 8-bit grayscale images with row-major storage.
//!
//! The evolvable arrays operate on a stream of pixels produced by a camera or
//! read from external DDR memory.  [`GrayImage`] is the in-memory equivalent:
//! a width × height buffer of `u8` samples, indexed `(x, y)` with `(0, 0)` in
//! the top-left corner, exactly like the frame buffers the hardware DMA feeds
//! into the array.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An 8-bit grayscale image stored in row-major order.
///
/// The image dimensions are fixed at construction time.  All accessors are
/// bounds-checked in debug builds.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates an image of the given dimensions filled with `fill`.
    ///
    /// # Panics
    /// Panics if either dimension is zero or `width * height` overflows.
    pub fn new(width: usize, height: usize, fill: u8) -> Self {
        Self {
            width,
            height,
            data: vec![fill; Self::pixel_count(width, height)],
        }
    }

    /// Creates an image from an existing row-major pixel buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        assert_eq!(
            Some(data.len()),
            width.checked_mul(height),
            "pixel buffer length does not match dimensions"
        );
        Self {
            width,
            height,
            data,
        }
    }

    /// Creates an image by evaluating `f(x, y)` for every pixel.
    ///
    /// # Panics
    /// Panics if either dimension is zero or `width * height` overflows.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut data = Vec::with_capacity(Self::pixel_count(width, height));
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// `width * height`, checked: a wrapped product would size the buffer
    /// smaller than the dimensions the accessors index with.
    fn pixel_count(width: usize, height: usize) -> usize {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        width
            .checked_mul(height)
            .expect("image dimensions overflow the address space")
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels (`width * height`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the image holds no pixels. Always `false` for constructed
    /// images (dimensions are non-zero), provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Returns the pixel at `(x, y)` with *replicated* (clamped) borders.
    ///
    /// Coordinates may be negative or beyond the image; they are clamped to
    /// the nearest valid pixel.  This matches the line-buffer behaviour of the
    /// hardware window generator at image borders.
    #[inline]
    pub(crate) fn pixel_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub(crate) fn set_pixel(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = value;
    }

    /// Read-only view of the raw row-major pixel buffer.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the raw row-major pixel buffer.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Returns one row of pixels as a slice.
    ///
    /// # Panics
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: usize) -> &[u8] {
        assert!(y < self.height, "row out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Iterator over all pixels in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = u8> + '_ {
        self.data.iter().copied()
    }

    /// Returns a new image whose pixels are `f(pixel)`.
    pub fn map(&self, mut f: impl FnMut(u8) -> u8) -> GrayImage {
        GrayImage {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&p| f(p)).collect(),
        }
    }

    /// Mean pixel value as a floating-point number.
    pub(crate) fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&p| p as u64).sum::<u64>() as f64 / self.data.len() as f64
    }

    /// Content hash over dimensions and pixels (64-bit FNV-1a).
    ///
    /// Two images hash equal iff they are pixel-for-pixel identical with the
    /// same shape, so the hash can serve as a content address for cross-job
    /// caches: jobs carrying the same training image map to the same key no
    /// matter how the image object was constructed or cloned.  The hash is a
    /// pure function of the bytes — stable across processes and platforms.
    pub fn content_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for b in (self.width as u64).to_le_bytes() {
            eat(b);
        }
        for b in (self.height as u64).to_le_bytes() {
            eat(b);
        }
        for &p in &self.data {
            eat(p);
        }
        h
    }
}

impl fmt::Debug for GrayImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GrayImage")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("mean", &self.mean())
            .finish()
    }
}

/// Test-only pixel statistics the unit tests of this crate assert with.
#[cfg(test)]
impl GrayImage {
    /// Minimum and maximum pixel values.
    pub(crate) fn min_max(&self) -> (u8, u8) {
        let mut min = u8::MAX;
        let mut max = u8::MIN;
        for &p in &self.data {
            min = min.min(p);
            max = max.max(p);
        }
        (min, max)
    }

    /// 256-bin histogram of pixel values.
    pub(crate) fn histogram(&self) -> [u64; 256] {
        let mut h = [0u64; 256];
        for &p in &self.data {
            h[p as usize] += 1;
        }
        h
    }

    /// Number of pixels that differ between `self` and `other`.
    pub(crate) fn diff_count(&self, other: &GrayImage) -> usize {
        assert_eq!(self.width, other.width, "width mismatch");
        assert_eq!(self.height, other.height, "height mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills_image() {
        let img = GrayImage::new(4, 3, 7);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.len(), 12);
        assert!(img.pixels().all(|p| p == 7));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = GrayImage::new(0, 3, 0);
    }

    #[test]
    fn from_vec_round_trip() {
        let data: Vec<u8> = (0..12).collect();
        let img = GrayImage::from_vec(4, 3, data.clone());
        assert_eq!(img.as_slice(), &data[..]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = GrayImage::from_vec(4, 3, vec![0; 11]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_dimensions_whose_product_overflows() {
        // 2^32 × 2^32 wraps to 0 pixels on 64-bit targets.
        let _ = GrayImage::from_vec(1 << 32, 1 << 32, Vec::new());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn new_rejects_dimensions_whose_product_overflows() {
        let _ = GrayImage::new(usize::MAX, 2, 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn from_fn_rejects_dimensions_whose_product_overflows() {
        let _ = GrayImage::from_fn(usize::MAX, 2, |_, _| 0);
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let img = GrayImage::from_fn(3, 2, |x, y| (y * 10 + x) as u8);
        assert_eq!(img.pixel(0, 0), 0);
        assert_eq!(img.pixel(2, 0), 2);
        assert_eq!(img.pixel(0, 1), 10);
        assert_eq!(img.pixel(2, 1), 12);
    }

    #[test]
    fn clamped_access_replicates_borders() {
        let img = GrayImage::from_fn(3, 3, |x, y| (y * 3 + x) as u8);
        assert_eq!(img.pixel_clamped(-1, -1), 0);
        assert_eq!(img.pixel_clamped(5, 0), 2);
        assert_eq!(img.pixel_clamped(0, 5), 6);
        assert_eq!(img.pixel_clamped(5, 5), 8);
        assert_eq!(img.pixel_clamped(1, 1), 4);
    }

    #[test]
    fn set_pixel_and_row() {
        let mut img = GrayImage::new(3, 2, 0);
        img.set_pixel(2, 1, 9);
        assert_eq!(img.pixel(2, 1), 9);
        assert_eq!(img.row(1), &[0, 0, 9]);
    }

    #[test]
    fn statistics() {
        let img = GrayImage::from_vec(2, 2, vec![0, 10, 20, 30]);
        assert!((img.mean() - 15.0).abs() < 1e-9);
        assert_eq!(img.min_max(), (0, 30));
        let h = img.histogram();
        assert_eq!(h[0], 1);
        assert_eq!(h[10], 1);
        assert_eq!(h[20], 1);
        assert_eq!(h[30], 1);
        assert_eq!(h.iter().sum::<u64>(), 4);
    }

    #[test]
    fn diff_count_counts_mismatches() {
        let a = GrayImage::from_vec(2, 2, vec![1, 2, 3, 4]);
        let b = GrayImage::from_vec(2, 2, vec![1, 0, 3, 0]);
        assert_eq!(a.diff_count(&b), 2);
        assert_eq!(a.diff_count(&a), 0);
    }

    #[test]
    fn content_hash_is_stable_and_content_addressed() {
        let a = GrayImage::from_vec(2, 2, vec![1, 2, 3, 4]);
        let b = GrayImage::from_vec(2, 2, vec![1, 2, 3, 4]);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), a.clone().content_hash());
    }

    #[test]
    fn content_hash_distinguishes_pixels_and_shape() {
        let a = GrayImage::from_vec(2, 2, vec![1, 2, 3, 4]);
        let pixel_flip = GrayImage::from_vec(2, 2, vec![1, 2, 3, 5]);
        let reshaped = GrayImage::from_vec(4, 1, vec![1, 2, 3, 4]);
        assert_ne!(a.content_hash(), pixel_flip.content_hash());
        assert_ne!(a.content_hash(), reshaped.content_hash());
    }
}
