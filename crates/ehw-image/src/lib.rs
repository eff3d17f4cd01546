//! Image-processing substrate for the multi-array evolvable hardware platform.
//!
//! The paper's evolvable arrays are tailored for *window-based image
//! processing*: every output pixel is computed from the 3×3 neighbourhood of
//! the corresponding input pixel.  This crate provides everything the rest of
//! the workspace needs to express those workloads in pure Rust:
//!
//! * [`GrayImage`] — an 8-bit grayscale image with row-major storage,
//! * [`window`] — 3×3 sliding-window extraction with replicated borders
//!   (the hardware feeds the array from three line buffers, which behaves the
//!   same way at the image edges),
//! * [`noise`] — the noise models used in the paper's experiments
//!   (salt & pepper at a configurable density, additive Gaussian, burst noise),
//! * [`filters`] — conventional reference filters (median, mean, Gaussian,
//!   Sobel edge detector, …) used both as comparison baselines (Fig. 18) and to
//!   produce reference images for evolution,
//! * [`metrics`] — the Mean Absolute Error fitness used by the hardware
//!   fitness unit, plus MSE/PSNR for reporting,
//! * [`synth`] — deterministic synthetic training images (the platform in the
//!   paper reads them from flash; we generate them procedurally),
//! * [`pgm`] — minimal PGM (P2/P5) serialization so examples can write
//!   viewable results to disk.
//!
//! Everything in this crate is deterministic given an RNG seed, which the
//! evolutionary experiments rely on for reproducibility.

#![warn(missing_docs)]

pub mod filters;
pub mod image;
pub mod metrics;
pub mod noise;
pub mod pgm;
pub mod synth;
pub mod window;

pub use image::GrayImage;
pub use metrics::{mae, psnr};
pub use window::Window3x3;
