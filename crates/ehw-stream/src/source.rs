//! Deterministic frame sources.
//!
//! A [`FrameSource`] yields noisy input frames by index against one fixed
//! clean reference.  Frames are *random-access*: `frame(i)` depends only on
//! the source's construction parameters and `i`, never on the order or
//! number of previous calls — which is what lets the engine (or a test)
//! re-read any frame and still replay byte-identically.

use std::fmt;
use std::path::{Path, PathBuf};

use rand::SeedSequence;

use ehw_image::image::GrayImage;
use ehw_image::noise::NoiseModel;
use ehw_image::pgm::{self, PgmError};
use ehw_image::synth;

/// Smallest frame edge the 3×3 window pipeline supports.
pub const MIN_FRAME_EDGE: usize = 3;

/// Largest synthetic frame in pixels (2048 × 2048; the paper's largest image
/// is 256 × 256).  A frame costs about a dozen bytes per pixel in flight, and
/// an unbounded spec could ask for a buffer whose allocation aborts the
/// process.
pub const MAX_FRAME_PIXELS: usize = 1 << 22;

/// Largest `width × height × frames` of a synthetic stream (e.g. 16,384
/// frames of 256 × 256): bounds how long one stream job holds a shard.
pub const MAX_STREAM_PIXELS: u64 = 1 << 30;

/// A source of noisy frames measured against a single clean reference.
pub trait FrameSource {
    /// The clean reference every frame is scored against.
    fn reference(&self) -> &GrayImage;

    /// Total number of frames in the stream.
    fn len(&self) -> usize;

    /// Whether the stream has no frames.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The noisy input for frame `index`, or `None` past the end of the
    /// stream.  Must be a pure function of the source's construction
    /// parameters and `index`.
    fn frame(&mut self, index: usize) -> Option<GrayImage>;
}

/// Clean scenes the synthetic source can render.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SceneKind {
    /// Random rectangles/discs over a gradient (`synth::shapes`).
    Shapes {
        /// Number of shapes drawn.
        complexity: usize,
    },
    /// Horizontal gradient.
    Gradient,
    /// Diagonal gradient.
    DiagonalGradient,
    /// Checkerboard with the given cell size.
    Checkerboard {
        /// Cell edge in pixels.
        cell: usize,
    },
    /// Vertical step edge.
    StepEdge,
    /// Concentric rings with the given period.
    Rings {
        /// Ring period in pixels.
        period: usize,
    },
}

impl SceneKind {
    /// Renders the scene at the given size.
    pub(crate) fn render(&self, width: usize, height: usize) -> GrayImage {
        match *self {
            SceneKind::Shapes { complexity } => synth::shapes(width, height, complexity),
            SceneKind::Gradient => synth::gradient(width, height),
            SceneKind::DiagonalGradient => synth::diagonal_gradient(width, height),
            SceneKind::Checkerboard { cell } => synth::checkerboard(width, height, cell),
            SceneKind::StepEdge => synth::step_edge(width, height),
            SceneKind::Rings { period } => synth::rings(width, height, period),
        }
    }
}

/// One segment of a noise-shift schedule: from `start_frame` (inclusive)
/// until the next segment begins, frames are corrupted with `noise`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSegment {
    /// First frame this segment applies to.
    pub start_frame: usize,
    /// Noise model applied to the clean scene.
    pub noise: NoiseModel,
}

/// Why a source could not be built.
#[derive(Debug)]
pub enum SourceError {
    /// The stream would contain no frames.
    ZeroFrames,
    /// The frame is smaller than the 3×3 window pipeline supports.
    FrameTooSmall {
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
    },
    /// The frame exceeds [`MAX_FRAME_PIXELS`] or the whole stream
    /// [`MAX_STREAM_PIXELS`].
    TooLarge {
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
        /// Requested frame count.
        frames: usize,
    },
    /// The noise-shift schedule is empty.
    EmptySchedule,
    /// The first schedule segment does not start at frame 0.
    ScheduleStartsLate {
        /// Start frame of the first segment.
        start: usize,
    },
    /// Schedule segments are not strictly increasing by start frame.
    ScheduleNotSorted {
        /// Index of the offending segment.
        index: usize,
    },
    /// A PGM file could not be read or parsed.
    Pgm(PgmError),
    /// The directory holds no `.pgm` frames.
    NoPgmFrames {
        /// Directory that was scanned.
        dir: PathBuf,
    },
    /// A frame's dimensions differ from the reference.
    ShapeMismatch {
        /// Path of the offending frame.
        frame: PathBuf,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::ZeroFrames => write!(f, "stream must contain at least one frame"),
            SourceError::FrameTooSmall { width, height } => write!(
                f,
                "frame {width}x{height} is below the {MIN_FRAME_EDGE}x{MIN_FRAME_EDGE} minimum"
            ),
            SourceError::TooLarge {
                width,
                height,
                frames,
            } => write!(
                f,
                "{frames} frames of {width}x{height} exceed the maximum of \
                 {MAX_FRAME_PIXELS} pixels per frame and {MAX_STREAM_PIXELS} in all"
            ),
            SourceError::EmptySchedule => {
                write!(f, "noise schedule must have at least one segment")
            }
            SourceError::ScheduleStartsLate { start } => {
                write!(f, "first noise segment must start at frame 0, not {start}")
            }
            SourceError::ScheduleNotSorted { index } => {
                write!(f, "noise segment {index} does not increase the start frame")
            }
            SourceError::Pgm(e) => write!(f, "pgm error: {e:?}"),
            SourceError::NoPgmFrames { dir } => {
                write!(f, "no .pgm frames found in {}", dir.display())
            }
            SourceError::ShapeMismatch { frame } => write!(
                f,
                "frame {} does not match the reference dimensions",
                frame.display()
            ),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<PgmError> for SourceError {
    fn from(e: PgmError) -> Self {
        SourceError::Pgm(e)
    }
}

/// Deterministic synthetic stream: a fixed clean scene corrupted per frame
/// by whichever [`NoiseSegment`] of the schedule is active at that frame.
///
/// The per-frame noise RNG is `streams.fork(index)` of the source seed, so
/// frame `i` is identical no matter when (or how often) it is requested.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    clean: GrayImage,
    schedule: Vec<NoiseSegment>,
    frames: usize,
    streams: SeedSequence,
}

impl SyntheticSource {
    /// Builds a synthetic source from a shape and schedule that pass
    /// [`validate_synthetic`].
    pub fn new(
        scene: SceneKind,
        width: usize,
        height: usize,
        frames: usize,
        schedule: Vec<NoiseSegment>,
        seed: u64,
    ) -> Result<Self, SourceError> {
        validate_synthetic(width, height, frames, &schedule)?;
        Ok(Self {
            clean: scene.render(width, height),
            schedule,
            frames,
            streams: SeedSequence::new(seed),
        })
    }

    /// The noise model active at the given frame.
    pub(crate) fn noise_at(&self, index: usize) -> NoiseModel {
        // The schedule is sorted and starts at 0, so the active segment is
        // the last one whose start frame is not past `index`.
        self.schedule
            .iter()
            .rev()
            .find(|s| s.start_frame <= index)
            .expect("schedule starts at frame 0")
            .noise
    }
}

/// Checks a synthetic stream's shape and schedule, for
/// [`SyntheticSource::new`] and the jobs-layer spec builder alike: at least
/// one frame, edges of at least [`MIN_FRAME_EDGE`], sizes within
/// [`MAX_FRAME_PIXELS`] and [`MAX_STREAM_PIXELS`] (computed without
/// overflow), and a schedule that starts at frame 0 and strictly increases
/// by start frame.
pub fn validate_synthetic(
    width: usize,
    height: usize,
    frames: usize,
    schedule: &[NoiseSegment],
) -> Result<(), SourceError> {
    if frames == 0 {
        return Err(SourceError::ZeroFrames);
    }
    if width < MIN_FRAME_EDGE || height < MIN_FRAME_EDGE {
        return Err(SourceError::FrameTooSmall { width, height });
    }
    let pixels = width.checked_mul(height).filter(|&p| p <= MAX_FRAME_PIXELS);
    let total = pixels.and_then(|p| (p as u64).checked_mul(frames as u64));
    if total.is_none_or(|t| t > MAX_STREAM_PIXELS) {
        return Err(SourceError::TooLarge {
            width,
            height,
            frames,
        });
    }
    let first = schedule.first().ok_or(SourceError::EmptySchedule)?;
    if first.start_frame != 0 {
        return Err(SourceError::ScheduleStartsLate {
            start: first.start_frame,
        });
    }
    for (i, pair) in schedule.windows(2).enumerate() {
        if pair[1].start_frame <= pair[0].start_frame {
            return Err(SourceError::ScheduleNotSorted { index: i + 1 });
        }
    }
    Ok(())
}

impl FrameSource for SyntheticSource {
    fn reference(&self) -> &GrayImage {
        &self.clean
    }

    fn len(&self) -> usize {
        self.frames
    }

    fn frame(&mut self, index: usize) -> Option<GrayImage> {
        if index >= self.frames {
            return None;
        }
        let mut rng = self.streams.fork(index as u64).rng();
        Some(self.noise_at(index).apply(&self.clean, &mut rng))
    }
}

/// Replays a directory of `.pgm` frames (sorted by file name) against a
/// fixed clean reference image.
///
/// All frames are loaded and shape-checked eagerly so a malformed file fails
/// the job at submission, not halfway through the stream.
#[derive(Debug, Clone)]
pub struct PgmDirSource {
    frames: Vec<GrayImage>,
    reference: GrayImage,
}

impl PgmDirSource {
    /// Loads every `.pgm` file under `dir` (sorted by file name) and the
    /// clean reference image.
    pub fn new(dir: impl AsRef<Path>, reference: impl AsRef<Path>) -> Result<Self, SourceError> {
        let dir = dir.as_ref();
        let reference = pgm::read_pgm(reference.as_ref())?;
        if reference.width() < MIN_FRAME_EDGE || reference.height() < MIN_FRAME_EDGE {
            return Err(SourceError::FrameTooSmall {
                width: reference.width(),
                height: reference.height(),
            });
        }
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| SourceError::Pgm(PgmError::Io(e)))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "pgm"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(SourceError::NoPgmFrames {
                dir: dir.to_path_buf(),
            });
        }
        let mut frames = Vec::with_capacity(paths.len());
        for path in paths {
            let frame = pgm::read_pgm(&path)?;
            if frame.width() != reference.width() || frame.height() != reference.height() {
                return Err(SourceError::ShapeMismatch { frame: path });
            }
            frames.push(frame);
        }
        Ok(Self { frames, reference })
    }
}

impl FrameSource for PgmDirSource {
    fn reference(&self) -> &GrayImage {
        &self.reference
    }

    fn len(&self) -> usize {
        self.frames.len()
    }

    fn frame(&mut self, index: usize) -> Option<GrayImage> {
        self.frames.get(index).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> Vec<NoiseSegment> {
        vec![
            NoiseSegment {
                start_frame: 0,
                noise: NoiseModel::SaltPepper { density: 0.2 },
            },
            NoiseSegment {
                start_frame: 5,
                noise: NoiseModel::Gaussian { sigma: 20.0 },
            },
        ]
    }

    #[test]
    fn synthetic_frames_are_random_access_deterministic() {
        let mut a = SyntheticSource::new(
            SceneKind::Shapes { complexity: 4 },
            16,
            16,
            10,
            schedule(),
            7,
        )
        .unwrap();
        let mut b = SyntheticSource::new(
            SceneKind::Shapes { complexity: 4 },
            16,
            16,
            10,
            schedule(),
            7,
        )
        .unwrap();
        // Same index, different request orders and repetition counts.
        let a3 = a.frame(3).unwrap();
        let _ = a.frame(9);
        let b9 = b.frame(9).unwrap();
        let b3 = b.frame(3).unwrap();
        assert_eq!(a3.content_hash(), b3.content_hash());
        assert_eq!(a.frame(9).unwrap().content_hash(), b9.content_hash());
        assert!(a.frame(10).is_none());
    }

    #[test]
    fn schedule_switches_the_noise_model() {
        let src = SyntheticSource::new(SceneKind::Gradient, 16, 16, 10, schedule(), 1).unwrap();
        assert!(matches!(src.noise_at(0), NoiseModel::SaltPepper { .. }));
        assert!(matches!(src.noise_at(4), NoiseModel::SaltPepper { .. }));
        assert!(matches!(src.noise_at(5), NoiseModel::Gaussian { .. }));
        assert!(matches!(src.noise_at(9), NoiseModel::Gaussian { .. }));
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let mut a = SyntheticSource::new(SceneKind::Gradient, 16, 16, 2, schedule(), 1).unwrap();
        let mut b = SyntheticSource::new(SceneKind::Gradient, 16, 16, 2, schedule(), 2).unwrap();
        assert_ne!(
            a.frame(0).unwrap().content_hash(),
            b.frame(0).unwrap().content_hash()
        );
    }

    #[test]
    fn schedule_validation_rejects_bad_shapes() {
        assert!(matches!(
            SyntheticSource::new(SceneKind::Gradient, 16, 16, 10, vec![], 1),
            Err(SourceError::EmptySchedule)
        ));
        let late = vec![NoiseSegment {
            start_frame: 3,
            noise: NoiseModel::SaltPepper { density: 0.1 },
        }];
        assert!(matches!(
            SyntheticSource::new(SceneKind::Gradient, 16, 16, 10, late, 1),
            Err(SourceError::ScheduleStartsLate { start: 3 })
        ));
        let unsorted = vec![
            NoiseSegment {
                start_frame: 0,
                noise: NoiseModel::SaltPepper { density: 0.1 },
            },
            NoiseSegment {
                start_frame: 4,
                noise: NoiseModel::SaltPepper { density: 0.2 },
            },
            NoiseSegment {
                start_frame: 4,
                noise: NoiseModel::SaltPepper { density: 0.3 },
            },
        ];
        assert!(matches!(
            SyntheticSource::new(SceneKind::Gradient, 16, 16, 10, unsorted, 1),
            Err(SourceError::ScheduleNotSorted { index: 2 })
        ));
        assert!(matches!(
            SyntheticSource::new(SceneKind::Gradient, 2, 16, 10, schedule(), 1),
            Err(SourceError::FrameTooSmall { .. })
        ));
        assert!(matches!(
            SyntheticSource::new(SceneKind::Gradient, 16, 16, 0, schedule(), 1),
            Err(SourceError::ZeroFrames)
        ));
    }

    #[test]
    fn size_validation_bounds_the_frame_and_the_total_work() {
        let check =
            |w: usize, h: usize, frames: usize| validate_synthetic(w, h, frames, &schedule());
        assert!(matches!(
            check(1_000_000, 1_000_000, 1),
            Err(SourceError::TooLarge { .. })
        ));
        // The pixel product overflows `usize`: rejected, not wrapped.
        assert!(matches!(
            check(usize::MAX, 3, 1),
            Err(SourceError::TooLarge { .. })
        ));
        assert!(check(2048, 2048, 256).is_ok());
        assert!(matches!(
            check(2048, 2048, 257),
            Err(SourceError::TooLarge { frames: 257, .. })
        ));
        assert!(matches!(
            check(16, 16, usize::MAX),
            Err(SourceError::TooLarge { .. })
        ));
        // The source runs the same validation before rendering anything.
        assert!(matches!(
            SyntheticSource::new(SceneKind::Gradient, 1_000_000, 1_000_000, 1, schedule(), 1),
            Err(SourceError::TooLarge { .. })
        ));
    }

    #[test]
    fn pgm_dir_source_replays_sorted_frames() {
        let dir = std::env::temp_dir().join(format!("ehw_stream_pgm_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let clean = synth::shapes(8, 8, 2);
        let mut rng = rand::SeedSequence::new(3).rng();
        for i in 0..3 {
            let noisy = ehw_image::noise::salt_pepper(&clean, 0.1 * (i + 1) as f64, &mut rng);
            ehw_image::pgm::write_pgm(&noisy, dir.join(format!("frame_{i:03}.pgm"))).unwrap();
        }
        let refp = dir.join("clean.refpgm");
        ehw_image::pgm::write_pgm(&clean, &refp).unwrap();
        let mut src = PgmDirSource::new(&dir, &refp).unwrap();
        assert_eq!(src.len(), 3);
        assert_eq!(src.reference().content_hash(), clean.content_hash());
        assert!(src.frame(0).is_some());
        assert!(src.frame(3).is_none());
        // Frames come back in file-name order: frame 0 is the least noisy.
        let d0 = ehw_image::metrics::mae(&src.frame(0).unwrap(), &clean);
        let d2 = ehw_image::metrics::mae(&src.frame(2).unwrap(), &clean);
        assert!(d0 < d2, "sorted replay order violated: {d0} vs {d2}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
