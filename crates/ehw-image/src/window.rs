//! 3×3 sliding-window extraction.
//!
//! The evolvable array computes each output pixel from the 3×3 neighbourhood
//! of the corresponding input pixel.  In hardware the neighbourhood is built
//! by three image-line FIFOs in front of the array (§III.A and §IV.A of the
//! paper); at the borders the line buffers replicate the nearest valid pixel.
//! [`Window3x3`] is the software equivalent, and [`for_each_window_in_rows`]
//! streams the window of every pixel position of an image in raster order —
//! the same order in which the hardware streams pixels through the array.

use crate::image::GrayImage;

/// The 3×3 neighbourhood of a pixel, in row-major order:
///
/// ```text
/// w[0] w[1] w[2]      NW N NE
/// w[3] w[4] w[5]  =   W  C  E
/// w[6] w[7] w[8]      SW S SE
/// ```
///
/// Index 4 is the centre pixel.  The paper's array has eight data inputs (four
/// on the north side, four on the west side), each preceded by a 9-to-1
/// multiplexer that selects one of these nine window pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window3x3(pub [u8; 9]);

impl Window3x3 {
    /// Index of the centre pixel within the window.
    pub const CENTER: usize = 4;

    /// Builds the window centred on `(x, y)` with replicated borders.
    pub fn from_image(img: &GrayImage, x: usize, y: usize) -> Self {
        let xi = x as isize;
        let yi = y as isize;
        let mut w = [0u8; 9];
        let mut k = 0;
        for dy in -1..=1 {
            for dx in -1..=1 {
                w[k] = img.pixel_clamped(xi + dx, yi + dy);
                k += 1;
            }
        }
        Window3x3(w)
    }
}

/// Streams the 3×3 window of every pixel in rows `y0..y1` (raster order) to
/// `f(x, y, window)`.
///
/// This is the software equivalent of the hardware's three image-line FIFOs:
/// each output row is assembled from exactly three row slices (the row above,
/// the row itself and the row below, clamped at the top/bottom borders), and
/// only the first and last pixel of a row pay for horizontal clamping — the
/// interior is read straight out of the row buffers with no coordinate
/// arithmetic.  Windows produced here are bit-identical to
/// [`Window3x3::from_image`].
pub fn for_each_window_in_rows(
    img: &GrayImage,
    y0: usize,
    y1: usize,
    mut f: impl FnMut(usize, usize, &Window3x3),
) {
    let w = img.width();
    let h = img.height();
    debug_assert!(y0 <= y1 && y1 <= h, "row range out of bounds");
    for y in y0..y1 {
        let above = img.row(y.saturating_sub(1));
        let center = img.row(y);
        let below = img.row(if y + 1 < h { y + 1 } else { h - 1 });
        if w < 3 {
            // Degenerate widths: every pixel is a border pixel; fall back to
            // the clamped builder.
            for x in 0..w {
                f(x, y, &Window3x3::from_image(img, x, y));
            }
            continue;
        }
        // Left border: the column to the west replicates column 0.
        let win = Window3x3([
            above[0], above[0], above[1], center[0], center[0], center[1], below[0], below[0],
            below[1],
        ]);
        f(0, y, &win);
        // Interior fast path: unclamped reads from the three row buffers.
        for x in 1..w - 1 {
            let win = Window3x3([
                above[x - 1],
                above[x],
                above[x + 1],
                center[x - 1],
                center[x],
                center[x + 1],
                below[x - 1],
                below[x],
                below[x + 1],
            ]);
            f(x, y, &win);
        }
        // Right border: the column to the east replicates the last column.
        let l = w - 1;
        let win = Window3x3([
            above[l - 1],
            above[l],
            above[l],
            center[l - 1],
            center[l],
            center[l],
            below[l - 1],
            below[l],
            below[l],
        ]);
        f(l, y, &win);
    }
}

/// Streams the 3×3 window of every pixel of the image in raster order —
/// the whole-image form of [`for_each_window_in_rows`].
pub(crate) fn for_each_window(img: &GrayImage, f: impl FnMut(usize, usize, &Window3x3)) {
    for_each_window_in_rows(img, 0, img.height(), f);
}

/// Every 3×3 window of one image in structure-of-arrays layout: nine
/// contiguous per-selector planes.
///
/// `planes[sel][i]` is pixel `sel` (row-major, 0–8) of the window centred on
/// pixel `i` (raster order) — the transpose of a flat `Vec<Window3x3>`.  The
/// array's eight data inputs each select *one* window pixel through a 9-to-1
/// mux, so a block evaluator reading this layout fills each lane buffer with
/// one contiguous `memcpy` from the selected plane instead of a stride-9
/// gather across AoS windows.  Built in one streaming pass of
/// `for_each_window`; bit-identical to gathering [`Window3x3::from_image`]
/// per pixel.
#[derive(Debug, Clone)]
pub struct WindowPlanes {
    width: usize,
    height: usize,
    planes: [Vec<u8>; 9],
}

impl WindowPlanes {
    /// Extracts every window of `img` into the nine planes (one streaming
    /// pass).
    pub fn new(img: &GrayImage) -> Self {
        let len = img.len();
        let mut planes: [Vec<u8>; 9] = std::array::from_fn(|_| vec![0u8; len]);
        let mut k = 0;
        for_each_window(img, |_, _, w| {
            for (sel, plane) in planes.iter_mut().enumerate() {
                plane[k] = w.0[sel];
            }
            k += 1;
        });
        debug_assert_eq!(k, len);
        Self {
            width: img.width(),
            height: img.height(),
            planes,
        }
    }

    /// Width of the source image.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Height of the source image.
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// Number of windows (= pixels of the source image).
    pub fn len(&self) -> usize {
        self.planes[0].len()
    }

    /// `true` if the planes hold no windows.
    pub fn is_empty(&self) -> bool {
        self.planes[0].is_empty()
    }

    /// The contiguous plane of window pixel `sel` (0–8, row-major within the
    /// window), indexed by raster position.
    #[inline]
    pub fn plane(&self, sel: usize) -> &[u8] {
        &self.planes[sel]
    }
}

/// Every 3×3 window of one image, extracted once and shared.
///
/// A λ-batch of candidate circuits all filter the *same* training image, so
/// extracting the windows per candidate multiplies the (clamped, per-pixel)
/// extraction cost by λ.  `SharedWindows` runs the streaming extraction
/// exactly once and hands every consumer the same buffer; candidate
/// evaluation then reduces to a linear scan.  The storage is the SoA
/// [`WindowPlanes`] layout (see [`planes`](Self::planes)).
#[derive(Debug, Clone)]
pub struct SharedWindows {
    planes: WindowPlanes,
}

impl SharedWindows {
    /// Extracts every window of `img` (one streaming pass).
    pub fn new(img: &GrayImage) -> Self {
        Self {
            planes: WindowPlanes::new(img),
        }
    }

    /// Width of the source image.
    pub fn width(&self) -> usize {
        self.planes.width()
    }

    /// Height of the source image.
    pub fn height(&self) -> usize {
        self.planes.height()
    }

    /// Number of windows (= pixels of the source image).
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// `true` if the buffer holds no windows (never the case for a
    /// constructed image; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }

    /// The structure-of-arrays plane storage — the layout the block
    /// evaluation path consumes.
    #[inline]
    pub fn planes(&self) -> &WindowPlanes {
        &self.planes
    }
}

/// Iterates the 3×3 window for every pixel of `img` in raster order,
/// yielding `(x, y, window)` — the per-pixel reference the streaming and
/// plane extractors are tested against.
#[cfg(test)]
fn windows(img: &GrayImage) -> impl Iterator<Item = (usize, usize, Window3x3)> + '_ {
    let (w, h) = (img.width(), img.height());
    (0..h).flat_map(move |y| (0..w).map(move |x| (x, y, Window3x3::from_image(img, x, y))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> GrayImage {
        // 0  1  2  3
        // 4  5  6  7
        // 8  9 10 11
        GrayImage::from_fn(4, 3, |x, y| (y * 4 + x) as u8)
    }

    #[test]
    fn interior_window_is_neighbourhood() {
        let img = test_image();
        let w = Window3x3::from_image(&img, 1, 1);
        assert_eq!(w.0, [0, 1, 2, 4, 5, 6, 8, 9, 10]);
        assert_eq!(w.0[Window3x3::CENTER], 5);
    }

    #[test]
    fn corner_window_replicates_border() {
        let img = test_image();
        let w = Window3x3::from_image(&img, 0, 0);
        assert_eq!(w.0, [0, 0, 1, 0, 0, 1, 4, 4, 5]);
        let w = Window3x3::from_image(&img, 3, 2);
        assert_eq!(w.0, [6, 7, 7, 10, 11, 11, 10, 11, 11]);
    }

    #[test]
    fn windows_iterator_covers_every_pixel() {
        let img = test_image();
        let collected: Vec<_> = windows(&img).collect();
        assert_eq!(collected.len(), 12);
        assert_eq!(collected[0].0, 0);
        assert_eq!(collected[0].1, 0);
        assert_eq!(collected[11].0, 3);
        assert_eq!(collected[11].1, 2);
    }

    #[test]
    fn streaming_windows_match_clamped_builder() {
        // The streaming extraction (interior fast path + border clamping)
        // must agree with the per-pixel clamped builder everywhere, for all
        // degenerate shapes.
        for (w, h) in [
            (1, 1),
            (1, 5),
            (2, 2),
            (2, 7),
            (3, 3),
            (4, 3),
            (7, 5),
            (16, 9),
        ] {
            let img = crate::image::GrayImage::from_fn(w, h, |x, y| (x * 31 + y * 7) as u8);
            let mut count = 0;
            for_each_window(&img, |x, y, win| {
                assert_eq!(
                    *win,
                    Window3x3::from_image(&img, x, y),
                    "({x},{y}) of {w}x{h}"
                );
                count += 1;
            });
            assert_eq!(count, w * h);
        }
    }

    #[test]
    fn streaming_row_range_covers_requested_rows_only() {
        let img = test_image();
        let mut visited = Vec::new();
        for_each_window_in_rows(&img, 1, 3, |x, y, _| visited.push((x, y)));
        assert_eq!(visited.len(), 8);
        assert!(visited.iter().all(|&(_, y)| y == 1 || y == 2));
        assert_eq!(visited[0], (0, 1));
        assert_eq!(visited[7], (3, 2));
    }

    #[test]
    fn shared_windows_match_iterator_and_map() {
        let img = test_image();
        let shared = SharedWindows::new(&img);
        assert_eq!(shared.len(), img.len());
        assert_eq!(shared.width(), img.width());
        assert_eq!(shared.height(), img.height());
        assert!(!shared.is_empty());
        for (i, (x, y, w)) in windows(&img).enumerate() {
            for sel in 0..9 {
                assert_eq!(shared.planes().plane(sel)[i], w.0[sel], "window ({x},{y})");
            }
        }
    }

    #[test]
    fn window_planes_are_the_transpose_of_the_window_stream() {
        // Plane `sel` at raster index `i` must hold pixel `sel` of window `i`
        // for every shape, including degenerate ones.
        for (w, h) in [(1, 1), (1, 5), (2, 2), (3, 3), (4, 3), (7, 5), (16, 9)] {
            let img = crate::image::GrayImage::from_fn(w, h, |x, y| (x * 13 + y * 5) as u8);
            let planes = WindowPlanes::new(&img);
            assert_eq!(planes.len(), w * h);
            assert_eq!(planes.width(), w);
            assert_eq!(planes.height(), h);
            assert!(!planes.is_empty());
            for (i, (x, y, win)) in windows(&img).enumerate() {
                for sel in 0..9 {
                    assert_eq!(
                        planes.plane(sel)[i],
                        win.0[sel],
                        "plane {sel} at ({x},{y}) of {w}x{h}"
                    );
                }
            }
        }
    }
}
