//! Minimal PGM (portable graymap) serialization.
//!
//! The examples write their input, noisy and filtered images to disk so that
//! results (e.g. the Fig. 18 input/output pair) can be inspected with any
//! image viewer.  Both the binary (`P5`) and ASCII (`P2`) variants are
//! supported; parsing handles comments and arbitrary whitespace.

use crate::image::GrayImage;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Errors produced while reading a PGM file.
#[derive(Debug)]
pub enum PgmError {
    /// Underlying I/O error.
    Io(io::Error),
    /// The file is not a valid P2/P5 PGM image.
    Format(String),
}

impl fmt::Display for PgmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PgmError::Io(e) => write!(f, "I/O error: {e}"),
            PgmError::Format(msg) => write!(f, "invalid PGM: {msg}"),
        }
    }
}

impl std::error::Error for PgmError {}

impl From<io::Error> for PgmError {
    fn from(e: io::Error) -> Self {
        PgmError::Io(e)
    }
}

/// Encodes an image as a binary (`P5`) PGM byte vector.
pub fn encode_p5(img: &GrayImage) -> Vec<u8> {
    let header = format!("P5\n{} {}\n255\n", img.width(), img.height());
    let mut out = Vec::with_capacity(header.len() + img.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(img.as_slice());
    out
}

/// Encodes an image as an ASCII (`P2`) PGM string.
pub fn encode_p2(img: &GrayImage) -> String {
    let mut out = format!("P2\n{} {}\n255\n", img.width(), img.height());
    for y in 0..img.height() {
        let row: Vec<String> = img.row(y).iter().map(|p| p.to_string()).collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    out
}

/// Writes a binary PGM file to `path`.
pub fn write_pgm(img: &GrayImage, path: impl AsRef<Path>) -> Result<(), PgmError> {
    let mut f = fs::File::create(path)?;
    f.write_all(&encode_p5(img))?;
    Ok(())
}

/// Decodes a P2 or P5 PGM byte buffer.
pub fn decode(bytes: &[u8]) -> Result<GrayImage, PgmError> {
    let mut cursor = 0usize;
    let magic = read_token(bytes, &mut cursor)
        .ok_or_else(|| PgmError::Format("missing magic number".into()))?;
    let binary = match magic.as_str() {
        "P5" => true,
        "P2" => false,
        other => return Err(PgmError::Format(format!("unsupported magic '{other}'"))),
    };

    let width = read_number(bytes, &mut cursor)?;
    let height = read_number(bytes, &mut cursor)?;
    let maxval = read_number(bytes, &mut cursor)?;
    if width == 0 || height == 0 {
        return Err(PgmError::Format("zero dimension".into()));
    }
    if maxval == 0 || maxval > 255 {
        return Err(PgmError::Format(format!("unsupported maxval {maxval}")));
    }

    // The header comes from outside the program: size everything with
    // checked arithmetic and never reserve more than the input could fill.
    let npix = width
        .checked_mul(height)
        .ok_or_else(|| PgmError::Format(format!("{width}x{height} pixels overflow")))?;
    let above_maxval =
        |sample| PgmError::Format(format!("sample {sample} exceeds maxval {maxval}"));
    let data = if binary {
        // A single whitespace byte separates the header from the raster.
        let start = cursor + 1;
        let end = start
            .checked_add(npix)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| PgmError::Format("truncated raster".into()))?;
        let raster = &bytes[start..end];
        if maxval < 255 {
            if let Some(&sample) = raster.iter().find(|&&s| usize::from(s) > maxval) {
                return Err(above_maxval(usize::from(sample)));
            }
        }
        raster.to_vec()
    } else {
        let mut data = Vec::with_capacity(npix.min(bytes.len() - cursor));
        for _ in 0..npix {
            let sample = read_number(bytes, &mut cursor)?;
            if sample > maxval {
                return Err(above_maxval(sample));
            }
            // maxval <= 255, so the sample fits.
            data.push(sample as u8);
        }
        data
    };
    Ok(GrayImage::from_vec(width, height, data))
}

/// Reads a PGM file from `path`.
pub fn read_pgm(path: impl AsRef<Path>) -> Result<GrayImage, PgmError> {
    let bytes = fs::read(path)?;
    decode(&bytes)
}

fn read_token(bytes: &[u8], cursor: &mut usize) -> Option<String> {
    // Skip whitespace and '#' comments.
    loop {
        while *cursor < bytes.len() && bytes[*cursor].is_ascii_whitespace() {
            *cursor += 1;
        }
        if *cursor < bytes.len() && bytes[*cursor] == b'#' {
            while *cursor < bytes.len() && bytes[*cursor] != b'\n' {
                *cursor += 1;
            }
        } else {
            break;
        }
    }
    if *cursor >= bytes.len() {
        return None;
    }
    let start = *cursor;
    while *cursor < bytes.len() && !bytes[*cursor].is_ascii_whitespace() {
        *cursor += 1;
    }
    Some(String::from_utf8_lossy(&bytes[start..*cursor]).into_owned())
}

fn read_number(bytes: &[u8], cursor: &mut usize) -> Result<usize, PgmError> {
    let tok = read_token(bytes, cursor)
        .ok_or_else(|| PgmError::Format("unexpected end of header".into()))?;
    tok.parse::<usize>()
        .map_err(|_| PgmError::Format(format!("expected number, found '{tok}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn p5_round_trip() {
        let img = synth::shapes(32, 24, 3);
        let bytes = encode_p5(&img);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, img);
    }

    #[test]
    fn p2_round_trip() {
        let img = synth::gradient(16, 8);
        let text = encode_p2(&img);
        let back = decode(text.as_bytes()).expect("decode");
        assert_eq!(back, img);
    }

    #[test]
    fn decode_handles_comments() {
        let text = "P2\n# a comment line\n2 2\n# another\n255\n0 10\n20 30\n";
        let img = decode(text.as_bytes()).expect("decode");
        assert_eq!(img.as_slice(), &[0, 10, 20, 30]);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        assert!(matches!(
            decode(b"P7\n2 2\n255\n"),
            Err(PgmError::Format(_))
        ));
    }

    #[test]
    fn decode_rejects_truncated_raster() {
        let mut bytes = b"P5\n4 4\n255\n".to_vec();
        bytes.extend_from_slice(&[0u8; 7]); // needs 16
        assert!(matches!(decode(&bytes), Err(PgmError::Format(_))));
    }

    #[test]
    fn ascii_dimensions_beyond_the_body_are_an_error_not_an_abort() {
        // 10^12 pixels announced, three present: the decoder must not try to
        // reserve the announced raster up front.
        assert!(matches!(
            decode(b"P2 1000000 1000000 255\n1 2 3"),
            Err(PgmError::Format(_))
        ));
    }

    #[test]
    fn dimensions_whose_product_overflows_are_rejected() {
        assert!(matches!(
            decode(b"P5 4294967296 4294967296 255\n"),
            Err(PgmError::Format(_))
        ));
        assert!(matches!(
            decode(b"P2 4294967296 4294967296 255\n0"),
            Err(PgmError::Format(_))
        ));
    }

    #[test]
    fn samples_above_maxval_are_rejected() {
        assert!(matches!(
            decode(b"P2 2 1 255\n300 1"),
            Err(PgmError::Format(_))
        ));
        assert!(matches!(
            decode(b"P2 2 1 100\n101 0"),
            Err(PgmError::Format(_))
        ));
        assert!(matches!(
            decode(b"P5 2 1 100\n\x00\x65"),
            Err(PgmError::Format(_))
        ));
        let at_maxval = decode(b"P5 2 1 100\n\x00\x64").expect("decode");
        assert_eq!(at_maxval.as_slice(), &[0, 100]);
    }

    #[test]
    fn decode_rejects_zero_dimension() {
        assert!(matches!(
            decode(b"P2\n0 4\n255\n"),
            Err(PgmError::Format(_))
        ));
    }

    #[test]
    fn file_round_trip() {
        let img = synth::checkerboard(10, 10, 2);
        let dir = std::env::temp_dir();
        let path = dir.join("ehw_image_pgm_roundtrip_test.pgm");
        write_pgm(&img, &path).expect("write");
        let back = read_pgm(&path).expect("read");
        assert_eq!(back, img);
        let _ = std::fs::remove_file(&path);
    }
}
