//! Minimal standard-alphabet base64 (RFC 4648, with `=` padding).
//!
//! Hand-rolled like the rest of the wire stack: the vendored dependency set
//! has no encoder, and the only consumer is the compact PGM image transport
//! of `POST /jobs` (`pgm_base64` bodies), so ~60 lines beat a new
//! dependency.  No line wrapping, no URL-safe variant — exactly the format
//! `base64(1)` and every HTTP client library produce by default.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard base64 with padding.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(triple >> 18) as usize & 0x3f] as char);
        out.push(ALPHABET[(triple >> 12) as usize & 0x3f] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(triple >> 6) as usize & 0x3f] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[triple as usize & 0x3f] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes standard base64 (padding required for the final partial group;
/// ASCII whitespace is ignored, anything else is an error).
pub(crate) fn decode(text: &str) -> Result<Vec<u8>, String> {
    fn value(byte: u8) -> Result<u32, String> {
        match byte {
            b'A'..=b'Z' => Ok(u32::from(byte - b'A')),
            b'a'..=b'z' => Ok(u32::from(byte - b'a') + 26),
            b'0'..=b'9' => Ok(u32::from(byte - b'0') + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            other => Err(format!("invalid base64 byte 0x{other:02x}")),
        }
    }

    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let mut group = [0u8; 4];
    let mut filled = 0usize;
    let mut padding = 0usize;
    for &byte in text.as_bytes() {
        if byte.is_ascii_whitespace() {
            continue;
        }
        if byte == b'=' {
            padding += 1;
            group[filled] = b'A';
            filled += 1;
        } else {
            if padding > 0 {
                return Err("base64 data after padding".to_string());
            }
            group[filled] = byte;
            filled += 1;
        }
        if filled == 4 {
            let quad = (value(group[0])? << 18)
                | (value(group[1])? << 12)
                | (value(group[2])? << 6)
                | value(group[3])?;
            out.push((quad >> 16) as u8);
            if padding < 2 {
                out.push((quad >> 8) as u8);
            }
            if padding < 1 {
                out.push(quad as u8);
            }
            filled = 0;
        }
    }
    if filled != 0 {
        return Err("base64 length is not a multiple of 4".to_string());
    }
    if padding > 2 {
        return Err("too much base64 padding".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_test_vectors() {
        for (plain, encoded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain.as_bytes()), encoded);
            assert_eq!(decode(encoded).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn every_byte_round_trips() {
        let bytes: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        assert_eq!(decode(&encode(&bytes)).unwrap(), bytes);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(decode("Zm9!").is_err(), "invalid alphabet byte");
        assert!(decode("Zm9").is_err(), "truncated group");
        assert!(decode("Zg=a").is_err(), "data after padding");
    }

    #[test]
    fn whitespace_is_ignored() {
        assert_eq!(decode("Zm9v\nYmFy\n").unwrap(), b"foobar");
    }
}
