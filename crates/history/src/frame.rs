//! Checksum framing for stored record files.
//!
//! A framed file carries a one-line header in front of the payload:
//!
//! ```text
//! histpc-frame v1 <payload-bytes> <fnv64-hex>
//! histpc-record v1
//! app poisson
//! ...
//! ```
//!
//! The header states the exact payload length in bytes and the FNV-1a
//! 64-bit checksum of the payload, so a torn or bit-flipped write is
//! detected on read instead of surfacing as a confusing parse error (or
//! worse, parsing to a silently wrong record). Files written before
//! framing existed (the v0 loose-file layout) have no header; they decode
//! as [`Decoded::Legacy`] and stay loadable until `histpc store migrate`
//! rewrites them.

use histpc_resources::fnv64;
use std::fmt;

/// First token of a frame header line.
pub const FRAME_MAGIC: &str = "histpc-frame";

/// Full header prefix for the current frame version.
pub const FRAME_HEADER_V1: &str = "histpc-frame v1";

/// Why a framed file failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The header line starts with the frame magic but is not a valid
    /// `histpc-frame v1 <len> <fnv>` header (usually a torn write that
    /// cut inside the header itself).
    BadHeader {
        /// What the header line looked like.
        header: String,
    },
    /// The payload is shorter (or longer) than the header promised.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum the header recorded.
        expected: u64,
        /// Checksum of the bytes on disk.
        actual: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadHeader { header } => {
                write!(f, "damaged frame header {header:?}")
            }
            FrameError::Truncated { expected, actual } => write!(
                f,
                "frame truncated: header promises {expected} payload bytes, found {actual}"
            ),
            FrameError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch: header says {expected:016x}, payload hashes to {actual:016x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Result of decoding a store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// A `histpc-frame v1` file whose length and checksum verified; the
    /// payload is the original text.
    Framed(String),
    /// A pre-framing (v0) file: no header, the whole file is the
    /// payload. Loadable, but carries no integrity metadata — `fsck`
    /// flags these and `migrate` upgrades them.
    Legacy(String),
}

impl Decoded {
    /// The payload text, however it was stored.
    pub fn payload(&self) -> &str {
        match self {
            Decoded::Framed(p) | Decoded::Legacy(p) => p,
        }
    }

    /// True if the file carried (and passed) a checksum frame.
    pub fn is_framed(&self) -> bool {
        matches!(self, Decoded::Framed(_))
    }
}

/// Wraps `payload` in a `histpc-frame v1` header.
pub fn encode(payload: &str) -> String {
    format!(
        "{FRAME_HEADER_V1} {} {:016x}\n{payload}",
        payload.len(),
        fnv64(payload.as_bytes())
    )
}

/// Decodes a store file: verifies the frame when one is present, passes
/// legacy files through untouched. A file whose first line starts with
/// the frame magic but fails verification is an integrity error — never
/// silently treated as legacy text.
pub fn decode(text: &str) -> Result<Decoded, FrameError> {
    if !text.starts_with(FRAME_MAGIC) {
        return Ok(Decoded::Legacy(text.to_string()));
    }
    let (header, payload) = match text.split_once('\n') {
        Some((h, p)) => (h, p),
        // Torn so early the header line itself has no newline.
        None => (text, ""),
    };
    let bad = || FrameError::BadHeader {
        header: header.to_string(),
    };
    let rest = header.strip_prefix(FRAME_HEADER_V1).ok_or_else(bad)?;
    let mut words = rest.split_whitespace();
    let expected_len: usize = words.next().and_then(|w| w.parse().ok()).ok_or_else(bad)?;
    let expected_fnv_word = words.next().ok_or_else(bad)?;
    if words.next().is_some() || expected_fnv_word.len() != 16 {
        return Err(bad());
    }
    let expected_fnv = u64::from_str_radix(expected_fnv_word, 16).map_err(|_| bad())?;
    if payload.len() != expected_len {
        return Err(FrameError::Truncated {
            expected: expected_len,
            actual: payload.len(),
        });
    }
    let actual_fnv = fnv64(payload.as_bytes());
    if actual_fnv != expected_fnv {
        return Err(FrameError::ChecksumMismatch {
            expected: expected_fnv,
            actual: actual_fnv,
        });
    }
    Ok(Decoded::Framed(payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let payload = "histpc-record v1\napp poisson\nlabel a1\n";
        let framed = encode(payload);
        assert!(framed.starts_with("histpc-frame v1 "));
        assert_eq!(decode(&framed).unwrap(), Decoded::Framed(payload.into()));
        assert_eq!(decode(&framed).unwrap().payload(), payload);
    }

    #[test]
    fn legacy_text_passes_through() {
        let text = "histpc-record v1\napp poisson\n";
        let d = decode(text).unwrap();
        assert!(!d.is_framed());
        assert_eq!(d.payload(), text);
    }

    #[test]
    fn empty_payload_frames() {
        let framed = encode("");
        assert_eq!(decode(&framed).unwrap(), Decoded::Framed(String::new()));
    }

    #[test]
    fn truncation_is_detected_at_every_offset() {
        let framed = encode("histpc-record v1\napp poisson\nlabel a1\n");
        for cut in 0..framed.len() {
            let torn = &framed[..cut];
            if !torn.is_empty() && torn.starts_with(FRAME_MAGIC) {
                assert!(decode(torn).is_err(), "cut at byte {cut} decoded: {torn:?}");
            }
        }
        // The untorn frame still decodes.
        assert!(decode(&framed).is_ok());
    }

    #[test]
    fn flipped_byte_is_a_checksum_mismatch() {
        let payload = "histpc-record v1\napp poisson\n";
        let mut framed = encode(payload).into_bytes();
        let n = framed.len();
        framed[n - 2] ^= 0x01;
        let text = String::from_utf8(framed).unwrap();
        assert!(matches!(
            decode(&text),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }
}
