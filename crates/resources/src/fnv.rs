//! FNV-1a 64, the workspace's one content hash: store frame and
//! manifest checksums, name and fact-cache signatures, search
//! checkpoint digests and supervisor backoff jitter all use it, so a
//! value computed by one crate matches the same bytes hashed by another.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64 hasher: [`Fnv64::write`] any number of byte
/// strings, then [`Fnv64::finish`]; the result equals [`fnv64`] of
/// their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Folds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of a byte string.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv64::default();
        h.write(b"histpc-");
        h.write(b"frame");
        assert_eq!(h.finish(), fnv64(b"histpc-frame"));
    }
}
