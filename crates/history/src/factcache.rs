//! Sidecar cache of per-record derived facts.
//!
//! Corpus-wide analysis (`histpc lint corpus`) lowers every stored
//! record into a small fact table; re-deriving those facts for a
//! million-run store on every analysis would dominate the pass time.
//! The [`FactCache`] persists the derived payload per record, keyed on
//! the record's relative path plus the same FNV-64 payload checksum the
//! store manifest already tracks — so a re-analysis only re-derives
//! facts for records whose bytes actually changed (O(changed records)).
//!
//! The cache is *strictly advisory*: it lives in a single root-level
//! `FACTS` file (a sidecar [`crate::fsck`] only names as skipped), a
//! damaged or missing file simply means a cold re-derivation, and saves
//! are atomic (tmp + rename), taken under the store lock, and
//! best-effort. The payload format is opaque to this crate — callers
//! (the lint crate) define their own fact serialization and version it
//! themselves via the `key` they pass.

use std::collections::{BTreeMap, BTreeSet};

/// The `len` bytes after the line ending at `line_end`, which must be
/// followed by a newline: a length-prefixed payload of `FACTS` or
/// `TRUST`.
pub(crate) fn payload_after(text: &str, line_end: usize, len: usize) -> Option<&str> {
    let end = (line_end + 1).checked_add(len)?;
    let payload = text.get(line_end + 1..end)?;
    (text.as_bytes().get(end) == Some(&b'\n')).then_some(payload)
}

/// The sidecar file name, directly under the store root.
pub const FACTCACHE_FILE: &str = "FACTS";

/// First line of the sidecar file.
pub const FACTCACHE_HEADER: &str = "histpc-factcache v1";

/// A persistent map of `rel_path -> (key, payload)`, loaded and saved
/// by [`ExecutionStore::load_facts`](crate::ExecutionStore::load_facts)
/// and [`ExecutionStore::save_facts`](crate::ExecutionStore::save_facts).
///
/// `key` is an opaque 64-bit cache key chosen by the caller (typically
/// the record's payload checksum XOR a fingerprint of the derivation
/// options); a lookup only hits when the stored key matches exactly.
#[derive(Debug, Clone, Default)]
pub struct FactCache {
    entries: BTreeMap<String, (u64, String)>,
    /// True once an entry was added, replaced or dropped.
    dirty: bool,
}

impl FactCache {
    /// An empty cache.
    pub fn new() -> FactCache {
        FactCache::default()
    }

    /// The cached payload for a record, if present *and* keyed with the
    /// same `key` (stale entries miss).
    pub fn lookup(&self, rel_path: &str, key: u64) -> Option<&str> {
        match self.entries.get(rel_path) {
            Some((k, payload)) if *k == key => Some(payload),
            _ => None,
        }
    }

    /// Inserts (or replaces) the cached payload for a record.
    pub fn insert(&mut self, rel_path: &str, key: u64, payload: String) {
        self.entries.insert(rel_path.to_string(), (key, payload));
        self.dirty = true;
    }

    /// Drops entries for records that no longer exist, so deleted runs
    /// do not pin stale facts forever.
    pub fn retain_paths(&mut self, live: &BTreeSet<String>) {
        let before = self.entries.len();
        self.entries.retain(|rel, _| live.contains(rel));
        self.dirty |= self.entries.len() != before;
    }

    /// True when the entries differ from what was loaded or parsed —
    /// an unchanged cache need not be saved again.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the cache. Entries are length-prefixed so payloads
    /// may contain anything (including blank lines), and emitted in
    /// `BTreeMap` order so equal caches serialize identically.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(FACTCACHE_HEADER);
        out.push('\n');
        for (rel, (key, payload)) in &self.entries {
            out.push_str(&format!("entry {key:016x} {} {rel}\n", payload.len()));
            out.push_str(payload);
            out.push('\n');
        }
        out
    }

    /// Parses a serialized cache. Any structural damage returns `None`
    /// (the caller treats it as empty).
    pub fn parse(text: &str) -> Option<FactCache> {
        let rest = text.strip_prefix(FACTCACHE_HEADER)?.strip_prefix('\n')?;
        let mut entries = BTreeMap::new();
        let mut pos = 0;
        while pos < rest.len() {
            let line_end = rest[pos..].find('\n').map(|i| pos + i)?;
            let line = &rest[pos..line_end];
            let meta = line.strip_prefix("entry ")?;
            let mut parts = meta.splitn(3, ' ');
            let key = u64::from_str_radix(parts.next()?, 16).ok()?;
            let len: usize = parts.next()?.parse().ok()?;
            let rel = parts.next()?.to_string();
            let payload = payload_after(rest, line_end, len)?.to_string();
            entries.insert(rel, (key, payload));
            pos = line_end + len + 2;
        }
        Some(FactCache {
            entries,
            dirty: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionStore;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "histpc-factcache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrips_payloads_with_newlines_and_blank_lines() {
        let mut c = FactCache::new();
        c.insert("app/run-1.record", 0xdead_beef, "line1\n\nline3".into());
        c.insert("app/run-2.record", 7, String::new());
        let parsed = FactCache::parse(&c.to_text()).unwrap();
        assert_eq!(
            parsed.lookup("app/run-1.record", 0xdead_beef),
            Some("line1\n\nline3")
        );
        assert_eq!(parsed.lookup("app/run-2.record", 7), Some(""));
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn stale_key_misses() {
        let mut c = FactCache::new();
        c.insert("a/b.record", 1, "facts".into());
        assert_eq!(c.lookup("a/b.record", 1), Some("facts"));
        assert_eq!(c.lookup("a/b.record", 2), None);
        assert_eq!(c.lookup("a/c.record", 1), None);
    }

    #[test]
    fn damaged_text_parses_to_none_and_load_tolerates_anything() {
        assert!(FactCache::parse("not a factcache").is_none());
        assert!(FactCache::parse("histpc-factcache v1\nentry zz 3 a\nxyz\n").is_none());
        // Truncated payload.
        assert!(
            FactCache::parse("histpc-factcache v1\nentry 0000000000000001 99 a/b\nshort\n")
                .is_none()
        );
        let dir = scratch("damaged");
        std::fs::write(dir.join(FACTCACHE_FILE), "garbage").unwrap();
        assert!(ExecutionStore::open(&dir).unwrap().load_facts().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_and_load_roundtrip_and_retain() {
        let dir = scratch("roundtrip");
        let mut c = FactCache::new();
        c.insert("app/one.record", 11, "one".into());
        c.insert("app/two.record", 22, "two".into());
        let store = ExecutionStore::open(&dir).unwrap();
        store.save_facts(&c).unwrap();
        let mut back = store.load_facts();
        assert_eq!(back.lookup("app/two.record", 22), Some("two"));
        let live: BTreeSet<String> = ["app/one.record".to_string()].into_iter().collect();
        back.retain_paths(&live);
        assert_eq!(back.len(), 1);
        assert_eq!(back.lookup("app/two.record", 22), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
