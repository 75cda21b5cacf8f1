//! The store manifest: format generation plus an index of every file.
//!
//! `<root>/MANIFEST` is rewritten (atomically) after every committed
//! mutation:
//!
//! ```text
//! histpc-store v1
//! generation 17
//! file 8d2f6a901bc4e713 poisson/a1.record
//! file 03bb5e0f1a2c9d84 poisson/a1.shg
//! ```
//!
//! `generation` counts committed mutations — a cheap "did anything
//! change" signal for tooling. Each `file` line records the FNV-1a 64
//! checksum of the file's *payload* (the text inside the frame for
//! framed records, the whole file for plain artifacts), so `fsck` can
//! detect out-of-band edits and drift between the index and the
//! directory. A store with no manifest is the v0 loose-file layout;
//! it stays loadable and `histpc store migrate` upgrades it in place.

use crate::durable::{self, Kind, Vfs};
use crate::frame;
use histpc_resources::fnv64;
use std::io;
use std::path::Path;

/// Header line of the manifest.
pub const MANIFEST_HEADER: &str = "histpc-store v1";

/// File name of the manifest inside the store root.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// One indexed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// FNV-1a 64 checksum of the file's payload.
    pub fnv: u64,
    /// Path relative to the store root, `/`-separated
    /// (`<app>/<label>.<ext>`).
    pub rel_path: String,
}

/// Parsed manifest contents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Committed-mutation counter.
    pub generation: u64,
    /// Indexed files, kept sorted by `rel_path`.
    pub entries: Vec<ManifestEntry>,
}

/// What loading `<root>/MANIFEST` found.
#[derive(Debug)]
pub enum ManifestState {
    /// No manifest — a v0 loose-file store (or an empty directory).
    Missing,
    /// A manifest file exists but does not parse; recovery rebuilds it.
    Damaged(String),
    /// A valid manifest.
    Loaded(Manifest),
}

impl Manifest {
    /// Serializes to the text form.
    pub fn to_text(&self) -> String {
        let mut out = format!("{MANIFEST_HEADER}\ngeneration {}\n", self.generation);
        for e in &self.entries {
            out.push_str(&format!("file {:016x} {}\n", e.fnv, e.rel_path));
        }
        out
    }

    /// Parses the text form.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut lines = text.lines();
        match lines.next().map(str::trim) {
            Some(MANIFEST_HEADER) => {}
            other => return Err(format!("bad manifest header {other:?}")),
        }
        let mut m = Manifest::default();
        let mut saw_generation = false;
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(g) = line.strip_prefix("generation ") {
                m.generation = g
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad generation {g:?}"))?;
                saw_generation = true;
            } else if let Some(rest) = line.strip_prefix("file ") {
                let (fnv, rel) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("malformed file line {line:?}"))?;
                let fnv =
                    u64::from_str_radix(fnv, 16).map_err(|_| format!("bad checksum {fnv:?}"))?;
                if rel.is_empty() {
                    return Err(format!("malformed file line {line:?}"));
                }
                m.entries.push(ManifestEntry {
                    fnv,
                    rel_path: rel.to_string(),
                });
            } else {
                return Err(format!("unknown manifest line {line:?}"));
            }
        }
        if !saw_generation {
            return Err("missing generation line".into());
        }
        m.entries.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(m)
    }

    /// Loads `<root>/MANIFEST`, distinguishing missing from damaged.
    pub(crate) fn load(fs: &dyn Vfs, root: &Path) -> io::Result<ManifestState> {
        Ok(
            match durable::read_tolerant(fs, &root.join(MANIFEST_FILE), false, Manifest::parse)? {
                None => ManifestState::Missing,
                Some(Err(reason)) => ManifestState::Damaged(reason),
                Some(Ok(m)) => ManifestState::Loaded(m),
            },
        )
    }

    /// Installs `<root>/MANIFEST` atomically.
    pub(crate) fn save(&self, fs: &dyn Vfs, root: &Path) -> io::Result<()> {
        durable::install(
            fs,
            &root.join(MANIFEST_FILE),
            self.to_text().as_bytes(),
            false,
        )
    }

    /// Index of the first entry for `rel_path`, or where one would be
    /// inserted. `entries` is sorted, so this is a binary search.
    fn position(&self, rel_path: &str) -> Result<usize, usize> {
        let at = self
            .entries
            .partition_point(|e| e.rel_path.as_str() < rel_path);
        match self.entries.get(at) {
            Some(e) if e.rel_path == rel_path => Ok(at),
            _ => Err(at),
        }
    }

    /// Records (or updates) the checksum for `rel_path`.
    pub fn upsert(&mut self, rel_path: &str, fnv: u64) {
        match self.position(rel_path) {
            Ok(at) => self.entries[at].fnv = fnv,
            Err(at) => self.entries.insert(
                at,
                ManifestEntry {
                    fnv,
                    rel_path: rel_path.to_string(),
                },
            ),
        }
    }

    /// Drops the entry for `rel_path` (every copy a hand-edited file
    /// may hold; no-op if absent).
    pub fn remove(&mut self, rel_path: &str) {
        if let Ok(at) = self.position(rel_path) {
            let copies = self.entries[at..]
                .iter()
                .take_while(|e| e.rel_path == rel_path)
                .count();
            self.entries.drain(at..at + copies);
        }
    }

    /// The recorded checksum for `rel_path`.
    pub fn lookup(&self, rel_path: &str) -> Option<u64> {
        self.position(rel_path).ok().map(|at| self.entries[at].fnv)
    }

    /// Rebuilds the index from every data file of the store (frame
    /// payload when framed, whole file otherwise). The generation is
    /// preserved by the caller.
    pub(crate) fn rebuild_index(&mut self, fs: &dyn Vfs, root: &Path) -> io::Result<()> {
        self.entries.clear();
        for e in durable::walk(fs, root)? {
            if e.kind != Kind::Data {
                continue;
            }
            let bytes = fs.read(&root.join(&e.rel))?;
            let text = String::from_utf8_lossy(&bytes);
            let payload_fnv = match frame::decode(&text) {
                Ok(d) => fnv64(d.payload().as_bytes()),
                // Damaged frame: index the raw bytes so the entry at
                // least pins current contents; fsck flags the damage.
                Err(_) => fnv64(text.as_bytes()),
            };
            self.entries.push(ManifestEntry {
                fnv: payload_fnv,
                rel_path: e.rel,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::RealFs;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("histpc-manifest-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn text_roundtrip() {
        let mut m = Manifest {
            generation: 17,
            entries: Vec::new(),
        };
        m.upsert("poisson/a1.record", 0x8d2f);
        m.upsert("ocean/o1.record", 0x03bb);
        let parsed = Manifest::parse(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.entries[0].rel_path, "ocean/o1.record"); // sorted
        assert_eq!(parsed.lookup("poisson/a1.record"), Some(0x8d2f));
        assert_eq!(parsed.lookup("nope"), None);
    }

    #[test]
    fn parse_rejects_damage() {
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("histpc-store v1\n").is_err()); // no generation
        assert!(Manifest::parse("histpc-store v1\ngeneration x\n").is_err());
        assert!(Manifest::parse("histpc-store v1\ngeneration 1\nfile zz a\n").is_err());
        assert!(Manifest::parse("histpc-store v1\ngeneration 1\nwhat 1\n").is_err());
    }

    #[test]
    fn load_distinguishes_missing_and_damaged() {
        let root = scratch("states");
        assert!(matches!(
            Manifest::load(&RealFs, &root).unwrap(),
            ManifestState::Missing
        ));
        std::fs::write(root.join(MANIFEST_FILE), "garbage\n").unwrap();
        assert!(matches!(
            Manifest::load(&RealFs, &root).unwrap(),
            ManifestState::Damaged(_)
        ));
        let m = Manifest {
            generation: 3,
            entries: Vec::new(),
        };
        m.save(&RealFs, &root).unwrap();
        match Manifest::load(&RealFs, &root).unwrap() {
            ManifestState::Loaded(l) => assert_eq!(l.generation, 3),
            other => panic!("expected loaded, got {other:?}"),
        }
        assert!(!root.join("MANIFEST.tmp").exists());
    }

    #[test]
    fn upsert_remove() {
        let mut m = Manifest::default();
        m.upsert("a/x.record", 1);
        m.upsert("a/x.record", 2);
        assert_eq!(m.entries.len(), 1);
        assert_eq!(m.lookup("a/x.record"), Some(2));
        m.remove("a/x.record");
        assert!(m.entries.is_empty());
    }

    #[test]
    fn rebuild_skips_tmp_and_corrupt() {
        let root = scratch("rebuild");
        let app = root.join("poisson");
        std::fs::create_dir_all(&app).unwrap();
        std::fs::write(app.join("a1.record"), frame::encode("payload\n")).unwrap();
        std::fs::write(app.join("a1.shg"), "graph\n").unwrap();
        std::fs::write(app.join("a2.record.tmp"), "half").unwrap();
        std::fs::write(app.join("a3.record.corrupt"), "bad").unwrap();
        // Daemon control state is not data: LEASES/ never indexes.
        let leases = root.join(crate::lease::LEASE_DIR);
        std::fs::create_dir_all(&leases).unwrap();
        std::fs::write(leases.join("t1--x-00000000.lease"), "lease").unwrap();
        let mut m = Manifest::default();
        m.rebuild_index(&RealFs, &root).unwrap();
        let rels: Vec<&str> = m.entries.iter().map(|e| e.rel_path.as_str()).collect();
        assert_eq!(rels, vec!["poisson/a1.record", "poisson/a1.shg"]);
        assert_eq!(m.lookup("poisson/a1.record"), Some(fnv64(b"payload\n")));
        assert_eq!(m.lookup("poisson/a1.shg"), Some(fnv64(b"graph\n")));
    }
}
