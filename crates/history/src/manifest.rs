//! The store manifest: format generation plus an index of every file.
//!
//! `<root>/MANIFEST` is the index as of its generation, a checkpoint
//! that `<root>/JOURNAL` ([`journal`](crate::journal)) extends:
//!
//! ```text
//! histpc-store v1
//! generation 17
//! file 8d2f6a901bc4e713 poisson/a1.record
//! file 03bb5e0f1a2c9d84 poisson/a1.shg
//! ```
//!
//! Readers see the manifest plus the journal's committed entries
//! ([`load_view`]); a fold, run by a mutation once the journal passes a
//! quarter of the manifest, writes that view back and resets the
//! journal. `generation` counts committed mutations — a cheap "did
//! anything change" signal for tooling — and a fold keeps it. Each
//! `file` line records the FNV-1a 64 checksum of the file's *payload*
//! (the text inside the frame for framed records, the whole file for
//! plain artifacts), so `fsck` can detect out-of-band edits and drift
//! between the index and the directory. A store with no manifest is the
//! v0 loose-file layout; it stays loadable and `histpc store migrate`
//! upgrades it in place.

use crate::durable::{self, Kind, Vfs};
use crate::frame;
use crate::journal::{self, JournalEntry, JournalState, JOURNAL_FILE};
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

/// The store's index: `<root>/MANIFEST` extended by the committed
/// entries of `<root>/JOURNAL`. The journal is read first: a fold that
/// lands between the two reads installs a manifest of another
/// generation, which holds those entries already.
pub(crate) fn load_view(fs: &dyn Vfs, root: &Path) -> io::Result<ManifestState> {
    let journal = match fs.read(&root.join(JOURNAL_FILE)) {
        Ok(bytes) => journal::parse(&bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => JournalState::default(),
        Err(e) => return Err(e),
    };
    Ok(match Manifest::load(fs, root)? {
        ManifestState::Loaded(mut m) => {
            m.extend(&journal);
            ManifestState::Loaded(m)
        }
        other => other,
    })
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

    /// The generation `<root>/MANIFEST` names on its second line, where
    /// [`Manifest::save`] writes it; `None` when the file is missing or
    /// laid out otherwise. Reads the first line or two only.
    pub(crate) fn head_generation(fs: &dyn Vfs, root: &Path) -> io::Result<Option<u64>> {
        // The header, "generation " and a 20-digit u64, with newlines.
        let head = match fs.read_at(&root.join(MANIFEST_FILE), 0, 64) {
            Ok(head) => head,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let text = String::from_utf8_lossy(&head);
        let generation = |text: &str| {
            let (header, rest) = text.split_once('\n')?;
            let (line, _) = rest.split_once('\n')?;
            (header == MANIFEST_HEADER).then_some(())?;
            line.strip_prefix("generation ")?.parse().ok()
        };
        Ok(generation(&text))
    }

    /// Extends the index by `journal`'s committed entries when the
    /// journal extends this manifest (its base is this generation):
    /// one merge, and one generation per entry. An entry replaces every
    /// line of its path.
    pub fn extend(&mut self, journal: &JournalState) {
        if journal.base != Some(self.generation) {
            return;
        }
        let mut delta = Vec::new();
        for e in journal.committed() {
            let (ext, app, label, fnv) = match e {
                JournalEntry::Put {
                    fnv,
                    ext,
                    app,
                    label,
                } => (ext, app, label, Some(*fnv)),
                JournalEntry::Del { ext, app, label } => (ext, app, label, None),
                JournalEntry::Ok => continue,
            };
            let mut rel = String::with_capacity(app.len() + label.len() + ext.len() + 2);
            for part in [app.as_str(), "/", label, ".", ext] {
                rel.push_str(part);
            }
            delta.push((rel, fnv));
        }
        if delta.is_empty() {
            return;
        }
        self.generation += delta.len() as u64;
        // The last entry of each path wins: newest first, a stable sort,
        // and the first of each path kept.
        delta.reverse();
        delta.sort_by(|a, b| a.0.cmp(&b.0));
        delta.dedup_by(|a, b| a.0 == b.0);
        let old = std::mem::take(&mut self.entries);
        let mut delta = delta.into_iter().peekable();
        let mut out = Vec::with_capacity(old.len() + delta.len());
        let line =
            |(rel_path, fnv): (String, Option<u64>)| fnv.map(|fnv| ManifestEntry { fnv, rel_path });
        for e in old {
            while let Some(d) = delta.next_if(|(rel, _)| *rel < e.rel_path) {
                out.extend(line(d));
            }
            // An entry the journal rewrote or deleted is emitted from the
            // delta, once, in place of every line of its path.
            if delta.peek().is_none_or(|(rel, _)| *rel != e.rel_path) {
                out.push(e);
            }
        }
        out.extend(delta.filter_map(line));
        self.entries = out;
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

    /// The recorded checksum for `rel_path` (its first line's, should a
    /// hand-edited file hold several); a binary search.
    pub fn lookup(&self, rel_path: &str) -> Option<u64> {
        let at = self
            .entries
            .partition_point(|e| e.rel_path.as_str() < rel_path);
        let e = self.entries.get(at)?;
        (e.rel_path == rel_path).then_some(e.fnv)
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
        let m = Manifest::parse(
            "histpc-store v1\ngeneration 17\nfile 8d2f poisson/a1.record\nfile 03bb ocean/o1.record\n",
        )
        .unwrap();
        let parsed = Manifest::parse(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.generation, 17);
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
    fn head_generation_reads_the_saved_layout_only() {
        let root = scratch("head");
        let head = || Manifest::head_generation(&RealFs, &root).unwrap();
        assert_eq!(head(), None);
        for text in [
            "garbage\n",
            "histpc-store v1\ngeneration 12",
            "# x\ngeneration 1\n",
        ] {
            std::fs::write(root.join(MANIFEST_FILE), text).unwrap();
            assert_eq!(head(), None, "{text:?}");
        }
        let mut m = Manifest::parse("histpc-store v1\ngeneration 0\nfile 1 a/x.r\n").unwrap();
        for generation in [3, u64::MAX] {
            m.generation = generation;
            m.save(&RealFs, &root).unwrap();
            assert_eq!(head(), Some(generation));
        }
    }

    #[test]
    fn extend_merges_committed_entries_once() {
        use crate::journal::JournalEntry::{Del, Ok, Put};
        let m = Manifest::parse(
            "histpc-store v1\ngeneration 4\nfile 1 a/x.r\nfile 2 a/y.r\nfile 3 a/y.r\nfile 4 b/z.r\n",
        )
        .unwrap();
        let put = |label: &str, fnv| Put {
            fnv,
            ext: "r".into(),
            app: "a".into(),
            label: label.into(),
        };
        let del = |app: &str, label: &str| Del {
            ext: "r".into(),
            app: app.into(),
            label: label.into(),
        };
        let journal = JournalState {
            base: Some(4),
            // y rewritten twice, w added, z deleted, x's intent unsettled.
            entries: vec![
                put("y", 8),
                Ok,
                put("w", 5),
                Ok,
                put("x", 6),
                put("y", 9),
                Ok,
                del("b", "z"),
                Ok,
            ],
            torn: false,
        };
        let mut view = m.clone();
        view.extend(&journal);
        assert_eq!(view.generation, 8);
        assert_eq!(
            view.to_text(),
            "histpc-store v1\ngeneration 8\nfile 0000000000000005 a/w.r\n\
             file 0000000000000001 a/x.r\nfile 0000000000000009 a/y.r\n"
        );
        // A journal that extends another generation is folded already.
        let mut same = m.clone();
        same.extend(&JournalState {
            base: Some(3),
            ..journal
        });
        assert_eq!(same, m);
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
