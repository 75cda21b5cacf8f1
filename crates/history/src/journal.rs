//! Append-only write-ahead journal for store mutations, and the delta
//! that extends the store's manifest.
//!
//! Every mutation of an [`ExecutionStore`](crate::store::ExecutionStore)
//! appends an intent line to `<root>/JOURNAL` *before* touching any
//! record file, and an `ok` line once the file is installed or removed:
//!
//! ```text
//! histpc-journal v2 base 17
//! put 8d2f6a901bc4e713 record poisson a1
//! ok
//! del shg poisson a1
//! ok
//! put 1f00dd0912aa34cd record poisson a2
//! ```
//!
//! The header names the generation of the `MANIFEST` the journal
//! extends: the store's index is that manifest plus every committed
//! intent (one followed by its `ok`), at generation base + their count.
//! A base other than the manifest's (a fold cut short, or one whose
//! journal reset failed) or a `histpc-journal v1` header (its writer
//! rewrote the manifest per mutation) extends nothing: those entries
//! are in the manifest.
//!
//! An intent without its `ok` means the writer died mid-mutation (or
//! failed); recovery — on the next
//! [`open`](crate::store::ExecutionStore::open), or by the writer that
//! breaks the dead one's lock — rolls it forward or back by its payload
//! checksum. A torn trailing line parses as "no entry", which is
//! exactly what an unfinished append means.

use crate::durable::Vfs;
use std::io;
use std::path::{Path, PathBuf};

/// Header line of a journal that extends the manifest, up to the base
/// generation that follows it.
pub const JOURNAL_HEADER: &str = "histpc-journal v2 base ";

/// Header line of a journal whose committed entries are all in the
/// manifest already.
const FOLDED_HEADER: &str = "histpc-journal v1";

/// File name of the journal inside the store root.
pub const JOURNAL_FILE: &str = "JOURNAL";

/// One journal line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// Intent to write `<app>/<label>.<ext>` whose framed payload hashes
    /// to `fnv`.
    Put {
        /// FNV-1a 64 checksum of the payload being written.
        fnv: u64,
        /// File extension (`record`, `shg`, ...).
        ext: String,
        /// Application directory.
        app: String,
        /// Run label (may contain spaces; always the last field).
        label: String,
    },
    /// Intent to delete `<app>/<label>.<ext>`.
    Del {
        /// File extension.
        ext: String,
        /// Application directory.
        app: String,
        /// Run label.
        label: String,
    },
    /// The immediately preceding intent completed.
    Ok,
}

impl JournalEntry {
    /// The intent to write `<app>/<label>.<ext>` with payload checksum
    /// `fnv`.
    pub(crate) fn put(fnv: u64, ext: &str, app: &str, label: &str) -> JournalEntry {
        let [ext, app, label] = [ext, app, label].map(str::to_string);
        JournalEntry::Put {
            fnv,
            ext,
            app,
            label,
        }
    }

    /// The intent to delete `<app>/<label>.<ext>`.
    pub(crate) fn del(ext: &str, app: &str, label: &str) -> JournalEntry {
        let [ext, app, label] = [ext, app, label].map(str::to_string);
        JournalEntry::Del { ext, app, label }
    }

    /// `(ext, app, label)` of the file an intent names.
    fn target(&self) -> Option<(&str, &str, &str)> {
        match self {
            JournalEntry::Put {
                ext, app, label, ..
            }
            | JournalEntry::Del { ext, app, label } => Some((ext, app, label)),
            JournalEntry::Ok => None,
        }
    }

    fn to_line(&self) -> String {
        match self {
            JournalEntry::Put {
                fnv,
                ext,
                app,
                label,
            } => format!("put {fnv:016x} {ext} {app} {label}"),
            JournalEntry::Del { ext, app, label } => format!("del {ext} {app} {label}"),
            JournalEntry::Ok => "ok".to_string(),
        }
    }

    fn parse(line: &str) -> Option<JournalEntry> {
        let line = line.trim_end();
        if line == "ok" {
            return Some(JournalEntry::Ok);
        }
        let (verb, rest) = line.split_once(' ')?;
        let put = verb == "put";
        let mut words = rest.splitn(if put { 4 } else { 3 }, ' ');
        let fnv = if put {
            Some(u64::from_str_radix(words.next()?, 16).ok()?)
        } else {
            None
        };
        let [ext, app, label] = [words.next()?, words.next()?, words.next()?].map(str::to_string);
        if ext.is_empty() || app.is_empty() || label.is_empty() {
            return None;
        }
        match (verb, fnv) {
            ("put", Some(fnv)) => Some(JournalEntry::Put {
                fnv,
                ext,
                app,
                label,
            }),
            ("del", None) => Some(JournalEntry::Del { ext, app, label }),
            _ => None,
        }
    }
}

/// What a journal read found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JournalState {
    /// The manifest generation the journal extends; `None` when its
    /// committed entries are already in the manifest (a v1 header, or
    /// a journal that is missing or damaged).
    pub base: Option<u64>,
    /// Entries that parsed, in file order.
    pub entries: Vec<JournalEntry>,
    /// True if any line failed to parse (a torn append or external
    /// damage). Parsing stops at the first such line.
    pub torn: bool,
}

impl JournalState {
    /// Every intent paired with the `ok` right after it, in order.
    pub fn committed(&self) -> impl Iterator<Item = &JournalEntry> {
        self.entries
            .windows(2)
            .filter(|w| w[0] != JournalEntry::Ok && w[1] == JournalEntry::Ok)
            .map(|w| &w[0])
    }

    /// Every intent that never got its `ok` — the writer died (or
    /// failed) between the two — and whose file no later committed
    /// intent rewrote or deleted. Writers are serialized by the store
    /// lock, so an intent followed by anything but `ok` never got it.
    pub fn unsettled(&self) -> Vec<&JournalEntry> {
        let mut out = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            if *e == JournalEntry::Ok || self.entries.get(i + 1) == Some(&JournalEntry::Ok) {
                continue;
            }
            let later = &self.entries[i + 1..];
            let superseded = later
                .windows(2)
                .any(|w| w[1] == JournalEntry::Ok && w[0].target() == e.target());
            if !superseded {
                out.push(e);
            }
        }
        out
    }
}

/// Handle to a store's journal file.
#[derive(Debug, Clone)]
pub(crate) struct Journal<'a> {
    fs: &'a dyn Vfs,
    path: PathBuf,
}

impl<'a> Journal<'a> {
    /// The journal of the store rooted at `root`.
    pub(crate) fn at(fs: &'a dyn Vfs, root: &Path) -> Journal<'a> {
        Journal {
            fs,
            path: root.join(JOURNAL_FILE),
        }
    }

    /// Path of the journal file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// True if the journal file exists (the store has been touched by
    /// the v1 write protocol at least once).
    pub(crate) fn exists(&self) -> bool {
        self.fs.len(&self.path).is_ok()
    }

    /// The journal's length in bytes (0 when missing).
    pub(crate) fn len(&self) -> u64 {
        self.fs.len(&self.path).unwrap_or(0)
    }

    /// Appends one entry. A journal created here gets a header that
    /// extends nothing (mutations reset the journal to extend the
    /// manifest before they append; only the fault hooks land here).
    pub(crate) fn append(&self, entry: &JournalEntry) -> io::Result<()> {
        if self.len() == 0 {
            self.fs
                .append(&self.path, format_args!("{FOLDED_HEADER}\n"))?;
        }
        self.fs
            .append(&self.path, format_args!("{}\n", entry.to_line()))
    }

    /// True when the journal extends the manifest of generation `base`
    /// and its last line is whole, so a mutation may append to it.
    /// Reads the header and the last byte, not the entries.
    pub(crate) fn extends(&self, base: u64) -> io::Result<bool> {
        let header = format!("{JOURNAL_HEADER}{base}\n");
        let len = match self.fs.len(&self.path) {
            Ok(len) => len,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        Ok(
            self.fs.read_at(&self.path, 0, header.len())? == header.as_bytes()
                && self.fs.read_at(&self.path, len - 1, 1)? == b"\n",
        )
    }

    /// Reads the journal. A missing file reads as empty and clean; a
    /// header-only file likewise. Unparseable lines stop the read and
    /// set `torn` (a torn trailing append is the normal crash shape).
    pub(crate) fn read(&self) -> io::Result<JournalState> {
        match self.fs.read(&self.path) {
            Ok(bytes) => Ok(parse(&bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(JournalState::default()),
            Err(e) => Err(e),
        }
    }

    /// Truncates the journal to a header extending the manifest of
    /// generation `base`, followed by the intents in `unsettled`: a
    /// fold keeps them for recovery to settle.
    pub(crate) fn reset(&self, base: u64, unsettled: &[&JournalEntry]) -> io::Result<()> {
        let mut text = format!("{JOURNAL_HEADER}{base}\n");
        for e in unsettled {
            text.push_str(&e.to_line());
            text.push('\n');
        }
        self.fs.write(&self.path, text.as_bytes())
    }
}

/// Parses the journal's bytes; parsing stops at the first line that
/// does not parse, and bytes that are not UTF-8 are torn throughout.
pub(crate) fn parse(bytes: &[u8]) -> JournalState {
    let mut st = JournalState::default();
    let Ok(text) = std::str::from_utf8(bytes) else {
        st.torn = true;
        return st;
    };
    let ends_clean = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    let header = lines.first().map_or("", |l| l.trim());
    let base = header.strip_prefix(JOURNAL_HEADER).map(str::parse::<u64>);
    match base {
        // A header is only whole once its newline is written.
        Some(Ok(base)) if lines.len() > 1 || ends_clean => st.base = Some(base),
        None if header == FOLDED_HEADER => {}
        _ => {
            st.torn = true;
            return st;
        }
    }
    for (i, line) in lines.iter().enumerate().skip(1) {
        let last = i + 1 == lines.len();
        match JournalEntry::parse(line) {
            // A final line without its newline is an append that
            // never finished — even if the bytes happen to parse,
            // the entry was not durably written.
            Some(e) if !last || ends_clean => st.entries.push(e),
            _ => {
                st.torn = true;
                break;
            }
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::RealFs;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("histpc-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn put(label: &str) -> JournalEntry {
        JournalEntry::Put {
            fnv: 0xdead_beef_0000_1111,
            ext: "record".into(),
            app: "poisson".into(),
            label: label.into(),
        }
    }

    /// A journal extending the manifest of generation 0.
    fn fresh(tag: &str) -> PathBuf {
        let dir = scratch(tag);
        Journal::at(&RealFs, &dir).reset(0, &[]).unwrap();
        dir
    }

    #[test]
    fn append_and_read_roundtrip() {
        let dir = fresh("roundtrip");
        let j = Journal::at(&RealFs, &dir);
        j.append(&put("a1")).unwrap();
        j.append(&JournalEntry::Ok).unwrap();
        j.append(&JournalEntry::Del {
            ext: "shg".into(),
            app: "poisson".into(),
            label: "a1".into(),
        })
        .unwrap();
        let st = j.read().unwrap();
        assert!(!st.torn);
        assert_eq!(st.base, Some(0));
        assert_eq!(st.entries.len(), 3);
        assert_eq!(st.committed().collect::<Vec<_>>(), [&put("a1")]);
        assert_eq!(st.unsettled(), [st.entries.last().unwrap()]);
        j.append(&JournalEntry::Ok).unwrap();
        let st = j.read().unwrap();
        assert!(st.unsettled().is_empty());
        assert_eq!(st.committed().count(), 2);
    }

    #[test]
    fn an_intent_followed_by_another_is_unsettled() {
        // A writer that died after its intent, and then a live writer's
        // whole mutation: the first intent stays unsettled.
        let dir = fresh("buried");
        let j = Journal::at(&RealFs, &dir);
        j.append(&put("a1")).unwrap();
        j.append(&put("a2")).unwrap();
        j.append(&JournalEntry::Ok).unwrap();
        let st = j.read().unwrap();
        assert_eq!(st.unsettled(), [&put("a1")]);
        assert_eq!(st.committed().collect::<Vec<_>>(), [&put("a2")]);
    }

    #[test]
    fn a_later_committed_write_of_the_same_file_settles_an_intent() {
        // A delete that failed before its `ok`, then a committed save of
        // the same file: replaying the delete would lose that save.
        let j = Journal::at(&RealFs, &fresh("superseded"));
        let del = JournalEntry::del("record", "poisson", "a1");
        for e in [&del, &put("a1"), &JournalEntry::Ok, &put("a2")] {
            j.append(e).unwrap();
        }
        assert_eq!(j.read().unwrap().unsettled(), [&put("a2")]);
    }

    #[test]
    fn missing_journal_reads_empty() {
        let j = Journal::at(&RealFs, &scratch("missing"));
        let st = j.read().unwrap();
        assert!(st.entries.is_empty());
        assert!(!st.torn);
        assert_eq!(st.base, None);
        assert!(st.unsettled().is_empty());
        assert!(!j.extends(0).unwrap());
    }

    #[test]
    fn a_v1_journal_extends_nothing() {
        // Written by code that rewrote MANIFEST on every mutation: its
        // committed entries are folded already.
        let dir = scratch("v1");
        let j = Journal::at(&RealFs, &dir);
        j.append(&put("a1")).unwrap();
        j.append(&JournalEntry::Ok).unwrap();
        j.append(&put("a2")).unwrap();
        let st = j.read().unwrap();
        assert_eq!((st.base, st.torn), (None, false));
        assert_eq!(st.unsettled(), [&put("a2")]);
        assert!(!j.extends(0).unwrap());
    }

    #[test]
    fn label_with_spaces_survives() {
        let j = Journal::at(&RealFs, &fresh("spaces"));
        j.append(&put("run one two")).unwrap();
        let st = j.read().unwrap();
        assert_eq!(st.entries[0], put("run one two"));
    }

    #[test]
    fn torn_trailing_line_is_tolerated() {
        let dir = fresh("torn");
        let j = Journal::at(&RealFs, &dir);
        j.append(&put("a1")).unwrap();
        j.append(&JournalEntry::Ok).unwrap();
        // Simulate an append cut mid-line: no trailing newline.
        let mut text = std::fs::read_to_string(j.path()).unwrap();
        text.push_str("put 00ff");
        std::fs::write(j.path(), &text).unwrap();
        let st = j.read().unwrap();
        assert!(st.torn);
        assert_eq!(st.entries.len(), 2);
        assert!(st.unsettled().is_empty());
        assert!(!j.extends(0).unwrap(), "appending would merge lines");
    }

    #[test]
    fn complete_looking_line_without_newline_is_still_torn() {
        let dir = fresh("nonewline");
        let j = Journal::at(&RealFs, &dir);
        j.append(&put("a1")).unwrap();
        let mut text = std::fs::read_to_string(j.path()).unwrap();
        text.push_str("ok"); // parses, but the append never finished
        std::fs::write(j.path(), &text).unwrap();
        let st = j.read().unwrap();
        assert!(st.torn);
        assert_eq!(st.unsettled(), [&put("a1")]);
    }

    #[test]
    fn a_torn_header_extends_nothing() {
        let dir = scratch("tornheader");
        let j = Journal::at(&RealFs, &dir);
        for text in [
            "histpc-journal v2 base 1",
            "histpc-journal v2 ba",
            "garbage\n",
        ] {
            std::fs::write(j.path(), text).unwrap();
            let st = j.read().unwrap();
            assert_eq!((st.base, st.torn), (None, true), "{text:?}");
        }
    }

    #[test]
    fn reset_keeps_the_base_and_the_unsettled_intents() {
        let j = Journal::at(&RealFs, &fresh("reset"));
        j.append(&put("a1")).unwrap();
        j.reset(7, &[&put("a2")]).unwrap();
        let st = j.read().unwrap();
        assert_eq!(st.base, Some(7));
        assert_eq!(st.entries, [put("a2")]);
        assert!(!st.torn);
        j.reset(8, &[]).unwrap();
        assert_eq!(
            std::fs::read_to_string(j.path()).unwrap(),
            format!("{JOURNAL_HEADER}8\n")
        );
        assert!(j.extends(8).unwrap());
        assert!(!j.extends(7).unwrap(), "a journal extends one generation");
    }
}
