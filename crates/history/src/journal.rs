//! Append-only write-ahead journal for store mutations.
//!
//! Every mutation of an [`ExecutionStore`](crate::store::ExecutionStore)
//! appends an intent line to `<root>/JOURNAL` *before* touching any
//! record file, and an `ok` line after the mutation (write + rename +
//! manifest update) completes:
//!
//! ```text
//! histpc-journal v1
//! put 8d2f6a901bc4e713 record poisson a1
//! ok
//! del shg poisson a1
//! ok
//! put 1f00dd0912aa34cd record poisson a2
//! ```
//!
//! A trailing intent without its `ok` means the process died mid-mutation;
//! recovery on the next [`open`](crate::store::ExecutionStore::open) uses
//! the intent (and its recorded payload checksum) to roll the mutation
//! forward or back. Writers are serialized by the store lock, so at most
//! the final entry can ever be uncommitted. The reader tolerates a torn
//! trailing line — an append cut mid-line parses as "no entry", which is
//! exactly what an unfinished append means.

use crate::durable::{self, Vfs};
use std::io;
use std::path::{Path, PathBuf};

/// Header line of the journal file.
pub const JOURNAL_HEADER: &str = "histpc-journal v1";

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalState {
    /// Entries that parsed, in file order.
    pub entries: Vec<JournalEntry>,
    /// True if any line failed to parse (a torn append or external
    /// damage). Parsing stops at the first such line.
    pub torn: bool,
}

impl JournalState {
    /// The trailing intent that never got its `ok`, if any.
    pub fn uncommitted(&self) -> Option<&JournalEntry> {
        match self.entries.last() {
            Some(e @ (JournalEntry::Put { .. } | JournalEntry::Del { .. })) => Some(e),
            _ => None,
        }
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

    /// Appends one entry, creating the journal (with its header) first
    /// if needed.
    pub(crate) fn append(&self, entry: &JournalEntry) -> io::Result<()> {
        if self.len() == 0 {
            self.fs
                .append(&self.path, format_args!("{JOURNAL_HEADER}\n"))?;
        }
        self.fs
            .append(&self.path, format_args!("{}\n", entry.to_line()))
    }

    /// Reads the journal. A missing file reads as empty and clean; a
    /// header-only file likewise. Unparseable lines stop the read and
    /// set `torn` (a torn trailing append is the normal crash shape).
    pub(crate) fn read(&self) -> io::Result<JournalState> {
        let state = |torn| JournalState {
            entries: Vec::new(),
            torn,
        };
        Ok(
            match durable::read_tolerant(self.fs, &self.path, false, |t| Ok(parse(t)))? {
                None => state(false),
                Some(Ok(st)) => st,
                // Not UTF-8: nothing in it can be trusted.
                Some(Err(_)) => state(true),
            },
        )
    }

    /// Truncates the journal back to just its header (after recovery has
    /// settled every entry, history is no longer needed).
    pub(crate) fn reset(&self) -> io::Result<()> {
        self.fs
            .write(&self.path, format!("{JOURNAL_HEADER}\n").as_bytes())
    }
}

/// Parses journal text; parsing stops at the first line that does not
/// parse.
fn parse(text: &str) -> JournalState {
    let mut entries = Vec::new();
    let mut torn = false;
    let ends_clean = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if i == 0 {
            if line.trim() != JOURNAL_HEADER {
                torn = true;
                break;
            }
            continue;
        }
        let last = i + 1 == lines.len();
        match JournalEntry::parse(line) {
            // A final line without its newline is an append that
            // never finished — even if the bytes happen to parse,
            // the entry was not durably written.
            Some(e) if !last || ends_clean => entries.push(e),
            _ => {
                torn = true;
                break;
            }
        }
    }
    JournalState { entries, torn }
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

    #[test]
    fn append_and_read_roundtrip() {
        let j = Journal::at(&RealFs, &scratch("roundtrip"));
        assert!(!j.exists());
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
        assert_eq!(st.entries.len(), 3);
        assert_eq!(st.uncommitted(), st.entries.last());
        j.append(&JournalEntry::Ok).unwrap();
        assert_eq!(j.read().unwrap().uncommitted(), None);
    }

    #[test]
    fn missing_journal_reads_empty() {
        let j = Journal::at(&RealFs, &scratch("missing"));
        let st = j.read().unwrap();
        assert!(st.entries.is_empty());
        assert!(!st.torn);
        assert_eq!(st.uncommitted(), None);
    }

    #[test]
    fn label_with_spaces_survives() {
        let j = Journal::at(&RealFs, &scratch("spaces"));
        j.append(&put("run one two")).unwrap();
        let st = j.read().unwrap();
        assert_eq!(st.entries[0], put("run one two"));
    }

    #[test]
    fn torn_trailing_line_is_tolerated() {
        let dir = scratch("torn");
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
        assert_eq!(st.uncommitted(), None);
    }

    #[test]
    fn complete_looking_line_without_newline_is_still_torn() {
        let dir = scratch("nonewline");
        let j = Journal::at(&RealFs, &dir);
        j.append(&put("a1")).unwrap();
        let mut text = std::fs::read_to_string(j.path()).unwrap();
        text.push_str("ok"); // parses, but the append never finished
        std::fs::write(j.path(), &text).unwrap();
        let st = j.read().unwrap();
        assert!(st.torn);
        assert_eq!(st.uncommitted(), Some(&put("a1")));
    }

    #[test]
    fn reset_leaves_header_only() {
        let j = Journal::at(&RealFs, &scratch("reset"));
        j.append(&put("a1")).unwrap();
        j.reset().unwrap();
        let st = j.read().unwrap();
        assert!(st.entries.is_empty());
        assert!(!st.torn);
        assert_eq!(
            std::fs::read_to_string(j.path()).unwrap(),
            format!("{JOURNAL_HEADER}\n")
        );
    }
}
