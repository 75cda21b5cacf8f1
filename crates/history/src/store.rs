//! A crash-consistent, directory-backed store of execution records.
//!
//! This is the "available store of performance data gathered from one or
//! more previous program runs" of the paper's §6, organized as
//! `<root>/<application>/<label>.record` text files — but grown from a
//! scratch directory into a small crash-safe database:
//!
//! * every record is wrapped in a checksum [`frame`](crate::frame);
//! * every mutation is journaled (intent before write, `ok` after) in
//!   `<root>/JOURNAL`, so a kill at any byte offset is rolled forward or
//!   back on the next [`ExecutionStore::open`];
//! * a versioned `<root>/MANIFEST` carries the format generation and an
//!   index of every file ([`manifest`](crate::manifest));
//! * writers serialize on an advisory `<root>/LOCK`
//!   ([`lock`](crate::lock)), so two concurrent sessions cannot
//!   interleave a write protocol;
//! * a torn record is *salvaged* — the parseable prefix is kept as a
//!   (framed) record — and only quarantined to `<label>.record.corrupt`
//!   when nothing usable remains.
//!
//! Stores written before this layout existed (v0: loose files, no
//! control files) stay loadable; [`ExecutionStore::migrate`] upgrades
//! them in place. [`crate::fsck`] checks all of the above read-only.

use crate::format::{parse_record, write_record, FormatError};
use crate::frame;
use crate::journal::{Journal, JournalEntry};
use crate::lock::{self, LockError, StoreLock};
use crate::manifest::{self, Manifest, ManifestState};
use crate::record::ExecutionRecord;
use histpc_resources::fnv64;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Reset (truncate) the journal once it grows past this many bytes; all
/// entries before the trailing `ok` are settled history.
const JOURNAL_RESET_LEN: u64 = 64 * 1024;

/// Store errors.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A record file failed to parse.
    Format(FormatError),
    /// A file failed its integrity frame (checksum mismatch, truncation,
    /// damaged header).
    Integrity {
        /// Which file, as `<app>/<label>.<ext>`.
        what: String,
        /// What the frame check found.
        reason: String,
    },
    /// Another live session holds the store lock.
    Locked {
        /// The holder's pid (0 if unknown).
        pid: u32,
    },
    /// No such record.
    NotFound(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Format(e) => write!(f, "store format error: {e}"),
            StoreError::Integrity { what, reason } => {
                write!(f, "store integrity error in {what}: {reason}")
            }
            StoreError::Locked { pid } => write!(f, "store is locked by live process {pid}"),
            StoreError::NotFound(what) => write!(f, "record not found: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<FormatError> for StoreError {
    fn from(e: FormatError) -> Self {
        StoreError::Format(e)
    }
}

impl From<LockError> for StoreError {
    fn from(e: LockError) -> Self {
        match e {
            LockError::Held { pid } => StoreError::Locked { pid },
            LockError::Io(e) => StoreError::Io(e),
        }
    }
}

/// A multi-execution performance data store rooted at a directory.
#[derive(Debug, Clone)]
pub struct ExecutionStore {
    root: PathBuf,
}

/// `path` with `.tmp` appended to its file name.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// `path` with `.corrupt` appended to its file name.
fn corrupt_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".corrupt");
    path.with_file_name(name)
}

/// Writes `text` to `path` via a `.tmp` sibling + rename, so the target
/// is only ever the old contents or the new.
fn atomic_write_raw(path: &Path, text: &str) -> Result<(), StoreError> {
    let tmp = tmp_sibling(path);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Removes a data file and any `.tmp` / `.corrupt` siblings it left.
fn remove_with_siblings(path: &Path) -> Result<(), StoreError> {
    for p in [path.to_path_buf(), tmp_sibling(path), corrupt_sibling(path)] {
        match std::fs::remove_file(&p) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// The payload candidate of a possibly-torn file: the frame payload when
/// the frame verifies, otherwise everything after a (damaged) frame
/// header, otherwise the raw text.
fn payload_candidate(text: &str) -> String {
    match frame::decode(text) {
        Ok(d) => d.payload().to_string(),
        Err(_) => match text.split_once('\n') {
            Some((_, rest)) => rest.to_string(),
            None => String::new(),
        },
    }
}

/// Recovers the longest parseable prefix of a torn record payload:
/// repeatedly drops everything from the first failing line and re-parses.
/// Returns the record plus (kept, total) line counts, or `None` when not
/// even the header + `app` line survive. A missing `label` line is
/// repaired from the file stem.
fn salvage_record_text(label: &str, payload: &str) -> Option<(ExecutionRecord, usize, usize)> {
    let mut lines: Vec<&str> = payload.lines().collect();
    let total = lines.len();
    if !payload.ends_with('\n') {
        // The final line was torn mid-write; it cannot be trusted even
        // if it happens to parse.
        lines.pop();
    }
    loop {
        if lines.len() < 2 {
            return None;
        }
        let candidate = format!("{}\n", lines.join("\n"));
        match parse_record(&candidate) {
            Ok(mut rec) => {
                if rec.label.is_empty() {
                    rec.label = label.to_string();
                }
                return Some((rec, lines.len(), total));
            }
            Err(e) => {
                // line 0 = structural (missing app), line 1 = bad
                // header: nothing salvageable before those.
                if e.line < 2 || e.line > lines.len() {
                    return None;
                }
                lines.truncate(e.line - 1);
            }
        }
    }
}

/// All stray `.tmp` files in the store (app dirs plus `MANIFEST.tmp`).
fn stray_tmps(root: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut out = Vec::new();
    let mtmp = root.join(format!("{}.tmp", manifest::MANIFEST_FILE));
    if mtmp.exists() {
        out.push(mtmp);
    }
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        for file in std::fs::read_dir(entry.path())? {
            let file = file?;
            if file.file_name().to_string_lossy().ends_with(".tmp") {
                out.push(file.path());
            }
        }
    }
    out.sort();
    Ok(out)
}

impl ExecutionStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// Opening is where crash recovery happens: if the previous session
    /// died mid-mutation (uncommitted journal intent, torn journal,
    /// stale lock, damaged manifest), the store rolls the interrupted
    /// mutation forward or back, salvages or quarantines any torn
    /// record, removes unfinished temp files, rebuilds the manifest,
    /// and resets the journal — so every `open` returns a consistent
    /// store. A store currently locked by a *live* session is left
    /// untouched (its in-flight mutation is not ours to settle).
    pub fn open(root: impl AsRef<Path>) -> Result<ExecutionStore, StoreError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let store = ExecutionStore { root };
        store.maybe_recover()?;
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn record_path(&self, app: &str, label: &str) -> PathBuf {
        self.root.join(app).join(format!("{label}.record"))
    }

    fn rel_path(app: &str, label: &str, ext: &str) -> String {
        format!("{app}/{label}.{ext}")
    }

    /// The manifest generation (committed-mutation counter), or `None`
    /// for a v0 store that has no manifest yet.
    pub fn generation(&self) -> Result<Option<u64>, StoreError> {
        Ok(match Manifest::load(&self.root)? {
            ManifestState::Loaded(m) => Some(m.generation),
            _ => None,
        })
    }

    /// Saves a record (overwriting an existing one with the same
    /// application and label). The write is checksum-framed, journaled,
    /// and atomic.
    pub fn save(&self, rec: &ExecutionRecord) -> Result<(), StoreError> {
        self.put_file(
            &rec.app_name,
            &rec.label,
            "record",
            &write_record(rec),
            true,
        )
    }

    /// Saves a named auxiliary artifact next to a record — e.g. the
    /// Search History Graph rendering (`ext = "shg"`) or a directive
    /// file harvested from the run. Artifacts stay plain text (no frame
    /// header, so they remain directly greppable/diffable); their
    /// checksum lives in the manifest instead. The write is journaled
    /// and atomic.
    pub fn save_artifact(
        &self,
        app: &str,
        label: &str,
        ext: &str,
        text: &str,
    ) -> Result<(), StoreError> {
        self.put_file(app, label, ext, text, false)
    }

    /// The journaled write protocol: lock → intent → tmp+rename →
    /// manifest → ok. A crash between any two steps is recovered by the
    /// next `open`.
    fn put_file(
        &self,
        app: &str,
        label: &str,
        ext: &str,
        payload: &str,
        framed: bool,
    ) -> Result<(), StoreError> {
        let dir = self.root.join(app);
        std::fs::create_dir_all(&dir)?;
        let payload_fnv = fnv64(payload.as_bytes());
        let _lock = StoreLock::acquire(&self.root)?;
        let journal = Journal::at(&self.root);
        journal.append(&JournalEntry::Put {
            fnv: payload_fnv,
            ext: ext.to_string(),
            app: app.to_string(),
            label: label.to_string(),
        })?;
        let target = dir.join(format!("{label}.{ext}"));
        let disk_text = if framed {
            frame::encode(payload)
        } else {
            payload.to_string()
        };
        atomic_write_raw(&target, &disk_text)?;
        let mut m = match Manifest::load(&self.root)? {
            ManifestState::Loaded(m) => m,
            // First journaled write into a v0 (or manifest-damaged)
            // store: index everything already on disk too.
            _ => {
                let mut m = Manifest::default();
                m.rebuild_index(&self.root)?;
                m
            }
        };
        m.upsert(&Self::rel_path(app, label, ext), payload_fnv);
        m.generation += 1;
        m.save(&self.root)?;
        journal.append(&JournalEntry::Ok)?;
        if std::fs::metadata(journal.path())?.len() > JOURNAL_RESET_LEN {
            journal.reset()?;
        }
        Ok(())
    }

    /// Loads the record for (application, label). The frame checksum is
    /// verified first; legacy (v0, unframed) records still load.
    pub fn load(&self, app: &str, label: &str) -> Result<ExecutionRecord, StoreError> {
        let path = self.record_path(app, label);
        if !path.exists() {
            return Err(StoreError::NotFound(format!("{app}/{label}")));
        }
        let text = std::fs::read_to_string(&path)?;
        let decoded = frame::decode(&text).map_err(|e| StoreError::Integrity {
            what: Self::rel_path(app, label, "record"),
            reason: e.to_string(),
        })?;
        Ok(parse_record(decoded.payload())?)
    }

    /// The FNV-64 payload checksum of a stored record, as indexed by
    /// the manifest — the cheap per-record identity the corpus fact
    /// cache keys on. Each call loads and parses the whole manifest
    /// once and returns the record's entry when it has one; it falls
    /// back to hashing the file payload for v0 stores or manifest
    /// misses, so the checksum always matches what a manifest rebuild
    /// would record. To checksum many records, load the [`Manifest`]
    /// once and [`Manifest::lookup`] each instead.
    pub fn record_checksum(&self, app: &str, label: &str) -> Result<u64, StoreError> {
        let rel = Self::rel_path(app, label, "record");
        if let ManifestState::Loaded(m) = Manifest::load(&self.root)? {
            if let Some(fnv) = m.lookup(&rel) {
                return Ok(fnv);
            }
        }
        let path = self.record_path(app, label);
        if !path.exists() {
            return Err(StoreError::NotFound(format!("{app}/{label}")));
        }
        let text = std::fs::read_to_string(&path)?;
        let decoded = frame::decode(&text).map_err(|e| StoreError::Integrity {
            what: rel,
            reason: e.to_string(),
        })?;
        Ok(fnv64(decoded.payload().as_bytes()))
    }

    /// Loads an auxiliary artifact saved with
    /// [`ExecutionStore::save_artifact`]. Returns the payload text
    /// (transparently unwrapping a frame if one is present).
    pub fn load_artifact(&self, app: &str, label: &str, ext: &str) -> Result<String, StoreError> {
        let path = self.root.join(app).join(format!("{label}.{ext}"));
        if !path.exists() {
            return Err(StoreError::NotFound(format!("{app}/{label}.{ext}")));
        }
        let text = std::fs::read_to_string(path)?;
        let decoded = frame::decode(&text).map_err(|e| StoreError::Integrity {
            what: Self::rel_path(app, label, ext),
            reason: e.to_string(),
        })?;
        Ok(decoded.payload().to_string())
    }

    /// The labels of all stored runs of an application, sorted. Stale
    /// `.tmp` leftovers and `.corrupt` quarantine files never appear —
    /// a crashed run cannot make phantom records.
    pub fn labels(&self, app: &str) -> Result<Vec<String>, StoreError> {
        let dir = self.root.join(app);
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().to_string();
            if name.ends_with(".tmp") || name.ends_with(".corrupt") {
                continue;
            }
            if let Some(label) = name.strip_suffix(".record") {
                out.push(label.to_string());
            }
        }
        out.sort();
        Ok(out)
    }

    /// The names of all applications with stored runs, sorted. Only
    /// directories holding at least one actual `.record` file count —
    /// a directory left with nothing but quarantined or temp files is
    /// not an application.
    pub fn applications(&self) -> Result<Vec<String>, StoreError> {
        Ok(self.runs()?.into_iter().map(|(app, _)| app).collect())
    }

    /// Every application with stored runs, sorted, each with its sorted
    /// [`labels`](ExecutionStore::labels): the whole store listing for
    /// one directory read per application.
    pub fn runs(&self) -> Result<Vec<(String, Vec<String>)>, StoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let app = entry.file_name().to_string_lossy().to_string();
            let labels = self.labels(&app)?;
            if !labels.is_empty() {
                out.push((app, labels));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Loads every stored run of an application, sorted by label.
    /// Damaged records are salvaged or quarantined (see
    /// [`ExecutionStore::load_all_with_warnings`]); their warnings are
    /// discarded here.
    pub fn load_all(&self, app: &str) -> Result<Vec<ExecutionRecord>, StoreError> {
        Ok(self.load_all_with_warnings(app)?.0)
    }

    /// Loads every stored run of an application, sorted by label,
    /// degrading gracefully on damage instead of failing the whole load:
    ///
    /// * a torn or checksum-failing record whose prefix still parses is
    ///   **salvaged** — the parseable prefix is re-saved (framed,
    ///   journaled) and returned like any other record;
    /// * a record with no usable prefix is **quarantined** to
    ///   `<label>.record.corrupt` and dropped from the store's index.
    ///
    /// Either case adds a warning. I/O errors still fail the load.
    pub fn load_all_with_warnings(
        &self,
        app: &str,
    ) -> Result<(Vec<ExecutionRecord>, Vec<String>), StoreError> {
        let mut records = Vec::new();
        let mut warnings = Vec::new();
        for label in self.labels(app)? {
            let reason = match self.load(app, &label) {
                Ok(rec) => {
                    records.push(rec);
                    continue;
                }
                Err(StoreError::Format(e)) => e.to_string(),
                Err(StoreError::Integrity { reason, .. }) => reason,
                Err(e) => return Err(e),
            };
            let path = self.record_path(app, &label);
            let text = std::fs::read_to_string(&path)?;
            match salvage_record_text(&label, &payload_candidate(&text)) {
                Some((rec, kept, total)) => {
                    self.put_file(app, &label, "record", &write_record(&rec), true)?;
                    warnings.push(format!(
                        "salvaged damaged record {app}/{label}.record ({reason}); \
                         kept {kept} of {total} lines"
                    ));
                    records.push(rec);
                }
                None => {
                    self.quarantine(app, &label)?;
                    warnings.push(format!(
                        "quarantined corrupt record {app}/{label}.record ({reason}); \
                         moved to {label}.record.corrupt"
                    ));
                }
            }
        }
        Ok((records, warnings))
    }

    /// Moves an unsalvageable record aside to `<label>.record.corrupt`
    /// and drops it from the manifest.
    fn quarantine(&self, app: &str, label: &str) -> Result<(), StoreError> {
        let path = self.record_path(app, label);
        let _lock = StoreLock::acquire(&self.root)?;
        std::fs::rename(&path, corrupt_sibling(&path))?;
        if let ManifestState::Loaded(mut m) = Manifest::load(&self.root)? {
            m.remove(&Self::rel_path(app, label, "record"));
            m.generation += 1;
            m.save(&self.root)?;
        }
        Ok(())
    }

    /// Deletes one record, along with any `.tmp` / `.corrupt` siblings
    /// it left behind. Returns [`StoreError::NotFound`] — never an I/O
    /// error — when the record (or its whole application directory)
    /// does not exist.
    pub fn delete(&self, app: &str, label: &str) -> Result<(), StoreError> {
        let target = self.record_path(app, label);
        if !target.exists() {
            return Err(StoreError::NotFound(format!("{app}/{label}")));
        }
        let _lock = StoreLock::acquire(&self.root)?;
        let journal = Journal::at(&self.root);
        journal.append(&JournalEntry::Del {
            ext: "record".to_string(),
            app: app.to_string(),
            label: label.to_string(),
        })?;
        remove_with_siblings(&target)?;
        if let ManifestState::Loaded(mut m) = Manifest::load(&self.root)? {
            m.remove(&Self::rel_path(app, label, "record"));
            m.generation += 1;
            m.save(&self.root)?;
        }
        journal.append(&JournalEntry::Ok)?;
        Ok(())
    }

    /// Deletes one auxiliary artifact (journaled, manifest-maintained).
    /// Returns `Ok(false)` — not an error — when no such artifact
    /// exists, so callers can unconditionally supersede e.g. a stale
    /// crash checkpoint after a completed run.
    pub fn delete_artifact(&self, app: &str, label: &str, ext: &str) -> Result<bool, StoreError> {
        let target = self.root.join(app).join(format!("{label}.{ext}"));
        if !target.exists() {
            return Ok(false);
        }
        let _lock = StoreLock::acquire(&self.root)?;
        let journal = Journal::at(&self.root);
        journal.append(&JournalEntry::Del {
            ext: ext.to_string(),
            app: app.to_string(),
            label: label.to_string(),
        })?;
        std::fs::remove_file(&target)?;
        if let ManifestState::Loaded(mut m) = Manifest::load(&self.root)? {
            m.remove(&Self::rel_path(app, label, ext));
            m.generation += 1;
            m.save(&self.root)?;
        }
        journal.append(&JournalEntry::Ok)?;
        Ok(true)
    }

    /// Abandoned session checkpoints: every `ckpt` artifact with no
    /// matching completed `.record` under the same (application, label),
    /// sorted. A checkpoint is the one artifact that *should* be
    /// superseded — a completed run deletes it — so survivors mark
    /// sessions that crashed and were never resumed to completion.
    pub fn orphaned_checkpoints(&self) -> Result<Vec<(String, String)>, StoreError> {
        Ok(orphaned_checkpoints_at(&self.root)?)
    }
}

/// [`ExecutionStore::orphaned_checkpoints`] as a read-only scan of a
/// store root that has not been opened (opening runs recovery, which
/// mutates): usable from strictly read-only tooling like the linter.
pub fn orphaned_checkpoints_at(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(root) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let app = entry.file_name().to_string_lossy().to_string();
        if app == crate::lease::LEASE_DIR {
            continue;
        }
        for file in std::fs::read_dir(entry.path())? {
            let file = file?;
            let name = file.file_name().to_string_lossy().to_string();
            let Some(label) = name.strip_suffix(".ckpt") else {
                continue;
            };
            if !entry.path().join(format!("{label}.record")).exists() {
                out.push((app.clone(), label.to_string()));
            }
        }
    }
    out.sort();
    Ok(out)
}

impl ExecutionStore {
    // ------------------------------------------------------------------
    // Maintenance operations (the `histpc store` CLI family)
    // ------------------------------------------------------------------

    /// Forces a full recovery pass — replay the journal, clean temp
    /// files, rebuild the manifest — then sweeps every application
    /// through the salvage/quarantine load path. Returns a note for
    /// every action taken. This is `histpc store repair`.
    pub fn repair(&self) -> Result<Vec<String>, StoreError> {
        let mut notes = self.recover_now()?;
        for app in self.applications()? {
            let (_, warnings) = self.load_all_with_warnings(&app)?;
            notes.extend(warnings);
        }
        Ok(notes)
    }

    /// Removes stray temp files, rebuilds the manifest index from disk,
    /// and truncates the journal. This is `histpc store compact`.
    /// Quarantined `.corrupt` files are kept for inspection (delete the
    /// record to drop them).
    pub fn compact(&self) -> Result<Vec<String>, StoreError> {
        let _lock = StoreLock::acquire(&self.root)?;
        let mut notes = Vec::new();
        for p in stray_tmps(&self.root)? {
            std::fs::remove_file(&p)?;
            notes.push(format!("removed stray temp file {}", p.display()));
        }
        let mut m = match Manifest::load(&self.root)? {
            ManifestState::Loaded(m) => m,
            _ => Manifest::default(),
        };
        m.generation += 1;
        m.rebuild_index(&self.root)?;
        m.save(&self.root)?;
        Journal::at(&self.root).reset()?;
        notes.push("rebuilt manifest and reset journal".to_string());
        Ok(notes)
    }

    /// Upgrades a v0 loose-file store in place: wraps every parseable
    /// unframed record in a checksum frame (byte-for-byte payload, so
    /// diffs stay minimal), writes the manifest, and creates the
    /// journal. Returns how many records were framed. Already-framed
    /// files are untouched; unparseable legacy files are left for
    /// [`ExecutionStore::repair`]. This is `histpc store migrate`.
    pub fn migrate(&self) -> Result<usize, StoreError> {
        let _lock = StoreLock::acquire(&self.root)?;
        let mut migrated = 0;
        for (rel, path) in manifest::scan_data_files(&self.root)? {
            if !rel.ends_with(".record") {
                continue;
            }
            let text = std::fs::read_to_string(&path)?;
            if let Ok(frame::Decoded::Legacy(payload)) = frame::decode(&text) {
                if parse_record(&payload).is_ok() {
                    atomic_write_raw(&path, &frame::encode(&payload))?;
                    migrated += 1;
                }
            }
        }
        let mut m = match Manifest::load(&self.root)? {
            ManifestState::Loaded(m) => m,
            _ => Manifest::default(),
        };
        m.generation += 1;
        m.rebuild_index(&self.root)?;
        m.save(&self.root)?;
        Journal::at(&self.root).reset()?;
        Ok(migrated)
    }

    // ------------------------------------------------------------------
    // Fault-injection hooks (the `torn-write` / `partial-journal` plan
    // keywords in `histpc-faults`)
    // ------------------------------------------------------------------

    /// Simulates a crashed writer that tore the record file itself: an
    /// uncommitted `put` intent is left in the journal and the on-disk
    /// record is truncated at `cut` (a fraction of its byte length, as
    /// if the kernel tore the page-out mid-file). The next `open`
    /// must recover — salvaging the parseable prefix or quarantining.
    pub fn inject_torn_write(&self, app: &str, label: &str, cut: f64) -> Result<(), StoreError> {
        let target = self.record_path(app, label);
        if !target.exists() {
            return Err(StoreError::NotFound(format!("{app}/{label}")));
        }
        let text = std::fs::read_to_string(&target)?;
        let payload_fnv = fnv64(payload_candidate(&text).as_bytes());
        Journal::at(&self.root).append(&JournalEntry::Put {
            fnv: payload_fnv,
            ext: "record".to_string(),
            app: app.to_string(),
            label: label.to_string(),
        })?;
        let mut cut_at = ((text.len() as f64) * cut.clamp(0.0, 1.0)) as usize;
        cut_at = cut_at.min(text.len().saturating_sub(1));
        while cut_at > 0 && !text.is_char_boundary(cut_at) {
            cut_at -= 1;
        }
        std::fs::write(&target, &text.as_bytes()[..cut_at])?;
        Ok(())
    }

    /// Simulates a crash mid-journal-append: a `put` intent line for
    /// (`app`, `label`) is appended and then cut mid-line at `cut` (a
    /// fraction of the line's length). The next `open` must discard the
    /// torn tail and recover.
    pub fn inject_torn_journal(&self, app: &str, label: &str, cut: f64) -> Result<(), StoreError> {
        let journal = Journal::at(&self.root);
        journal.append(&JournalEntry::Put {
            fnv: 0,
            ext: "record".to_string(),
            app: app.to_string(),
            label: label.to_string(),
        })?;
        let text = std::fs::read_to_string(journal.path())?;
        let body = text.trim_end_matches('\n');
        let last_start = body.rfind('\n').map_or(0, |i| i + 1);
        let last_len = text.len() - last_start;
        let keep_in_line = (((last_len as f64) * cut.clamp(0.0, 1.0)) as usize)
            .clamp(1, last_len.saturating_sub(1));
        let mut keep = last_start + keep_in_line;
        while keep > 0 && !text.is_char_boundary(keep) {
            keep -= 1;
        }
        std::fs::write(journal.path(), &text.as_bytes()[..keep])?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Recovery gate run by `open`: decides cheaply whether the store
    /// is clean, initializes control files for a brand-new store, and
    /// otherwise runs [`ExecutionStore::recover_now`].
    fn maybe_recover(&self) -> Result<(), StoreError> {
        let lock_path = StoreLock::path_in(&self.root);
        let mut stale_lock = false;
        if let Some(pid) = lock::read_holder(&lock_path)? {
            if pid != 0 && lock::pid_alive(pid) {
                // A live session owns the store; any in-flight journal
                // entry is theirs to finish. Reads tolerate.
                return Ok(());
            }
            stale_lock = true;
        }
        let journal = Journal::at(&self.root);
        let manifest_state = Manifest::load(&self.root)?;
        if !journal.exists() && matches!(manifest_state, ManifestState::Missing) && !stale_lock {
            if manifest::scan_data_files(&self.root)?.is_empty() {
                // Brand-new store: start life in the v1 layout.
                Manifest::default().save(&self.root)?;
                journal.reset()?;
            }
            // Otherwise: an untouched v0 loose-file store. Leave it
            // readable as-is; `migrate` upgrades it explicitly.
            return Ok(());
        }
        let st = journal.read()?;
        let unclean = stale_lock
            || st.torn
            || st.uncommitted().is_some()
            || matches!(manifest_state, ManifestState::Damaged(_))
            || matches!(manifest_state, ManifestState::Missing)
            || !journal.exists();
        if unclean {
            self.recover_now()?;
        }
        Ok(())
    }

    /// Unconditional recovery: settle the journal's trailing intent,
    /// drop stray temp files, rebuild the manifest, reset the journal.
    /// Idempotent; every step is safe to repeat after a further crash.
    fn recover_now(&self) -> Result<Vec<String>, StoreError> {
        let _lock = StoreLock::acquire(&self.root)?;
        let mut notes = Vec::new();
        let journal = Journal::at(&self.root);
        let st = journal.read()?;
        if st.torn {
            notes.push("journal: discarded torn trailing entry".to_string());
        }
        match st.uncommitted() {
            Some(JournalEntry::Put {
                fnv,
                ext,
                app,
                label,
            }) => self.settle_put(*fnv, ext, app, label, &mut notes)?,
            Some(JournalEntry::Del { ext, app, label }) => {
                let target = self.root.join(app).join(format!("{label}.{ext}"));
                remove_with_siblings(&target)?;
                notes.push(format!(
                    "rolled forward interrupted delete of {app}/{label}.{ext}"
                ));
            }
            _ => {}
        }
        for p in stray_tmps(&self.root)? {
            std::fs::remove_file(&p)?;
            notes.push(format!("removed stray temp file {}", p.display()));
        }
        let mut m = match Manifest::load(&self.root)? {
            ManifestState::Loaded(m) => m,
            ManifestState::Missing => Manifest::default(),
            ManifestState::Damaged(reason) => {
                notes.push(format!("rebuilt damaged manifest ({reason})"));
                Manifest::default()
            }
        };
        m.generation += 1;
        m.rebuild_index(&self.root)?;
        m.save(&self.root)?;
        journal.reset()?;
        Ok(notes)
    }

    /// Settles an uncommitted `put` intent: roll forward when the new
    /// contents (or a complete temp file) are present and verified, roll
    /// back when the old contents survived, salvage/quarantine a torn
    /// target.
    fn settle_put(
        &self,
        fnv: u64,
        ext: &str,
        app: &str,
        label: &str,
        notes: &mut Vec<String>,
    ) -> Result<(), StoreError> {
        let what = Self::rel_path(app, label, ext);
        let target = self.root.join(app).join(format!("{label}.{ext}"));
        let tmp = tmp_sibling(&target);
        if target.exists() {
            let text = std::fs::read_to_string(&target)?;
            match frame::decode(&text) {
                Ok(d) if fnv64(d.payload().as_bytes()) == fnv => {
                    let _ = std::fs::remove_file(&tmp);
                    notes.push(format!("rolled forward completed write of {what}"));
                    return Ok(());
                }
                Ok(_) => {
                    // The target still holds the previously committed
                    // contents. If the interrupted write got as far as a
                    // complete temp file, finish its rename; otherwise
                    // roll back to the old contents.
                    if self.finish_from_tmp(&tmp, &target, fnv, ext)? {
                        notes.push(format!(
                            "completed interrupted write of {what} from its temp file"
                        ));
                        return Ok(());
                    }
                    let _ = std::fs::remove_file(&tmp);
                    notes.push(format!(
                        "rolled back interrupted write of {what} (previous contents kept)"
                    ));
                    return Ok(());
                }
                Err(e) => {
                    // Torn target. Prefer a complete temp file; failing
                    // that, salvage what parses.
                    if self.finish_from_tmp(&tmp, &target, fnv, ext)? {
                        notes.push(format!(
                            "completed interrupted write of {what} from its temp file"
                        ));
                        return Ok(());
                    }
                    self.salvage_or_quarantine_at(&target, app, label, ext, &e.to_string(), notes)?;
                    return Ok(());
                }
            }
        }
        if self.finish_from_tmp(&tmp, &target, fnv, ext)? {
            notes.push(format!(
                "completed interrupted write of {what} from its temp file"
            ));
            return Ok(());
        }
        let _ = std::fs::remove_file(&tmp);
        notes.push(format!("rolled back interrupted first write of {what}"));
        Ok(())
    }

    /// If `tmp` holds a complete, verified copy of the intended write,
    /// finish the interrupted rename.
    fn finish_from_tmp(
        &self,
        tmp: &Path,
        target: &Path,
        fnv: u64,
        ext: &str,
    ) -> Result<bool, StoreError> {
        if !tmp.exists() {
            return Ok(false);
        }
        let text = std::fs::read_to_string(tmp)?;
        let complete = match frame::decode(&text) {
            Ok(d) if fnv64(d.payload().as_bytes()) == fnv => {
                ext != "record" || parse_record(d.payload()).is_ok()
            }
            _ => false,
        };
        if complete {
            std::fs::rename(tmp, target)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Recovery-time salvage (the caller already holds the store lock,
    /// so this writes directly; the manifest rebuild that follows picks
    /// the result up).
    fn salvage_or_quarantine_at(
        &self,
        target: &Path,
        app: &str,
        label: &str,
        ext: &str,
        reason: &str,
        notes: &mut Vec<String>,
    ) -> Result<(), StoreError> {
        let _ = std::fs::remove_file(tmp_sibling(target));
        let text = std::fs::read_to_string(target)?;
        if ext == "record" {
            if let Some((rec, kept, total)) = salvage_record_text(label, &payload_candidate(&text))
            {
                atomic_write_raw(target, &frame::encode(&write_record(&rec)))?;
                notes.push(format!(
                    "salvaged torn record {app}/{label}.{ext} ({reason}); kept {kept} of {total} lines"
                ));
                return Ok(());
            }
        }
        std::fs::rename(target, corrupt_sibling(target))?;
        notes.push(format!(
            "quarantined torn file {app}/{label}.{ext} ({reason}); moved to {label}.{ext}.corrupt"
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histpc_resources::{Focus, ResourceName, ResourceSpace};
    use histpc_sim::SimTime;

    /// A pid far above any default `pid_max`, so it is never alive.
    const DEAD_PID: u32 = 999_999_999;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("histpc-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(app: &str, label: &str) -> ExecutionRecord {
        let mut space = ResourceSpace::new();
        space
            .add_resource(&ResourceName::parse("/Code/a.c/f").unwrap())
            .unwrap();
        ExecutionRecord {
            app_name: app.into(),
            app_version: "A".into(),
            label: label.into(),
            resources: space
                .hierarchies()
                .iter()
                .flat_map(|h| h.all_names())
                .collect(),
            outcomes: vec![histpc_consultant::NodeOutcome {
                hypothesis: "CPUbound".into(),
                focus: Focus::whole_program(["Code"]),
                outcome: histpc_consultant::Outcome::True,
                first_true_at: Some(SimTime(5)),
                concluded_at: Some(SimTime(5)),
                last_value: 0.5,
                samples: 4,
            }],
            thresholds_used: vec![],
            end_time: SimTime(100),
            pairs_tested: 3,
            unreachable: vec![],
            saturated: vec![],
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let store = ExecutionStore::open(tmpdir("roundtrip")).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        let loaded = store.load("poisson", "a1").unwrap();
        assert_eq!(loaded.label, "a1");
        assert_eq!(loaded.outcomes.len(), 1);
        // The on-disk file is checksum-framed.
        let text = std::fs::read_to_string(store.root().join("poisson").join("a1.record")).unwrap();
        assert!(text.starts_with("histpc-frame v1 "));
    }

    #[test]
    fn open_initializes_v1_control_files() {
        let store = ExecutionStore::open(tmpdir("init")).unwrap();
        assert!(store.root().join(manifest::MANIFEST_FILE).exists());
        assert!(store.root().join(crate::journal::JOURNAL_FILE).exists());
        assert_eq!(store.generation().unwrap(), Some(0));
        store.save(&rec("poisson", "a1")).unwrap();
        assert_eq!(store.generation().unwrap(), Some(1));
        // Clean reopen does not disturb the generation.
        let again = ExecutionStore::open(store.root()).unwrap();
        assert_eq!(again.generation().unwrap(), Some(1));
    }

    #[test]
    fn delete_artifact_is_journaled_and_tolerates_absence() {
        let store = ExecutionStore::open(tmpdir("delart")).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        store
            .save_artifact(
                "poisson",
                "a1",
                "ckpt",
                "histpc-ckpt v1\nat_us 5\ndigest 9\n",
            )
            .unwrap();
        let gen_before = store.generation().unwrap();
        assert!(store.delete_artifact("poisson", "a1", "ckpt").unwrap());
        assert!(!store.root().join("poisson").join("a1.ckpt").exists());
        assert!(store.generation().unwrap() > gen_before);
        // The record survives; the second delete is a clean no-op.
        assert!(store.load("poisson", "a1").is_ok());
        assert!(!store.delete_artifact("poisson", "a1", "ckpt").unwrap());
        // Manifest no longer indexes the artifact: fsck finds no drift.
        let diags = crate::fsck::fsck(store.root());
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn orphaned_checkpoints_reports_ckpts_without_records() {
        let store = ExecutionStore::open(tmpdir("orphans")).unwrap();
        store.save(&rec("poisson", "done")).unwrap();
        store.save_artifact("poisson", "done", "ckpt", "x").unwrap();
        store
            .save_artifact("poisson", "crashed", "ckpt", "x")
            .unwrap();
        // An application directory with nothing but a checkpoint: the
        // session crashed before its first completed run.
        store.save_artifact("ocean", "c0", "ckpt", "x").unwrap();
        assert_eq!(
            store.orphaned_checkpoints().unwrap(),
            vec![
                ("ocean".to_string(), "c0".to_string()),
                ("poisson".to_string(), "crashed".to_string()),
            ]
        );
        // The read-only scan agrees without opening the store.
        assert_eq!(
            orphaned_checkpoints_at(store.root()).unwrap(),
            store.orphaned_checkpoints().unwrap()
        );
    }

    #[test]
    fn labels_and_applications() {
        let store = ExecutionStore::open(tmpdir("labels")).unwrap();
        store.save(&rec("poisson", "a2")).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        store.save(&rec("ocean", "o1")).unwrap();
        assert_eq!(store.labels("poisson").unwrap(), vec!["a1", "a2"]);
        assert_eq!(store.labels("nothere").unwrap(), Vec::<String>::new());
        assert_eq!(store.applications().unwrap(), vec!["ocean", "poisson"]);
        assert_eq!(store.load_all("poisson").unwrap().len(), 2);
    }

    #[test]
    fn listings_skip_tmp_and_corrupt_leftovers() {
        let store = ExecutionStore::open(tmpdir("phantom")).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        // A crashed run's litter, planted directly.
        let ghost = store.root().join("ghost");
        std::fs::create_dir_all(&ghost).unwrap();
        std::fs::write(ghost.join("g1.record.tmp"), "half a write").unwrap();
        std::fs::write(ghost.join("g2.record.corrupt"), "quarantined").unwrap();
        assert_eq!(store.labels("ghost").unwrap(), Vec::<String>::new());
        assert_eq!(store.applications().unwrap(), vec!["poisson"]);
        assert!(store.load_all("ghost").unwrap().is_empty());
    }

    #[test]
    fn missing_record_is_not_found() {
        let store = ExecutionStore::open(tmpdir("missing")).unwrap();
        assert!(matches!(store.load("x", "y"), Err(StoreError::NotFound(_))));
        assert!(matches!(
            store.delete("x", "y"),
            Err(StoreError::NotFound(_))
        ));
        // NotFound (not Io) also when the app directory itself is gone.
        assert!(matches!(
            store.load_artifact("x", "y", "shg"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn delete_removes_record_and_siblings() {
        let store = ExecutionStore::open(tmpdir("delete")).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        let dir = store.root().join("poisson");
        std::fs::write(dir.join("a1.record.tmp"), "half").unwrap();
        std::fs::write(dir.join("a1.record.corrupt"), "old damage").unwrap();
        store.delete("poisson", "a1").unwrap();
        assert!(store.labels("poisson").unwrap().is_empty());
        assert!(!dir.join("a1.record.tmp").exists());
        assert!(!dir.join("a1.record.corrupt").exists());
        assert!(matches!(
            store.delete("poisson", "a1"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn save_leaves_no_tmp_sibling() {
        let store = ExecutionStore::open(tmpdir("atomic")).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        store
            .save_artifact("poisson", "a1", "shg", "graph\n")
            .unwrap();
        let names: Vec<String> = std::fs::read_dir(store.root().join("poisson"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .collect();
        assert!(
            names.iter().all(|n| !n.ends_with(".tmp")),
            "stray tmp files: {names:?}"
        );
        assert_eq!(
            store.load_artifact("poisson", "a1", "shg").unwrap(),
            "graph\n"
        );
    }

    #[test]
    fn load_all_salvages_parseable_prefix() {
        let store = ExecutionStore::open(tmpdir("salvage")).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        store.save(&rec("poisson", "a2")).unwrap();
        // Damage a2 on disk: unframed, with an unparseable line mid-file
        // — the prefix (header + app) is still usable.
        let path = store.root().join("poisson").join("a2.record");
        std::fs::write(&path, "histpc-record v1\napp poisson\noutcome true\n").unwrap();

        let (records, warnings) = store.load_all_with_warnings("poisson").unwrap();
        assert_eq!(records.len(), 2, "salvage keeps the damaged record");
        assert_eq!(records[1].label, "a2", "label repaired from file stem");
        assert!(records[1].outcomes.is_empty(), "damaged tail dropped");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("salvaged"), "warning: {}", warnings[0]);
        // The salvaged record was re-saved framed; a second load is clean.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("histpc-frame v1 "));
        let (records, warnings) = store.load_all_with_warnings("poisson").unwrap();
        assert_eq!(records.len(), 2);
        assert!(warnings.is_empty());
    }

    #[test]
    fn load_all_quarantines_hopeless_records() {
        let store = ExecutionStore::open(tmpdir("quarantine")).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        store.save(&rec("poisson", "a2")).unwrap();
        // Nothing salvageable: the record header itself is garbage.
        let path = store.root().join("poisson").join("a2.record");
        std::fs::write(&path, "complete nonsense\nmore nonsense\n").unwrap();

        let (records, warnings) = store.load_all_with_warnings("poisson").unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].label, "a1");
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("quarantined"),
            "warning: {}",
            warnings[0]
        );
        assert!(store
            .root()
            .join("poisson")
            .join("a2.record.corrupt")
            .exists());
        assert_eq!(store.labels("poisson").unwrap(), vec!["a1"]);
        // A second load is clean.
        let (records, warnings) = store.load_all_with_warnings("poisson").unwrap();
        assert_eq!(records.len(), 1);
        assert!(warnings.is_empty());
    }

    #[test]
    fn checksum_mismatch_is_detected_and_salvaged() {
        let store = ExecutionStore::open(tmpdir("bitflip")).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        let path = store.root().join("poisson").join("a1.record");
        // Flip one byte of the payload without touching the header.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load("poisson", "a1"),
            Err(StoreError::Integrity { .. })
        ));
        let (records, warnings) = store.load_all_with_warnings("poisson").unwrap();
        assert_eq!(records.len(), 1, "prefix before the flipped byte salvages");
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn save_overwrites() {
        let store = ExecutionStore::open(tmpdir("overwrite")).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        let mut r2 = rec("poisson", "a1");
        r2.pairs_tested = 99;
        store.save(&r2).unwrap();
        assert_eq!(store.load("poisson", "a1").unwrap().pairs_tested, 99);
        assert_eq!(store.labels("poisson").unwrap().len(), 1);
    }

    #[test]
    fn v0_store_stays_loadable_and_migrates() {
        let dir = tmpdir("migrate");
        // Hand-build a v0 loose-file store: raw records, no control files.
        let app = dir.join("poisson");
        std::fs::create_dir_all(&app).unwrap();
        std::fs::write(app.join("a1.record"), write_record(&rec("poisson", "a1"))).unwrap();
        std::fs::write(app.join("a1.shg"), "graph\n").unwrap();

        let store = ExecutionStore::open(&dir).unwrap();
        // open() leaves an untouched v0 store alone...
        assert!(!dir.join(manifest::MANIFEST_FILE).exists());
        // ...but reads it fine.
        assert_eq!(store.load("poisson", "a1").unwrap().label, "a1");
        assert_eq!(store.generation().unwrap(), None);

        let migrated = store.migrate().unwrap();
        assert_eq!(migrated, 1);
        assert!(dir.join(manifest::MANIFEST_FILE).exists());
        assert!(dir.join(crate::journal::JOURNAL_FILE).exists());
        let text = std::fs::read_to_string(app.join("a1.record")).unwrap();
        assert!(text.starts_with("histpc-frame v1 "));
        assert_eq!(store.load("poisson", "a1").unwrap().label, "a1");
        assert_eq!(
            store.load_artifact("poisson", "a1", "shg").unwrap(),
            "graph\n"
        );
        // Idempotent.
        assert_eq!(store.migrate().unwrap(), 0);
    }

    #[test]
    fn first_write_into_v0_store_builds_full_manifest() {
        let dir = tmpdir("v0write");
        let app = dir.join("poisson");
        std::fs::create_dir_all(&app).unwrap();
        std::fs::write(app.join("a1.record"), write_record(&rec("poisson", "a1"))).unwrap();
        let store = ExecutionStore::open(&dir).unwrap();
        store.save(&rec("poisson", "a2")).unwrap();
        match Manifest::load(&dir).unwrap() {
            ManifestState::Loaded(m) => {
                assert!(
                    m.lookup("poisson/a1.record").is_some(),
                    "legacy file indexed"
                );
                assert!(m.lookup("poisson/a2.record").is_some());
            }
            other => panic!("expected manifest, got {other:?}"),
        }
    }

    #[test]
    fn stale_lock_is_recovered_on_open() {
        let dir = tmpdir("stalelock");
        let store = ExecutionStore::open(&dir).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        std::fs::write(
            StoreLock::path_in(&dir),
            format!("{}\npid {DEAD_PID}\n", lock::LOCK_HEADER),
        )
        .unwrap();
        let again = ExecutionStore::open(&dir).unwrap();
        assert!(!StoreLock::path_in(&dir).exists(), "stale lock broken");
        assert_eq!(again.load("poisson", "a1").unwrap().label, "a1");
    }

    #[test]
    fn mutation_fails_fast_when_live_process_holds_lock() {
        let dir = tmpdir("heldlock");
        let store = ExecutionStore::open(&dir).unwrap();
        // Forge a lock owned by a live process that is not us: pid 1 is
        // always alive on Linux.
        std::fs::write(
            StoreLock::path_in(&dir),
            format!("{}\npid 1\n", lock::LOCK_HEADER),
        )
        .unwrap();
        if !lock::pid_alive(1) {
            return; // no procfs — cannot stage this scenario
        }
        match store.save(&rec("poisson", "a1")) {
            Err(StoreError::Locked { pid }) => assert_eq!(pid, 1),
            other => panic!("expected Locked, got {other:?}"),
        }
        std::fs::remove_file(StoreLock::path_in(&dir)).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
    }

    #[test]
    fn crash_before_rename_rolls_back_keeping_old_record() {
        let dir = tmpdir("rollback");
        let store = ExecutionStore::open(&dir).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        let old = store.load("poisson", "a1").unwrap();
        // Stage the crash: intent journaled, tmp half-written, target
        // still old, lock left behind by the "dead" writer.
        let mut r2 = rec("poisson", "a1");
        r2.pairs_tested = 777;
        let new_payload = write_record(&r2);
        Journal::at(&dir)
            .append(&JournalEntry::Put {
                fnv: fnv64(new_payload.as_bytes()),
                ext: "record".into(),
                app: "poisson".into(),
                label: "a1".into(),
            })
            .unwrap();
        let target = store.record_path("poisson", "a1");
        let framed = frame::encode(&new_payload);
        std::fs::write(tmp_sibling(&target), &framed[..framed.len() / 2]).unwrap();
        std::fs::write(
            StoreLock::path_in(&dir),
            format!("{}\npid {DEAD_PID}\n", lock::LOCK_HEADER),
        )
        .unwrap();

        let again = ExecutionStore::open(&dir).unwrap();
        let rec_after = again.load("poisson", "a1").unwrap();
        assert_eq!(rec_after.pairs_tested, old.pairs_tested, "old record kept");
        assert!(!tmp_sibling(&target).exists());
        assert!(Journal::at(&dir).read().unwrap().uncommitted().is_none());
    }

    #[test]
    fn crash_with_complete_tmp_rolls_forward() {
        let dir = tmpdir("rollforward");
        let store = ExecutionStore::open(&dir).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        let mut r2 = rec("poisson", "a1");
        r2.pairs_tested = 777;
        let new_payload = write_record(&r2);
        Journal::at(&dir)
            .append(&JournalEntry::Put {
                fnv: fnv64(new_payload.as_bytes()),
                ext: "record".into(),
                app: "poisson".into(),
                label: "a1".into(),
            })
            .unwrap();
        let target = store.record_path("poisson", "a1");
        std::fs::write(tmp_sibling(&target), frame::encode(&new_payload)).unwrap();

        let again = ExecutionStore::open(&dir).unwrap();
        assert_eq!(
            again.load("poisson", "a1").unwrap().pairs_tested,
            777,
            "complete tmp file promoted"
        );
        assert!(!tmp_sibling(&target).exists());
    }

    #[test]
    fn torn_record_at_every_byte_offset_recovers() {
        // The tentpole crash-recovery property, exhaustively: tearing a
        // journaled record write at every byte offset always yields the
        // old record, the new record, or a salvaged prefix — never a
        // parse error escaping open()/load_all.
        let dir = tmpdir("everyoffset");
        let store = ExecutionStore::open(&dir).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        let full = std::fs::read_to_string(store.record_path("poisson", "a1")).unwrap();
        for cut in 0..full.len() {
            store
                .inject_torn_write("poisson", "a1", cut as f64 / full.len() as f64)
                .unwrap();
            let again = ExecutionStore::open(&dir).unwrap();
            let (records, _warnings) = again.load_all_with_warnings("poisson").unwrap();
            for r in &records {
                assert_eq!(r.app_name, "poisson", "cut {cut}: wrong app");
                assert_eq!(r.label, "a1", "cut {cut}: wrong label");
            }
            assert!(
                Journal::at(&dir).read().unwrap().uncommitted().is_none(),
                "cut {cut}: journal not settled"
            );
            // Restore the full record for the next offset (quarantine
            // may have consumed it).
            store.save(&rec("poisson", "a1")).unwrap();
            let _ = std::fs::remove_file(store.root().join("poisson").join("a1.record.corrupt"));
        }
    }

    #[test]
    fn torn_journal_recovers() {
        let dir = tmpdir("tornjournal");
        let store = ExecutionStore::open(&dir).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        for cut in [0.1, 0.5, 0.9] {
            store.inject_torn_journal("poisson", "a1", cut).unwrap();
            let again = ExecutionStore::open(&dir).unwrap();
            let st = Journal::at(&dir).read().unwrap();
            assert!(!st.torn, "cut {cut}: journal still torn after open");
            assert!(st.uncommitted().is_none());
            assert_eq!(again.load("poisson", "a1").unwrap().label, "a1");
        }
    }

    #[test]
    fn repair_and_compact_clean_litter() {
        let dir = tmpdir("repaircompact");
        let store = ExecutionStore::open(&dir).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        store.save(&rec("poisson", "a2")).unwrap();
        // Litter: stray tmp + torn record + garbage manifest.
        std::fs::write(dir.join("poisson").join("zz.record.tmp"), "half").unwrap();
        store.inject_torn_write("poisson", "a2", 0.5).unwrap();
        std::fs::write(dir.join(manifest::MANIFEST_FILE), "garbage\n").unwrap();

        let notes = store.repair().unwrap();
        assert!(!notes.is_empty());
        assert!(!dir.join("poisson").join("zz.record.tmp").exists());
        match Manifest::load(&dir).unwrap() {
            ManifestState::Loaded(_) => {}
            other => panic!("manifest not rebuilt: {other:?}"),
        }
        assert_eq!(store.load_all("poisson").unwrap().len(), 2);

        let notes = store.compact().unwrap();
        assert!(notes.iter().any(|n| n.contains("rebuilt manifest")));
        assert!(Journal::at(&dir).read().unwrap().entries.is_empty());
    }

    #[test]
    fn journal_is_truncated_once_large() {
        let dir = tmpdir("journaltrunc");
        let store = ExecutionStore::open(&dir).unwrap();
        // Long labels make each journal line ~190 bytes, so 400 writes
        // (~78 KiB of intents) cross JOURNAL_RESET_LEN mid-run.
        for i in 0..400 {
            let label = format!("r{i}-{}", "x".repeat(150));
            store
                .save_artifact("poisson", &label, "note", "text\n")
                .unwrap();
        }
        let len = std::fs::metadata(Journal::at(&dir).path()).unwrap().len();
        assert!(
            len < JOURNAL_RESET_LEN,
            "journal grew without bound: {len} bytes"
        );
    }

    #[test]
    fn salvage_prefix_cases() {
        // Pure-function coverage of the salvage loop.
        let good = "histpc-record v1\napp x\nversion 2\nlabel y\n";
        let (r, kept, total) = salvage_record_text("stem", good).unwrap();
        assert_eq!((kept, total), (4, 4));
        assert_eq!(r.label, "y", "existing label wins over file stem");

        // Torn final line (no newline) is dropped even though it parses.
        let torn_tail = "histpc-record v1\napp x\nversion 2";
        let (r, kept, total) = salvage_record_text("stem", torn_tail).unwrap();
        assert_eq!((kept, total), (2, 3));
        assert_eq!(r.label, "stem", "label repaired from file stem");
        assert!(r.app_version.is_empty());

        // Garbage mid-file: keep the prefix before it.
        let mid = "histpc-record v1\napp x\ngarbage here\nversion 2\n";
        let (_, kept, _) = salvage_record_text("stem", mid).unwrap();
        assert_eq!(kept, 2);

        // Nothing before the damage.
        assert!(salvage_record_text("stem", "nonsense\napp x\n").is_none());
        assert!(salvage_record_text("stem", "histpc-record v1\nlabel y\n").is_none());
        assert!(salvage_record_text("stem", "").is_none());
    }
}
