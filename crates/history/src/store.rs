//! A crash-consistent, directory-backed store of execution records: the
//! paper's §6 "available store of performance data gathered from one or
//! more previous program runs", kept as `<root>/<app>/<label>.record`.
//! Every record is checksum-[`frame`](crate::frame)d, every mutation is
//! journaled in `<root>/JOURNAL` ([`journal`](crate::journal)) under the
//! advisory `<root>/LOCK` ([`lock`](crate::lock)), which also serializes
//! the `FACTS` and `TRUST` sidecars. `<root>/MANIFEST`
//! ([`manifest`](crate::manifest)) indexes every file as of its
//! generation, and the journal's committed entries extend it, so a
//! mutation writes its own file and two journal lines, not the index;
//! a fold writes the index back now and then. A kill at any byte
//! is rolled forward or back by the next [`ExecutionStore::open`]; a torn
//! record is salvaged, or quarantined to `<label>.record.corrupt` when
//! nothing usable remains. Every file operation goes through the
//! durable-file layer (`durable.rs`). v0 stores (loose files, no control
//! files) stay loadable and [`ExecutionStore::migrate`] upgrades them;
//! [`crate::fsck`] checks all of it read-only.

use crate::durable::{self, Kind, RealFs, Vfs, CORRUPT, TMP};
use crate::factcache::{FactCache, FACTCACHE_FILE};
use crate::format::{parse_record, write_record, FormatError};
use crate::frame;
use crate::journal::{Journal, JournalEntry};
use crate::lock::{self, LockError, StoreLock};
use crate::manifest::{self, Manifest, ManifestState, MANIFEST_FILE};
use crate::record::ExecutionRecord;
use crate::trust::TrustLedger;
use histpc_resources::fnv64;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A mutation folds the journal into `MANIFEST` once the journal is
/// longer than this and than a quarter of the manifest: a save's
/// amortised write is then about five journal lines, and a reader
/// parses at most 1.25 manifests.
pub(crate) const FOLD_FLOOR: u64 = 4 * 1024;

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
    fs: Arc<dyn Vfs>,
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

/// Decodes the frame of the file `what`, mapping damage to
/// [`StoreError::Integrity`].
fn decode(what: &str, text: &str) -> Result<frame::Decoded, StoreError> {
    frame::decode(text).map_err(|e| StoreError::Integrity {
        what: what.to_string(),
        reason: e.to_string(),
    })
}

impl ExecutionStore {
    /// Opens (creating if needed) a store rooted at `root`. This is where
    /// crash recovery happens: after a session died mid-mutation, the
    /// interrupted mutation is rolled forward or back, a torn record
    /// salvaged or quarantined, temp files removed, the manifest rebuilt
    /// and the journal reset. A store locked by a *live* session is left
    /// untouched (its in-flight mutation is not ours to settle).
    pub fn open(root: impl AsRef<Path>) -> Result<ExecutionStore, StoreError> {
        Ok(ExecutionStore::open_in(Arc::new(RealFs), root.as_ref())?.0)
    }

    /// [`ExecutionStore::open`] on the file system `fs`; also returns
    /// the notes of the recovery it ran (none for a clean store).
    pub(crate) fn open_in(
        fs: Arc<dyn Vfs>,
        root: &Path,
    ) -> Result<(ExecutionStore, Vec<String>), StoreError> {
        fs.create_dir_all(root)?;
        let store = ExecutionStore {
            root: root.to_path_buf(),
            fs,
        };
        let notes = store.maybe_recover()?;
        Ok((store, notes))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Takes the store lock (see [`ExecutionStore::lock_recovering`]).
    fn lock(&self) -> Result<StoreLock<'_>, StoreError> {
        Ok(self.lock_recovering()?.0)
    }

    /// Takes the store lock. Breaking a dead writer's lock runs the
    /// recovery `open` runs, under this lock, before anything appends to
    /// the journal the dead writer left; its notes come back with it.
    fn lock_recovering(&self) -> Result<(StoreLock<'_>, Option<Vec<String>>), StoreError> {
        let lock = StoreLock::acquire_in(&*self.fs, &self.root)?;
        let notes = if lock.broke_dead_holder() {
            Some(self.recover_locked()?)
        } else {
            None
        };
        Ok((lock, notes))
    }

    fn journal(&self) -> Journal<'_> {
        Journal::at(&*self.fs, &self.root)
    }

    fn path(&self, app: &str, label: &str, ext: &str) -> PathBuf {
        self.root.join(app).join(format!("{label}.{ext}"))
    }

    fn rel_path(app: &str, label: &str, ext: &str) -> String {
        format!("{app}/{label}.{ext}")
    }

    /// The text of a file, or `None` when it does not exist.
    fn read_text(&self, path: &Path) -> Result<Option<String>, StoreError> {
        match self.fs.read(path) {
            Ok(bytes) => String::from_utf8(bytes)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e).into()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// The store's index: the format generation and the checksum of
    /// every data file, as `<root>/MANIFEST` holds them extended by the
    /// journal's committed entries.
    pub fn manifest(&self) -> Result<ManifestState, StoreError> {
        Ok(manifest::load_view(&*self.fs, &self.root)?)
    }

    /// The manifest generation (committed-mutation counter), or `None`
    /// for a v0 store that has no manifest yet.
    pub fn generation(&self) -> Result<Option<u64>, StoreError> {
        Ok(match self.manifest()? {
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

    /// Saves `<app>/<label>.<ext>` as one journaled mutation.
    fn put_file(
        &self,
        app: &str,
        label: &str,
        ext: &str,
        payload: &str,
        framed: bool,
    ) -> Result<(), StoreError> {
        self.fs.create_dir_all(&self.root.join(app))?;
        let intent = JournalEntry::put(fnv64(payload.as_bytes()), ext, app, label);
        let disk_text = if framed {
            frame::encode(payload)
        } else {
            payload.to_string()
        };
        let target = self.path(app, label, ext);
        self.mutate(&intent, || {
            Ok(durable::install(
                &*self.fs,
                &target,
                disk_text.as_bytes(),
                false,
            )?)
        })
    }

    /// The journaled write protocol: lock → intent → `apply` → `ok`,
    /// then a fold once the journal is long. A crash between any two
    /// steps is recovered by the next `open`, or by the next writer to
    /// break the dead writer's lock.
    fn mutate(
        &self,
        intent: &JournalEntry,
        apply: impl FnOnce() -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let _lock = self.lock()?;
        let journal = self.journal();
        let manifest = self.root.join(MANIFEST_FILE);
        // A journal that does not extend the manifest as it stands (a v0
        // store, a v1 journal, a torn tail, a fold whose journal reset
        // failed) is folded first, so the appends below land where
        // readers look.
        let base = Manifest::head_generation(&*self.fs, &self.root)?;
        if !base.map_or(Ok(false), |g| journal.extends(g))? {
            self.fold()?;
        }
        journal.append(intent)?;
        apply()?;
        journal.append(&JournalEntry::Ok)?;
        // The mutation is committed. A fold that fails from here on is
        // redone by the next mutation (the journal is still long, or no
        // longer extends `MANIFEST`), so the caller does not see it.
        if journal.len() > FOLD_FLOOR.max(self.fs.len(&manifest).unwrap_or(0) / 4) {
            let _ = self.fold();
        }
        Ok(())
    }

    /// Writes the store's index back as `MANIFEST`, at the same
    /// generation, and resets the journal to extend it; unsettled
    /// intents stay in the journal for recovery. A store whose manifest
    /// is missing (v0) or damaged is indexed from disk instead. Runs
    /// under the store lock.
    fn fold(&self) -> Result<(), StoreError> {
        let journal = self.journal();
        let st = journal.read()?;
        let m = match Manifest::load(&*self.fs, &self.root)? {
            ManifestState::Loaded(mut m) => {
                m.extend(&st);
                m
            }
            _ => {
                let mut m = Manifest::default();
                m.rebuild_index(&*self.fs, &self.root)?;
                m
            }
        };
        m.save(&*self.fs, &self.root)?;
        Ok(journal.reset(m.generation, &st.unsettled())?)
    }

    /// Loads the record for (application, label). The frame checksum is
    /// verified first; legacy (v0, unframed) records still load.
    pub fn load(&self, app: &str, label: &str) -> Result<ExecutionRecord, StoreError> {
        let Some(text) = self.read_text(&self.path(app, label, "record"))? else {
            return Err(StoreError::NotFound(format!("{app}/{label}")));
        };
        let decoded = decode(&Self::rel_path(app, label, "record"), &text)?;
        Ok(parse_record(decoded.payload())?)
    }

    /// The FNV-64 payload checksum of a stored record — the per-record
    /// identity the corpus fact cache keys on: the manifest's entry, or
    /// for v0 stores and manifest misses the hash of the file payload, so
    /// it always matches what a manifest rebuild would record. Each call
    /// loads the whole manifest; to checksum many records, load the
    /// [`manifest`](ExecutionStore::manifest) once and
    /// [`Manifest::lookup`] each instead.
    pub fn record_checksum(&self, app: &str, label: &str) -> Result<u64, StoreError> {
        let rel = Self::rel_path(app, label, "record");
        if let ManifestState::Loaded(m) = self.manifest()? {
            if let Some(fnv) = m.lookup(&rel) {
                return Ok(fnv);
            }
        }
        let Some(text) = self.read_text(&self.path(app, label, "record"))? else {
            return Err(StoreError::NotFound(format!("{app}/{label}")));
        };
        Ok(fnv64(decode(&rel, &text)?.payload().as_bytes()))
    }

    /// Loads an auxiliary artifact saved with
    /// [`ExecutionStore::save_artifact`]. Returns the payload text
    /// (transparently unwrapping a frame if one is present).
    pub fn load_artifact(&self, app: &str, label: &str, ext: &str) -> Result<String, StoreError> {
        let Some(text) = self.read_text(&self.path(app, label, ext))? else {
            return Err(StoreError::NotFound(format!("{app}/{label}.{ext}")));
        };
        Ok(decode(&Self::rel_path(app, label, ext), &text)?
            .payload()
            .to_string())
    }

    /// The labels of all stored runs of an application, sorted. Stale
    /// `.tmp` leftovers and `.corrupt` quarantine files never appear —
    /// a crashed run cannot make phantom records.
    pub fn labels(&self, app: &str) -> Result<Vec<String>, StoreError> {
        let mut labels: Vec<String> = durable::walk_dir(&*self.fs, &self.root, app)?
            .into_iter()
            .filter(|(_, kind)| *kind == Kind::Data)
            .filter_map(|(name, _)| Some(name.strip_suffix(".record")?.to_string()))
            .collect();
        labels.sort();
        Ok(labels)
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
        for (app, is_dir) in self.fs.read_dir(&self.root)? {
            let labels = if is_dir {
                self.labels(&app)?
            } else {
                Vec::new()
            };
            if !labels.is_empty() {
                out.push((app, labels));
            }
        }
        out.sort();
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
            let text = self
                .read_text(&self.path(app, &label, "record"))?
                .unwrap_or_default();
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

    /// Moves an unsalvageable record aside to `<label>.record.corrupt`,
    /// journaled as its delete (recovery of a crash mid-quarantine
    /// completes the delete).
    fn quarantine(&self, app: &str, label: &str) -> Result<(), StoreError> {
        let path = self.path(app, label, "record");
        self.mutate(&JournalEntry::del("record", app, label), || {
            Ok(self.fs.rename(&path, &durable::sibling(&path, CORRUPT))?)
        })
    }

    /// Deletes one record, along with any `.tmp` / `.corrupt` siblings
    /// it left behind. Returns [`StoreError::NotFound`] — never an I/O
    /// error — when the record (or its whole application directory)
    /// does not exist.
    pub fn delete(&self, app: &str, label: &str) -> Result<(), StoreError> {
        if !self.delete_artifact(app, label, "record")? {
            return Err(StoreError::NotFound(format!("{app}/{label}")));
        }
        Ok(())
    }

    /// Deletes one auxiliary artifact (journaled, manifest-maintained),
    /// along with any `.tmp` / `.corrupt` siblings it left behind.
    /// Returns `Ok(false)` — not an error — when no such artifact
    /// exists, so callers can unconditionally supersede e.g. a stale
    /// crash checkpoint after a completed run.
    pub fn delete_artifact(&self, app: &str, label: &str, ext: &str) -> Result<bool, StoreError> {
        let target = self.path(app, label, ext);
        if self.fs.len(&target).is_err() {
            return Ok(false);
        }
        let intent = JournalEntry::del(ext, app, label);
        self.mutate(&intent, || self.remove_with_siblings(&target))?;
        Ok(true)
    }

    /// Removes a data file and any `.tmp` / `.corrupt` siblings it left.
    fn remove_with_siblings(&self, path: &Path) -> Result<(), StoreError> {
        durable::remove_if_present(&*self.fs, path)?;
        durable::remove_if_present(&*self.fs, &durable::sibling(path, TMP))?;
        durable::remove_if_present(&*self.fs, &durable::sibling(path, CORRUPT))?;
        Ok(())
    }

    /// Abandoned session checkpoints: every `ckpt` artifact with no
    /// matching completed `.record` under the same (application, label),
    /// sorted. A checkpoint is the one artifact that *should* be
    /// superseded — a completed run deletes it — so survivors mark
    /// sessions that crashed and were never resumed to completion.
    pub fn orphaned_checkpoints(&self) -> Result<Vec<(String, String)>, StoreError> {
        Ok(orphaned_checkpoints_in(&*self.fs, &self.root)?)
    }

    /// The corpus fact cache; empty when `FACTS` is missing or damaged
    /// (the worst outcome of a damaged cache is a cold re-derivation).
    pub fn load_facts(&self) -> FactCache {
        let parse = |text: &str| FactCache::parse(text).ok_or_else(|| "damaged".to_string());
        match durable::read_tolerant(&*self.fs, &self.root.join(FACTCACHE_FILE), false, parse) {
            Ok(Some(Ok(cache))) => cache,
            _ => FactCache::default(),
        }
    }

    /// Installs the corpus fact cache under the store lock. Callers on
    /// the analysis path treat failure as non-fatal: the cache is an
    /// accelerator, not a source of truth.
    pub fn save_facts(&self, cache: &FactCache) -> Result<(), StoreError> {
        let _lock = self.lock()?;
        let path = self.root.join(FACTCACHE_FILE);
        durable::install(&*self.fs, &path, cache.to_text().as_bytes(), false)?;
        Ok(())
    }

    /// Applies `change` to the trust ledger under the store lock — load,
    /// change, install — and returns the ledger it saved. Two sessions
    /// updating at once each keep the other's update. Harvest treats
    /// failure as non-fatal: worst case the next session re-learns the
    /// same distrust.
    pub fn update_trust(
        &self,
        change: impl FnOnce(&mut TrustLedger),
    ) -> Result<TrustLedger, StoreError> {
        let _lock = self.lock()?;
        let mut ledger = TrustLedger::load_in(&*self.fs, &self.root);
        change(&mut ledger);
        ledger.save_in(&*self.fs, &self.root)?;
        Ok(ledger)
    }

    // Maintenance operations: the `histpc store` CLI family.

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
        let _lock = self.lock()?;
        let mut notes = self.remove_stray_tmps()?;
        self.reindex()?;
        notes.push("rebuilt manifest and reset journal".to_string());
        Ok(notes)
    }

    /// Removes every stray temp file, noting each.
    fn remove_stray_tmps(&self) -> Result<Vec<String>, StoreError> {
        let mut notes = Vec::new();
        for e in durable::walk(&*self.fs, &self.root)? {
            if e.kind == Kind::Tmp {
                let p = self.root.join(&e.rel);
                self.fs.remove(&p)?;
                notes.push(format!("removed stray temp file {}", p.display()));
            }
        }
        Ok(notes)
    }

    /// Rebuilds the manifest index from disk, installs it with the next
    /// generation, and resets the journal. Returns why the old manifest
    /// was damaged, if it was.
    fn reindex(&self) -> Result<Option<String>, StoreError> {
        let (mut m, damage) = match self.manifest()? {
            ManifestState::Loaded(m) => (m, None),
            ManifestState::Missing => (Manifest::default(), None),
            ManifestState::Damaged(reason) => (Manifest::default(), Some(reason)),
        };
        m.rebuild_index(&*self.fs, &self.root)?;
        m.generation += 1;
        m.save(&*self.fs, &self.root)?;
        self.journal().reset(m.generation, &[])?;
        Ok(damage)
    }

    /// Upgrades a v0 loose-file store in place: wraps every parseable
    /// unframed record in a checksum frame (byte-for-byte payload, so
    /// diffs stay minimal), writes the manifest, and creates the
    /// journal. Returns how many records were framed. Already-framed
    /// files are untouched; unparseable legacy files are left for
    /// [`ExecutionStore::repair`]. This is `histpc store migrate`.
    pub fn migrate(&self) -> Result<usize, StoreError> {
        let _lock = self.lock()?;
        let mut migrated = 0;
        for e in durable::walk(&*self.fs, &self.root)? {
            if record_label(&e).is_none() {
                continue;
            }
            let path = self.root.join(&e.rel);
            let text = self.read_text(&path)?.unwrap_or_default();
            if let Ok(frame::Decoded::Legacy(payload)) = frame::decode(&text) {
                if parse_record(&payload).is_ok() {
                    let framed = frame::encode(&payload);
                    durable::install(&*self.fs, &path, framed.as_bytes(), false)?;
                    migrated += 1;
                }
            }
        }
        self.reindex()?;
        Ok(migrated)
    }

    // Recovery.

    /// Recovery gate run by `open`: decides cheaply whether the store
    /// is clean, initializes control files for a brand-new store, and
    /// otherwise runs [`ExecutionStore::recover_now`]. Returns its
    /// notes.
    fn maybe_recover(&self) -> Result<Vec<String>, StoreError> {
        let lock_path = StoreLock::path_in(&self.root);
        let mut stale_lock = false;
        if let Some(meta) = lock::read_holder_meta(&*self.fs, &lock_path)? {
            if meta.pid != 0 && lock::pid_alive(meta.pid) {
                // A live session owns the store; any in-flight journal
                // entry is theirs to finish. Reads tolerate.
                return Ok(Vec::new());
            }
            stale_lock = true;
        }
        let journal = self.journal();
        let manifest_state = Manifest::load(&*self.fs, &self.root)?;
        if !journal.exists() && matches!(manifest_state, ManifestState::Missing) && !stale_lock {
            let walked = durable::walk(&*self.fs, &self.root)?;
            if !walked.iter().any(|e| e.kind == Kind::Data) {
                // Brand-new store: start life in the v1 layout.
                Manifest::default().save(&*self.fs, &self.root)?;
                journal.reset(0, &[])?;
            }
            // Otherwise: an untouched v0 loose-file store. Leave it
            // readable as-is; `migrate` upgrades it explicitly.
            return Ok(Vec::new());
        }
        let st = journal.read()?;
        let unclean = stale_lock
            || st.torn
            || !st.unsettled().is_empty()
            || !matches!(manifest_state, ManifestState::Loaded(_))
            || !journal.exists();
        if unclean {
            return self.recover_now();
        }
        Ok(Vec::new())
    }

    /// Unconditional recovery under the store lock (taking the lock
    /// may already have run it, for a dead holder).
    fn recover_now(&self) -> Result<Vec<String>, StoreError> {
        match self.lock_recovering()? {
            (_lock, Some(notes)) => Ok(notes),
            (_lock, None) => self.recover_locked(),
        }
    }

    /// Settles every intent the journal holds without its `ok`, drops
    /// stray temp files, rebuilds the manifest and resets the journal.
    /// The caller holds the store lock. Idempotent; every step is safe
    /// to repeat after a further crash.
    fn recover_locked(&self) -> Result<Vec<String>, StoreError> {
        let mut notes = Vec::new();
        let st = self.journal().read()?;
        if st.torn {
            notes.push("journal: discarded torn trailing entry".to_string());
        }
        for intent in st.unsettled() {
            match intent {
                JournalEntry::Put {
                    fnv,
                    ext,
                    app,
                    label,
                } => self.settle_put(*fnv, ext, app, label, &mut notes)?,
                JournalEntry::Del { ext, app, label } => {
                    self.remove_with_siblings(&self.path(app, label, ext))?;
                    notes.push(format!(
                        "rolled forward interrupted delete of {app}/{label}.{ext}"
                    ));
                }
                JournalEntry::Ok => {}
            }
        }
        notes.extend(self.remove_stray_tmps()?);
        if let Some(reason) = self.reindex()? {
            notes.push(format!("rebuilt damaged manifest ({reason})"));
        }
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
        let target = self.path(app, label, ext);
        let tmp = durable::sibling(&target, TMP);
        let old = self.read_text(&target)?;
        let decoded = old.as_deref().map(frame::decode);
        let hashes = |d: &frame::Decoded| fnv64(d.payload().as_bytes()) == fnv;
        if matches!(&decoded, Some(Ok(d)) if hashes(d)) {
            let _ = self.fs.remove(&tmp);
            notes.push(format!("rolled forward completed write of {what}"));
            return Ok(());
        }
        // If the interrupted write got as far as a complete temp file,
        // finish its rename.
        let complete = self.read_text(&tmp)?.is_some_and(|t| {
            matches!(frame::decode(&t), Ok(d) if hashes(&d)
                && (ext != "record" || parse_record(d.payload()).is_ok()))
        });
        if complete {
            self.fs.rename(&tmp, &target)?;
            notes.push(format!(
                "completed interrupted write of {what} from its temp file"
            ));
            return Ok(());
        }
        let _ = self.fs.remove(&tmp);
        match (decoded, old) {
            // A torn target and no complete temp file: salvage what
            // parses (the store lock is held, so this writes directly;
            // the manifest rebuild that follows picks the result up).
            (Some(Err(e)), Some(text)) => {
                let reason = e.to_string();
                let salvaged = (ext == "record")
                    .then(|| salvage_record_text(label, &payload_candidate(&text)))
                    .flatten();
                if let Some((rec, kept, total)) = salvaged {
                    let framed = frame::encode(&write_record(&rec));
                    durable::install(&*self.fs, &target, framed.as_bytes(), false)?;
                    notes.push(format!(
                        "salvaged torn record {what} ({reason}); kept {kept} of {total} lines"
                    ));
                } else {
                    self.fs
                        .rename(&target, &durable::sibling(&target, CORRUPT))?;
                    notes.push(format!(
                        "quarantined torn file {what} ({reason}); moved to {label}.{ext}.corrupt"
                    ));
                }
            }
            (Some(_), _) => notes.push(format!(
                "rolled back interrupted write of {what} (previous contents kept)"
            )),
            (None, _) => notes.push(format!("rolled back interrupted first write of {what}")),
        }
        Ok(())
    }
}

/// `(app, label)` of a `<app>/<label>.record` data file.
fn record_label(e: &durable::Entry) -> Option<(&str, &str)> {
    if e.kind != Kind::Data {
        return None;
    }
    e.rel.strip_suffix(".record")?.split_once('/')
}

/// [`ExecutionStore::orphaned_checkpoints`] as a read-only scan of a
/// store root that has not been opened (opening runs recovery, which
/// mutates): usable from strictly read-only tooling like the linter.
pub fn orphaned_checkpoints_at(root: &Path) -> io::Result<Vec<(String, String)>> {
    orphaned_checkpoints_in(&RealFs, root)
}

fn orphaned_checkpoints_in(fs: &dyn Vfs, root: &Path) -> io::Result<Vec<(String, String)>> {
    let entries = match durable::walk(fs, root) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let data = |rel: &str| {
        entries
            .binary_search_by(|e| e.rel.as_str().cmp(rel))
            .is_ok_and(|at| entries[at].kind == Kind::Data)
    };
    Ok(entries
        .iter()
        .filter(|e| e.kind == Kind::Data)
        .filter_map(|e| e.rel.strip_suffix(".ckpt"))
        .filter(|stem| !data(&format!("{stem}.record")))
        .filter_map(|stem| stem.split_once('/'))
        .map(|(app, label)| (app.to_string(), label.to_string()))
        .collect::<std::collections::BTreeSet<_>>() // (app, label) order
        .into_iter()
        .collect())
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

    /// Stages a writer that died tearing the record file itself: an
    /// uncommitted `put` intent is left in the journal and the on-disk
    /// record is truncated at `cut` (a fraction of its byte length, as
    /// if the kernel tore the page-out mid-file). The next `open` must
    /// recover — salvaging the parseable prefix or quarantining.
    fn tear_record(store: &ExecutionStore, app: &str, label: &str, cut: f64) {
        let target = store.path(app, label, "record");
        let text = store.read_text(&target).unwrap().expect("record exists");
        let payload_fnv = fnv64(payload_candidate(&text).as_bytes());
        store
            .journal()
            .append(&JournalEntry::put(payload_fnv, "record", app, label))
            .unwrap();
        let mut cut_at = ((text.len() as f64) * cut.clamp(0.0, 1.0)) as usize;
        cut_at = cut_at.min(text.len().saturating_sub(1));
        while cut_at > 0 && !text.is_char_boundary(cut_at) {
            cut_at -= 1;
        }
        store.fs.write(&target, &text.as_bytes()[..cut_at]).unwrap();
    }

    /// Stages a writer that died mid-journal-append: a `put` intent line
    /// for (`app`, `label`) is appended and then cut mid-line at `cut` (a
    /// fraction of the line's length). The next `open` must discard the
    /// torn tail and recover.
    fn tear_journal(store: &ExecutionStore, app: &str, label: &str, cut: f64) {
        let journal = store.journal();
        journal
            .append(&JournalEntry::put(0, "record", app, label))
            .unwrap();
        let text = store.read_text(journal.path()).unwrap().unwrap_or_default();
        let body = text.trim_end_matches('\n');
        let last_start = body.rfind('\n').map_or(0, |i| i + 1);
        let last_len = text.len() - last_start;
        let keep_in_line = (((last_len as f64) * cut.clamp(0.0, 1.0)) as usize)
            .clamp(1, last_len.saturating_sub(1));
        let mut keep = last_start + keep_in_line;
        while keep > 0 && !text.is_char_boundary(keep) {
            keep -= 1;
        }
        store
            .fs
            .write(journal.path(), &text.as_bytes()[..keep])
            .unwrap();
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
        assert!(store.root().join(crate::manifest::MANIFEST_FILE).exists());
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
        assert!(!dir.join(crate::manifest::MANIFEST_FILE).exists());
        // ...but reads it fine.
        assert_eq!(store.load("poisson", "a1").unwrap().label, "a1");
        assert_eq!(store.generation().unwrap(), None);

        let migrated = store.migrate().unwrap();
        assert_eq!(migrated, 1);
        assert!(dir.join(crate::manifest::MANIFEST_FILE).exists());
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
        match store.manifest().unwrap() {
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
    fn torn_record_at_every_byte_offset_recovers() {
        // The tentpole crash-recovery property, exhaustively: tearing a
        // journaled record write at every byte offset always yields the
        // old record, the new record, or a salvaged prefix — never a
        // parse error escaping open()/load_all.
        let dir = tmpdir("everyoffset");
        let store = ExecutionStore::open(&dir).unwrap();
        store.save(&rec("poisson", "a1")).unwrap();
        let full = std::fs::read_to_string(store.path("poisson", "a1", "record")).unwrap();
        for cut in 0..full.len() {
            tear_record(&store, "poisson", "a1", cut as f64 / full.len() as f64);
            let again = ExecutionStore::open(&dir).unwrap();
            let (records, _warnings) = again.load_all_with_warnings("poisson").unwrap();
            for r in &records {
                assert_eq!(r.app_name, "poisson", "cut {cut}: wrong app");
                assert_eq!(r.label, "a1", "cut {cut}: wrong label");
            }
            assert!(
                Journal::at(&RealFs, &dir)
                    .read()
                    .unwrap()
                    .unsettled()
                    .is_empty(),
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
            tear_journal(&store, "poisson", "a1", cut);
            let again = ExecutionStore::open(&dir).unwrap();
            let st = Journal::at(&RealFs, &dir).read().unwrap();
            assert!(!st.torn, "cut {cut}: journal still torn after open");
            assert!(st.unsettled().is_empty());
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
        tear_record(&store, "poisson", "a2", 0.5);
        std::fs::write(dir.join(crate::manifest::MANIFEST_FILE), "garbage\n").unwrap();

        let notes = store.repair().unwrap();
        assert!(!notes.is_empty());
        assert!(!dir.join("poisson").join("zz.record.tmp").exists());
        match Manifest::load(&RealFs, &dir).unwrap() {
            ManifestState::Loaded(_) => {}
            other => panic!("manifest not rebuilt: {other:?}"),
        }
        assert_eq!(store.load_all("poisson").unwrap().len(), 2);

        let notes = store.compact().unwrap();
        assert!(notes.iter().any(|n| n.contains("rebuilt manifest")));
        assert!(Journal::at(&RealFs, &dir)
            .read()
            .unwrap()
            .entries
            .is_empty());
    }

    #[test]
    fn journal_is_folded_once_large() {
        let dir = tmpdir("journalfold");
        let store = ExecutionStore::open(&dir).unwrap();
        // Long labels make each journal line ~190 bytes, so 400 writes
        // (~78 KiB of intents) fold the journal many times over.
        for i in 0..400 {
            let label = format!("r{i}-{}", "x".repeat(150));
            store
                .save_artifact("poisson", &label, "note", "text\n")
                .unwrap();
            let len = |name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
            let bound = FOLD_FLOOR.max(len(MANIFEST_FILE) / 4);
            assert!(len(crate::journal::JOURNAL_FILE) <= bound, "write {i}");
        }
        // A fold keeps the generation: one per committed mutation.
        assert_eq!(store.generation().unwrap(), Some(400));
        match store.manifest().unwrap() {
            ManifestState::Loaded(m) => assert_eq!(m.entries.len(), 400),
            other => panic!("expected manifest, got {other:?}"),
        }
        assert!(crate::fsck::fsck(&dir).is_empty());
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
