//! Read-only integrity checking for an execution store (`histpc store
//! fsck`).
//!
//! `fsck` never mutates the store. It walks the control files (LOCK,
//! JOURNAL, MANIFEST) and every data file, and reports findings as
//! [`Diagnostic`]s under three stable lint codes:
//!
//! * **HL023** (error) — a record fails its integrity checks: damaged or
//!   truncated checksum frame, checksum mismatch, or unparseable record
//!   text. `histpc store repair` salvages or quarantines these.
//! * **HL024** (warning) — evidence of an unclean shutdown or concurrent
//!   writer: a stale (dead-holder) or malformed lock file, a torn
//!   journal, a journal intent without its `ok`, stray `.tmp`
//!   files, quarantined `.corrupt` files, or a damaged/absent control
//!   file on a store that has them. Reopening the store (or `repair`)
//!   clears these.
//! * **HL025** (warning) — legacy layout or index drift: unframed v0
//!   records (`histpc store migrate` upgrades them), a missing manifest
//!   on a non-empty store, or disagreement between the index (the
//!   manifest plus the journal's committed entries) and the directory
//!   contents.
//!
//! I/O failures while checking are themselves reported as HL023 errors
//! rather than aborting the walk, so one unreadable file cannot hide the
//! rest of the report.

use crate::durable::{self, Entry, Kind, RealFs, Vfs};
use crate::format::parse_record;
use crate::frame;
use crate::journal::{Journal, JOURNAL_FILE};
use crate::lock::{self, StoreLock};
use crate::manifest::{self, Manifest, ManifestState, MANIFEST_FILE};
use histpc_resources::diag::Diagnostic;
use std::path::Path;

/// Lint code: record fails checksum frame or does not parse (error).
pub const CODE_INTEGRITY: &str = "HL023";
/// Lint code: unclean shutdown / stale lock evidence (warning).
pub const CODE_UNCLEAN: &str = "HL024";
/// Lint code: legacy layout or manifest drift (warning).
pub const CODE_LEGACY: &str = "HL025";

fn err(path: &Path, msg: impl Into<String>) -> Diagnostic {
    Diagnostic::error(CODE_INTEGRITY, msg).with_file(path.display().to_string())
}

fn unclean(path: &Path, msg: impl Into<String>) -> Diagnostic {
    Diagnostic::warning(CODE_UNCLEAN, msg).with_file(path.display().to_string())
}

fn legacy(path: &Path, msg: impl Into<String>) -> Diagnostic {
    Diagnostic::warning(CODE_LEGACY, msg).with_file(path.display().to_string())
}

const REPAIR: &str = "reopen the store or run `histpc store repair` to recover";
const REINDEX: &str = "run `histpc store repair` (or `compact`) to reindex";
const SALVAGE: &str = "run `histpc store repair` to salvage or quarantine it";

/// Checks the store rooted at `root` without modifying anything, and
/// returns every finding. An empty result means the store is fully
/// consistent, checksummed, and in the current (v1) layout.
pub fn fsck(root: &Path) -> Vec<Diagnostic> {
    fsck_in(&RealFs, root)
}

/// [`fsck`] on the file system `fs`.
pub(crate) fn fsck_in(fs: &dyn Vfs, root: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_lock(fs, root, &mut out);
    let journal_present = check_journal(fs, root, &mut out);
    match durable::walk(fs, root) {
        Ok(walked) => {
            let m = check_manifest(fs, root, &mut out, journal_present, &walked);
            check_files(fs, root, &mut out, &walked, m.as_ref());
        }
        Err(e) => {
            out.push(err(root, format!("cannot read store root: {e}")));
            check_manifest(fs, root, &mut out, journal_present, &[]);
        }
    }
    out
}

fn check_lock(fs: &dyn Vfs, root: &Path, out: &mut Vec<Diagnostic>) {
    let path = StoreLock::path_in(root);
    // Judge holder epochs against the store's persisted lease epoch, so
    // fsck spots a previous daemon incarnation's lock even when the
    // holder pid was reused by a live process.
    let store_epoch = Some(crate::lease::current_epoch(fs, root)).filter(|&e| e != 0);
    let meta = match lock::read_holder_meta(fs, &path) {
        Ok(Some(meta)) => meta,
        Ok(None) => return,
        Err(e) => return out.push(err(&path, format!("cannot read lock file: {e}"))),
    };
    out.push(if meta.pid == 0 {
        unclean(&path, "malformed lock file (holder unknown)")
            .with_suggestion("reopen the store or run `histpc store repair` to clear it")
    } else if !lock::pid_alive(meta.pid) {
        let msg = format!(
            "stale lock left by dead process {} (unclean shutdown)",
            meta.pid
        );
        unclean(&path, msg).with_suggestion(REPAIR)
    } else if lock::holder_stale_for(meta, store_epoch) {
        let msg = format!(
            "stale lock from daemon epoch {} (store is at epoch {}); \
             holder pid {} may be a reused pid",
            meta.epoch.unwrap_or(0),
            store_epoch.unwrap_or(0),
            meta.pid
        );
        unclean(&path, msg).with_suggestion(REPAIR)
    } else {
        let msg = format!(
            "store is locked by live process {} (a session may be writing right now)",
            meta.pid
        );
        unclean(&path, msg)
    });
}

/// Returns true if the journal file exists.
fn check_journal(fs: &dyn Vfs, root: &Path, out: &mut Vec<Diagnostic>) -> bool {
    let journal = Journal::at(fs, root);
    if !journal.exists() {
        return false;
    }
    let path = journal.path();
    match journal.read() {
        Ok(st) => {
            if st.torn {
                out.push(
                    unclean(
                        path,
                        "journal has a torn trailing entry (append cut mid-write)",
                    )
                    .with_suggestion("run `histpc store repair` to settle and reset the journal"),
                );
            }
            for entry in st.unsettled() {
                let msg = format!(
                    "journal holds an intent without its `ok` ({entry:?}) — a mutation was interrupted"
                );
                out.push(
                    unclean(path, msg)
                        .with_suggestion("run `histpc store repair` to roll it forward or back"),
                );
            }
        }
        Err(e) => out.push(err(path, format!("cannot read journal: {e}"))),
    }
    true
}

/// Reports manifest problems; returns the manifest when it loaded.
fn check_manifest(
    fs: &dyn Vfs,
    root: &Path,
    out: &mut Vec<Diagnostic>,
    journal_present: bool,
    walked: &[Entry],
) -> Option<Manifest> {
    let path = root.join(MANIFEST_FILE);
    match manifest::load_view(fs, root) {
        Ok(ManifestState::Loaded(m)) => {
            if !journal_present {
                let msg = "manifest present but journal missing (control file deleted?)";
                out.push(
                    unclean(&root.join(JOURNAL_FILE), msg)
                        .with_suggestion("reopen the store to recreate it"),
                );
            }
            return Some(m);
        }
        Ok(ManifestState::Damaged(reason)) => out.push(
            unclean(&path, format!("manifest is damaged: {reason}"))
                .with_suggestion("run `histpc store repair` to rebuild it"),
        ),
        Ok(ManifestState::Missing) if walked.iter().any(|e| e.kind == Kind::Data) => out.push(
            legacy(&path, "no manifest: this is a v0 loose-file store")
                .with_suggestion("run `histpc store migrate` to upgrade it in place"),
        ),
        Ok(ManifestState::Missing) => {}
        Err(e) => out.push(err(&path, format!("cannot read manifest: {e}"))),
    }
    None
}

/// Reports each file by its kind: stray temp files, quarantined files
/// and litter warn, sidecars are named as skipped, and data files are
/// checked against their frame and the manifest index.
fn check_files(
    fs: &dyn Vfs,
    root: &Path,
    out: &mut Vec<Diagnostic>,
    walked: &[Entry],
    m: Option<&Manifest>,
) {
    for e in walked {
        let path = root.join(&e.rel);
        match e.kind {
            Kind::Tmp => out.push(
                unclean(&path, "stray temp file from an interrupted write")
                    .with_suggestion("run `histpc store repair` (or `compact`) to remove it"),
            ),
            Kind::Corrupt => out.push(unclean(
                &path,
                "quarantined corrupt file from a previous recovery",
            )),
            // Sidecars are deliberately invisible to integrity checking:
            // each carries its own checksum and fails safe to a rebuild.
            Kind::Sidecar => {
                let base = e.rel.strip_suffix(durable::TMP).unwrap_or(&e.rel);
                let msg = format!(
                    "skipped: sidecar ({base} is self-checking and fails safe to a rebuild)"
                );
                out.push(Diagnostic::note(CODE_UNCLEAN, msg).with_file(path.display().to_string()));
            }
            Kind::Litter => out.push(
                unclean(
                    &path,
                    format!(
                        "unknown file {:?} in the store (not data, a control file, a sidecar or a lease)",
                        e.rel
                    ),
                )
                .with_suggestion("the store never writes such a file; remove it by hand"),
            ),
            Kind::Data => check_data(fs, &path, &e.rel, out, m),
            // Control files have their own checks; orphaned leases are
            // HL035's job (`histpc_history::lease::orphaned_leases_at`).
            Kind::Control | Kind::Lease => {}
        }
    }
    for entry in m.map_or(&[][..], |m| &m.entries) {
        let at = walked.binary_search_by(|e| e.rel.as_str().cmp(&entry.rel_path));
        if !at.is_ok_and(|at| walked[at].kind == Kind::Data) {
            let path = root.join(&entry.rel_path);
            let msg = "file is in the manifest index but missing on disk";
            out.push(legacy(&path, msg).with_suggestion(REINDEX));
        }
    }
}

/// Checks a record's frame and text, and any data file's checksum
/// against the manifest index. Other artifacts (.shg, .ckpt, ...) are
/// plain text by design; the index covers their integrity.
fn check_data(
    fs: &dyn Vfs,
    path: &Path,
    rel: &str,
    out: &mut Vec<Diagnostic>,
    m: Option<&Manifest>,
) {
    let record = rel.ends_with(".record");
    let recorded = m.map(|m| m.lookup(rel));
    if recorded == Some(None) {
        out.push(legacy(path, "file is not in the manifest index").with_suggestion(REINDEX));
    }
    let text = match fs.read(path) {
        Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
        Err(e) if record => return out.push(err(path, format!("cannot read record: {e}"))),
        Err(_) => return,
    };
    let d = match frame::decode(&text) {
        Ok(d) => d,
        Err(e) if record => {
            let msg = format!("integrity check failed: {e}");
            return out.push(err(path, msg).with_suggestion(SALVAGE));
        }
        Err(_) => return,
    };
    if record {
        if let Err(e) = parse_record(d.payload()) {
            out.push(err(path, format!("record does not parse: {e}")).with_suggestion(SALVAGE));
        } else if !d.is_framed() && m.is_some() {
            out.push(
                legacy(path, "record is unframed (no checksum) in a v1 store")
                    .with_suggestion("run `histpc store migrate` to frame it"),
            );
        }
    }
    let actual = histpc_resources::fnv64(d.payload().as_bytes());
    if let Some(Some(recorded)) = recorded.filter(|r| *r != Some(actual)) {
        let msg = format!(
            "manifest drift: index records checksum {recorded:016x}, \
             file hashes to {actual:016x} (edited out-of-band?)"
        );
        out.push(legacy(path, msg).with_suggestion(REINDEX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ExecutionStore;
    use histpc_resources::diag::Severity;
    use std::path::PathBuf;

    /// A pid far above any default `pid_max`, so it is never alive.
    const DEAD_PID: u32 = 999_999_999;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("histpc-fsck-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn sample_record() -> crate::record::ExecutionRecord {
        use histpc_resources::{Focus, ResourceName, ResourceSpace};
        let mut space = ResourceSpace::new();
        space
            .add_resource(&ResourceName::parse("/Code/a.c/f").unwrap())
            .unwrap();
        crate::record::ExecutionRecord {
            app_name: "poisson".into(),
            app_version: "A".into(),
            label: "a1".into(),
            resources: space
                .hierarchies()
                .iter()
                .flat_map(|h| h.all_names())
                .collect(),
            outcomes: vec![histpc_consultant::NodeOutcome {
                hypothesis: "CPUbound".into(),
                focus: Focus::whole_program(["Code"]),
                outcome: histpc_consultant::Outcome::True,
                first_true_at: Some(histpc_sim::SimTime(5)),
                concluded_at: Some(histpc_sim::SimTime(5)),
                last_value: 0.5,
                samples: 4,
            }],
            thresholds_used: vec![],
            end_time: histpc_sim::SimTime(100),
            pairs_tested: 3,
            unreachable: vec![],
            saturated: vec![],
        }
    }

    fn store_with_record(tag: &str) -> ExecutionStore {
        let store = ExecutionStore::open(tmpdir(tag)).unwrap();
        store.save(&sample_record()).unwrap();
        store
    }

    #[test]
    fn clean_store_has_no_findings() {
        let store = store_with_record("clean");
        let diags = fsck(store.root());
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn checksum_damage_is_hl023() {
        let store = store_with_record("hl023");
        let path = store.root().join("poisson").join("a1.record");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 3]).unwrap();
        let diags = fsck(store.root());
        assert!(codes(&diags).contains(&CODE_INTEGRITY), "got {diags:?}");
        let d = diags.iter().find(|d| d.code == CODE_INTEGRITY).unwrap();
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn stale_lock_and_litter_are_hl024() {
        let store = store_with_record("hl024");
        std::fs::write(
            StoreLock::path_in(store.root()),
            format!("{}\npid {DEAD_PID}\n", lock::LOCK_HEADER),
        )
        .unwrap();
        std::fs::write(store.root().join("poisson").join("zz.record.tmp"), "half").unwrap();
        let diags = fsck(store.root());
        let found = codes(&diags);
        assert_eq!(
            found.iter().filter(|c| **c == CODE_UNCLEAN).count(),
            2,
            "got {diags:?}"
        );
        assert!(diags
            .iter()
            .all(|d| d.severity == Severity::Warning || d.code == CODE_INTEGRITY));
    }

    #[test]
    fn uncommitted_intent_is_hl024() {
        let store = store_with_record("intent");
        Journal::at(&RealFs, store.root())
            .append(&crate::journal::JournalEntry::Del {
                ext: "record".into(),
                app: "poisson".into(),
                label: "a1".into(),
            })
            .unwrap();
        let diags = fsck(store.root());
        assert!(codes(&diags).contains(&CODE_UNCLEAN), "got {diags:?}");
    }

    #[test]
    fn v0_store_and_drift_are_hl025() {
        // A v0 loose-file store: HL025 for the missing manifest and the
        // unframed record is only flagged once migrated... check both
        // halves.
        let dir = tmpdir("hl025");
        let app = dir.join("poisson");
        std::fs::create_dir_all(&app).unwrap();
        std::fs::write(
            app.join("a1.record"),
            crate::format::write_record(&sample_record()),
        )
        .unwrap();
        let diags = fsck(&dir);
        assert_eq!(codes(&diags), vec![CODE_LEGACY], "got {diags:?}");

        // Out-of-band edit after migration: manifest drift.
        let store = ExecutionStore::open(&dir).unwrap();
        store.migrate().unwrap();
        assert!(fsck(&dir).is_empty());
        std::fs::write(app.join("a1.shg"), "added behind the store's back\n").unwrap();
        let diags = fsck(&dir);
        assert_eq!(codes(&diags), vec![CODE_LEGACY], "got {diags:?}");
        assert!(diags[0].message.contains("not in the manifest index"));
    }

    #[test]
    fn lease_dir_is_not_data() {
        // Daemon leases and the epoch counter live under LEASES/; a
        // clean store stays clean with them present (no drift, no
        // legacy findings).
        let store = store_with_record("leases");
        crate::lease::next_epoch(store.root()).unwrap();
        crate::lease::write_lease(
            store.root(),
            &crate::lease::Lease {
                tenant: "t1".into(),
                app: "poisson".into(),
                label: "a1".into(),
                epoch: 1,
                state: "active".into(),
                spec: String::new(),
            },
        )
        .unwrap();
        let diags = fsck(store.root());
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn old_epoch_lock_is_stale_even_with_live_pid() {
        let store = store_with_record("epochlock");
        // Store is at epoch 2; a lock from epoch 1 whose pid is alive
        // (ours, standing in for a reused pid) is a previous daemon
        // incarnation — HL024 stale, not a live holder.
        crate::lease::next_epoch(store.root()).unwrap();
        crate::lease::next_epoch(store.root()).unwrap();
        std::fs::write(
            StoreLock::path_in(store.root()),
            format!(
                "{}\npid {}\nepoch 1\n",
                lock::LOCK_HEADER,
                std::process::id()
            ),
        )
        .unwrap();
        let diags = fsck(store.root());
        let d = diags.iter().find(|d| d.code == CODE_UNCLEAN).unwrap();
        assert!(d.message.contains("daemon epoch 1"), "got {diags:?}");
        assert!(d.message.contains("epoch 2"), "got {diags:?}");
    }

    #[test]
    fn sidecars_are_skipped_and_root_litter_is_flagged() {
        let store = store_with_record("sidecars");
        // Known sidecars — even damaged ones — are listed as skipped
        // notes: each is self-checking and fails safe to a rebuild.
        std::fs::write(store.root().join(crate::trust::TRUST_FILE), "garbage").unwrap();
        std::fs::write(
            store.root().join(crate::factcache::FACTCACHE_FILE),
            "garbage",
        )
        .unwrap();
        let diags = fsck(store.root());
        let notes: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Note)
            .collect();
        assert_eq!(notes.len(), 2, "got {diags:?}");
        assert!(notes.iter().all(|d| d.message.contains("skipped: sidecar")));
        assert!(
            diags.iter().all(|d| d.severity == Severity::Note),
            "sidecar damage must not raise errors or warnings: {diags:?}"
        );

        // An unknown root file is litter: warning, not silence.
        std::fs::write(store.root().join("NOTES.txt"), "scratch").unwrap();
        let diags = fsck(store.root());
        let d = diags
            .iter()
            .find(|d| d.severity == Severity::Warning)
            .expect("unknown root file not flagged");
        assert_eq!(d.code, CODE_UNCLEAN);
        assert!(d.message.contains("NOTES.txt"), "got {diags:?}");
    }

    #[test]
    fn stray_root_manifest_tmp_is_hl024_until_repaired() {
        // An unfinished manifest install, like an application tmp.
        let store = store_with_record("manifesttmp");
        let tmp = store.root().join(format!("{MANIFEST_FILE}.tmp"));
        std::fs::write(&tmp, "histpc-store v1\ngeneration 9\n").unwrap();
        let diags = fsck(store.root());
        assert_eq!(codes(&diags), vec![CODE_UNCLEAN], "got {diags:?}");
        assert!(
            diags[0].message.contains("stray temp file"),
            "got {diags:?}"
        );
        store.repair().unwrap();
        assert!(!tmp.exists());
        assert!(fsck(store.root()).is_empty());
    }

    #[test]
    fn fsck_is_read_only() {
        let store = store_with_record("readonly");
        let path = store.root().join("poisson").join("a1.record");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 3]).unwrap();
        let before = std::fs::read(&path).unwrap();
        let _ = fsck(store.root());
        assert_eq!(std::fs::read(&path).unwrap(), before, "fsck mutated a file");
    }
}
