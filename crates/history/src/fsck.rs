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
//!   journal, an uncommitted trailing journal intent, stray `.tmp`
//!   files, quarantined `.corrupt` files, or a damaged/absent control
//!   file on a store that has them. Reopening the store (or `repair`)
//!   clears these.
//! * **HL025** (warning) — legacy layout or index drift: unframed v0
//!   records (`histpc store migrate` upgrades them), a missing manifest
//!   on a non-empty store, or disagreement between the manifest index
//!   and the directory contents.
//!
//! I/O failures while checking are themselves reported as HL023 errors
//! rather than aborting the walk, so one unreadable file cannot hide the
//! rest of the report.

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

fn err(path: &Path, msg: String) -> Diagnostic {
    Diagnostic::error(CODE_INTEGRITY, msg).with_file(path.display().to_string())
}

fn unclean(path: &Path, msg: String) -> Diagnostic {
    Diagnostic::warning(CODE_UNCLEAN, msg).with_file(path.display().to_string())
}

fn legacy(path: &Path, msg: String) -> Diagnostic {
    Diagnostic::warning(CODE_LEGACY, msg).with_file(path.display().to_string())
}

/// Checks the store rooted at `root` without modifying anything, and
/// returns every finding. An empty result means the store is fully
/// consistent, checksummed, and in the current (v1) layout.
pub fn fsck(root: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_lock(root, &mut out);
    let journal_present = check_journal(root, &mut out);
    let manifest_loaded = check_manifest_presence(root, &mut out, journal_present);
    check_data_files(root, &mut out, manifest_loaded.as_ref());
    if let Some(m) = manifest_loaded {
        check_manifest_drift(root, &mut out, &m);
    }
    out
}

fn check_lock(root: &Path, out: &mut Vec<Diagnostic>) {
    let lock_path = StoreLock::path_in(root);
    // Judge holder epochs against the store's persisted lease epoch, so
    // fsck spots a previous daemon incarnation's lock even when the
    // holder pid was reused by a live process.
    let store_epoch = match crate::lease::current_epoch(root) {
        0 => None,
        e => Some(e),
    };
    match lock::read_holder_meta(&lock_path) {
        Ok(None) => {}
        Ok(Some(meta)) if meta.pid == 0 => out.push(
            unclean(
                &lock_path,
                "malformed lock file (holder unknown)".to_string(),
            )
            .with_suggestion("reopen the store or run `histpc store repair` to clear it"),
        ),
        Ok(Some(meta)) if !lock::pid_alive(meta.pid) => out.push(
            unclean(
                &lock_path,
                format!(
                    "stale lock left by dead process {} (unclean shutdown)",
                    meta.pid
                ),
            )
            .with_suggestion("reopen the store or run `histpc store repair` to recover"),
        ),
        Ok(Some(meta)) if lock::holder_stale_for(meta, store_epoch) => out.push(
            unclean(
                &lock_path,
                format!(
                    "stale lock from daemon epoch {} (store is at epoch {}); \
                     holder pid {} may be a reused pid",
                    meta.epoch.unwrap_or(0),
                    store_epoch.unwrap_or(0),
                    meta.pid
                ),
            )
            .with_suggestion("reopen the store or run `histpc store repair` to recover"),
        ),
        Ok(Some(meta)) => out.push(unclean(
            &lock_path,
            format!(
                "store is locked by live process {} (a session may be writing right now)",
                meta.pid
            ),
        )),
        Err(e) => out.push(err(&lock_path, format!("cannot read lock file: {e}"))),
    }
}

/// Returns true if the journal file exists.
fn check_journal(root: &Path, out: &mut Vec<Diagnostic>) -> bool {
    let journal = Journal::at(root);
    if !journal.exists() {
        return false;
    }
    match journal.read() {
        Ok(st) => {
            if st.torn {
                out.push(
                    unclean(
                        journal.path(),
                        "journal has a torn trailing entry (append cut mid-write)".to_string(),
                    )
                    .with_suggestion("run `histpc store repair` to settle and reset the journal"),
                );
            }
            if let Some(entry) = st.uncommitted() {
                out.push(
                    unclean(
                        journal.path(),
                        format!(
                            "journal ends with an uncommitted intent ({entry:?}) — \
                             a mutation was interrupted"
                        ),
                    )
                    .with_suggestion("run `histpc store repair` to roll it forward or back"),
                );
            }
        }
        Err(e) => out.push(err(journal.path(), format!("cannot read journal: {e}"))),
    }
    true
}

/// Reports manifest problems; returns the manifest when it loaded.
fn check_manifest_presence(
    root: &Path,
    out: &mut Vec<Diagnostic>,
    journal_present: bool,
) -> Option<Manifest> {
    let mpath = root.join(MANIFEST_FILE);
    match Manifest::load(root) {
        Ok(ManifestState::Loaded(m)) => {
            if !journal_present {
                out.push(
                    unclean(
                        &root.join(JOURNAL_FILE),
                        "manifest present but journal missing (control file deleted?)".to_string(),
                    )
                    .with_suggestion("reopen the store to recreate it"),
                );
            }
            Some(m)
        }
        Ok(ManifestState::Damaged(reason)) => {
            out.push(
                unclean(&mpath, format!("manifest is damaged: {reason}"))
                    .with_suggestion("run `histpc store repair` to rebuild it"),
            );
            None
        }
        Ok(ManifestState::Missing) => {
            let has_data = manifest::scan_data_files(root)
                .map(|v| !v.is_empty())
                .unwrap_or(false);
            if has_data {
                out.push(
                    legacy(
                        &mpath,
                        "no manifest: this is a v0 loose-file store".to_string(),
                    )
                    .with_suggestion("run `histpc store migrate` to upgrade it in place"),
                );
            }
            None
        }
        Err(e) => {
            out.push(err(&mpath, format!("cannot read manifest: {e}")));
            None
        }
    }
}

fn check_data_files(root: &Path, out: &mut Vec<Diagnostic>, m: Option<&Manifest>) {
    let entries = match std::fs::read_dir(root) {
        Ok(e) => e,
        Err(e) => {
            out.push(err(root, format!("cannot read store root: {e}")));
            return;
        }
    };
    for entry in entries {
        let Ok(entry) = entry else { continue };
        let Ok(ft) = entry.file_type() else { continue };
        if !ft.is_dir() {
            check_root_file(&entry.path(), out);
            continue;
        }
        if entry.file_name().to_string_lossy() == crate::lease::LEASE_DIR {
            // Daemon control state, not data; orphaned leases are
            // HL035's job (`histpc_history::lease::orphaned_leases_at`).
            continue;
        }
        let dir = entry.path();
        let files = match std::fs::read_dir(&dir) {
            Ok(f) => f,
            Err(e) => {
                out.push(err(&dir, format!("cannot read application directory: {e}")));
                continue;
            }
        };
        for file in files {
            let Ok(file) = file else { continue };
            let name = file.file_name().to_string_lossy().to_string();
            let path = file.path();
            if name.ends_with(".tmp") {
                out.push(
                    unclean(
                        &path,
                        "stray temp file from an interrupted write".to_string(),
                    )
                    .with_suggestion("run `histpc store repair` (or `compact`) to remove it"),
                );
                continue;
            }
            if name.ends_with(".corrupt") {
                out.push(unclean(
                    &path,
                    "quarantined corrupt file from a previous recovery".to_string(),
                ));
                continue;
            }
            if name.ends_with(".record") {
                check_record(&path, out, m.is_some());
            }
            // Other artifacts (.shg, .ckpt, ...) are plain text by
            // design; their integrity is covered by the manifest drift
            // check below.
        }
    }
}

/// Root files are either control files (LOCK/JOURNAL/MANIFEST — checked
/// by their own passes above), *sidecars* (derived caches like `FACTS`
/// and crash-safe accumulators like `TRUST`), or litter. Sidecars are
/// deliberately invisible to integrity checking: each carries its own
/// checksum frame and fails safe to a rebuild/fresh-start on damage, so
/// fsck only names them as skipped. Anything else in the root is a
/// warning — the store never puts data files there.
fn check_root_file(path: &Path, out: &mut Vec<Diagnostic>) {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().to_string())
        .unwrap_or_default();
    let base = name.strip_suffix(".tmp").unwrap_or(&name);
    if matches!(base, lock::LOCK_FILE | JOURNAL_FILE | MANIFEST_FILE) {
        return; // control files: covered by their own checks
    }
    if matches!(
        base,
        crate::factcache::FACTCACHE_FILE | crate::trust::TRUST_FILE
    ) {
        out.push(
            Diagnostic::note(
                CODE_UNCLEAN,
                format!("skipped: sidecar ({base} is self-checking and fails safe to a rebuild)"),
            )
            .with_file(path.display().to_string()),
        );
        return;
    }
    out.push(
        unclean(
            path,
            format!("unknown file {name:?} in the store root (not a control file or sidecar)"),
        )
        .with_suggestion("the store never writes data files to its root; remove it by hand"),
    );
}

fn check_record(path: &Path, out: &mut Vec<Diagnostic>, store_is_v1: bool) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            out.push(err(path, format!("cannot read record: {e}")));
            return;
        }
    };
    match frame::decode(&text) {
        Ok(d) => {
            if let Err(e) = parse_record(d.payload()) {
                out.push(
                    err(path, format!("record does not parse: {e}"))
                        .with_suggestion("run `histpc store repair` to salvage or quarantine it"),
                );
                return;
            }
            if !d.is_framed() && store_is_v1 {
                out.push(
                    legacy(
                        path,
                        "record is unframed (no checksum) in a v1 store".to_string(),
                    )
                    .with_suggestion("run `histpc store migrate` to frame it"),
                );
            }
        }
        Err(e) => out.push(
            err(path, format!("integrity check failed: {e}"))
                .with_suggestion("run `histpc store repair` to salvage or quarantine it"),
        ),
    }
}

fn check_manifest_drift(root: &Path, out: &mut Vec<Diagnostic>, m: &Manifest) {
    let on_disk = match manifest::scan_data_files(root) {
        Ok(v) => v,
        Err(e) => {
            out.push(err(root, format!("cannot scan store for drift check: {e}")));
            return;
        }
    };
    for (rel, path) in &on_disk {
        match m.lookup(rel) {
            None => out.push(
                legacy(path, "file is not in the manifest index".to_string())
                    .with_suggestion("run `histpc store repair` (or `compact`) to reindex"),
            ),
            Some(recorded) => {
                let Ok(text) = std::fs::read_to_string(path) else {
                    continue; // already reported by the record walk
                };
                let actual = match frame::decode(&text) {
                    Ok(d) => histpc_resources::fnv64(d.payload().as_bytes()),
                    Err(_) => continue, // already an HL023 above
                };
                if actual != recorded {
                    out.push(
                        legacy(
                            path,
                            format!(
                                "manifest drift: index records checksum {recorded:016x}, \
                                 file hashes to {actual:016x} (edited out-of-band?)"
                            ),
                        )
                        .with_suggestion("run `histpc store repair` (or `compact`) to reindex"),
                    );
                }
            }
        }
    }
    for e in &m.entries {
        if !on_disk.iter().any(|(rel, _)| rel == &e.rel_path) {
            out.push(
                legacy(
                    &root.join(&e.rel_path),
                    "file is in the manifest index but missing on disk".to_string(),
                )
                .with_suggestion("run `histpc store repair` (or `compact`) to reindex"),
            );
        }
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
        Journal::at(store.root())
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
