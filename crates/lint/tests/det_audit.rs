//! The source determinism audit: a dependency-free scan of
//! `crates/*/src` for the hazard classes that have bitten (or nearly
//! bitten) before.
//!
//! The deterministic core of this workspace (sim, consultant, history,
//! instr, resources) must produce bit-identical records from
//! identical inputs — that property underwrites every baseline
//! comparison, proptest, and bench invariant in the repo; and the
//! long-lived service code must not die of its own defensive code.
//!
//! * **DA001 — wall-clock reads** (`Instant::now`, `SystemTime::now`)
//!   in a deterministic crate: simulated time is the only clock allowed
//!   to influence behaviour there.
//! * **DA002 — `.unwrap()` in collector/search paths**
//!   (`crates/instr/src`, `crates/consultant/src/search.rs`): these run
//!   under fault injection, where a panic turns a modeled failure into
//!   a tool crash; use `expect` with an invariant message or handle the
//!   error. In the files that have been made panic-free
//!   (`crates/consultant/src/search.rs`, `crates/instr/src/faults.rs`,
//!   `crates/instr/src/pair.rs`, `crates/core/src/supervise.rs`,
//!   `spec.rs`, `remote.rs` and `session.rs`, and all of
//!   `crates/daemon/src`), `.expect(` is flagged too, so they stay that
//!   way.
//! * **DA003 — `HashMap` in record-serialization modules**: iteration
//!   order would leak into persisted bytes; use `BTreeMap` or sort.
//! * **DA004 — panicking lock acquisition** in the long-lived service
//!   (`crates/daemon/src`, `crates/core/src/supervise.rs`): a lock or
//!   condvar wait that unwraps its poison error lets one thread's panic
//!   take every session down; recover the guard with
//!   `PoisonError::into_inner`. Matches `.lock().unwrap()` and the
//!   `.expect("… poisoned")` message convention.
//! * **DA005 — `std::fs` outside the durable-file layer** in
//!   `crates/history/src` and `crates/core/src/session.rs`: every file
//!   operation of the history store goes through `durable.rs`, whose
//!   one atomic install, tolerant read and layout classifier the crash
//!   enumeration proves; a direct `std::fs` call bypasses both, and the
//!   store's lock with them.
//!
//! Test modules (everything at and after the first `#[cfg(test)]`) are
//! exempt. A finding is suppressed by `det-audit: allow(...)` on the
//! same line or in the comment block immediately above it.
//!
//! The audit is textual on purpose: no syn, no cargo metadata — it
//! finishes in milliseconds.

use std::path::{Path, PathBuf};

/// Crates whose `src/` must stay free of wall-clock reads.
const DETERMINISTIC_CRATES: &[&str] = &["resources", "sim", "consultant", "history", "instr"];

/// Path fragments (relative to a crate's `src/`) whose files run under
/// fault injection and must not `.unwrap()`.
const NO_UNWRAP_PATHS: &[(&str, &str)] = &[("instr", ""), ("consultant", "search.rs")];

/// Files made panic-free: they must not `.expect(` either. The list only
/// grows.
const NO_EXPECT_PATHS: &[(&str, &str)] = &[
    ("consultant", "search.rs"),
    ("instr", "faults.rs"),
    ("instr", "pair.rs"),
    ("core", "supervise.rs"),
    ("core", "spec.rs"),
    ("core", "remote.rs"),
    ("core", "session.rs"),
    ("daemon", ""),
];

/// Files whose output is persisted byte-for-byte; `HashMap` iteration
/// order must not reach them.
const SERIALIZATION_FILES: &[(&str, &str)] = &[
    ("history", "format.rs"),
    ("history", "record.rs"),
    ("history", "manifest.rs"),
    ("history", "factcache.rs"),
    ("lint", "facts.rs"),
];

/// Files of the long-lived service, whose lock and condvar acquisitions
/// must survive a poisoned lock.
const SERVICE_PATHS: &[(&str, &str)] = &[("daemon", ""), ("core", "supervise.rs")];

/// Files that reach the history store only through its own API: they
/// must not touch `std::fs`.
const NO_FS_PATHS: &[(&str, &str)] = &[("history", ""), ("core", "session.rs")];

/// The one file of `histpc-history` allowed to touch `std::fs`.
const DURABLE_LAYER: (&str, &str) = ("history", "durable.rs");

struct Finding {
    code: &'static str,
    file: String,
    line: usize,
    message: String,
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The crate name and in-crate path of a `crates/<name>/src/...` file.
fn crate_and_subpath(rel: &str) -> Option<(&str, &str)> {
    let rest = rel.strip_prefix("crates/")?;
    let (krate, rest) = rest.split_once('/')?;
    let sub = rest.strip_prefix("src/")?;
    Some((krate, sub))
}

/// Whether `(krate, sub)` is listed in `paths`; an empty path names the
/// whole crate.
fn listed(paths: &[(&str, &str)], krate: &str, sub: &str) -> bool {
    paths
        .iter()
        .any(|(k, p)| *k == krate && (p.is_empty() || sub == *p))
}

fn audit_file(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let Some((krate, sub)) = crate_and_subpath(rel) else {
        return;
    };
    let check_clock = DETERMINISTIC_CRATES.contains(&krate);
    let check_unwrap = listed(NO_UNWRAP_PATHS, krate, sub);
    let check_expect = listed(NO_EXPECT_PATHS, krate, sub);
    let check_hashmap = listed(SERIALIZATION_FILES, krate, sub);
    let check_lock = listed(SERVICE_PATHS, krate, sub);
    let check_fs = listed(NO_FS_PATHS, krate, sub) && (krate, sub) != DURABLE_LAYER;
    if !(check_clock || check_unwrap || check_expect || check_hashmap || check_lock || check_fs) {
        return;
    }

    let lines: Vec<&str> = text.lines().collect();
    for (idx, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        // Everything from the first test module on is exempt: the
        // workspace convention keeps `#[cfg(test)] mod tests` at the
        // bottom of a file.
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("//") || allowed(&lines, idx) {
            continue;
        }
        let lineno = idx + 1;
        if check_clock && (raw.contains("Instant::now") || raw.contains("SystemTime::now")) {
            findings.push(Finding {
                code: "DA001",
                file: rel.to_string(),
                line: lineno,
                message: "wall-clock read in a deterministic crate; \
                          use simulated time or suppress with `det-audit: allow(wall-clock)`"
                    .into(),
            });
        }
        if check_unwrap && raw.contains(".unwrap()") {
            findings.push(Finding {
                code: "DA002",
                file: rel.to_string(),
                line: lineno,
                message: "`.unwrap()` on a fault-injected path; \
                          use `expect` with an invariant message or handle the error"
                    .into(),
            });
        }
        if check_expect && raw.contains(".expect(") {
            findings.push(Finding {
                code: "DA002",
                file: rel.to_string(),
                line: lineno,
                message: "`.expect(` in a panic-free file; handle the case instead".into(),
            });
        }
        if check_hashmap && raw.contains("HashMap") {
            findings.push(Finding {
                code: "DA003",
                file: rel.to_string(),
                line: lineno,
                message: "HashMap in a record-serialization module; \
                          iteration order must not reach persisted bytes — use BTreeMap"
                    .into(),
            });
        }
        if check_lock && (raw.contains(".lock().unwrap()") || raw.contains("poisoned\")")) {
            findings.push(Finding {
                code: "DA004",
                file: rel.to_string(),
                line: lineno,
                message: "panicking lock acquisition in long-lived service code; \
                          recover the guard with `PoisonError::into_inner`"
                    .into(),
            });
        }
        if check_fs && raw.contains("std::fs::") {
            findings.push(Finding {
                code: "DA005",
                file: rel.to_string(),
                line: lineno,
                message: "`std::fs` outside the history store's durable layer; \
                          go through the store's API or its `Vfs` and `durable.rs` helpers"
                    .into(),
            });
        }
    }
}

/// True when the line itself, or the contiguous `//` comment block
/// directly above it, carries a `det-audit: allow` marker.
fn allowed(lines: &[&str], idx: usize) -> bool {
    if lines[idx].contains("det-audit: allow") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if !t.starts_with("//") {
            return false;
        }
        if t.contains("det-audit: allow") {
            return true;
        }
    }
    false
}

#[test]
fn da002_flags_expect_only_in_panic_free_files() {
    let text = "fn f(x: Option<u8>) {\n\
                \x20   let a = x.unwrap();\n\
                \x20   let b = x.expect(\"always set\");\n\
                }\n";
    let da002 = |rel: &str| {
        let mut findings = Vec::new();
        audit_file(rel, text, &mut findings);
        findings
            .iter()
            .filter(|f| f.code == "DA002")
            .map(|f| f.line)
            .collect::<Vec<_>>()
    };
    assert_eq!(da002("crates/consultant/src/search.rs"), [2, 3]);
    assert_eq!(da002("crates/instr/src/faults.rs"), [2, 3]);
    assert_eq!(da002("crates/instr/src/collector.rs"), [2]);
    assert_eq!(da002("crates/core/src/supervise.rs"), [3]);
    assert_eq!(da002("crates/daemon/src/lib.rs"), [3]);
    assert_eq!(da002("crates/daemon/src/bin/histpcd.rs"), [3]);
    assert!(da002("crates/consultant/src/shg.rs").is_empty());
}

#[test]
fn da004_flags_panicking_lock_acquisition_in_service_code_only() {
    let text = "fn f(m: &Mutex<u8>) {\n\
                \x20   let a = m.lock().unwrap();\n\
                \x20   let b = m.lock().expect(\"m poisoned\");\n\
                \x20   let c = m.lock().unwrap_or_else(PoisonError::into_inner);\n\
                }\n";
    let da004 = |rel: &str| {
        let mut findings = Vec::new();
        audit_file(rel, text, &mut findings);
        findings
            .iter()
            .filter(|f| f.code == "DA004")
            .map(|f| f.line)
            .collect::<Vec<_>>()
    };
    assert_eq!(da004("crates/daemon/src/lib.rs"), [2, 3]);
    assert_eq!(da004("crates/core/src/supervise.rs"), [2, 3]);
    assert!(da004("crates/core/src/session.rs").is_empty());
}

#[test]
fn da005_flags_std_fs_in_history_outside_the_durable_layer() {
    let text = "fn f(p: &Path) {\n\
                \x20   let a = std::fs::read(p);\n\
                \x20   let b = fs.read(p);\n\
                }\n\
                #[cfg(test)]\n\
                mod tests {\n\
                \x20   fn g() { std::fs::write(\"x\", \"y\").unwrap(); }\n\
                }\n";
    let da005 = |rel: &str| {
        let mut findings = Vec::new();
        audit_file(rel, text, &mut findings);
        findings
            .iter()
            .filter(|f| f.code == "DA005")
            .map(|f| f.line)
            .collect::<Vec<_>>()
    };
    assert_eq!(da005("crates/history/src/store.rs"), [2]);
    assert_eq!(da005("crates/core/src/session.rs"), [2]);
    assert!(da005("crates/history/src/durable.rs").is_empty());
    assert!(da005("crates/core/src/supervise.rs").is_empty());
    assert!(da005("crates/lint/src/corpus.rs").is_empty());
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crates_dir = root.join("crates");
    let mut crate_names: Vec<String> = std::fs::read_dir(&crates_dir)
        .expect("crates/ is readable")
        .flatten()
        .filter(|entry| entry.path().is_dir())
        .map(|entry| entry.file_name().to_string_lossy().to_string())
        .collect();
    crate_names.sort();
    let mut files = Vec::new();
    for krate in &crate_names {
        collect_rs_files(&crates_dir.join(krate).join("src"), &mut files);
    }
    files.sort();
    assert!(
        !files.is_empty(),
        "no sources under {}",
        crates_dir.display()
    );

    let mut findings = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is readable");
        let rel = file
            .strip_prefix(&root)
            .expect("source lies under the workspace root")
            .to_string_lossy()
            .replace('\\', "/");
        audit_file(&rel, &text, &mut findings);
    }
    let report: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "det-audit[{}]: {}:{}: {}",
                f.code, f.file, f.line, f.message
            )
        })
        .collect();
    assert!(
        report.is_empty(),
        "{} finding(s) in {} scanned files:\n{}",
        report.len(),
        files.len(),
        report.join("\n")
    );
}
