//! Integration: the `histpc store` subcommand family end to end — a
//! crash-damaged store must show damage `fsck` can name, `repair` must
//! bring the store back to a state that passes `fsck --deny-warnings`,
//! and `migrate` must upgrade a legacy v0 store in place.

use histpc::history;
use histpc::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_histpc"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("histpc-cli-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records one fast synthetic run into `dir`/store as `synth/r1`.
fn record_run(dir: &Path) -> PathBuf {
    let store = dir.join("store");
    let session = Session::with_store(&store).unwrap();
    let wl = SyntheticWorkload::balanced(2, 1, 0.5).with_hotspot(0, 0, 1.0);
    let config = SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(60),
        ..SearchConfig::default()
    };
    session.diagnose(&wl, &config, "r1").unwrap();
    store
}

fn store_cmd(action: &str, store: &Path, extra: &[&str]) -> std::process::Output {
    bin()
        .arg("store")
        .arg(action)
        .arg("--store")
        .arg(store)
        .args(extra)
        .output()
        .unwrap()
}

#[test]
fn healthy_store_passes_fsck_deny_warnings() {
    let dir = scratch("clean");
    let store = record_run(&dir);

    let out = store_cmd("fsck", &store, &["--deny-warnings"]);
    assert!(
        out.status.success(),
        "fsck failed on a healthy store:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("clean"),
        "fsck did not report the store clean"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Stages what a tool killed mid-save leaves in `store`: with
/// `torn_record`, a `put` intent for `synth/r1` without its `ok` and the
/// record file cut in half; with `torn_journal`, a `put` intent line cut
/// mid-append.
fn stage_crash(store: &Path, torn_record: bool, torn_journal: bool) {
    use std::io::Write;
    let intent = "put 0000000000000000 record synth r1";
    let mut journal = std::fs::OpenOptions::new()
        .append(true)
        .open(store.join(history::journal::JOURNAL_FILE))
        .unwrap();
    if torn_record {
        writeln!(journal, "{intent}").unwrap();
        let path = store.join("synth").join("r1.record");
        let text = std::fs::read(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    }
    if torn_journal {
        write!(journal, "{}", &intent[..intent.len() / 2]).unwrap();
    }
}

/// Crash-shaped damage on a store: `fsck --deny-warnings` names it and
/// exits non-zero (a torn record is an HL023 integrity error even
/// without `--deny-warnings`); `repair` recovers; `fsck
/// --deny-warnings` then passes.
#[test]
fn crash_faulted_run_then_repair_then_fsck_passes() {
    for (name, torn_record, torn_journal) in [
        ("torn-record", true, false),
        ("torn-journal", false, true),
        ("both", true, true),
    ] {
        let dir = scratch(&format!("crash-{name}"));
        let store = record_run(&dir);
        stage_crash(&store, torn_record, torn_journal);

        let strict = store_cmd("fsck", &store, &["--deny-warnings"]);
        assert!(!strict.status.success(), "{name}: fsck missed the damage");
        if torn_record {
            let before = store_cmd("fsck", &store, &[]);
            assert!(
                !before.status.success(),
                "{name}: fsck missed the torn record"
            );
            let stderr = String::from_utf8_lossy(&before.stderr);
            assert!(stderr.contains("HL023"), "{name}: missing HL023:\n{stderr}");
        }

        let repair = store_cmd("repair", &store, &[]);
        assert!(
            repair.status.success(),
            "{name}: repair failed:\n{}",
            String::from_utf8_lossy(&repair.stderr)
        );
        assert!(
            String::from_utf8_lossy(&repair.stdout).contains("repaired"),
            "{name}: repair did not report its actions"
        );

        let after = store_cmd("fsck", &store, &["--deny-warnings"]);
        assert!(
            after.status.success(),
            "{name}: store still unhealthy after repair:\n{}",
            String::from_utf8_lossy(&after.stderr)
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Version D under sample loss and under overload with admission
/// control, through the CLI: each run exits with its pinned code (0
/// when loss leaves every verdict firm, 3 when saturated verdicts make
/// the report degraded-but-honest), and the store it wrote passes
/// strict fsck after one repair.
#[test]
#[ignore = "full-length version-D diagnoses: run in release mode"]
fn degraded_and_overloaded_runs_exit_as_pinned_and_leave_a_clean_store() {
    // The budget is calibrated to version D's real stream (see
    // `run_overload_soak`): ranks 0-6 always fit, rank 8's tail sheds.
    let overload = ["--admission", "sample-budget=33200"];
    let cases: [(&str, &str, &[&str], i32); 6] = [
        ("drop-5", "drop 0.05\n", &[], 0),
        ("drop-10", "drop 0.10\n", &[], 0),
        ("sample-flood", "sample-flood 5\n", &overload, 3),
        ("slow-collector", "slow-collector 200000\n", &overload, 3),
        ("request-storm", "request-storm 0.25 16\n", &overload, 3),
        (
            "combined",
            "sample-flood 3\nslow-collector 100000\nrequest-storm 0.25 8\n",
            &overload,
            3,
        ),
    ];
    for (name, faults, extra, want) in cases {
        let dir = scratch(&format!("degraded-{name}"));
        let store = dir.join("store");
        let plan_file = dir.join("plan.faults");
        std::fs::write(&plan_file, format!("histpc-faults v1\nseed 99\n{faults}")).unwrap();
        let label = if extra.is_empty() {
            "degraded"
        } else {
            "overloaded"
        };
        let run = bin()
            .args(["run", "--app", "poisson-d", "--label", label, "--store"])
            .arg(&store)
            .arg("--faults")
            .arg(&plan_file)
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(
            run.status.code(),
            Some(want),
            "{name}: unexpected exit:\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let repair = store_cmd("repair", &store, &[]);
        assert!(
            repair.status.success(),
            "{name}: repair failed:\n{}",
            String::from_utf8_lossy(&repair.stderr)
        );
        let fsck = store_cmd("fsck", &store, &["--deny-warnings"]);
        assert!(
            fsck.status.success(),
            "{name}: store unhealthy after repair:\n{}",
            String::from_utf8_lossy(&fsck.stderr)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn migrate_upgrades_a_v0_store_in_place() {
    let dir = scratch("migrate");
    // A v0 store: loose unframed record files, no manifest or journal.
    let v0 = dir.join("store");
    let store = record_run(&dir);
    let text = history::format::write_record(
        &history::ExecutionStore::open(&store)
            .unwrap()
            .load("synth", "r1")
            .unwrap(),
    );
    let _ = std::fs::remove_dir_all(&v0);
    std::fs::create_dir_all(v0.join("synth")).unwrap();
    std::fs::write(v0.join("synth/r1.record"), &text).unwrap();

    // fsck flags the legacy layout as a warning: exit zero normally,
    // non-zero under --deny-warnings.
    let plain = store_cmd("fsck", &v0, &[]);
    assert!(plain.status.success(), "HL025 alone must not fail fsck");
    let stderr = String::from_utf8_lossy(&plain.stderr);
    assert!(stderr.contains("HL025"), "missing HL025:\n{stderr}");
    let deny = store_cmd("fsck", &v0, &["--deny-warnings"]);
    assert!(!deny.status.success(), "--deny-warnings must fail on v0");

    let migrate = store_cmd("migrate", &v0, &[]);
    assert!(
        migrate.status.success(),
        "migrate failed:\n{}",
        String::from_utf8_lossy(&migrate.stderr)
    );
    assert!(
        String::from_utf8_lossy(&migrate.stdout).contains("migrated 1 record(s)"),
        "migrate did not count the upgraded record"
    );

    let after = store_cmd("fsck", &v0, &["--deny-warnings"]);
    assert!(
        after.status.success(),
        "migrated store not clean:\n{}",
        String::from_utf8_lossy(&after.stderr)
    );
    // The record's payload bytes are preserved exactly.
    let upgraded = history::ExecutionStore::open(&v0).unwrap();
    assert_eq!(
        history::format::write_record(&upgraded.load("synth", "r1").unwrap()),
        text
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trust_subcommand_reports_the_ledger_and_fsck_skips_it() {
    let dir = scratch("trust");
    let store = record_run(&dir);

    // A fresh store has no ledger.
    let empty = store_cmd("trust", &store, &[]);
    assert!(empty.status.success());
    assert!(
        String::from_utf8_lossy(&empty.stdout).contains("no trust entries"),
        "empty ledger not reported"
    );

    // Seed a ledger: one down-weighted source with a pinned revocation.
    let mut ledger = history::trust::TrustLedger::new();
    ledger.record_audit("synth/r1", false);
    ledger.record_revocation("synth/r1", "prune CPUbound resource /Code/a.c");
    ledger.save(&store).unwrap();

    let text = store_cmd("trust", &store, &[]);
    assert!(text.status.success());
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(stdout.contains("synth/r1"), "source missing:\n{stdout}");
    assert!(
        stdout.contains("down-weighted"),
        "verdict missing:\n{stdout}"
    );
    assert!(
        stdout.contains("revoked: prune CPUbound resource /Code/a.c"),
        "revoked line missing:\n{stdout}"
    );

    // JSON rides the stable lint-report schema: the revocation is an
    // HL037 warning a machine reader can key on.
    let json = store_cmd("trust", &store, &["--format", "json"]);
    assert!(json.status.success());
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(
        stdout.contains("\"schema\": \"histpc-lint-report/v1\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("HL037"),
        "revocation not in JSON:\n{stdout}"
    );

    // The TRUST sidecar is invisible to integrity checking: fsck lists
    // it as a skipped note and --deny-warnings still passes.
    let fsck = store_cmd("fsck", &store, &["--deny-warnings"]);
    assert!(
        fsck.status.success(),
        "TRUST sidecar failed fsck:\n{}",
        String::from_utf8_lossy(&fsck.stderr)
    );
    assert!(
        String::from_utf8_lossy(&fsck.stderr).contains("skipped: sidecar"),
        "sidecar not listed as skipped"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_clears_litter_and_bad_usage_is_rejected() {
    let dir = scratch("compact");
    let store = record_run(&dir);
    std::fs::write(store.join("synth/r9.record.tmp"), "interrupted").unwrap();

    let compact = store_cmd("compact", &store, &[]);
    assert!(
        compact.status.success(),
        "compact failed:\n{}",
        String::from_utf8_lossy(&compact.stderr)
    );
    let after = store_cmd("fsck", &store, &["--deny-warnings"]);
    assert!(
        after.status.success(),
        "litter survived compact:\n{}",
        String::from_utf8_lossy(&after.stderr)
    );

    let bogus = store_cmd("defrag", &store, &[]);
    assert!(!bogus.status.success(), "unknown action must be rejected");
    let no_dir = bin().args(["store", "fsck"]).output().unwrap();
    assert!(!no_dir.status.success(), "missing --store must be rejected");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Verbs that read or maintain an existing store must not conjure one
/// out of a mistyped path: exit 1, say so, create nothing.
#[test]
fn read_only_verbs_refuse_a_missing_store() {
    let dir = scratch("missing");
    let typo = dir.join("TYPO");
    let p = typo.to_str().unwrap();
    let verbs: [&[&str]; 11] = [
        &["ls", "--store", p],
        &["shg", "--store", p, "--app", "synth", "--label", "r1"],
        &[
            "compare", "--store", p, "--app", "synth", "--from", "r1", "--to", "r2",
        ],
        &["harvest", "--store", p, "--app", "synth", "--label", "r1"],
        &[
            "map", "--store", p, "--app", "synth", "--from", "r1", "--to", "r2",
        ],
        &["lint", "corpus", p],
        &["store", "compact", "--store", p],
        &["store", "repair", "--store", p],
        &["store", "migrate", "--store", p],
        &["store", "trust", "--store", p],
        &["store", "trust", "--store", p, "--format", "json"],
    ];
    for args in verbs {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: no store at {p}")),
            "{args:?} stderr: {stderr}"
        );
        assert!(!typo.exists(), "{args:?} created {p}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
