//! Integration: `histpc supervise` exit-code precedence end to end.
//!
//! The CLI maps a supervision report to an exit code worst-wins:
//! any abandoned session ⇒ 1, else any degraded session ⇒ 3, else 0.
//! These tests drive real supervised runs into each band — including
//! the mixed abandoned+degraded report, which must exit 1, never 3 —
//! and check that `histpc ls` surfaces orphaned daemon leases (HL035)
//! the same way it surfaces abandoned checkpoints (HL034).

use histpc::history::lease::{self, Lease};
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_histpc"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("histpc-cli-sup-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fault plan that crashes the tool at t = 1s on every attempt, so a
/// session with `--retries 0` rides the ladder down to its conclusion:
/// history-only prognosis (degraded) when the store already has runs of
/// the app, abandonment when it does not.
fn crash_plan(dir: &Path) -> PathBuf {
    let path = dir.join("crash.faults");
    std::fs::write(&path, "histpc-faults v1\nseed 1\ncrash-tool 1000000\n").unwrap();
    path
}

/// Seeds the store with one completed run of `app` so prognosis has
/// history to fall back on.
fn seed_history(store: &Path, app: &str) {
    let out = bin()
        .args(["run", "--app", app, "--label", "seed", "--store"])
        .arg(store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "seed run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn all_sessions_abandoned_exits_one() {
    let dir = scratch("abandon");
    let store = dir.join("store");
    let plan = crash_plan(&dir);

    // Empty store: the ladder bottoms out with nothing to prognose.
    let out = bin()
        .args([
            "supervise",
            "--apps",
            "tester",
            "--retries",
            "0",
            "--faults",
        ])
        .arg(&plan)
        .arg("--store")
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("abandoned"),
        "report must classify the session"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_sessions_exit_three() {
    let dir = scratch("degrade");
    let store = dir.join("store");
    let plan = crash_plan(&dir);
    seed_history(&store, "tester");

    let out = bin()
        .args([
            "supervise",
            "--apps",
            "tester",
            "--retries",
            "0",
            "--faults",
        ])
        .arg(&plan)
        .arg("--store")
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("degraded"),
        "report must classify the session"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The worst-wins case: one session degrades (its app has history to
/// prognose from), the other is abandoned (no history at all). The
/// report carries both — the exit code must be 1, never 3.
#[test]
fn mixed_abandoned_and_degraded_exits_one_not_three() {
    let dir = scratch("mixed");
    let store = dir.join("store");
    let plan = crash_plan(&dir);
    seed_history(&store, "tester");

    let out = bin()
        .args([
            "supervise",
            "--apps",
            "tester,ocean",
            "--retries",
            "0",
            "--faults",
        ])
        .arg(&plan)
        .arg("--store")
        .arg(&store)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("degraded"),
        "tester should degrade:\n{stdout}"
    );
    assert!(
        stdout.contains("abandoned"),
        "ocean should be abandoned:\n{stdout}"
    );
    assert_eq!(out.status.code(), Some(1), "worst outcome wins:\n{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `histpc ls` surfaces daemon leases that no checkpoint backs (HL035)
/// alongside its listings, like it does abandoned checkpoints (HL034).
#[test]
fn ls_surfaces_orphaned_leases() {
    let dir = scratch("ls-lease");
    let store = dir.join("store");
    seed_history(&store, "tester");
    lease::write_lease(
        &store,
        &Lease {
            tenant: "team-x".into(),
            app: "Tester".into(),
            label: "ghost".into(),
            epoch: 1,
            state: "active".into(),
            spec: String::new(),
        },
    )
    .unwrap();

    let out = bin().arg("ls").arg("--store").arg(&store).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("orphaned lease"), "{stdout}");
    assert!(stdout.contains("HL035"), "{stdout}");
    assert!(stdout.contains("team-x"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag the verb does not read is a usage error (exit 2), not a
/// silent no-op: a typo, a flag of another verb, a local-run flag on a
/// remote run, and a flag of another store action.
#[test]
fn flags_a_verb_does_not_read_are_rejected() {
    for (command, want) in [
        (
            "run --app poisson-a --max-time 30 --max-tme 5 --budget 7",
            "unknown flag --max-tme for histpc run",
        ),
        (
            "supervise --store S --apps poisson-a --directives /nonexistent",
            "unknown flag --directives for histpc supervise",
        ),
        (
            "run --remote S --app tester --store S",
            "unknown flag --store for histpc run --remote",
        ),
        (
            "store compact --store S --deny-warnings",
            "unknown flag --deny-warnings for histpc store compact",
        ),
    ] {
        let out = bin().args(command.split(' ')).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{command} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{command} stderr: {stderr}");
        assert!(stderr.contains("usage:"), "{command} stderr: {stderr}");
    }
    assert!(
        !Path::new("S").exists(),
        "a rejected command created a store"
    );
}

/// A window that rounds to no time is a usage error (exit 2) before
/// anything runs, locally or remotely: a local run counts it in
/// microseconds, a remote one in whole milliseconds.
#[test]
fn a_window_of_no_time_is_rejected() {
    for command in [
        "run --app tester --window 0",
        "run --app tester --window 0.0000001",
        "run --app tester --window soon",
        "supervise --store S --apps tester --window 0",
        "run --remote S --app tester --window 0.0005",
    ] {
        let out = bin().args(command.split(' ')).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{command} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad --window"),
            "{command} stderr: {stderr}"
        );
    }
    assert!(
        !Path::new("S").exists(),
        "a rejected command created a store"
    );
}
