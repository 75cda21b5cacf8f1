//! Integration: `histpc` must not die of a reader that stops reading
//! (`histpc run … | head -1`, or a stderr pipe closed early). `print!`
//! and `eprint!` panic on a closed pipe — exit 101 — so the CLI routes
//! both streams through writers that drop the rest quietly instead.

use std::process::{Command, Stdio};

#[test]
fn run_survives_a_stdout_closed_early() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_histpc"))
        .args(["run", "--app", "tester", "--max-time", "5"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("histpc spawns");
    // Close the read end before the report is written: every write to
    // stdout then fails with EPIPE, as after `head` has exited.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("histpc exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked") && !stderr.contains("failed printing"),
        "stderr: {stderr}"
    );
    // The diagnosis itself succeeded; only its reader went away.
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn run_survives_a_stderr_closed_early() {
    let dir = std::env::temp_dir().join(format!("histpc-cli-closed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plan = dir.join("faults.txt");
    std::fs::write(&plan, "histpc-faults v1\nseed 3\ndrop 0.05\n").unwrap();
    // A fault plan makes `run` print its `faults: …` summary to stderr.
    let mut child = Command::new(env!("CARGO_BIN_EXE_histpc"))
        .args(["run", "--app", "tester", "--max-time", "5", "--faults"])
        .arg(&plan)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("histpc spawns");
    drop(child.stderr.take());
    let out = child.wait_with_output().expect("histpc exits");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bottlenecks found"), "stdout: {stdout}");
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
}
