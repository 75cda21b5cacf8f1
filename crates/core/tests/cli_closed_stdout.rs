//! Integration: `histpc` must not die of a reader that stops reading
//! (`histpc run … | head -1`). `print!` panics on a closed pipe — exit
//! 101 and "failed printing to stdout" on stderr — so the CLI routes its
//! report output through a writer that drops it quietly instead.

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
