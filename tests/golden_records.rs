//! Golden-record gate: a diagnosis of each catalogue application must
//! produce a byte-identical `histpc-record v1` text from one commit to
//! the next.
//!
//! The record carries every verdict's last f64 value, so it changes if
//! the engine's emission order, the per-key f64 fold order of the sample
//! path, or any search decision moves — things the benchmark's in-run
//! oracles cannot see. The short variants run in the debug tier-1 suite;
//! the `#[ignore]`d ones use the CLI's full configuration and run in CI's
//! release-mode step (`cargo test --release --test golden_records --
//! --include-ignored`).
//!
//! A golden only changes with a PR whose stated purpose is to change
//! diagnoses. To refresh one, copy the file the failure message names
//! over `tests/golden/<name>.record`.

use histpc::history::format::write_record;
use histpc::prelude::*;
use std::path::PathBuf;

/// The paper's configuration (`SearchConfig::default`, which `histpc
/// run` uses), cut off after 30 s of application time so a debug
/// build finishes in seconds. Long enough for top-level verdicts and the
/// first refinements, where most pairs are live at once.
fn short_config() -> SearchConfig {
    SearchConfig {
        max_time: SimDuration::from_secs(30),
        ..SearchConfig::default()
    }
}

fn check(app: &str, config: &SearchConfig, golden: &str) {
    let workload = histpc::build_workload(app, None).expect("catalogue app");
    // A disabled plan takes the healthy drive loop, as `Session::diagnose`.
    let d = Session::new()
        .diagnose_faulted(workload.as_ref(), config, "golden", None)
        .expect("diagnosis runs")
        .diagnosis
        .expect("no tool crash is scheduled");
    let actual = write_record(&d.record);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{golden}.record"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual == expected {
        return;
    }
    let dump_dir = std::env::temp_dir().join("histpc-golden-actual");
    std::fs::create_dir_all(&dump_dir).expect("temp dir is writable");
    let dump = dump_dir.join(format!("{golden}.record"));
    std::fs::write(&dump, &actual).expect("temp dir is writable");
    let first_diff = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "{app}: record differs from {} at line {} (got {:?}, want {:?}); \
         actual text written to {}",
        path.display(),
        first_diff + 1,
        actual.lines().nth(first_diff).unwrap_or("<end of record>"),
        expected
            .lines()
            .nth(first_diff)
            .unwrap_or("<end of record>"),
        dump.display()
    );
}

macro_rules! golden {
    ($short:ident, $full:ident, $app:literal) => {
        #[test]
        fn $short() {
            check($app, &short_config(), concat!($app, ".short"));
        }

        #[test]
        #[ignore = "full-length diagnosis: run in release mode"]
        fn $full() {
            check($app, &SearchConfig::default(), concat!($app, ".full"));
        }
    };
}

golden!(poisson_a_short, poisson_a_full, "poisson-a");
golden!(poisson_b_short, poisson_b_full, "poisson-b");
golden!(poisson_c_short, poisson_c_full, "poisson-c");
golden!(poisson_d_short, poisson_d_full, "poisson-d");
golden!(ocean_short, ocean_full, "ocean");
golden!(tester_short, tester_full, "tester");
golden!(sweep3d_short, sweep3d_full, "sweep3d");

/// The faulted drive loop with a plan that needs individual samples
/// (raw capture stays on; reordering changes the per-key fold order).
#[test]
fn poisson_c_lossy_short() {
    let mut config = short_config();
    config.faults.seed = 7;
    config.faults.drop_rate = 0.02;
    config.faults.reorder_rate = 0.1;
    check("poisson-c", &config, "poisson-c.lossy.short");
}

/// The benchmark's `overload_d` plan: a sample flood against an
/// admission budget that sheds the tail rank every batch.
#[test]
fn poisson_d_overload_short() {
    let mut config = short_config();
    config.faults.seed = 7;
    config.faults.sample_flood = 5.0;
    config.faults.request_storm_rate = 0.25;
    config.faults.request_storm_burst = 16;
    config.collector.admission = AdmissionConfig {
        sample_budget: 33_200,
        ..AdmissionConfig::enabled()
    };
    check("poisson-d", &config, "poisson-d.overload.short");
}

/// A scheduled kill: the survivors' barrier completes from `kill_proc`,
/// outside `run_until`.
#[test]
fn sweep3d_kill_short() {
    let mut config = short_config();
    config.faults.kills.push(KillEvent {
        at: SimTime::from_secs(5),
        target: KillTarget::Proc(3),
    });
    check("sweep3d", &config, "sweep3d.kill.short");
}
