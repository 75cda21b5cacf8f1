//! Scenario goldens: the deterministic text of the overload, degraded
//! and poison scenarios and the raw engine event count must not move
//! from one commit to the next.
//!
//! The soak bins gate these scenarios' *properties* (converged, degraded
//! gracefully, complete, retention); this test pins their exact
//! counters, which nothing else does. No timing is read. All four are
//! full-length version-D runs, so they are `#[ignore]`d and run in CI's
//! release-mode step (`cargo test --release -p histpc-bench --test
//! scenario_goldens -- --include-ignored`).
//!
//! A golden only changes with a PR whose stated purpose is to change
//! diagnoses. To refresh one, copy the file the failure message names
//! over `crates/bench/tests/golden/<name>.txt`.

use histpc::prelude::*;
use histpc_bench::{run_degraded, run_overload_soak, run_poison_version, PoisonKind};
use std::fmt::Write;
use std::path::PathBuf;

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual == expected {
        return;
    }
    let dump_dir = std::env::temp_dir().join("histpc-golden-actual");
    std::fs::create_dir_all(&dump_dir).expect("temp dir is writable");
    let dump = dump_dir.join(format!("{name}.txt"));
    std::fs::write(&dump, actual).expect("temp dir is writable");
    panic!(
        "{name}: scenario text differs from {}\n--- want\n{expected}--- got\n{actual}\
         actual text written to {}",
        path.display(),
        dump.display()
    );
}

#[test]
#[ignore = "full-length diagnoses: run in release mode"]
fn overload() {
    let soak = run_overload_soak(5.0);
    let mut text = soak.render();
    writeln!(text, "shed_requests {}", soak.admission.shed_requests).unwrap();
    writeln!(text, "converged {}", soak.converged()).unwrap();
    writeln!(text, "degraded_gracefully {}", soak.degraded_gracefully()).unwrap();
    check("overload", &text);
}

#[test]
#[ignore = "full-length diagnoses: run in release mode"]
fn degraded() {
    let exp = run_degraded(0.10, Some(SimTime::from_secs(5)));
    let mut text = exp.render();
    // `render` rounds the reduction to a tenth of a percent.
    writeln!(text, "reduction {:?}", exp.reduction()).unwrap();
    check("degraded", &text);
}

#[test]
#[ignore = "full-length diagnoses: run in release mode"]
fn poison_d() {
    let r = run_poison_version(PoissonVersion::D, &PoisonKind::All.plan());
    let mut text = String::new();
    writeln!(text, "version {}", r.version).unwrap();
    writeln!(text, "truth {}", r.truth).unwrap();
    writeln!(text, "missed {:?}", r.missed).unwrap();
    writeln!(text, "injected {}", r.summary.total()).unwrap();
    writeln!(text, "audits {}", r.audits).unwrap();
    writeln!(text, "revocations {}", r.revocations).unwrap();
    writeln!(text, "mislabeled {}", r.mislabeled_revocations).unwrap();
    writeln!(text, "unpinned {}", r.unpinned_revocations).unwrap();
    writeln!(text, "base_us {:?}", r.base_us).unwrap();
    writeln!(text, "clean_us {:?}", r.clean_us).unwrap();
    writeln!(text, "poisoned_us {:?}", r.poisoned_us).unwrap();
    writeln!(text, "score {}", r.score).unwrap();
    check("poison-d", &text);
}

/// A raw (collector-free) version-D engine on the path the diagnosis
/// drivers take — per-key aggregates, no raw interval capture — stepped
/// 250 ms at a time to the 900 s horizon.
#[test]
#[ignore = "full-length engine run: run in release mode"]
fn sim_d() {
    let mut engine = PoissonWorkload::new(PoissonVersion::D).build_engine();
    engine.set_raw_capture(false);
    let max = SimTime::from_secs(900);
    let mut now = SimTime::ZERO;
    loop {
        now += SimDuration::from_millis(250);
        let status = engine.run_until(now);
        let _ = engine.drain_deltas();
        if status != EngineStatus::Running || now >= max {
            break;
        }
    }
    let text = format!(
        "events {}\nsim_us {}\n",
        engine.events_drained(),
        now.as_micros()
    );
    check("sim-d", &text);
}
