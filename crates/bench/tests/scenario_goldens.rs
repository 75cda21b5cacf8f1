//! Scenario goldens and gates: the deterministic text of the overload,
//! degraded and poison scenarios, the raw engine event count and every
//! `paper` artifact must not move from one commit to the next, and each
//! robustness scenario must hold its acceptance gates.
//!
//! The gates are properties (converged, degraded gracefully, complete,
//! retention, the headline reduction under loss); the goldens pin exact
//! counters, which nothing else does. No timing is read. Every test here
//! runs full-length version-D diagnoses, so all are `#[ignore]`d and run
//! in release mode (`cargo test --workspace --release -- --include-ignored`).
//!
//! A golden only changes with a PR whose stated purpose is to change
//! diagnoses. To refresh one, copy the file the failure message names
//! over `crates/bench/tests/golden/<name>.txt` (or `artifacts/`).

use histpc::prelude::*;
use histpc_bench::{
    artifact, run_degraded, run_overload_soak, run_poison_soak, run_poison_version, PoisonKind,
    ARTIFACTS,
};
use std::fmt::Write;
use std::path::{Path, PathBuf};

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    check_file(name, &path, actual);
}

fn check_file(name: &str, path: &Path, actual: &str) {
    let expected = std::fs::read_to_string(path).unwrap_or_default();
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

/// Fails naming every gate that does not hold, with the scenario text.
fn assert_gates(scenario: &str, gates: &[(&str, bool)], text: &str) {
    let failed: Vec<&str> = gates
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| *name)
        .collect();
    assert!(
        failed.is_empty(),
        "{scenario}: gates failed: {failed:?}\n{text}"
    );
}

/// Version D under 5× sample pressure with admission control bends the
/// diagnosis instead of breaking it.
#[test]
#[ignore = "full-length diagnoses: run in release mode"]
fn overload() {
    let soak = run_overload_soak();
    let mut text = soak.render();
    assert_gates(
        "overload",
        &[
            (
                "loaded run converges on the unloaded top-level bottlenecks",
                soak.converged(),
            ),
            (
                "in-flight occupancy stayed within the bound",
                soak.admission.peak_in_flight <= soak.max_in_flight,
            ),
            (
                "sample pressure engaged the admission layer",
                soak.stats.flooded > 0 && soak.admission.shed_samples > 0,
            ),
            (
                "at least one process saturated into a Saturated verdict",
                soak.admission.breaker_opens > 0 && soak.saturated_pairs > 0,
            ),
            (
                "no directive harvested from under a saturated resource",
                soak.leaked_directives == 0,
            ),
        ],
        &text,
    );
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

/// The paper's headline diagnosis-time reduction (at least 75 %)
/// survives a lossy daemon layer at realistic loss rates.
#[test]
#[ignore = "full-length diagnoses: run in release mode"]
fn degraded_loss_keeps_headline_reduction() {
    for loss in [0.05, 0.10] {
        let exp = run_degraded(loss, None);
        let reduction = exp.reduction();
        assert!(
            reduction.is_some_and(|r| r >= 0.75),
            "loss {loss}: reduction {reduction:?} below the required 75%\n{}",
            exp.render()
        );
    }
}

#[test]
#[ignore = "full-length diagnoses: run in release mode"]
fn poison_d() {
    let r = run_poison_version(PoissonVersion::D, &PoisonKind::All.rates());
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

/// Poisoned history across versions A–D: every acceptance gate of the
/// trust loop holds for `kind`.
fn poison_soak_holds(kind: PoisonKind) {
    let soak = run_poison_soak(kind);
    let gates = [
        (
            "every baseline bottleneck survives the poisoned history",
            soak.complete(),
        ),
        (
            "at least half the clean-history saving is retained",
            soak.retained(),
        ),
        (
            "every revocation names the poisoned source and is pinned",
            soak.provenance_held(),
        ),
        ("the shadow-audit loop engaged", soak.audits_engaged()),
        (
            "zero poison + audit budget 0 is bit-identical",
            soak.zero_identical,
        ),
    ];
    assert_gates(kind.label(), &gates, &soak.render());
}

#[test]
#[ignore = "full-length diagnoses: run in release mode"]
fn poison_all_kinds_at_once() {
    poison_soak_holds(PoisonKind::All);
}

#[test]
#[ignore = "full-length diagnoses: run in release mode"]
fn poison_prune() {
    poison_soak_holds(PoisonKind::Prune);
}

#[test]
#[ignore = "full-length diagnoses: run in release mode"]
fn poison_threshold() {
    poison_soak_holds(PoisonKind::Threshold);
}

#[test]
#[ignore = "full-length diagnoses: run in release mode"]
fn poison_stale_mapping() {
    poison_soak_holds(PoisonKind::StaleMapping);
}

/// A raw (collector-free) version-D engine on the path the diagnosis
/// drivers take — per-key aggregates, no raw interval capture — stepped
/// 250 ms at a time to the 900 s horizon. Pins the work (events) and its
/// content: an FNV-64 over every drained delta in drain order (every
/// field, `seconds` by its bits) and one over the ground-truth totals.
#[test]
#[ignore = "full-length engine run: run in release mode"]
fn sim_d() {
    use histpc::resources::Fnv64;
    use histpc::sim::TotalsKey;
    fn key(h: &mut Fnv64, k: TotalsKey, vs: &[u64]) {
        h.write(&k.proc.0.to_le_bytes());
        h.write(&k.func.0.to_le_bytes());
        h.write(&[k.kind.index() as u8, u8::from(k.tag.is_some())]);
        h.write(&k.tag.map_or(0, |t| t.0).to_le_bytes());
        vs.iter().for_each(|v| h.write(&v.to_le_bytes()));
    }
    let mut engine = PoissonWorkload::new(PoissonVersion::D).build_engine();
    engine.set_raw_capture(false);
    let max = SimTime::from_secs(900);
    let mut now = SimTime::ZERO;
    let (mut deltas, mut hd) = (0u64, Fnv64::default());
    loop {
        now += SimDuration::from_millis(250);
        let status = engine.run_until(now);
        for d in engine.drain_deltas().deltas {
            let (s, e) = (d.start.as_micros(), d.end.as_micros());
            key(
                &mut hd,
                d.key(),
                &[s, e, d.seconds.to_bits(), d.bytes, d.msgs],
            );
            deltas += 1;
        }
        if status != EngineStatus::Running || now >= max {
            break;
        }
    }
    let mut ht = Fnv64::default();
    for (k, dur) in engine.totals().iter() {
        key(&mut ht, k, &[dur.as_micros()]);
    }
    let text = format!(
        "events {}\nsim_us {}\ndeltas {deltas}\ndeltas_fnv {:016x}\ntotals_fnv {:016x}\n",
        engine.events_drained(),
        now.as_micros(),
        hd.finish(),
        ht.finish(),
    );
    check("sim-d", &text);
}

/// The archived paper outputs cannot go stale silently: every artifact
/// `paper` prints matches its file under `artifacts/`.
#[test]
#[ignore = "every paper experiment: run in release mode"]
fn paper_artifacts_match_archive() {
    let archive = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    for name in ARTIFACTS {
        let file = match name {
            "fig1" => "fig1_hierarchies",
            "fig2" => "fig2_shg",
            "fig3" => "fig3_mappings",
            "combination" => "exp_combination",
            other => other,
        };
        let text = artifact(name).expect("every listed name is an artifact");
        check_file(name, &archive.join(format!("{file}.txt")), &text);
    }
}
