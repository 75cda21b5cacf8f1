//! Property tests of the supervision layer's two recovery contracts:
//!
//! * **Idempotent resume under repeated crashes** — a diagnosis cut by
//!   a tool crash at *every* checkpoint boundary, resumed each time
//!   from the checkpoint the previous crash left, converges on a final
//!   record bit-identical to the run that was never interrupted; each
//!   replay re-derives exactly the state the checkpoint digest
//!   promised.
//! * **Zero-fault supervised bit-identity** — a supervised fleet over
//!   a shared store, with no faults injected, stores exactly the
//!   records a bare, unsupervised `Session::diagnose` produces, across
//!   workload shapes.
//!
//! The chaos fleet below holds both at scale: many supervised sessions
//! run concurrently over one shared store, each under a seeded fault
//! plan drawn from the whole menu.

use histpc::consultant::HaltReason;
use histpc::history;
use histpc::history::fsck::fsck;
use histpc::prelude::*;
use histpc::supervise::{Outcome as SupOutcome, SessionDriver};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

fn fast_config() -> SearchConfig {
    SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(60),
        ..SearchConfig::default()
    }
}

proptest! {
    // Each case chains many full diagnoses; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Crash the search every `step` sample periods past the previous
    /// checkpoint, resume from each checkpoint, and keep going until a
    /// resume completes. However many times the run is cut, the final
    /// record must be the one an uninterrupted diagnosis produces, and
    /// every replay must match its checkpoint digest.
    #[test]
    fn resume_is_idempotent_under_repeated_crashes(
        step in 2u64..6,
        hotspot_weight in 1.0f64..3.0,
    ) {
        let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, hotspot_weight);
        let session = Session::new();
        let reference = session.diagnose(&wl, &fast_config(), "chain").unwrap();

        let sample_us = fast_config().sample.as_micros();
        let mut next_crash = step * sample_us;
        let mut ckpt: Option<SearchCheckpoint> = None;
        let mut cuts = 0u32;
        let resumed = loop {
            prop_assert!(cuts < 500, "crash chain did not converge");
            let mut config = fast_config();
            config.faults.tool_crash_at = Some(SimTime::from_micros(next_crash));
            let run = session
                .diagnose_faulted(&wl, &config, "chain", ckpt.as_ref())
                .unwrap();
            prop_assert!(
                run.resumed_digest_ok,
                "replayed state diverged from checkpoint after {cuts} cut(s)"
            );
            match run.diagnosis {
                Some(d) => break d,
                None => {
                    prop_assert_eq!(run.halted, Some(HaltReason::Crash));
                    let c = run.checkpoint.expect("crash leaves a checkpoint");
                    next_crash = c.at.as_micros() + step * sample_us;
                    ckpt = Some(c);
                    cuts += 1;
                }
            }
        };
        prop_assert!(cuts >= 2, "the run was cut only {cuts} time(s)");
        prop_assert_eq!(
            history::format::write_record(&resumed.record),
            history::format::write_record(&reference.record),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A zero-fault supervised fleet (two sessions contending for one
    /// store) completes without intervention and stores records
    /// byte-identical to bare diagnoses of the same workloads.
    #[test]
    fn zero_fault_supervised_fleet_is_bit_identical(
        nodes in 1usize..3,
        procs_per_node in 1usize..3,
        hotspot_weight in 0.5f64..3.0,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "histpc-supprop-{nodes}-{procs_per_node}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wl = SyntheticWorkload::balanced(nodes, procs_per_node, 0.1)
            .with_hotspot(0, 0, hotspot_weight);
        let session = Session::with_store(&dir).unwrap();

        let labels = ["fleet-a", "fleet-b"];
        let drivers: Vec<WorkloadSession> = labels
            .iter()
            .map(|l| WorkloadSession::new(&session, &wl, fast_config(), *l))
            .collect();
        let refs: Vec<&dyn SessionDriver> =
            drivers.iter().map(|d| d as &dyn SessionDriver).collect();
        let supervisor = Supervisor::new(SupervisorConfig {
            backoff_base: std::time::Duration::from_micros(200),
            backoff_cap: std::time::Duration::from_millis(2),
            ..SupervisorConfig::default()
        });
        let report = supervisor.run(&refs);
        prop_assert_eq!(report.sessions.len(), labels.len());
        for s in &report.sessions {
            prop_assert_eq!(&s.outcome, &SupOutcome::Completed, "notes: {:?}", s.notes);
        }

        let bare = Session::new();
        let store = session.store().unwrap();
        for label in labels {
            let stored = store.load("synth", label).unwrap();
            let d = bare.diagnose(&wl, &fast_config(), label).unwrap();
            prop_assert_eq!(
                history::format::write_record(&stored),
                history::format::write_record(&d.record),
            );
        }
        prop_assert!(store.orphaned_checkpoints().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// SplitMix64 — a tiny seeded generator so chaos fault plans are a pure
/// function of `(seed, session index)` and a failing case replays
/// exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// The faults rolled for one chaos session — tool crashes, sample
/// floods, process kills and sample loss — with a printable summary.
fn roll_faults(rng: &mut Rng, plan_seed: u64) -> (FaultPlan, String) {
    let mut plan = FaultPlan::none();
    plan.seed = plan_seed;
    let mut parts = Vec::new();
    if rng.chance(35) {
        let at = rng.range(300_000, 2_300_000);
        plan.tool_crash_at = Some(SimTime::from_micros(at));
        parts.push(format!("crash@{at}us"));
    }
    if rng.chance(25) {
        let flood = 2.0 + (rng.range(0, 40) as f64) / 10.0;
        plan.sample_flood = flood;
        parts.push(format!("flood×{flood:.1}"));
    }
    if rng.chance(20) {
        let rank = (rng.range(0, 4)) as u16;
        let at = rng.range(800_000, 3_000_000);
        plan.kills.push(KillEvent {
            at: SimTime::from_micros(at),
            target: KillTarget::Proc(rank),
        });
        parts.push(format!("kill-p{rank}@{at}us"));
    }
    if rng.chance(15) {
        plan.drop_rate = (rng.range(5, 30) as f64) / 100.0;
        parts.push(format!("drop{:.0}%", plan.drop_rate * 100.0));
    }
    let summary = if parts.is_empty() {
        "healthy".to_string()
    } else {
        parts.join(" ")
    };
    (plan, summary)
}

/// A chaos session's config: [`fast_config`] with a longer bound and a
/// deterministic in-loop stall deadline, so a wedged drive loop always
/// halts at a checkpoint instead of spinning to `max_time`.
fn chaos_config(plan: FaultPlan) -> SearchConfig {
    let mut config = SearchConfig {
        max_time: SimDuration::from_secs(120),
        stall: Some(SimDuration::from_secs(2)),
        ..fast_config()
    };
    if plan.sample_flood > 0.0 {
        // Flooded sessions shed at the door instead of queueing forever.
        config.collector.admission.enabled = true;
    }
    config.faults = plan;
    config
}

/// Runs `sessions` supervised sessions concurrently over one shared
/// store, then one repair pass and an integrity walk, and asserts the
/// chaos gates:
///
/// * every session terminates with a classification;
/// * after one repair pass the store has zero integrity errors;
/// * faulted: no session is abandoned by a supervision-thread panic;
/// * zero faults: every session completes without intervention and its
///   stored record is byte-identical to an unsupervised diagnosis.
///
/// Returns the fleet's transcript: its plans, the supervision report
/// and the fsck line. Repair notes are left out: which damage a repair
/// pass meets first depends on how the sessions interleaved.
fn chaos_fleet(test: &str, sessions: usize, seed: u64, zero_faults: bool) -> String {
    let mode = if zero_faults { "zero" } else { "faulted" };
    let case = format!("{sessions} session(s), seed {seed}, {mode}");
    let dir = std::env::temp_dir().join(format!(
        "histpc-chaos-{test}-{sessions}-{seed}-{mode}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::with_store(&dir).expect("scratch store opens");

    // The whole fleet shares one app namespace in one store: distinct
    // labels keep the records apart while every save contends for the
    // same lock.
    let mut rng = Rng(seed);
    let mut workloads = Vec::with_capacity(sessions);
    let mut plans = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let hot_node = (rng.next() % 2) as usize;
        let hot_proc = (rng.next() % 2) as usize;
        let heat = 1.5 + (rng.range(0, 100) as f64) / 100.0;
        workloads
            .push(SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(hot_node, hot_proc, heat));
        let plan_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        plans.push(if zero_faults {
            (FaultPlan::none(), "healthy".to_string())
        } else {
            roll_faults(&mut rng, plan_seed)
        });
    }
    let mut transcript = format!("chaos: {case}\n");
    for (i, (_, summary)) in plans.iter().enumerate() {
        transcript.push_str(&format!("  plan soak-{i:02}: {summary}\n"));
    }

    let drivers: Vec<WorkloadSession> = (0..sessions)
        .map(|i| {
            WorkloadSession::new(
                &session,
                &workloads[i],
                chaos_config(plans[i].0.clone()),
                format!("soak-{i:02}"),
            )
        })
        .collect();
    let refs: Vec<&dyn SessionDriver> = drivers.iter().map(|d| d as &dyn SessionDriver).collect();
    let report = Supervisor::new(SupervisorConfig {
        retry_budget: 3,
        stall: Some(Duration::from_secs(30)),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(50),
    })
    .run(&refs);
    transcript.push_str(&report.render());

    // Whatever the crashed and killed sessions left behind must be
    // settled by one repair pass — never silently kept.
    let store = session.store().expect("chaos session has a store");
    store.repair().expect("store repair runs");
    let findings = fsck(store.root());
    let errors: Vec<String> = findings
        .iter()
        .filter(|d| d.is_error())
        .map(ToString::to_string)
        .collect();
    transcript.push_str(&format!(
        "fsck: {} error(s), {} warning(s) after repair\n",
        errors.len(),
        findings.len() - errors.len()
    ));

    assert_eq!(
        report.sessions.len(),
        sessions,
        "{case}: a session went unclassified"
    );
    assert!(
        errors.is_empty(),
        "{case}: store unhealthy after one repair: {errors:?}"
    );
    if zero_faults {
        for s in &report.sessions {
            assert_eq!(
                s.outcome,
                SupOutcome::Completed,
                "{case}: {}: {:?}",
                s.label,
                s.notes
            );
        }
        let bare = Session::new();
        for (i, (plan, _)) in plans.iter().enumerate() {
            let label = format!("soak-{i:02}");
            let stored = store
                .load("synth", &label)
                .expect("stored record is readable");
            let d = bare
                .diagnose(&workloads[i], &chaos_config(plan.clone()), &label)
                .expect("zero-fault config lints clean");
            assert_eq!(
                history::format::write_record(&stored),
                history::format::write_record(&d.record),
                "{case}: {label}: stored record differs from bare diagnosis"
            );
        }
    } else {
        for s in &report.sessions {
            assert!(
                !matches!(&s.outcome, SupOutcome::Abandoned { reason } if reason.contains("panicked")),
                "{case}: {} abandoned by a supervision-thread panic: {}",
                s.label,
                s.outcome
            );
        }
    }
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    transcript
}

/// Compares `actual` with `tests/golden/<name>.txt`; to refresh a golden,
/// copy the file the failure message names over it.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual == expected {
        return;
    }
    let dump = std::env::temp_dir().join(format!("histpc-golden-actual-{name}.txt"));
    std::fs::write(&dump, actual).expect("temp dir is writable");
    panic!(
        "{name}: transcript differs from {}\n--- want\n{expected}--- got\n{actual}\
         actual text written to {}",
        path.display(),
        dump.display()
    );
}

#[test]
fn chaos_fleet_of_16_under_faults() {
    let transcript = chaos_fleet("golden", 16, 1, false);
    check_golden("chaos-16-seed1", &transcript);
}

#[test]
fn chaos_fleet_of_8_without_faults_is_bit_identical() {
    let transcript = chaos_fleet("golden", 8, 1, true);
    check_golden("chaos-8-seed1-zero", &transcript);
}

#[test]
#[ignore = "the chaos matrix: run in release mode"]
fn chaos_fleet_matrix_holds_its_gates() {
    for seed in [1, 7, 99] {
        for sessions in [16, 32] {
            for zero_faults in [false, true] {
                chaos_fleet("matrix", sessions, seed, zero_faults);
            }
        }
    }
}
