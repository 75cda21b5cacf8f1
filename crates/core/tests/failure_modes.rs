//! Integration tests of the fault-injection layer and the consultant's
//! graceful degradation: lossy sample delivery, dying nodes and
//! processes, injected tool crashes, and what the history layer is
//! allowed to harvest from such runs.

use histpc::history;
use histpc::prelude::*;

fn fast_config() -> SearchConfig {
    SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(60),
        ..SearchConfig::default()
    }
}

fn record_text(d: &Diagnosis) -> String {
    history::format::write_record(&d.record)
}

/// Field-by-field comparison of two diagnosis reports (the struct does
/// not implement `PartialEq`; the record text covers outcomes, times,
/// and unreachable resources bit-exactly).
fn assert_reports_identical(a: &Diagnosis, b: &Diagnosis) {
    assert_eq!(record_text(a), record_text(b));
    assert_eq!(a.report.shg_rendering, b.report.shg_rendering);
    assert_eq!(a.report.quiescent, b.report.quiescent);
    assert_eq!(a.report.peak_cost.to_bits(), b.report.peak_cost.to_bits());
}

/// The serialisable fault plan survives a text round trip exactly, with
/// every fault class populated.
#[test]
fn fault_plan_round_trips_through_text() {
    let plan = FaultPlan {
        seed: 42,
        drop_rate: 0.1,
        delay_rate: 0.05,
        delay: SimDuration::from_millis(300),
        reorder_rate: 0.02,
        request_fail_rate: 0.2,
        request_defer_rate: 0.1,
        request_defer_by: SimDuration::from_millis(150),
        kills: vec![
            KillEvent {
                at: SimTime::from_micros(5_000_000),
                target: KillTarget::Node("node16".into()),
            },
            KillEvent {
                at: SimTime::from_micros(7_000_000),
                target: KillTarget::Proc(3),
            },
        ],
        tool_crash_at: Some(SimTime::from_micros(9_000_000)),
        sample_flood: 5.0,
        slow_collector: SimDuration::from_millis(40),
        request_storm_rate: 0.25,
        request_storm_burst: 8,
    };
    let parsed = FaultPlan::parse(&plan.to_text()).expect("plan text parses");
    assert_eq!(parsed, plan);
    assert!(!plan.is_disabled());
    assert_eq!(
        FaultPlan::parse(&FaultPlan::none().to_text()).unwrap(),
        FaultPlan::none()
    );
}

/// With no faults injected, `diagnose_faulted` is bit-identical to
/// `diagnose`: same record text, same SHG rendering, same cost trace.
#[test]
fn disabled_fault_layer_is_bit_identical_to_baseline() {
    let wl = PoissonWorkload::new(PoissonVersion::D).with_seed(11);
    let session = Session::new();
    let config = fast_config();
    let plain = session.diagnose(&wl, &config, "base").unwrap();
    let faulted = session
        .diagnose_faulted(&wl, &config, "base", None)
        .unwrap()
        .diagnosis
        .expect("no crash scheduled");
    assert_reports_identical(&plain, &faulted);
}

/// Killing a process mid-search yields Unknown (starved) and Unreachable
/// (dead-resource) verdicts, and extraction never prunes or prioritises
/// any of those merely-unobserved pairs.
#[test]
fn unknown_verdicts_propagate_into_extraction_unpruned() {
    let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
    let mut config = fast_config();
    config.faults.seed = 7;
    config.faults.kills.push(KillEvent {
        at: SimTime::from_micros(1_500_000),
        target: KillTarget::Proc(1),
    });
    let d = Session::new()
        .diagnose_faulted(&wl, &config, "degraded", None)
        .unwrap()
        .diagnosis
        .expect("no crash scheduled");
    let shaky: Vec<&NodeOutcome> = d
        .record
        .outcomes
        .iter()
        .filter(|o| matches!(o.outcome, Outcome::Unknown | Outcome::Unreachable))
        .collect();
    assert!(
        shaky.iter().any(|o| o.outcome == Outcome::Unreachable),
        "process kill produced no Unreachable verdicts"
    );
    assert!(
        !d.record.unreachable.is_empty(),
        "record did not register the dead resource"
    );
    let directives = history::extract(&d.record, &ExtractionOptions::all_prunes());
    for o in &shaky {
        for p in &directives.prunes {
            assert!(
                !p.matches(&o.hypothesis, &o.focus),
                "{:?}-verdict pair {} {} was pruned",
                o.outcome,
                o.hypothesis,
                o.focus
            );
        }
    }
    let priorities = history::extract(&d.record, &ExtractionOptions::priorities_only());
    for o in &shaky {
        assert!(
            !priorities
                .priorities
                .iter()
                .any(|p| p.hypothesis == o.hypothesis && p.focus == o.focus),
            "{:?}-verdict pair {} {} got a priority directive",
            o.outcome,
            o.hypothesis,
            o.focus
        );
    }
}

/// An injected tool crash leaves a checkpoint; resuming from it on the
/// same seed reproduces the uninterrupted run exactly, and the replayed
/// state matches the checkpoint digest.
#[test]
fn resume_after_crash_matches_uninterrupted_run() {
    let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
    let session = Session::new();
    let mut config = fast_config();
    config.faults.seed = 13;
    config.faults.drop_rate = 0.05;

    let uninterrupted = session
        .diagnose_faulted(&wl, &config, "full", None)
        .unwrap()
        .diagnosis
        .expect("no crash scheduled");

    config.faults.tool_crash_at = Some(SimTime::from_micros(1_200_000));
    let interrupted = session
        .diagnose_faulted(&wl, &config, "crashed", None)
        .unwrap();
    assert!(interrupted.diagnosis.is_none(), "crash did not interrupt");
    let ckpt = interrupted.checkpoint.expect("crash leaves a checkpoint");
    assert_eq!(ckpt.at, SimTime::from_micros(1_200_000));

    let resumed = session
        .diagnose_faulted(&wl, &config, "resumed", Some(&ckpt))
        .unwrap();
    assert!(
        resumed.resumed_digest_ok,
        "replayed search state diverged from the checkpoint digest"
    );
    let resumed = resumed.diagnosis.expect("resume runs to completion");
    // Labels differ; neutralise before the bit-exact comparison.
    let mut a = uninterrupted;
    let mut b = resumed;
    a.record.label = "x".into();
    b.record.label = "x".into();
    assert_reports_identical(&a, &b);
}

/// The acceptance scenario: 10% sample loss plus a node death at t = 5 s
/// injected into the version-D Poisson run. The search must complete,
/// directives harvested from the degraded record must lint clean under
/// `--deny-warnings` semantics (against the record included), and no
/// prune may cover an Unknown/Unreachable pair.
#[test]
fn degraded_version_d_run_harvests_safely() {
    let wl = PoissonWorkload::new(PoissonVersion::D);
    let mut config = fast_config();
    // The full version-D search needs well over fast_config's 60 s cap.
    config.max_time = SimDuration::from_secs(300);
    config.faults.seed = 99;
    config.faults.drop_rate = 0.10;
    config.faults.kills.push(KillEvent {
        at: SimTime::from_micros(5_000_000),
        target: KillTarget::Node("node16".into()),
    });
    let run = Session::new()
        .diagnose_faulted(&wl, &config, "degraded-d", None)
        .unwrap();
    assert!(
        run.stats.dropped > 0 && run.stats.kills_fired == 1,
        "fault plan did not engage: {:?}",
        run.stats
    );
    let d = run.diagnosis.expect("search completes despite the faults");
    assert!(d.report.quiescent, "search did not run to quiescence");
    assert!(
        d.record
            .unreachable
            .iter()
            .any(|r| r.to_string() == "/Machine/node16"),
        "dead node not recorded as unreachable"
    );
    assert!(
        d.report.bottleneck_count() > 0,
        "degraded run found nothing"
    );

    let directives = history::extract(&d.record, &ExtractionOptions::priorities_and_safe_prunes());
    assert!(!directives.is_empty());
    // The general SyncObject prunes are static domain knowledge, emitted
    // identically from a healthy run; the unobserved-pair guarantee is
    // about prunes *derived from this run's evidence*.
    let history_derived = |p: &&Prune| {
        !matches!(&p.target, PruneTarget::Resource(r)
            if r.is_root() && r.hierarchy() == "SyncObject")
    };
    for o in &d.record.outcomes {
        if matches!(o.outcome, Outcome::Unknown | Outcome::Unreachable) {
            assert!(
                !directives
                    .prunes
                    .iter()
                    .filter(history_derived)
                    .any(|p| p.matches(&o.hypothesis, &o.focus)),
                "pruned {:?}-verdict pair {} {}",
                o.outcome,
                o.hypothesis,
                o.focus
            );
        }
    }

    // `histpc lint --deny-warnings` equivalent: zero diagnostics, both
    // statically and cross-checked against the degraded record itself
    // (which exercises HL020/HL021/HL022).
    let text = directives.to_text();
    let report = histpc::lint::Linter::new()
        .directives(&text, "harvested.dirs")
        .against(&d.record)
        .run();
    assert!(
        report.is_clean(),
        "harvested directives did not lint clean:\n{}",
        report.render(
            &histpc::lint::Linter::new()
                .directives(&text, "harvested.dirs")
                .sources()
        )
    );
}

/// Overload faults (sample flood + request storm + slow collector)
/// against a tight admission configuration: the admission layer engages,
/// in-flight requests never exceed the bound, overwhelmed processes
/// conclude `Saturated`, and extraction refuses to harvest anything
/// under them.
#[test]
fn overload_saturates_and_extraction_refuses() {
    let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
    let mut config = fast_config();
    config.faults.seed = 21;
    config.faults.sample_flood = 5.0;
    // The run saturates and quiesces within a handful of ticks, so the
    // storm rate must be high enough to land a burst before the end.
    config.faults.request_storm_rate = 0.9;
    config.faults.request_storm_burst = 6;
    config.faults.slow_collector = SimDuration::from_millis(400);
    config.collector.admission = AdmissionConfig {
        enabled: true,
        max_in_flight: 6,
        sample_budget: 8,
        deadline: SimDuration::from_millis(300),
        breaker_threshold: 2,
        breaker_cooldown: SimDuration::from_secs(2),
    };
    let run = Session::new()
        .diagnose_faulted(&wl, &config, "overload", None)
        .unwrap();
    let d = run.diagnosis.expect("overload must degrade, not crash");
    let adm = &d.report.admission;
    assert!(
        run.stats.flooded > 0 && run.stats.storm_requests > 0,
        "overload faults did not engage: {:?}",
        run.stats
    );
    assert!(
        adm.peak_in_flight <= config.collector.admission.max_in_flight,
        "in-flight bound violated: peak {} > {}",
        adm.peak_in_flight,
        config.collector.admission.max_in_flight
    );
    assert!(adm.shed_samples > 0, "flood shed no samples: {adm:?}");
    assert!(adm.breaker_opens > 0, "no breaker opened: {adm:?}");
    let saturated: Vec<&NodeOutcome> = d
        .record
        .outcomes
        .iter()
        .filter(|o| o.outcome == Outcome::Saturated)
        .collect();
    assert!(
        !saturated.is_empty(),
        "overload produced no Saturated verdicts"
    );
    assert!(
        !d.record.saturated.is_empty(),
        "record did not register the saturated resources"
    );

    let directives = history::extract(&d.record, &ExtractionOptions::all_prunes());
    for o in &saturated {
        for p in &directives.prunes {
            assert!(
                !p.matches(&o.hypothesis, &o.focus),
                "Saturated pair {} {} was pruned",
                o.hypothesis,
                o.focus
            );
        }
    }
    let priorities = history::extract(&d.record, &ExtractionOptions::priorities_only());
    for o in &saturated {
        assert!(
            !priorities
                .priorities
                .iter()
                .any(|p| p.hypothesis == o.hypothesis && p.focus == o.focus),
            "Saturated pair {} {} got a priority directive",
            o.hypothesis,
            o.focus
        );
    }
    // Harvested directives lint clean against the saturated record
    // (HL026 would fire on anything naming a saturated resource).
    let text = directives.to_text();
    let report = histpc::lint::Linter::new()
        .directives(&text, "harvested.dirs")
        .against(&d.record)
        .run();
    assert!(
        report.is_clean(),
        "harvested directives did not lint clean:\n{}",
        report.render(
            &histpc::lint::Linter::new()
                .directives(&text, "harvested.dirs")
                .sources()
        )
    );
}

/// With admission enabled but no overload injected, generous bounds are
/// never hit and the run is bit-identical to one without admission
/// control at all — the zero-pressure path costs nothing.
#[test]
fn unloaded_run_with_admission_enabled_is_bit_identical() {
    let wl = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
    let session = Session::new();
    let config = fast_config();
    let baseline = session.diagnose(&wl, &config, "r1").unwrap();
    let mut admitted_config = config.clone();
    admitted_config.collector.admission = AdmissionConfig::enabled();
    let admitted = session.diagnose(&wl, &admitted_config, "r1").unwrap();
    assert_reports_identical(&baseline, &admitted);
    assert_eq!(admitted.report.admission.shed_requests, 0);
    assert_eq!(admitted.report.admission.shed_samples, 0);
    assert_eq!(admitted.report.admission.breaker_opens, 0);
}

/// A degraded run's directives still speed up a later (healthy) run —
/// the Table-3-shaped effect survives the faults.
#[test]
fn directives_from_degraded_run_still_guide() {
    let wl = PoissonWorkload::new(PoissonVersion::D);
    let session = Session::new();
    let config = SearchConfig {
        max_time: SimDuration::from_secs(300),
        ..fast_config()
    };
    let mut degraded_config = config.clone();
    degraded_config.faults.seed = 99;
    degraded_config.faults.drop_rate = 0.10;
    let degraded = session
        .diagnose_faulted(&wl, &degraded_config, "lossy", None)
        .unwrap()
        .diagnosis
        .expect("no crash scheduled");
    let t_base = degraded
        .report
        .time_of_last_bottleneck()
        .expect("degraded base run finds bottlenecks");
    let directives = history::extract(
        &degraded.record,
        &ExtractionOptions::priorities_and_safe_prunes(),
    );
    let directed = session
        .diagnose(&wl, &config.with_directives(directives), "directed")
        .unwrap();
    let t_directed = directed
        .report
        .time_of_last_bottleneck()
        .expect("directed run finds bottlenecks");
    assert!(
        t_directed.as_micros() * 2 < t_base.as_micros(),
        "directed {t_directed} not much faster than degraded base {t_base}"
    );
}

/// Everything a faulted run leaves behind that a user can observe:
/// what the injector counted, the record (or the checkpoint of an
/// interrupted run), and every file in the store, `TRUST` included.
fn run_fingerprint(plan: FaultPlan, tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("histpc-plan-kinds-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SearchConfig {
        max_time: SimDuration::from_secs(2),
        faults: plan,
        ..fast_config()
    };
    let session = Session::with_store(&dir).unwrap();
    let run = session
        .diagnose_faulted(&PoissonWorkload::new(PoissonVersion::A), &config, "r", None)
        .unwrap();
    let mut out = format!("{:?}\n", run.stats);
    match (&run.diagnosis, &run.checkpoint) {
        (Some(d), _) => out.push_str(&record_text(d)),
        (None, Some(ckpt)) => out.push_str(&ckpt.to_text()),
        (None, None) => unreachable!("a run ends with a diagnosis or a checkpoint"),
    }
    drop(session);
    let mut files = vec![dir.clone()];
    let mut listing = Vec::new();
    while let Some(path) = files.pop() {
        if path.is_dir() {
            files.extend(std::fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
        } else {
            let rel = path.strip_prefix(&dir).unwrap().display().to_string();
            listing.push((rel, std::fs::read(&path).unwrap()));
        }
    }
    listing.sort();
    for (rel, bytes) in listing {
        out.push_str(&format!("\n== {rel}\n{}", String::from_utf8_lossy(&bytes)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Every kind a fault plan accepts changes what a run leaves behind,
/// and the kinds that no run injected are refused by name instead of
/// parsing into a silent no-op.
#[test]
fn every_plan_kind_is_injected_and_removed_kinds_are_rejected() {
    let mut failures = Vec::new();
    for kind in [
        "wire-conn-drop",
        "wire-torn-request",
        "wire-slow-client",
        "wire-daemon-kill",
        "poison-prune",
        "poison-threshold",
        "stale-mapping",
        "corrupt-store",
        "torn-write",
        "partial-journal",
        "trust-ledger-corrupt",
    ] {
        match FaultPlan::parse(&format!("histpc-faults v1\n{kind} 1\n")) {
            Err(e) if e.contains(kind) => {}
            other => failures.push(format!("{kind}: parsed to {other:?}")),
        }
    }

    let healthy = run_fingerprint(FaultPlan::none(), "healthy");
    assert_eq!(healthy, run_fingerprint(FaultPlan::none(), "again"));
    for line in [
        "drop 0.3",
        "delay 0.3 400000",
        "reorder 0.5",
        "request-fail 0.5",
        "request-defer 0.5 300000",
        "kill-node node02 500000",
        "kill-proc 1 500000",
        "crash-tool 500000",
        "sample-flood 5",
        "slow-collector 300000",
        "request-storm 0.5 8",
    ] {
        let plan = FaultPlan::parse(&format!("histpc-faults v1\nseed 3\n{line}\n")).unwrap();
        let kind = line.split(' ').next().unwrap();
        if run_fingerprint(plan, kind) == healthy {
            failures.push(format!("{line}: the run is identical to the healthy one"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
