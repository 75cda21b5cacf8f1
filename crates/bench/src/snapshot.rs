//! Per-PR bench snapshot (`BENCH_<pr>.json`).
//!
//! The repo carries a measured perf trajectory: each PR that touches the
//! hot path lands a `BENCH_<pr>.json` produced by the `bench_snapshot`
//! binary, holding diagnosis wall-times for the Poisson versions A–D,
//! the overload-soak, degraded-run, corpus-analysis, supervised-
//! vs-bare and daemon-vs-in-process scenarios, and raw simulator event
//! throughput — once as measured on the parent commit ("before") and
//! once on the PR itself ("after").
//!
//! Every field except the wall-clock timings is a deterministic function
//! of (workload, config, seed); those *non-timing invariants* are what
//! CI re-checks against the committed snapshot, so a behaviour change
//! can never hide inside a perf PR.
//!
//! The workspace is serde-free, so the schema is a small hand-rolled
//! JSON document model ([`Json`]) with a writer and parser that
//! round-trip exactly.

use crate::{base_diagnosis, run_degraded, run_overload_soak};
use histpc::prelude::*;
use std::time::Instant;

/// Schema identifier written into every snapshot file.
pub const SCHEMA: &str = "histpc-bench-snapshot/v1";

/// The seven outcome names, in the order verdict counts are recorded.
const OUTCOME_NAMES: [&str; 7] = [
    "true",
    "false",
    "pruned",
    "untested",
    "unknown",
    "unreachable",
    "saturated",
];

// ---------------------------------------------------------------------
// Schema types
// ---------------------------------------------------------------------

/// Timing and invariants of one full diagnosis run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisMeasurement {
    /// Scenario label (the Poisson version letter, or a synthetic label).
    pub version: String,
    /// Host wall-clock time of the diagnosis in milliseconds (timing).
    pub wall_ms: f64,
    /// Whether the search quiesced.
    pub quiescent: bool,
    /// Hypothesis/focus pairs instrumented.
    pub pairs_tested: u64,
    /// Application time when the search ended, in microseconds.
    pub end_time_us: u64,
    /// Number of true (bottleneck) verdicts.
    pub bottlenecks: u64,
    /// Verdict counts, one per [`Outcome`] name in stable order.
    pub verdicts: Vec<(String, u64)>,
    /// Application time of the last bottleneck report, in microseconds.
    pub last_bottleneck_us: Option<u64>,
}

/// Timing and invariants of the overload-soak scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadMeasurement {
    /// Host wall-clock time of the whole soak in milliseconds (timing).
    pub wall_ms: f64,
    /// Loaded run converged on the unloaded whole-program bottlenecks.
    pub converged: bool,
    /// Admission engaged and held every graceful-degradation guarantee.
    pub degraded_gracefully: bool,
    /// Samples shed by the admission layer.
    pub shed_samples: u64,
    /// Instrumentation requests shed by the admission layer.
    pub shed_requests: u64,
    /// Circuit-breaker trips.
    pub breaker_opens: u64,
    /// Pairs concluded `Saturated`.
    pub saturated_pairs: u64,
    /// Directives harvested from the loaded record.
    pub directives: u64,
    /// Directives leaked from under a saturated resource (must be 0).
    pub leaked_directives: u64,
    /// Peak in-flight instrumentation observed.
    pub peak_in_flight: u64,
}

/// Timing and invariants of the degraded-run scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedMeasurement {
    /// Host wall-clock time of the whole experiment in ms (timing).
    pub wall_ms: f64,
    /// Directed-run speedup over the faulted base run, if both finished.
    pub reduction: Option<f64>,
    /// Pairs the base run left at the `Unknown` verdict.
    pub unknown_pairs: u64,
    /// Resources the base run marked unreachable.
    pub unreachable: u64,
    /// Directives harvested from the degraded record.
    pub directives: u64,
}

/// Timing and invariants of the corpus-analysis scenario: a synthetic
/// multi-run store analyzed cold (no fact cache) and again after
/// touching exactly one record (incremental).
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusMeasurement {
    /// Host wall-clock time of the cold analysis in ms (timing).
    pub cold_wall_ms: f64,
    /// Host wall-clock time of the incremental re-analysis in ms (timing).
    pub incremental_wall_ms: f64,
    /// Records in the synthetic store (deterministic).
    pub records: u64,
    /// Findings the analysis reports (deterministic).
    pub findings: u64,
    /// Records lowered from scratch by the cold analysis (deterministic;
    /// equals `records`).
    pub cold_lowered: u64,
    /// Records re-lowered by the incremental analysis (deterministic;
    /// the touched record and nothing else).
    pub incremental_lowered: u64,
}

/// Timing and invariants of the supervised-vs-bare scenario: one
/// zero-fault diagnosis run twice — once directly through
/// `Session::diagnose` and once under a `Supervisor` with the watchdog
/// armed — so the snapshot tracks the supervision overhead on the
/// healthy path (the acceptance bound is ≤5%).
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedMeasurement {
    /// Host wall-clock time of the bare diagnosis in ms (timing).
    pub bare_wall_ms: f64,
    /// Host wall-clock time of the supervised diagnosis in ms (timing).
    pub supervised_wall_ms: f64,
    /// Sessions driven by the supervisor (deterministic).
    pub sessions: u64,
    /// Sessions classified `Completed` (deterministic; must equal
    /// `sessions` on the zero-fault path).
    pub completed: u64,
    /// Supervised record byte-identical to the bare one (deterministic).
    pub identical: bool,
}

impl SupervisedMeasurement {
    /// Supervision overhead as a fraction of the bare wall time
    /// (timing-derived; e.g. `0.03` = 3% slower under supervision).
    pub fn overhead(&self) -> Option<f64> {
        (self.bare_wall_ms > 0.0).then(|| self.supervised_wall_ms / self.bare_wall_ms - 1.0)
    }
}

/// Timing and invariants of the daemon-vs-in-process scenario: the
/// same zero-fault sessions run once through a live [`histpc_daemon`]
/// instance over its Unix socket (start/attach/report round trips
/// included) and once directly via `Session::diagnose`, so the
/// snapshot tracks the full service-stack overhead and holds the wire
/// to bit-identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonMeasurement {
    /// Host wall-clock time of the daemon-served sessions in ms (timing).
    pub daemon_wall_ms: f64,
    /// Host wall-clock time of the in-process sessions in ms (timing).
    pub inprocess_wall_ms: f64,
    /// Sessions run through each leg (deterministic).
    pub sessions: u64,
    /// Daemon sessions classified `completed` (deterministic; must
    /// equal `sessions` on the zero-fault path).
    pub completed: u64,
    /// Every daemon report body byte-identical to the in-process
    /// record (deterministic).
    pub identical: bool,
}

impl DaemonMeasurement {
    /// Service overhead as a fraction of the in-process wall time
    /// (timing-derived; e.g. `0.10` = 10% slower through the daemon).
    pub fn overhead(&self) -> Option<f64> {
        (self.inprocess_wall_ms > 0.0).then(|| self.daemon_wall_ms / self.inprocess_wall_ms - 1.0)
    }
}

/// Timing and invariants of the poisoned-vs-clean scenario: Poisson
/// version D diagnosed three ways — unguided, steered by clean
/// harvested history, and steered by the same history with every
/// poison kind applied at the acceptance rate and the shadow-audit
/// loop armed — so the snapshot tracks what trusting history costs
/// when the history lies.
#[derive(Debug, Clone, PartialEq)]
pub struct PoisonMeasurement {
    /// Host wall-clock time of the whole scenario in ms (timing).
    pub wall_ms: f64,
    /// Every bottleneck the unguided run finds survived the poisoned
    /// history (deterministic; must stay true).
    pub complete: bool,
    /// Adversarial directive edits injected (deterministic).
    pub injected: u64,
    /// Audit outcomes the poisoned run recorded (deterministic).
    pub audits: u64,
    /// Audits that convicted and revoked their directive (deterministic).
    pub revocations: u64,
    /// Revocations naming anything but the poisoned source
    /// (deterministic; must stay 0).
    pub mislabeled: u64,
    /// App time of the last bottleneck in the unguided run, in
    /// microseconds (deterministic).
    pub base_us: Option<u64>,
    /// Same, steered by clean history (deterministic).
    pub clean_us: Option<u64>,
    /// Same, steered by poisoned history with audits armed
    /// (deterministic).
    pub poisoned_us: Option<u64>,
    /// Trust-ledger score of the poisoned source after the run
    /// (deterministic).
    pub score: u64,
}

impl PoisonMeasurement {
    /// Fraction of the clean-history saving the poisoned run kept
    /// (deterministic-derived; the acceptance floor is 0.5).
    pub fn retention(&self) -> Option<f64> {
        let (base, clean, poisoned) = (self.base_us?, self.clean_us?, self.poisoned_us?);
        let clean_saving = base.saturating_sub(clean);
        (clean_saving > 0).then(|| base.saturating_sub(poisoned) as f64 / clean_saving as f64)
    }
}

/// Raw simulator event throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMeasurement {
    /// Host wall-clock time of the raw run in milliseconds (timing).
    pub wall_ms: f64,
    /// Intervals drained from the engine (deterministic).
    pub events: u64,
    /// Simulated time covered, in microseconds (deterministic).
    pub sim_us: u64,
    /// Events per host wall-clock second (timing, derived).
    pub events_per_sec: f64,
}

/// One measured phase: the "before" or "after" half of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMeasurements {
    /// Full-diagnosis scenarios (versions A–D for the canonical profile).
    pub diagnosis: Vec<DiagnosisMeasurement>,
    /// Overload soak (absent in quick profiles).
    pub overload: Option<OverloadMeasurement>,
    /// Degraded run (absent in quick profiles).
    pub degraded: Option<DegradedMeasurement>,
    /// Corpus analysis over a synthetic store (absent in snapshots
    /// predating PR 7).
    pub corpus: Option<CorpusMeasurement>,
    /// Supervised-vs-bare overhead (absent in snapshots predating PR 8).
    pub supervised: Option<SupervisedMeasurement>,
    /// Daemon-vs-in-process overhead (absent in snapshots predating
    /// PR 9).
    pub daemon: Option<DaemonMeasurement>,
    /// Poisoned-vs-clean history (absent in snapshots predating PR 10).
    pub poison: Option<PoisonMeasurement>,
    /// Raw simulator throughput.
    pub sim: SimMeasurement,
}

/// A complete `BENCH_<pr>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// PR number the snapshot belongs to.
    pub pr: u64,
    /// Measurements taken on the parent commit, when recorded.
    pub before: Option<PhaseMeasurements>,
    /// Measurements taken on the PR itself.
    pub after: PhaseMeasurements,
}

impl Snapshot {
    /// Wall-time speedup of `version` between the before and after
    /// phases (before / after), if both were recorded.
    pub fn speedup(&self, version: &str) -> Option<f64> {
        let before = self.before.as_ref()?;
        let b = before.diagnosis.iter().find(|d| d.version == version)?;
        let a = self.after.diagnosis.iter().find(|d| d.version == version)?;
        if a.wall_ms > 0.0 {
            Some(b.wall_ms / a.wall_ms)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn diag_measurement(version: &str, d: &Diagnosis, wall_ms: f64) -> DiagnosisMeasurement {
    let verdicts = OUTCOME_NAMES
        .iter()
        .map(|name| {
            let n = d
                .report
                .outcomes
                .iter()
                .filter(|o| o.outcome.name() == *name)
                .count() as u64;
            (name.to_string(), n)
        })
        .collect();
    DiagnosisMeasurement {
        version: version.to_string(),
        wall_ms,
        quiescent: d.report.quiescent,
        pairs_tested: d.report.pairs_tested as u64,
        end_time_us: d.report.end_time.as_micros(),
        bottlenecks: d.report.bottleneck_count() as u64,
        verdicts,
        last_bottleneck_us: d.report.time_of_last_bottleneck().map(SimTime::as_micros),
    }
}

/// Times one canonical (paper-configuration) diagnosis of a Poisson
/// version and extracts its invariants.
pub fn measure_poisson(version: PoissonVersion) -> DiagnosisMeasurement {
    let t = Instant::now();
    let d = base_diagnosis(version);
    let wall = ms(t);
    diag_measurement(version.label(), &d, wall)
}

/// A small synthetic diagnosis for fast (debug-build) test profiles.
pub fn measure_quick_diagnosis() -> DiagnosisMeasurement {
    let wl = SyntheticWorkload::balanced(2, 3, 0.05).with_hotspot(0, 1, 3.0);
    let config = SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(60),
        ..SearchConfig::default()
    };
    let t = Instant::now();
    let d = Session::new()
        .diagnose(&wl, &config, "quick")
        .expect("default config lints clean");
    let wall = ms(t);
    diag_measurement("quick", &d, wall)
}

/// Times the overload-soak scenario at the canonical 5× flood.
pub fn measure_overload() -> OverloadMeasurement {
    let t = Instant::now();
    let soak = run_overload_soak(5.0);
    OverloadMeasurement {
        wall_ms: ms(t),
        converged: soak.converged(),
        degraded_gracefully: soak.degraded_gracefully(),
        shed_samples: soak.admission.shed_samples,
        shed_requests: soak.admission.shed_requests,
        breaker_opens: soak.admission.breaker_opens,
        saturated_pairs: soak.saturated_pairs as u64,
        directives: soak.directive_count as u64,
        leaked_directives: soak.leaked_directives as u64,
        peak_in_flight: soak.admission.peak_in_flight as u64,
    }
}

/// Times the degraded-run scenario (10% loss, one node killed at 5 s).
pub fn measure_degraded() -> DegradedMeasurement {
    let t = Instant::now();
    let exp = run_degraded(0.10, Some(SimTime::from_secs(5)));
    DegradedMeasurement {
        wall_ms: ms(t),
        reduction: exp.reduction(),
        unknown_pairs: exp.unknown_pairs as u64,
        unreachable: exp.unreachable.len() as u64,
        directives: exp.directive_count as u64,
    }
}

/// Builds a synthetic `records`-run store seeded with the corpus-lint
/// fixture classes, then times `histpc lint corpus` over it: once cold
/// (empty fact cache) and once after re-saving a single record, so the
/// snapshot tracks both full-lowering throughput and the incremental
/// win the fact cache buys.
pub fn measure_corpus(records: usize) -> CorpusMeasurement {
    use histpc::consultant::NodeOutcome;
    use histpc::history::{ExecutionRecord, ExecutionStore};
    use histpc::lint::CorpusAnalyzer;

    let n = |s: &str| ResourceName::parse(s).expect("static name");
    let outcome = |hyp: &str, sel: Option<&str>, oc: Outcome, value: f64| {
        let mut focus = Focus::whole_program(["Code", "Machine", "Process", "SyncObject"]);
        if let Some(s) = sel {
            focus = focus.with_selection(n(s));
        }
        NodeOutcome {
            hypothesis: hyp.into(),
            focus,
            outcome: oc,
            first_true_at: (oc == Outcome::True).then_some(SimTime(1)),
            concluded_at: Some(SimTime(1)),
            last_value: value,
            samples: 5,
        }
    };
    let rec = |app: &str, label: &str, extra: &[&str], outcomes: Vec<NodeOutcome>| {
        let mut resources = vec![
            n("/Code"),
            n("/Code/a.c"),
            n("/Code/a.c/f"),
            n("/Code/a.c/g"),
            n("/Machine"),
            n("/Machine/n1"),
            n("/Process"),
            n("/Process/p1"),
            n("/SyncObject"),
        ];
        resources.extend(extra.iter().map(|s| n(s)));
        ExecutionRecord {
            app_name: app.into(),
            app_version: "A".into(),
            label: label.into(),
            resources,
            outcomes,
            thresholds_used: vec![],
            end_time: SimTime(10),
            pairs_tested: 1,
            unreachable: vec![],
            saturated: vec![],
        }
    };

    let dir = std::env::temp_dir().join(format!(
        "histpc-bench-corpus-{records}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ExecutionStore::open(&dir).expect("temp store opens");

    // The bulk of the store: uniform runs of one app, the oldest of
    // which names a resource every later run lacks (the HL031 fixture,
    // under the default window). Six fixture records (conflict, drift,
    // dominance) ride on top.
    let bulk = records.saturating_sub(6).max(1);
    for i in 0..bulk {
        let label = format!("run-{i:05}");
        let r = if i == 0 {
            rec(
                "bulk",
                &label,
                &["/Code/old.c", "/Code/old.c/h"],
                vec![outcome(
                    "CPUbound",
                    Some("/Code/old.c/h"),
                    Outcome::True,
                    0.4,
                )],
            )
        } else {
            rec(
                "bulk",
                &label,
                &[],
                vec![outcome("CPUbound", None, Outcome::True, 0.4)],
            )
        };
        store.save(&r).expect("seed record saves");
    }
    for (app, label, sel, oc, value) in [
        ("confl", "c1", Some("/Code/a.c/f"), Outcome::False, 0.001),
        ("confl", "c2", Some("/Code/a.c/f"), Outcome::True, 0.4),
        ("drift", "d1", None, Outcome::True, 0.5),
        ("drift", "d2", None, Outcome::True, 0.1),
        ("dom", "g1", Some("/Code/a.c/g"), Outcome::False, 0.05),
        ("dom", "g2", Some("/Code/a.c/g"), Outcome::False, 0.001),
    ] {
        let hyp = if app == "drift" {
            "ExcessiveSyncWaitingTime"
        } else {
            "CPUbound"
        };
        store
            .save(&rec(app, label, &[], vec![outcome(hyp, sel, oc, value)]))
            .expect("fixture saves");
    }

    let t = Instant::now();
    let cold = CorpusAnalyzer::new(&store)
        .analyze()
        .expect("cold analysis");
    let cold_wall_ms = ms(t);

    store
        .save(&rec(
            "bulk",
            "run-00001",
            &[],
            vec![outcome("CPUbound", None, Outcome::True, 0.41)],
        ))
        .expect("touched record saves");
    let t = Instant::now();
    let incr = CorpusAnalyzer::new(&store)
        .analyze()
        .expect("incremental analysis");
    let incremental_wall_ms = ms(t);
    let _ = std::fs::remove_dir_all(&dir);

    CorpusMeasurement {
        cold_wall_ms,
        incremental_wall_ms,
        records: cold.records as u64,
        findings: incr.report.diagnostics.len() as u64,
        cold_lowered: cold.cache_misses as u64,
        incremental_lowered: incr.cache_misses as u64,
    }
}

/// Runs one zero-fault diagnosis twice — bare and supervised, each
/// persisting into its own scratch store — and reports the wall times
/// plus the bit-identity of the two stored records. The supervised leg
/// runs with the wall-clock watchdog armed, so the measured delta is
/// the full supervision overhead (thread scope, watchdog polling,
/// heartbeat/cancel hooks in the drive loop), which the acceptance
/// criteria bound at 5% of the bare time.
fn supervised_vs_bare(wl: &(dyn Workload + Sync), config: &SearchConfig) -> SupervisedMeasurement {
    use histpc::history::format::write_record;
    use histpc::supervise::SessionDriver;

    let scratch = |leg: &str| {
        let dir =
            std::env::temp_dir().join(format!("histpc-bench-sup-{leg}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    // Interleave the legs and keep the fastest of three runs each: the
    // per-run overhead being measured (thread scope, watchdog, hooks)
    // is small against host scheduling noise, and min-of-N with
    // interleaving cancels load drift a single back-to-back pair
    // would soak up.
    const ROUNDS: usize = 3;
    let mut bare_wall_ms = f64::INFINITY;
    let mut supervised_wall_ms = f64::INFINITY;
    let mut bare_record = String::new();
    let mut supervised_record = String::new();
    let mut sessions = 0u64;
    let mut completed = 0u64;
    for _ in 0..ROUNDS {
        let bare_dir = scratch("bare");
        let bare_session = Session::with_store(&bare_dir).expect("scratch store opens");
        let t = Instant::now();
        let bare = bare_session
            .diagnose(wl, config, "snap")
            .expect("snapshot config lints clean");
        bare_wall_ms = bare_wall_ms.min(ms(t));
        bare_record = write_record(&bare.record);
        let _ = std::fs::remove_dir_all(&bare_dir);

        let sup_dir = scratch("sup");
        let sup_session = Session::with_store(&sup_dir).expect("scratch store opens");
        let driver = WorkloadSession::new(&sup_session, wl, config.clone(), "snap");
        let supervisor = Supervisor::new(SupervisorConfig {
            stall: Some(std::time::Duration::from_secs(30)),
            ..SupervisorConfig::default()
        });
        let t = Instant::now();
        let report = supervisor.run(&[&driver as &dyn SessionDriver]);
        supervised_wall_ms = supervised_wall_ms.min(ms(t));
        sessions = report.sessions.len() as u64;
        completed = report.completed() as u64;
        let app = wl.app_spec().name;
        supervised_record = sup_session
            .store()
            .expect("supervised session has a store")
            .load(&app, "snap")
            .map(|r| write_record(&r))
            .expect("supervised record stored");
        let _ = std::fs::remove_dir_all(&sup_dir);
    }

    SupervisedMeasurement {
        bare_wall_ms,
        supervised_wall_ms,
        sessions,
        completed,
        identical: supervised_record == bare_record,
    }
}

/// The canonical supervised-vs-bare scenario: Poisson version B under
/// the paper configuration.
pub fn measure_supervised() -> SupervisedMeasurement {
    let wl = PoissonWorkload::new(PoissonVersion::B);
    supervised_vs_bare(&wl, &crate::exp_config())
}

/// A small synthetic supervised-vs-bare run for fast test profiles.
pub fn measure_supervised_quick() -> SupervisedMeasurement {
    let wl = SyntheticWorkload::balanced(2, 3, 0.05).with_hotspot(0, 1, 3.0);
    let config = SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(60),
        ..SearchConfig::default()
    };
    supervised_vs_bare(&wl, &config)
}

/// Runs `sessions` zero-fault diagnoses of the catalogue `tester` app
/// twice — once through a live daemon over its Unix socket (start,
/// attach, report) and once directly in-process — and reports both
/// wall times plus the bit-identity of every daemon report body
/// against the in-process record.
pub fn measure_daemon(sessions: usize) -> DaemonMeasurement {
    use histpc::history::format::write_record;
    use histpc::remote::{Client, Request};
    use histpc_daemon::{Daemon, DaemonConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Distinct scratch roots even when several measurements run in one
    // process (the test harness does).
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("histpc-bench-daemon-{run}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let config = SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(120),
        stall: Some(SimDuration::from_secs(2)),
        ..SearchConfig::default()
    };

    // Daemon leg: every round trip (handshake, start, bounded attach,
    // report) is part of the measured service overhead.
    let socket = dir.join("d.sock");
    let daemon =
        Daemon::start(DaemonConfig::new(dir.join("store"), &socket)).expect("daemon starts");
    let mut client = Client::new(&socket, "bench");
    let mut completed = 0u64;
    let mut remote: Vec<String> = Vec::with_capacity(sessions);
    let t = Instant::now();
    for i in 0..sessions {
        let label = format!("bench-{i:02}");
        client
            .expect_ok(
                &Request::new("start")
                    .arg("app", "tester")
                    .arg("label", &label)
                    .arg("seed", i as u64),
            )
            .expect("start accepted");
        let done = client
            .expect_ok(
                &Request::new("attach")
                    .arg("label", &label)
                    .arg("wait-ms", 120_000u64),
            )
            .expect("attach returns");
        if done.get("state") == Some("completed") {
            completed += 1;
        }
        let report = client
            .expect_ok(&Request::new("report").arg("label", &label))
            .expect("report returns");
        remote.push(format!("{}\n", report.body().join("\n")));
    }
    let daemon_wall_ms = ms(t);
    client
        .expect_ok(&Request::new("shutdown"))
        .expect("shutdown");
    daemon.join();

    // In-process leg: the same workloads, config and labels, straight
    // through `Session::diagnose` into its own scratch store.
    let local_dir = dir.join("local");
    let session = Session::with_store(&local_dir).expect("scratch store opens");
    let mut local: Vec<String> = Vec::with_capacity(sessions);
    let t = Instant::now();
    for i in 0..sessions {
        let wl = histpc::apps::build_workload("tester", Some(i as u64)).expect("tester app");
        let d = session
            .diagnose(wl.as_ref(), &config, &format!("bench-{i:02}"))
            .expect("zero-fault config lints clean");
        local.push(write_record(&d.record));
    }
    let inprocess_wall_ms = ms(t);
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);

    DaemonMeasurement {
        daemon_wall_ms,
        inprocess_wall_ms,
        sessions: sessions as u64,
        completed,
        identical: remote == local,
    }
}

/// Times the poisoned-vs-clean scenario: version D under the combined
/// poison plan at the acceptance rate, with the shadow-audit loop
/// armed at the soak budget.
pub fn measure_poison() -> PoisonMeasurement {
    let t = Instant::now();
    let r = crate::run_poison_version(PoissonVersion::D, &crate::PoisonKind::All.plan());
    PoisonMeasurement {
        wall_ms: ms(t),
        complete: r.missed.is_empty(),
        injected: r.summary.total() as u64,
        audits: r.audits as u64,
        revocations: r.revocations as u64,
        mislabeled: r.mislabeled_revocations as u64,
        base_us: r.base_us,
        clean_us: r.clean_us,
        poisoned_us: r.poisoned_us,
        score: u64::from(r.score),
    }
}

/// Times a raw (collector-free) engine run of a Poisson version,
/// draining in driver-sized steps, and reports event throughput.
pub fn measure_sim_throughput(
    version: PoissonVersion,
    horizon: SimDuration,
    step: SimDuration,
) -> SimMeasurement {
    let wl = PoissonWorkload::new(version);
    let mut engine = wl.build_engine();
    // The path the diagnosis drivers take: per-key aggregates, no raw
    // interval capture.
    engine.set_raw_capture(false);
    let max = SimTime::ZERO + horizon;
    let t = Instant::now();
    let mut now = SimTime::ZERO;
    loop {
        now += step;
        let status = engine.run_until(now);
        let _ = engine.drain_deltas();
        if status != EngineStatus::Running || now >= max {
            break;
        }
    }
    let wall = t.elapsed();
    let events = engine.events_drained();
    SimMeasurement {
        wall_ms: wall.as_secs_f64() * 1e3,
        events,
        sim_us: now.as_micros(),
        events_per_sec: if wall.as_secs_f64() > 0.0 {
            events as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
    }
}

/// The canonical (release-mode) measurement profile: versions A–D, the
/// overload soak, the degraded run, and version-D sim throughput.
pub fn measure_full() -> PhaseMeasurements {
    let diagnosis = [
        PoissonVersion::A,
        PoissonVersion::B,
        PoissonVersion::C,
        PoissonVersion::D,
    ]
    .into_iter()
    .map(measure_poisson)
    .collect();
    PhaseMeasurements {
        diagnosis,
        overload: Some(measure_overload()),
        degraded: Some(measure_degraded()),
        corpus: Some(measure_corpus(1000)),
        supervised: Some(measure_supervised()),
        daemon: Some(measure_daemon(4)),
        poison: Some(measure_poison()),
        sim: measure_sim_throughput(
            PoissonVersion::D,
            SimDuration::from_secs(900),
            SimDuration::from_millis(250),
        ),
    }
}

/// A reduced profile cheap enough for debug-build tests: one synthetic
/// diagnosis and a short version-A sim run.
pub fn measure_quick() -> PhaseMeasurements {
    PhaseMeasurements {
        diagnosis: vec![measure_quick_diagnosis()],
        overload: None,
        degraded: None,
        corpus: Some(measure_corpus(60)),
        supervised: Some(measure_supervised_quick()),
        daemon: Some(measure_daemon(2)),
        // The poison scenario needs three full version-D diagnoses —
        // release-profile territory.
        poison: None,
        sim: measure_sim_throughput(
            PoissonVersion::A,
            SimDuration::from_secs(20),
            SimDuration::from_millis(250),
        ),
    }
}

// ---------------------------------------------------------------------
// Invariant comparison
// ---------------------------------------------------------------------

/// Compares every non-timing field of `got` against `want` and returns
/// one message per mismatch (empty = no regression). Timing fields
/// (`wall_ms`, `events_per_sec`) are never compared.
pub fn invariant_regressions(want: &PhaseMeasurements, got: &PhaseMeasurements) -> Vec<String> {
    let mut out = Vec::new();
    fn diff(out: &mut Vec<String>, scenario: &str, field: &str, want: String, got: String) {
        if want != got {
            out.push(format!("{scenario}: {field} was {want}, now {got}"));
        }
    }
    for w in &want.diagnosis {
        let Some(g) = got.diagnosis.iter().find(|d| d.version == w.version) else {
            out.push(format!("diagnosis {}: scenario missing", w.version));
            continue;
        };
        let s = format!("diagnosis {}", w.version);
        diff(
            &mut out,
            &s,
            "quiescent",
            w.quiescent.to_string(),
            g.quiescent.to_string(),
        );
        diff(
            &mut out,
            &s,
            "pairs_tested",
            w.pairs_tested.to_string(),
            g.pairs_tested.to_string(),
        );
        diff(
            &mut out,
            &s,
            "end_time_us",
            w.end_time_us.to_string(),
            g.end_time_us.to_string(),
        );
        diff(
            &mut out,
            &s,
            "bottlenecks",
            w.bottlenecks.to_string(),
            g.bottlenecks.to_string(),
        );
        diff(
            &mut out,
            &s,
            "verdicts",
            format!("{:?}", w.verdicts),
            format!("{:?}", g.verdicts),
        );
        diff(
            &mut out,
            &s,
            "last_bottleneck_us",
            format!("{:?}", w.last_bottleneck_us),
            format!("{:?}", g.last_bottleneck_us),
        );
    }
    match (&want.overload, &got.overload) {
        (None, _) => {}
        (Some(_), None) => out.push("overload: scenario missing".into()),
        (Some(w), Some(g)) => {
            let s = "overload";
            diff(
                &mut out,
                s,
                "converged",
                w.converged.to_string(),
                g.converged.to_string(),
            );
            diff(
                &mut out,
                s,
                "degraded_gracefully",
                w.degraded_gracefully.to_string(),
                g.degraded_gracefully.to_string(),
            );
            diff(
                &mut out,
                s,
                "shed_samples",
                w.shed_samples.to_string(),
                g.shed_samples.to_string(),
            );
            diff(
                &mut out,
                s,
                "shed_requests",
                w.shed_requests.to_string(),
                g.shed_requests.to_string(),
            );
            diff(
                &mut out,
                s,
                "breaker_opens",
                w.breaker_opens.to_string(),
                g.breaker_opens.to_string(),
            );
            diff(
                &mut out,
                s,
                "saturated_pairs",
                w.saturated_pairs.to_string(),
                g.saturated_pairs.to_string(),
            );
            diff(
                &mut out,
                s,
                "directives",
                w.directives.to_string(),
                g.directives.to_string(),
            );
            diff(
                &mut out,
                s,
                "leaked_directives",
                w.leaked_directives.to_string(),
                g.leaked_directives.to_string(),
            );
            diff(
                &mut out,
                s,
                "peak_in_flight",
                w.peak_in_flight.to_string(),
                g.peak_in_flight.to_string(),
            );
        }
    }
    match (&want.degraded, &got.degraded) {
        (None, _) => {}
        (Some(_), None) => out.push("degraded: scenario missing".into()),
        (Some(w), Some(g)) => {
            let s = "degraded";
            diff(
                &mut out,
                s,
                "reduction",
                format!("{:?}", w.reduction),
                format!("{:?}", g.reduction),
            );
            diff(
                &mut out,
                s,
                "unknown_pairs",
                w.unknown_pairs.to_string(),
                g.unknown_pairs.to_string(),
            );
            diff(
                &mut out,
                s,
                "unreachable",
                w.unreachable.to_string(),
                g.unreachable.to_string(),
            );
            diff(
                &mut out,
                s,
                "directives",
                w.directives.to_string(),
                g.directives.to_string(),
            );
        }
    }
    match (&want.corpus, &got.corpus) {
        (None, _) => {}
        (Some(_), None) => out.push("corpus: scenario missing".into()),
        (Some(w), Some(g)) => {
            let s = "corpus";
            diff(
                &mut out,
                s,
                "records",
                w.records.to_string(),
                g.records.to_string(),
            );
            diff(
                &mut out,
                s,
                "findings",
                w.findings.to_string(),
                g.findings.to_string(),
            );
            diff(
                &mut out,
                s,
                "cold_lowered",
                w.cold_lowered.to_string(),
                g.cold_lowered.to_string(),
            );
            diff(
                &mut out,
                s,
                "incremental_lowered",
                w.incremental_lowered.to_string(),
                g.incremental_lowered.to_string(),
            );
        }
    }
    match (&want.supervised, &got.supervised) {
        (None, _) => {}
        (Some(_), None) => out.push("supervised: scenario missing".into()),
        (Some(w), Some(g)) => {
            let s = "supervised";
            diff(
                &mut out,
                s,
                "sessions",
                w.sessions.to_string(),
                g.sessions.to_string(),
            );
            diff(
                &mut out,
                s,
                "completed",
                w.completed.to_string(),
                g.completed.to_string(),
            );
            diff(
                &mut out,
                s,
                "identical",
                w.identical.to_string(),
                g.identical.to_string(),
            );
        }
    }
    match (&want.daemon, &got.daemon) {
        (None, _) => {}
        (Some(_), None) => out.push("daemon: scenario missing".into()),
        (Some(w), Some(g)) => {
            let s = "daemon";
            diff(
                &mut out,
                s,
                "sessions",
                w.sessions.to_string(),
                g.sessions.to_string(),
            );
            diff(
                &mut out,
                s,
                "completed",
                w.completed.to_string(),
                g.completed.to_string(),
            );
            diff(
                &mut out,
                s,
                "identical",
                w.identical.to_string(),
                g.identical.to_string(),
            );
        }
    }
    match (&want.poison, &got.poison) {
        (None, _) => {}
        (Some(_), None) => out.push("poison: scenario missing".into()),
        (Some(w), Some(g)) => {
            let s = "poison";
            diff(
                &mut out,
                s,
                "complete",
                w.complete.to_string(),
                g.complete.to_string(),
            );
            diff(
                &mut out,
                s,
                "injected",
                w.injected.to_string(),
                g.injected.to_string(),
            );
            diff(
                &mut out,
                s,
                "audits",
                w.audits.to_string(),
                g.audits.to_string(),
            );
            diff(
                &mut out,
                s,
                "revocations",
                w.revocations.to_string(),
                g.revocations.to_string(),
            );
            diff(
                &mut out,
                s,
                "mislabeled",
                w.mislabeled.to_string(),
                g.mislabeled.to_string(),
            );
            diff(
                &mut out,
                s,
                "base_us",
                format!("{:?}", w.base_us),
                format!("{:?}", g.base_us),
            );
            diff(
                &mut out,
                s,
                "clean_us",
                format!("{:?}", w.clean_us),
                format!("{:?}", g.clean_us),
            );
            diff(
                &mut out,
                s,
                "poisoned_us",
                format!("{:?}", w.poisoned_us),
                format!("{:?}", g.poisoned_us),
            );
            diff(
                &mut out,
                s,
                "score",
                w.score.to_string(),
                g.score.to_string(),
            );
        }
    }
    diff(
        &mut out,
        "sim",
        "events",
        want.sim.events.to_string(),
        got.sim.events.to_string(),
    );
    diff(
        &mut out,
        "sim",
        "sim_us",
        want.sim.sim_us.to_string(),
        got.sim.sim_us.to_string(),
    );
    out
}

// ---------------------------------------------------------------------
// JSON document model (the workspace is serde-free)
// ---------------------------------------------------------------------

/// A minimal JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (we never need more than f64's 53-bit integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    // Rust's Debug for f64 is the shortest round-trip form.
                    out.push_str(&format!("{n:?}"));
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.write(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the subset this module writes).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes: Vec<char> = text.chars().collect();
        let mut p = Parser {
            chars: &bytes,
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing garbage at offset {}", p.pos));
        }
        Ok(v)
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    chars: &'a [char],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {c:?} at offset {}, found {:?}",
                self.pos,
                self.peek()
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('n') => self.literal("null", Json::Null),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('[') => self.array(),
            Some('{') => self.object(),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match c {
                '"' => return Ok(s),
                '\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        '"' => s.push('"'),
                        '\\' => s.push('\\'),
                        '/' => s.push('/'),
                        'n' => s.push('\n'),
                        't' => s.push('\t'),
                        'r' => s.push('\r'),
                        'b' => s.push('\u{8}'),
                        'f' => s.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let Some(h) = self.peek().and_then(|c| c.to_digit(16)) else {
                                    return Err("bad \\u escape".into());
                                };
                                self.pos += 1;
                                code = code * 16 + h;
                            }
                            let Some(c) = char::from_u32(code) else {
                                return Err("bad \\u code point".into());
                            };
                            s.push(c);
                        }
                        other => return Err(format!("bad escape \\{other}")),
                    }
                }
                c => s.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                }
                Some(']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                }
                Some('}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot <-> JSON
// ---------------------------------------------------------------------

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn opt_num(n: Option<u64>) -> Json {
    n.map_or(Json::Null, num)
}

fn opt_f64(n: Option<f64>) -> Json {
    n.map_or(Json::Null, Json::Num)
}

fn diag_to_json(d: &DiagnosisMeasurement) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::Str(d.version.clone())),
        ("wall_ms".into(), Json::Num(d.wall_ms)),
        ("quiescent".into(), Json::Bool(d.quiescent)),
        ("pairs_tested".into(), num(d.pairs_tested)),
        ("end_time_us".into(), num(d.end_time_us)),
        ("bottlenecks".into(), num(d.bottlenecks)),
        (
            "verdicts".into(),
            Json::Obj(
                d.verdicts
                    .iter()
                    .map(|(k, v)| (k.clone(), num(*v)))
                    .collect(),
            ),
        ),
        ("last_bottleneck_us".into(), opt_num(d.last_bottleneck_us)),
    ])
}

fn phase_to_json(p: &PhaseMeasurements) -> Json {
    let overload = p.overload.as_ref().map_or(Json::Null, |o| {
        Json::Obj(vec![
            ("wall_ms".into(), Json::Num(o.wall_ms)),
            ("converged".into(), Json::Bool(o.converged)),
            (
                "degraded_gracefully".into(),
                Json::Bool(o.degraded_gracefully),
            ),
            ("shed_samples".into(), num(o.shed_samples)),
            ("shed_requests".into(), num(o.shed_requests)),
            ("breaker_opens".into(), num(o.breaker_opens)),
            ("saturated_pairs".into(), num(o.saturated_pairs)),
            ("directives".into(), num(o.directives)),
            ("leaked_directives".into(), num(o.leaked_directives)),
            ("peak_in_flight".into(), num(o.peak_in_flight)),
        ])
    });
    let degraded = p.degraded.as_ref().map_or(Json::Null, |d| {
        Json::Obj(vec![
            ("wall_ms".into(), Json::Num(d.wall_ms)),
            ("reduction".into(), opt_f64(d.reduction)),
            ("unknown_pairs".into(), num(d.unknown_pairs)),
            ("unreachable".into(), num(d.unreachable)),
            ("directives".into(), num(d.directives)),
        ])
    });
    let corpus = p.corpus.as_ref().map_or(Json::Null, |c| {
        Json::Obj(vec![
            ("cold_wall_ms".into(), Json::Num(c.cold_wall_ms)),
            (
                "incremental_wall_ms".into(),
                Json::Num(c.incremental_wall_ms),
            ),
            ("records".into(), num(c.records)),
            ("findings".into(), num(c.findings)),
            ("cold_lowered".into(), num(c.cold_lowered)),
            ("incremental_lowered".into(), num(c.incremental_lowered)),
        ])
    });
    let supervised = p.supervised.as_ref().map_or(Json::Null, |s| {
        Json::Obj(vec![
            ("bare_wall_ms".into(), Json::Num(s.bare_wall_ms)),
            ("supervised_wall_ms".into(), Json::Num(s.supervised_wall_ms)),
            ("sessions".into(), num(s.sessions)),
            ("completed".into(), num(s.completed)),
            ("identical".into(), Json::Bool(s.identical)),
        ])
    });
    let daemon = p.daemon.as_ref().map_or(Json::Null, |d| {
        Json::Obj(vec![
            ("daemon_wall_ms".into(), Json::Num(d.daemon_wall_ms)),
            ("inprocess_wall_ms".into(), Json::Num(d.inprocess_wall_ms)),
            ("sessions".into(), num(d.sessions)),
            ("completed".into(), num(d.completed)),
            ("identical".into(), Json::Bool(d.identical)),
        ])
    });
    let poison = p.poison.as_ref().map_or(Json::Null, |x| {
        Json::Obj(vec![
            ("wall_ms".into(), Json::Num(x.wall_ms)),
            ("complete".into(), Json::Bool(x.complete)),
            ("injected".into(), num(x.injected)),
            ("audits".into(), num(x.audits)),
            ("revocations".into(), num(x.revocations)),
            ("mislabeled".into(), num(x.mislabeled)),
            ("base_us".into(), opt_num(x.base_us)),
            ("clean_us".into(), opt_num(x.clean_us)),
            ("poisoned_us".into(), opt_num(x.poisoned_us)),
            ("score".into(), num(x.score)),
        ])
    });
    Json::Obj(vec![
        (
            "diagnosis".into(),
            Json::Arr(p.diagnosis.iter().map(diag_to_json).collect()),
        ),
        ("overload".into(), overload),
        ("degraded".into(), degraded),
        ("corpus".into(), corpus),
        ("supervised".into(), supervised),
        ("daemon".into(), daemon),
        ("poison".into(), poison),
        (
            "sim".into(),
            Json::Obj(vec![
                ("wall_ms".into(), Json::Num(p.sim.wall_ms)),
                ("events".into(), num(p.sim.events)),
                ("sim_us".into(), num(p.sim.sim_us)),
                ("events_per_sec".into(), Json::Num(p.sim.events_per_sec)),
            ]),
        ),
    ])
}

impl Snapshot {
    /// Serializes to the canonical JSON text.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::Str(self.schema.clone())),
            ("pr".into(), num(self.pr)),
            (
                "before".into(),
                self.before.as_ref().map_or(Json::Null, phase_to_json),
            ),
            ("after".into(), phase_to_json(&self.after)),
        ])
        .render()
    }

    /// Parses the canonical JSON text.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let root = Json::parse(text)?;
        let schema = field_str(&root, "schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let before = match root.get("before") {
            None | Some(Json::Null) => None,
            Some(p) => Some(phase_from_json(p)?),
        };
        Ok(Snapshot {
            schema,
            pr: field_u64(&root, "pr")?,
            before,
            after: phase_from_json(
                root.get("after")
                    .ok_or_else(|| "missing 'after'".to_string())?,
            )?,
        })
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn field_str(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(String::from)
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, String> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not a non-negative integer"))
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn field_bool(obj: &Json, key: &str) -> Result<bool, String> {
    field(obj, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} is not a bool"))
}

fn diag_from_json(j: &Json) -> Result<DiagnosisMeasurement, String> {
    let verdicts = match field(j, "verdicts")? {
        Json::Obj(fields) => fields
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("verdict {k:?} is not a count"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("'verdicts' is not an object".into()),
    };
    let last_bottleneck_us = match field(j, "last_bottleneck_us")? {
        Json::Null => None,
        v => Some(
            v.as_u64()
                .ok_or_else(|| "'last_bottleneck_us' is not an integer".to_string())?,
        ),
    };
    Ok(DiagnosisMeasurement {
        version: field_str(j, "version")?,
        wall_ms: field_f64(j, "wall_ms")?,
        quiescent: field_bool(j, "quiescent")?,
        pairs_tested: field_u64(j, "pairs_tested")?,
        end_time_us: field_u64(j, "end_time_us")?,
        bottlenecks: field_u64(j, "bottlenecks")?,
        verdicts,
        last_bottleneck_us,
    })
}

fn phase_from_json(j: &Json) -> Result<PhaseMeasurements, String> {
    let diagnosis = match field(j, "diagnosis")? {
        Json::Arr(items) => items
            .iter()
            .map(diag_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("'diagnosis' is not an array".into()),
    };
    let overload = match field(j, "overload")? {
        Json::Null => None,
        o => Some(OverloadMeasurement {
            wall_ms: field_f64(o, "wall_ms")?,
            converged: field_bool(o, "converged")?,
            degraded_gracefully: field_bool(o, "degraded_gracefully")?,
            shed_samples: field_u64(o, "shed_samples")?,
            shed_requests: field_u64(o, "shed_requests")?,
            breaker_opens: field_u64(o, "breaker_opens")?,
            saturated_pairs: field_u64(o, "saturated_pairs")?,
            directives: field_u64(o, "directives")?,
            leaked_directives: field_u64(o, "leaked_directives")?,
            peak_in_flight: field_u64(o, "peak_in_flight")?,
        }),
    };
    let degraded = match field(j, "degraded")? {
        Json::Null => None,
        d => Some(DegradedMeasurement {
            wall_ms: field_f64(d, "wall_ms")?,
            reduction: match field(d, "reduction")? {
                Json::Null => None,
                v => Some(
                    v.as_f64()
                        .ok_or_else(|| "'reduction' is not a number".to_string())?,
                ),
            },
            unknown_pairs: field_u64(d, "unknown_pairs")?,
            unreachable: field_u64(d, "unreachable")?,
            directives: field_u64(d, "directives")?,
        }),
    };
    // Absent in snapshots predating PR 7 — parse both missing and null
    // as "not measured".
    let corpus = match j.get("corpus") {
        None | Some(Json::Null) => None,
        Some(c) => Some(CorpusMeasurement {
            cold_wall_ms: field_f64(c, "cold_wall_ms")?,
            incremental_wall_ms: field_f64(c, "incremental_wall_ms")?,
            records: field_u64(c, "records")?,
            findings: field_u64(c, "findings")?,
            cold_lowered: field_u64(c, "cold_lowered")?,
            incremental_lowered: field_u64(c, "incremental_lowered")?,
        }),
    };
    // Absent in snapshots predating PR 8 — parse both missing and null
    // as "not measured".
    let supervised = match j.get("supervised") {
        None | Some(Json::Null) => None,
        Some(s) => Some(SupervisedMeasurement {
            bare_wall_ms: field_f64(s, "bare_wall_ms")?,
            supervised_wall_ms: field_f64(s, "supervised_wall_ms")?,
            sessions: field_u64(s, "sessions")?,
            completed: field_u64(s, "completed")?,
            identical: field_bool(s, "identical")?,
        }),
    };
    // Absent in snapshots predating PR 9 — parse both missing and null
    // as "not measured".
    let daemon = match j.get("daemon") {
        None | Some(Json::Null) => None,
        Some(d) => Some(DaemonMeasurement {
            daemon_wall_ms: field_f64(d, "daemon_wall_ms")?,
            inprocess_wall_ms: field_f64(d, "inprocess_wall_ms")?,
            sessions: field_u64(d, "sessions")?,
            completed: field_u64(d, "completed")?,
            identical: field_bool(d, "identical")?,
        }),
    };
    // Absent in snapshots predating PR 10 — parse both missing and null
    // as "not measured".
    let poison = match j.get("poison") {
        None | Some(Json::Null) => None,
        Some(x) => {
            let opt_us = |key: &str| -> Result<Option<u64>, String> {
                match field(x, key)? {
                    Json::Null => Ok(None),
                    v => v
                        .as_u64()
                        .map(Some)
                        .ok_or_else(|| format!("{key:?} is not an integer")),
                }
            };
            Some(PoisonMeasurement {
                wall_ms: field_f64(x, "wall_ms")?,
                complete: field_bool(x, "complete")?,
                injected: field_u64(x, "injected")?,
                audits: field_u64(x, "audits")?,
                revocations: field_u64(x, "revocations")?,
                mislabeled: field_u64(x, "mislabeled")?,
                base_us: opt_us("base_us")?,
                clean_us: opt_us("clean_us")?,
                poisoned_us: opt_us("poisoned_us")?,
                score: field_u64(x, "score")?,
            })
        }
    };
    let sim = field(j, "sim")?;
    Ok(PhaseMeasurements {
        diagnosis,
        overload,
        degraded,
        corpus,
        supervised,
        daemon,
        poison,
        sim: SimMeasurement {
            wall_ms: field_f64(sim, "wall_ms")?,
            events: field_u64(sim, "events")?,
            sim_us: field_u64(sim, "sim_us")?,
            events_per_sec: field_f64(sim, "events_per_sec")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_phase() -> PhaseMeasurements {
        PhaseMeasurements {
            diagnosis: vec![DiagnosisMeasurement {
                version: "D".into(),
                wall_ms: 1234.5,
                quiescent: true,
                pairs_tested: 321,
                end_time_us: 42_000_000,
                bottlenecks: 7,
                verdicts: OUTCOME_NAMES
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.to_string(), i as u64))
                    .collect(),
                last_bottleneck_us: Some(41_500_000),
            }],
            overload: Some(OverloadMeasurement {
                wall_ms: 2000.25,
                converged: true,
                degraded_gracefully: true,
                shed_samples: 10,
                shed_requests: 2,
                breaker_opens: 1,
                saturated_pairs: 3,
                directives: 12,
                leaked_directives: 0,
                peak_in_flight: 9,
            }),
            degraded: Some(DegradedMeasurement {
                wall_ms: 900.0,
                reduction: Some(0.8125),
                unknown_pairs: 4,
                unreachable: 2,
                directives: 11,
            }),
            corpus: Some(CorpusMeasurement {
                cold_wall_ms: 800.5,
                incremental_wall_ms: 30.25,
                records: 1006,
                findings: 4,
                cold_lowered: 1006,
                incremental_lowered: 1,
            }),
            supervised: Some(SupervisedMeasurement {
                bare_wall_ms: 500.0,
                supervised_wall_ms: 512.5,
                sessions: 1,
                completed: 1,
                identical: true,
            }),
            daemon: Some(DaemonMeasurement {
                daemon_wall_ms: 220.0,
                inprocess_wall_ms: 200.0,
                sessions: 4,
                completed: 4,
                identical: true,
            }),
            poison: Some(PoisonMeasurement {
                wall_ms: 3000.75,
                complete: true,
                injected: 266,
                audits: 119,
                revocations: 87,
                mislabeled: 0,
                base_us: Some(324_000_000),
                clean_us: Some(20_250_000),
                poisoned_us: Some(69_750_000),
                score: 0,
            }),
            sim: SimMeasurement {
                wall_ms: 100.0,
                events: 123_456,
                sim_us: 900_000_000,
                events_per_sec: 1_234_560.0,
            },
        }
    }

    #[test]
    fn schema_roundtrips_exactly() {
        let snap = Snapshot {
            schema: SCHEMA.into(),
            pr: 6,
            before: Some(sample_phase()),
            after: sample_phase(),
        };
        let text = snap.to_json();
        let back = Snapshot::parse(&text).expect("own output parses");
        assert_eq!(snap, back);
        // And the reserialization is byte-identical (stable schema).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn missing_before_is_null() {
        let snap = Snapshot {
            schema: SCHEMA.into(),
            pr: 6,
            before: None,
            after: sample_phase(),
        };
        let text = snap.to_json();
        assert!(text.contains("\"before\": null"));
        let back = Snapshot::parse(&text).expect("own output parses");
        assert!(back.before.is_none());
    }

    #[test]
    fn snapshots_without_corpus_section_still_parse() {
        // Snapshots committed before the corpus scenario existed have no
        // "corpus" key at all; they must keep parsing (and comparing).
        let mut phase = sample_phase();
        phase.corpus = None;
        phase.supervised = None;
        phase.daemon = None;
        phase.poison = None;
        let with_null = Snapshot {
            schema: SCHEMA.into(),
            pr: 6,
            before: None,
            after: phase,
        }
        .to_json();
        assert!(with_null.contains("\"corpus\": null"));
        assert!(with_null.contains("\"supervised\": null"));
        assert!(with_null.contains("\"daemon\": null"));
        assert!(with_null.contains("\"poison\": null"));
        let without_key: String = with_null
            .lines()
            .filter(|l| {
                !l.contains("\"corpus\"")
                    && !l.contains("\"supervised\"")
                    && !l.contains("\"daemon\"")
                    && !l.contains("\"poison\"")
            })
            .collect::<Vec<_>>()
            .join("\n");
        for text in [with_null, without_key] {
            let back = Snapshot::parse(&text).expect("legacy snapshot parses");
            assert!(back.after.corpus.is_none());
            assert!(back.after.supervised.is_none());
            assert!(back.after.daemon.is_none());
            assert!(back.after.poison.is_none());
            assert!(invariant_regressions(&back.after, &sample_phase()).is_empty());
        }
    }

    #[test]
    fn poison_fields_are_deterministic_except_wall_time() {
        let a = sample_phase();
        let mut b = sample_phase();
        b.poison.as_mut().unwrap().wall_ms *= 10.0;
        assert!(invariant_regressions(&a, &b).is_empty());
        b.poison.as_mut().unwrap().complete = false;
        b.poison.as_mut().unwrap().mislabeled = 3;
        b.poison.as_mut().unwrap().poisoned_us = Some(300_000_000);
        let msgs = invariant_regressions(&a, &b);
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("complete")));
        assert!(msgs.iter().any(|m| m.contains("mislabeled")));
        assert!(msgs.iter().any(|m| m.contains("poisoned_us")));
        let p = a.poison.as_ref().unwrap();
        let retention = p.retention().unwrap();
        assert!(retention > 0.5, "fixture retention {retention}");
    }

    #[test]
    fn supervised_overhead_is_timing_only() {
        // Overhead drift must never count as a regression; the three
        // deterministic fields must.
        let a = sample_phase();
        let mut b = sample_phase();
        b.supervised.as_mut().unwrap().supervised_wall_ms *= 10.0;
        assert!(invariant_regressions(&a, &b).is_empty());
        b.supervised.as_mut().unwrap().identical = false;
        b.supervised.as_mut().unwrap().completed = 0;
        let msgs = invariant_regressions(&a, &b);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("identical")));
        assert!(msgs.iter().any(|m| m.contains("completed")));
        let s = a.supervised.as_ref().unwrap();
        assert!((s.overhead().unwrap() - 0.025).abs() < 1e-9);
    }

    #[test]
    fn daemon_overhead_is_timing_only() {
        let a = sample_phase();
        let mut b = sample_phase();
        b.daemon.as_mut().unwrap().daemon_wall_ms *= 10.0;
        b.daemon.as_mut().unwrap().inprocess_wall_ms *= 0.5;
        assert!(invariant_regressions(&a, &b).is_empty());
        b.daemon.as_mut().unwrap().identical = false;
        b.daemon.as_mut().unwrap().completed = 0;
        let msgs = invariant_regressions(&a, &b);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("identical")));
        assert!(msgs.iter().any(|m| m.contains("completed")));
        let d = a.daemon.as_ref().unwrap();
        assert!((d.overhead().unwrap() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let text = Snapshot {
            schema: SCHEMA.into(),
            pr: 6,
            before: None,
            after: sample_phase(),
        }
        .to_json()
        .replace(SCHEMA, "histpc-bench-snapshot/v0");
        assert!(Snapshot::parse(&text).is_err());
    }

    #[test]
    fn quick_profile_is_deterministic_in_non_timing_fields() {
        let a = measure_quick();
        let b = measure_quick();
        let regressions = invariant_regressions(&a, &b);
        assert!(
            regressions.is_empty(),
            "quick profile not deterministic: {regressions:?}"
        );
        // The scenario actually measured something.
        assert!(a.sim.events > 0);
        assert!(a.diagnosis[0].pairs_tested > 0);
        assert!(a.diagnosis[0].quiescent);
    }

    #[test]
    fn invariant_regressions_flag_changes() {
        let a = sample_phase();
        let mut b = sample_phase();
        b.diagnosis[0].bottlenecks = 6;
        b.overload.as_mut().unwrap().converged = false;
        b.sim.events += 1;
        // Pure timing drift is never a regression.
        b.diagnosis[0].wall_ms *= 10.0;
        let msgs = invariant_regressions(&a, &b);
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("bottlenecks")));
        assert!(msgs.iter().any(|m| m.contains("converged")));
        assert!(msgs.iter().any(|m| m.contains("events")));
    }
}
