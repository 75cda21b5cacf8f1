//! Chaos soak: many supervised diagnosis sessions run *concurrently*
//! over one shared execution store, each under a randomized (but
//! seeded, fully reproducible) fault plan drawn from the whole fault
//! menu — tool crashes, torn record writes, partial journal appends,
//! sample floods, and process kills.
//!
//! ```text
//! chaos_soak [--sessions N] [--seed S] [--zero-faults] [--assert] [--keep]
//! ```
//!
//! The soak checks the supervision acceptance gates:
//!
//! * every session terminates with a classification (completed /
//!   recovered / degraded / abandoned) — nothing hangs, nothing is
//!   dropped from the report;
//! * after one `repair` pass the shared store has **zero** integrity
//!   errors (`fsck` finds no HL023), no matter what the fault plans
//!   did to it;
//! * with `--zero-faults`, every session completes and its stored
//!   record is byte-identical to an unsupervised `Session::diagnose`
//!   of the same workload/config/label — the supervisor adds no
//!   behaviour on the healthy path.
//!
//! With `--assert` the process exits non-zero unless every gate holds;
//! this is the CI entry point. `--keep` leaves the scratch store on
//! disk for inspection.

use histpc::history::format::write_record;
use histpc::history::fsck::fsck;
use histpc::prelude::*;
use histpc::supervise::Outcome as SupOutcome;
use std::time::Duration;

fn bad(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: chaos_soak [--sessions N] [--seed S] [--zero-faults] [--assert] [--keep]");
    std::process::exit(2);
}

/// SplitMix64 — a tiny seeded generator so fault plans are a pure
/// function of `(--seed, session index)` and a failing soak can be
/// replayed exactly.
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

/// The faults rolled for one session, with a printable summary.
fn roll_faults(rng: &mut Rng, plan_seed: u64) -> (FaultPlan, String) {
    let mut plan = FaultPlan::none();
    plan.seed = plan_seed;
    let mut parts = Vec::new();
    if rng.chance(35) {
        let at = rng.range(300_000, 2_300_000);
        plan.tool_crash_at = Some(SimTime::from_micros(at));
        parts.push(format!("crash@{}us", at));
    }
    if rng.chance(20) {
        plan.torn_write = true;
        parts.push("torn-write".into());
    }
    if rng.chance(20) {
        plan.partial_journal = true;
        parts.push("partial-journal".into());
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
        parts.push(format!("kill-p{rank}@{}us", at));
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

/// The per-session search config: the quick synthetic profile plus a
/// deterministic in-loop stall deadline so a wedged drive loop always
/// halts at a checkpoint instead of spinning to `max_time`.
fn soak_config(plan: FaultPlan) -> SearchConfig {
    let mut config = SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(120),
        stall: Some(SimDuration::from_secs(2)),
        ..SearchConfig::default()
    };
    if plan.sample_flood > 0.0 {
        // Flooded sessions shed at the door instead of queueing forever.
        config.collector.admission.enabled = true;
    }
    config.faults = plan;
    config
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sessions: usize = 16;
    let mut seed: u64 = 1;
    let mut zero_faults = false;
    let mut check = false;
    let mut keep = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sessions" => {
                let Some(value) = args.get(i + 1) else {
                    bad("missing value for --sessions");
                };
                match value.parse::<usize>() {
                    Ok(v) if v >= 1 => sessions = v,
                    _ => bad("--sessions wants a count >= 1"),
                }
                i += 2;
            }
            "--seed" => {
                let Some(value) = args.get(i + 1) else {
                    bad("missing value for --seed");
                };
                match value.parse::<u64>() {
                    Ok(v) => seed = v,
                    Err(_) => bad("--seed wants a number"),
                }
                i += 2;
            }
            "--zero-faults" => {
                zero_faults = true;
                i += 1;
            }
            "--assert" => {
                check = true;
                i += 1;
            }
            "--keep" => {
                keep = true;
                i += 1;
            }
            other => bad(&format!("unknown flag {other:?}")),
        }
    }

    let dir = std::env::temp_dir().join(format!("histpc-chaos-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = match Session::with_store(&dir) {
        Ok(s) => s,
        Err(e) => bad(&format!("cannot open scratch store: {e}")),
    };

    // One workload + fault plan per session, all a pure function of the
    // seed. The whole fleet shares one app namespace in one store;
    // distinct labels keep the records apart while every save contends
    // for the same advisory lock.
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
        let (plan, summary) = if zero_faults {
            (FaultPlan::none(), "healthy".to_string())
        } else {
            roll_faults(&mut rng, plan_seed)
        };
        plans.push((plan, summary));
    }

    let drivers: Vec<WorkloadSession> = (0..sessions)
        .map(|i| {
            WorkloadSession::new(
                &session,
                &workloads[i],
                soak_config(plans[i].0.clone()),
                format!("soak-{i:02}"),
            )
        })
        .collect();
    let refs: Vec<&dyn histpc::supervise::SessionDriver> = drivers
        .iter()
        .map(|d| d as &dyn histpc::supervise::SessionDriver)
        .collect();

    println!(
        "chaos_soak: {sessions} session(s), seed {seed}{}",
        if zero_faults { ", zero faults" } else { "" }
    );
    for (i, (_, summary)) in plans.iter().enumerate() {
        println!("  plan soak-{i:02}: {summary}");
    }

    let supervisor = Supervisor::new(SupervisorConfig {
        retry_budget: 3,
        stall: Some(Duration::from_secs(30)),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(50),
    });
    let report = supervisor.run(&refs);
    print!("{}", report.render());
    for s in &report.sessions {
        for note in &s.notes {
            eprintln!("  [{}] {note}", s.label);
        }
    }

    // Post-mortem store maintenance: one repair pass, then a read-only
    // integrity walk. Whatever the fault plans tore mid-write must be
    // salvaged or quarantined — never silently kept.
    let store = session.store().expect("soak session has a store");
    let notes = match store.repair() {
        Ok(n) => n,
        Err(e) => bad(&format!("store repair failed: {e}")),
    };
    for n in &notes {
        println!("repair: {n}");
    }
    let findings = fsck(store.root());
    let errors: Vec<_> = findings.iter().filter(|d| d.is_error()).collect();
    let warnings = findings.len() - errors.len();
    println!(
        "fsck: {} error(s), {warnings} warning(s) after repair",
        errors.len()
    );
    for d in &errors {
        eprintln!("  {d}");
    }

    // Zero-fault bit-identity: the supervised fleet must have stored
    // exactly the records a bare, unsupervised diagnose produces.
    let mut divergent = Vec::new();
    if zero_faults {
        let bare = Session::new();
        for (i, (plan, _)) in plans.iter().enumerate() {
            let label = format!("soak-{i:02}");
            let stored = match store.load("synth", &label) {
                Ok(r) => r,
                Err(e) => {
                    divergent.push(format!("{label}: stored record unreadable: {e}"));
                    continue;
                }
            };
            let d = bare
                .diagnose(&workloads[i], &soak_config(plan.clone()), &label)
                .expect("zero-fault config lints clean");
            if write_record(&stored) != write_record(&d.record) {
                divergent.push(format!(
                    "{label}: stored record differs from bare diagnosis"
                ));
            }
        }
        for m in &divergent {
            eprintln!("identity: {m}");
        }
    }

    if !keep {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        println!("kept store at {}", dir.display());
    }

    if check {
        let mut failed = false;
        let mut gate = |name: &str, ok: bool| {
            if ok {
                println!("PASS: {name}");
            } else {
                eprintln!("FAIL: {name}");
                failed = true;
            }
        };
        gate(
            "every session terminated with a classification",
            report.sessions.len() == sessions,
        );
        gate(
            "store is fsck-clean after one repair pass",
            errors.is_empty(),
        );
        if zero_faults {
            gate(
                "zero-fault fleet completed without supervisor intervention",
                report
                    .sessions
                    .iter()
                    .all(|s| s.outcome == SupOutcome::Completed),
            );
            gate(
                "stored records byte-identical to unsupervised diagnoses",
                divergent.is_empty(),
            );
        } else {
            gate(
                "no session abandoned by a supervision-thread panic",
                report.sessions.iter().all(|s| match &s.outcome {
                    SupOutcome::Abandoned { reason } => !reason.contains("panicked"),
                    _ => true,
                }),
            );
        }
        if failed {
            std::process::exit(1);
        }
    }
}
