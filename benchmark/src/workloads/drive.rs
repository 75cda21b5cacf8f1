//! The hand-driven diagnosis: `Session::diagnose` (and the overload
//! path of `Session::diagnose_faulted`) unrolled into calls on each
//! layer's public functions, with a span around every call.
//!
//! This is a copy of the drive loops in `histpc-consultant` and of the
//! glue in `histpc::session`, kept honest by an oracle: the record it
//! produces must be byte-identical to the one `Session` produces for
//! the same inputs, or the traced run fails. It goes away when the
//! program grows a single stepper that can be timed at its boundaries.

use crate::trace::Tracer;
use histpc::consultant::{Consultant, DiagnosisReport, HypothesisTree};
use histpc::faults::FaultInjector;
use histpc::history::format::write_record;
use histpc::history::{ground_truth, ExecutionRecord, ExecutionStore};
use histpc::instr::{Collector, PostmortemData, SampleBatch};
use histpc::lint::Linter;
use histpc::prelude::*;

/// What one hand-driven diagnosis produced.
#[derive(Debug)]
pub struct Driven {
    /// `format::write_record` text of the record (the identity oracle).
    pub record_text: String,
    /// The consultant's report.
    pub report: DiagnosisReport,
    /// Engine intervals delivered through the sample pipeline.
    pub events: u64,
    /// Consultant ticks, the one at t = 0 included.
    pub ticks: u64,
    /// Sample units offered to the collector (real intervals plus
    /// injected flood units).
    pub offered: u64,
    /// Simulated seconds the engine was advanced.
    pub sim_seconds: f64,
}

/// Runs one diagnosis of `workload` under `config` by hand, recording
/// spans into `tr` under a `core.diagnose` root, and saving into `store`
/// exactly as a store-backed `Session` would.
///
/// Supports what the benchmark's workloads use: healthy plans, and
/// fault plans that only press on admission (floods, storms). A plan
/// that schedules kills is refused rather than silently mis-modelled.
pub fn traced_diagnose(
    tr: &mut Tracer,
    workload: &dyn Workload,
    config: &SearchConfig,
    label: &str,
    store: Option<&ExecutionStore>,
) -> Result<Driven, String> {
    if config.audit_budget != 0 || config.run_full_program || config.stall.is_some() {
        return Err("hand-driven loop models no audits, full-program runs or stall watch".into());
    }
    tr.enter("core.diagnose");
    let out = drive(tr, workload, config, label, store);
    tr.exit();
    out
}

fn drive(
    tr: &mut Tracer,
    workload: &dyn Workload,
    config: &SearchConfig,
    label: &str,
    store: Option<&ExecutionStore>,
) -> Result<Driven, String> {
    if !config.directives.is_empty() {
        let report = tr.span("lint.preflight", || {
            Linter::new()
                .directives(config.directives.to_text(), "<search directives>")
                .run()
        });
        if report.has_errors() {
            return Err("search directives failed lint".into());
        }
    }
    let mut engine = tr.span("sim.build_engine", || workload.build_engine());
    let mut injector =
        (!config.faults.is_disabled()).then(|| FaultInjector::new(config.faults.clone()));

    let mut collector = tr.span("instr.collector_new", || {
        Collector::new(engine.app().clone(), config.collector.clone())
    });
    let mut consultant = tr.span("consultant.new", || {
        Consultant::new(
            HypothesisTree::standard(),
            config.directives.clone(),
            config.window,
            &collector,
        )
    });
    match &injector {
        Some(_) => consultant.set_fault_policy(config),
        None => consultant.set_top_level_only(config.top_level_only),
    }
    consultant.enable_audits(config.audit_budget, &collector);

    let tick = |tr: &mut Tracer,
                consultant: &mut Consultant,
                collector: &mut Collector,
                injector: &mut Option<FaultInjector>,
                now: SimTime| {
        tr.span("consultant.tick", || match injector {
            Some(inj) => consultant.tick_faulted(now, collector, inj),
            None => consultant.tick(now, collector),
        });
    };
    tick(
        tr,
        &mut consultant,
        &mut collector,
        &mut injector,
        SimTime::ZERO,
    );
    tr.span("instr.perturb", || {
        collector.apply_perturbation(&mut engine)
    });

    let mut now = SimTime::ZERO;
    let max = SimTime::ZERO + config.max_time;
    let mut ticks = 1u64;
    let mut offered = 0u64;
    loop {
        now += config.sample;
        if let Some(inj) = &mut injector {
            if !inj.due_kills(now).is_empty() {
                return Err("hand-driven loop does not model scheduled kills".into());
            }
        }
        let status = tr.span("sim.run_until", || engine.run_until(now));
        let batch = tr.span("instr.drain", || match &mut injector {
            Some(inj) => SampleBatch::new(
                inj.filter_intervals(engine.drain_intervals(), now),
                engine.app().process_count(),
            ),
            None => SampleBatch::drain(&mut engine),
        });
        offered += batch.len() as u64;
        if let Some(inj) = &mut injector {
            let flood = inj.flood_units(batch.len());
            offered += flood;
            collector.admission_mut().note_phantom_samples(flood);
            let storm = inj.storm_requests();
            collector.admission_mut().absorb_storm(storm, now);
        }
        tr.span("instr.ingest", || collector.ingest(&batch));
        tick(tr, &mut consultant, &mut collector, &mut injector, now);
        ticks += 1;
        tr.span("instr.perturb", || {
            collector.apply_perturbation(&mut engine)
        });
        if let Some(inj) = &mut injector {
            if config.faults.tool_crash_at.is_some() && inj.crash_due(now) {
                return Err("hand-driven loop does not model tool crashes".into());
            }
        }
        if consultant.is_quiescent() {
            break;
        }
        // The healthy driver stops with the program; the faulted one
        // keeps going so starving experiments can resolve.
        if injector.is_none() && status != EngineStatus::Running {
            break;
        }
        if now >= max {
            break;
        }
    }

    let report = tr.span("consultant.report", || consultant.report(&collector, now));
    let pm = tr.span("instr.postmortem", || {
        PostmortemData::from_totals(engine.app().clone(), engine.totals())
    });
    let tree = HypothesisTree::standard();
    let record = tr.span("history.record_build", || {
        let thresholds_used = tree
            .testable()
            .iter()
            .map(|&h| {
                let hyp = tree.get(h);
                let v = config
                    .directives
                    .threshold_for(&hyp.name)
                    .unwrap_or(hyp.default_threshold);
                (hyp.name.clone(), v)
            })
            .collect();
        ExecutionRecord::from_report(&report, pm.space(), label, thresholds_used)
    });
    if let Some(store) = store {
        let err = |e: histpc::history::StoreError| e.to_string();
        tr.span("history.save", || store.save(&record))
            .map_err(err)?;
        tr.span("history.save_artifact", || {
            store.save_artifact(&record.app_name, label, "shg", &report.shg_rendering)
        })
        .map_err(err)?;
        tr.span("history.delete_artifact", || {
            store.delete_artifact(&record.app_name, label, "ckpt")
        })
        .map_err(err)?;
    }
    tr.span("history.ground_truth", || {
        std::hint::black_box(ground_truth(&pm, &tree, &config.directives));
    });
    Ok(Driven {
        record_text: write_record(&record),
        report,
        events: engine.events_drained(),
        ticks,
        offered,
        sim_seconds: now.as_secs_f64(),
    })
}
