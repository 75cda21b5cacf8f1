//! The four diagnosis workloads: `unguided_d`, `ocean_search`,
//! `overload_d` (one `Session` call per op, no store) and `guided_d`
//! (the store-backed tuning cycle).

use super::drive::{traced_diagnose, Driven};
use crate::run::{repeat_setup, timed, timed_loop, Measured, RunArgs, RunOutput, Scratch, Timed};
use crate::spec;
use crate::stats;
use crate::trace::{self_ns_by_name_and_op, Tracer};
use histpc::consultant::drive_diagnosis_faulted;
use histpc::history::format::write_record;
use histpc::lint::Linter;
use histpc::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The paper's search configuration: 2 s windows, 250 ms sampling, a
/// 900 s limit.
fn paper_config() -> SearchConfig {
    SearchConfig {
        window: SimDuration::from_secs(2),
        sample: SimDuration::from_millis(250),
        max_time: SimDuration::from_secs(900),
        ..SearchConfig::default()
    }
}

/// The small configuration `--quick` (and the daemon's defaults) use.
pub fn quick_config() -> SearchConfig {
    SearchConfig {
        window: SimDuration::from_millis(800),
        sample: SimDuration::from_millis(100),
        max_time: SimDuration::from_secs(120),
        ..SearchConfig::default()
    }
}

type BoxedWorkload = Box<dyn Workload + Send + Sync>;

fn tester(seed: u64) -> BoxedWorkload {
    Box::new(TesterWorkload {
        seed,
        ..TesterWorkload::new()
    })
}

fn poisson_d(args: &RunArgs) -> BoxedWorkload {
    if args.quick {
        tester(args.derive_seed(0))
    } else {
        Box::new(PoissonWorkload::new(PoissonVersion::D).with_seed(args.derive_seed(0)))
    }
}

fn base_config(args: &RunArgs) -> SearchConfig {
    if args.quick {
        quick_config()
    } else {
        paper_config()
    }
}

/// A workload whose op is one stateless `Session::new()` call.
struct Scenario {
    workload: BoxedWorkload,
    config: SearchConfig,
    warmups: usize,
    /// Drive through `diagnose_faulted` (the overload path).
    faulted: bool,
}

const LABEL: &str = "bench";

fn scenario(args: &RunArgs) -> Result<Scenario, String> {
    let warm = |full: usize| if args.quick { 1 } else { full };
    Ok(match args.workload.as_str() {
        "unguided_d" => Scenario {
            workload: poisson_d(args),
            config: base_config(args),
            warmups: 1,
            faulted: false,
        },
        "ocean_search" => Scenario {
            workload: if args.quick {
                tester(args.derive_seed(0))
            } else {
                Box::new(OceanWorkload {
                    seed: args.derive_seed(0),
                    ..OceanWorkload::new()
                })
            },
            config: base_config(args),
            warmups: warm(20),
            faulted: false,
        },
        "overload_d" => {
            // The `overload_soak` plan: 5x sample pressure plus request
            // storms against an admission budget that sits between what
            // ranks 0-6 of version D produce per batch and the whole
            // stream, so the tail rank is shed every batch.
            let mut config = SearchConfig {
                max_time: SimDuration::from_secs(120),
                ..base_config(args)
            };
            config.faults.seed = args.derive_seed(1);
            config.faults.sample_flood = 5.0;
            config.faults.request_storm_rate = 0.25;
            config.faults.request_storm_burst = 16;
            config.collector.admission = AdmissionConfig {
                sample_budget: if args.quick { 256 } else { 33_200 },
                ..AdmissionConfig::enabled()
            };
            Scenario {
                workload: poisson_d(args),
                config,
                warmups: 1,
                faulted: true,
            }
        }
        other => return Err(format!("{other} is not a stateless diagnosis workload")),
    })
}

impl Scenario {
    fn op(&self) -> Result<Diagnosis, String> {
        let session = Session::new();
        if self.faulted {
            session
                .diagnose_faulted(self.workload.as_ref(), &self.config, LABEL, None)
                .map_err(|e| e.to_string())?
                .diagnosis
                .ok_or_else(|| "diagnosis interrupted".to_string())
        } else {
            session
                .diagnose(self.workload.as_ref(), &self.config, LABEL)
                .map_err(|e| e.to_string())
        }
    }

    /// The per-op oracle: every op of a run diagnoses the same inputs,
    /// so every record (and admission tally) must equal the first.
    fn check(&self, d: &Diagnosis, reference: &Reference) -> Result<(), String> {
        if write_record(&d.record) != reference.text {
            return Err("record differs from the run's first record".into());
        }
        if self.faulted {
            if d.report.admission != reference.admission {
                return Err("admission stats differ from the run's first op".into());
            }
        } else if !d.report.quiescent {
            return Err("search did not quiesce".into());
        }
        Ok(())
    }

    /// Run-level oracle on the reference diagnosis (every later op is
    /// byte-identical to it, so checking it once covers them all).
    fn check_reference(&self, d: &Diagnosis) -> Result<(), String> {
        if !self.faulted {
            return Ok(());
        }
        let adm = &self.config.collector.admission;
        if d.report.admission.peak_in_flight > adm.max_in_flight {
            return Err(format!(
                "peak in-flight {} exceeds the bound {}",
                d.report.admission.peak_in_flight, adm.max_in_flight
            ));
        }
        // Nothing may be harvested from under a saturated resource.
        let directives = extract(&d.record, &ExtractionOptions::priorities_and_safe_prunes());
        let leaked = Linter::new()
            .directives(directives.to_text(), "overload.dirs")
            .against(&d.record)
            .run()
            .with_code("HL026")
            .len();
        if leaked > 0 {
            return Err(format!(
                "{leaked} directive(s) harvested under saturated resources"
            ));
        }
        Ok(())
    }
}

/// What the first (warm-up) op of a run produced; later ops must match.
struct Reference {
    text: String,
    admission: AdmissionStats,
    last_bottleneck_s: Option<f64>,
}

fn last_bottleneck_s(report: &DiagnosisReport) -> Option<f64> {
    report.time_of_last_bottleneck().map(|t| t.as_secs_f64())
}

fn set_last_bottleneck(out: &mut RunOutput, t: Option<f64>) {
    match t {
        Some(t) => out.set(Measured::one("time_to_last_bottleneck_sim_s", t)),
        None => out.failures.push("no bottleneck was found".into()),
    }
}

/// Runs `unguided_d`, `ocean_search` or `overload_d`.
pub fn run_stateless(args: &RunArgs) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let ((sc, reference), setup_s) = repeat_setup(args.setup_repeats(), || {
        let sc = scenario(args)?;
        let mut first = None;
        for _ in 0..sc.warmups {
            let d = sc.op()?;
            first.get_or_insert(d);
        }
        let d = first.expect("at least one warm-up op");
        sc.check_reference(&d)?;
        let reference = Reference {
            text: write_record(&d.record),
            admission: d.report.admission,
            last_bottleneck_s: last_bottleneck_s(&d.report),
        };
        Ok((sc, reference))
    })?;

    let plain_op = || {
        let (d, ms) = timed(|| sc.op());
        let d = d?;
        sc.check(&d, &reference)?;
        Ok(ms)
    };

    if !args.trace {
        let timed = timed_loop(args.seconds, |_| plain_op());
        out.set_end_to_end(setup_s, &timed);
        set_last_bottleneck(&mut out, reference.last_bottleneck_s);
        return Ok(out);
    }

    // Traced run: hand-driven and plain ops alternate, so the two
    // medians that give the tracing overhead see the same machine.
    let mut tr = Tracer::new();
    let mut plain = Timed::default();
    let mut last: Option<Driven> = None;
    let traced = timed_loop(args.seconds, |i| {
        tr.begin_op(i as u32);
        let (driven, ms) =
            timed(|| traced_diagnose(&mut tr, sc.workload.as_ref(), &sc.config, LABEL, None));
        let driven = driven?;
        if driven.record_text != reference.text {
            return Err("hand-driven record differs from Session's".into());
        }
        last = Some(driven);
        plain.record(plain_op());
        Ok(ms)
    });
    out.absorb(&traced);
    out.absorb(&plain);
    out.set_partial_end_to_end(&plain);
    set_last_bottleneck(&mut out, reference.last_bottleneck_s);
    span_metrics(&tr, &mut out);
    diagnosis_layer_metrics(&tr, &traced, &plain, last.as_ref(), &mut out);

    if sc.faulted {
        // The faulted loop as one call, for comparison with the sum of
        // the hand-driven pieces.
        let drive_ms: Vec<f64> = (0..3)
            .map(|_| {
                let mut engine = sc.workload.build_engine();
                timed(|| {
                    std::hint::black_box(drive_diagnosis_faulted(&mut engine, &sc.config, None));
                })
                .1
            })
            .collect();
        out.set(Measured::median_of("consultant.drive_ms", &drive_ms));
    }
    if args.workload == "ocean_search" {
        cli_metrics(args, &plain, &mut out)?;
    }
    write_trace(args, &tr, &mut out);
    Ok(out)
}

/// Sets every `<span>_ms` / `<span>_ms_p50` metric that has a span of
/// that name: the median over ops of the span's total self time in the
/// op.
pub fn span_metrics(tr: &Tracer, out: &mut RunOutput) {
    for (span_name, per_op) in self_ns_by_name_and_op(tr.spans()) {
        let def = [format!("{span_name}_ms"), format!("{span_name}_ms_p50")]
            .iter()
            .find_map(|n| spec::metric(n));
        if let Some(def) = def {
            let ms: Vec<f64> = per_op.values().map(|&ns| ns as f64 / 1e6).collect();
            out.set(Measured::median_of(def.name, &ms));
        }
    }
}

/// Counts and derived figures of a traced diagnosis loop.
fn diagnosis_layer_metrics(
    tr: &Tracer,
    traced: &Timed,
    plain: &Timed,
    last: Option<&Driven>,
    out: &mut RunOutput,
) {
    out.set(Measured::median_of("core.diagnose_ms_p50", &plain.op_ms));
    out.set_trace_overhead(traced, plain);
    let Some(plain_p50) = stats::median(&plain.op_ms) else {
        return;
    };
    // Session glue: what the op costs through `Session` beyond the layer
    // calls of the hand-driven copy, i.e. beyond every span that is not
    // one of the copy's own roots.
    let mut layer_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for (name, per_op) in self_ns_by_name_and_op(tr.spans()) {
        if name != "core.diagnose" && name != "core.cycle" {
            for (op, ns) in per_op {
                *layer_ns.entry(op).or_default() += ns;
            }
        }
    }
    let layer_sums_ms: Vec<f64> = layer_ns.values().map(|&ns| ns as f64 / 1e6).collect();
    if let Some(layers) = stats::median(&layer_sums_ms) {
        out.set(Measured {
            name: "core.session_glue_ms",
            value: plain_p50 - layers,
            n: layer_sums_ms.len(),
        });
    }
    let Some(d) = last else { return };
    let run_until_ms = out.value("sim.run_until_ms").unwrap_or(0.0);
    let pairs = d.report.pairs_tested as f64;
    let adm = d.report.admission;
    let counts = [
        ("sim.events", d.events as f64),
        (
            "sim.events_per_s",
            if run_until_ms > 0.0 {
                d.events as f64 / (run_until_ms / 1e3)
            } else {
                0.0
            },
        ),
        ("sim.sim_seconds", d.sim_seconds),
        (
            "instr.samples_ingested",
            d.offered.saturating_sub(adm.shed_samples) as f64,
        ),
        ("instr.samples_shed", adm.shed_samples as f64),
        (
            "instr.shed_share",
            adm.shed_samples as f64 / d.offered.max(1) as f64,
        ),
        ("instr.breaker_opens", adm.breaker_opens as f64),
        ("instr.peak_in_flight", adm.peak_in_flight as f64),
        ("consultant.ticks", d.ticks as f64),
        ("consultant.pairs_tested", pairs),
        (
            "consultant.true_per_pair",
            d.report.bottleneck_count() as f64 / pairs.max(1.0),
        ),
    ];
    for (name, value) in counts {
        out.set(Measured::one(name, value));
    }
}

/// Most spans a trace file holds (it ends at the next op boundary).
const TRACE_FILE_SPANS: usize = 50_000;

/// Writes the spans to `<out_dir>/trace-<workload>.jsonl`.
pub fn write_trace(args: &RunArgs, tr: &Tracer, out: &mut RunOutput) {
    let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    match tr.write_jsonl(&path, TRACE_FILE_SPANS) {
        Ok(written) => out.notes.push(format!(
            "{written} of {} spans written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => out.failures.push(format!("{}: {e}", path.display())),
    }
}

/// Where `run.sh` built the `histpc` binary.
fn histpc_binary() -> Option<PathBuf> {
    std::env::var_os("HISTBENCH_HISTPC")
        .map(PathBuf::from)
        .filter(|p| p.is_file())
}

/// `core.cli_run_ms_p50` and `core.cli_overhead_ms`: the same diagnosis
/// through a spawned `histpc run`, against the in-process op.
fn cli_metrics(args: &RunArgs, plain: &Timed, out: &mut RunOutput) -> Result<(), String> {
    let Some(bin) = histpc_binary() else {
        if args.quick {
            out.notes
                .push("core.cli_* skipped: HISTBENCH_HISTPC names no histpc binary".into());
            return Ok(());
        }
        return Err("HISTBENCH_HISTPC must name the built histpc binary (run.sh sets it)".into());
    };
    let app = if args.quick { "tester" } else { "ocean" };
    let mut runs_ms = Vec::new();
    for _ in 0..if args.quick { 2 } else { 20 } {
        let (status, ms) = timed(|| {
            std::process::Command::new(&bin)
                .args(["run", "--app", app])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
        });
        let status = status.map_err(|e| format!("{}: {e}", bin.display()))?;
        if !status.success() {
            out.failures
                .push(format!("histpc run --app {app}: {status}"));
        }
        runs_ms.push(ms);
    }
    let cli = Measured::median_of("core.cli_run_ms_p50", &runs_ms);
    if let Some(inproc) = stats::median(&plain.op_ms) {
        out.set(Measured {
            name: "core.cli_overhead_ms",
            value: cli.value - inproc,
            n: cli.n,
        });
    }
    out.set(cli);
    Ok(())
}

// ---------------------------------------------------------------------
// guided_d
// ---------------------------------------------------------------------

/// Labels the guided records rotate through, so the store stays at the
/// base record plus these four.
const RING: [&str; 4] = ["guided-0", "guided-1", "guided-2", "guided-3"];

struct Guided {
    session: Session,
    store_dir: PathBuf,
    workload: BoxedWorkload,
    config: SearchConfig,
    app: String,
    opts: ExtractionOptions,
    /// The base run's bottlenecks with Machine at its root (process
    /// form): what a guided run must still find.
    truth: Vec<(String, Focus)>,
    base_last_s: f64,
    /// Directives of the first cycle; harvest must keep returning them.
    directives_text: String,
    guided_text: String,
    guided_last_s: Option<f64>,
}

impl Guided {
    fn harvest(&self) -> Result<SearchDirectives, String> {
        self.session
            .harvest(&self.app, "base", &self.opts)
            .map_err(|e| e.to_string())
    }

    fn check(&self, directives: &SearchDirectives, d: &Diagnosis) -> Result<(), String> {
        if directives.to_text() != self.directives_text {
            return Err("harvested directives changed between cycles".into());
        }
        let found = d.report.bottleneck_set();
        if let Some((h, f)) = self.truth.iter().find(|t| !found.contains(t)) {
            return Err(format!("guided run missed base bottleneck {h} {f}"));
        }
        match last_bottleneck_s(&d.report) {
            Some(t) if t <= self.base_last_s => Ok(()),
            t => Err(format!(
                "guided last bottleneck at {t:?} s, base at {} s",
                self.base_last_s
            )),
        }
    }

    /// One tuning cycle: harvest from the base run, diagnose with the
    /// directives, record saved under the ring label.
    fn cycle(&self, i: usize) -> Result<(SearchDirectives, Diagnosis), String> {
        let directives = self.harvest()?;
        let config = self.config.clone().with_directives(directives.clone());
        let d = self
            .session
            .diagnose(self.workload.as_ref(), &config, RING[i % RING.len()])
            .map_err(|e| e.to_string())?;
        Ok((directives, d))
    }
}

fn guided_setup(args: &RunArgs, scratch: &Scratch) -> Result<Guided, String> {
    let store_dir = scratch.fresh("store")?;
    let session = Session::with_store(&store_dir).map_err(|e| e.to_string())?;
    let workload = poisson_d(args);
    let config = base_config(args);
    let base = session
        .diagnose(workload.as_ref(), &config, "base")
        .map_err(|e| e.to_string())?;
    let truth = base
        .report
        .bottleneck_set()
        .into_iter()
        .filter(|(_, f)| f.selection("Machine").is_none_or(|m| m.is_root()))
        .collect();
    let base_last_s =
        last_bottleneck_s(&base.report).ok_or("base run found no bottleneck to guide towards")?;
    let mut g = Guided {
        session,
        store_dir,
        workload,
        config,
        app: base.record.app_name.clone(),
        opts: ExtractionOptions::priorities_and_safe_prunes().with_thresholds(),
        truth,
        base_last_s,
        directives_text: String::new(),
        guided_text: String::new(),
        guided_last_s: None,
    };
    // One warm-up cycle; it also fixes the directives and the guided
    // record every later cycle must reproduce.
    let (directives, d) = g.cycle(0)?;
    g.directives_text = directives.to_text();
    g.guided_text = write_record(&d.record);
    g.guided_last_s = last_bottleneck_s(&d.report);
    g.check(&directives, &d)?;
    Ok(g)
}

/// `write_record` text with the label line neutralised, so records that
/// differ only in their ring label compare equal.
fn text_without_label(text: &str, label: &str) -> String {
    text.replacen(label, "<label>", 1)
}

/// Runs `guided_d`.
pub fn run_guided(args: &RunArgs) -> Result<RunOutput, String> {
    let scratch = Scratch::create(args)?;
    let mut out = RunOutput::default();
    let (g, setup_s) = repeat_setup(args.setup_repeats(), || guided_setup(args, &scratch))?;
    let reference_text = text_without_label(&g.guided_text, RING[0]);

    let plain_op = |i: usize| {
        let (cycle, ms) = timed(|| g.cycle(i));
        let (directives, d) = cycle?;
        g.check(&directives, &d)?;
        Ok(ms)
    };

    if !args.trace {
        let timed = timed_loop(args.seconds, plain_op);
        out.set_end_to_end(setup_s, &timed);
    } else {
        let mut tr = Tracer::new();
        let mut plain = Timed::default();
        let mut last: Option<Driven> = None;
        let mut harvested = 0;
        let store = g.session.store().expect("guided session has a store");
        let traced = timed_loop(args.seconds, |i| {
            tr.begin_op(i as u32);
            let label = RING[i % RING.len()];
            let (cycle, ms) = timed(|| {
                tr.enter("core.cycle");
                let directives = tr.span("core.harvest", || g.harvest());
                let driven = directives.and_then(|directives| {
                    harvested = directives.len();
                    let config = g.config.clone().with_directives(directives);
                    traced_diagnose(&mut tr, g.workload.as_ref(), &config, label, Some(store))
                });
                tr.exit();
                driven
            });
            let driven = cycle?;
            if text_without_label(&driven.record_text, label) != reference_text {
                return Err("hand-driven guided record differs from Session's".into());
            }
            last = Some(driven);
            plain.record(plain_op(i));
            Ok(ms)
        });
        out.absorb(&traced);
        out.absorb(&plain);
        out.set_partial_end_to_end(&plain);
        span_metrics(&tr, &mut out);
        diagnosis_layer_metrics(&tr, &traced, &plain, last.as_ref(), &mut out);
        out.set(Measured::one("core.directives_harvested", harvested as f64));
        // Extraction alone, without the corpus vetting harvest adds.
        let base = store.load(&g.app, "base").map_err(|e| e.to_string())?;
        let extract_ms: Vec<f64> = (0..5)
            .map(|_| timed(|| std::hint::black_box(extract(&base, &g.opts))).1)
            .collect();
        out.set(Measured::median_of("history.extract_ms", &extract_ms));
        write_trace(args, &tr, &mut out);
    }

    set_last_bottleneck(&mut out, g.guided_last_s);
    let store = g.session.store().expect("guided session has a store");
    let records = store.labels(&g.app).map_err(|e| e.to_string())?.len();
    out.set_store_size(&g.store_dir, records);
    Ok(out)
}
