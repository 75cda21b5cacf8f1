//! `histpc` — command-line interface to history-guided performance
//! diagnosis.
//!
//! ```text
//! histpc run      --app poisson-c [--label L] [--store DIR] [--directives FILE]
//!                 [--mappings FILE] [--window SECS] [--max-time SECS] [--seed N]
//!                 [--faults FILE] [--resume FILE] [--admission KNOBS]
//!                 [--audit-budget N] [--supervised] [--retries N] [--stall-ms T]
//! histpc supervise --store DIR --apps A,B,C [--label L] [--retries N]
//!                 [--stall-ms T] [--window SECS] [--max-time SECS] [--seed N]
//!                 [--faults FILE] [--admission KNOBS]
//! histpc harvest  --store DIR --app NAME --label L [--mode MODE] [--out FILE]
//!                 [--provenance]
//! histpc map      --store DIR --app NAME --from LABEL --to LABEL [--out FILE]
//! histpc compare  --store DIR --app NAME --from LABEL --to LABEL
//! histpc profile  --app APP [--for SECS] [--seed N]
//! histpc shg      --store DIR --app NAME --label L
//! histpc ls       --store DIR [--app NAME]
//! histpc lint     FILE... [--against STORE/APP/LABEL] [--deny-warnings] [--format F]
//! histpc lint     corpus STORE [--last N] [--deny-warnings] [--format F]
//! histpc store    fsck --store DIR [--deny-warnings]
//! histpc store    repair|compact|migrate --store DIR
//! histpc store    trust --store DIR [--format json]
//! histpc daemon   start --store DIR --socket PATH [--tenant-slots N]
//!                 [--tenant-budget N] [--idle-ms T] [--retries N] [--stall-ms T]
//! histpc daemon   stop|status --socket PATH
//! histpc run      --remote SOCK --app APP [--label L] [--tenant T] [--seed N]
//!                 [--window SECS] [--max-time SECS] [--faults FILE] [--budget N]
//!                 [--harvest-from L] [--audit-budget N]
//! ```
//!
//! Applications: `poisson-a`, `poisson-b`, `poisson-c`, `poisson-d`,
//! `ocean`, `tester`, `sweep3d`. Harvest modes: `priorities`, `prunes`,
//! `general-prunes`, `historic-prunes`, `combined` (default),
//! `combined+thresholds`.
//!
//! `--faults FILE` loads a `histpc-faults v1` fault plan and drives the
//! diagnosis through the injector: samples may be dropped, delayed or
//! reordered, instrumentation requests may fail, and scheduled kills take
//! nodes or processes down mid-search. If the plan schedules a tool
//! crash, the run stops at that point and (with `--store`) saves a
//! checkpoint artifact; rerun with `--resume FILE` pointing at it to
//! replay deterministically past the crash.
//!
//! `--admission KNOBS` turns on overload admission control in the data
//! collector: `on` accepts the defaults, or a comma-separated knob list
//! (`max-in-flight=N,sample-budget=N,deadline-ms=N,strikes=N,cooldown-ms=N`)
//! tunes the bounds. Under pressure the collector sheds refinement
//! requests before backing ones, trims over-budget sample batches, and
//! opens per-process circuit breakers whose foci then conclude
//! `Saturated` instead of blocking the search.
//!
//! `run` exits 0 on a clean diagnosis, 1 on errors, 2 on usage problems
//! (an unknown flag, or a flag value that does not parse), and 3 when
//! the final report is *degraded* — it contains `Unknown`,
//! `Unreachable` or `Saturated` verdicts, meaning part of the search
//! space was never honestly measured.
//!
//! `--supervised` wraps the run in the full supervision stack: a
//! heartbeat watchdog with a stall deadline (`--stall-ms`, default
//! 30000; also mirrored into the drive loop's deterministic in-loop
//! stall detector in application time), automatic checkpoint resume
//! under a bounded retry budget (`--retries`, default 3), and the
//! escalating degradation ladder (tightened admission control →
//! top-level-only instrumentation → history-only prognosis). `histpc
//! supervise` runs one such session per `--apps` entry concurrently
//! over one shared store. Both print a classified report — every
//! session ends `completed`, `recovered`, `degraded` or `abandoned` —
//! and exit 0 when all sessions completed or recovered, 3 when any
//! ended degraded, and 1 when any was abandoned.
//!
//! `lint` statically validates directive and mapping files (kind
//! auto-detected per file) and prints rustc-style diagnostics with
//! stable `HLxxx` codes. With `--against` the directives are also
//! cross-checked, after mapping, against a stored run's resource
//! hierarchies. `lint corpus STORE` instead analyzes a whole execution
//! store across runs: directive conflicts (HL030), staleness against
//! the last-N runs (HL031; `--last N`, default 20), threshold drift
//! (HL032), and prune-dominated directives (HL033) — with per-record
//! fact extraction cached incrementally in the store's `FACTS` sidecar.
//! `--format json` prints the findings as a stable
//! `histpc-lint-report/v1` JSON object on stdout instead of rendered
//! text. Exit status is non-zero on errors, or on warnings when
//! `--deny-warnings` is given.
//!
//! `store` maintains a history store's on-disk health. `fsck` checks it
//! read-only (HL023 integrity errors, HL024 unclean-shutdown warnings,
//! HL025 legacy/drift warnings; known sidecars like `FACTS` and `TRUST`
//! are listed as skipped notes — each is self-checking); `repair`
//! recovers interrupted writes and salvages or quarantines damaged
//! records; `compact` reindexes the manifest and resets the journal;
//! `migrate` upgrades a v0 loose-file store to the checksummed v1
//! layout in place. `trust` prints the store's trust ledger — per
//! source-run scores, audit tallies, charged conflicts, and revoked
//! directive lines — as a table, or as a `histpc-lint-report/v1` JSON
//! object with `--format json` (quarantined sources are HL036
//! warnings, pinned revocations HL037).
//!
//! `run --audit-budget N` turns on online shadow audits: up to N
//! history-pruned or history-lowered pairs get probe instrumentation
//! anyway (riding the backing-store admission reserve), and a probe
//! that contradicts its directive revokes it mid-run, reopens the
//! affected subtree, and charges the lie to the source run's trust.
//!
//! `daemon` manages a `histpcd` diagnosis daemon: `start` launches the
//! `histpcd` binary that ships next to `histpc` and waits for its
//! socket; `stop` asks it to shut down (in-flight sessions finish
//! classified first); `status` prints its health line. `run --remote
//! SOCK` then runs the diagnosis *on* such a daemon instead of
//! in-process — start (idempotent, so lost responses retry safely),
//! attach until the session is classified, fetch and print the stored
//! report. Remote runs exit with the supervised-run codes: 0 for
//! completed/recovered, 3 for degraded, 1 for abandoned or transport
//! failure.
//!
//! Each verb accepts only the flags listed for it above (`run --remote`
//! has its own list); any other flag is a usage error (exit 2).

use histpc::history;
use histpc::prelude::*;
use histpc::remote::{Client, Request};
use histpc::supervise::SessionDriver;
use histpc::RunSpec;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Writes `args` to `w` unless an earlier write to the same stream
/// failed. `print!` and `eprint!` panic (exit 101) when the reader has
/// gone away — `histpc run … | head -1`, or a stderr pipe closed early.
/// A closed pipe is a reader that has seen enough: after the first
/// failed write the rest of that stream is dropped quietly and the
/// command carries on to its usual exit code.
fn write_latched(
    closed: &AtomicBool,
    mut w: impl std::io::Write,
    args: std::fmt::Arguments<'_>,
) -> std::io::Result<()> {
    if closed.load(Ordering::Relaxed) {
        return Ok(());
    }
    w.write_fmt(args)
        .inspect_err(|_| closed.store(true, Ordering::Relaxed))
}

/// Writes diagnostics to stderr (see [`write_latched`]).
fn write_err(args: std::fmt::Arguments<'_>) {
    // Only a statistic-like latch: publishes no other data.
    static CLOSED: AtomicBool = AtomicBool::new(false);
    // A failed stderr write has nowhere left to be reported.
    let _ = write_latched(&CLOSED, std::io::stderr().lock(), args);
}

macro_rules! err {
    ($($arg:tt)*) => { write_err(format_args!($($arg)*)) };
}

macro_rules! errln {
    ($($arg:tt)*) => { write_err(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Writes report output to stdout (see [`write_latched`]).
fn write_out(args: std::fmt::Arguments<'_>) {
    // Only a statistic-like latch: publishes no other data.
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if let Err(e) = write_latched(&CLOSED, std::io::stdout().lock(), args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            errln!("error: cannot write to stdout: {e}");
        }
    }
}

macro_rules! out {
    ($($arg:tt)*) => { write_out(format_args!($($arg)*)) };
}

macro_rules! outln {
    ($($arg:tt)*) => { write_out(format_args!("{}\n", format_args!($($arg)*))) };
}

fn usage() -> ! {
    errln!(
        "usage:\n  histpc run --app APP [--label L] [--store DIR] [--directives FILE]\n\
         \x20            [--mappings FILE] [--window SECS] [--max-time SECS] [--seed N]\n\
         \x20            [--faults FILE] [--resume FILE] [--admission KNOBS]\n\
         \x20            [--audit-budget N] [--supervised] [--retries N] [--stall-ms T]\n\
         \x20 histpc supervise --store DIR --apps A,B,C [--label L] [--retries N]\n\
         \x20            [--stall-ms T] [--window SECS] [--max-time SECS] [--seed N]\n\
         \x20            [--faults FILE] [--admission KNOBS]\n\
         \x20 histpc harvest --store DIR --app NAME --label L [--mode MODE] [--out FILE]\n\
         \x20            [--provenance]\n\
         \x20 histpc map     --store DIR --app NAME --from LABEL --to LABEL [--out FILE]\n\
         \x20 histpc compare --store DIR --app NAME --from LABEL --to LABEL\n\
         \x20 histpc profile --app APP [--for SECS] [--seed N]\n\
         \x20 histpc shg     --store DIR --app NAME --label L\n\
         \x20 histpc ls      --store DIR [--app NAME]\n\
         \x20 histpc lint    FILE... [--against STORE/APP/LABEL] [--deny-warnings] [--format F]\n\
         \x20 histpc lint    corpus STORE [--last N] [--deny-warnings] [--format F]\n\
         \x20 histpc store   fsck --store DIR [--deny-warnings]\n\
         \x20 histpc store   repair|compact|migrate --store DIR\n\
         \x20 histpc store   trust --store DIR [--format json]\n\
         \x20 histpc daemon  start --store DIR --socket PATH [--tenant-slots N]\n\
         \x20            [--tenant-budget N] [--idle-ms T] [--retries N] [--stall-ms T]\n\
         \x20 histpc daemon  stop|status --socket PATH\n\
         \x20 histpc run     --remote SOCK --app APP [--label L] [--tenant T] [--seed N]\n\
         \x20            [--window SECS] [--max-time SECS] [--faults FILE] [--budget N]\n\
         \x20            [--harvest-from L] [--audit-budget N]\n\n\
         apps: poisson-a poisson-b poisson-c poisson-d ocean tester sweep3d\n\
         modes: priorities prunes general-prunes historic-prunes combined combined+thresholds"
    );
    std::process::exit(2);
}

/// A flag value that does not parse, or that `why` says is refused, is
/// a usage error (exit 2, like [`usage`]): the command line is wrong and
/// no run failed.
fn bad_flag(name: &str, value: &str, why: &str) -> ! {
    errln!("error: bad --{name} {value:?}{why}");
    std::process::exit(2);
}

/// The value of flag `name` parsed as a `T`, if the flag is given; see
/// [`bad_flag`].
fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Option<T> {
    let value = flags.get(name)?;
    Some(value.parse().unwrap_or_else(|_| bad_flag(name, value, "")))
}

/// The `--format` of a verb that prints text or JSON; see [`bad_flag`].
fn format_flag(flags: &HashMap<String, String>) -> &str {
    match flags.get("format").map_or("text", String::as_str) {
        format @ ("text" | "json") => format,
        other => bad_flag("format", other, ": want text or json"),
    }
}

/// Flags that take no value; present means on.
const BOOLEAN_FLAGS: &[&str] = &["supervised", "provenance", "deny-warnings"];

/// The flags `histpc daemon start` reads; it passes all but the first
/// two on to `histpcd`.
const DAEMON_START_FLAGS: &[&str] = &[
    "store",
    "socket",
    "tenant-slots",
    "tenant-budget",
    "idle-ms",
    "retries",
    "stall-ms",
];

/// The flags each verb reads (see the module doc); [`parse_flags`]
/// rejects any other.
fn verb_flags(verb: &str) -> &'static [&'static str] {
    match verb {
        "run" => &[
            "app",
            "label",
            "store",
            "directives",
            "mappings",
            "window",
            "max-time",
            "seed",
            "faults",
            "resume",
            "admission",
            "audit-budget",
            "supervised",
            "retries",
            "stall-ms",
        ],
        "run --remote" => &[
            "remote",
            "app",
            "label",
            "tenant",
            "seed",
            "window",
            "max-time",
            "faults",
            "budget",
            "harvest-from",
            "audit-budget",
        ],
        "supervise" => &[
            "store",
            "apps",
            "label",
            "retries",
            "stall-ms",
            "window",
            "max-time",
            "seed",
            "faults",
            "admission",
        ],
        "harvest" => &["store", "app", "label", "mode", "out", "provenance"],
        "map" => &["store", "app", "from", "to", "out"],
        "compare" => &["store", "app", "from", "to"],
        "profile" => &["app", "for", "seed"],
        "shg" => &["store", "app", "label"],
        "ls" => &["store", "app"],
        "store fsck" => &["store", "deny-warnings"],
        "store trust" => &["store", "format"],
        "store repair" | "store compact" | "store migrate" => &["store"],
        "lint" => &["against", "deny-warnings", "format"],
        "lint corpus" => &["last", "deny-warnings", "format"],
        "daemon start" => DAEMON_START_FLAGS,
        "daemon stop" | "daemon status" => &["socket"],
        _ => &[],
    }
}

/// Parses `--key value` pairs (and bare boolean flags) after the
/// subcommand `verb`; a flag the verb does not read, or a positional
/// argument, is a usage error.
fn parse_flags(verb: &str, args: &[String]) -> HashMap<String, String> {
    let (flags, positional) = parse_args(verb, args);
    if let Some(arg) = positional.first() {
        errln!("unexpected argument {arg:?}");
        usage();
    }
    flags
}

/// [`parse_flags`] for a verb that also takes positional arguments,
/// returned in order.
fn parse_args(verb: &str, args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let accepted = verb_flags(verb);
    let mut out = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            positional.push(args[i].clone());
            i += 1;
            continue;
        };
        if !accepted.contains(&key) {
            errln!("unknown flag --{key} for histpc {verb}");
            usage();
        }
        if BOOLEAN_FLAGS.contains(&key) {
            out.insert(key.to_string(), "on".into());
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            errln!("missing value for --{key}");
            usage();
        };
        out.insert(key.to_string(), value.clone());
        i += 2;
    }
    (out, positional)
}

fn require<'a>(flags: &'a HashMap<String, String>, key: &str) -> &'a str {
    match flags.get(key) {
        Some(v) => v,
        None => {
            errln!("missing required flag --{key}");
            usage();
        }
    }
}

/// The `--store` of a verb that only reads or maintains an existing
/// store. `ExecutionStore::open` creates what it does not find, which is
/// right for `run` and wrong for a mistyped path here.
fn existing_store(dir: &str) -> Result<&str, String> {
    if std::path::Path::new(dir).is_dir() {
        Ok(dir)
    } else {
        Err(format!("no store at {dir}"))
    }
}

fn build_workload(app: &str, seed: Option<u64>) -> Box<dyn Workload + Send + Sync> {
    match histpc::apps::build_workload(app, seed) {
        Ok(wl) => wl,
        Err(msg) => {
            errln!("{msg}");
            usage();
        }
    }
}

fn extraction_mode(mode: &str) -> ExtractionOptions {
    match mode {
        "priorities" => ExtractionOptions::priorities_only(),
        "prunes" => ExtractionOptions::all_prunes(),
        "general-prunes" => ExtractionOptions::general_prunes_only(),
        "historic-prunes" => ExtractionOptions::historic_prunes_only(),
        "combined" => ExtractionOptions::priorities_and_safe_prunes(),
        "combined+thresholds" => ExtractionOptions::priorities_and_safe_prunes().with_thresholds(),
        other => {
            errln!("unknown harvest mode {other:?}");
            usage();
        }
    }
}

/// Exit code for a diagnosis that completed but is degraded: the report
/// carries `Unknown`, `Unreachable` or `Saturated` verdicts, so part of
/// the search space was never honestly measured. Distinct from plain
/// errors (1) and usage problems (2) so scripts can tell "the run broke"
/// from "the run finished but don't fully trust it".
const EXIT_DEGRADED: u8 = 3;

/// The spec `run`, `supervise` and `run --remote` diagnose `app` with:
/// the paper's settings, with the flags applied. Each verb reads only
/// its own flags, so the others' are absent here.
fn run_spec(flags: &HashMap<String, String>, app: &str) -> Result<RunSpec, String> {
    let mut spec = RunSpec::new(app, flags.get("label").map_or("run", String::as_str));
    spec.seed = flag(flags, "seed");
    // Seconds, rounded to the microsecond like every simulated duration,
    // then truncated to the spec's whole milliseconds.
    let millis = |secs: &str| {
        let secs = secs.parse().ok()?;
        Some(SimDuration::from_secs_f64(secs).as_micros() / 1000)
    };
    if let Some(w) = flags.get("window") {
        // Nothing could conclude in a window under a millisecond, and a
        // window is read in whole samples.
        let sample = spec.sample_ms;
        spec.window_ms = millis(w)
            .filter(|&ms| ms > 0 && ms.is_multiple_of(sample))
            .unwrap_or_else(|| {
                let why = format!(": need a positive multiple of the {sample} ms sample");
                bad_flag("window", w, &why)
            });
    }
    if let Some(t) = flags.get("max-time") {
        spec.max_time_ms = millis(t).unwrap_or_else(|| bad_flag("max-time", t, ""));
    }
    if let Some(path) = flags.get("faults") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        spec.faults = Some(text);
    }
    spec.budget = flag(flags, "budget");
    spec.harvest_from = flags.get("harvest-from").cloned();
    spec.audit_budget = flag(flags, "audit-budget");
    spec.check()?;
    Ok(spec)
}

/// The search config of a local run of `spec`: the spec's, with
/// `--admission` applied.
fn local_config(flags: &HashMap<String, String>, spec: &RunSpec) -> Result<SearchConfig, String> {
    let mut config = spec.search_config()?;
    if let Some(knobs) = flags.get("admission") {
        config.collector.admission = AdmissionConfig::parse_knobs(knobs)
            .unwrap_or_else(|e| bad_flag("admission", knobs, &format!(": {e}")));
    }
    Ok(config)
}

/// Builds the supervision policy from `--retries` / `--stall-ms`, and
/// mirrors the stall deadline into the search config's deterministic
/// in-loop detector (application time) so a wedged drive loop stops at
/// a checkpoint on its own, watchdog or not. `--stall-ms 0` disables
/// both.
fn supervision_flags(
    flags: &HashMap<String, String>,
    config: &mut SearchConfig,
) -> SupervisorConfig {
    let mut sup = SupervisorConfig::default();
    if let Some(r) = flag(flags, "retries") {
        sup.retry_budget = r;
    }
    let stall_ms: u64 = flag(flags, "stall-ms").unwrap_or(30_000);
    if stall_ms == 0 {
        sup.stall = None;
        config.stall = None;
    } else {
        sup.stall = Some(std::time::Duration::from_millis(stall_ms));
        config.stall = Some(SimDuration::from_millis(stall_ms));
    }
    sup
}

/// Exit-code precedence for supervised (and remote) runs — the *worst*
/// session outcome wins, in this strict order:
///
/// 1. any `abandoned` session ⇒ exit 1 (hard failure),
/// 2. else any `degraded` session ⇒ exit 3 ([`EXIT_DEGRADED`]),
/// 3. else ⇒ exit 0 (`recovered` counts as success: the retries are
///    noted in the report, but the diagnosis itself is whole).
///
/// A report carrying both abandoned and degraded sessions therefore
/// exits 1, never 3: a lost session is strictly worse news than a
/// degraded one, and scripts branch on the code alone.
fn supervision_exit_code(report: &SupervisionReport) -> u8 {
    if report.abandoned() > 0 {
        1
    } else if report.degraded() > 0 {
        EXIT_DEGRADED
    } else {
        0
    }
}

/// Prints a supervision report and maps it to an exit code via the
/// worst-wins precedence of [`supervision_exit_code`].
fn report_supervision(report: &SupervisionReport) -> ExitCode {
    out!("{}", report.render());
    for s in &report.sessions {
        for note in &s.notes {
            errln!("  [{}] {note}", s.label);
        }
    }
    ExitCode::from(supervision_exit_code(report))
}

fn cmd_run(flags: HashMap<String, String>) -> Result<ExitCode, String> {
    let spec = run_spec(&flags, require(&flags, "app"))?;
    let workload = build_workload(&spec.app, spec.seed);
    let mut config = local_config(&flags, &spec)?;
    let sup = flags
        .contains_key("supervised")
        .then(|| supervision_flags(&flags, &mut config));
    let mut linted_files = false;
    if let Some(path) = flags.get("directives") {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let mtext = match flags.get("mappings") {
            Some(mpath) => Some(std::fs::read_to_string(mpath).map_err(|e| e.to_string())?),
            None => None,
        };
        // Lint the files under their real names before the strict parse,
        // so problems come back with proper spans instead of a bare
        // first-error message.
        let mut linter = histpc::lint::Linter::new().directives(&text, path.clone());
        if let (Some(mtext), Some(mpath)) = (&mtext, flags.get("mappings")) {
            linter = linter.mappings(mtext, mpath.clone());
        }
        let report = linter.run();
        if !report.is_clean() {
            err!("{}", report.render(&linter.sources()));
            if let Some(trailer) = histpc::lint::summary(&report.diagnostics) {
                errln!("\n{trailer} emitted");
            }
        }
        if report.has_errors() {
            return Err(format!("{path}: directives failed lint"));
        }
        linted_files = true;
        let mut directives = SearchDirectives::parse(&text).map_err(|e| e.to_string())?;
        if let Some(mtext) = &mtext {
            let mappings = MappingSet::parse(mtext).map_err(|e| e.to_string())?;
            directives = mappings.apply_to_directives(&directives);
        }
        errln!("loaded {} directives", directives.len());
        config.directives = directives;
    }

    let resume = match flags.get("resume") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(SearchCheckpoint::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };

    let session = match flags.get("store") {
        Some(dir) => Session::with_store(dir).map_err(|e| e.to_string())?,
        None => Session::new(),
    };
    let label = &spec.label;
    if let Some(sup) = sup {
        if resume.is_some() {
            return Err("--resume does not combine with --supervised; \
                        the supervisor manages resumes itself"
                .into());
        }
        let driver = WorkloadSession::new(&session, workload.as_ref(), config, label);
        let report = Supervisor::new(sup).run(&[&driver as &dyn SessionDriver]);
        return Ok(report_supervision(&report));
    }
    let dd = session
        .diagnose_faulted(workload.as_ref(), &config, label, resume.as_ref())
        .map_err(|e| e.to_string())?;
    if !config.faults.is_disabled() || resume.is_some() {
        errln!(
            "faults: {} sample(s) dropped, {} delayed, {} reordered; \
             {} request(s) failed, {} deferred; {} kill(s) fired",
            dd.stats.dropped,
            dd.stats.delayed,
            dd.stats.reordered,
            dd.stats.requests_failed,
            dd.stats.requests_deferred,
            dd.stats.kills_fired
        );
    }
    if !dd.resumed_digest_ok {
        errln!("warning: replayed search state did not match the checkpoint digest");
    }
    let Some(d) = dd.diagnosis else {
        // Unsupervised runs arm neither cancel nor a stall deadline, so
        // only an injected tool crash interrupts them.
        let ckpt = dd
            .checkpoint
            .expect("an interrupted run leaves a checkpoint");
        outln!(
            "diagnosis interrupted by injected tool crash at t = {}",
            ckpt.at
        );
        if flags.contains_key("store") {
            outln!(
                "checkpoint stored as {label}.ckpt under the application's \
                 store directory; rerun the same command with --resume FILE"
            );
        } else {
            outln!("no store attached: rerun with --store to keep the checkpoint");
        }
        return Ok(ExitCode::SUCCESS);
    };
    if !d.lint_warnings.is_empty() && !linted_files {
        let mut sources = histpc::lint::SourceCache::new();
        sources.insert("<search directives>", &config.directives.to_text());
        err!("{}", histpc::lint::render_all(&d.lint_warnings, &sources));
    }

    outln!(
        "application: {} (version {})",
        d.record.app_name,
        d.record.app_version
    );
    outln!(
        "diagnosis {} at t = {} with {} pairs tested (peak cost {:.1}%)",
        if d.report.quiescent {
            "completed"
        } else {
            "stopped"
        },
        d.report.end_time,
        d.report.pairs_tested,
        d.report.peak_cost * 100.0
    );
    outln!("samples delivered through the collector: {}", d.events);
    let unknowns = d
        .report
        .outcomes
        .iter()
        .filter(|o| o.outcome == Outcome::Unknown)
        .count();
    if unknowns > 0 {
        outln!("unresolved (Unknown) pairs: {unknowns}");
    }
    let saturated_pairs = d
        .report
        .outcomes
        .iter()
        .filter(|o| o.outcome == Outcome::Saturated)
        .count();
    if saturated_pairs > 0 {
        outln!("overloaded (Saturated) pairs: {saturated_pairs}");
    }
    for r in &d.report.unreachable {
        outln!("unreachable: {r}");
    }
    for r in &d.report.saturated {
        outln!("saturated: {r}");
    }
    let adm = &d.report.admission;
    if adm.admitted > 0 || adm.shed_requests > 0 || adm.shed_samples > 0 {
        outln!(
            "admission: {} request(s) admitted (peak {} in flight), {} shed, \
             {} saturated refusal(s); {} sample(s) shed; {} breaker(s) opened, {} readmitted",
            adm.admitted,
            adm.peak_in_flight,
            adm.shed_requests,
            adm.saturated_refusals,
            adm.shed_samples,
            adm.breaker_opens,
            adm.breaker_readmits
        );
    }
    if !d.report.audits.is_empty() {
        let revoked = d.report.revocations();
        outln!(
            "shadow audits: {} probe(s), {} pass(es), {} directive(s) revoked",
            d.report.audits.len(),
            d.report.audits.len() - revoked.len(),
            revoked.len()
        );
        for a in &revoked {
            outln!(
                "  revoked `{}` from {}@{} (probe observed {:.1}% at t={})",
                a.directive,
                a.source_run,
                a.generation,
                a.observed * 100.0,
                a.at
            );
        }
    }
    outln!("bottlenecks found: {}", d.report.bottleneck_count());
    for b in d.report.bottlenecks().iter().take(15) {
        outln!(
            "  t={:<9} {:>6.1}%  {}  {}",
            b.first_true_at.map(|t| t.to_string()).unwrap_or_default(),
            b.last_value * 100.0,
            b.hypothesis,
            b.focus
        );
    }
    if flags.contains_key("store") {
        outln!("record stored as {}/{}", d.record.app_name, label);
    }
    let unreachables = d
        .report
        .outcomes
        .iter()
        .filter(|o| o.outcome == Outcome::Unreachable)
        .count();
    if unknowns > 0 || saturated_pairs > 0 || unreachables > 0 {
        errln!(
            "warning: diagnosis degraded — {unknowns} unknown, {unreachables} unreachable, \
             {saturated_pairs} saturated pair(s); parts of the search space were never \
             honestly measured (exit code {EXIT_DEGRADED})"
        );
        return Ok(ExitCode::from(EXIT_DEGRADED));
    }
    Ok(ExitCode::SUCCESS)
}

/// `histpc run --remote SOCK`: runs the session on a `histpcd` daemon
/// over its Unix socket instead of in-process. The client retries
/// transport failures and `busy`/`quota` refusals with capped
/// exponential backoff (honouring the daemon's retry hints); `start`
/// is idempotent per (tenant, label) so those retries can never
/// double-run a session.
fn cmd_run_remote(flags: HashMap<String, String>) -> Result<ExitCode, String> {
    let sock = require(&flags, "remote");
    let spec = run_spec(&flags, require(&flags, "app"))?;
    let tenant = flags.get("tenant").map_or("cli", String::as_str);
    let label = &spec.label;
    let mut client = Client::new(sock, tenant);
    let started = client
        .expect_ok(&spec.to_request())
        .map_err(|e| e.to_string())?;
    errln!(
        "{sock}: session {} {}",
        started.get("id").unwrap_or("?"),
        if started.get("accepted") == Some("1") {
            "accepted"
        } else {
            "already known"
        }
    );
    let done = client
        .expect_ok(
            &Request::new("attach")
                .arg("label", label)
                .arg("wait-ms", 600_000u64),
        )
        .map_err(|e| e.to_string())?;
    let state = done.get("state").unwrap_or("unknown").to_string();
    if state == "running" {
        return Err(format!(
            "session {tenant}/{label} still running after attach wait"
        ));
    }
    let report = client
        .expect_ok(&Request::new("report").arg("label", label))
        .map_err(|e| e.to_string())?;
    for line in report.body() {
        outln!("{line}");
    }
    let detail = report.get("detail").unwrap_or_default();
    if detail.is_empty() {
        errln!("session {tenant}/{label}: {state}");
    } else {
        errln!("session {tenant}/{label}: {detail}");
    }
    // Same worst-wins precedence as local supervised runs (this run is
    // the only session in the report).
    Ok(match state.as_str() {
        "completed" | "recovered" => ExitCode::SUCCESS,
        "degraded" => ExitCode::from(EXIT_DEGRADED),
        _ => ExitCode::FAILURE,
    })
}

/// `histpc daemon start|stop|status`: manages a `histpcd` serving one
/// store over a Unix socket. `start` launches the `histpcd` binary that
/// ships next to `histpc` and waits for the socket to appear — by then
/// the daemon has finished lease recovery and is accepting. `stop` is a
/// clean shutdown: in-flight sessions still end classified.
fn cmd_daemon(args: &[String]) -> Result<ExitCode, String> {
    let Some((action, rest)) = args.split_first() else {
        return Err("daemon needs an action: start, stop or status".into());
    };
    let flags = parse_flags(&format!("daemon {action}"), rest);
    match action.as_str() {
        "start" => {
            let store = require(&flags, "store");
            let sock = require(&flags, "socket");
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let histpcd = exe.with_file_name("histpcd");
            if !histpcd.exists() {
                return Err(format!(
                    "{}: histpcd binary not found next to histpc",
                    histpcd.display()
                ));
            }
            let mut cmd = std::process::Command::new(&histpcd);
            cmd.arg("--store").arg(store).arg("--socket").arg(sock);
            for flag in &DAEMON_START_FLAGS[2..] {
                if let Some(v) = flags.get(*flag) {
                    cmd.arg(format!("--{flag}")).arg(v);
                }
            }
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", histpcd.display()))?;
            let sock_path = std::path::Path::new(sock);
            for _ in 0..200 {
                if sock_path.exists() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            if !sock_path.exists() {
                return Err(format!("daemon did not bind {sock} within 10s"));
            }
            outln!("histpcd started (pid {}) serving {sock}", child.id());
            Ok(ExitCode::SUCCESS)
        }
        "stop" => {
            let sock = require(&flags, "socket");
            let mut client = Client::new(sock, "cli");
            client
                .expect_ok(&Request::new("shutdown"))
                .map_err(|e| e.to_string())?;
            outln!("{sock}: shutting down");
            Ok(ExitCode::SUCCESS)
        }
        "status" => {
            let sock = require(&flags, "socket");
            let mut client = Client::new(sock, "cli");
            let health = client
                .expect_ok(&Request::new("health"))
                .map_err(|e| e.to_string())?;
            outln!(
                "{sock}: {} (epoch {}, {} active, {} done, {} adopted)",
                health.get("state").unwrap_or("?"),
                health.get("epoch").unwrap_or("?"),
                health.get("active").unwrap_or("?"),
                health.get("done").unwrap_or("?"),
                health.get("adopted").unwrap_or("?"),
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown daemon action {other:?}: want start, stop or status"
        )),
    }
}

/// `histpc supervise`: drives one diagnosis session per listed
/// application concurrently over one shared store, each under the full
/// supervision stack — watchdog, checkpoint auto-resume, degradation
/// ladder — and prints the classified report.
fn cmd_supervise(flags: HashMap<String, String>) -> Result<ExitCode, String> {
    let store_dir = require(&flags, "store");
    let apps: Vec<&str> = require(&flags, "apps")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if apps.is_empty() {
        return Err("--apps wants a comma-separated application list".into());
    }
    let mut specs = apps
        .iter()
        .map(|app| run_spec(&flags, app))
        .collect::<Result<Vec<_>, _>>()?;
    // The specs differ only in app and label, which a config holds
    // neither of.
    let mut config = local_config(&flags, &specs[0])?;
    let sup = supervision_flags(&flags, &mut config);
    let workloads: Vec<Box<dyn Workload + Send + Sync>> = specs
        .iter()
        .map(|spec| build_workload(&spec.app, spec.seed))
        .collect();
    // Two specs can resolve to the same underlying application (e.g.
    // poisson-a and poisson-b are both "poisson"); those sessions must
    // not share a (app, label) record slot, so suffix their labels with
    // the spec that produced them.
    let mut name_counts: HashMap<String, usize> = HashMap::new();
    for w in &workloads {
        *name_counts.entry(w.app_spec().name).or_insert(0) += 1;
    }
    for (spec, w) in specs.iter_mut().zip(&workloads) {
        if name_counts[&w.app_spec().name] > 1 {
            spec.label = format!("{}-{}", spec.label, spec.app);
        }
    }
    let session = Session::with_store(store_dir).map_err(|e| e.to_string())?;
    let drivers: Vec<WorkloadSession> = workloads
        .iter()
        .zip(&specs)
        .map(|(w, spec)| WorkloadSession::new(&session, w.as_ref(), config.clone(), &spec.label))
        .collect();
    let refs: Vec<&dyn SessionDriver> = drivers.iter().map(|d| d as &dyn SessionDriver).collect();
    let report = Supervisor::new(sup).run(&refs);
    Ok(report_supervision(&report))
}

fn cmd_harvest(flags: HashMap<String, String>) -> Result<(), String> {
    let session = Session::with_store(existing_store(require(&flags, "store"))?)
        .map_err(|e| e.to_string())?;
    let mode = flags.get("mode").map(String::as_str).unwrap_or("combined");
    // Session::harvest vets the extraction against the corpus: pairs
    // the store both prunes and prioritizes (HL030) are down-ranked.
    let directives = session
        .harvest(
            require(&flags, "app"),
            require(&flags, "label"),
            &extraction_mode(mode),
        )
        .map_err(|e| e.to_string())?;
    // --provenance annotates each line with its `from source@generation`
    // tag; the default stays byte-identical to the classic format so
    // existing directive files and diffs are unaffected.
    let text = if flags.contains_key("provenance") {
        directives.to_annotated_text()
    } else {
        directives.to_text()
    };
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| e.to_string())?;
            errln!(
                "wrote {} directives ({} prunes, {} priorities, {} thresholds) to {path}",
                directives.len(),
                directives.prunes.len(),
                directives.priorities.len(),
                directives.thresholds.len()
            );
        }
        None => out!("{text}"),
    }
    Ok(())
}

fn cmd_map(flags: HashMap<String, String>) -> Result<(), String> {
    let store = ExecutionStore::open(existing_store(require(&flags, "store"))?)
        .map_err(|e| e.to_string())?;
    let app = require(&flags, "app");
    let from = store
        .load(app, require(&flags, "from"))
        .map_err(|e| e.to_string())?;
    let to = store
        .load(app, require(&flags, "to"))
        .map_err(|e| e.to_string())?;
    let mappings = MappingSet::suggest(&from.resources, &to.resources);
    let text = mappings.to_text();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| e.to_string())?;
            errln!("wrote {} mappings to {path}", mappings.len());
        }
        None => out!("{text}"),
    }
    Ok(())
}

fn cmd_compare(flags: HashMap<String, String>) -> Result<(), String> {
    let store = ExecutionStore::open(existing_store(require(&flags, "store"))?)
        .map_err(|e| e.to_string())?;
    let app = require(&flags, "app");
    let a = store
        .load(app, require(&flags, "from"))
        .map_err(|e| e.to_string())?;
    let b = store
        .load(app, require(&flags, "to"))
        .map_err(|e| e.to_string())?;
    let mappings = MappingSet::suggest(&a.resources, &b.resources);
    let report = history::compare(&a, &b, Some(&mappings));
    out!("{}", report.render());
    Ok(())
}

/// Runs the application raw (no Performance Consultant) and prints its
/// postmortem performance profile — the data a tuning analyst starts
/// from, and the source of derived thresholds.
fn cmd_profile(flags: HashMap<String, String>) -> Result<(), String> {
    let app = require(&flags, "app");
    let secs: f64 = flag(&flags, "for").unwrap_or(30.0);
    let workload = build_workload(app, flag(&flags, "seed"));
    let mut engine = workload.build_engine();
    engine.run_until(histpc::sim::SimTime::ZERO + SimDuration::from_secs_f64(secs));
    let pm = PostmortemData::from_totals(engine.app().clone(), engine.totals());
    out!("{}", pm.render_profile());
    Ok(())
}

/// Prints the stored Search History Graph rendering of a run.
fn cmd_shg(flags: HashMap<String, String>) -> Result<(), String> {
    let store = ExecutionStore::open(existing_store(require(&flags, "store"))?)
        .map_err(|e| e.to_string())?;
    let text = store
        .load_artifact(require(&flags, "app"), require(&flags, "label"), "shg")
        .map_err(|e| e.to_string())?;
    out!("{text}");
    Ok(())
}

fn cmd_ls(flags: HashMap<String, String>) -> Result<(), String> {
    let store_dir = existing_store(require(&flags, "store"))?;
    let store = ExecutionStore::open(store_dir).map_err(|e| e.to_string())?;
    match flags.get("app") {
        Some(app) => {
            for label in store.labels(app).map_err(|e| e.to_string())? {
                let rec = store.load(app, &label).map_err(|e| e.to_string())?;
                outln!(
                    "{label}: version {} — {} outcomes, {} pairs, ended {}",
                    rec.app_version,
                    rec.outcomes.len(),
                    rec.pairs_tested,
                    rec.end_time
                );
            }
        }
        None => {
            for app in store.applications().map_err(|e| e.to_string())? {
                let labels = store.labels(&app).map_err(|e| e.to_string())?;
                outln!("{app}: {} run(s) — {}", labels.len(), labels.join(", "));
            }
        }
    }
    // Surface crash debris: checkpoints whose session never completed
    // (lint code HL034) can be resumed or deleted, but should not be
    // silently forgotten.
    let orphans = store.orphaned_checkpoints().map_err(|e| e.to_string())?;
    let wanted = flags.get("app");
    for (app, label) in orphans {
        if wanted.is_some_and(|w| *w != app) {
            continue;
        }
        outln!(
            "abandoned checkpoint: {app}/{label}.ckpt — interrupted session, \
             never resumed (resume it or delete the artifact; lint HL034)"
        );
    }
    // Likewise daemon debris: a lease whose session left no checkpoint
    // cannot be re-adopted — a restarting `histpcd` will classify it
    // abandoned (lint code HL035).
    let leases = history::lease::orphaned_leases_at(std::path::Path::new(store_dir))
        .map_err(|e| e.to_string())?;
    for (file, why) in leases {
        outln!(
            "orphaned lease: {}/{file} — {why} (a restarting daemon classifies \
             it abandoned; lint HL035)",
            history::lease::LEASE_DIR
        );
    }
    Ok(())
}

/// Statically validates directive/mapping files. Positional arguments
/// are files (kind auto-detected); `--against STORE/APP/LABEL` also
/// cross-checks directive resources against that stored run. Exits
/// non-zero on lint errors, or on warnings under `--deny-warnings`.
fn cmd_lint(args: &[String]) -> Result<ExitCode, String> {
    let corpus_mode = args.first().map(String::as_str) == Some("corpus");
    let (flags, files) = if corpus_mode {
        parse_args("lint corpus", &args[1..])
    } else {
        parse_args("lint", args)
    };
    let deny_warnings = flags.contains_key("deny-warnings");
    let format = format_flag(&flags);

    if corpus_mode {
        let last = flags.get("last").map(|v| match v.parse() {
            Ok(n) if n > 0 => n,
            _ => bad_flag("last", v, ": need a positive number of runs"),
        });
        let [store_dir] = files.as_slice() else {
            return Err("lint corpus wants exactly one store directory".into());
        };
        return cmd_lint_corpus(store_dir, last, deny_warnings, format);
    }
    if files.is_empty() {
        return Err("lint needs at least one file to check".into());
    }

    let record = match flags.get("against") {
        Some(spec) => {
            let mut parts = spec.rsplitn(3, '/');
            let label = parts.next();
            let app = parts.next();
            let store_dir = parts.next();
            let (Some(store_dir), Some(app), Some(label)) = (store_dir, app, label) else {
                return Err(format!("--against wants STORE/APP/LABEL, got {spec:?}"));
            };
            let store =
                ExecutionStore::open(existing_store(store_dir)?).map_err(|e| e.to_string())?;
            Some(store.load(app, label).map_err(|e| e.to_string())?)
        }
        None => None,
    };

    let mut linter = histpc::lint::Linter::new();
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        linter = linter.artifact(text, file.clone());
    }
    if let Some(rec) = &record {
        linter = linter.against(rec);
    }
    let report = linter.run();
    if format == "json" {
        out!("{}", histpc::lint::report_to_json(&report));
    } else if !report.is_clean() {
        err!("{}", report.render(&linter.sources()));
        if let Some(trailer) = histpc::lint::summary(&report.diagnostics) {
            errln!("\n{trailer} emitted");
        }
    }
    let failed = report.has_errors() || (deny_warnings && report.warning_count() > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `histpc lint corpus STORE`: cross-run analysis of a whole store —
/// directive conflicts (HL030), staleness against the last-N runs
/// (HL031, window set by `--last`), threshold drift (HL032), and
/// prune-dominated directives (HL033). Fact extraction is cached in the
/// store's `FACTS` sidecar, so re-analysis only touches changed
/// records.
fn cmd_lint_corpus(
    store_dir: &str,
    last: Option<usize>,
    deny_warnings: bool,
    format: &str,
) -> Result<ExitCode, String> {
    let store = ExecutionStore::open(existing_store(store_dir)?).map_err(|e| e.to_string())?;
    let mut opts = histpc::lint::CorpusOptions::default();
    if let Some(n) = last {
        opts.recent_window = n;
    }
    let analysis = histpc::lint::CorpusAnalyzer::with_options(&store, opts)
        .analyze()
        .map_err(|e| e.to_string())?;
    let report = &analysis.report;
    if format == "json" {
        out!("{}", histpc::lint::report_to_json(report));
    } else if !report.is_clean() {
        // Corpus diagnostics point at store records, not local artifact
        // files; there is no source text to quote under a caret.
        err!("{}", report.render(&histpc::lint::SourceCache::new()));
        if let Some(trailer) = histpc::lint::summary(&report.diagnostics) {
            errln!("\n{trailer} emitted");
        }
    }
    errln!(
        "analyzed {} record(s): {} from fact cache, {} lowered",
        analysis.records,
        analysis.cache_hits,
        analysis.cache_misses
    );
    let failed = report.has_errors() || (deny_warnings && report.warning_count() > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Maintains a history store: `fsck` (read-only check), `repair`
/// (recover + salvage/quarantine), `compact` (reindex + reset journal),
/// `migrate` (upgrade a v0 store in place). Exits non-zero when `fsck`
/// finds errors — or any warning under `--deny-warnings`.
fn cmd_store(args: &[String]) -> Result<ExitCode, String> {
    let Some((action, rest)) = args.split_first() else {
        return Err("store needs an action: fsck, repair, compact, migrate or trust".into());
    };
    let flags = parse_flags(&format!("store {action}"), rest);
    let store_dir = require(&flags, "store");
    let deny_warnings = flags.contains_key("deny-warnings");
    let format = format_flag(&flags);

    if matches!(action.as_str(), "repair" | "compact" | "migrate" | "trust") {
        existing_store(store_dir)?;
    }
    match action.as_str() {
        "fsck" => {
            // Read-only: check the directory as it is, without the
            // recovery that ExecutionStore::open would perform.
            let diags = history::fsck::fsck(std::path::Path::new(store_dir));
            if diags.is_empty() {
                outln!("{store_dir}: clean");
                return Ok(ExitCode::SUCCESS);
            }
            err!(
                "{}",
                histpc::lint::render_all(&diags, &histpc::lint::SourceCache::new())
            );
            if let Some(trailer) = histpc::lint::summary(&diags) {
                errln!("\n{trailer} emitted");
            }
            let has_errors = diags.iter().any(|d| d.is_error());
            // Notes (e.g. "skipped: sidecar") are informational and
            // never fail the check, even under --deny-warnings.
            let has_warnings = diags
                .iter()
                .any(|d| d.severity == histpc::lint::Severity::Warning);
            Ok(if has_errors || (deny_warnings && has_warnings) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "repair" => {
            // Opening the store already performs crash recovery, so count
            // the findings first or the work would be reported as zero.
            let findings = history::fsck::fsck(std::path::Path::new(store_dir)).len();
            let store = ExecutionStore::open(store_dir).map_err(|e| e.to_string())?;
            let notes = store.repair().map_err(|e| e.to_string())?;
            for note in &notes {
                outln!("{note}");
            }
            outln!(
                "{store_dir}: repaired ({findings} finding(s) addressed, {} further action(s))",
                notes.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        "compact" => {
            let store = ExecutionStore::open(store_dir).map_err(|e| e.to_string())?;
            let notes = store.compact().map_err(|e| e.to_string())?;
            for note in &notes {
                outln!("{note}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "migrate" => {
            let store = ExecutionStore::open(store_dir).map_err(|e| e.to_string())?;
            let n = store.migrate().map_err(|e| e.to_string())?;
            outln!("{store_dir}: migrated {n} record(s) to the v1 framed layout");
            Ok(ExitCode::SUCCESS)
        }
        "trust" => {
            let ledger = history::trust::TrustLedger::load(std::path::Path::new(store_dir));
            if format == "json" {
                // The same `histpc-lint-report/v1` JSON envelope the lint
                // commands emit: quarantined sources as HL036 warnings,
                // pinned revocations as HL037 warnings, everything else
                // as notes — one stable schema for all machine readers.
                let mut diags = Vec::new();
                for (source, e) in ledger.sources() {
                    let verdict = ledger.verdict(source);
                    let summary = format!(
                        "trust {}/{} for {source}: {} audit(s) passed, {} failed, \
                         {} conflict(s) charged",
                        e.score,
                        history::trust::FULL_SCORE,
                        e.audits_passed,
                        e.audits_failed,
                        e.conflicts.len()
                    );
                    diags.push(match verdict {
                        history::trust::TrustVerdict::Quarantined => {
                            histpc::lint::Diagnostic::warning(
                                "HL036",
                                format!("{summary} — quarantined, directives withheld"),
                            )
                        }
                        history::trust::TrustVerdict::Downweighted => {
                            histpc::lint::Diagnostic::note(
                                "HL036",
                                format!("{summary} — down-weighted, prunes/thresholds dropped"),
                            )
                        }
                        history::trust::TrustVerdict::Trusted => {
                            histpc::lint::Diagnostic::note("HL036", summary)
                        }
                    });
                    for line in &e.revoked {
                        diags.push(histpc::lint::Diagnostic::warning(
                            "HL037",
                            format!("revoked for {source}: `{line}` (failed its shadow audit)"),
                        ));
                    }
                }
                // Ledger iteration is BTreeMap-ordered, so the report
                // is already deterministic.
                let report = histpc::lint::LintReport { diagnostics: diags };
                out!("{}", histpc::lint::report_to_json(&report));
                return Ok(ExitCode::SUCCESS);
            }
            if ledger.is_empty() {
                outln!("{store_dir}: no trust entries (every source at full trust)");
                return Ok(ExitCode::SUCCESS);
            }
            outln!(
                "{:<40} {:>5}  {:<12} {:>6} {:>6} {:>9} {:>7}",
                "source",
                "score",
                "verdict",
                "passed",
                "failed",
                "conflicts",
                "revoked"
            );
            for (source, e) in ledger.sources() {
                let verdict = match ledger.verdict(source) {
                    history::trust::TrustVerdict::Trusted => "trusted",
                    history::trust::TrustVerdict::Downweighted => "down-weighted",
                    history::trust::TrustVerdict::Quarantined => "quarantined",
                };
                outln!(
                    "{source:<40} {:>5}  {verdict:<12} {:>6} {:>6} {:>9} {:>7}",
                    e.score,
                    e.audits_passed,
                    e.audits_failed,
                    e.conflicts.len(),
                    e.revoked.len()
                );
                for line in &e.revoked {
                    outln!("  revoked: {line}");
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown store action {other:?}: want fsck, repair, compact, migrate or trust"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    let verb = match command.as_str() {
        "run" if rest.iter().any(|a| a == "--remote") => "run --remote",
        other => other,
    };
    let flags = || parse_flags(verb, rest);
    let ok = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    let result = match verb {
        "lint" => cmd_lint(rest),
        "store" => cmd_store(rest),
        "daemon" => cmd_daemon(rest),
        "run --remote" => cmd_run_remote(flags()),
        "run" => cmd_run(flags()),
        "supervise" => cmd_supervise(flags()),
        "harvest" => ok(cmd_harvest(flags())),
        "map" => ok(cmd_map(flags())),
        "compare" => ok(cmd_compare(flags())),
        "profile" => ok(cmd_profile(flags())),
        "shg" => ok(cmd_shg(flags())),
        "ls" => ok(cmd_ls(flags())),
        _ => usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            errln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histpc::supervise::{Outcome as SupOutcome, Rung, SessionReport};

    fn session(label: &str, outcome: SupOutcome) -> SessionReport {
        SessionReport {
            label: label.into(),
            outcome,
            attempts: 1,
            resumes: 0,
            watchdog_barks: 0,
            notes: Vec::new(),
        }
    }

    /// The exit-code precedence is worst-wins: a report with both an
    /// abandoned and a degraded session exits 1 (hard failure), never
    /// 3 — and recovered sessions alone still exit 0.
    #[test]
    fn supervision_exit_codes_are_worst_wins() {
        let ok = SupervisionReport {
            sessions: vec![
                session("a", SupOutcome::Completed),
                session("b", SupOutcome::Recovered { retries: 2 }),
            ],
        };
        assert_eq!(supervision_exit_code(&ok), 0);

        let degraded = SupervisionReport {
            sessions: vec![
                session("a", SupOutcome::Completed),
                session(
                    "b",
                    SupOutcome::Degraded {
                        rung: Rung::HistoryOnly,
                    },
                ),
            ],
        };
        assert_eq!(supervision_exit_code(&degraded), EXIT_DEGRADED);

        let abandoned = SupervisionReport {
            sessions: vec![session(
                "a",
                SupOutcome::Abandoned {
                    reason: "gone".into(),
                },
            )],
        };
        assert_eq!(supervision_exit_code(&abandoned), 1);

        // Mixed: abandoned outranks degraded.
        let mixed = SupervisionReport {
            sessions: vec![
                session(
                    "a",
                    SupOutcome::Degraded {
                        rung: Rung::TopLevelOnly,
                    },
                ),
                session(
                    "b",
                    SupOutcome::Abandoned {
                        reason: "gone".into(),
                    },
                ),
            ],
        };
        assert_eq!(supervision_exit_code(&mixed), 1);
    }
}
