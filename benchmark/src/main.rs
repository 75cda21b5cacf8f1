//! `histbench` command line.
//!
//! ```text
//! histbench --workload W --seed N --seconds S --trace 0|1 [--quick]
//!           [--out-dir DIR] [--detail FILE]
//! histbench [suite] [--seed N] [--seconds S] [--repeats R] [--quick]
//!           [--out-dir DIR] [--results FILE]
//! histbench compare A.json B.json
//! histbench spec
//! ```
//!
//! With `--workload` it runs that one workload and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics for `--trace 0`, the
//! per-layer ones for `--trace 1`. Without it, it runs the suite: every
//! workload in a process of its own, untraced then traced.

use histbench::compare;
use histbench::run::{RunArgs, RunOutput};
use histbench::spec;
use histbench::suite::{self, Results, SuiteArgs};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  histbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR] [--detail FILE]
  histbench [suite] [--seed N] [--seconds S] [--repeats R] [--quick] [--out-dir DIR] [--results FILE]
  histbench compare A.json B.json
  histbench spec        (prints the BENCHMARK.json these sources imply)";

/// Where scratch stores, sockets, traces and results go: `benchmark/out`
/// when run from the repo root (a short relative path keeps the daemon's
/// socket within the length limit of a Unix socket address), else `out`
/// beside this crate's manifest.
fn default_out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Splits `--key value` pairs and bare `--flag`s from positional words.
fn parse(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    const BARE: &[&str] = &["quick"];
    let mut flags = HashMap::new();
    let mut words = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(key) if BARE.contains(&key) => {
                flags.insert(key.to_string(), String::new());
            }
            Some(key) => {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.insert(key.to_string(), value.clone());
            }
            None => words.push(arg.clone()),
        }
    }
    Ok((flags, words))
}

fn number<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        None => Ok(default),
    }
}

fn print_metric_lines(workload: &str, out: &RunOutput) {
    for m in &out.metrics {
        let unit = spec::metric(m.name).map_or("", |d| d.unit);
        println!("{workload} {} {} {unit} {}", m.name, m.value, m.n);
    }
}

fn run_one(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: flags["workload"].clone(),
        seed: number(flags, "seed", 1)?,
        seconds: number(flags, "seconds", f64::from(spec::RUN_SECONDS))?,
        trace: match flags.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
        },
        quick: flags.contains_key("quick"),
        out_dir: flags
            .get("out-dir")
            .map_or_else(default_out_dir, PathBuf::from),
    };
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("bad --seconds {}", args.seconds));
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let out = histbench::run_workload(&args)?;

    print_metric_lines(&args.workload, &out);
    for note in &out.notes {
        eprintln!("note: {note}");
    }
    for failure in &out.failures {
        eprintln!("FAILED: {failure}");
    }
    if let Some(path) = flags.get("detail") {
        std::fs::write(path, out.detail_json().render_pretty())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{}",
        out.contract_json(&histbench::contract_metrics(args.trace))
            .render()
    );
    Ok(ExitCode::SUCCESS)
}

fn run_suite(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let out_dir = flags
        .get("out-dir")
        .map_or_else(default_out_dir, PathBuf::from);
    let args = SuiteArgs {
        seed: number(flags, "seed", 1)?,
        seconds: number(flags, "seconds", f64::from(spec::RUN_SECONDS))?,
        repeats: number(flags, "repeats", 1)?,
        quick: flags.contains_key("quick"),
        results: flags
            .get("results")
            .map_or_else(|| out_dir.join("results.json"), PathBuf::from),
        out_dir,
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(if suite::run_suite(&args, &exe)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(words: &[String]) -> Result<ExitCode, String> {
    let [a, b] = words else {
        return Err("compare takes two results files".into());
    };
    let rows = compare::compare(&Results::load(Path::new(a))?, &Results::load(Path::new(b))?);
    Ok(if compare::report(&rows) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(flags, words)| match words.first().map(String::as_str) {
        Some("compare") => run_compare(&words[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        None | Some("suite") if !flags.contains_key("workload") => run_suite(&flags),
        None => run_one(&flags),
        Some(other) => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("histbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
