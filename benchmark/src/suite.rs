//! The whole benchmark in one go: every workload in a fresh process,
//! an untraced pass and then a traced pass, results gathered into one
//! file that `histbench compare` can read.

use crate::json::Json;
use crate::spec;
use crate::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Schema tag of the results file.
pub const RESULTS_SCHEMA: &str = "histbench-results/v1";

/// One metric of one workload across the suite's repeats.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    /// Unit as printed.
    pub unit: String,
    /// Samples behind the last repeat's value.
    pub n: usize,
    /// One value per repeat, in repeat order (repeat `r` ran with seed
    /// `seed + r`).
    pub values: Vec<f64>,
}

impl Series {
    /// The median over repeats.
    pub fn median(&self) -> Option<f64> {
        stats::median(&self.values)
    }
}

/// Everything a suite run measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Results {
    /// Seed of the first repeat.
    pub seed: u64,
    /// Seconds each untraced run measured.
    pub seconds: f64,
    /// Workload name to metric name to series.
    pub workloads: BTreeMap<String, BTreeMap<String, Series>>,
}

impl Results {
    /// Serializes to the results-file document.
    pub fn to_json(&self) -> Json {
        let workloads = self.workloads.iter().map(|(w, metrics)| {
            let metrics = metrics.iter().map(|(m, s)| {
                let values = s.values.iter().map(|&v| Json::Num(v)).collect();
                let series = Json::obj([
                    ("unit", Json::Str(s.unit.clone())),
                    ("n", Json::Num(s.n as f64)),
                    ("values", Json::Arr(values)),
                ]);
                (m.clone(), series)
            });
            (w.clone(), Json::obj(metrics))
        });
        Json::obj([
            ("schema", Json::Str(RESULTS_SCHEMA.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("workloads", Json::obj(workloads)),
        ])
    }

    /// Parses a results-file document.
    pub fn from_json(doc: &Json) -> Result<Results, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(RESULTS_SCHEMA) {
            return Err(format!("not a {RESULTS_SCHEMA} document"));
        }
        let num = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number {key:?}"))
        };
        let mut out = Results {
            seed: num(doc, "seed")? as u64,
            seconds: num(doc, "seconds")?,
            workloads: BTreeMap::new(),
        };
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("missing workloads")?;
        for (w, metrics) in workloads {
            let slot = out.workloads.entry(w.clone()).or_default();
            for (m, series) in metrics.as_obj().ok_or("workload is not an object")? {
                let values = series
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("{w}.{m}: missing values"))?
                    .iter()
                    .map(|v| v.as_f64().ok_or_else(|| format!("{w}.{m}: bad value")))
                    .collect::<Result<_, _>>()?;
                slot.insert(
                    m.clone(),
                    Series {
                        unit: series
                            .get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        n: num(series, "n")? as usize,
                        values,
                    },
                );
            }
        }
        Ok(out)
    }

    /// Reads a results file.
    pub fn load(path: &Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text)
            .and_then(|doc| Results::from_json(&doc))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Arguments of a suite run.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed of the first repeat; repeat `r` uses `seed + r`.
    pub seed: u64,
    /// Seconds each untraced run measures; traced runs measure a quarter.
    pub seconds: f64,
    /// How many times the two passes are repeated.
    pub repeats: usize,
    /// Pass `--quick` to every run.
    pub quick: bool,
    /// Scratch, trace and detail files go here.
    pub out_dir: PathBuf,
    /// Where the results file is written.
    pub results: PathBuf,
}

/// Runs one workload in a child process and returns its detail
/// document. The child's metric lines are passed through to stdout.
fn run_child(
    exe: &Path,
    suite: &SuiteArgs,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<Json, String> {
    let detail = suite
        .out_dir
        .join(format!("detail-{workload}-{}.json", u8::from(trace)));
    let _ = std::fs::remove_file(&detail);
    let seconds = if trace {
        suite.seconds / 4.0
    } else {
        suite.seconds
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&suite.out_dir)
        .arg("--detail")
        .arg(&detail)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if suite.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop(); // the contract JSON line; the detail file says more
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} (trace {trace}): {}", output.status));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

/// Runs the suite, writes the results file, and returns whether every
/// run was correct.
pub fn run_suite(suite: &SuiteArgs, exe: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(&suite.out_dir).map_err(|e| e.to_string())?;
    let mut results = Results {
        seed: suite.seed,
        seconds: suite.seconds,
        workloads: BTreeMap::new(),
    };
    let mut all_correct = true;
    for repeat in 0..suite.repeats.max(1) {
        let seed = suite.seed + repeat as u64;
        for trace in [false, true] {
            for w in spec::WORKLOADS {
                let detail = run_child(exe, suite, w.name, seed, trace)?;
                if detail.get("correct") != Some(&Json::Bool(true)) {
                    all_correct = false;
                    let failures = detail.get("failures").map(Json::render).unwrap_or_default();
                    eprintln!("{} (seed {seed}, trace {trace}) FAILED: {failures}", w.name);
                }
                let slot = results.workloads.entry(w.name.to_string()).or_default();
                let metrics = detail
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .ok_or("detail without metrics")?;
                for (name, m) in metrics {
                    // End-to-end figures come from the untraced run and
                    // per-layer ones from the traced run; what either
                    // run reports of the other kind is for the driver.
                    let per_layer = spec::PER_LAYER.iter().any(|d| d.name == name);
                    if trace != per_layer {
                        continue;
                    }
                    let series = slot.entry(name.clone()).or_default();
                    series.unit = m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string();
                    series.n = m.get("n").and_then(Json::as_f64).unwrap_or(1.0) as usize;
                    series
                        .values
                        .push(m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN));
                }
            }
        }
    }
    std::fs::write(&suite.results, results.to_json().render_pretty())
        .map_err(|e| format!("{}: {e}", suite.results.display()))?;
    println!("results written to {}", suite.results.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_round_trip_through_json() {
        let mut r = Results {
            seed: 3,
            seconds: 10.0,
            workloads: BTreeMap::new(),
        };
        r.workloads.entry("unguided_d".into()).or_default().insert(
            "op_ms_p50".into(),
            Series {
                unit: "ms".into(),
                n: 5,
                values: vec![2142.339144, 2201.5, 2188.0625],
            },
        );
        r.workloads.entry("unguided_d".into()).or_default().insert(
            "sim.events".into(),
            Series {
                unit: "count".into(),
                n: 1,
                values: vec![43_948_140.0; 3],
            },
        );
        let text = r.to_json().render_pretty();
        let back = Results::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            back.workloads["unguided_d"]["op_ms_p50"].median(),
            Some(2188.0625)
        );
    }

    #[test]
    fn foreign_documents_are_refused() {
        let doc = Json::obj([("schema", Json::Str("something-else/v1".into()))]);
        assert!(Results::from_json(&doc).is_err());
    }
}
