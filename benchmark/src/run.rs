//! What every workload shares: arguments, the scratch directory, the
//! repeated set-up, the time-boxed closed loop, and the result a run
//! prints.

use crate::json::Json;
use crate::spec;
use crate::stats;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (one of [`spec::WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
    /// Tiny sizes and the `tester` app everywhere: exercises every
    /// workload and oracle in a few seconds, measures nothing useful.
    pub quick: bool,
    /// Directory for scratch stores, sockets and trace files.
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// How many times set-up runs; `setup_s` is the median.
    pub fn setup_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// A seed for input stream `stream` of this run, so that distinct
    /// inputs of one run (and of neighbouring `--seed` values) do not
    /// share a random stream.
    pub fn derive_seed(&self, stream: u64) -> u64 {
        // SplitMix64 finalizer over (seed, stream).
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Fewest timed ops a loop makes, however short `--seconds` is.
pub const MIN_OPS: usize = 3;

/// A directory under `out_dir/scratch` that is removed when dropped.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates (after wiping any leftover) the run's scratch directory.
    pub fn create(args: &RunArgs) -> Result<Scratch, String> {
        let root =
            args.out_dir
                .join("scratch")
                .join(format!("{}-{}", args.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    /// A fresh, empty subdirectory `name` (wiped if it exists).
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Runs `setup` `repeats` times, dropping each state before building
/// the next, and returns the last state with the median set-up time in
/// seconds.
pub fn repeat_setup<S>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one set-up ran");
    Ok((state.expect("at least one set-up ran"), median))
}

/// Times `f`, returning its result and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// The outcome of a timed closed loop.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// Wall milliseconds of each op that completed and passed its oracle.
    pub op_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed their oracle.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Wall seconds the generator spent inside ops. A loop with several
    /// concurrent clients sets this to the loop's wall time instead.
    pub wall_s: f64,
}

impl Timed {
    /// Records one op's outcome.
    pub fn record(&mut self, outcome: Result<f64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(ms) => self.op_ms.push(ms),
            Err(msg) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(msg);
                }
            }
        }
    }

    /// Folds another client's loop into this one (ops and failures
    /// add up; the wall is the caller's to set).
    pub fn merge(&mut self, other: Timed) {
        self.op_ms.extend(other.op_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }
}

/// The closed loop of one client: issues the next op only when the
/// previous one has returned, until `seconds` have passed and at least
/// [`MIN_OPS`] ops were attempted. `op` returns the milliseconds it
/// measured for itself (so untimed oracle work is left out) or why it
/// failed.
pub fn timed_loop(seconds: f64, mut op: impl FnMut(usize) -> Result<f64, String>) -> Timed {
    let mut out = Timed::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds || i < MIN_OPS {
        let outcome = op(i);
        if let Ok(ms) = &outcome {
            out.wall_s += ms / 1e3;
        }
        out.record(outcome);
        i += 1;
    }
    out
}

/// One measured value; its unit and direction come from [`spec`].
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// The value, with every digit measured.
    pub value: f64,
    /// Samples behind the value (1 for a single reading or a count).
    pub n: usize,
}

impl Measured {
    /// A single reading or a count.
    pub fn one(name: &'static str, value: f64) -> Measured {
        Measured { name, value, n: 1 }
    }

    /// The median of `samples` (0 with `n` = 0 when there are none).
    pub fn median_of(name: &'static str, samples: &[f64]) -> Measured {
        Measured {
            name,
            value: stats::median(samples).unwrap_or(0.0),
            n: samples.len(),
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Ops attempted in the timed loop.
    pub attempted: u64,
    /// Ops that errored or failed their oracle.
    pub failed: u64,
    /// Run-level oracle failures (end-of-run checks) and the first few
    /// op failures; non-empty means the run is not correct.
    pub failures: Vec<String>,
    /// Measured metrics.
    pub metrics: Vec<Measured>,
    /// Remarks for the reader (a metric that could not be read, ...).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// True when every op passed and no end-of-run oracle failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Adds or replaces a metric.
    pub fn set(&mut self, m: Measured) {
        match self.metrics.iter_mut().find(|x| x.name == m.name) {
            Some(slot) => *slot = m,
            None => self.metrics.push(m),
        }
    }

    /// The value of metric `name`, if measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Takes the op counts and failures of a timed loop.
    pub fn absorb(&mut self, timed: &Timed) {
        self.attempted += timed.attempted;
        self.failed += timed.failed;
        self.failures.extend(timed.failures.iter().cloned());
    }

    /// The end-to-end metrics of an untraced run: the four every
    /// workload reports plus `op_ms_p90` (with enough ops) and
    /// `failed_op_share`.
    pub fn set_end_to_end(&mut self, setup_s: f64, timed: &Timed) {
        self.absorb(timed);
        self.set(Measured::one("setup_s", setup_s));
        self.set(Measured::median_of("op_ms_p50", &timed.op_ms));
        let rate = if timed.wall_s > 0.0 {
            timed.op_ms.len() as f64 / timed.wall_s
        } else {
            0.0
        };
        self.set(Measured {
            name: "ops_per_s",
            value: rate,
            n: timed.op_ms.len(),
        });
        self.set(Measured::one("peak_rss_mb", peak_rss_mb().unwrap_or(0.0)));
        self.set_partial_end_to_end(timed);
    }

    /// `op_ms_p90` and `failed_op_share` from a loop of untraced ops.
    pub fn set_partial_end_to_end(&mut self, timed: &Timed) {
        if let Some(p90) = stats::p90(&timed.op_ms) {
            self.set(Measured {
                name: "op_ms_p90",
                value: p90,
                n: timed.op_ms.len(),
            });
        }
        self.set(Measured {
            name: "failed_op_share",
            value: timed.failed as f64 / timed.attempted.max(1) as f64,
            n: timed.attempted as usize,
        });
    }

    /// `trace_overhead_pct`: the traced ops' median against the untraced
    /// ops' of the same run.
    pub fn set_trace_overhead(&mut self, traced: &Timed, plain: &Timed) {
        if let (Some(t), Some(p)) = (stats::median(&traced.op_ms), stats::median(&plain.op_ms)) {
            self.set(Measured {
                name: "trace_overhead_pct",
                value: (t / p - 1.0) * 100.0,
                n: traced.op_ms.len(),
            });
        }
    }

    /// `history.store_bytes` and `store_bytes_per_record` of the store
    /// under `root`, which holds `records` records.
    pub fn set_store_size(&mut self, root: &Path, records: usize) {
        let bytes = dir_bytes(root);
        self.set(Measured::one("history.store_bytes", bytes as f64));
        self.set(Measured {
            name: "store_bytes_per_record",
            value: bytes as f64 / records.max(1) as f64,
            n: records,
        });
    }

    /// The object printed as the last line of standard output: exactly
    /// the metrics of `listed`, a listed metric this run did not
    /// measure reading 0.
    pub fn contract_json(&self, listed: &[&spec::MetricDef]) -> Json {
        let metrics = listed.iter().map(|def| {
            let value = self.value(def.name).unwrap_or(0.0);
            (
                def.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(def.unit.into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The full detail the suite stores: every measured metric with its
    /// unit and sample count, plus notes and failures.
    pub fn detail_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let unit = spec::metric(m.name).map_or("", |d| d.unit);
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(unit.into())),
                    ("n", Json::Num(m.n as f64)),
                ]),
            )
        });
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failures", strings(&self.failures)),
            ("notes", strings(&self.notes)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// The number after `key:` in a `/proc` status-style text.
fn proc_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    proc_field(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// `(wchar, syscw)` of this process: bytes passed to write calls and the
/// number of write calls so far. `None` where `/proc/self/io` is not
/// readable.
pub fn write_counters() -> Option<(u64, u64)> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    Some((proc_field(&io, "wchar")?, proc_field(&io, "syscw")?))
}

/// Total size in bytes of the regular files under `root`.
pub fn dir_bytes(root: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_loop_makes_the_minimum_ops_and_counts_failures() {
        let t = timed_loop(0.0, |i| if i == 1 { Err("boom".into()) } else { Ok(1.5) });
        assert_eq!((t.attempted, t.failed), (MIN_OPS as u64, 1));
        assert_eq!(t.op_ms, vec![1.5; MIN_OPS - 1]);
        assert_eq!(t.failures, vec!["boom".to_string()]);
    }

    #[test]
    fn repeat_setup_reports_the_median_and_keeps_the_last_state() {
        let mut built = 0;
        let (state, secs) = repeat_setup(3, || {
            built += 1;
            Ok(built)
        })
        .unwrap();
        assert_eq!(state, 3);
        assert!(secs >= 0.0);
    }

    #[test]
    fn contract_json_lists_exactly_the_requested_metrics() {
        let mut out = RunOutput::default();
        let timed = Timed {
            op_ms: vec![2.0, 4.0, 6.0],
            attempted: 3,
            failed: 0,
            failures: vec![],
            wall_s: 0.012,
        };
        out.set_end_to_end(0.5, &timed);
        let listed: Vec<&spec::MetricDef> = spec::END_TO_END.iter().collect();
        let doc = out.contract_json(&listed);
        let names: Vec<&str> = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["setup_s", "op_ms_p50", "ops_per_s", "peak_rss_mb"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&Json::Num(3.0)));
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("op_ms_p50")
                .unwrap()
                .get("value"),
            Some(&Json::Num(4.0))
        );
        assert_eq!(out.value("ops_per_s"), Some(250.0));
        // Three ops are too few for a 90th percentile.
        assert_eq!(out.value("op_ms_p90"), None);
        assert_eq!(out.value("failed_op_share"), Some(0.0));
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_by_seed() {
        let args = |seed| RunArgs {
            workload: "w".into(),
            seed,
            seconds: 1.0,
            trace: false,
            quick: true,
            out_dir: PathBuf::new(),
        };
        assert_ne!(args(1).derive_seed(0), args(1).derive_seed(1));
        assert_ne!(args(1).derive_seed(0), args(2).derive_seed(0));
        assert_eq!(args(7).derive_seed(3), args(7).derive_seed(3));
    }
}
