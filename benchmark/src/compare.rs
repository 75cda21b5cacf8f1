//! `histbench compare A.json B.json`: judges the second results file
//! against the first, metric by metric and workload by workload.

use crate::spec::{self, Better, Rule};
use crate::stats;
use crate::suite::{Results, Series};
use std::fmt;

/// How one (workload, metric) pairing came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound, or equal where equality is required.
    Ok,
    /// Worse than the first file by more than the bound, or unequal
    /// where equality is required.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell a change from noise.
    Unresolved,
    /// Informational metric: shown, not judged.
    Info,
    /// Present in only one of the files.
    Missing,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
            Verdict::Missing => "missing",
        })
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median over the first file's repeats.
    pub a: Option<f64>,
    /// Median over the second file's repeats.
    pub b: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric. `Exact` metrics compare repeat by repeat (repeat
/// `r` of both files ran the same seed); bounded ones compare medians,
/// and give way to `Unresolved` when either side's interquartile spread
/// exceeds the bound — unless every run of `b` beats every run of `a`.
pub fn judge(rule: Rule, better: Better, a: &Series, b: &Series) -> Verdict {
    match rule {
        Rule::Info => Verdict::Info,
        Rule::Exact => {
            if a.values == b.values {
                Verdict::Ok
            } else {
                Verdict::Regressed
            }
        }
        Rule::Bound(bound) => {
            let (Some(ma), Some(mb)) = (a.median(), b.median()) else {
                return Verdict::Missing;
            };
            let worse_by = match better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let spread = [a, b]
                .iter()
                .filter_map(|s| stats::relative_spread(&s.values))
                .fold(0.0, f64::max);
            let b_always_better = match better {
                Better::Lower => max(&b.values) < min(&a.values),
                Better::Higher => min(&b.values) > max(&a.values),
            };
            if spread > bound && !b_always_better {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Compares two result sets; one row per (workload, metric) present in
/// either, in workload then metric order.
pub fn compare(a: &Results, b: &Results) -> Vec<Row> {
    let mut rows = Vec::new();
    let empty = Default::default();
    let workloads: std::collections::BTreeSet<&String> =
        a.workloads.keys().chain(b.workloads.keys()).collect();
    for w in workloads {
        let ma = a.workloads.get(w).unwrap_or(&empty);
        let mb = b.workloads.get(w).unwrap_or(&empty);
        let metrics: std::collections::BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
        for m in metrics {
            let (sa, sb) = (ma.get(m), mb.get(m));
            let verdict = match (sa, sb, spec::metric(m)) {
                (Some(sa), Some(sb), Some(def)) => judge(def.rule, def.better, sa, sb),
                (Some(_), Some(_), None) => Verdict::Info,
                _ => Verdict::Missing,
            };
            rows.push(Row {
                workload: w.clone(),
                metric: m.clone(),
                a: sa.and_then(Series::median),
                b: sb.and_then(Series::median),
                verdict,
            });
        }
    }
    rows
}

/// Prints the rows and returns true when none regressed or went missing.
pub fn report(rows: &[Row]) -> bool {
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    for r in rows {
        println!(
            "{:<18} {:<34} {:>16} {:>16}  {}",
            r.workload,
            r.metric,
            show(r.a),
            show(r.b),
            r.verdict
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved, {} missing, {} informational",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Missing),
        count(Verdict::Info),
    );
    count(Verdict::Regressed) == 0 && count(Verdict::Missing) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> Series {
        Series {
            unit: String::new(),
            n: 1,
            values: values.to_vec(),
        }
    }

    #[test]
    fn bounded_metrics_compare_medians_in_their_direction() {
        let rule = Rule::Bound(0.10);
        let a = series(&[100.0, 101.0, 99.0]);
        assert_eq!(
            judge(rule, Better::Lower, &a, &series(&[108.0, 109.0, 107.0])),
            Verdict::Ok
        );
        assert_eq!(
            judge(rule, Better::Lower, &a, &series(&[112.0, 113.0, 111.0])),
            Verdict::Regressed
        );
        // For a rate, lower is the bad direction.
        assert_eq!(
            judge(rule, Better::Higher, &a, &series(&[88.0, 89.0, 87.0])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(rule, Better::Higher, &a, &series(&[150.0, 151.0, 149.0])),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_wins_every_run() {
        let rule = Rule::Bound(0.10);
        let noisy = series(&[80.0, 100.0, 120.0, 140.0]);
        assert_eq!(
            judge(
                rule,
                Better::Lower,
                &noisy,
                &series(&[100.0, 110.0, 120.0, 130.0])
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                rule,
                Better::Lower,
                &noisy,
                &series(&[50.0, 60.0, 70.0, 75.0])
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_metrics_compare_repeat_by_repeat() {
        let a = series(&[324.0, 326.5]);
        assert_eq!(
            judge(Rule::Exact, Better::Lower, &a, &a.clone()),
            Verdict::Ok
        );
        // Same median, different runs: still a change.
        assert_eq!(
            judge(Rule::Exact, Better::Lower, &a, &series(&[326.5, 324.0])),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_metric_in_one_file_only_is_missing() {
        let mut a = Results::default();
        a.workloads
            .entry("unguided_d".into())
            .or_default()
            .insert("op_ms_p50".into(), series(&[1.0]));
        let rows = compare(&a, &Results::default());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Missing);
        assert!(!report(&rows));
    }
}
