//! The benchmark's names: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repo root states the same
//! thing for the driver; a unit test keeps the two in step.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `histbench compare` judges a metric between two result files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// May worsen by at most this share of the first file's median.
    Bound(f64),
    /// Must be equal run for run: a count, or simulated time.
    Exact,
    /// Informational timing: printed, never judged.
    Info,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Comparison rule.
    pub rule: Rule,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        rule: Rule::Info,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        rule: Rule::Exact,
    }
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, b: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        rule: Rule::Bound(b),
    }
}

/// One workload and the reason it exists (the `why` of `BENCHMARK.json`).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses and what must not move it.
    pub why: &'static str,
    /// Metrics beyond [`END_TO_END`] that its ops really exercise: the
    /// traced run must measure each of these, and a run that does not is
    /// incorrect. Every other per-layer metric reads 0 on this workload.
    pub owes: &'static [&'static [&'static str]],
    /// Listed in `BENCHMARK.json` for the driver. A workload whose
    /// timings cannot repeat within any admissible bound on the
    /// sandbox's disk stays in the suite but out of that list.
    pub driver: bool,
}

/// Owed by every workload that runs a diagnosis through the hand-driven
/// loop.
const OWES_DIAGNOSIS: &[&str] = &[
    "time_to_last_bottleneck_sim_s",
    "sim.build_engine_ms",
    "sim.run_until_ms",
    "sim.events",
    "sim.events_per_s",
    "sim.sim_seconds",
    "instr.drain_ms",
    "instr.ingest_ms",
    "instr.perturb_ms",
    "instr.postmortem_ms",
    "instr.samples_ingested",
    "consultant.tick_ms",
    "consultant.ticks",
    "consultant.report_ms",
    "consultant.pairs_tested",
    "consultant.true_per_pair",
    "history.record_build_ms",
    "core.diagnose_ms_p50",
    "core.session_glue_ms",
    "trace_overhead_pct",
];

/// The seven workloads, in the order the suite runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "unguided_d",
        why: "Session::diagnose of Poisson D, no directives, no store: sim ~75%, instr ingest ~17%; an engine or ingest gain shows here, a history-layer one must not",
        owes: &[OWES_DIAGNOSIS],
        driver: true,
    },
    WorkloadDef {
        name: "guided_d",
        why: "the paper's tuning cycle on Poisson D: harvest from a stored base run, diagnose with those directives, save; directives, lint preflight, harvest and save all block the op",
        owes: &[
            OWES_DIAGNOSIS,
            &[
                "store_bytes_per_record",
                "lint.preflight_ms",
                "core.harvest_ms_p50",
                "core.directives_harvested",
                "history.save_ms_p50",
                "history.save_artifact_ms_p50",
                "history.extract_ms",
                "history.store_bytes",
            ],
        ],
        driver: true,
    },
    WorkloadDef {
        name: "ocean_search",
        why: "Session::diagnose of ocean: ~1000 pairs over few engine events, so consultant tick/SHG/report dominate and sim is under a third; per-decision costs show here first",
        owes: &[
            OWES_DIAGNOSIS,
            &["core.cli_run_ms_p50", "core.cli_overhead_ms"],
        ],
        driver: true,
    },
    WorkloadDef {
        name: "overload_d",
        why: "Session::diagnose_faulted of Poisson D under a 5x sample flood with admission control: the only workload on the faulted drive loop, where shedding does most of the work",
        owes: &[
            OWES_DIAGNOSIS,
            &[
                "instr.samples_shed",
                "instr.shed_share",
                "instr.breaker_opens",
                "instr.peak_in_flight",
                "consultant.drive_ms",
            ],
        ],
        driver: true,
    },
    WorkloadDef {
        name: "corpus_1k_harvest",
        why: "Session::harvest against an unchanged 1000-record store with a warm FACTS cache: read side of history+lint at realistic size, the target for caching or indexing",
        owes: &[&[
            "store_bytes_per_record",
            "core.harvest_ms_p50",
            "core.directives_harvested",
            "history.load_ms_p50",
            "history.load_all_ms",
            "history.extract_ms",
            "history.open_ms",
            "history.store_bytes",
            "lint.corpus_cold_ms",
            "lint.corpus_incremental_ms",
            "lint.corpus_warm_ms",
            "lint.facts_cache_hits",
        ]],
        driver: true,
    },
    WorkloadDef {
        name: "corpus_1k_ingest",
        why: "save + shg artifact + ckpt delete + load on a 1000-record store, with periodic compact: write side of history; a read gain bought with heavier writes shows here",
        owes: &[&[
            "store_bytes_per_record",
            "history.save_ms_p50",
            "history.save_artifact_ms_p50",
            "history.load_ms_p50",
            "history.open_ms",
            "history.compact_ms",
            "history.fsck_ms",
            "history.store_bytes",
            "trace_overhead_pct",
        ]],
        driver: false,
    },
    WorkloadDef {
        name: "daemon_fleet",
        why: "two clients doing start/attach/report of tester sessions against an in-process histpcd over its Unix socket: wire codec, leases, supervision and slot contention",
        owes: &[&[
            "store_bytes_per_record",
            "history.store_bytes",
            "supervise.run_ms_p50",
            "supervise.overhead_ms",
            "daemon.boot_ms",
            "daemon.start_rtt_ms_p50",
            "daemon.attach_wait_ms_p50",
            "daemon.report_rtt_ms_p50",
            "daemon.health_rtt_ms_p50",
            "daemon.inprocess_ms_p50",
            "daemon.overhead_ms",
            "daemon.guided_cycle_ms",
            "daemon.shutdown_ms",
            "trace_overhead_pct",
        ]],
        driver: true,
    },
];

/// End-to-end metrics every workload reports from its untraced run;
/// these are the `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    bounded("setup_s", "s", Better::Lower, 0.25),
    bounded("op_ms_p50", "ms", Better::Lower, 0.25),
    bounded("ops_per_s", "1/s", Better::Higher, 0.25),
    bounded("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// End-to-end metrics that apply to some workloads only, or can be
/// zero, and so cannot sit in `BENCHMARK.json`'s `end_to_end` list
/// (which every workload must report, never as 0). The suite reports
/// them where they apply and `histbench compare` enforces their rules;
/// the driver sees them among the per-layer metrics.
pub const END_TO_END_PARTIAL: &[MetricDef] = &[
    bounded("op_ms_p90", "ms", Better::Lower, 0.25),
    count("failed_op_share", "ratio", Better::Lower),
    count("time_to_last_bottleneck_sim_s", "s", Better::Lower),
    // Exact but for journal and manifest bookkeeping, whose size depends
    // on how many ops fitted in the window.
    bounded("store_bytes_per_record", "bytes", Better::Lower, 0.01),
];

/// Per-layer metrics from the traced run. A workload whose ops never
/// enter a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // sim
    timing("sim.build_engine_ms", "ms"),
    timing("sim.run_until_ms", "ms"),
    count("sim.events", "count", Better::Lower),
    MetricDef {
        name: "sim.events_per_s",
        unit: "1/s",
        better: Better::Higher,
        rule: Rule::Info,
    },
    count("sim.sim_seconds", "s", Better::Lower),
    // instr
    timing("instr.drain_ms", "ms"),
    timing("instr.ingest_ms", "ms"),
    timing("instr.perturb_ms", "ms"),
    timing("instr.postmortem_ms", "ms"),
    count("instr.samples_ingested", "count", Better::Lower),
    count("instr.samples_shed", "count", Better::Lower),
    count("instr.shed_share", "ratio", Better::Lower),
    count("instr.breaker_opens", "count", Better::Lower),
    count("instr.peak_in_flight", "count", Better::Lower),
    // consultant
    timing("consultant.tick_ms", "ms"),
    count("consultant.ticks", "count", Better::Lower),
    timing("consultant.report_ms", "ms"),
    count("consultant.pairs_tested", "count", Better::Lower),
    count("consultant.true_per_pair", "ratio", Better::Higher),
    timing("consultant.drive_ms", "ms"),
    // history
    timing("history.record_build_ms", "ms"),
    timing("history.save_ms_p50", "ms"),
    timing("history.save_artifact_ms_p50", "ms"),
    timing("history.load_ms_p50", "ms"),
    timing("history.load_all_ms", "ms"),
    timing("history.extract_ms", "ms"),
    timing("history.open_ms", "ms"),
    timing("history.compact_ms", "ms"),
    timing("history.fsck_ms", "ms"),
    // Byte totals move by a few bytes with the manifest's generation
    // counter and with how many ops fitted in the window: shown, not
    // held to equality. The syscall count is exact.
    MetricDef {
        name: "history.write_bytes_per_save",
        unit: "bytes",
        better: Better::Lower,
        rule: Rule::Info,
    },
    count("history.write_syscalls_per_save", "count", Better::Lower),
    MetricDef {
        name: "history.store_bytes",
        unit: "bytes",
        better: Better::Lower,
        rule: Rule::Info,
    },
    // lint
    timing("lint.preflight_ms", "ms"),
    timing("lint.corpus_cold_ms", "ms"),
    timing("lint.corpus_incremental_ms", "ms"),
    timing("lint.corpus_warm_ms", "ms"),
    count("lint.facts_cache_hits", "count", Better::Higher),
    count("lint.facts_cache_misses", "count", Better::Lower),
    count("lint.findings", "count", Better::Lower),
    // core
    timing("core.diagnose_ms_p50", "ms"),
    timing("core.harvest_ms_p50", "ms"),
    timing("core.session_glue_ms", "ms"),
    count("core.directives_harvested", "count", Better::Higher),
    timing("core.cli_run_ms_p50", "ms"),
    timing("core.cli_overhead_ms", "ms"),
    // supervise
    timing("supervise.run_ms_p50", "ms"),
    timing("supervise.overhead_ms", "ms"),
    // daemon
    timing("daemon.boot_ms", "ms"),
    timing("daemon.start_rtt_ms_p50", "ms"),
    timing("daemon.attach_wait_ms_p50", "ms"),
    timing("daemon.report_rtt_ms_p50", "ms"),
    timing("daemon.health_rtt_ms_p50", "ms"),
    timing("daemon.inprocess_ms_p50", "ms"),
    timing("daemon.overhead_ms", "ms"),
    MetricDef {
        name: "daemon.busy_retries",
        unit: "count",
        better: Better::Lower,
        // Depends on how two client threads interleave.
        rule: Rule::Info,
    },
    timing("daemon.guided_cycle_ms", "ms"),
    timing("daemon.shutdown_ms", "ms"),
    // every layer
    timing("trace_overhead_pct", "%"),
];

/// Seconds one run measures when the driver runs it (`run_seconds`).
pub const RUN_SECONDS: u32 = 12;

/// The `BENCHMARK.json` document these tables imply
/// (`histbench spec > BENCHMARK.json` regenerates the file).
pub fn benchmark_json() -> Json {
    let strings = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str((*s).into())).collect());
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.word().into())),
        ];
        if let Rule::Bound(b) = m.rule {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.driver)
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(
                END_TO_END_PARTIAL
                    .iter()
                    .chain(PER_LAYER)
                    // Per-layer entries carry no bound.
                    .map(|m| {
                        metric(&MetricDef {
                            rule: Rule::Info,
                            ..*m
                        })
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Looks a metric up by name across all three lists.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(END_TO_END_PARTIAL)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

impl WorkloadDef {
    /// The owed metric names, flattened.
    pub fn owed(&self) -> impl Iterator<Item = &'static str> {
        self.owes.iter().flat_map(|group| group.iter().copied())
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS.iter().map(|w| w.name).chain(
            END_TO_END
                .iter()
                .chain(END_TO_END_PARTIAL)
                .chain(PER_LAYER)
                .map(|m| m.name),
        );
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        for w in WORKLOADS {
            for name in w.owed() {
                assert!(metric(name).is_some(), "{} owes unknown {name}", w.name);
            }
        }
        assert!(END_TO_END
            .iter()
            .all(|m| matches!(m.rule, Rule::Bound(b) if b <= 0.25)));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints and `compare` enforces. They must not drift apart.
    #[test]
    fn benchmark_json_agrees_with_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
            .expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            benchmark_json(),
            "regenerate it with `histbench spec > BENCHMARK.json`"
        );
    }
}
