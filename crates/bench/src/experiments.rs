//! Shared experiment machinery for the paper's evaluation section.

use histpc::history;
use histpc::prelude::*;

/// Runs the unmodified Performance Consultant on a Poisson version.
pub fn base_diagnosis(version: PoissonVersion) -> Diagnosis {
    let wl = PoissonWorkload::new(version);
    Session::new()
        .diagnose(
            &wl,
            &SearchConfig::default(),
            &format!("base-{}", version.label()),
        )
        .expect("default config lints clean")
}

/// Runs a directed diagnosis of a Poisson version.
pub fn directed_diagnosis(version: PoissonVersion, directives: SearchDirectives) -> Diagnosis {
    let wl = PoissonWorkload::new(version);
    Session::new()
        .diagnose(
            &wl,
            &SearchConfig::default().with_directives(directives),
            &format!("directed-{}", version.label()),
        )
        .expect("harvested directives lint clean")
}

/// The evaluation's reference bottleneck set for a base run: every true
/// (hypothesis, focus) whose Machine selection is the hierarchy root.
///
/// Machine-constrained foci duplicate Process-constrained ones under
/// MPI-1's one-process-per-node model (the basis of the paper's
/// redundant-hierarchy prune), so the reference set is de-duplicated to
/// process form — otherwise pruned runs could never reach "100%".
pub fn truth_of(d: &Diagnosis) -> Vec<(String, Focus)> {
    d.report
        .bottleneck_set()
        .into_iter()
        .filter(|(_, f)| f.selection("Machine").is_none_or(|m| m.is_root()))
        .collect()
}

/// Formats an optional time as seconds.
pub fn fmt_time(t: Option<SimTime>) -> String {
    match t {
        Some(t) => format!("{:.1}", t.as_secs_f64()),
        None => "-".to_string(),
    }
}

/// Formats a reduction percentage against a base value.
pub fn fmt_reduction(t: Option<SimTime>, base: Option<SimTime>) -> String {
    match (t, base) {
        (Some(t), Some(b)) if b.as_micros() > 0 => {
            let red = 100.0 * (1.0 - t.as_secs_f64() / b.as_secs_f64());
            format!("({red:+.1}%)", red = -red)
        }
        _ => String::new(),
    }
}

// ---------------------------------------------------------------------
// Table 1: time to find all true bottlenecks with search directives
// ---------------------------------------------------------------------

/// One directive configuration of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table1Config {
    /// The unmodified Performance Consultant.
    NoDirectives,
    /// All prunes (general + historic, including previously-false pairs).
    PrunesOnly,
    /// General prunes only (not application-specific).
    GeneralPrunesOnly,
    /// Historic prunes only (false pairs, trivial functions, redundant
    /// hierarchies).
    HistoricPrunesOnly,
    /// Priorities only.
    PrioritiesOnly,
    /// Priorities plus the safe prunes.
    PrioritiesAndPrunes,
}

impl Table1Config {
    /// All configurations, in the paper's column order.
    pub const ALL: [Table1Config; 6] = [
        Table1Config::NoDirectives,
        Table1Config::PrunesOnly,
        Table1Config::GeneralPrunesOnly,
        Table1Config::HistoricPrunesOnly,
        Table1Config::PrioritiesOnly,
        Table1Config::PrioritiesAndPrunes,
    ];

    /// The column heading.
    pub fn label(self) -> &'static str {
        match self {
            Table1Config::NoDirectives => "No Directives",
            Table1Config::PrunesOnly => "All Prunes",
            Table1Config::GeneralPrunesOnly => "General Prunes",
            Table1Config::HistoricPrunesOnly => "Historic Prunes",
            Table1Config::PrioritiesOnly => "Priorities Only",
            Table1Config::PrioritiesAndPrunes => "Prior. & Prunes",
        }
    }

    /// The extraction options for this configuration (None = no
    /// directives at all).
    pub fn extraction(self) -> Option<ExtractionOptions> {
        match self {
            Table1Config::NoDirectives => None,
            Table1Config::PrunesOnly => Some(ExtractionOptions::all_prunes()),
            Table1Config::GeneralPrunesOnly => Some(ExtractionOptions::general_prunes_only()),
            Table1Config::HistoricPrunesOnly => Some(ExtractionOptions::historic_prunes_only()),
            Table1Config::PrioritiesOnly => Some(ExtractionOptions::priorities_only()),
            Table1Config::PrioritiesAndPrunes => {
                Some(ExtractionOptions::priorities_and_safe_prunes())
            }
        }
    }
}

/// The result of the Table 1 experiment.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The percentile fractions measured (0.25, 0.50, 0.75, 1.0).
    pub fractions: [f64; 4],
    /// Per configuration: the time to find each fraction of the
    /// reference bottleneck set.
    pub times: Vec<(Table1Config, [Option<SimTime>; 4])>,
    /// Size of the reference bottleneck set.
    pub truth_size: usize,
}

/// Runs the Table 1 experiment on Poisson 2-D (version C).
pub fn run_table1() -> Table1 {
    let base = base_diagnosis(PoissonVersion::C);
    let truth = truth_of(&base);
    let fractions = [0.25, 0.5, 0.75, 1.0];
    let mut times = Vec::new();
    for config in Table1Config::ALL {
        let report = match config.extraction() {
            None => base.report.clone(),
            Some(opts) => {
                let directives = history::extract(&base.record, &opts);
                directed_diagnosis(PoissonVersion::C, directives).report
            }
        };
        let row = [
            report.time_to_find(&truth, fractions[0]),
            report.time_to_find(&truth, fractions[1]),
            report.time_to_find(&truth, fractions[2]),
            report.time_to_find(&truth, fractions[3]),
        ];
        times.push((config, row));
    }
    Table1 {
        fractions,
        times,
        truth_size: truth.len(),
    }
}

impl Table1 {
    /// Renders the table in the paper's layout (times in seconds, with
    /// reductions against the no-directive column).
    pub fn render(&self) -> String {
        let base = self.times[0].1;
        let mut out = String::new();
        out.push_str(&format!(
            "Table 1: Time (s) to Find True Bottlenecks with Search Directives\n\
             (reference set: {} bottlenecks)\n\n",
            self.truth_size
        ));
        out.push_str(&format!("{:<12}", "% Found"));
        for (config, _) in &self.times {
            out.push_str(&format!("{:>24}", config.label()));
        }
        out.push('\n');
        for (i, frac) in self.fractions.iter().enumerate() {
            out.push_str(&format!("{:<12}", format!("{:.0}%", frac * 100.0)));
            for (_, row) in &self.times {
                let cell = format!("{} {}", fmt_time(row[i]), fmt_reduction(row[i], base[i]));
                out.push_str(&format!("{cell:>24}"));
            }
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------
// Table 2: bottlenecks found with varying threshold values
// ---------------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Synchronization threshold setting (fraction of execution time).
    pub threshold: f64,
    /// Significant bottlenecks reported by the Performance Consultant
    /// (out of the pre-identified significant set, as in the paper's
    /// §4.2 where the quality of a diagnosis is "the number of these
    /// areas reported as bottlenecks").
    pub bottlenecks: usize,
    /// Total hypothesis/focus pairs tested.
    pub pairs_tested: usize,
    /// Bottlenecks per pair tested.
    pub efficiency: f64,
}

/// The result of a threshold sweep.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Application label ("poisson 2-D" or "ocean/PVM").
    pub app: String,
    /// Size of the pre-identified significant bottleneck set.
    pub significant: usize,
    /// Sweep rows, in descending threshold order.
    pub rows: Vec<Table2Row>,
}

/// The pre-identified significant problem areas of an application: the
/// postmortem bottleneck set at the reference synchronization threshold,
/// de-duplicated across the redundant Machine hierarchy. This plays the
/// role of the paper's profile analysis ("45% ... in exchng2, 20% in
/// main", per-tag and per-process breakdowns) that fixed the 26
/// significant areas before the sweep.
pub fn significant_set(workload: &dyn Workload, sync_threshold: f64) -> Vec<(String, Focus)> {
    use histpc::consultant::HypothesisTree;
    let mut engine = workload.build_engine();
    engine.run_until(SimTime::from_secs(60));
    let pm = PostmortemData::from_totals(engine.app().clone(), engine.totals());
    let mut directives = SearchDirectives::none();
    directives.add_threshold(ThresholdDirective {
        hypothesis: "ExcessiveSyncWaitingTime".into(),
        value: sync_threshold,
    });
    history::ground_truth(&pm, &HypothesisTree::standard(), &directives)
        .into_iter()
        .filter(|(_, f)| f.selection("Machine").is_none_or(|m| m.is_root()))
        .collect()
}

fn sweep_row(
    workload: &dyn Workload,
    threshold: f64,
    significant: &[(String, Focus)],
) -> Table2Row {
    let mut directives = SearchDirectives::none();
    directives.add_threshold(ThresholdDirective {
        hypothesis: "ExcessiveSyncWaitingTime".into(),
        value: threshold,
    });
    let d = Session::new()
        .diagnose(
            workload,
            &SearchConfig::default().with_directives(directives),
            "sweep",
        )
        .expect("sweep thresholds lint clean");
    let found = d.report.bottleneck_set();
    let hits = significant.iter().filter(|p| found.contains(p)).count();
    Table2Row {
        threshold,
        bottlenecks: hits,
        pairs_tested: d.report.pairs_tested,
        efficiency: if d.report.pairs_tested == 0 {
            0.0
        } else {
            hits as f64 / d.report.pairs_tested as f64
        },
    }
}

/// Runs the Table 2 sweep on the Poisson 2-D application. The reference
/// threshold defining the significant set is 12% (the paper's optimum
/// for this application).
pub fn run_table2() -> Table2 {
    let wl = PoissonWorkload::new(PoissonVersion::C);
    let significant = significant_set(&wl, 0.12);
    let rows = [0.30, 0.20, 0.15, 0.12, 0.10, 0.05]
        .into_iter()
        .map(|t| sweep_row(&wl, t, &significant))
        .collect();
    Table2 {
        app: "Poisson 2-D decomposition (MPI, 4 nodes)".into(),
        significant: significant.len(),
        rows,
    }
}

/// Runs the §4.2 secondary study: the PVM-era ocean-circulation code,
/// whose optimal threshold (20% in the paper) differs from the MPI
/// application's — the argument for application-specific thresholds.
pub fn run_table2_ocean() -> Table2 {
    let wl = OceanWorkload::new();
    let significant = significant_set(&wl, 0.20);
    let rows = [0.30, 0.20, 0.10]
        .into_iter()
        .map(|t| sweep_row(&wl, t, &significant))
        .collect();
    Table2 {
        app: "Ocean circulation model (PVM, SPARCstations)".into(),
        significant: significant.len(),
        rows,
    }
}

impl Table2 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Table 2: Bottlenecks Found with Varying Threshold Values\n({}; {} significant areas)\n\n",
            self.app, self.significant
        );
        out.push_str(&format!(
            "{:>10} {:>14} {:>14} {:>12}\n",
            "Threshold", "Bottlenecks", "Pairs Tested", "Efficiency"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>9.0}% {:>14} {:>14} {:>12.3}\n",
                r.threshold * 100.0,
                r.bottlenecks,
                r.pairs_tested,
                r.efficiency
            ));
        }
        out
    }

    /// The useful threshold: as in the paper, a setting first has to
    /// yield a (near-)complete diagnosis — "a starting point of 30%
    /// yielded an incomplete diagnosis" disqualifies it outright — and
    /// among complete settings the most efficient one wins.
    pub fn best_threshold(&self) -> f64 {
        let max_found = self.rows.iter().map(|r| r.bottlenecks).max().unwrap_or(0);
        self.rows
            .iter()
            .filter(|r| (r.bottlenecks as f64) >= 0.95 * max_found as f64)
            .max_by(|a, b| a.efficiency.total_cmp(&b.efficiency))
            .map(|r| r.threshold)
            .unwrap_or(0.2)
    }
}

// ---------------------------------------------------------------------
// Table 3: directives across application versions
// ---------------------------------------------------------------------

/// The cross-version experiment result.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// The versions, row/column order A, B, C, D.
    pub versions: [PoissonVersion; 4],
    /// `times[row][0]` is the base (no directives) time for the row's
    /// version; `times[row][1 + col]` is the time when directed by
    /// directives extracted from `versions[col]`'s base run.
    pub times: Vec<Vec<Option<SimTime>>>,
}

/// Runs the Table 3 experiment: every version diagnosed with directives
/// from every version's base run (including its own), resource-mapped
/// across versions.
pub fn run_table3() -> Table3 {
    let versions = [
        PoissonVersion::A,
        PoissonVersion::B,
        PoissonVersion::C,
        PoissonVersion::D,
    ];
    // Base runs (column "None" and directive sources), in parallel.
    let mut bases: Vec<Option<Diagnosis>> = versions.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, &v) in bases.iter_mut().zip(&versions) {
            s.spawn(move || {
                *slot = Some(base_diagnosis(v));
            });
        }
    });
    let bases: Vec<Diagnosis> = bases.into_iter().map(|b| b.expect("spawned")).collect();

    let session = Session::new();
    let mut times = Vec::new();
    for (ri, &row_version) in versions.iter().enumerate() {
        let truth = truth_of(&bases[ri]);
        let base_time = bases[ri].report.time_to_find(&truth, 1.0);
        let mut row = vec![base_time];
        for (ci, _col_version) in versions.iter().enumerate() {
            let directives = session
                .harvest_mapped(
                    &bases[ci].record,
                    &bases[ri].record.resources,
                    &ExtractionOptions::priorities_and_safe_prunes(),
                    &MappingSet::new(),
                )
                .expect("suggested mappings lint clean");
            let d = directed_diagnosis(row_version, directives);
            row.push(d.report.time_to_find(&truth, 1.0));
        }
        times.push(row);
    }
    Table3 { versions, times }
}

impl Table3 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table 3: Time (s) to find all bottlenecks with search directives\n\
             from different application versions\n\n",
        );
        out.push_str(&format!("{:<10}", "Version"));
        out.push_str(&format!("{:>18}", "None"));
        for v in &self.versions {
            out.push_str(&format!("{:>18}", v.label()));
        }
        out.push('\n');
        for (ri, row) in self.times.iter().enumerate() {
            out.push_str(&format!("{:<10}", self.versions[ri].label()));
            let base = row[0];
            out.push_str(&format!("{:>18}", fmt_time(base)));
            for cell in &row[1..] {
                out.push_str(&format!(
                    "{:>18}",
                    format!("{} {}", fmt_time(*cell), fmt_reduction(*cell, base))
                ));
            }
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------
// Table 4: similarity of extracted priorities across code versions
// ---------------------------------------------------------------------

/// Membership classes of Table 4's columns.
#[derive(Debug, Clone, Default)]
pub struct Table4 {
    /// Counts for high-priority directives:
    /// [A only, B only, C only, A+B, A+C, B+C, A+B+C].
    pub high: [usize; 7],
    /// Counts for low-priority directives, same classes.
    pub low: [usize; 7],
}

/// Runs the Table 4 experiment: compare the priority-directive sets
/// extracted from base runs of versions A, B and C, after mapping each
/// into version C's resource names.
pub fn run_table4() -> Table4 {
    let session = Session::new();
    let a = base_diagnosis(PoissonVersion::A);
    let b = base_diagnosis(PoissonVersion::B);
    let c = base_diagnosis(PoissonVersion::C);
    let opts = ExtractionOptions::priorities_only();
    let in_c = |src: &Diagnosis| {
        session
            .harvest_mapped(&src.record, &c.record.resources, &opts, &MappingSet::new())
            .expect("suggested mappings lint clean")
    };
    let da = in_c(&a);
    let db = in_c(&b);
    let dc = history::extract(&c.record, &opts);

    let mut out = Table4::default();
    let sets = [&da, &db, &dc];
    let mut keys: Vec<(String, String, PriorityLevel)> = Vec::new();
    for d in sets {
        for p in &d.priorities {
            let k = (p.hypothesis.clone(), p.focus.to_string(), p.level);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    for (hyp, focus_text, level) in keys {
        if level == PriorityLevel::Medium {
            continue;
        }
        let member: Vec<bool> = sets
            .iter()
            .map(|d| {
                d.priorities.iter().any(|p| {
                    p.hypothesis == hyp && p.focus.to_string() == focus_text && p.level == level
                })
            })
            .collect();
        let class = match (member[0], member[1], member[2]) {
            (true, false, false) => 0,
            (false, true, false) => 1,
            (false, false, true) => 2,
            (true, true, false) => 3,
            (true, false, true) => 4,
            (false, true, true) => 5,
            (true, true, true) => 6,
            (false, false, false) => continue,
        };
        match level {
            PriorityLevel::High => out.high[class] += 1,
            PriorityLevel::Low => out.low[class] += 1,
            PriorityLevel::Medium => {}
        }
    }
    out
}

impl Table4 {
    /// Total high-priority directives.
    pub fn high_total(&self) -> usize {
        self.high.iter().sum()
    }

    /// Total low-priority directives.
    pub fn low_total(&self) -> usize {
        self.low.iter().sum()
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let headers = [
            "A only", "B only", "C only", "A,B", "A,C", "B,C", "A,B,C", "TOTAL",
        ];
        let mut out =
            String::from("Table 4: Similarity of Extracted Priorities Across Code Versions\n\n");
        out.push_str(&format!("{:<10}", "Priority"));
        for h in headers {
            out.push_str(&format!("{h:>9}"));
        }
        out.push('\n');
        let both: Vec<usize> = self
            .high
            .iter()
            .zip(&self.low)
            .map(|(h, l)| h + l)
            .collect();
        for (label, row, total) in [
            ("High", &self.high[..], self.high_total()),
            ("Low", &self.low[..], self.low_total()),
            ("Both", &both[..], self.high_total() + self.low_total()),
        ] {
            out.push_str(&format!("{label:<10}"));
            for v in row {
                out.push_str(&format!("{v:>9}"));
            }
            out.push_str(&format!("{total:>9}\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------
// §4.3 text experiments: repeated runs and directive combination
// ---------------------------------------------------------------------

/// Results of the §4.3 repeated-run and combination analyses.
#[derive(Debug, Clone)]
pub struct CombinationExperiment {
    /// True pairs in the base run of A (a1).
    pub a1_true: usize,
    /// True pairs in the directed second run (a2).
    pub a2_true: usize,
    /// True pairs common to both runs.
    pub common_true: usize,
    /// Priority directives common to A∩B and A∪B.
    pub common_directives: usize,
    /// Priority directives unique to A∪B.
    pub union_extra: usize,
    /// Time to find all of C's bottlenecks using A∩B directives.
    pub time_intersect: Option<SimTime>,
    /// Time to find all of C's bottlenecks using A∪B directives.
    pub time_union: Option<SimTime>,
}

/// Runs the §4.3 experiments: (1) directives from a base run of A guiding
/// a second run of A; (2) the A∩B and A∪B combinations guiding C.
pub fn run_combination() -> CombinationExperiment {
    let session = Session::new();
    // Part 1: a1 -> a2. Both runs get the same bounded session length,
    // shorter than the base search needs to complete — the situation the
    // paper describes where the PC "would miss data for interesting
    // events and possibly stop before completion due to inherent
    // instrumentation cost limits". The second run also differs in
    // jitter seed, modelling repeated executions on dedicated time.
    let bounded = SearchConfig {
        max_time: SimDuration::from_secs(45),
        ..SearchConfig::default()
    };
    let a1 = Session::new()
        .diagnose(&PoissonWorkload::new(PoissonVersion::A), &bounded, "a1")
        .expect("default config lints clean");
    let directives = history::extract(&a1.record, &ExtractionOptions::priorities_only());
    let wl_a2 = PoissonWorkload::new(PoissonVersion::A).with_seed(0xA2);
    let a2 = session
        .diagnose(&wl_a2, &bounded.clone().with_directives(directives), "a2")
        .expect("harvested directives lint clean");
    let a1_set: Vec<(String, Focus)> = a1.report.bottleneck_set();
    let a2_set: Vec<(String, Focus)> = a2.report.bottleneck_set();
    let common_true = a1_set.iter().filter(|p| a2_set.contains(p)).count();

    // Part 2: combine A and B directives, diagnose C with each. Uses
    // complete base runs of A and B (the combination study is about
    // multi-run knowledge, not truncation).
    let a_full = base_diagnosis(PoissonVersion::A);
    let b = base_diagnosis(PoissonVersion::B);
    let c = base_diagnosis(PoissonVersion::C);
    let opts = ExtractionOptions::priorities_only();
    let da = session
        .harvest_mapped(
            &a_full.record,
            &c.record.resources,
            &opts,
            &MappingSet::new(),
        )
        .expect("suggested mappings lint clean");
    let db = session
        .harvest_mapped(&b.record, &c.record.resources, &opts, &MappingSet::new())
        .expect("suggested mappings lint clean");
    let inter = intersect(&da, &db);
    let uni = union(&da, &db);
    let common_directives = inter.priorities.len();
    let union_extra = uni.priorities.len() - common_directives;
    let truth = truth_of(&c);
    let d_inter = directed_diagnosis(PoissonVersion::C, inter);
    let d_union = directed_diagnosis(PoissonVersion::C, uni);
    CombinationExperiment {
        a1_true: a1_set.len(),
        a2_true: a2_set.len(),
        common_true,
        common_directives,
        union_extra,
        time_intersect: d_inter.report.time_to_find(&truth, 1.0),
        time_union: d_union.report.time_to_find(&truth, 1.0),
    }
}

impl CombinationExperiment {
    /// Renders the experiment summary.
    pub fn render(&self) -> String {
        format!(
            "Experiment (§4.3): repeated runs and directive combination\n\n\
             Base run a1 of version A: {} pairs tested true\n\
             Directed run a2 (directives from a1): {} pairs tested true\n\
             True in both runs: {}\n\n\
             A∩B vs A∪B priorities (mapped into version C's names):\n\
             common directives: {}\n\
             additional directives unique to A∪B: {}\n\
             time to diagnose C with A∩B: {}\n\
             time to diagnose C with A∪B: {}\n",
            self.a1_true,
            self.a2_true,
            self.common_true,
            self.common_directives,
            self.union_extra,
            fmt_time(self.time_intersect),
            fmt_time(self.time_union),
        )
    }
}

// ---------------------------------------------------------------------
// Degraded-run experiment: the headline effect under injected faults
// ---------------------------------------------------------------------

/// Result of the degraded-run experiment: the paper's headline
/// diagnosis-time reduction, re-measured with a lossy, partially-dead
/// daemon layer underneath both runs.
#[derive(Debug, Clone)]
pub struct DegradedExperiment {
    /// The injected sample-drop rate (0.0–1.0).
    pub loss: f64,
    /// When (if at all) a node was killed mid-search.
    pub kill_at: Option<SimTime>,
    /// Time of the last bottleneck in the faulted base run.
    pub base_time: Option<SimTime>,
    /// Time of the last bottleneck in the faulted directed run.
    pub directed_time: Option<SimTime>,
    /// Injector activity during the base run.
    pub base_stats: FaultStats,
    /// Injector activity during the directed run.
    pub directed_stats: FaultStats,
    /// Resources the base run marked unreachable.
    pub unreachable: Vec<ResourceName>,
    /// Pairs the base run left at the `Unknown` verdict.
    pub unknown_pairs: usize,
    /// Harvested directives steering the directed run.
    pub directive_count: usize,
}

/// Runs the degraded version-D experiment: a faulted base run at `loss`
/// sample-drop rate (optionally killing one node at `kill_at`),
/// directives harvested from the degraded record, and a directed re-run
/// under the *same* fault plan. The interesting number is
/// [`DegradedExperiment::reduction`]: how much of the paper's headline
/// speedup survives the faults.
pub fn run_degraded(loss: f64, kill_at: Option<SimTime>) -> DegradedExperiment {
    let mut plan = FaultPlan::none();
    plan.seed = 0x0D15_EA5E;
    plan.drop_rate = loss;
    if let Some(at) = kill_at {
        plan.kills.push(KillEvent {
            at,
            // Version D runs 8 processes on node09..node16; take the last.
            target: KillTarget::Node("node16".into()),
        });
    }
    let wl = PoissonWorkload::new(PoissonVersion::D);
    let session = Session::new();
    let config = SearchConfig {
        faults: plan.clone(),
        ..SearchConfig::default()
    };
    let base_run = session
        .diagnose_faulted(&wl, &config, "degraded-base", None)
        .expect("default config lints clean");
    let base = base_run.diagnosis.expect("no tool crash scheduled");
    let directives = history::extract(
        &base.record,
        &ExtractionOptions::priorities_and_safe_prunes(),
    );
    let directive_count = directives.len();
    let directed_config = SearchConfig {
        faults: plan,
        ..SearchConfig::default()
    }
    .with_directives(directives);
    let directed_run = session
        .diagnose_faulted(&wl, &directed_config, "degraded-directed", None)
        .expect("harvested directives lint clean");
    let directed = directed_run.diagnosis.expect("no tool crash scheduled");
    let unknown_pairs = base
        .report
        .outcomes
        .iter()
        .filter(|o| o.outcome == Outcome::Unknown)
        .count();
    DegradedExperiment {
        loss,
        kill_at,
        base_time: base.report.time_of_last_bottleneck(),
        directed_time: directed.report.time_of_last_bottleneck(),
        base_stats: base_run.stats,
        directed_stats: directed_run.stats,
        unreachable: base.report.unreachable.clone(),
        unknown_pairs,
        directive_count,
    }
}

impl DegradedExperiment {
    /// Fractional diagnosis-time reduction of the directed run against
    /// the base run (e.g. `0.8` = 80 % faster). `None` when either run
    /// found no bottleneck.
    pub fn reduction(&self) -> Option<f64> {
        match (self.directed_time, self.base_time) {
            (Some(d), Some(b)) if b.as_micros() > 0 => {
                Some(1.0 - d.as_secs_f64() / b.as_secs_f64())
            }
            _ => None,
        }
    }

    /// Renders the experiment summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Degraded run: Poisson version D, {:.0}% sample loss{}\n\n",
            self.loss * 100.0,
            match self.kill_at {
                Some(at) => format!(", node16 killed at t = {at}"),
                None => String::new(),
            }
        );
        out.push_str(&format!(
            "base run:     last bottleneck at {} s ({} samples dropped, {} kills)\n",
            fmt_time(self.base_time),
            self.base_stats.dropped,
            self.base_stats.kills_fired
        ));
        out.push_str(&format!(
            "directed run: last bottleneck at {} s ({} samples dropped, {} kills)\n",
            fmt_time(self.directed_time),
            self.directed_stats.dropped,
            self.directed_stats.kills_fired
        ));
        out.push_str(&format!(
            "directives harvested from the degraded record: {}\n",
            self.directive_count
        ));
        out.push_str(&format!(
            "unknown pairs in base run: {}; unreachable resources: {}\n",
            self.unknown_pairs,
            if self.unreachable.is_empty() {
                "none".to_string()
            } else {
                self.unreachable
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        ));
        match self.reduction() {
            Some(r) => out.push_str(&format!("diagnosis-time reduction: {:.1}%\n", r * 100.0)),
            None => out.push_str("diagnosis-time reduction: undefined (no bottlenecks found)\n"),
        }
        out
    }
}

/// Result of the overload soak: Poisson version D diagnosed unloaded,
/// then again under a sample flood plus request storms with admission
/// control enabled. The soak's claim is *graceful* degradation: the
/// loaded run must still converge on the same whole-program bottlenecks,
/// keep in-flight instrumentation under the configured bound, conclude
/// `Saturated` (not `False`) for the starved parts of the search space,
/// and harvest no directives from under a saturated resource.
#[derive(Debug, Clone)]
pub struct OverloadSoak {
    /// In-flight bound the loaded run was configured with.
    pub max_in_flight: usize,
    /// Per-batch sample budget of the loaded run.
    pub sample_budget: u64,
    /// Whole-program bottleneck hypotheses of the unloaded run.
    pub base_top: Vec<String>,
    /// Whole-program bottleneck hypotheses of the loaded run.
    pub loaded_top: Vec<String>,
    /// Admission-layer activity during the loaded run.
    pub admission: AdmissionStats,
    /// Fault-injector activity during the loaded run.
    pub stats: FaultStats,
    /// Pairs the loaded run concluded `Saturated`.
    pub saturated_pairs: usize,
    /// Resources whose admission breakers opened during the loaded run.
    pub saturated: Vec<ResourceName>,
    /// Directives harvested from the loaded record.
    pub directive_count: usize,
    /// Harvested directives referencing a saturated resource (HL026
    /// hits) — must stay zero, or extraction leaked conclusions drawn
    /// from shed instrumentation.
    pub leaked_directives: usize,
}

/// The whole-program bottleneck hypotheses of a diagnosis, sorted.
fn top_level_bottlenecks(d: &Diagnosis) -> Vec<String> {
    let mut top: Vec<String> = d
        .report
        .bottleneck_set()
        .into_iter()
        .filter(|(_, f)| f.is_whole_program())
        .map(|(h, _)| h)
        .collect();
    top.sort();
    top.dedup();
    top
}

/// Sample-pressure multiplier of the overload soak's loaded run.
pub const OVERLOAD_FLOOD: f64 = 5.0;

/// Runs the overload soak: an unloaded version-D baseline, then the
/// same diagnosis under [`OVERLOAD_FLOOD`]× sample pressure, periodic
/// request storms, and a per-batch budget sized below the real interval
/// stream — so real data is shed, the highest-ranked processes starve,
/// and their breakers open.
pub fn run_overload_soak() -> OverloadSoak {
    let mut plan = FaultPlan::none();
    plan.seed = 0x50AD;
    plan.sample_flood = OVERLOAD_FLOOD;
    plan.request_storm_rate = 0.25;
    plan.request_storm_burst = 16;

    let admission = AdmissionConfig {
        // The real version-D stream runs 33.4k–34.8k interval units per
        // 250 ms driver batch, of which ranks 0–6 contribute at most
        // 31.7k. A budget between those two bounds always spares ranks
        // 0–6 (allowance is handed out in ascending rank order) and
        // always sheds the tail of rank 8's data — enough to trip its
        // breaker every run, little enough that the whole-program
        // experiments still reach the unloaded verdicts. In-flight
        // headroom stays at the default, which covers the search's
        // natural expansion bursts.
        sample_budget: 33_200,
        ..AdmissionConfig::enabled()
    };

    let base = base_diagnosis(PoissonVersion::D);

    let mut config = SearchConfig {
        faults: plan,
        ..SearchConfig::default()
    };
    config.collector.admission = admission.clone();
    let session = Session::new();
    let loaded_run = session
        .diagnose_faulted(
            &PoissonWorkload::new(PoissonVersion::D),
            &config,
            "soak",
            None,
        )
        .expect("default config lints clean");
    let loaded = loaded_run.diagnosis.expect("no tool crash scheduled");

    let saturated_pairs = loaded
        .report
        .outcomes
        .iter()
        .filter(|o| o.outcome == Outcome::Saturated)
        .count();
    let directives = history::extract(
        &loaded.record,
        &ExtractionOptions::priorities_and_safe_prunes(),
    );
    let directive_count = directives.len();
    let text = directives.to_text();
    let leaked_directives = histpc::lint::Linter::new()
        .directives(&text, "soak.dirs")
        .against(&loaded.record)
        .run()
        .with_code("HL026")
        .len();

    OverloadSoak {
        max_in_flight: admission.max_in_flight,
        sample_budget: admission.sample_budget,
        base_top: top_level_bottlenecks(&base),
        loaded_top: top_level_bottlenecks(&loaded),
        admission: loaded.report.admission,
        stats: loaded_run.stats,
        saturated_pairs,
        saturated: loaded.record.saturated.clone(),
        directive_count,
        leaked_directives,
    }
}

impl OverloadSoak {
    /// True when the loaded run found the same whole-program bottlenecks
    /// as the unloaded baseline (and the baseline found any at all).
    pub fn converged(&self) -> bool {
        !self.base_top.is_empty() && self.base_top == self.loaded_top
    }

    /// True when the admission layer actually engaged *and* held its
    /// guarantees: samples were shed, at least one breaker opened into a
    /// `Saturated` verdict, in-flight occupancy stayed within the bound,
    /// and nothing was harvested from under a saturated resource.
    pub fn degraded_gracefully(&self) -> bool {
        self.admission.shed_samples > 0
            && self.admission.breaker_opens > 0
            && self.saturated_pairs > 0
            && !self.saturated.is_empty()
            && self.admission.peak_in_flight <= self.max_in_flight
            && self.leaked_directives == 0
    }

    /// Renders the soak summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Overload soak: Poisson version D, {:.0}x sample pressure, \
             storm bursts of {} phantom requests\n\n",
            OVERLOAD_FLOOD, self.stats.storm_requests
        );
        out.push_str(&format!(
            "admission bounds: {} in-flight, {} sample units/batch\n",
            self.max_in_flight, self.sample_budget
        ));
        out.push_str(&format!(
            "pressure: {} flood units injected, {} sample units shed, \
             peak in-flight {}\n",
            self.stats.flooded, self.admission.shed_samples, self.admission.peak_in_flight
        ));
        out.push_str(&format!(
            "health: {} breaker opens, {} readmits, {} saturated refusals, \
             {} Saturated pairs\n",
            self.admission.breaker_opens,
            self.admission.breaker_readmits,
            self.admission.saturated_refusals,
            self.saturated_pairs
        ));
        out.push_str(&format!(
            "saturated resources: {}\n",
            if self.saturated.is_empty() {
                "none".to_string()
            } else {
                self.saturated
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        ));
        out.push_str(&format!(
            "top-level bottlenecks: unloaded [{}] vs loaded [{}]\n",
            self.base_top.join(", "),
            self.loaded_top.join(", ")
        ));
        out.push_str(&format!(
            "directives harvested: {} ({} referencing saturated resources)\n",
            self.directive_count, self.leaked_directives
        ));
        out
    }
}

// ---------------------------------------------------------------------
// Ablation: which mechanism each part of the paper's effect depends on
// ---------------------------------------------------------------------

/// One setting of an ablation sweep: a base and a directed diagnosis of
/// Poisson 2-D (version C) under that setting.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The setting, as printed.
    pub label: String,
    /// Time for the base run to find the whole reference set.
    pub base: Option<SimTime>,
    /// Same for the run directed by the base run's harvest.
    pub directed: Option<SimTime>,
    /// Pairs the base run tested.
    pub pairs_base: usize,
    /// Pairs the directed run tested.
    pub pairs_directed: usize,
}

/// The ablation study over the design parameters DESIGN.md calls out:
/// titled sweeps, one row per setting.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// `(title, rows)` per swept parameter, in print order.
    pub sweeps: Vec<(&'static str, Vec<AblationRow>)>,
}

fn ablation_row(label: String, config: &SearchConfig) -> AblationRow {
    let wl = PoissonWorkload::new(PoissonVersion::C);
    let session = Session::new();
    let base = session
        .diagnose(&wl, config, "base")
        .expect("default directives lint clean");
    let truth = truth_of(&base);
    let directives = history::extract(
        &base.record,
        &ExtractionOptions::priorities_and_safe_prunes(),
    );
    let directed = session
        .diagnose(&wl, &config.clone().with_directives(directives), "directed")
        .expect("harvested directives lint clean");
    AblationRow {
        label,
        base: base.report.time_to_find(&truth, 1.0),
        directed: directed.report.time_to_find(&truth, 1.0),
        pairs_base: base.report.pairs_tested,
        pairs_directed: directed.report.pairs_tested,
    }
}

/// Runs the ablation study: instrumentation insertion delay, the
/// cost-throttle halt threshold, the settled-pair cost factor, and the
/// conclusion window, each swept around its [`SearchConfig::default`]
/// value, the paper's.
pub fn run_ablation() -> Ablation {
    // How much of the diagnosis time is the physical latency of placing
    // instrumentation?
    let delay = [0u64, 80, 400].map(|ms| {
        let mut config = SearchConfig::default();
        config.collector.insertion_delay = SimDuration::from_millis(ms);
        ablation_row(format!("insertion_delay = {ms} ms"), &config)
    });
    // The budget that serializes the base search.
    let halt = [0.025, 0.05, 0.10, 0.20].map(|halt| {
        let mut config = SearchConfig::default();
        config.collector.cost.halt_threshold = halt;
        config.collector.cost.resume_threshold = halt * 0.7;
        ablation_row(format!("halt_threshold = {halt}"), &config)
    });
    // What persistent High-priority pairs cost to keep. At 1.0 (no
    // settling) priority-directed searches starve.
    let settle = [0.01, 0.25, 1.0].map(|settle| {
        let mut config = SearchConfig::default();
        config.collector.cost.settle_factor = settle;
        ablation_row(format!("settle_factor = {settle}"), &config)
    });
    // Trades diagnosis latency against stability.
    let window = [1u64, 2, 5].map(|secs| {
        let config = SearchConfig {
            window: SimDuration::from_secs(secs),
            ..SearchConfig::default()
        };
        ablation_row(format!("window = {secs} s"), &config)
    });
    Ablation {
        sweeps: vec![
            ("instrumentation insertion delay", delay.into()),
            ("cost halt threshold", halt.into()),
            ("settled-pair cost factor", settle.into()),
            ("conclusion window", window.into()),
        ],
    }
}

impl Ablation {
    /// Renders one table per sweep.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, rows) in &self.sweeps {
            out.push_str(&format!("\n== Ablation: {title} ==\n"));
            out.push_str(&format!(
                "{:<28} {:>10} {:>10} {:>12} {:>8} {:>8}\n",
                "setting", "base (s)", "dir. (s)", "reduction", "pairs", "pairs'"
            ));
            for r in rows {
                let red = match (r.base, r.directed) {
                    (Some(b), Some(d)) if b.as_micros() > 0 => {
                        format!("{:.1}%", 100.0 * (1.0 - d.as_secs_f64() / b.as_secs_f64()))
                    }
                    _ => "-".into(),
                };
                out.push_str(&format!(
                    "{:<28} {:>10} {:>10} {:>12} {:>8} {:>8}\n",
                    r.label,
                    fmt_time(r.base),
                    fmt_time(r.directed),
                    red,
                    r.pairs_base,
                    r.pairs_directed
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------

/// Figure 1: the resource hierarchies of the "Tester" program.
pub fn fig1_hierarchies() -> String {
    let wl = TesterWorkload::new();
    let collector = Collector::new(wl.app_spec(), CollectorConfig::default());
    let mut out = String::from(
        "Figure 1: Representing program Tester.\nThree resource hierarchies: Code, Machine, and Process.\n\n",
    );
    for h in collector.space().hierarchies() {
        if h.name() == "SyncObject" {
            continue; // Tester has no sync objects; fig. 1 shows three trees
        }
        out.push_str(&h.render(false));
        out.push('\n');
    }
    out
}

/// Figure 2: a Performance Consultant search in progress — the SHG in
/// list-box form after `until` of application time.
pub fn fig2_shg_snapshot(until: SimTime) -> String {
    let config = SearchConfig {
        max_time: until - SimTime::ZERO,
        ..SearchConfig::default()
    };
    let mut engine = PoissonWorkload::new(PoissonVersion::C).build_engine();
    let report = drive_diagnosis_faulted(&mut engine, &config, None).report;
    format!(
        "Figure 2: A Performance Consultant search in progress (t = {}).\n\
         [T] tested true, [F] tested false, [?] testing, [.] pending, [P] pruned\n\n{}",
        report.end_time, report.shg_rendering
    )
}

/// Figure 3: the combined Code hierarchies of versions A and B with
/// execution tags, plus the suggested mapping directives.
pub fn fig3_mappings() -> String {
    use histpc::instr::Binder;
    let a = Binder::new(PoissonWorkload::new(PoissonVersion::A).app_spec()).build_space();
    let b = Binder::new(PoissonWorkload::new(PoissonVersion::B).app_spec()).build_space();
    let mut merged = a.hierarchy("Code").expect("Code exists").clone();
    merged
        .merge_tagged(b.hierarchy("Code").expect("Code exists"), 1, 2)
        .expect("same hierarchy");
    let a_names: Vec<ResourceName> = a.hierarchies().iter().flat_map(|h| h.all_names()).collect();
    let b_names: Vec<ResourceName> = b.hierarchies().iter().flat_map(|h| h.all_names()).collect();
    let mappings = MappingSet::suggest(&a_names, &b_names);
    format!(
        "Figure 3: Execution map for Versions A and B (Code hierarchy).\n\
         Tags: {{1}} = only version A, {{2}} = only version B, {{1,2}} = both.\n\n{}\n\
         Mappings used:\n{}",
        merged.render(true),
        mappings.to_text()
    )
}
