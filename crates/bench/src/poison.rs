//! Poison soak: diagnosis under adversarial historical guidance.
//!
//! The trust loop (provenance → shadow audits → trust ledger) exists so
//! that history can *lie* without the diagnosis lying with it. This
//! soak proves it: for each Poisson version A–D it runs the no-history
//! baseline, a clean history-directed run, and a run whose harvested
//! directives were adversarially poisoned at the acceptance rate (25%
//! injected prunes hiding true bottlenecks, raised thresholds, stale
//! mappings) — with the shadow-audit loop armed. The gates:
//!
//! * **completeness** — the poisoned run's final report still contains
//!   every true bottleneck the no-history baseline finds;
//! * **retention** — the poisoned runs keep at least half of the
//!   diagnosis-time reduction the clean history buys (aggregated over
//!   the versions);
//! * **provenance** — every revocation names the poisoned source run,
//!   and the trust ledger pins it with a decayed score;
//! * **identity** — at zero poison rates and audit budget 0 the
//!   directed record is bit-identical to the plain directed run (the
//!   pre-trust baseline).
//!
//! All poison draws come from fixed substreams of the rates' seed, so
//! the soak is deterministic end to end (diagnosis times are simulated
//! application times, not wall clock).

use crate::{base_diagnosis, directed_diagnosis, truth_of};
use histpc::consultant::{poison_directives, PoisonRates, PoisonSummary, SearchDirectives};
use histpc::history::trust::{TrustLedger, FULL_SCORE};
use histpc::history::{self, format::write_record, ExtractionOptions};
use histpc::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which poison kind a soak run exercises (`tests/scenario_goldens.rs`
/// runs one soak per kind, `All` included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonKind {
    /// `poison-prune`: injected exact-pair prunes over true bottlenecks.
    Prune,
    /// `poison-threshold`: thresholds raised to 0.95 on bottlenecked
    /// hypotheses.
    Threshold,
    /// `stale-mapping`: harvested directives re-pointed at a resource
    /// no workload has.
    StaleMapping,
    /// Every kind at once — the acceptance scenario.
    All,
}

impl PoisonKind {
    /// The name of this kind in soak output.
    pub fn label(self) -> &'static str {
        match self {
            PoisonKind::Prune => "poison-prune",
            PoisonKind::Threshold => "poison-threshold",
            PoisonKind::StaleMapping => "stale-mapping",
            PoisonKind::All => "all",
        }
    }

    /// The poison rates of this kind at the acceptance rate (25% of
    /// every applicable poison opportunity).
    pub fn rates(self) -> PoisonRates {
        let mut rates = PoisonRates {
            seed: 0x9050,
            ..PoisonRates::default()
        };
        match self {
            PoisonKind::Prune => rates.prune = POISON_RATE,
            PoisonKind::Threshold => rates.threshold = POISON_RATE,
            PoisonKind::StaleMapping => rates.stale_mapping = POISON_RATE,
            PoisonKind::All => {
                rates.prune = POISON_RATE;
                rates.threshold = POISON_RATE;
                rates.stale_mapping = POISON_RATE;
            }
        }
        rates
    }
}

/// The acceptance poison rate from the issue: a quarter of the guidance
/// lies.
pub const POISON_RATE: f64 = 0.25;

/// Audit budget the poisoned runs are armed with. It does not need to
/// cover every injected directive: once a source collects
/// `SOURCE_REVOCATION_FAILURES` convictions the consultant revokes the
/// source wholesale, so the budget only has to buy enough independent
/// probes to catch a lying source a handful of times.
pub const AUDIT_BUDGET: u32 = 32;

/// One version's poisoned-vs-clean comparison.
#[derive(Debug, Clone)]
pub struct PoisonVersionResult {
    /// The Poisson version letter.
    pub version: &'static str,
    /// True bottlenecks of the no-history baseline.
    pub truth: usize,
    /// Baseline bottlenecks the poisoned run failed to report.
    pub missed: Vec<String>,
    /// Time of the baseline's last bottleneck, in microseconds.
    pub base_us: Option<u64>,
    /// Same for the clean history-directed run.
    pub clean_us: Option<u64>,
    /// Same for the poisoned history-directed run.
    pub poisoned_us: Option<u64>,
    /// What the poisoner injected or mangled.
    pub summary: PoisonSummary,
    /// Shadow audits concluded during the poisoned run.
    pub audits: usize,
    /// Audits that convicted (and revoked) their directive.
    pub revocations: usize,
    /// Revocations naming anything *other* than the poisoned source
    /// run — must stay zero, or provenance lost track of the liar.
    pub mislabeled_revocations: usize,
    /// Trust-ledger score of the poisoned source after the run.
    pub score: u32,
    /// Revocations the ledger failed to pin — must stay zero.
    pub unpinned_revocations: usize,
}

impl PoisonVersionResult {
    /// Microseconds of diagnosis time the clean history saved over the
    /// baseline (negative = clean was slower).
    pub fn clean_saving_us(&self) -> Option<i64> {
        Some(self.base_us? as i64 - self.clean_us? as i64)
    }

    /// Same saving for the poisoned run.
    pub fn poisoned_saving_us(&self) -> Option<i64> {
        Some(self.base_us? as i64 - self.poisoned_us? as i64)
    }
}

/// The whole soak: per-version results plus the one-shot identity leg.
#[derive(Debug, Clone)]
pub struct PoisonSoak {
    /// The kind this soak exercised.
    pub kind: PoisonKind,
    /// Per-version poisoned-vs-clean comparisons.
    pub results: Vec<PoisonVersionResult>,
    /// Zero rates + audit budget 0 reproduced the plain directed
    /// record byte for byte (run once, on version A).
    pub zero_identical: bool,
}

fn scratch(tag: &str) -> PathBuf {
    // Soaks run concurrently in one test process: a per-call number
    // keeps their stores apart where the pid cannot.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("histpc-poison-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The clean harvest of a base run, stamped as historical guidance.
fn clean_harvest(base: &Diagnosis, source: &str) -> SearchDirectives {
    let mut d = history::extract(
        &base.record,
        &ExtractionOptions::priorities_and_safe_prunes(),
    );
    d.stamp_provenance(source, 1);
    d
}

/// Runs one version's poisoned leg and gathers every per-version gate
/// input. Version D's result is pinned by `tests/scenario_goldens.rs`.
pub fn run_poison_version(version: PoissonVersion, rates: &PoisonRates) -> PoisonVersionResult {
    let label = version.label();
    let base = base_diagnosis(version);
    let truth = truth_of(&base);
    let clean_source = format!("poisson-{label}/clean");
    let poison_source = format!("poisson-{label}/poisoned");

    let clean = clean_harvest(&base, &clean_source);
    let clean_run = directed_diagnosis(version, clean.clone());

    let (poisoned, summary) = poison_directives(&clean, rates, &truth, &poison_source, 7);
    let dir = scratch(&format!("v{label}"));
    let session = Session::with_store(&dir).expect("scratch store opens");
    let mut config = SearchConfig::default().with_directives(poisoned);
    config.audit_budget = AUDIT_BUDGET;
    let poisoned_run = session
        .diagnose(
            &PoissonWorkload::new(version),
            &config,
            &format!("poisoned-{label}"),
        )
        .expect("poisoned directives still lint clean");

    let found = poisoned_run.report.bottleneck_set();
    let missed: Vec<String> = truth
        .iter()
        .filter(|pair| !found.contains(pair))
        .map(|(h, f)| format!("{h} @ {f}"))
        .collect();

    let ledger = TrustLedger::load(&dir);
    let failed: Vec<_> = poisoned_run.report.revocations();
    let mislabeled_revocations = failed
        .iter()
        .filter(|a| a.source_run != poison_source)
        .count();
    let unpinned_revocations = failed
        .iter()
        .filter(|a| !ledger.is_revoked(&a.source_run, &a.directive))
        .count();
    let result = PoisonVersionResult {
        version: label,
        truth: truth.len(),
        missed,
        base_us: base
            .report
            .time_of_last_bottleneck()
            .map(SimTime::as_micros),
        clean_us: clean_run
            .report
            .time_of_last_bottleneck()
            .map(SimTime::as_micros),
        poisoned_us: poisoned_run
            .report
            .time_of_last_bottleneck()
            .map(SimTime::as_micros),
        summary,
        audits: poisoned_run.report.audits.len(),
        revocations: failed.len(),
        mislabeled_revocations,
        score: ledger.score(&poison_source),
        unpinned_revocations,
    };
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The identity leg: zero poison rates and audit budget 0 must leave
/// the directed record bit-identical to a plain directed run — the
/// whole trust apparatus has to be invisible until armed.
fn run_zero_identity(version: PoissonVersion) -> bool {
    let base = base_diagnosis(version);
    let truth = truth_of(&base);
    let source = format!("poisson-{}/clean", version.label());
    let clean = clean_harvest(&base, &source);
    let plain = directed_diagnosis(version, clean.clone());
    let (unpoisoned, summary) =
        poison_directives(&clean, &PoisonRates::default(), &truth, "x/evil", 9);
    let through = directed_diagnosis(version, unpoisoned);
    summary.total() == 0 && write_record(&through.record) == write_record(&plain.record)
}

/// Runs the poison soak for one kind over the Poisson versions A–D.
pub fn run_poison_soak(kind: PoisonKind) -> PoisonSoak {
    let rates = kind.rates();
    let results = [
        PoissonVersion::A,
        PoissonVersion::B,
        PoissonVersion::C,
        PoissonVersion::D,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, v)| {
        // A per-version seed: one shared seed would poison every
        // version with the same draw sequence (the draws depend
        // only on the rates), collapsing the matrix to one sample.
        let versioned = PoisonRates {
            seed: rates.seed + i as u64,
            ..rates
        };
        run_poison_version(v, &versioned)
    })
    .collect();
    PoisonSoak {
        kind,
        results,
        zero_identical: run_zero_identity(PoissonVersion::A),
    }
}

impl PoisonSoak {
    /// Every baseline bottleneck survived the poison, in every version.
    pub fn complete(&self) -> bool {
        self.results.iter().all(|r| r.missed.is_empty())
    }

    /// Aggregate fraction of the clean-history diagnosis-time saving
    /// the poisoned runs kept (1.0 = all of it; `None` when the clean
    /// history saved nothing to keep).
    pub fn retention(&self) -> Option<f64> {
        let clean: i64 = self
            .results
            .iter()
            .filter_map(|r| r.clean_saving_us())
            .sum();
        let poisoned: i64 = self
            .results
            .iter()
            .filter_map(|r| r.poisoned_saving_us())
            .sum();
        (clean > 0).then(|| poisoned as f64 / clean as f64)
    }

    /// The acceptance bound: at least half the clean saving retained.
    pub fn retained(&self) -> bool {
        self.retention().is_none_or(|f| f >= 0.5)
    }

    /// Every revocation named the poisoned source run and was pinned in
    /// the ledger with a decayed score.
    pub fn provenance_held(&self) -> bool {
        self.results.iter().all(|r| {
            r.mislabeled_revocations == 0
                && r.unpinned_revocations == 0
                && (r.revocations == 0 || r.score < FULL_SCORE)
        })
    }

    /// The audit loop actually engaged. Every kind can revoke:
    /// poisoned prunes and thresholds are convicted by probes and
    /// tripped watches, and stale-mapped directives — whose focus names
    /// a resource the program does not have — are convicted statically
    /// at audit-arm time.
    pub fn audits_engaged(&self) -> bool {
        self.results.iter().map(|r| r.audits).sum::<usize>() > 0
            && self.results.iter().map(|r| r.revocations).sum::<usize>() > 0
    }

    /// Renders the soak summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Poison soak: kind {}, rate {POISON_RATE}, audit budget {AUDIT_BUDGET}\n\n",
            self.kind.label()
        );
        for r in &self.results {
            out.push_str(&format!(
                "version {}: {} injected ({} prunes, {} thresholds, {} staled), \
                 {} audits, {} revocations ({} mislabeled, {} unpinned)\n",
                r.version,
                r.summary.total(),
                r.summary.prunes_injected,
                r.summary.thresholds_raised,
                r.summary.mappings_staled,
                r.audits,
                r.revocations,
                r.mislabeled_revocations,
                r.unpinned_revocations
            ));
            out.push_str(&format!(
                "  last bottleneck: base {} s, clean {} s, poisoned {} s; \
                 truth {}/{} found; poisoned-source score {}\n",
                fmt_us(r.base_us),
                fmt_us(r.clean_us),
                fmt_us(r.poisoned_us),
                r.truth - r.missed.len(),
                r.truth,
                r.score
            ));
            for m in &r.missed {
                out.push_str(&format!("  MISSED: {m}\n"));
            }
        }
        if let Some(f) = self.retention() {
            out.push_str(&format!(
                "retention: {:.0}% of the clean-history saving kept\n",
                f * 100.0
            ));
        }
        out.push_str(&format!("zero-poison identity: {}\n", self.zero_identical));
        out
    }
}

fn fmt_us(us: Option<u64>) -> String {
    match us {
        Some(us) => format!("{:.1}", us as f64 / 1e6),
        None => "-".into(),
    }
}
