//! Property tests: well-formed directive files survive a format→parse
//! round trip, lint clean, and the linter never panics on garbage.

use histpc_consultant::directive::parse_with_spans;
use histpc_consultant::{
    PriorityDirective, PriorityLevel, Prune, PruneTarget, SearchDirectives, ThresholdDirective,
};
use histpc_lint::facts::{FactTable, RecordFacts, FACTS_HEADER};
use histpc_lint::{Diagnostic, Linter};
use histpc_resources::{Focus, ResourceName};
use proptest::prelude::*;

fn segment() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_.]{0,8}".prop_map(|s| s)
}

fn hypothesis() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("CPUbound".to_string()),
        Just("ExcessiveSyncWaitingTime".to_string()),
        Just("ExcessiveIOBlockingTime".to_string()),
    ]
}

fn focus() -> impl Strategy<Value = Focus> {
    (segment(), prop::option::of(segment())).prop_map(|(code, proc_)| {
        let mut f = Focus::whole_program(["Code", "Machine", "Process", "SyncObject"])
            .with_selection(ResourceName::new(["Code".to_string(), code]).unwrap());
        if let Some(p) = proc_ {
            f = f.with_selection(ResourceName::new(["Process".to_string(), p]).unwrap());
        }
        f
    })
}

/// Directive sets constructed so they should be lint-clean: hypotheses
/// from the registry, thresholds in (0, 1], subtree prunes confined to
/// /SyncObject while foci refine /Code and /Process (so nothing shadows
/// and no high priority lands on a pruned focus), duplicates removed.
fn clean_directives() -> impl Strategy<Value = SearchDirectives> {
    (
        prop::collection::vec(
            (
                hypothesis(),
                focus(),
                prop_oneof![Just(PriorityLevel::High), Just(PriorityLevel::Low),],
            ),
            0..6,
        ),
        prop::collection::vec((hypothesis(), segment()), 0..4),
        prop::collection::vec((hypothesis(), 1u32..=100), 0..3),
    )
        .prop_map(|(priorities, prunes, thresholds)| {
            let mut d = SearchDirectives::none();
            for (h, f, l) in priorities {
                d.add_priority(PriorityDirective {
                    hypothesis: h,
                    focus: f,
                    level: l,
                });
            }
            for (h, s) in prunes {
                let p = Prune {
                    hypothesis: Some(h),
                    target: PruneTarget::Resource(
                        ResourceName::new(["SyncObject".to_string(), s]).unwrap(),
                    ),
                };
                if !d.prunes.contains(&p) {
                    d.add_prune(p);
                }
            }
            for (h, t) in thresholds {
                d.add_threshold(ThresholdDirective {
                    hypothesis: h,
                    value: f64::from(t) / 100.0,
                });
            }
            d
        })
}

/// One generated run: which app it belongs to, and per hypothesis an
/// optional well-observed minimum and an optional harvested threshold,
/// both in tenths so ties are common.
type DriftRun = (bool, Vec<(Option<u32>, Option<u32>)>);

const DRIFT_HYPOTHESES: [&str; 3] = [
    "CPUbound",
    "ExcessiveSyncWaitingTime",
    "ExcessiveIOBlockingTime",
];

/// Loads generated runs through a fact table, labelled in corpus order
/// (apps sorted, labels sorted within an app).
fn drift_corpus(runs: &[DriftRun]) -> (FactTable, Vec<RecordFacts>) {
    let mut table = FactTable::default();
    let mut facts = Vec::new();
    for app in ["a", "b"] {
        let of_app = runs.iter().filter(|(is_b, _)| *is_b == (app == "b"));
        for (seq, (_, per_hypothesis)) in of_app.enumerate() {
            let mut payload = format!("{FACTS_HEADER}\nversion A\nsig 0000000000000000\n");
            for (h, (min, _)) in DRIFT_HYPOTHESES.iter().zip(per_hypothesis) {
                if let Some(m) = min {
                    payload.push_str(&format!("min {h} {}\n", f64::from(*m) / 10.0));
                }
            }
            for (h, (_, threshold)) in DRIFT_HYPOTHESES.iter().zip(per_hypothesis) {
                if let Some(t) = threshold {
                    payload.push_str(&format!("d threshold {h} {}\n", f64::from(*t) / 10.0));
                }
            }
            facts.push(RecordFacts {
                app: app.to_string(),
                label: format!("run-{seq:03}"),
                seq,
                ..table.load(&payload).unwrap()
            });
        }
    }
    (table, facts)
}

/// The drift pass as it was before it became linear: for every run and
/// threshold, scan every other run of the app for the smallest minimum
/// (first in label order on ties). Kept as the reference the one-sweep
/// pass must agree with, message text included.
fn quadratic_drift(table: &FactTable, facts: &[RecordFacts]) -> Vec<Diagnostic> {
    use histpc_consultant::directive::Directive;
    let mut diags = Vec::new();
    for rf in facts {
        for &id in &rf.directives {
            let Directive::Threshold(t) = table.directive(id) else {
                continue;
            };
            let mut hidden: Option<(f64, &str)> = None;
            for other in facts {
                if other.app != rf.app || other.label == rf.label {
                    continue;
                }
                let min = other
                    .minima
                    .iter()
                    .find(|(h, _)| table.name(*h) == t.hypothesis);
                if let Some(&(_, m)) = min {
                    if hidden.is_none_or(|(best, _)| m < best) {
                        hidden = Some((m, &other.label));
                    }
                }
            }
            let Some((magnitude, source)) = hidden else {
                continue;
            };
            if magnitude >= t.value - 1e-9 {
                continue;
            }
            diags.push(
                Diagnostic::warning(
                    "HL032",
                    format!(
                        "threshold drift: run {} of {} harvests threshold {} for \
                         {}, but run {source} observed that bottleneck at only \
                         {magnitude} — applying the higher threshold would hide it",
                        rf.label, rf.app, t.value, t.hypothesis
                    ),
                )
                .with_file(rf.rel_path())
                .with_suggestion(
                    "harvest thresholds from the run with the smallest observed \
                     magnitudes, or combine the runs (`histpc combine`) so the \
                     threshold reflects the whole corpus",
                ),
            );
        }
    }
    diags
}

proptest! {
    /// The one-sweep drift pass finds exactly what the all-pairs scan
    /// did — same runs blamed, same source run on ties, same text —
    /// over corpora with ties, runs that are their own minimum,
    /// single-run apps and two apps side by side.
    #[test]
    fn linear_drift_matches_the_quadratic_reference(
        runs in prop::collection::vec(
            (
                prop_oneof![Just(false), Just(false), Just(false), Just(true)],
                prop::collection::vec(
                    (prop::option::of(1u32..=5), prop::option::of(1u32..=8)),
                    3..=3,
                ),
            ),
            0..12,
        )
    ) {
        let (table, facts) = drift_corpus(&runs);
        let mut linear = Vec::new();
        histpc_lint::passes::drift::check(&table, &facts, &mut linear);
        prop_assert_eq!(linear, quadratic_drift(&table, &facts));
    }

    /// parse(format(d)) == d for well-formed directive sets.
    #[test]
    fn directive_format_parse_roundtrip(d in clean_directives()) {
        let text = d.to_text();
        let parsed = SearchDirectives::parse(&text).unwrap();
        prop_assert_eq!(parsed.prunes, d.prunes);
        prop_assert_eq!(parsed.priorities, d.priorities);
        prop_assert_eq!(parsed.thresholds.len(), d.thresholds.len());
        for t in &d.thresholds {
            prop_assert_eq!(parsed.threshold_for(&t.hypothesis), Some(t.value));
        }
    }

    /// The formatted output of a well-formed directive set lints clean.
    #[test]
    fn formatted_directives_lint_clean(d in clean_directives()) {
        let report = Linter::new().directives(d.to_text(), "gen.dirs").run();
        prop_assert!(
            report.is_clean(),
            "expected clean, got:\n{}",
            report.render(&histpc_lint::SourceCache::new())
        );
    }

    /// The linter neither panics nor loses track of errors on garbage:
    /// if span-aware parsing errors on a text, so does the lint report.
    #[test]
    fn linter_total_on_arbitrary_text(text in ".{0,200}") {
        let report = Linter::new().artifact(text.clone(), "fuzz").run();
        if histpc_lint::ArtifactKind::detect(&text) == histpc_lint::ArtifactKind::Directives {
            let (_, parse_diags) = parse_with_spans(&text, "fuzz");
            if parse_diags.iter().any(|d| d.is_error()) {
                prop_assert!(!report.diagnostics.is_empty());
            }
        }
        // Rendering is total too.
        let mut sources = histpc_lint::SourceCache::new();
        sources.insert("fuzz", &text);
        let _ = report.render(&sources);
    }
}
