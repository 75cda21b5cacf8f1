//! `HL032` — threshold drift: a harvested threshold that would hide a
//! bottleneck another run actually observed.
//!
//! Harvested thresholds sit a safety margin *below* the smallest
//! well-observed bottleneck of their own run — so within one run they
//! can never mask anything. Across runs they can: if run 7 saw sync
//! waiting at 40% (threshold ≈ 36%), but run 12's workload only pushes
//! it to 10%, applying run 7's threshold to a future diagnosis would
//! declare run 12's very real bottleneck "not a problem". This pass
//! compares every run's harvested thresholds against the well-observed
//! (≥ [`MIN_THRESHOLD_SAMPLES`](histpc_history::MIN_THRESHOLD_SAMPLES))
//! true magnitudes of every *other* run of the same application — in
//! one sweep: per hypothesis only the two smallest minima can ever be
//! "the smallest in another run" (the second stands in when a run is
//! its own minimum).

use super::by_app;
use crate::facts::{FactTable, RecordFacts};
use crate::Diagnostic;
use histpc_consultant::directive::Directive;
use std::collections::BTreeMap;

/// Stable code for a threshold inconsistent with observed magnitudes.
pub const CODE_DRIFT: &str = "HL032";

/// Slack under the threshold before a magnitude counts as hidden, so
/// float noise around an exact boundary never flaps the finding.
const DRIFT_EPSILON: f64 = 1e-9;

/// Runs the pass.
pub fn check(table: &FactTable, facts: &[RecordFacts], diags: &mut Vec<Diagnostic>) {
    for (app, runs) in by_app(facts) {
        // Per hypothesis, the smallest and second-smallest well-observed
        // minima with their runs; ties keep the first in label order.
        let mut lowest: BTreeMap<usize, [Option<(f64, &RecordFacts)>; 2]> = BTreeMap::new();
        for rf in &runs {
            for &(hypothesis, m) in &rf.minima {
                let slots = lowest.entry(hypothesis).or_default();
                if slots[0].is_none_or(|(best, _)| m < best) {
                    slots[1] = slots[0].replace((m, rf));
                } else if slots[1].is_none_or(|(second, _)| m < second) {
                    slots[1] = Some((m, rf));
                }
            }
        }
        for rf in &runs {
            for &id in &rf.directives {
                let Directive::Threshold(t) = table.directive(id) else {
                    continue;
                };
                // The smallest well-observed magnitude for this
                // hypothesis in any *other* run, with its source run.
                let hidden = table
                    .name_id(&t.hypothesis)
                    .and_then(|h| lowest.get(&h))
                    .and_then(|slots| slots.iter().flatten().find(|(_, o)| o.label != rf.label));
                let Some(&(magnitude, source)) = hidden else {
                    continue;
                };
                if magnitude >= t.value - DRIFT_EPSILON {
                    continue;
                }
                diags.push(
                    Diagnostic::warning(
                        CODE_DRIFT,
                        format!(
                            "threshold drift: run {} of {app} harvests threshold {} for \
                             {}, but run {} observed that bottleneck at only \
                             {magnitude} — applying the higher threshold would hide it",
                            rf.label, t.value, t.hypothesis, source.label
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
    }
}
