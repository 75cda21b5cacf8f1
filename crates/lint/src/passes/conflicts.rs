//! `HL030` — cross-run directive conflicts.
//!
//! Within one run, extraction is self-consistent: it never emits a high
//! priority on a pair it also prunes. Across runs nothing enforced that
//! until now: run 3 may conclude a function trivial (subtree prune)
//! while run 41 — after a workload change — finds the same function a
//! bottleneck (high priority). A consultant steered by the merged
//! corpus would then prune its own best lead. This pass cross-products
//! the *distinct* prunes and high priorities of each `(app, version)`
//! group, reports each contradicted pair once, and records a
//! [`ConflictVerdict`](crate::corpus::ConflictVerdict) so harvesting
//! can down-rank both sides.

use super::{by_version, first_sources};
use crate::corpus::{ConflictVerdict, ConflictVerdicts};
use crate::facts::{FactTable, RecordFacts};
use crate::Diagnostic;
use histpc_consultant::directive::{Directive, PriorityLevel};

/// Stable code for a cross-run prune/priority conflict.
pub const CODE_CONFLICT: &str = "HL030";

/// Runs the pass, returning the verdicts for harvest-time vetting.
pub fn check(
    table: &FactTable,
    facts: &[RecordFacts],
    diags: &mut Vec<Diagnostic>,
) -> ConflictVerdicts {
    let mut verdicts = ConflictVerdicts::default();
    for ((app, version), runs) in by_version(facts) {
        let mut prunes = Vec::new();
        let mut highs = Vec::new();
        for (id, src) in first_sources(table, &runs) {
            match table.directive(id) {
                Directive::Prune(p) => prunes.push((id, p, src)),
                Directive::Priority(p) if p.level == PriorityLevel::High => {
                    highs.push((id, p, src))
                }
                _ => {}
            }
        }
        for (pri_id, pri, pri_src) in highs {
            // Each contradicted pair is reported once, against the
            // first prune (in line order) from another run; within-run
            // consistency is extraction's job.
            let Some(&(prune_id, _, prune_src)) = prunes.iter().find(|(_, prune, src)| {
                src.label != pri_src.label && prune.matches(&pri.hypothesis, &pri.focus)
            }) else {
                continue;
            };
            diags.push(
                Diagnostic::warning(
                    CODE_CONFLICT,
                    format!(
                        "directive conflict in {app} v{version}: run {} harvests \
                         `{}` but run {} harvests `{}` — the corpus \
                         both prunes and prioritizes ({}, {})",
                        prune_src.label,
                        table.line(prune_id),
                        pri_src.label,
                        table.line(pri_id),
                        pri.hypothesis,
                        pri.focus
                    ),
                )
                .with_file(pri_src.rel_path())
                .with_suggestion(
                    "the runs disagree about this pair; harvesting down-ranks both sides \
                     until a re-run or `histpc store delete` of the stale run resolves it",
                ),
            );
            verdicts.push(ConflictVerdict {
                app: app.to_string(),
                version: version.to_string(),
                hypothesis: pri.hypothesis.clone(),
                focus: pri.focus.clone(),
                prune_source: prune_src.label.clone(),
                priority_source: pri_src.label.clone(),
            });
        }
    }
    verdicts
}
