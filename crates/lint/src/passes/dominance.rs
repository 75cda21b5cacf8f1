//! `HL033` — dominated directives: ones that can never fire once the
//! corpus is merged.
//!
//! A subtree prune removes a whole region of the Search History Graph
//! from consideration. Any *other* run's directive living strictly
//! inside that region — a low priority, or a narrower pair prune — is
//! dead weight after a corpus merge: the consultant never reaches the
//! focus it names. (A *high* priority under a foreign prune is not
//! dead weight but a genuine contradiction; that is
//! [`conflicts`](super::conflicts)' `HL030`, and this pass leaves it
//! alone.) Within one run the per-file checks `HL005`/`HL006` already
//! cover shadowing; this pass only reports cross-run dominance.

use super::{by_version, first_sources};
use crate::facts::{FactTable, RecordFacts};
use crate::Diagnostic;
use histpc_consultant::directive::{Directive, PriorityLevel, Prune, PruneTarget};

/// Stable code for a directive dominated by another run's prune.
pub const CODE_DOMINATED: &str = "HL033";

/// A group's distinct subtree prunes (id, prune, first run), in line
/// order.
type Subtrees<'a> = Vec<(usize, &'a Prune, &'a RecordFacts)>;

/// Runs the pass.
pub fn check(table: &FactTable, facts: &[RecordFacts], diags: &mut Vec<Diagnostic>) {
    for ((app, version), runs) in by_version(facts) {
        let subtrees: Subtrees = first_sources(table, &runs)
            .into_iter()
            .filter_map(|(id, src)| match table.directive(id) {
                Directive::Prune(p) if matches!(p.target, PruneTarget::Resource(_)) => {
                    Some((id, p, src))
                }
                _ => None,
            })
            .collect();
        if subtrees.is_empty() {
            continue;
        }
        // Which subtree prunes cover a directive does not depend on the
        // run asking, so it is worked out once per distinct directive.
        let mut covering: Vec<Option<Vec<(usize, &RecordFacts)>>> =
            vec![None; table.directive_count()];
        let mut reported = vec![false; table.directive_count()];
        for rf in &runs {
            for &id in &rf.directives {
                if reported[id] {
                    continue;
                }
                // The first covering prune from a *different* run.
                let dominating = covering[id]
                    .get_or_insert_with(|| covered_by(&subtrees, table.directive(id)))
                    .iter()
                    .find(|(_, src)| src.label != rf.label);
                let Some(&(dom_id, dom_src)) = dominating else {
                    continue;
                };
                reported[id] = true;
                diags.push(
                    Diagnostic::warning(
                        CODE_DOMINATED,
                        format!(
                            "dominated directive in {app} v{version}: `{}` from run {} can \
                             never fire — `{}` from run {} already removes that region of \
                             the search history graph",
                            table.line(id),
                            rf.label,
                            table.line(dom_id),
                            dom_src.label
                        ),
                    )
                    .with_file(rf.rel_path())
                    .with_suggestion(
                        "drop the dominated directive, or delete the pruning run if its \
                         conclusion no longer holds",
                    ),
                );
            }
        }
    }
}

/// The subtree prunes (id, first run) that make a low priority or a
/// pair prune unreachable (nothing else can be dominated). A directive
/// scoped to one hypothesis is covered by a prune covering that
/// hypothesis; a wildcard pair prune only by a wildcard subtree prune.
fn covered_by<'a>(subtrees: &Subtrees<'a>, directive: &Directive) -> Vec<(usize, &'a RecordFacts)> {
    let (hypothesis, focus) = match directive {
        // High under a prune is HL030's conflict.
        Directive::Priority(p) if p.level == PriorityLevel::Low => {
            (Some(p.hypothesis.as_str()), &p.focus)
        }
        Directive::Prune(Prune {
            hypothesis,
            target: PruneTarget::Pair(focus),
        }) => (hypothesis.as_deref(), focus),
        _ => return Vec::new(),
    };
    let covers = |prune: &Prune| match hypothesis {
        Some(h) => prune.matches(h, focus),
        // `Prune::matches` scoping: a wildcard prune matches any
        // hypothesis, so probing with an impossible name checks
        // pure structural coverage.
        None => prune.hypothesis.is_none() && prune.matches("\u{0}", focus),
    };
    subtrees
        .iter()
        .filter(|(_, prune, _)| covers(prune))
        .map(|&(id, _, src)| (id, src))
        .collect()
}
