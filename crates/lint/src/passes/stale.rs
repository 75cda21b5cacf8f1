//! `HL031` — stale directives: resources that left the program.
//!
//! Directives outlive the code they were harvested from. When a
//! function is deleted or renamed, every old prune or priority naming
//! it still sits in the corpus, silently matching nothing (or — worse —
//! matching a re-used name). This pass takes the union of the resource
//! sets of each application's last *N* runs as the "live" set and flags
//! any *older* run whose harvested directives name a resource outside
//! it. Runs inside the window are never flagged: their resources are
//! the definition of live.

use super::by_app;
use crate::facts::{FactTable, RecordFacts};
use crate::Diagnostic;
use histpc_consultant::directive::{Directive, PruneTarget};
use histpc_resources::Focus;
use std::collections::BTreeSet;

/// Stable code for a directive naming a vanished resource.
pub const CODE_STALE: &str = "HL031";

/// Runs the pass. `window` is the number of most-recent runs (per
/// application) whose resource union defines liveness.
pub fn check(table: &FactTable, facts: &[RecordFacts], window: usize, diags: &mut Vec<Diagnostic>) {
    let window = window.max(1);
    for (app, mut runs) in by_app(facts) {
        runs.sort_by_key(|f| f.seq);
        if runs.len() <= window {
            continue; // every run is recent; nothing can be stale
        }
        let cutoff = runs.len() - window;
        let mut live = vec![false; table.name_count()];
        for &r in runs[cutoff..].iter().flat_map(|f| &f.resources) {
            live[r] = true;
        }
        // A directive an older run of this app already answered for
        // has every vanished resource it names in `seen`.
        let mut examined = vec![false; table.directive_count()];
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for rf in &runs[..cutoff] {
            let mut gone: BTreeSet<String> = BTreeSet::new();
            for &id in &rf.directives {
                if !std::mem::replace(&mut examined[id], true) {
                    gone.extend(
                        mentioned_resources(table.directive(id))
                            .filter(|name| !table.name_id(name).is_some_and(|n| live[n])),
                    );
                }
            }
            for name in gone {
                if !seen.insert(name.clone()) {
                    continue;
                }
                diags.push(
                    Diagnostic::warning(
                        CODE_STALE,
                        format!(
                            "stale directive: resource {name} (harvested from run {} of {app}) \
                             no longer appears in the last {window} runs",
                            rf.label
                        ),
                    )
                    .with_file(rf.rel_path())
                    .with_suggestion(
                        "the resource was removed or renamed since this run; add a `map` entry \
                         for the new name or re-harvest from a recent run",
                    ),
                );
            }
        }
    }
}

/// Every non-root resource name a directive mentions: a subtree-prune
/// target, or the selections of a pair-prune or priority focus. Roots
/// (`/Code`, `/Machine`, ...) are structural and always live.
fn mentioned_resources(directive: &Directive) -> impl Iterator<Item = String> + '_ {
    let (resource, focus): (_, Option<&Focus>) = match directive {
        Directive::Prune(p) => match &p.target {
            PruneTarget::Resource(r) => (Some(r), None),
            PruneTarget::Pair(f) => (None, Some(f)),
        },
        Directive::Priority(p) => (None, Some(&p.focus)),
        Directive::Threshold(_) => (None, None),
    };
    resource
        .into_iter()
        .chain(focus.into_iter().flat_map(Focus::selections))
        .filter(|r| !r.is_root())
        .map(|r| r.to_string())
}
