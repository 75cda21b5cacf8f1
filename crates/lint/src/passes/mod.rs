//! Corpus analysis passes.
//!
//! Each pass is a pure function over the lowered facts
//! ([`RecordFacts`], ids into one [`FactTable`]) — no store access, no
//! I/O — pushing [`Diagnostic`](crate::Diagnostic)s into a shared
//! sink. Passes iterate `BTreeMap`-grouped facts so their output order
//! is fully deterministic; the surrounding
//! [`LintReport`](crate::LintReport) sorts and dedupes anyway, but
//! determinism here keeps "first run mentioned wins" choices stable
//! too. Near-identical runs are collapsed *before* they are compared:
//! every pass does its string and focus work once per distinct
//! directive and only id lookups per (run, directive).
//!
//! | pass | code | finding |
//! |------|-------|---------|
//! | [`conflicts`] | HL030 | one run prunes the pair another run marks high priority |
//! | [`stale`] | HL031 | a directive's resource vanished from the last-N runs |
//! | [`drift`] | HL032 | a harvested threshold would hide a bottleneck seen elsewhere |
//! | [`dominance`] | HL033 | a directive an unrelated run's subtree prune makes unreachable |

pub mod conflicts;
pub mod dominance;
pub mod drift;
pub mod stale;

use crate::facts::{FactTable, RecordFacts};
use std::collections::BTreeMap;

/// The runs of each application, in corpus (label) order.
fn by_app(facts: &[RecordFacts]) -> BTreeMap<&str, Vec<&RecordFacts>> {
    let mut apps: BTreeMap<&str, Vec<&RecordFacts>> = BTreeMap::new();
    for f in facts {
        apps.entry(&f.app).or_default().push(f);
    }
    apps
}

/// The runs of each `(app, version)` group, in corpus (label) order.
fn by_version(facts: &[RecordFacts]) -> BTreeMap<(&str, &str), Vec<&RecordFacts>> {
    let mut groups: BTreeMap<(&str, &str), Vec<&RecordFacts>> = BTreeMap::new();
    for f in facts {
        groups.entry((&f.app, &f.version)).or_default().push(f);
    }
    groups
}

/// Every distinct directive a group of runs harvests, keyed to its
/// first (oldest) run and sorted by canonical line — a thousand
/// near-identical runs contribute each directive once.
fn first_sources<'a>(table: &FactTable, runs: &[&'a RecordFacts]) -> Vec<(usize, &'a RecordFacts)> {
    let mut first: Vec<Option<&RecordFacts>> = vec![None; table.directive_count()];
    for rf in runs {
        for &id in &rf.directives {
            first[id].get_or_insert(rf);
        }
    }
    let mut out: Vec<(usize, &RecordFacts)> = first
        .into_iter()
        .enumerate()
        .filter_map(|(id, src)| Some((id, src?)))
        .collect();
    out.sort_by_key(|&(id, _)| table.line(id));
    out
}
