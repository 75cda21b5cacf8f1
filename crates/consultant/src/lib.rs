//! `histpc-consultant`: the Performance Consultant.
//!
//! An implementation of Paradyn's online automated bottleneck search
//! (paper §2), extended with the paper's contribution: **search
//! directives** — prunes, priorities and thresholds harvested from
//! historical performance data (§3) — that steer the search.
//!
//! The search walks a space of (hypothesis, focus) pairs organized as the
//! **Search History Graph**: starting from
//! `(TopLevelHypothesis, WholeProgram)`, true nodes are refined along two
//! axes — a more specific hypothesis, or a more specific focus (one edge
//! down one resource hierarchy). Every tested node requires live
//! instrumentation, whose cost is modelled and throttled exactly as in
//! Paradyn: expansion halts when instrumentation cost crosses a critical
//! threshold and resumes when deletions bring it back down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directive;
pub mod hypothesis;
pub mod poison;
pub mod report;
pub mod search;
pub mod shg;

pub use directive::{
    Directive, LocatedDirective, PriorityDirective, PriorityLevel, Provenance, Prune, PruneTarget,
    SearchDirectives, ThresholdDirective,
};
pub use hypothesis::{Hypothesis, HypothesisId, HypothesisTree};
pub use poison::{poison_directives, PoisonRates, PoisonSummary};
pub use report::{DiagnosisReport, NodeOutcome, Outcome};
pub use search::{
    drive_diagnosis_faulted, Consultant, DegradedRun, DriveHooks, HaltReason, SearchCheckpoint,
    SearchConfig,
};
pub use shg::{NodeState, Shg, ShgNodeId};
