//! `histpc-history`: historical performance data for directed diagnosis.
//!
//! The paper's contribution (§3): save performance and structural data
//! from executions of an application, then extract knowledge useful for
//! diagnosis — **search directives** (prunes, priorities, thresholds) —
//! and **map** resource names between executions so directives from one
//! run (or one code version) apply to another.
//!
//! * [`record`] — the persisted result of one execution: resources,
//!   hypothesis/focus outcomes, thresholds, instrumentation statistics.
//! * [`store`] — a crash-consistent, directory-backed multi-execution
//!   store: checksum-framed records ([`frame`]), a write-ahead
//!   [`journal`], advisory multi-session [`lock`]ing, a versioned
//!   [`manifest`], a read-only checker ([`fsck`]), an advisory
//!   per-record derived-fact sidecar ([`factcache`]) for incremental
//!   corpus analysis, crash-safe daemon session [`lease`]s, and a
//!   per-source-run [`trust`] ledger fed by shadow audits and corpus
//!   conflicts — all over one durable-file layer (`durable.rs`).
//! * [`format`] — a line-oriented, human-diffable text serialization.
//! * [`extract`] — directive harvesting: priorities from true/false
//!   outcomes, historic prunes (trivial functions, false pairs, redundant
//!   one-to-one hierarchies), general prunes, and application-specific
//!   thresholds.
//! * [`mapping`] — `map res1 res2` directives plus automatic mapping
//!   suggestions between executions.
//! * [`combine`] — the paper's A∩B and A∪B multi-run combinations.
//! * [`compare`] — quantitative comparison of two executions (the §6
//!   experiment-management direction): structural and performance diffs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combine;
pub mod compare;
mod durable;
pub mod extract;
pub mod factcache;
pub mod format;
pub mod frame;
pub mod fsck;
pub mod journal;
pub mod lease;
pub mod lock;
pub mod manifest;
pub mod mapping;
pub mod record;
pub mod store;
pub mod trust;

pub use combine::{intersect, union};
pub use compare::{compare, ComparisonReport, PairDiff};
pub use extract::{
    derive_threshold_from_profile, detection_times, extract, ground_truth, postmortem_record,
    ExtractionOptions, MIN_THRESHOLD_SAMPLES,
};
pub use factcache::FactCache;
pub use format::FormatError;
pub use fsck::fsck;
pub use lease::Lease;
pub use mapping::{LocatedMap, MappingSet};
pub use record::ExecutionRecord;
pub use store::{ExecutionStore, StoreError};
pub use trust::{TrustLedger, TrustVerdict};
