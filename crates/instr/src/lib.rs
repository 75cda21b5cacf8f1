//! `histpc-instr`: the dynamic-instrumentation layer.
//!
//! Paradyn inserts and deletes measurement instrumentation *while the
//! program runs*; the Performance Consultant's behaviour — and everything
//! the paper improves — is shaped by the economics of that mechanism:
//!
//! * data for a (metric, focus) pair exists **only while the pair is
//!   instrumented** — there is no retroactive data;
//! * inserting instrumentation takes real time (the paper §4.1: "the
//!   starting timestamp is determined by the instant of the
//!   instrumentation request, plus the time required to actually insert
//!   the instrumentation");
//! * every active pair **perturbs** the application, and total
//!   instrumentation cost is continuously monitored so the search can be
//!   throttled (paper §2).
//!
//! This crate reproduces those mechanics over the `histpc-sim` engine:
//! [`Collector`] manages metric-focus pairs, clips observed intervals to
//! their enablement windows, keeps each pair's last window of values on
//! the sample clock, models perturbation cost, and exposes per-process
//! slowdown factors that the drive loop feeds back into the engine. [`faults`]
//! injects the daemons' failures into that mechanism: lossy sample
//! streams, failed insertions, dying processes and tool crashes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod batch;
pub mod binder;
pub mod collector;
pub mod cost;
pub mod delta;
pub mod faults;
pub mod metric;
pub mod pair;
pub mod postmortem;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionStats, AdmitVerdict, RequestClass,
};
pub use batch::SampleBatch;
pub use binder::Binder;
pub use collector::{AdmitOutcome, Collector, CollectorConfig, PairId};
pub use cost::{CostConfig, CostModel};
pub use metric::Metric;
pub use postmortem::PostmortemData;
