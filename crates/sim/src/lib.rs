//! `histpc-sim`: a deterministic discrete-event simulator of
//! message-passing parallel applications.
//!
//! This crate is the substrate that stands in for the paper's live MPI
//! applications on the IBM SP/2 (see DESIGN.md §1 for the substitution
//! argument). It provides:
//!
//! * a [`machine::MachineModel`] with SP/2-like CPU, network, barrier and
//!   I/O timing;
//! * an [`engine::Engine`] executing per-process [`action::ProcessScript`]s
//!   with eager/rendezvous message semantics, barriers and non-blocking
//!   communication;
//! * online interval emission — aggregated per attribution key at the
//!   source ([`delta`]) — and per-process perturbation slowdown, the
//!   hooks the dynamic-instrumentation layer (`histpc-instr`) builds on;
//! * the paper's workloads ([`workloads`]): the four versions A–D of the
//!   iterative Poisson decomposition application, a PVM-style
//!   ocean-circulation code, the "Tester" program of Figure 1, and a
//!   configurable synthetic workload for tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod delta;
pub mod engine;
pub mod machine;
pub mod program;
pub mod rng;
pub mod time;
pub mod trace;
pub mod workloads;

pub use action::{Action, LoopScript, ProcessScript, ReqId, VecScript};
pub use delta::{Delta, DeltaTable, StepDeltas};
pub use engine::{Engine, EngineStatus};
pub use machine::MachineModel;
pub use program::{AppSpec, FuncId, ModuleSpec, ProcId, TagId};
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
pub use trace::{ActivityKind, Interval, TotalsKey, TraceAccumulator};
pub use workloads::Workload;
