//! `histpc` — history-guided online performance diagnosis.
//!
//! A from-scratch reproduction of Karavanic & Miller, *"Improving Online
//! Performance Diagnosis by the Use of Historical Performance Data"*
//! (SC 1999), including every substrate the paper depends on:
//!
//! * [`sim`] — a deterministic discrete-event simulator of message-passing
//!   applications (the stand-in for MPI programs on an IBM SP/2),
//!   including the paper's Poisson decomposition workload in versions A–D;
//! * [`instr`] — a dynamic-instrumentation layer with metric-focus pairs,
//!   insertion latency, exact last-window reads and a perturbation cost
//!   model;
//! * [`resources`] — resource hierarchies, foci and refinement;
//! * [`consultant`] — the Performance Consultant: online bottleneck search
//!   over the Search History Graph, extended with search directives;
//! * [`history`] — the paper's contribution: an execution store, directive
//!   extraction (prunes / priorities / thresholds), resource mapping
//!   between executions, and multi-run combination;
//! * [`faults`] — deterministic, seeded fault injection (lossy sample
//!   delivery, failing instrumentation requests, dying nodes, tool
//!   crashes, overload) used to exercise the consultant's graceful
//!   degradation; it lives in `histpc-instr` as `histpc_instr::faults`;
//! * [`supervise`] — session supervision: heartbeat watchdogs,
//!   checkpoint auto-resume under a retry budget, an escalating
//!   degradation ladder that classifies every run, and the
//!   [`WorkloadSession`] driver that runs real workloads under it;
//! * [`remote`] — the `histpcd/v1` wire protocol and retrying client
//!   for `histpcd` (`crates/daemon`), the crash-tolerant
//!   diagnosis-as-a-service daemon with lease-based session recovery;
//! * [`spec`] — [`RunSpec`], the one value every entry point (the CLI,
//!   `--remote`, the daemon and its leases) builds a diagnosis from.
//!
//! # Quickstart
//!
//! ```
//! use histpc::prelude::*;
//!
//! // 1. Run the unmodified Performance Consultant on an application
//! //    (a small synthetic one here; see examples/ for the paper's
//! //    Poisson application versions A-D).
//! let workload = SyntheticWorkload::balanced(2, 2, 0.1).with_hotspot(0, 1, 2.0);
//! let config = SearchConfig {
//!     window: SimDuration::from_millis(800),
//!     sample: SimDuration::from_millis(100),
//!     ..SearchConfig::default()
//! };
//! let session = Session::new();
//! let base = session.diagnose(&workload, &config, "base").unwrap();
//!
//! // 2. Harvest search directives from the run.
//! let directives = histpc::history::extract(
//!     &base.record,
//!     &ExtractionOptions::priorities_and_safe_prunes(),
//! );
//!
//! // 3. Re-diagnose with the directives: dramatically faster.
//! let directed = session.diagnose(
//!     &workload,
//!     &config.clone().with_directives(directives),
//!     "directed",
//! ).unwrap();
//! assert!(directed.report.bottleneck_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use histpc_consultant as consultant;
pub use histpc_history as history;
pub use histpc_instr as instr;
pub use histpc_instr::faults;
pub use histpc_lint as lint;
pub use histpc_resources as resources;
pub use histpc_sim as sim;

pub mod apps;
pub mod remote;
pub mod session;
pub mod spec;
pub mod supervise;

pub use apps::build_workload;
pub use remote::{Client, RemoteError, Request, Response};
pub use session::{DegradedDiagnosis, Diagnosis, Session, SessionError};
pub use spec::RunSpec;
pub use supervise::WorkloadSession;

/// The most commonly used names, for glob import.
pub mod prelude {
    pub use crate::session::{DegradedDiagnosis, Diagnosis, Session, SessionError};
    pub use crate::supervise::{SupervisionReport, Supervisor, SupervisorConfig, WorkloadSession};
    pub use histpc_consultant::{
        drive_diagnosis_faulted, DegradedRun, DiagnosisReport, NodeOutcome, Outcome,
        PriorityDirective, PriorityLevel, Prune, PruneTarget, SearchCheckpoint, SearchConfig,
        SearchDirectives, ThresholdDirective,
    };
    pub use histpc_history::{
        extract, intersect, union, ExecutionRecord, ExecutionStore, ExtractionOptions, MappingSet,
    };
    pub use histpc_instr::faults::{FaultPlan, FaultStats, KillEvent, KillTarget};
    pub use histpc_instr::{
        AdmissionConfig, AdmissionStats, Collector, CollectorConfig, Metric, PostmortemData,
    };
    pub use histpc_resources::{Focus, ResourceName, ResourceSpace};
    pub use histpc_sim::workloads::{
        OceanWorkload, PoissonVersion, PoissonWorkload, SyntheticWorkload, TesterWorkload,
        WavefrontWorkload, Workload,
    };
    pub use histpc_sim::{Engine, EngineStatus, MachineModel, SimDuration, SimTime};
}
