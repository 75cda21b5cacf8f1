//! `histpc-bench`: the harness regenerating every table and figure of the
//! paper's evaluation (§4), and the soak gates.
//!
//! The `paper` binary prints each artifact, the soak binaries hold the
//! robustness gates CI runs (see `src/bin/`); shared experiment code lives
//! in [`experiments`]. Absolute times differ from the paper (our substrate
//! is a simulator, not a dedicated IBM SP/2 partition), but `paper` prints
//! the same rows the paper reports, and EXPERIMENTS.md records the
//! paper-vs-measured comparison. Nothing here gates on wall time:
//! measuring is `benchmark/` (histbench).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod poison;

pub use experiments::*;
pub use poison::{run_poison_soak, run_poison_version, PoisonKind, PoisonSoak};
