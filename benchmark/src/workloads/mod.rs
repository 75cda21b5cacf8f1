//! The seven workloads. Each is a function from arguments to a
//! [`RunOutput`]: it sets up (several times, for `setup_s`), runs its
//! closed loop for the requested time, and checks its oracles.

pub mod corpus;
pub mod daemon;
pub mod diagnosis;
pub mod drive;

use crate::run::{RunArgs, RunOutput};

/// Runs the workload `args` names.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    match args.workload.as_str() {
        "unguided_d" | "ocean_search" | "overload_d" => diagnosis::run_stateless(args),
        "guided_d" => diagnosis::run_guided(args),
        "corpus_1k_harvest" => corpus::run_harvest(args),
        "corpus_1k_ingest" => corpus::run_ingest(args),
        "daemon_fleet" => daemon::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}
