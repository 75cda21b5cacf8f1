//! `histbench`: the repo's benchmark.
//!
//! Seven workloads drive the `histpc` crates from outside, through
//! their public functions only. An untraced run of a workload gives
//! the end-to-end metrics; a traced run records a span around every
//! call into a layer and gives the per-layer metrics. See
//! `benchmark/README.md` for the tables and [`spec`] for the names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;

use run::{RunArgs, RunOutput};

/// Runs one workload and holds it to what it owes: in a traced run,
/// every metric [`spec::WorkloadDef::owes`] lists must have been
/// measured.
pub fn run_workload(args: &RunArgs) -> Result<RunOutput, String> {
    let def = spec::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut out = workloads::run(args)?;
    if args.trace {
        for name in def.owed() {
            let skipped_in_quick = args.quick && name.starts_with("core.cli_");
            if out.value(name).is_none() && !skipped_in_quick {
                out.failures.push(format!("metric {name} was not measured"));
            }
        }
    }
    Ok(out)
}

/// The metrics a run prints on its last line: the end-to-end list for
/// an untraced run, the per-layer list for a traced one.
pub fn contract_metrics(trace: bool) -> Vec<&'static spec::MetricDef> {
    if trace {
        spec::END_TO_END_PARTIAL
            .iter()
            .chain(spec::PER_LAYER)
            .collect()
    } else {
        spec::END_TO_END.iter().collect()
    }
}
