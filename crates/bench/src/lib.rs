//! `histpc-bench`: the harness regenerating every table and figure of the
//! paper's evaluation (§4), and the robustness scenarios its tests gate.
//!
//! The `paper` binary prints each [`artifact`]; `tests/scenario_goldens.rs`
//! pins every artifact against `artifacts/` and holds the overload,
//! degraded and poison soak gates. Shared experiment code lives in
//! [`experiments`]. Absolute times differ from the paper (our substrate
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

use histpc::prelude::SimTime;

/// Every artifact `paper` can print, in `paper all` order.
pub const ARTIFACTS: [&str; 9] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "combination",
    "fig1",
    "fig2",
    "fig3",
    "ablation",
];

/// The exact text `paper NAME` prints (archived under `artifacts/`), or
/// `None` if `name` is not an artifact.
pub fn artifact(name: &str) -> Option<String> {
    let text = match name {
        "table1" => format!("{}\n", run_table1().render()),
        // The threshold sweep, then the secondary PVM ocean-circulation
        // study mentioned in §4.2.
        "table2" => {
            let mpi = run_table2();
            let pvm = run_table2_ocean();
            format!(
                "{}\nBest (most efficient) synchronization threshold: {:.0}%\n\n{}\n\
                 Best (most efficient) synchronization threshold: {:.0}%\n",
                mpi.render(),
                mpi.best_threshold() * 100.0,
                pvm.render(),
                pvm.best_threshold() * 100.0
            )
        }
        "table3" => format!("{}\n", run_table3().render()),
        "table4" => format!("{}\n", run_table4().render()),
        // §4.3's text experiments (a1 vs a2; A∩B vs A∪B).
        "combination" => format!("{}\n", run_combination().render()),
        "fig1" => format!("{}\n", fig1_hierarchies()),
        "fig2" => format!("{}\n", fig2_shg_snapshot(SimTime::from_secs(12))),
        "fig3" => format!("{}\n", fig3_mappings()),
        "ablation" => run_ablation().render(),
        _ => return None,
    };
    Some(text)
}
