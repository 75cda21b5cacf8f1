//! Application-specific thresholds from historical data (paper §4.2).
//!
//! Paradyn's stock threshold (20%) can hide real bottlenecks; a threshold
//! that is too low wastes instrumentation without improving the result.
//! The useful setting is application-specific — 12% for the MPI Poisson
//! code, 20% for the PVM ocean model — which is exactly what a
//! historical record can provide.
//!
//! ```text
//! cargo run --release --example threshold_study
//! ```

use histpc::history;
use histpc::prelude::*;

fn study(name: &str, workload: &dyn Workload) {
    let config = SearchConfig::default();
    let session = Session::new();
    println!("== {name} ==");

    // Run once with the stock settings; derive a threshold from the
    // run's raw profile (the historical record).
    let base = session.diagnose(workload, &config, "base").unwrap();
    let sync = history::derive_threshold_from_profile(
        &base.postmortem,
        &histpc::consultant::HypothesisTree::standard(),
        "ExcessiveSyncWaitingTime",
        0.05,
        0.9,
    )
    .unwrap_or(0.20);
    println!(
        "stock 20% threshold: {} bottlenecks from {} pairs (efficiency {:.3})",
        base.report.bottleneck_count(),
        base.report.pairs_tested,
        base.report.efficiency()
    );
    println!(
        "history-derived synchronization threshold: {:.1}%",
        sync * 100.0
    );

    // Re-run with only the derived threshold (no other directives).
    let mut directives = SearchDirectives::none();
    directives.add_threshold(ThresholdDirective {
        hypothesis: "ExcessiveSyncWaitingTime".into(),
        value: sync,
    });
    let tuned = session
        .diagnose(
            workload,
            &config.clone().with_directives(directives),
            "tuned",
        )
        .unwrap();
    println!(
        "derived threshold:   {} bottlenecks from {} pairs (efficiency {:.3})",
        tuned.report.bottleneck_count(),
        tuned.report.pairs_tested,
        tuned.report.efficiency()
    );
    let missed = tuned
        .report
        .bottleneck_set()
        .iter()
        .filter(|p| !base.report.bottleneck_set().contains(p))
        .count();
    println!("bottlenecks the stock threshold missed: {missed}\n");
}

fn main() {
    study(
        "Poisson 2-D decomposition (MPI, 4 nodes)",
        &PoissonWorkload::new(PoissonVersion::C),
    );
    study(
        "Ocean circulation model (PVM, workstations)",
        &OceanWorkload::new(),
    );
}
