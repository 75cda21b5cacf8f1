//! Integration: full online diagnosis of the Poisson application.

use histpc_consultant::{drive_diagnosis_faulted, SearchConfig};
use histpc_sim::workloads::{PoissonVersion, PoissonWorkload, Workload};

#[test]
fn base_diagnosis_of_poisson_c_finds_sync_bottlenecks() {
    let wl = PoissonWorkload::new(PoissonVersion::C);
    let mut engine = wl.build_engine();
    let config = SearchConfig::default();
    let t0 = std::time::Instant::now();
    let report = drive_diagnosis_faulted(&mut engine, &config, None).report;
    let wall = t0.elapsed();
    eprintln!(
        "poisson C base: {} bottlenecks, {} pairs, end {}, peak cost {:.3}, quiescent {}, wall {:?}",
        report.bottleneck_count(),
        report.pairs_tested,
        report.end_time,
        report.peak_cost,
        report.quiescent,
        wall
    );
    for b in report.bottlenecks().iter().take(40) {
        eprintln!(
            "  {} {} @ {} ({:.1}%)",
            b.hypothesis,
            b.focus,
            b.first_true_at.unwrap(),
            b.last_value * 100.0
        );
    }
    assert!(report.bottleneck_count() >= 5, "too few bottlenecks");
    // The dominant problem is synchronization waiting.
    assert!(report
        .bottleneck_set()
        .iter()
        .any(|(h, f)| h == "ExcessiveSyncWaitingTime" && f.is_whole_program()));
    // exchng2 must be identified.
    assert!(
        report.bottleneck_set().iter().any(|(h, f)| {
            h == "ExcessiveSyncWaitingTime"
                && f.selection("Code")
                    .is_some_and(|s| s.to_string() == "/Code/exchng2.f/exchng2")
        }),
        "exchng2 not identified"
    );
}
