//! Quickstart: diagnose a parallel application, harvest directives from
//! the run, and re-diagnose — the paper's headline workflow.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use histpc::history;
use histpc::prelude::*;

fn main() {
    // The paper's primary application: the 2-D Poisson decomposition
    // (version C), simulated on a 4-node SP/2-like machine.
    let workload = PoissonWorkload::new(PoissonVersion::C);
    let config = SearchConfig::default();
    let session = Session::new();

    // 1. The single-button Performance Consultant, no prior knowledge.
    println!("== base diagnosis (no directives) ==");
    let base = session.diagnose(&workload, &config, "base").unwrap();
    let t_base = base
        .report
        .time_of_last_bottleneck()
        .expect("the Poisson code has bottlenecks");
    println!(
        "found {} bottlenecks using {} instrumented pairs; all found by t = {}",
        base.report.bottleneck_count(),
        base.report.pairs_tested,
        t_base
    );
    println!("\ntop bottlenecks:");
    for b in base.report.bottlenecks().iter().take(5) {
        println!(
            "  {:>6.1}%  {}  {}",
            b.last_value * 100.0,
            b.hypothesis,
            b.focus
        );
    }

    // 2. Harvest search directives from the run: priorities for every
    //    previously true/false pair, plus the safe prunes (redundant
    //    machine hierarchy, trivial functions, SyncObject outside the
    //    sync hypotheses).
    let directives = history::extract(
        &base.record,
        &ExtractionOptions::priorities_and_safe_prunes(),
    );
    println!(
        "\nharvested {} directives ({} prunes, {} priorities)",
        directives.len(),
        directives.prunes.len(),
        directives.priorities.len()
    );

    // 3. The directed re-diagnosis.
    println!("\n== directed diagnosis (with historical directives) ==");
    let directed = session
        .diagnose(
            &workload,
            &config.clone().with_directives(directives),
            "directed",
        )
        .unwrap();
    let truth = base.report.bottleneck_set();
    let t_directed = directed
        .report
        .time_to_find(&truth, 1.0)
        .or_else(|| directed.report.time_of_last_bottleneck())
        .expect("directed run finds bottlenecks");
    println!(
        "found {} bottlenecks using {} instrumented pairs; all found by t = {}",
        directed.report.bottleneck_count(),
        directed.report.pairs_tested,
        t_directed
    );
    let reduction = 100.0 * (1.0 - t_directed.as_secs_f64() / t_base.as_secs_f64());
    println!("\ndiagnosis time: {t_base} -> {t_directed}  ({reduction:.1}% reduction)");
}
