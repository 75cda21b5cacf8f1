//! The profile-analyze-change tuning cycle of the paper's §4.3.
//!
//! A developer tunes the Poisson application through four revisions:
//! A (1-D, blocking) → B (1-D, non-blocking) → C (2-D) → D (2-D on 8
//! nodes). At each step, the Performance Consultant is directed by
//! knowledge harvested from the *previous* version's run, with resource
//! names mapped across the revision (renamed modules/functions, different
//! machine nodes).
//!
//! ```text
//! cargo run --release --example tuning_cycle
//! ```

use histpc::prelude::*;

fn main() {
    let versions = [
        PoissonVersion::A,
        PoissonVersion::B,
        PoissonVersion::C,
        PoissonVersion::D,
    ];
    let config = SearchConfig::default();
    let store_dir = std::env::temp_dir().join("histpc-tuning-cycle");
    let _ = std::fs::remove_dir_all(&store_dir);
    let session = Session::with_store(&store_dir).expect("store opens");
    println!("execution store: {}", store_dir.display());

    let mut previous: Option<Diagnosis> = None;
    for version in versions {
        let wl = PoissonWorkload::new(version);
        let label = format!("run-{}", version.label());
        println!("\n== version {} ==", version.label());

        // A quick structural probe gives the new version's resource list
        // so old directives can be mapped onto it. (In a live tool this
        // comes from the application's startup discovery.)
        let mut probe_engine = wl.build_engine();
        probe_engine.run_until(SimTime::from_secs(1));
        let probe = PostmortemData::from_totals(probe_engine.app().clone(), probe_engine.totals());
        let new_resources: Vec<ResourceName> = probe
            .space()
            .hierarchies()
            .iter()
            .flat_map(|h| h.all_names())
            .collect();

        let directives = match &previous {
            None => SearchDirectives::none(),
            Some(prev) => {
                let mapped = session
                    .harvest_mapped(
                        &prev.record,
                        &new_resources,
                        &ExtractionOptions::priorities_and_safe_prunes(),
                        &MappingSet::new(),
                    )
                    .unwrap();
                println!(
                    "directing with {} directives harvested from version {}",
                    mapped.len(),
                    prev.record.app_version
                );
                mapped
            }
        };

        let d = session
            .diagnose(&wl, &config.clone().with_directives(directives), &label)
            .unwrap();
        let t = d
            .report
            .time_of_last_bottleneck()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "bottlenecks: {}  pairs: {}  all found by: {}  (peak instr. cost {:.1}%)",
            d.report.bottleneck_count(),
            d.report.pairs_tested,
            t,
            d.report.peak_cost * 100.0
        );
        for b in d.report.bottlenecks().iter().take(3) {
            println!(
                "  {:>6.1}%  {}  {}",
                b.last_value * 100.0,
                b.hypothesis,
                b.focus
            );
        }

        // Quantitative comparison against the previous version (the
        // experiment-management loop): did the revision fix anything,
        // and did it introduce new problems?
        if let Some(prev) = &previous {
            let mapping = MappingSet::suggest(&prev.record.resources, &d.record.resources);
            let cmp = histpc::history::compare(&prev.record, &d.record, Some(&mapping));
            println!(
                "vs version {}: {} resolved, {} introduced, {} persisting",
                prev.record.app_version,
                cmp.resolved.len(),
                cmp.introduced.len(),
                cmp.persisting.len()
            );
        }
        previous = Some(d);
    }

    let apps = session
        .store()
        .unwrap()
        .applications()
        .expect("store lists");
    let runs = session.store().unwrap().labels("poisson").expect("labels");
    println!(
        "\nstore now holds {} application(s), runs: {:?}",
        apps.len(),
        runs
    );
}
