//! Resource mapping between code versions (the paper's §3.2 and fig. 3).
//!
//! Version A names its modules `oned.f`, `exchng1.f`, `sweep.f`; the
//! non-blocking revision B renames them to `onednb.f`, `nbexchng.f`,
//! `nbsweep.f` (and `sweep1d` becomes `nbsweep`). Directives harvested
//! from A are useless against B until the names are mapped. This example
//! shows the execution map, the automatically suggested mappings, a
//! user-specified mapping file, and the directed diagnosis of B.
//!
//! ```text
//! cargo run --release --example cross_version
//! ```

use histpc::history;
use histpc::instr::Binder;
use histpc::prelude::*;

fn main() {
    let config = SearchConfig::default();
    let session = Session::new();

    // Base run of version A.
    let a = session
        .diagnose(&PoissonWorkload::new(PoissonVersion::A), &config, "a1")
        .unwrap();
    println!(
        "version A base run: {} bottlenecks, {} pairs",
        a.report.bottleneck_count(),
        a.report.pairs_tested
    );

    // The execution map of A and B's Code hierarchies (fig. 3).
    let space_a = Binder::new(PoissonWorkload::new(PoissonVersion::A).app_spec()).build_space();
    let space_b = Binder::new(PoissonWorkload::new(PoissonVersion::B).app_spec()).build_space();
    let mut merged = space_a.hierarchy("Code").unwrap().clone();
    merged
        .merge_tagged(space_b.hierarchy("Code").unwrap(), 1, 2)
        .unwrap();
    println!("\nexecution map ({{1}} = A only, {{2}} = B only, {{1,2}} = both):");
    print!("{}", merged.render(true));

    // Automatic mapping suggestions...
    let a_names: Vec<ResourceName> = space_a
        .hierarchies()
        .iter()
        .flat_map(|h| h.all_names())
        .collect();
    let b_names: Vec<ResourceName> = space_b
        .hierarchies()
        .iter()
        .flat_map(|h| h.all_names())
        .collect();
    let suggested = MappingSet::suggest(&a_names, &b_names);
    println!("\nsuggested mappings:\n{}", suggested.to_text());

    // ...optionally overridden/extended by a user-specified mapping file,
    // exactly as in the paper ("map resourceName1 resourceName2").
    let user_file = "# corrections from the developer\n\
                     map /Code/oned.f/main /Code/onednb.f/main\n";
    let user = MappingSet::parse(user_file).expect("mapping file parses");
    println!("user mapping file:\n{user_file}");

    // Harvest from A, map into B's names, diagnose B.
    let directives = session
        .harvest_mapped(
            &a.record,
            &b_names,
            &ExtractionOptions::priorities_and_safe_prunes(),
            &user,
        )
        .unwrap();
    println!(
        "mapped {} directives from A into B's names",
        directives.len()
    );

    let b = session
        .diagnose(
            &PoissonWorkload::new(PoissonVersion::B),
            &config.clone().with_directives(directives),
            "b-directed",
        )
        .unwrap();
    println!(
        "\nversion B directed run: {} bottlenecks, {} pairs, all found by {}",
        b.report.bottleneck_count(),
        b.report.pairs_tested,
        b.report
            .time_of_last_bottleneck()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".into()),
    );

    // For comparison: B without history. The reference set is
    // de-duplicated across the redundant Machine hierarchy (the mapped
    // directives prune it, so machine-constrained duplicates of process
    // bottlenecks are intentionally not re-found).
    let b_base = session
        .diagnose(&PoissonWorkload::new(PoissonVersion::B), &config, "b-base")
        .unwrap();
    let t_base = b_base.report.time_of_last_bottleneck().unwrap();
    let truth: Vec<(String, Focus)> = b_base
        .report
        .bottleneck_set()
        .into_iter()
        .filter(|(_, f)| f.selection("Machine").is_none_or(|m| m.is_root()))
        .collect();
    let t_directed = b.report.time_to_find(&truth, 1.0).unwrap_or(t_base);
    println!(
        "version B base run would need {} — mapped directives reduce it by {:.1}%",
        t_base,
        100.0 * (1.0 - t_directed.as_secs_f64() / t_base.as_secs_f64())
    );

    // The combination operators on multi-run knowledge (§4.3).
    let da = history::extract(&a.record, &ExtractionOptions::priorities_only());
    let db = history::extract(&b_base.record, &ExtractionOptions::priorities_only());
    let inter = histpc::history::intersect(&da, &db);
    let uni = histpc::history::union(&da, &db);
    println!(
        "\ncombining A and B priorities: |A∩B| = {}, |A∪B| = {}",
        inter.priorities.len(),
        uni.priorities.len()
    );
}
