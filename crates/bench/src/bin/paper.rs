//! Regenerates the paper's tables and figures on stdout, in the form
//! archived under `artifacts/`.
//!
//! ```text
//! paper <table1|table2|table3|table4|combination|fig1|fig2|fig3|ablation|all>
//! ```
//!
//! Generation times go to stderr so stdout stays deterministic.

use histpc::prelude::SimTime;
use histpc_bench::*;

const ARTIFACTS: [&str; 9] = [
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

/// Prints one artifact; false if `name` is not one.
fn print_artifact(name: &str) -> bool {
    match name {
        "table1" => println!("{}", run_table1().render()),
        // The threshold sweep, then the secondary PVM ocean-circulation
        // study mentioned in §4.2.
        "table2" => {
            let mpi = run_table2();
            println!("{}", mpi.render());
            println!(
                "Best (most efficient) synchronization threshold: {:.0}%\n",
                mpi.best_threshold() * 100.0
            );
            let pvm = run_table2_ocean();
            println!("{}", pvm.render());
            println!(
                "Best (most efficient) synchronization threshold: {:.0}%",
                pvm.best_threshold() * 100.0
            );
        }
        "table3" => println!("{}", run_table3().render()),
        "table4" => println!("{}", run_table4().render()),
        // §4.3's text experiments (a1 vs a2; A∩B vs A∪B).
        "combination" => println!("{}", run_combination().render()),
        "fig1" => println!("{}", fig1_hierarchies()),
        "fig2" => println!("{}", fig2_shg_snapshot(SimTime::from_secs(12))),
        "fig3" => println!("{}", fig3_mappings()),
        "ablation" => print!("{}", run_ablation().render()),
        _ => return false,
    }
    true
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let names = if arg == "all" {
        &ARTIFACTS[..]
    } else {
        &[arg.as_str()]
    };
    for name in names {
        let t0 = std::time::Instant::now();
        if !print_artifact(name) {
            eprintln!("usage: paper <{}|all>", ARTIFACTS.join("|"));
            std::process::exit(2);
        }
        eprintln!("({name} generated in {:?})", t0.elapsed());
    }
}
