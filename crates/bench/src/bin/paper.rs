//! Regenerates the paper's tables and figures on stdout, in the form
//! archived under `artifacts/`.
//!
//! ```text
//! paper <table1|table2|table3|table4|combination|fig1|fig2|fig3|ablation|all>
//! ```
//!
//! Generation times go to stderr so stdout stays deterministic.

use histpc_bench::{artifact, ARTIFACTS};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let names = if arg == "all" {
        &ARTIFACTS[..]
    } else {
        &[arg.as_str()]
    };
    for name in names {
        let t0 = std::time::Instant::now();
        let Some(text) = artifact(name) else {
            eprintln!("usage: paper <{}|all>", ARTIFACTS.join("|"));
            std::process::exit(2);
        };
        print!("{text}");
        eprintln!("({name} generated in {:?})", t0.elapsed());
    }
}
