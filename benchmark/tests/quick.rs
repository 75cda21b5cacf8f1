//! The `--quick` profile: tiny sizes and the `tester` app everywhere.
//! It measures nothing useful, but it runs every workload, untraced and
//! traced, through every oracle (the hand-driven loop's byte-identity
//! with `Session` included) in a few seconds.

use histbench::json::Json;
use histbench::run::{RunArgs, MIN_OPS};
use histbench::{contract_metrics, run_workload, spec};
use std::path::PathBuf;

fn quick(workload: &str, trace: bool) -> RunArgs {
    RunArgs {
        workload: workload.into(),
        seed: 7,
        seconds: 0.2,
        trace,
        quick: true,
        // One directory per workload: the tests run on parallel threads.
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{workload}")),
    }
}

fn check(workload: &str) {
    for trace in [false, true] {
        let args = quick(workload, trace);
        std::fs::create_dir_all(&args.out_dir).unwrap();
        let out = run_workload(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(
            out.correct(),
            "{workload} trace {trace}: {} of {} ops failed; {:?}",
            out.failed,
            out.attempted,
            out.failures
        );
        assert!(out.attempted >= MIN_OPS as u64);

        let listed = contract_metrics(trace);
        let doc = out.contract_json(&listed);
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), listed.len());
        if !trace {
            for def in spec::END_TO_END {
                let v = out.value(def.name).unwrap_or(0.0);
                assert!(v > 0.0, "{workload}: {} is {v}", def.name);
            }
        }
        let _ = std::fs::remove_dir_all(&args.out_dir);
    }
}

#[test]
fn unguided_d() {
    check("unguided_d");
}

#[test]
fn guided_d() {
    check("guided_d");
}

#[test]
fn ocean_search() {
    check("ocean_search");
}

#[test]
fn overload_d() {
    check("overload_d");
}

#[test]
fn corpus_1k_harvest() {
    check("corpus_1k_harvest");
}

#[test]
fn corpus_1k_ingest() {
    check("corpus_1k_ingest");
}

#[test]
fn daemon_fleet() {
    check("daemon_fleet");
}

#[test]
fn an_unknown_workload_is_an_error() {
    assert!(run_workload(&quick("nope", false)).is_err());
}
