#!/usr/bin/env bash
# The benchmark's one command. Run it from anywhere:
#
#   benchmark/run.sh                      every workload, untraced pass then
#                                         traced pass, each in a fresh process;
#                                         prints `workload metric value unit n`
#                                         lines, writes benchmark/out/results.json,
#                                         exits non-zero if any oracle failed
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run of one workload; the last line
#                                         of stdout is the result as JSON
#   benchmark/run.sh compare A.json B.json
#
# Builds (offline, release) the benchmark and the `histpc` binary first;
# both are no-ops when nothing changed.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$bench_dir/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# The CLI itself, for core.cli_run_ms_p50 / core.cli_overhead_ms.
cargo build --release --offline --quiet -p histpc --bin histpc

# With CARGO_TARGET_DIR set both builds share it; otherwise each
# workspace has its own target/.
export HISTBENCH_HISTPC="${CARGO_TARGET_DIR:-target}/release/histpc"
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/histbench" "$@"
