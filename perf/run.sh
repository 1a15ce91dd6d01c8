#!/usr/bin/env bash
# The benchmark command. Builds the benchmark package (offline, release)
# and runs it from the repository root.
#
#   perf/run.sh                       every workload at seed 0; prints every metric,
#                                     writes perf/out/result.json and perf/out/trace.json
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run of one workload; last line is the result
#   perf/run.sh --twice [args]        the whole benchmark twice, then `perf compare`
#                                     both ways: the repeatability check
#   perf/run.sh --check-references    the independent oracle
#   perf/run.sh compare A.json B.json the differ
set -euo pipefail
cd "$(dirname "$0")/.."

perf() {
    cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- "$@"
}

if [ "${1:-}" = "--twice" ]; then
    shift
    perf "$@" --out perf/out/first.json
    perf "$@" --out perf/out/second.json
    perf compare perf/out/first.json perf/out/second.json
    perf compare perf/out/second.json perf/out/first.json
else
    perf "$@"
fi
