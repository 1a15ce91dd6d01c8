#!/usr/bin/env bash
# Everything root CI does not reach: the benchmark package's own unit
# tests, formatting and lints.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo fmt --manifest-path perf/Cargo.toml -- --check
cargo clippy --offline --manifest-path perf/Cargo.toml --all-targets -- -D warnings
cargo test --offline --manifest-path perf/Cargo.toml
