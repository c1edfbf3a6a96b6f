#!/usr/bin/env bash
# Smoke test for CI to wire later (CI files are outside this directory):
# the benchmark's unit tests, then every workload at --quick sizes (each
# within ~2 s) in both passes with all correctness checks on. The numbers
# of a --quick run are marked non-comparable.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --quick --traced --out benchmark/out/smoke.json
