#!/usr/bin/env bash
# A/A self-check: the whole suite twice on the same tree, the second time
# with the workloads in reverse order, then `compare`. Any row that is not
# `ok` (regressed, or unresolved because the spread is wider than the
# bound) fails the script: the instrument must agree with itself before it
# judges a change.
#
#   REPS=10 benchmark/aa.sh        # repetitions per workload and side (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."
REPS="${REPS:-5}"
OUT=benchmark/out
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
bench run --reps "$REPS" --seed 1 --out "$OUT/aa-a.json"
bench run --reps "$REPS" --seed 1 --reverse --out "$OUT/aa-b.json"
bench compare "$OUT/aa-a.json" "$OUT/aa-b.json"
