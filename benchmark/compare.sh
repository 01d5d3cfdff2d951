#!/usr/bin/env bash
# compare.sh A.json B.json: two results files of run.sh side by side, one
# row per workload x end-to-end metric, judged against BENCHMARK.json's
# bounds. Exits non-zero unless every row is ok.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
(cd "$here" && cargo build --release --offline --quiet) 1>&2
exec "${CARGO_TARGET_DIR:-$root/target}/release/tricount-benchmark" compare "$@" --spec "$root/BENCHMARK.json"
