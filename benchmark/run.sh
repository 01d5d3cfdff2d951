#!/usr/bin/env bash
# The benchmark's one command. Builds the release binary, then
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run; its last
#                                                          line is the JSON result
#   run.sh [--seed N] [--workload W] [--repeat K] [--only-trace 0|1] [--smoke]
#                                                          the suite: every run in a
#                                                          fresh process, one results file
#
# Reports, traces and generated inputs go to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# cargo resolves a relative CARGO_TARGET_DIR against its working directory,
# which is about to change
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
# build output must not reach stdout, whose last line is the result
(cd "$here" && cargo build --release --offline --quiet) 1>&2
bin="${CARGO_TARGET_DIR:-$root/target}/release/tricount-benchmark"

case " $* " in
*" --trace "*) exec "$bin" "$@" --out "$here/out" ;;
*) exec "$bin" suite "$@" --out "$here/out" --spec "$root/BENCHMARK.json" ;;
esac
