#!/usr/bin/env bash
# Smoke test: every workload, untraced and traced, on small shapes
# (scale-12 graphs, one-second windows). It checks that the benchmark
# builds offline, runs end to end and passes its own correctness checks;
# its numbers mean nothing. Under a minute on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."
kk_bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
kk_bench run all --quick --seconds 1
kk_bench trace all --quick --seconds 1
echo "smoke: ok"
