#!/usr/bin/env bash
# Every workload once, at smoke size, with every correctness check on and
# the timings ignored. Exits non-zero when any workload reports a failed
# operation. This is the hook a CI job calls:
#
#   - name: Benchmark smoke
#     run: benchmark/smoke.sh
set -euo pipefail
cd "$(dirname "$0")"
exec cargo run --release --quiet --manifest-path Cargo.toml -- \
    run --smoke --runs 1 --seconds 0 --out smoke
