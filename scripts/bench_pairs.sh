#!/usr/bin/env bash
# Alternating seed-matched benchmark pairs of a parent commit against the
# working tree, the way choosing-metrics §8 wants a gain shown:
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10]
#
# Checks the parent out under the ignored /.bench_build, builds both sides'
# benchmark once (each into its own target directory there), then for
# i = 1..pairs runs `st-benchmark run --workload W --seed i --seconds 8
# --trace 0` on both, parent first on odd pairs and change first on even
# ones, prints the pair's four end-to-end metrics (parent → change),
# collects the run files into two result sets and hands them to
# `st-benchmark compare` (exit status: its).
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
build="$root/.bench_build/pairs"
parent="$build/parent-$sha"
if [ ! -d "$parent" ]; then
    mkdir -p "$parent.partial"
    git -C "$root" archive "$sha" | tar -x -C "$parent.partial"
    mv "$parent.partial" "$parent"
fi

# side <name> <source tree>: builds it and sets <name>_bin.
side() {
    cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml" --target-dir "$build/target-$1"
    printf -v "$1_bin" '%s' "$build/target-$1/release/st-benchmark"
}
side parent "$parent"
side change "$root"

# one <binary> <source tree> <seed>: a run; prints its result file's path.
one() {
    local file="$2/benchmark/out/run-$workload-s$3-t0.json"
    rm -f "$file"
    # A run that fails its checks exits 1 but leaves its file; compare
    # reports the failed operations.
    "$1" run --workload "$workload" --seed "$3" --seconds 8 --trace 0 >/dev/null || true
    [ -f "$file" ] || { echo "$workload seed $3: no result from $1" >&2; exit 1; }
    echo "$file"
}

metric() {
    grep -o "\"name\": \"$2\", \"unit\": \"[^\"]*\", \"value\": \"[^\"]*\"" "$1" |
        sed 's/.*"value": "\([^"]*\)"/\1/'
}

parent_runs=()
change_runs=()
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(one "$parent_bin" "$parent" "$i")
        c=$(one "$change_bin" "$root" "$i")
    else
        c=$(one "$change_bin" "$root" "$i")
        p=$(one "$parent_bin" "$parent" "$i")
    fi
    # Keep the files: the next pair of another invocation may overwrite them.
    cp "$p" "$build/parent-$workload-s$i.json"
    cp "$c" "$build/change-$workload-s$i.json"
    parent_runs+=("$build/parent-$workload-s$i.json")
    change_runs+=("$build/change-$workload-s$i.json")
    line="pair $i:"
    for m in pass_wall_s work_per_s peak_rss_mb setup_s; do
        line+=$(printf ' %s %.4f -> %.4f;' "$m" "$(metric "$p" "$m")" "$(metric "$c" "$m")")
    done
    echo "${line%;}"
done

# set <output> <run files...>: the files as one st-benchmark result set.
set_of() {
    local out=$1
    shift
    {
        printf '{"schema": "st-benchmark/results-v1", "runs": ['
        local sep=''
        for f in "$@"; do
            printf '%s' "$sep"
            tr -d '\n' <"$f"
            sep=', '
        done
        printf ']}\n'
    } >"$out"
}
set_of "$build/results-$workload-parent.json" "${parent_runs[@]}"
set_of "$build/results-$workload-change.json" "${change_runs[@]}"
echo "sets: $build/results-$workload-{parent,change}.json"
exec "$change_bin" compare "$build/results-$workload-parent.json" "$build/results-$workload-change.json"
