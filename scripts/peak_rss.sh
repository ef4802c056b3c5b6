#!/usr/bin/env bash
# Runs a command and fails if its peak resident set exceeded a limit:
#
#   scripts/peak_rss.sh <limit-mb> <cmd…>
#
# Prints the peak on stderr. Exit status: the command's own if it failed,
# 1 if it succeeded but peaked above the limit, 0 otherwise. No clock is
# involved, so the check holds on a loaded CI runner. The figure is what
# `/usr/bin/time -v` reports (`getrusage(RUSAGE_CHILDREN)` once the child
# has exited, KiB on Linux) without needing it installed; its floor is the
# forked interpreter's own ≈ 11 MB.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,11p' "$0" >&2
    exit 2
fi

exec python3 -c '
import resource, subprocess, sys

limit_mb = float(sys.argv[1])
code = subprocess.call(sys.argv[2:])
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
command = " ".join(sys.argv[2:])
print(f"peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB): {command}", file=sys.stderr)
if code != 0:
    sys.exit(code if code > 0 else 1)
if peak_mb > limit_mb:
    print(f"::error::peak RSS {peak_mb:.1f} MB exceeds {limit_mb:g} MB", file=sys.stderr)
    sys.exit(1)
' "$@"
