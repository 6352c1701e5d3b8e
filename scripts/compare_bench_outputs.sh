#!/usr/bin/env bash
# Byte-identity check for the figure and ablation benches: runs every
# fig*/abl_* bench of two build trees at a small scale and compares
# their --csv stdout byte for byte. A change that promises the same
# behaviour from less code must leave these outputs unchanged.
#
# Host-timed benches (perf_throughput, trace_decode, micro_structures)
# print wall-clock numbers and are not compared.
#
# Usage: scripts/compare_bench_outputs.sh BUILD_A BUILD_B
# Exits 0 when every bench matches, 1 on a difference or a failed run.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BUILD_A BUILD_B" >&2
    exit 2
fi
a=$(cd "$1" && pwd)
b=$(cd "$2" && pwd)

# Benches may write side files (fig12 writes its JSON summary) into
# the working directory, so they run in a scratch directory.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run() { # BUILD BENCH OUT
    (cd "$tmp" && "$1/bench/$2" --scale 0.05 --jobs 2 --csv) >"$3" 2>"$3.err"
}

status=0
count=0
for bin in "$a"/bench/fig* "$a"/bench/abl_*; do
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    name=$(basename "$bin")
    count=$((count + 1))
    if ! run "$a" "$name" "$tmp/$name.a" || ! run "$b" "$name" "$tmp/$name.b"; then
        echo "FAILED   $name"
        cat "$tmp/$name".*.err >&2 || true
        status=1
    elif cmp -s "$tmp/$name.a" "$tmp/$name.b"; then
        echo "same     $name"
    else
        echo "DIFFERS  $name"
        diff "$tmp/$name.a" "$tmp/$name.b" | head -n 20 || true
        status=1
    fi
done
if [ "$count" -eq 0 ]; then
    echo "no fig*/abl_* benches under $a/bench" >&2
    exit 2
fi
echo "$count benches compared"
exit "$status"
