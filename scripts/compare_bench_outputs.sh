#!/usr/bin/env bash
# Byte-identity check for the figure and ablation benches: runs every
# fig*/abl_* bench at a small scale and compares its --csv stdout byte
# for byte with a second build, or by FNV-1a 64 digest with the
# committed tests/golden/figures.txt. A change that promises the same
# behaviour from less code must leave these outputs unchanged; one
# that means to alter them rewrites the digests with --write and says
# why in CHANGES.md.
#
# Host-timed benches (perf_throughput, trace_decode, micro_structures)
# print wall-clock numbers and are not compared.
#
# Usage: scripts/compare_bench_outputs.sh BUILD_A BUILD_B
#        scripts/compare_bench_outputs.sh --check BUILD
#        scripts/compare_bench_outputs.sh --write BUILD
# Exits 0 when every bench matches, 1 on a difference or a failed run.
set -euo pipefail

golden=$(cd "$(dirname "$0")/.." && pwd)/tests/golden/figures.txt
mode=pair
case "${1:-}" in
    --check|--write) mode=${1#--}; shift ;;
esac
if { [ "$mode" = pair ] && [ $# -ne 2 ]; } || { [ "$mode" != pair ] && [ $# -ne 1 ]; }; then
    echo "usage: $0 BUILD_A BUILD_B | --check BUILD | --write BUILD" >&2
    exit 2
fi
a=$(cd "$1" && pwd)
[ "$mode" = pair ] && b=$(cd "$2" && pwd)

# Benches may write side files (fig12 writes its JSON summary) into
# the working directory, so they run in a scratch directory.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run() { # BUILD BENCH OUT
    (cd "$tmp" && "$1/bench/$2" --scale 0.05 --jobs 2 --csv) >"$3" 2>"$3.err"
}

fnv1a64() { # FILE
    python3 -c 'import sys
h = 0xcbf29ce484222325
for b in open(sys.argv[1], "rb").read():
    h = ((h ^ b) * 0x100000001b3) & 0xffffffffffffffff
print("%016x" % h)' "$1"
}

benches=()
for bin in "$a"/bench/fig* "$a"/bench/abl_*; do
    [ -f "$bin" ] && [ -x "$bin" ] && benches+=("$(basename "$bin")")
done
if [ "${#benches[@]}" -eq 0 ]; then
    echo "no fig*/abl_* benches under $a/bench" >&2
    exit 2
fi

status=0
out=$tmp/digests
for name in "${benches[@]}"; do
    if ! run "$a" "$name" "$tmp/$name.a" ||
       { [ "$mode" = pair ] && ! run "$b" "$name" "$tmp/$name.b"; }; then
        echo "FAILED   $name"
        cat "$tmp/$name".*.err >&2 || true
        status=1
        continue
    fi
    ok=0
    if [ "$mode" = pair ]; then
        cmp -s "$tmp/$name.a" "$tmp/$name.b" || ok=1
    else
        echo "$name $(fnv1a64 "$tmp/$name.a")" >>"$out"
        [ "$mode" = write ] || grep -qxF "$(tail -n 1 "$out")" "$golden" || ok=1
    fi
    if [ "$mode" = write ]; then
        echo "digest   $name"
    elif [ "$ok" -eq 0 ]; then
        echo "same     $name"
    else
        echo "DIFFERS  $name"
        [ "$mode" = pair ] && { diff "$tmp/$name.a" "$tmp/$name.b" | head -n 20 || true; }
        status=1
    fi
done
if [ "$mode" = write ] && [ "$status" -eq 0 ]; then
    cp "$out" "$golden"
    echo "wrote $golden"
fi
echo "${#benches[@]} benches compared"
exit "$status"
