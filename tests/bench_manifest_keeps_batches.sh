#!/bin/sh
# A bench that runs several batches under one --manifest keeps every
# batch's entries. fig05 runs two batches, 45 distinct specs in all:
# the manifest must hold one entry per fingerprint, 45, and a
# --resume must restore them all, appending no line and printing the
# same tables.
#
# Usage: bench_manifest_keeps_batches.sh FIG05_PREFETCH_MISSRATE

bench=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
manifest=$tmp/manifest.json

run() {
    "$bench" --scale 0.05 --jobs 2 --manifest "$manifest" "$@" \
        2>>"$tmp/log"
}

fail() {
    echo "FAIL: $*" >&2
    cat "$tmp/log" >&2
    exit 1
}

run >"$tmp/first" || fail "first run exited $?"
entries=$(grep -c '"fingerprint"' "$manifest")
distinct=$(sed -n 's/.*"fingerprint": "\([^"]*\)".*/\1/p' "$manifest" |
    sort -u | wc -l)
[ "$entries" -eq 45 ] && [ "$distinct" -eq 45 ] ||
    fail "want 45 entries, one per fingerprint: $entries entries," \
        "$distinct fingerprints"

cp "$manifest" "$tmp/before"
run --resume >"$tmp/second" || fail "resume exited $?"
cmp -s "$manifest" "$tmp/before" || fail "--resume changed the manifest"
cmp -s "$tmp/first" "$tmp/second" ||
    fail "--resume printed other tables: $(diff "$tmp/first" "$tmp/second")"
echo "ok: $entries entries, and a --resume restores them all"
