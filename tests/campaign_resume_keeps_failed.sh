#!/bin/sh
# A resumed campaign keeps the manifest it loaded: a failed entry
# that has not been re-run yet keeps its lifetime attempt count even
# when the coordinator dies again before reaching it.
#
# 1. Two of four specs end Failed: one attempt each (--retries 1),
#    and the worker running each is SIGKILLed (worker.crash_run on
#    spawns 0 and 1).
# 2. --resume dies right after checkpointing its first re-run outcome
#    (coord.exit_record@1).
# 3. The manifest must still name every spec of step 1, and the
#    failed spec not yet re-run must still show "attempts": 1.
#
# Usage: campaign_resume_keeps_failed.sh IPREF_CAMPAIGN IPREF_WORKER

campaign=$1
worker=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
manifest=$tmp/manifest.json

run() {
    "$campaign" --specs 4 --workers 1 --retries 1 --worker-bin "$worker" \
        --manifest "$manifest" "$@" >>"$tmp/log" 2>&1
}

# The manifest is a journal of one run per line, where the last line
# of a fingerprint wins; print "fingerprint status attempts" for each.
entries() {
    sed -n 's/.*"fingerprint": "\([^"]*\)", "status": "\([^"]*\)", "attempts": \([0-9]*\).*/\1 \2 \3/p' "$1" |
        awk '{ last[$1] = $0 } END { for (fp in last) print last[fp] }'
}

fail() {
    echo "FAIL: $*" >&2
    cat "$tmp/log" >&2
    exit 1
}

run --worker-faults "worker.crash_run@1/spawn0,worker.crash_run@1/spawn1"
entries "$manifest" >"$tmp/first"
[ "$(wc -l <"$tmp/first")" -eq 4 ] || fail "first run did not record 4 specs"
grep ' failed 1$' "$tmp/first" >"$tmp/failed"
[ "$(wc -l <"$tmp/failed")" -eq 2 ] ||
    fail "first run did not end two specs failed after one attempt"

IPREF_FAULTS=coord.exit_record@1 run --resume
status=$?
[ "$status" -eq 137 ] || fail "resume exited $status, want 137"

entries "$manifest" >"$tmp/second"
while read -r fp _ _; do
    grep -q "^$fp " "$tmp/second" || fail "resume dropped the entry of $fp"
done <"$tmp/first"
# The re-run spec now has two attempts; the other keeps its one.
[ "$(grep -c ' failed 1$' "$tmp/second")" -eq 1 ] ||
    fail "the failed spec not yet re-run lost its attempt count"
echo "ok: resumed manifest keeps every spec and its attempt count"
