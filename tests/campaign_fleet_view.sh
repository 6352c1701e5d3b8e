#!/bin/sh
# The coordinator's telemetry stream is the fleet view. In a
# two-worker campaign whose first worker is SIGKILLed on its first
# run, ipref_top's `workers` line must show that one death and the
# one requeue, and the stream's final snapshot must show no worker
# left alive.
#
# Usage: campaign_fleet_view.sh IPREF_CAMPAIGN IPREF_WORKER IPREF_TOP

campaign=$1
worker=$2
top=$3
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
metrics=$tmp/metrics.jsonl

fail() {
    echo "FAIL: $*" >&2
    cat "$tmp/log" >&2
    exit 1
}

"$campaign" --specs 4 --workers 2 --worker-bin "$worker" \
    --worker-faults worker.crash_run@1/spawn0 \
    --metrics-out "$metrics" --metrics-interval-ms 20 >"$tmp/log" 2>&1 ||
    fail "campaign exited $?"

"$top" --jsonl "$metrics" --once >"$tmp/top" 2>>"$tmp/log" ||
    fail "ipref_top exited $?"
line=$(grep '^  workers ' "$tmp/top") ||
    fail "no workers line in: $(cat "$tmp/top")"
case $line in
*" deaths 1 "*" requeues 1 "*) ;;
*) fail "want deaths 1 and requeues 1: $line" ;;
esac

final=$(tail -n 1 "$metrics")
printf '%s\n' "$final" |
    grep -q '"ipref_campaign_workers_alive": 0[,}]' ||
    fail "final snapshot has workers alive: $final"
echo "ok: $line"
