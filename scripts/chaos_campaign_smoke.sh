#!/usr/bin/env bash
# Chaos smoke test for the distributed campaign coordinator: run a
# fig02-sized spec grid on 4 crash-isolated workers under a scheduled
# fault-injection campaign — two SIGKILL worker crashes, then the
# coordinator itself dying hard (_exit right after checkpointing an
# outcome), then a resume that kills two more workers (a crash and a
# wedged worker caught by the heartbeat deadline) — and require the
# final JSON report to be byte-identical to an unperturbed sequential
# single-process run, modulo the wall-clock "profile" subtree and the
# process-global campaign_summary trailer.
#
# The coordinator kill uses the deterministic coord.exit_after_death
# fault point rather than a racy external kill -9: the process dies
# with no unwinding at an exactly known point (right after the first
# outcome recorded after the second worker death), which is the same
# failure mode at the worst possible moment, reproducibly. Both deaths
# before it are crashes on early runs, so it lands mid-campaign on
# hosts of any speed; the wedged worker belongs to the resume, which
# cannot finish before the heartbeat deadline reaps it.
#
# Usage: scripts/chaos_campaign_smoke.sh [build-dir]
set -euo pipefail

SCRIPTS=$(dirname "$0")
RUNS=$SCRIPTS/manifest_runs.py

BUILD=${1:-build}
CAMPAIGN=$BUILD/tools/ipref_campaign
WORKER=$BUILD/tools/ipref_worker
SPECS=${IPREF_CHAOS_SPECS:-200}

if [ ! -x "$CAMPAIGN" ] || [ ! -x "$WORKER" ]; then
    echo "error: $CAMPAIGN / $WORKER not built" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== sequential single-process baseline ($SPECS specs)"
"$CAMPAIGN" --specs "$SPECS" --workers 0 \
    --stats-json "$tmp/clean.json" \
    --manifest "$tmp/clean_manifest.json" > "$tmp/clean.log"

echo "== chaos campaign: 4 workers, 2 scheduled worker kills," \
     "coordinator _exit after the outcome that follows the second"
set +e
IPREF_FAULTS="coord.exit_after_death@2" \
"$CAMPAIGN" --specs "$SPECS" --workers 4 --worker-bin "$WORKER" \
    --worker-faults "worker.crash_run@4/spawn0,worker.crash_run@7/spawn1" \
    --heartbeat-ms 25 --heartbeat-timeout-ms 1000 \
    --stats-json "$tmp/chaos.json" \
    --manifest "$tmp/manifest.json" > "$tmp/chaos.log" 2>&1
rc=$?
set -e
if [ "$rc" -eq 0 ]; then
    echo "error: coordinator survived its scheduled death" >&2
    exit 1
fi

done_at_kill=$(python3 "$RUNS" "$tmp/manifest.json")
echo "   coordinator died (exit $rc) with $done_at_kill/$SPECS runs checkpointed"
if [ "$done_at_kill" -lt 1 ] || [ "$done_at_kill" -ge "$SPECS" ]; then
    echo "error: coordinator death did not land mid-campaign" >&2
    exit 1
fi
cp "$tmp/manifest.json" "$tmp/manifest_at_kill.json"

deaths_round1=$(grep -c "died" "$tmp/chaos.log" || true)
echo "   $deaths_round1 worker death(s) logged before the coordinator died"

echo "== resume with a crash and a wedged worker"
"$CAMPAIGN" --specs "$SPECS" --workers 4 --worker-bin "$WORKER" \
    --worker-faults "worker.crash_run@2/spawn0,worker.heartbeat_stall@1/spawn2,worker.wedge_run@5/spawn2:60000" \
    --heartbeat-ms 25 --heartbeat-timeout-ms 1000 \
    --stats-json "$tmp/final.json" \
    --manifest "$tmp/manifest.json" --resume > "$tmp/resume.log" 2>&1

deaths_round2=$(grep -c "died" "$tmp/resume.log" || true)
total_deaths=$((deaths_round1 + deaths_round2))
echo "   resume completed; $deaths_round2 more worker death(s)," \
     "$total_deaths total"
if [ "$total_deaths" -lt 4 ]; then
    echo "error: expected >= 4 worker deaths across both rounds" >&2
    cat "$tmp/chaos.log" "$tmp/resume.log" >&2
    exit 1
fi

python3 - "$tmp" "$SPECS" "$SCRIPTS" <<'EOF'
import json, sys

sys.path.insert(0, sys.argv[-1])
from manifest_runs import runs

tmp, specs = sys.argv[1], int(sys.argv[2])


def load(name):
    with open(f"{tmp}/{name}") as f:
        return json.load(f)


# Runs checkpointed before the coordinator died were restored, not
# re-run: their manifest entries survive into the final manifest
# byte-identically.
snapshot = {r["fingerprint"]: r
            for r in runs(f"{tmp}/manifest_at_kill.json")}
final = {r["fingerprint"]: r for r in runs(f"{tmp}/manifest.json")}
clean = {r["fingerprint"]: r
         for r in runs(f"{tmp}/clean_manifest.json")}

assert set(final) == set(clean), "final manifest misses runs"
for fp, entry in snapshot.items():
    if entry["status"] != "ok":
        continue
    assert final[fp] == entry, \
        f"run {fp} checkpointed before the kill was re-run on resume"

# Every spec ended ok, with results (exact hex counters) identical to
# the unperturbed sequential run -- worker kills, requeues, respawns
# and the coordinator death left no trace in the science.
for fp, entry in clean.items():
    assert entry["status"] == "ok", f"baseline run {fp} failed"
    assert final[fp]["status"] == "ok", \
        f"chaos run {fp}: {final[fp]['status']}"
    assert final[fp]["results"] == entry["results"], \
        f"run {fp}: chaos results differ from sequential run"

# The final JSON report equals the sequential one after masking the
# wall-clock "profile" subtree and the campaign_summary trailer
# (process-global trace-cache stats legitimately differ across
# processes). Attempt counts live in the manifest, not the report.
def mask(reports):
    reports = [r for r in reports if "campaign_summary" not in r]
    for r in reports:
        r.pop("profile", None)
    return reports


clean_rep = mask(load("clean.json"))
final_rep = mask(load("final.json"))
assert len(clean_rep) == specs, \
    f"baseline report has {len(clean_rep)} docs, expected {specs}"
assert clean_rep == final_rep, \
    "chaos campaign report differs from sequential single-process run"
print(f"   {len(snapshot)} restored + {len(final) - len(snapshot)} "
      f"resumed runs; report identical to the sequential baseline")
EOF

echo "chaos campaign smoke OK"
