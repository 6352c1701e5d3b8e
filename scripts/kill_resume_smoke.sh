#!/usr/bin/env bash
# Kill-and-resume smoke test for the fault-tolerant batch runner:
# SIGKILL a checkpointed bench sweep mid-batch, resume it, and require
# (a) the runs that completed before the kill are restored from the
#     manifest byte-identically (not re-run), and
# (b) the final JSON report equals an uninterrupted run's, after
#     masking wall-clock-derived fields (the "profile" subtree).
#
# Usage: scripts/kill_resume_smoke.sh [build-dir]
set -euo pipefail

SCRIPTS=$(dirname "$0")
RUNS=$SCRIPTS/manifest_runs.py

BUILD=${1:-build}
BENCH=$BUILD/bench/fig02_l2_misses
SCALE=${IPREF_SMOKE_SCALE:-0.05}
SEED=${IPREF_SMOKE_SEED:-42}
JOBS=2

if [ ! -x "$BENCH" ]; then
    echo "error: $BENCH not built" >&2
    exit 2
fi

# The trap also reaps the background sweep: if an assertion fails
# between fork and kill, the orphaned bench must not outlive us.
pid=
tmp=$(mktemp -d)
trap '[ -n "$pid" ] && kill -9 "$pid" 2>/dev/null; rm -rf "$tmp"' EXIT

echo "== uninterrupted baseline"
"$BENCH" --scale "$SCALE" --jobs "$JOBS" --seed "$SEED" \
    --stats-json "$tmp/clean.json" \
    --manifest "$tmp/clean_manifest.json" >/dev/null

total=$(python3 "$RUNS" "$tmp/clean_manifest.json")
echo "   $total runs"

echo "== start sweep, SIGKILL mid-batch"
"$BENCH" --scale "$SCALE" --jobs "$JOBS" --seed "$SEED" \
    --stats-json "$tmp/killed.json" \
    --manifest "$tmp/manifest.json" >/dev/null 2>&1 &
pid=$!
# Wait until some (but not all) runs have checkpointed, then kill -9.
for _ in $(seq 1 400); do
    n=$(python3 "$RUNS" "$tmp/manifest.json" 2>/dev/null || echo 0)
    if [ "$n" -ge 1 ] && [ "$n" -lt "$total" ]; then
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        break
    fi
    sleep 0.02
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

done_at_kill=$(python3 "$RUNS" "$tmp/manifest.json")
echo "   killed with $done_at_kill/$total runs checkpointed"
if [ "$done_at_kill" -ge "$total" ]; then
    echo "warning: batch finished before the kill landed; resume is" \
         "restore-only this time" >&2
fi
cp "$tmp/manifest.json" "$tmp/manifest_at_kill.json"

echo "== resume"
"$BENCH" --scale "$SCALE" --jobs "$JOBS" --seed "$SEED" \
    --stats-json "$tmp/resumed.json" \
    --manifest "$tmp/manifest.json" --resume >/dev/null
pid=

python3 - "$tmp" "$SCRIPTS" <<'EOF'
import json, sys

sys.path.insert(0, sys.argv[-1])
from manifest_runs import runs

tmp = sys.argv[1]


def load(name):
    with open(f"{tmp}/{name}") as f:
        return json.load(f)


# (a) Entries checkpointed before the kill are byte-identical in the
# final manifest -- completed work was restored, not re-run.
snapshot = {r["fingerprint"]: r for r in runs(f"{tmp}/manifest_at_kill.json")}
final = {r["fingerprint"]: r for r in runs(f"{tmp}/manifest.json")}
clean = {r["fingerprint"]: r for r in runs(f"{tmp}/clean_manifest.json")}

assert set(final) == set(clean), "resumed manifest misses runs"
for fp, entry in snapshot.items():
    if entry["status"] != "ok":
        continue
    assert final[fp] == entry, f"completed run {fp} was re-run on resume"

# Results (exact hex counters) must match the uninterrupted sweep;
# wall_ms is the only nondeterministic manifest field.
for fp, entry in clean.items():
    assert entry["status"] == "ok", f"baseline run {fp} failed"
    assert final[fp]["status"] == "ok", f"resumed run {fp} failed"
    assert final[fp]["results"] == entry["results"], \
        f"run {fp}: resumed results differ from uninterrupted run"

# (b) The final JSON report equals the uninterrupted one after masking
# the wall-clock subtree and the trailing campaign_summary document:
# its trace-cache counters are process-global, so a resumed process
# (which decodes fewer traces) legitimately reports different totals.
def mask(reports):
    reports = [r for r in reports if "campaign_summary" not in r]
    for r in reports:
        r.pop("profile", None)
    return reports


clean_rep = mask(load("clean.json"))
resumed_rep = mask(load("resumed.json"))
assert clean_rep == resumed_rep, \
    "resumed JSON report differs from uninterrupted run"
print(f"   {len(snapshot)} restored + {len(final) - len(snapshot)} "
      f"resumed runs match the uninterrupted sweep")
EOF

echo "kill+resume smoke OK"
