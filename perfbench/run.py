#!/usr/bin/env python3
"""The repository benchmark: build the harness, run one workload, check it.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_timing --seed 1 --seconds 30 --trace 0

The first run configures and builds the simulator library and the
harness under .bench_build/ (a Release build of ../src); later runs
only rebuild what changed. The harness writes its measurements to
.bench_build/run/<workload>/result.json (and spans.jsonl with
--trace 1). This script checks them: every run must succeed, every
spec must reproduce its first result bit for bit in every later pass,
the traced pass included, and at the reference seed each spec's
SimResults digest must equal the one committed under reference/. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones
(--trace 1), under the names and units that BENCHMARK.json at the
repository root lists. --write-reference rewrites
reference/<workload>.json from this run; use it only with --seed 1 and
only in a change that means to alter simulated results. See README.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
HARNESS = os.path.join(CMAKE_DIR, "perfbench_harness")
REFERENCE_SEED = 1
HARNESS_TIMEOUT_S = 170

WORKLOADS = ("grid_timing", "replay_functional", "campaign_fleet")

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """Keep compiler and harness scratch files inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_logged(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr,
                          env=child_env()).returncode == 0


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to "
            "perfbench/; run from a full checkout")
        return False
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(os.cpu_count() or 1)
    return run_logged(["cmake", "--build", CMAKE_DIR, "-j", jobs,
                       "--target", "perfbench_harness"])


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def run_harness(args, out_dir):
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", out_dir, "--git-sha", git_sha()]
    # A session of its own, so a timeout also stops campaign workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, env=child_env(),
                            start_new_session=True)
    try:
        return proc.wait(timeout=HARNESS_TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: harness timed out")
        return False


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".json")


def reference_failures(result, workload, seed):
    """Runs whose SimResults differ from the committed reference."""
    if seed != REFERENCE_SEED:
        return 0, []
    try:
        with open(reference_path(workload)) as f:
            expected = json.load(f)["digests"]
    except FileNotFoundError:
        expected = {}
    got = result["digests"]
    runs_per_spec = result["attempted"] // max(1, len(got))
    bad = sorted(label for label in set(expected) | set(got)
                 if expected.get(label) != got.get(label))
    return len(bad) * max(1, runs_per_spec), bad


def write_reference(result, workload):
    doc = {
        "seed": REFERENCE_SEED,
        "note": "FNV-1a 64 of resultsToJson(SimResults) per spec",
        "provenance": result["provenance"],
        "digests": result["digests"],
    }
    with open(reference_path(workload), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    out_dir = os.path.join(BUILD, "run", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    if not run_harness(args, out_dir):
        log("perfbench: harness failed")
        return 1
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)

    if args.write_reference:
        if args.seed != REFERENCE_SEED:
            log("perfbench: --write-reference needs --seed %d"
                % REFERENCE_SEED)
            return 2
        write_reference(result, args.workload)

    ref_failed, ref_bad = reference_failures(result, args.workload,
                                             args.seed)
    failed = result["failed"] + ref_failed
    attempted = result["attempted"]
    correct = failed == 0 and not result["span_error"]

    for msg in result["failures"]:
        log("failure: " + msg)
    for label in ref_bad:
        log("failure: %s: SimResults differ from reference/%s.json"
            % (label, args.workload))
    if result["span_error"]:
        log("failure: span tree: " + result["span_error"])

    values = result["per_layer" if args.trace else "end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in metric_units(args.trace).items()}

    print("perfbench %s seed %d: %d spec(s), %d pass(es), %d run(s), "
          "%d failed" % (args.workload, args.seed,
                         result["provenance"]["spec_count"],
                         result["passes"], attempted, failed))
    print("model: " + result["provenance"]["model"])
    print("per-run wall time (RunOutcome::wallMs): min %.0f ms, "
          "median %.0f ms" % (result["run_wall_ms"]["min"],
                              result["run_wall_ms"]["median"]))
    if args.trace:
        print("unattributed share of the traced pass: %.4f "
              "(sim.unattributed_s %.6f s of %.6f s)"
              % (values["sim.unattributed_frac"],
                 values["sim.unattributed_s"],
                 result["per_layer"]["traced_wall_s"]))
    for name, m in metrics.items():
        print("  %-28s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
