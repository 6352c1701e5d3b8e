#!/usr/bin/env python3
"""Read a campaign manifest: a JSON-lines journal whose first line is
the {"version": N} header and whose later lines are one run each.

runs(path) returns the runs, the last line of a fingerprint winning, in
first-record order. A last line without its newline is an append still
in flight (or cut short by a kill) and is dropped.

Usage: scripts/manifest_runs.py MANIFEST   prints the number of runs
"""
import json
import sys


def runs(path):
    with open(path) as f:
        lines = f.read().split("\n")[1:-1]
    latest = {}
    for line in lines:
        run = json.loads(line)
        latest[run["fingerprint"]] = run
    return list(latest.values())


if __name__ == "__main__":
    print(len(runs(sys.argv[1])))
