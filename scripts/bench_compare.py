#!/usr/bin/env python3
"""Compare a fresh benchmark JSON report against a checked-in baseline.

Works on the reports bench/perf_throughput and bench/trace_decode
write with --out.  Throughput-style metrics (minstr_per_sec,
mrec_per_sec) are higher-is-better; the fresh
value must stay within --tolerance of the baseline:

    fresh >= baseline * (1 - tolerance)

Each compared series prints the fresh-vs-baseline delta as a signed
percentage (e.g. "+140.2%" or "-3.1%") next to its verdict.

Anything else in the reports (wall seconds, file sizes, instruction
counts) depends on configuration, not performance, and is ignored.
Context fields (scale, reps, records, cores, workload) are checked
for equality and mismatches reported as warnings — a baseline taken
at a different scale is not comparable, but the comparison still
runs so CI logs show the numbers.

Exit status: 0 when every tracked metric is within tolerance,
1 on a regression or a metric missing from the fresh report,
2 on bad input.

With --update, the comparison still prints but the baseline file is
then rewritten in place with the fresh report (machine upgrades,
intentional perf changes), and the exit status is 0 regardless of
regressions — refreshing a stale baseline is the point.

Usage:
    bench_compare.py BASELINE FRESH [--tolerance 0.5] [--update]

Stdlib only — no third-party dependencies.
"""

import argparse
import json
import sys

# Higher-is-better metrics tracked across commits.
TRACKED = ("minstr_per_sec", "mrec_per_sec")

# Keys that identify a row inside a report's series array.
IDENTITY_KEYS = ("scheme", "reader", "label", "name")

# Configuration fields that must match for the numbers to be
# comparable at all.
CONTEXT_KEYS = ("benchmark", "workload", "cores", "scale", "reps",
                "records")


def extract(doc):
    """Flatten a report into {(series, metric): value}.

    Top-level tracked numbers get an empty series id; arrays of
    objects contribute one series per identity key value.
    """
    out = {}
    for key, val in doc.items():
        if key in TRACKED and isinstance(val, (int, float)):
            out[("", key)] = float(val)
        elif isinstance(val, list):
            for item in val:
                if not isinstance(item, dict):
                    continue
                ident = next((str(item[k]) for k in IDENTITY_KEYS
                              if k in item), None)
                if ident is None:
                    continue
                for mk, mv in item.items():
                    if mk in TRACKED and isinstance(mv, (int, float)):
                        out[(ident, mk)] = float(mv)
    return out


def context(doc):
    return {k: doc[k] for k in CONTEXT_KEYS if k in doc}


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(
        description="compare a fresh benchmark report to a baseline")
    ap.add_argument("baseline", help="checked-in baseline JSON")
    ap.add_argument("fresh", help="freshly produced JSON")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="allowed fractional slowdown before a "
                         "regression is flagged (default 0.5, i.e. "
                         "fresh must reach 50%% of baseline)")
    ap.add_argument("--update", action="store_true",
                    help="after comparing, rewrite BASELINE with the "
                         "fresh report and exit 0 (intentional "
                         "baseline refresh)")
    args = ap.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        print("bench_compare: --tolerance must be in [0, 1)",
              file=sys.stderr)
        sys.exit(2)

    base_doc = load(args.baseline)
    fresh_doc = load(args.fresh)

    base_ctx, fresh_ctx = context(base_doc), context(fresh_doc)
    for k in sorted(set(base_ctx) | set(fresh_ctx)):
        if base_ctx.get(k) != fresh_ctx.get(k):
            print(f"warning: context mismatch on '{k}': baseline="
                  f"{base_ctx.get(k)!r} fresh={fresh_ctx.get(k)!r}")

    base = extract(base_doc)
    fresh = extract(fresh_doc)
    if not base:
        print(f"bench_compare: no tracked metrics in {args.baseline}",
              file=sys.stderr)
        sys.exit(2)

    floor = 1.0 - args.tolerance
    rows = []
    failures = 0
    for (series, metric), b in sorted(base.items()):
        f = fresh.get((series, metric))
        if f is None:
            rows.append((series, metric, b, None, None, "MISSING"))
            failures += 1
            continue
        ratio = f / b if b else float("inf")
        ok = ratio >= floor
        rows.append((series, metric, b, f, ratio,
                     "ok" if ok else "REGRESSION"))
        if not ok:
            failures += 1
    for key in sorted(set(fresh) - set(base)):
        print(f"warning: '{key[1]}' [{key[0]}] in fresh report has "
              "no baseline; not compared")

    name = f"{base_doc.get('benchmark', '?')}"
    print(f"bench_compare: {name}  (tolerance {args.tolerance:.0%}, "
          f"floor {floor:.0%} of baseline)")
    width = max((len(s) for s, *_ in rows), default=0)
    for series, metric, b, f, ratio, status in rows:
        sid = series.ljust(width) if series else "-".ljust(width)
        if f is None:
            print(f"  {sid}  {metric:<22} base {b:>10.3f}  "
                  f"fresh    missing              {status}")
        else:
            delta = ratio - 1.0
            print(f"  {sid}  {metric:<22} base {b:>10.3f}  "
                  f"fresh {f:>10.3f}  ({delta:+7.1%})  {status}")

    if args.update:
        try:
            with open(args.baseline, "w") as f:
                json.dump(fresh_doc, f, indent=2)
                f.write("\n")
        except OSError as e:
            print(f"bench_compare: cannot rewrite {args.baseline}: "
                  f"{e}", file=sys.stderr)
            sys.exit(2)
        print(f"bench_compare: baseline {args.baseline} updated from "
              f"{args.fresh}"
              + (f" (overrode {failures} regression(s))"
                 if failures else ""))
        return 0

    if failures:
        print(f"bench_compare: {failures} metric(s) below the "
              f"{floor:.0%} floor", file=sys.stderr)
        return 1
    print("bench_compare: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
