#!/usr/bin/env python3
"""Compare fresh BENCH_*.json smoke numbers against committed baselines.

CI runs the bench smokes, then this script diffs the headline metrics against
the baselines committed under bench/baselines/. A drop of more than
--threshold (default 30%) on any higher-is-better metric fails the build; the
full trajectory table is printed either way so the log always shows where the
numbers are drifting, even while they stay inside the gate.

Usage:
  compare_bench.py --fresh-dir DIR [--baseline-dir bench/baselines]
                   [--threshold 0.30] [--update]

  --update rewrites the baselines from the fresh run (commit the result when
  a legitimate change moves the numbers).

Exit codes: 0 ok, 1 regression or missing file, 2 usage error.
"""

import argparse
import json
import os
import shutil
import sys

# (file, extractor) pairs; extractors yield (metric_name, value) tuples of
# higher-is-better numbers. Wall-clock metrics (blocks/s, qps) are noisy on
# shared runners — that is what the wide default threshold absorbs.
BENCH_FILES = ["BENCH_chain.json", "BENCH_query.json"]


def extract_chain(doc):
    for row in doc.get("results", []):
        key = "chain blocks/s os_threads={} overlap={}".format(
            row["os_threads"], "yes" if row["overlap_commit"] else "no"
        )
        yield key, float(row["blocks_per_sec"])


def extract_query(doc):
    baseline = doc.get("baseline", {})
    if "blocks_per_sec" in baseline:
        yield "query chain-blocks/s no-serving", float(baseline["blocks_per_sec"])
    for run in doc.get("runs", []):
        threads = run["serve_threads"]
        yield f"query qps serve_threads={threads}", float(run["qps"])
        yield f"query chain-blocks/s serve_threads={threads}", float(run["blocks_per_sec"])


EXTRACTORS = {
    "BENCH_chain.json": extract_chain,
    "BENCH_query.json": extract_query,
}


def load_metrics(path, extractor):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return dict(extractor(doc))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh-dir", required=True, help="directory with fresh BENCH_*.json")
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(os.path.dirname(__file__), "..", "bench", "baselines"),
    )
    parser.add_argument("--threshold", type=float, default=0.30)
    parser.add_argument("--update", action="store_true", help="rewrite baselines from fresh run")
    args = parser.parse_args()

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for name in BENCH_FILES:
            fresh = os.path.join(args.fresh_dir, name)
            if not os.path.exists(fresh):
                print(f"FATAL: --update but {fresh} is missing", file=sys.stderr)
                return 1
            shutil.copyfile(fresh, os.path.join(args.baseline_dir, name))
            print(f"baseline updated: {os.path.join(args.baseline_dir, name)}")
        return 0

    regressions = []
    rows = []
    for name in BENCH_FILES:
        fresh_path = os.path.join(args.fresh_dir, name)
        base_path = os.path.join(args.baseline_dir, name)
        for path, what in ((fresh_path, "fresh"), (base_path, "baseline")):
            if not os.path.exists(path):
                print(f"FATAL: {what} file missing: {path}", file=sys.stderr)
                return 1
        extractor = EXTRACTORS[name]
        fresh = load_metrics(fresh_path, extractor)
        base = load_metrics(base_path, extractor)
        for key in base:
            if key not in fresh:
                print(f"FATAL: metric '{key}' vanished from fresh {name}", file=sys.stderr)
                return 1
            delta = (fresh[key] - base[key]) / base[key] if base[key] else 0.0
            flag = ""
            if base[key] > 0 and delta < -args.threshold:
                flag = "REGRESSION"
                regressions.append((key, base[key], fresh[key], delta))
            rows.append((key, base[key], fresh[key], delta, flag))
        for key in fresh:
            if key not in base:
                # New metric with no baseline yet: report, never fail.
                rows.append((key, float("nan"), fresh[key], 0.0, "new"))

    width = max(len(r[0]) for r in rows) if rows else 20
    print(f"{'metric':<{width}}  {'baseline':>12}  {'fresh':>12}  {'delta':>8}")
    for key, base_v, fresh_v, delta, flag in rows:
        base_s = f"{base_v:12.4f}" if base_v == base_v else "           -"
        print(f"{key:<{width}}  {base_s}  {fresh_v:12.4f}  {delta:+7.1%}  {flag}")

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} metric(s) regressed more than "
            f"{args.threshold:.0%} vs committed baselines:",
            file=sys.stderr,
        )
        for key, base_v, fresh_v, delta in regressions:
            print(f"  {key}: {base_v:.4f} -> {fresh_v:.4f} ({delta:+.1%})", file=sys.stderr)
        print(
            "If this change is intentional, regenerate with "
            "scripts/compare_bench.py --update and commit the new baselines.",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: no metric regressed more than {args.threshold:.0%}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
