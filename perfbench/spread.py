#!/usr/bin/env python3
"""Summarise a directory of benchmark results.

Each file in DIR is the standard output of one run, named
`<workload>.<seed>.txt`; its last line is the JSON result. For every
workload and metric this prints the median over the runs and the
interquartile range as a share of the median, computed as
`statistics.quantiles(values, n=4)` gives the quartiles, and flags a
spread above a third of the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py DIR [BENCHMARK.json]
"""

import json
import os
import statistics
import sys
from collections import defaultdict


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    root = sys.argv[1]
    spec_path = sys.argv[2] if len(sys.argv) == 3 else "BENCHMARK.json"
    with open(spec_path) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = defaultdict(list)
    for name in sorted(os.listdir(root)):
        if not name.endswith(".txt") or name.count(".") < 2:
            continue
        workload = name.rsplit(".", 2)[0]
        with open(os.path.join(root, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result line")
            continue
        if not result["correct"] or result["failed"]:
            print(f"{name}: INCORRECT ({result['failed']} failed)")
        runs[workload].append(result["metrics"])

    for workload, results in runs.items():
        print(f"{workload} ({len(results)} runs)")
        for metric in results[0]:
            values = [r[metric]["value"] for r in results]
            unit = results[0][metric]["unit"]
            med = statistics.median(values)
            if len(values) > 1 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of its bound"
            print(f"  {metric:<28} median {med:<14.6g} {unit:<9} "
                  f"iqr/median {spread:.3f}{flag}")


if __name__ == "__main__":
    main()
