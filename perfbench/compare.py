#!/usr/bin/env python3
"""Compare two sets of benchmark results by the rules in BENCHMARK.json.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are result documents, or directories of them (run.py saves one
per run under .bench_build/results/). Runs group by workload and trace mode.
Every metric's direction and regression bound come from BENCHMARK.json,
never from its name. A head median worse than the base median by more than
the bound is a regression; when the base runs' own spread (interquartile
range over median) exceeds the bound, the metric is unresolved instead.
Per-layer metrics have no bound and are listed for information.

Results are refused when their contexts differ in anything but the code
identity (git sha, source digest) and the seed.

Exit status: 0 no regression, 1 regression, 2 refused or unreadable input.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE = ("workload", "trace", "seconds", "obs_level", "build_type",
              "compiler", "nproc", "pool_width", "shape")


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = [json.loads(f.read_text()) for f in files]
    if not docs:
        sys.exit(f"compare: no result documents in {arg}")
    return docs


def key(doc):
    return (doc["context"]["workload"], doc["context"]["trace"])


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, ((q[2] - q[0]) / med) if med else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, head = load(sys.argv[1]), load(sys.argv[2])

    contexts = {}
    for doc in base + head:
        ctx = tuple(doc["context"].get(f) for f in COMPARABLE)
        contexts.setdefault(key(doc), set()).add(ctx)
    for k, seen in contexts.items():
        if len(seen) > 1:
            differing = [f for i, f in enumerate(COMPARABLE)
                         if len({c[i] for c in seen}) > 1]
            print(f"compare: refusing {k}: contexts differ in {differing}")
            return 2

    regressed = False
    for k in sorted(contexts):
        b = [d for d in base if key(d) == k]
        h = [d for d in head if key(d) == k]
        if not b or not h:
            print(f"{k[0]} trace={k[1]}: only one side has runs; skipped")
            continue
        print(f"{k[0]} trace={k[1]}: {len(b)} base runs, {len(h)} head runs")
        metrics = spec["per_layer"] if k[1] == "1" else spec["end_to_end"]
        for m in metrics:
            name = m["name"]
            bv = [d["metrics"][name] for d in b if name in d["metrics"]]
            hv = [d["metrics"][name] for d in h if name in d["metrics"]]
            if not bv or not hv:
                continue
            (bm, bspread), (hm, _) = stats(bv), stats(hv)
            change = (hm - bm) / bm if bm else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = ""
            if "bound" in m:
                if bspread > m["bound"]:
                    verdict = "unresolved (base spread over bound)"
                elif worse > m["bound"]:
                    verdict = "REGRESSION"
                    regressed = True
                else:
                    verdict = "ok"
            print(f"  {m['name']:40s} {bm:12.5g} -> {hm:12.5g} {m['unit']:6s}"
                  f" {change:+8.2%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
