#!/usr/bin/env python3
"""Median and quartiles of every metric over saved run records.

    python3 perfbench/summarize.py [RECORD.json ...]

Without arguments it reads every record under perfbench/out/records/.
Runs are grouped by workload; untraced runs give the end-to-end metrics
(those of the result line and those only printed), traced runs the
per-layer ones. Spread is (q3 - q1) / median, the figure
the benchmark's bounds are compared with. Exact counts (units count and
bytes) are listed per seed, with a flag saying whether repeated traced
runs of that seed agreed bit for bit.
"""

import json
import statistics
import sys
from pathlib import Path

RECORDS = Path(__file__).resolve().parent / "out" / "records"


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def summarize(paths: list[Path]) -> dict:
    runs = [json.loads(p.read_text()) for p in sorted(paths)]
    groups: dict = {}
    counts: dict = {}
    digests: dict = {}
    for r in runs:
        kind = "per_layer" if r["trace"] else "end_to_end"
        per = groups.setdefault(kind, {}).setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            per.setdefault(name, []).append(m["value"])
        digests.setdefault(r["workload"], {}).setdefault(str(r["seed"]), set()).add(
            r["combined_digest"])
        if r["trace"]:
            exact = {k: m["value"] for k, m in r["metrics"].items()
                     if m["unit"] in ("count", "bytes")}
            counts.setdefault(r["workload"], {}).setdefault(str(r["seed"]), []).append(exact)
    return {
        "runs": len(runs),
        "all_correct": all(r["correct"] for r in runs),
        **{kind: {w: {name: stats(v) for name, v in metrics.items()}
                  for w, metrics in per_workload.items()}
           for kind, per_workload in groups.items()},
        "exact_counts": {w: {seed: {"runs": len(c), "repeat_exactly": all(x == c[0] for x in c),
                                    "counts": c[0]}
                             for seed, c in by_seed.items()}
                         for w, by_seed in counts.items()},
        "output_digests": {w: {seed: sorted(d) for seed, d in by_seed.items()}
                           for w, by_seed in digests.items()},
    }


if __name__ == "__main__":
    paths = [Path(a) for a in sys.argv[1:]] or [
        p for p in RECORDS.glob("*.json") if not p.name.endswith(".spans.json")]
    print(json.dumps(summarize(paths), indent=1))
