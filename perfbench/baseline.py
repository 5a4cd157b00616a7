"""Summarise benchmark result files into one baseline document.

    python3 perfbench/baseline.py [RESULTS_DIR] > perfbench/baseline.json

Reads every ``<workload>-seed<N>-trace<0|1>.json`` that ``run.py`` wrote to
RESULTS_DIR (default ``.perfbench``) and prints, per workload, the seeds,
the provenance of the first run, and for every reported metric its median
and quartiles over the runs (``statistics.quantiles(values, n=4)``).
"""

import glob
import json
import os
import statistics
import sys


def summarise(results_dir: str) -> dict:
    runs: dict[tuple, list] = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*-seed*-trace*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        prov = doc["provenance"]
        runs.setdefault((prov["workload"], prov["trace"]), []).append(doc)
    out = {}
    for (workload, trace), docs in sorted(runs.items()):
        values: dict[str, list] = {}
        units = {}
        for doc in docs:
            for row in doc["report"]:
                values.setdefault(row["name"], []).append(row["value"])
                units[row["name"]] = row["unit"]
        metrics = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            metrics[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals),
                             "unit": units[name]}
        prov = {k: v for k, v in docs[0]["provenance"].items() if k not in ("seed", "trace")}
        out.setdefault(workload, {})["traced" if trace else "untraced"] = {
            "seeds": sorted(d["provenance"]["seed"] for d in docs),
            "failed": sum(d["failed"] for d in docs),
            "attempted": sum(d["attempted"] for d in docs),
            "provenance": prov,
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    results = sys.argv[1] if len(sys.argv) > 1 else os.path.join(root, ".perfbench")
    json.dump(summarise(results), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
