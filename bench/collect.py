"""Run the benchmark once per seed and summarize every metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                             [--seconds S] [--label TEXT] [--out FILE]

For each workload and metric it prints the median over the runs, the
quartiles (statistics.quantiles with n=4) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  Runs go one after another, never in parallel.  With
--out the runs and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "min": min(values), "max": max(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--label", default="")
    p.add_argument("--out")
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    result = {"label": args.label, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode, proc.stderr[-3000:]),
                      file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            report, final = json.loads(lines[-2])["report"], json.loads(lines[-1])
            result.setdefault("machine", report["machine"])
            runs.append({"seed": seed, "correct": final["correct"], "attempted": final["attempted"],
                         "failed": final["failed"],
                         "metrics": {k: v["value"] for k, v in report["metrics"].items()},
                         "raw": report.get("raw"), "tail": report.get("tail")})
            print("%s seed %d: %s" % (workload, seed, json.dumps(runs[-1]["metrics"])), flush=True)
        names = list(runs[0]["metrics"])
        summary = {n: summarize([r["metrics"][n] for r in runs], bounds.get(n)) for n in names}
        if runs[0]["raw"]:
            summary.update({"raw." + n: summarize([r["raw"][n] for r in runs], None) for n in runs[0]["raw"]})
        result["workloads"][workload] = {"runs": runs, "summary": summary}
        print("\n%-28s %12s %12s %12s %8s %6s" % (workload, "median", "q1", "q3", "spread", "bound"))
        for n, s in summary.items():
            spread = "-" if s["spread"] is None else "%.4f" % s["spread"]
            bound = "" if s["bound"] is None else "%.2f" % s["bound"]
            print("%-28s %12.6g %12.6g %12.6g %8s %6s" % (n, s["median"], s["q1"], s["q3"], spread, bound))
        print(flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
