"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads dicyclic,scan --seeds 1-10 [--trace 1]
                                [--out perfbench/out/steady.json]

For every workload and metric this prints the sample count, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json; "UNSTEADY" marks a spread
of a third of the bound or more. The JSON written to --out carries the same
table plus every run's result and info line (raw times, host factors, git
sha, source digest, Python version, nproc).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    row = {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        row["bound"] = bound
        row["steady"] = spread < bound / 3
    return row


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out" / "steady.json")
    opts = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    report = {"seconds": opts.seconds, "trace": opts.trace, "workloads": {}}
    for workload in opts.workloads.split(","):
        runs = []
        for seed in opts.seeds:
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr, file=sys.stderr)
                return 1
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"seed": seed, "info": info, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        table = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            table[name] = summarize(values, bounds.get(name))
        report["workloads"][workload] = {"runs": runs, "metrics": table}
        print(f"\n{workload}: {len(runs)} runs, env {runs[0]['info']['env']}")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, row in table.items():
            flag = "" if row.get("steady", True) else "  UNSTEADY"
            print(f"  {name:36s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                  f"{row['spread']:8.4f} {row.get('bound', ''):>6}{flag}")
    opts.out.parent.mkdir(parents=True, exist_ok=True)
    opts.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
