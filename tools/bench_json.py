"""Run the gated benchmark workloads in a parent and a changed checkout and write the numbers as JSON.

    python3 tools/bench_json.py OUT.json PARENT CHANGE

For each workload that BENCHMARK.json names, `perfbench/run.py` runs in both
checkouts (each from its own root, on its own sources) for BENCHMARK.json's
`run_seconds`: ten untraced rounds (`--trace 0`, seed k in round k) and three
traced rounds (`--trace 1`, seed k in round k).  Each round runs both
checkouts, and the one that runs first alternates from round to round, so that
a drift of the host touches both alike.  Runs are sequential: `run.py` pins
itself to one core.

OUT.json gets, per run, the checkout ("parent" or "change"), workload, seed,
trace flag, the run's result line (end-to-end or per-layer metrics), and its
info line (git sha, source hash, Python version and nproc under "env"; the
per-pass samples and host factors) without the per-step raw timings.  A
"summary" gives, per workload and end-to-end metric, each checkout's untraced
values in round order, so that pairs can be compared directly; a
"traced_summary" gives the per-layer metrics of the traced rounds the same way.
Per-layer metrics are raw (not host-scaled), so compare them pair by pair or by
their medians, not one round alone.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10  # the fewest untraced pairs that can back a claimed gain
TRACED = 3  # traced pairs, enough for a median per layer


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    info = json.loads(info_line)
    info.pop("raw_passes", None)
    return {"info": info, "result": json.loads(result_line)}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    opts = ap.parse_args(argv)
    checkouts = [("parent", opts.parent.resolve()), ("change", opts.change.resolve())]
    for name, path in checkouts:
        if not (path / "perfbench" / "run.py").is_file():
            ap.error(f"{name} checkout {str(path)!r} has no perfbench/run.py")

    runs = []
    summaries: dict = {"summary": {}, "traced_summary": {}}
    for workload in WORKLOADS:
        for trace, rounds in ((0, PAIRS), (1, TRACED)):
            for k in range(rounds):
                for name, path in checkouts if k % 2 == 0 else checkouts[::-1]:
                    run = run_once(path, workload, k, trace)
                    result = run["result"]
                    runs.append({"checkout": name, "workload": workload, "seed": k,
                                 "trace": trace, **run})
                    print(f"{workload} trace={trace} seed={k} {name}: correct={result['correct']} "
                          + " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()
                                     if not trace), file=sys.stderr, flush=True)
                    summary = summaries["traced_summary" if trace else "summary"]
                    for metric, v in result["metrics"].items():
                        summary.setdefault(workload, {}).setdefault(metric, {}) \
                            .setdefault(name, []).append(v["value"])
    opts.out.write_text(json.dumps({"checkouts": [name for name, _ in checkouts],
                                    "pairs": PAIRS, "traced_pairs": TRACED,
                                    "seconds": SECONDS, **summaries, "runs": runs},
                                   indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
