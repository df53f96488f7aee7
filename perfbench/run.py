"""The quatrefl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record

Run from the root of a source checkout; the program is run from ./src.
A run measures set-up, then repeats passes over the workload (one client,
closed loop) while another pass would likely end within S seconds; it
makes at least one. The last stdout
line is {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
with --trace 0, per-layer metrics from a traced pass with --trace 1.
--record writes expected.json (exit codes and output digests) from the
current code; --self-test checks the workload definitions and runs the
cheapest entry of each workload. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import host_factor
from workloads import (
    BENCHMARK_WORKLOADS, CLI_WORKLOADS, END_TO_END, EXPECTED_EXIT, PER_LAYER_UNITS,
    QUERY_KINDS, SESSION_GROUPS, SESSION_QUERIES, SMOKE, WORKLOADS, cli_order,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
SETUP_REPS = 15         # cold imports per CLI run; setup_s is their median
SESSION_SETUP_ONLY = 2  # extra set-up-only sessions per session run
CLI_FACTOR_REPS = 10    # reference runs per host-factor sample between commands
RUN_BUDGET_S = 170.0    # a run ends within this, however slow the program
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

perf = time.perf_counter


class Child:
    """One finished subprocess: exit code, stdout, wall time and rusage."""

    def __init__(self, argv: list[str], deadline: float):
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / "stderr.txt", "wb") as err:
            t0 = perf()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=ENV, cwd=ROOT)
            timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
            timer.start()
            try:
                self.stdout = proc.stdout.read()
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            self.seconds = perf() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.sha256 = hashlib.sha256(self.stdout).hexdigest()

    def stderr_tail(self) -> str:
        return (OUT / "stderr.txt").read_text(errors="replace")[-2000:]


def cli_argv(cmd: str) -> list[str]:
    return [sys.executable, "-m", "quatrefl.cli", *cmd.split()]


def traced_argv(cmd: str, workload: str, idx: int, out_dir: Path) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), "--out", str(out_dir),
            "--workload", workload, "--cmd", str(idx), "--", *cmd.split()]


def session_argv(seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "session.py"), "--seed", str(seed), *extra]


def session_result(child: Child) -> dict:
    if child.rc != 0:
        raise RuntimeError(f"session worker exited {child.rc}:\n{child.stderr_tail()}")
    return json.loads(child.stdout.decode().strip().splitlines()[-1])


class Pass:
    """One pass over a workload's command (or query) list.

    Times are scaled to the nominal host speed: divided by the mean of the
    host factors sampled between the pass's steps (hostspeed.py).
    """

    def __init__(self, steps: list[tuple[float, float]], marks: list[tuple[int, float]],
                 rss_mb: float, failed: int):
        # steps: (wall seconds, cpu seconds) per command or query;
        # marks: (index of the step the sample precedes, host factor)
        self.steps, self.marks = steps, marks
        self.factor = statistics.fmean(f for _, f in marks)
        self.latencies = [wall / self.factor for wall, _ in steps]
        self.wall_s = sum(self.latencies)
        self.cpu_s = sum(cpu for _, cpu in steps) / self.factor
        self.raw_wall_s = sum(wall for wall, _ in steps)
        self.rss_mb = rss_mb
        self.attempted, self.failed = len(steps), failed

    def metrics(self) -> dict[str, float]:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "cmd_p50_s": statistics.median(self.latencies),
                "cmd_max_s": max(self.latencies), "peak_rss_mb": self.rss_mb}


def cli_pass(workload: str, order: list[str], expected: dict, deadline: float,
             trace_dir: Path | None = None) -> Pass:
    children, marks = [], [(0, host_factor(CLI_FACTOR_REPS))]
    for idx, cmd in enumerate(order):
        argv = cli_argv(cmd) if trace_dir is None else traced_argv(cmd, workload, idx, trace_dir)
        children.append(Child(argv, deadline))
        marks.append((idx + 1, host_factor(CLI_FACTOR_REPS)))
    failed = 0
    for cmd, child in zip(order, children):
        if {"exit": child.rc, "sha256": child.sha256} != expected["cli"][cmd]:
            failed += 1
            print(f"mismatch: {cmd}: exit {child.rc}\n{child.stderr_tail()}", file=sys.stderr)
    return Pass([(c.seconds, c.cpu_s) for c in children], marks,
                max(c.rss_mb for c in children), failed)


def session_pass(seed: int, expected: dict, deadline: float,
                 trace_dir: Path | None = None) -> tuple[Pass, float]:
    extra = () if trace_dir is None else ("--trace-dir", str(trace_dir))
    child = Child(session_argv(seed, *extra), deadline)
    res = session_result(child)
    failed = 0
    for label, _, _, digest in res["queries"]:
        if digest != expected["session"][label]:
            failed += 1
            print(f"mismatch: session query {label}", file=sys.stderr)
    steps = [(wall, cpu) for _, wall, cpu, _ in res["queries"]]
    return (Pass(steps, res["factors"], child.rss_mb, failed),
            res["setup_s"] / res["setup_factor"])


def setup_samples(workload: str, seed: int, deadline: float) -> list[float]:
    """Set-up times at the nominal host speed."""
    if workload == "session":
        results = [session_result(Child(session_argv(seed, "--setup-only"), deadline))
                   for _ in range(SESSION_SETUP_ONLY)]
        return [r["setup_s"] / r["setup_factor"] for r in results]
    argv = [sys.executable, "-c", "import quatrefl.cli"]
    Child(argv, deadline)  # compiles the bytecode cache on a fresh checkout
    times, factors = [], [host_factor()]
    for _ in range(SETUP_REPS):
        times.append(Child(argv, deadline).seconds)
        factors.append(host_factor())
    factor = statistics.fmean(factors)
    return [t / factor for t in times]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quatrefl").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    expected = json.loads(EXPECTED.read_text())
    rng = random.Random(seed)
    start = perf()
    deadline = start + RUN_BUDGET_S
    setups = [] if trace else setup_samples(workload, seed, deadline)
    trace_root = OUT / "trace" / f"{workload}-seed{seed}"
    if trace:
        shutil.rmtree(trace_root, ignore_errors=True)
    plain, traced = [], []
    t_measure = perf()
    while True:
        k = len(plain)
        trace_dir = trace_root / f"pass{k}"
        if trace:
            trace_dir.mkdir(parents=True)
        if workload == "session":
            pass_seed = rng.randrange(2 ** 31)
            p, setup = session_pass(pass_seed, expected, deadline)
            plain.append(p)
            setups.append(setup)
            if trace:
                traced.append((session_pass(pass_seed, expected, deadline, trace_dir)[0], trace_dir))
        else:
            order = cli_order(workload, rng)
            plain.append(cli_pass(workload, order, expected, deadline))
            if trace:
                traced.append((cli_pass(workload, order, expected, deadline, trace_dir), trace_dir))
        # no pass starts that would likely end after `seconds`
        elapsed = perf() - t_measure
        per_pass = elapsed / len(plain)
        if elapsed + per_pass > min(seconds, deadline - t_measure):
            break

    attempted = sum(p.attempted for p in plain) + sum(p.attempted for p, _ in traced)
    failed = sum(p.failed for p in plain) + sum(p.failed for p, _ in traced)
    samples: dict[str, list[float]] = {}
    if trace:
        from tracer import layer_metrics

        for p, trace_dir in traced:
            summaries = [json.loads(line) for line in
                         (trace_dir / "counters.jsonl").read_text().splitlines()]
            for name, value in layer_metrics(summaries).items():
                samples.setdefault(name, []).append(value)
        samples["trace.overhead_s"] = [t.raw_wall_s - p.raw_wall_s
                                       for p, (t, _) in zip(plain, traced)]
    else:
        for p in plain:
            for name, value in p.metrics().items():
                samples.setdefault(name, []).append(value)
        samples["setup_s"] = setups
        samples["pass_frac"] = [1.0 - failed / attempted]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    units = PER_LAYER_UNITS if trace else END_TO_END
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "passes": len(plain), "env": environment(), "samples": samples,
            "raw_wall_s": [p.raw_wall_s for p in plain],
            "host_factor": [p.factor for p in plain],
            "raw_passes": [{"steps": p.steps, "marks": p.marks} for p in plain]}
    if trace:
        info["predicted_zeros"] = check_predictions(workload, metrics)
        (trace_root / "summary.json").write_text(json.dumps({**info, "metrics": metrics}, indent=1))
    print(json.dumps(info))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def check_predictions(workload: str, metrics: dict) -> dict:
    """The zeros the benchmark's design predicts; a miss is reported on stderr."""
    checks = {"refgroups.rank_n_group_s is 0 off session":
              workload == "session" or metrics["refgroups.rank_n_group_s"] == 0}
    if workload == "session":
        checks["refgroups.rank_n_group_s is nonzero on session"] = \
            metrics["refgroups.rank_n_group_s"] > 0
    if workload == "dicyclic":
        checks["groups.closure_table_s is 0 on dicyclic"] = metrics["groups.closure_table_s"] == 0
    for name, ok in checks.items():
        if not ok:
            print(f"prediction failed: {name}", file=sys.stderr)
    return checks


def record() -> int:
    """Write expected.json from the current code."""
    deadline = perf() + 3600
    out = {"env": environment(), "cli": {}, "session": {}}
    for workload, cmds in CLI_WORKLOADS.items():
        for cmd in cmds:
            child = Child(cli_argv(cmd), deadline)
            if child.rc != EXPECTED_EXIT.get(cmd, 0):
                print(f"{cmd}: exit {child.rc}\n{child.stderr_tail()}", file=sys.stderr)
                return 1
            out["cli"][cmd] = {"exit": child.rc, "sha256": child.sha256}
    res = session_result(Child(session_argv(0), deadline))
    out["session"] = {q[0]: q[-1] for q in res["queries"]}
    EXPECTED.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def self_test() -> int:
    """Check the workload definitions, then run each workload's cheapest entry."""
    errors = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != BENCHMARK_WORKLOADS:
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER_UNITS)):
        if {m["name"]: m["unit"] for m in spec[key]} != units:
            errors.append(f"BENCHMARK.json {key} differs from workloads.py")
    for name in [*END_TO_END, *PER_LAYER_UNITS, *WORKLOADS]:
        if not NAME_RE.fullmatch(name):
            errors.append(f"bad metric or workload name {name!r}")

    sys.path.insert(0, str(SRC))
    import importlib

    from quatrefl.cli import make_parser

    expected = json.loads(EXPECTED.read_text())
    for cmds in CLI_WORKLOADS.values():
        for cmd in cmds:
            try:
                make_parser().parse_args(cmd.split())
            except SystemExit:
                errors.append(f"not a valid quatrefl invocation: {cmd}")
            if cmd not in expected["cli"]:
                errors.append(f"no expected digest for {cmd}")
    suites = importlib.import_module("quatrefl.golden").SUITES
    for label in SESSION_QUERIES:
        kind, *args = label.split(":")
        for target in QUERY_KINDS.get(kind, ["<unknown kind>"]):
            mod, _, attr = target.partition(".")
            try:
                obj = getattr(importlib.import_module(f"quatrefl.{mod}"), attr)
            except (ImportError, AttributeError):
                errors.append(f"{label}: no library object {target}")
                continue
            if not (callable(obj) or isinstance(obj, dict)):
                errors.append(f"{label}: {target} is not callable")
        groups = [a for a in args if a[:1] in ("T", "O", "I", "D")]
        if any(g not in SESSION_GROUPS for g in groups):
            errors.append(f"{label}: group outside the set-up")
        if kind == "suite" and args[0] not in suites:
            errors.append(f"{label}: no such suite")
        if label not in expected["session"]:
            errors.append(f"no expected digest for session query {label}")

    deadline = perf() + RUN_BUDGET_S
    for workload, entry in SMOKE.items():
        if workload == "session":
            res = session_result(Child(session_argv(0, "--query", entry), deadline))
            ok = res["queries"][0][-1] == expected["session"][entry]
        else:
            child = Child(cli_argv(entry), deadline)
            ok = {"exit": child.rc, "sha256": child.sha256} == expected["cli"][entry]
        print(f"smoke {workload}: {entry}: {'ok' if ok else 'MISMATCH'}")
        if not ok:
            errors.append(f"smoke {workload} mismatch")
    for err in errors:
        print(f"self-test: {err}", file=sys.stderr)
    print("self-test " + ("failed" if errors else "ok"))
    return 1 if errors else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    opts = ap.parse_args()
    if not (SRC / "quatrefl" / "cli.py").is_file():
        print(f"error: no quatrefl sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if opts.record:
        return record()
    if not EXPECTED.is_file():
        print(f"error: {EXPECTED} is missing; create it with --record", file=sys.stderr)
        return 2
    if opts.self_test:
        return self_test()
    if opts.workload is None:
        ap.error("--workload is required")
    # One core for the run and every child, so that the host factor sampled
    # here is that of the core the measured code runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
