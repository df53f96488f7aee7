"""One in-process library session: set-up, then the timed queries.

    python perfbench/session.py --seed N [--setup-only] [--query LABEL]
                                [--trace-dir DIR]

Set-up imports quatrefl and builds T, O, I and D2..D16. Each query is timed
on its own (wall and CPU); its result is reduced to a SHA-256 digest outside
the timed region. The host factor (hostspeed.py) is sampled before and
after set-up and between queries, at most once a second. The last stdout
line is a JSON object with the raw timings, the factors and the digests.
With --query only that query runs, without the set-up builds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
import time

from hostspeed import host_factor
from workloads import SESSION_GROUPS, session_order

perf = time.perf_counter
SAMPLE_EVERY_S = 1.0  # host speed is sampled between queries at most this often


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _group(name: str):
    from quatrefl.groups import build_group

    if name.startswith("D"):
        return build_group("dicyclic", int(name[1:]))
    return build_group(name)


def run_query(label: str):
    """Run one query; return a function that turns its result into JSON data.

    Library functions are looked up on their modules at call time, so a
    traced session calls the wrapped ones.
    """
    from quatrefl import classify, golden, groups, refgroups

    kind, *args = label.split(":")
    if kind == "classify_K":
        recs = classify.classify_K(_group(args[0]))
        return lambda: [r.to_json() for r in recs]
    if kind == "scan":
        recs = classify.order_scan(int(args[0]))
        isos = classify.find_isomorphisms(recs)
        return lambda: {"records": [r.to_json() for r in recs],
                        "isos": [dataclasses.asdict(i) for i in isos]}
    if kind == "rank_n":
        K = _group(args[1])
        desc = refgroups.rank_n_group(int(args[0]), K, groups.Subgroup(K, tuple(range(K.order))))
        return lambda: dataclasses.asdict(desc)
    if kind == "verify_iso":
        G1, G2, pairs = classify.the_dicyclic_family_isomorphism(int(args[0]))
        verdict = refgroups.verify_isomorphism(G1, G2, pairs)
        return lambda: verdict
    if kind == "suite":
        report = golden.SUITES[args[0]]()
        return lambda: [report.render(), report.passed]
    if kind == "pair_search":
        pairs = classify.corollary_pair_search(20000, args[0])
        return lambda: [p.to_json() for p in pairs]
    if kind == "lambda_set":
        sets = [classify.lambda_set(n) for n in range(2, int(args[0]) + 1)]
        return lambda: [[q.as_list() for q in s] for s in sets]
    raise ValueError(f"unknown query {label!r}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--query", default=None)
    ap.add_argument("--trace-dir", default=None)
    opts = ap.parse_args()

    factor0 = host_factor(10)
    t0 = perf()
    import quatrefl.cli  # noqa: F401  (the whole package, as the CLI loads it)
    import_s = perf() - t0
    tracer = None
    if opts.trace_dir:
        from tracer import Tracer

        tracer = Tracer("session", -1)
        tracer.import_s = import_s
        tracer.install()
    if opts.query is None:
        for name in SESSION_GROUPS:
            _group(name)
    setup_s = perf() - t0
    factor = host_factor(10)
    out = {"import_s": import_s, "setup_s": setup_s, "setup_factor": (factor0 + factor) / 2}
    if not opts.setup_only:
        labels = [opts.query] if opts.query else session_order(random.Random(opts.seed))
        queries = []
        factors = [[0, factor]]  # [query index the sample precedes, factor]
        last_sample = perf()
        for i, label in enumerate(labels):
            if perf() - last_sample >= SAMPLE_EVERY_S:
                factors.append([i, host_factor()])
                last_sample = perf()
            if tracer is not None:
                tracer.cmd = i
            c0, q0 = time.process_time(), perf()
            as_json = run_query(label)
            queries.append((label, perf() - q0, time.process_time() - c0, as_json))
        factors.append([len(labels), host_factor()])
        out["factors"] = factors
        out["queries"] = [[label, dt, cpu, _digest(as_json())]
                          for label, dt, cpu, as_json in queries]
    if tracer is not None:
        tracer.write(opts.trace_dir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
