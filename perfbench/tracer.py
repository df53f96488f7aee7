"""Spans and counters around calls into quatrefl, installed from outside it.

`Tracer.install()` replaces the public functions of each layer module with
wrappers that record a span per call (name, start, end, parent), and the
methods of the exact-arithmetic classes with cheaper wrappers that count
calls and time only the outermost one. Nothing under src/ is changed.

Run as a script it is a traced `quatrefl` command; its stdout is the
command's own:

    python perfbench/tracer.py --out DIR --workload W --cmd I -- classify --k O

Spans are appended to DIR/spans.jsonl and one summary line per process to
DIR/counters.jsonl.
"""

from __future__ import annotations

import builtins
import collections
import inspect
import json
import os
import statistics
import sys
import time

from workloads import COUNT_METRICS, LAYERS, SPAN_METRICS

perf = time.perf_counter

# Called so often that a span per call would dominate the run: counted only,
# their time stays in the calling span's self time.
COUNT_ONLY = {
    "refgroups.model_mul", "refgroups.model_inv", "refgroups.model_identity",
    "refgroups.triple_order", "refgroups.is_reflection_triple",
    "refgroups.rank_n_mul", "refgroups.mat_mul", "refgroups.triple_to_matrix",
    "refsystems._extend_closure", "refsystems._matches_under_autos",
}
# Private functions that are layer boundaries worth a span, and span names
# shared by several functions.
PRIVATE_SPANS = {"cli._emit_json": "cli.emit", "cli._print_records": "cli.emit"}
RENDER_METHODS = {"render", "to_json"}
# `sorted` calls made directly inside these spans are the element ordering.
CONSTRUCTOR_SPANS = {"groups.build_group", "groups.build_group_by_closure"}
# Record-producing entry points; nested calls are not counted twice.
RECORD_SPANS = ("classify.classify_K", "classify.order_scan")


class Tracer:
    def __init__(self, workload: str, cmd: int):
        self.workload = workload
        self.cmd = cmd
        self.spans: list[list] = []     # [id, name, start, end, parent, child_s, cmd]
        self.stack: list[list] = []
        self.active = collections.Counter()
        self.outer = collections.Counter()
        self.counts = collections.Counter()
        self.distinct: set = set()
        self.hot_depth = 0
        self.hot_s = 0.0
        self.render_s = 0.0
        self.build_group = None
        self.import_s = 0.0

    # -- wrappers ----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [len(self.spans), name, 0.0, 0.0, parent[0] if parent else None, 0.0, self.cmd]
        self.spans.append(rec)
        self.stack.append(rec)
        self.active[name] += 1
        rec[2] = perf()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = perf()
        self.stack.pop()
        name = rec[1]
        self.active[name] -= 1
        d = rec[3] - rec[2]
        if self.stack:
            self.stack[-1][5] += d
        if not self.active[name]:
            self.outer[name] += d

    def span(self, name: str, fn):
        tr = self

        def wrapper(*args, **kwargs):
            rec = tr._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(rec)
            if name in RECORD_SPANS and not any(tr.active[n] for n in RECORD_SPANS):
                tr.counts["classify.records"] += len(result)
            elif name == "classify.find_isomorphisms":
                tr.counts["classify.iso_pairs"] += len(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        if name == "refsystems._extend_closure":
            distinct = self.distinct

            def wrapper(K, closed, x):
                counts[name] += 1
                result = fn(K, closed, x)
                distinct.add((id(K), hash(result)))
                return result

            return wrapper

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def hot(self, name: str, fn, render: bool):
        """Exact arithmetic: count every call, time the outermost one."""
        tr = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if tr.hot_depth:
                return fn(*args, **kwargs)
            tr.hot_depth = 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - t0
                tr.hot_depth = 0
                tr.hot_s += d
                if render:
                    tr.render_s += d
                if tr.stack:
                    tr.stack[-1][5] += d

        return wrapper

    def _sorted(self, *args, **kwargs):
        if not self.stack or self.stack[-1][1] not in CONSTRUCTOR_SPANS:
            return sorted(*args, **kwargs)
        rec = self._open("groups.sort")
        try:
            return sorted(*args, **kwargs)
        finally:
            self._close(rec)

    def _print(self, *args, **kwargs):
        rec = self._open("cli.emit")
        try:
            return builtins.print(*args, **kwargs)
        finally:
            self._close(rec)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import quatrefl.cli  # noqa: F401  (loads every layer module)
        from quatrefl import exactarith, golden, groups

        self.build_group = groups.build_group
        replace: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"quatrefl.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if layer == "exactarith":
                    wrapped = self.hot(name, obj, False)
                elif name in COUNT_ONLY:
                    wrapped = self.counted(name, obj)
                elif inspect.isgeneratorfunction(obj):
                    continue
                elif attr.startswith("suite_"):
                    wrapped = self.span("golden.suite", obj)
                elif attr.startswith("_"):
                    if name not in PRIVATE_SPANS:
                        continue
                    wrapped = self.span(PRIVATE_SPANS[name], obj)
                else:
                    wrapped = self.span(name, obj)
                replace[id(obj)] = (obj, wrapped)
        for modname, mod in list(sys.modules.items()):
            if modname != "quatrefl" and not modname.startswith("quatrefl."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for key, fn in list(golden.SUITES.items()):
            golden.SUITES[key] = replace[id(fn)][1]
        for cls in (exactarith.Quaternion, exactarith.FieldScalar):
            for attr, obj in list(vars(cls).items()):
                name = f"exactarith.{cls.__name__}.{attr}"
                render = attr in RENDER_METHODS
                if isinstance(obj, classmethod):
                    setattr(cls, attr, classmethod(self.hot(name, obj.__func__, render)))
                elif inspect.isfunction(obj) and attr != "__hash__":
                    setattr(cls, attr, self.hot(name, obj, render))
        groups.sorted = self._sorted
        sys.modules["quatrefl.cli"].print = self._print

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-process totals; `layer_metrics` combines these."""
        self_s = collections.Counter()
        for rec in self.spans:
            self_s[rec[1].split(".")[0]] += (rec[3] - rec[2]) - rec[5]
        self_s["exactarith"] += self.hot_s
        counts = dict(self.counts)
        if self.build_group is not None:
            info = self.build_group.cache_info()
            counts["groups.build_group.hits"] = info.hits
            counts["groups.build_group.misses"] = info.misses
        return {
            "workload": self.workload, "cmd": self.cmd, "pid": os.getpid(),
            "import_s": self.import_s, "render_s": self.render_s,
            "outer": dict(self.outer), "self": dict(self_s), "counts": counts,
            "distinct_closures": len(self.distinct), "spans": len(self.spans),
        }

    def write(self, out_dir: str) -> None:
        pid = os.getpid()
        with open(os.path.join(out_dir, "spans.jsonl"), "a") as fh:
            for sid, name, start, end, parent, _, cmd in self.spans:
                fh.write(json.dumps({
                    "id": f"{pid}.{sid}", "name": name, "start": start, "end": end,
                    "parent": None if parent is None else f"{pid}.{parent}",
                    "workload": self.workload, "cmd": cmd}) + "\n")
        with open(os.path.join(out_dir, "counters.jsonl"), "a") as fh:
            fh.write(json.dumps(self.summary()) + "\n")


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from its processes' summaries."""
    outer = collections.Counter()
    self_s = collections.Counter()
    counts = collections.Counter()
    distinct = 0
    render_s = 0.0
    for s in summaries:
        outer.update(s["outer"])
        self_s.update(s["self"])
        counts.update(s["counts"])
        distinct += s["distinct_closures"]
        render_s += s["render_s"]
    out = {metric: outer.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    out["exactarith.render_s"] = render_s
    out.update({metric: counts.get(c, 0) for metric, c in COUNT_METRICS.items()})
    out.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS})
    extend = counts.get("refsystems._extend_closure", 0)
    out["refsystems.useful_ratio"] = distinct / extend if extend else 0.0
    out["cli.import_s"] = statistics.median(s["import_s"] for s in summaries)
    return out


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    t0 = perf()
    import quatrefl.cli
    import_s = perf() - t0
    tracer = Tracer(opts["--workload"], int(opts["--cmd"]))
    tracer.import_s = import_s
    tracer.install()
    try:
        rc = quatrefl.cli.main(argv[sep + 1:])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    tracer.write(opts["--out"])
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
