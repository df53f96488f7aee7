"""Command-line interface: outputs, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import pytest

from quatrefl import cli, golden, groups, indices
from quatrefl.cli import SizeBoundError, _build_from_args, main
from quatrefl.exactarith import FieldScalar
from quatrefl.groups import build_group


SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli_env(env=None):
    # the child imports quatrefl from this checkout's src, as the tests do
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **(env or {})}


def run_cli(*args, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "quatrefl.cli", *args], capture_output=True, text=True,
        timeout=timeout, env=cli_env(env))


def test_group_summary():
    result = run_cli("group", "--k", "T", "--emit", "summary")
    assert result.returncode == 0
    assert "order=24" in result.stdout


def test_group_summary_q8():
    result = run_cli("group", "--k", "dicyclic", "--n", "2", "--emit", "summary")
    assert result.returncode == 0
    assert "order=8" in result.stdout


def test_group_bad_n_exits_2():
    result = run_cli("group", "--k", "dicyclic", "--n", "1")
    assert result.returncode == 2
    assert "n >= 2" in result.stderr


def test_unknown_flag_exits_2():
    result = run_cli("group", "--k", "T", "--bogus")
    assert result.returncode == 2


def test_group_elements_json_round_trip():
    from test_exactarith import quaternion_from_json

    result = run_cli("group", "--k", "dicyclic", "--n", "3", "--emit", "elements")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["schema_version"] == 1
    assert data["order"] == 12
    elements = [quaternion_from_json(e) for e in data["elements"]]
    assert len(set(elements)) == 12


def test_group_cayley_json():
    result = run_cli("group", "--k", "cyclic", "--n", "4", "--emit", "cayley")
    data = json.loads(result.stdout)
    assert len(data["cayley"]) == 4
    assert data["cayley"][0] == [0, 1, 2, 3]


def test_systems_table_octahedral():
    result = run_cli("systems", "--k", "O")
    assert result.returncode == 0
    lines = [l for l in result.stdout.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
    assert len(lines) == 5
    sizes = [int(l.split()[0]) for l in lines]
    copies = [int(l.split()[1]) for l in lines]
    assert sizes == [14, 18, 20, 32, 48]
    assert copies == [7, 9, 10, 4, 1]


def test_systems_cyclic_single_row():
    result = run_cli("systems", "--k", "cyclic", "--n", "5", "--format", "json")
    data = json.loads(result.stdout)
    assert len(data["systems"]) == 1
    assert data["systems"][0]["size"] == 5


def test_classify_index_summary():
    result = run_cli("classify", "--index", "6,1,3,4")
    assert result.returncode == 0
    assert "192" in result.stdout and "22" in result.stdout


def test_classify_index_domain_error_exits_3():
    result = run_cli("classify", "--index", "6,1,3,5")
    assert result.returncode == 3


def test_classify_index_huge_n_returns_at_once():
    # the record is a closed form in n, a, b, r: no divisor search of n
    result = run_cli("classify", "--index", "100000000000000000,1,1,200000000000000000",
                     timeout=10)
    assert result.returncode == 0
    for bad in ("6,1,3,5", "6,2,3,2"):  # a*b*r is neither n nor 2n with a*b odd
        assert run_cli("classify", "--index", bad).returncode == 3


def test_classify_requires_one_selector():
    result = run_cli("classify")
    assert result.returncode == 2
    result = run_cli("classify", "--order", "192", "--index", "6,1,3,4")
    assert result.returncode == 2


def test_classify_order_192_six_rows():
    result = run_cli("classify", "--order", "192", "--format", "json")
    data = json.loads(result.stdout)
    assert len(data["records"]) == 6
    refs22 = [r for r in data["records"] if r["reflections"] == 22]
    assert len(refs22) == 4


def test_iso_search_type_i_empty_below_first():
    result = run_cli("iso-search", "--max-n", "100", "--type", "i", "--format", "json")
    data = json.loads(result.stdout)
    assert data["pairs"] == []


def test_iso_search_type_ii_family():
    result = run_cli("iso-search", "--max-n", "24", "--type", "ii", "--format", "json")
    data = json.loads(result.stdout)
    pairs = [p["pair"] for p in data["pairs"]]
    assert [[12, 2, 3, 2], [24, 3, 8, 1]] in pairs
    m2 = next(p for p in data["pairs"] if p["pair"][0] == [12, 2, 3, 2])
    assert m2["c"] == 5 and m2["order"] == 192 and m2["reflections"] == 22


def test_iso_search_usage_error():
    result = run_cli("iso-search", "--max-n", "1", "--type", "i")
    assert result.returncode == 2


def test_verify_suite_missing_reports_divergence():
    # the published list omits [14,1,7,4]; the suite fails honestly on the
    # strict prefix comparison while confirming all published rows appear
    result = run_cli("verify", "--suite", "missing")
    assert result.returncode == 1
    assert "PASS  all 24 published indices present" in result.stdout
    assert "[14, 1, 7, 4]" in result.stdout


def test_verify_suite_table3_passes():
    result = run_cli("verify", "--suite", "table3")
    assert result.returncode == 0, result.stdout


def test_verify_suite_orders_passes():
    result = run_cli("verify", "--suite", "orders")
    assert result.returncode == 0, result.stdout


def test_determinism_byte_identical():
    a = run_cli("classify", "--order", "192", "--format", "json")
    b = run_cli("classify", "--order", "192", "--format", "json")
    assert a.stdout == b.stdout
    a = run_cli("systems", "--k", "T", "--format", "json")
    b = run_cli("systems", "--k", "T", "--format", "json")
    assert a.stdout == b.stdout


# stdout digests of two commands that build large dicyclic groups, recorded
# before C_n and D_n were built from their labels
@pytest.mark.parametrize("args,digest", [
    (("classify", "--order", "4368"), "d3bf7ae76f968b2cc172b99dfcd946efeccfa1556726c0e0d6d151f9c369f124"),
    (("group", "--k", "dicyclic", "--n", "200", "--emit", "elements"),
     "c8bdaabb9b2525d6f82a0981a391246a235a9a8fa3a2302b784b6df09c0d73a2"),
], ids=["classify-order-4368", "group-D200-elements"])
def test_dicyclic_stdout_pinned(args, digest):
    result = subprocess.run([sys.executable, "-m", "quatrefl.cli", *args], capture_output=True,
                            env=cli_env())
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == digest


def test_main_callable_directly(capsys):
    code = main(["classify", "--index", "2,1,2,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[2,1,2,1]" in out and "16" in out


@pytest.mark.parametrize("command", ["group", "systems", "classify"])
def test_group_size_guard_exits_3_and_bad_n_exits_2(command):
    result = run_cli(command, "--k", "dicyclic", "--n", "251")
    assert result.returncode == 3
    assert "bound" in result.stderr
    assert run_cli(command, "--k", "dicyclic", "--n", "1").returncode == 2


def test_size_guard_bounds_the_cayley_table(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.delenv("QUATREFL_MAX_ORDER", raising=False)
    monkeypatch.setattr(groups, "build_group", reached)
    # 1000^2 entries: at the default bound 10^6
    for k, n_at, n_over in (("dicyclic", 250, 251), ("cyclic", 1000, 1001)):
        with pytest.raises(Reached):
            _build_from_args(Namespace(k=k, n=n_at))
        with pytest.raises(SizeBoundError, match="bound"):
            _build_from_args(Namespace(k=k, n=n_over))


def test_size_guard_leaves_order_scans_alone():
    # the known pair G(31,1,31,2) ~ G(62,2,31,1) is settled through D62,
    # whose 248^2-entry table exceeds this bound; only --k/--n is bounded
    result = run_cli("classify", "--order", "496", env={"QUATREFL_MAX_ORDER": "14400"})
    assert result.returncode == 0
    assert "isomorphism: [31,1,31,2] ~ [62,2,31,1]" in result.stdout


MAX_ORDER_COMMANDS = [("group", "--k", "dicyclic", "--n", "6"),
                      ("classify", "--order", "48"),
                      ("verify", "--suite", "table1")]
MAX_ORDER_VALUES = [
    ("abc", 2, "QUATREFL_MAX_ORDER"), ("", 2, "QUATREFL_MAX_ORDER"),
    ("-5", 2, "QUATREFL_MAX_ORDER"), ("0", 2, "QUATREFL_MAX_ORDER"),
    ("500", 3, "bound")]  # legal, but below D6's 24^2 table and table1's closures


@pytest.mark.parametrize("command,value,code,message", [
    pytest.param(command, value, code, message, id=f"{value}-{code}-{message}-command{i}")
    for value, code, message in MAX_ORDER_VALUES
    for i, command in enumerate(MAX_ORDER_COMMANDS)
    # classify forms no reflection closure under the bound (see the next test)
    if (value, command[0]) != ("500", "classify")])
def test_bad_or_small_max_order_is_one_error_line(command, value, code, message):
    result = run_cli(*command, env={"QUATREFL_MAX_ORDER": value})
    assert result.returncode == code
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_classify_order_is_unbounded_by_a_small_max_order():
    small = run_cli("classify", "--order", "48", env={"QUATREFL_MAX_ORDER": "500"})
    assert small.returncode == 0
    assert small.stdout == run_cli("classify", "--order", "48").stdout


def test_classify_huge_order_returns_at_once():
    # n runs over the divisors of order/8, not over every n <= order/8
    result = run_cli("classify", "--order", "8000000000", timeout=10)
    assert result.returncode == 0


@pytest.mark.parametrize("order", ["0", "-8"])
def test_classify_non_positive_order_is_a_usage_error(order):
    result = run_cli("classify", "--order", order)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "--order" in result.stderr


@pytest.mark.parametrize("argv", [("--order", "48", "--n", "5"), ("--index", "6,1,3,4", "--n", "7")])
def test_classify_n_without_k_is_a_usage_error(argv):
    result = run_cli("classify", *argv)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: --n requires --k\n"


@pytest.mark.parametrize("max_n", ["1000001", "1000000000000000000"])
def test_iso_search_beyond_bound_exits_3_at_once(max_n):
    result = run_cli("iso-search", "--max-n", max_n, "--type", "ii", timeout=10)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "bound 1000000" in result.stderr


def test_iso_search_at_the_bound_reaches_the_search(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(indices, "corollary_pair_search", reached)
    with pytest.raises(Reached):
        main(["iso-search", "--max-n", "1000000", "--type", "i"])


def test_systems_beyond_bound_exits_3():
    result = run_cli("systems", "--k", "dicyclic", "--n", "121")
    assert result.returncode == 3
    assert "bound" in result.stderr


def test_classify_order_includes_isomorphisms():
    result = run_cli("classify", "--order", "96", "--format", "json")
    data = json.loads(result.stdout)
    assert data["isomorphisms"] == [
        ["G_O(L14,1)", "G_T(L12,C2)", "explicit map on 13 generators"]]
    partners = {r["label"]: r["iso_partner"] for r in data["records"]}
    assert partners["G_O(L14,1)"] == "G_T(L12,C2)"
    assert partners["G_T(L12,C2)"] == "G_O(L14,1)"


@pytest.mark.parametrize("emit", ["elements", "cayley"])
@pytest.mark.parametrize("k", [("cyclic", "1"), ("T",), ("dicyclic", "6")])
def test_emitted_json_is_json_dumps_indent_1(capsys, k, emit):
    argv = ["group", "--k", k[0], *(["--n", k[1]] if len(k) > 1 else []), "--emit", emit]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=1) + "\n"


def _written(value) -> str:
    chunks = []
    cli._write_json(value, chunks.append)
    return "".join(chunks)


def test_indented_json_writer_on_nested_payloads():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                          | st.lists(st.integers(), max_size=4).map(tuple)
                          | st.dictionaries(st.text(), inner, max_size=4), max_leaves=30)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
    @hypothesis.given(values)
    def identical(payload):
        assert _written(payload) == json.dumps(payload, indent=1)

    identical()
    # one int list at two depths, repeated at one depth, and next to a bool list
    fixed = {"π": ["ζ₈", [], {}, [1, 2], [[1, 2], [1, 2]], (True, 1)], "": None}
    assert _written(fixed) == json.dumps(fixed, indent=1)
    # lists of int lists beside an empty inner list, a bool in an int list, and tuples
    for rows in ([[1, 2], []], [[1, 2], [3, True]], [[1], 2], ((1, 2), [3]), [(4,), (4,)],
                 [[[1, 2], [1, 2]], [[1, 2]]], [[1, 2], [1, 2], [[1, 2]]]):
        assert _written({"rows": rows}) == json.dumps({"rows": rows}, indent=1), rows
    with pytest.raises(TypeError):
        _written({1: 0})
    with pytest.raises(TypeError):
        _written([object()])


def test_indented_json_writes_quaternions_and_scalars_as_their_to_json():
    scalar = FieldScalar.from_fractions(8, [Fraction(1, 2), Fraction(-1, 4), 0, 3])
    for tag, n in (("cyclic", 1), ("cyclic", 12), ("T", None), ("O", None), ("I", None), ("dicyclic", 37)):
        K = build_group(tag, n) if n else build_group(tag)
        payload = {"elements": K.elements, "nested": [[K.elements[-1], scalar], scalar]}
        dense = {"elements": [q.to_json() for q in K.elements],
                 "nested": [[K.elements[-1].to_json(), scalar.to_json()["coeffs"]],
                            scalar.to_json()["coeffs"]]}
        assert _written(payload) == json.dumps(dense, indent=1), K.name


def test_json_writer_writes_a_table_one_row_at_a_time():
    K = build_group("dicyclic", 6)
    chunks = []
    cli._write_json({"cayley": K.cayley}, chunks.append)
    assert "".join(chunks) == json.dumps({"cayley": K.cayley}, indent=1)
    # each row is its own chunk, so no text of the whole table is formed
    assert sum(chunk.count("[") for chunk in chunks) == K.order + 1
    assert max(chunk.count("[") for chunk in chunks) == 1


def test_emitted_json_goes_out_in_bounded_blocks(monkeypatch):
    K = build_group("dicyclic", 60)
    payload = {"name": K.name, "order": K.order, "elements": K.elements, "cayley": K.cayley}
    writes = []
    monkeypatch.setattr(sys, "stdout", Namespace(write=writes.append))
    cli._emit_json(payload)
    text = "".join(writes)
    dense = {**payload, "elements": [q.to_json() for q in K.elements]}
    assert text == json.dumps({"schema_version": 1, **dense}, indent=1) + "\n"
    # about 2.4 MB in blocks that each end with the chunk that filled them
    chunks = []
    cli._write_json(payload, chunks.append)
    bound = cli.JSON_BLOCK + max(map(len, chunks))
    assert len(writes) > len(text) // bound and max(map(len, writes)) < bound


def test_closed_pipe_exits_1_without_traceback():
    # the Cayley JSON of D60 is about 2.4 MB, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "quatrefl.cli", "group", "--k", "dicyclic", "--n", "60",
         "--emit", "cayley"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert stderr == b""


def test_suite_choices_are_the_golden_suites():
    # the parser spells the names out so that building it loads no layer
    assert list(cli.SUITE_NAMES) == sorted(golden.SUITES)
