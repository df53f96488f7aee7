"""Golden fixtures and the verification suites behind `quatrefl verify`.

Fixture element coefficients are encoded as [p, q, r, den] meaning
(p + q*sqrt2 + r*sqrt5) / den, which covers every coefficient appearing in
the fixed element lists; the parser maps them into the exact field of the
target group.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Sequence

from .exactarith import FieldScalar, Quaternion
from .classify import (
    classify_K,
    order_scan,
    polyhedral_records,
    the_dicyclic_family_isomorphism,
    the_polyhedral_isomorphism,
)
from .groups import build_group
from .indices import IndexQuadruple, lambda_set, missing_from_cohen
from .refgroups import verify_isomorphism


@lru_cache(maxsize=None)
def load_fixture(name: str) -> dict | list:
    path = resources.files("quatrefl.data").joinpath(name + ".json")
    return json.loads(path.read_text())


def parse_scalar(m: int, coeff: Sequence[int]) -> FieldScalar:
    p, q, r, den = coeff
    val = FieldScalar.from_rational(m, p)
    if q:
        val = val + FieldScalar.sqrt2(m) * FieldScalar.from_rational(m, q)
    if r:
        val = val + FieldScalar.sqrt5(m) * FieldScalar.from_rational(m, r)
    return val * FieldScalar.from_rational(m, Fraction(1, den))


def parse_quaternion(m: int, coeffs) -> Quaternion:
    return Quaternion(*(parse_scalar(m, c) for c in coeffs))


class SuiteReport:
    """PASS/FAIL lines for one verification suite."""

    def __init__(self, name: str):
        self.name = name
        self.lines: list[tuple[bool, str]] = []

    def check(self, ok: bool, label: str) -> None:
        self.lines.append((bool(ok), label))

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.lines)

    def render(self) -> str:
        out = [f"suite {self.name}"]
        out.extend(f"  {'PASS' if ok else 'FAIL'}  {label}" for ok, label in self.lines)
        out.append(f"{'PASS' if self.passed else 'FAIL'}  {self.name}: "
                   f"{sum(ok for ok, _ in self.lines)}/{len(self.lines)} checks")
        return "\n".join(out)


def appendix_elements(tag: str) -> set[Quaternion]:
    """Expand the transcribed element lists into exact quaternion sets."""
    data = load_fixture("appendix")[tag]
    m = data["conductor"]
    out: set[Quaternion] = set()
    for block in data["blocks"]:
        base = parse_quaternion(m, block["base"])
        for e in block["exponents"]:
            out.add(base ** e)
    if len(out) != data["size"]:
        raise AssertionError(f"appendix expansion for {tag} has {len(out)} elements")
    return out


def suite_appendix() -> SuiteReport:
    report = SuiteReport("appendix")
    for tag in ("T", "O", "I"):
        K = build_group(tag)
        expected = appendix_elements(tag)
        report.check(set(K.elements) == expected,
                     f"{tag}: generated element set equals the fixed list of {len(expected)}")
    return report


def suite_table1() -> SuiteReport:
    from .refgroups import generate_from_reflections

    report = SuiteReport("table1")
    rows = load_fixture("table1")["rows"]
    recs = {(r.K_name, r.L_size, r.H_name): r for r in polyhedral_records()}
    for row in rows:
        key = (row["K"], row["L"], row["H"])
        rec = recs.get(key)
        label = f"G_{row['K']}(L{row['L']},{row['H']})"
        if rec is None:
            report.check(False, f"{label}: no classification record")
            continue
        ok = (rec.order == row["order"] and rec.reflections == row["refs"]
              and rec.orbit_types == row["orbits"] and rec.canonical)
        report.check(ok, f"{label}: order {row['order']}, {row['refs']} reflections, "
                         f"orbits {row['orbits']}")
        # the printed generating reflections close onto the same group
        K = build_group(row["K"])
        m = K.conductor
        gl = [K.index[parse_quaternion(m, q)] for q in row["gens_L"]]
        gh = [K.index[parse_quaternion(m, q)] for q in row["gens_H"]]
        closure = generate_from_reflections(K, gh, gl)
        report.check(closure.order == row["order"]
                     and closure.reflection_count() == row["refs"],
                     f"{label}: generating reflections close to the same group")
    G_O, G_T, pairs = the_polyhedral_isomorphism()
    report.check(verify_isomorphism(G_O, G_T, pairs),
                 "G_O(L14,1) ~ G_T(L12,C2) via the explicit map")
    return report


def suite_table3() -> SuiteReport:
    report = SuiteReport("table3")
    q8_rows = load_fixture("table3_q8")["rows"]
    recs = classify_K(build_group("dicyclic", 2))
    got = sorted((r.L_size, r.H_name, r.order, r.reflections) for r in recs)
    want = sorted((r["L"], r["H"], r["order"], r["refs"]) for r in q8_rows)
    report.check(got == want, "Q8 block: the four records match")
    for n in range(3, 13):
        recs = classify_K(build_group("dicyclic", n))
        ok = True
        for rec in recs:
            if rec.family == "dicyclic":
                nn, a, b, r = rec.label
                idx = IndexQuadruple(nn, a, b, r)
                ok &= rec.order == 8 * nn * r == idx.order
                ok &= rec.reflections == idx.reflections
            elif rec.order == 32 * n * n:
                ok &= rec.reflections == 12 * n - 2
            elif rec.order == 16 * n * n:
                ok &= rec.reflections == 8 * n - 2
            else:
                ok = False
        expected_count = len(lambda_set(n)) + 1 + (1 if n % 2 == 0 else 0)
        ok &= len(recs) == expected_count
        report.check(ok, f"D{n}: {len(recs)} records match the order/reflection formulas")
    return report


def suite_orders() -> SuiteReport:
    report = SuiteReport("orders")
    fixtures = load_fixture("orders")
    for order_str, rows in fixtures.items():
        order = int(order_str)
        scan = order_scan(order)
        got = sorted((r.label_str(), r.reflections, r.L_size, r.H_name) for r in scan)
        want = sorted((_fixture_label(row["label"]), row["refs"], row["L"], row["H"])
                      for row in rows)
        report.check(got == want, f"order {order}: {len(rows)} imprimitive rows")
    return report


def _fixture_label(label) -> str:
    if isinstance(label[0], int):
        return "[" + ",".join(str(v) for v in label) + "]"
    K, L, H = label
    return f"G_{K}(L{L},{H})"


def suite_isos() -> SuiteReport:
    report = SuiteReport("isos")
    G_O, G_T, pairs = the_polyhedral_isomorphism()
    report.check(verify_isomorphism(G_O, G_T, pairs), "polyhedral pair verified")
    for n in (3, 5, 7, 9):
        G1, G2, pairs = the_dicyclic_family_isomorphism(n)
        report.check(verify_isomorphism(G1, G2, pairs),
                     f"G({n},1,{n},2) ~ G({2*n},2,{n},1) verified")
    for n in (2, 4, 6, 8):
        try:
            IndexQuadruple(n, 1, n, 2)
            report.check(False, f"n={n} even: index [n,1,n,2] unexpectedly valid")
        except ValueError:
            report.check(True, f"n={n} even: no such pair (index invalid)")
    return report


def suite_missing() -> SuiteReport:
    report = SuiteReport("missing")
    expected = [IndexQuadruple(*row) for row in load_fixture("missing")]
    got = missing_from_cohen(33)
    inorder = [idx for idx in got if idx in set(expected)]
    report.check(inorder == sorted(expected, key=lambda q: q.as_list()),
                 "all 24 published indices present, canonically ordered")
    extras = [idx for idx in got if idx not in set(expected)]
    report.check(got[: len(expected)] == sorted(expected, key=lambda q: q.as_list()),
                 f"list begins with exactly the 24 published indices "
                 f"(extras found: {[q.as_list() for q in extras]})")
    return report


SUITES = {
    "table1": suite_table1,
    "table3": suite_table3,
    "orders": suite_orders,
    "appendix": suite_appendix,
    "isos": suite_isos,
    "missing": suite_missing,
}
