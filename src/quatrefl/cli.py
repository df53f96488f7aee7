"""Command-line interface.

Subcommands: group, systems, classify, verify, iso-search.  Output goes to
stdout (JSON carries "schema_version": 1); diagnostics go to stderr.  Exit
codes: 0 success, 1 verification failure (or stdout closed by its reader),
2 usage error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# Each command imports the layers it runs when it runs, so that a cold process
# compiles and loads only those: `classify --index` and `iso-search` need only
# numutil and indices, `group` exactarith, groups and numutil, and only
# `verify` loads golden and with it every layer.

SCHEMA_VERSION = 1

# the C string encoder behind json.dumps' default ensure_ascii=True
_encode_str = json.encoder.encode_basestring_ascii

USAGE_ERROR = 2
DOMAIN_ERROR = 3

# corollary_pair_search is linear in --max-n: about 8 s at 2 * 10^6 for type (ii)
MAX_ISO_SEARCH_N = 10**6

# characters of JSON gathered per write to stdout
JSON_BLOCK = 1 << 16

# golden.SUITES' keys, sorted; spelled out so that building the parser loads no layer
SUITE_NAMES = ("appendix", "isos", "missing", "orders", "table1", "table3")


def _emit_json(payload: dict) -> None:
    """Write the payload with its schema version to stdout, as
    ``json.dumps(..., indent=1)`` and a newline, in blocks of about
    ``JSON_BLOCK`` characters: few writes even when stdout is unbuffered
    (``PYTHONUNBUFFERED``), and no text of the whole document."""
    block: list[str] = []
    size = 0

    def emit(text: str) -> None:
        nonlocal size
        block.append(text)
        size += len(text)
        if size >= JSON_BLOCK:
            sys.stdout.write("".join(block))
            block.clear()
            size = 0

    _write_json({"schema_version": SCHEMA_VERSION, **payload}, emit)
    block.append("\n")
    sys.stdout.write("".join(block))


def _write_json(value, emit) -> None:
    """Write ``json.dumps(value, indent=1)``, byte for byte, through ``emit``.

    With an indent, ``json`` falls back to its pure-Python encoder.  This
    writes the same layout directly, passing each chunk to ``emit`` as it is
    formed, so no text of the whole document is held: a list of int lists (a
    Cayley table) goes out one row at a time, and a non-empty list of plain
    ints is formed in one ``str.join``.  A quaternion is written as its
    ``to_json()``, with each scalar's dense ``[numerator, denominator]`` pairs
    written from its sparse terms (the zero pair's text is formed once per
    scalar), and cached per (depth, scalar).  Dict keys must be strings, as in
    every payload of the package; any other key raises TypeError.
    """
    from .exactarith import FieldScalar, Quaternion

    scalar_texts: dict[tuple, str] = {}

    def ints(v) -> bool:
        return isinstance(v, (list, tuple)) and bool(v) and set(map(type, v)) == {int}

    def int_text(v, depth: int) -> str:
        inner = "\n" + " " * (depth + 1)
        return "[" + inner + ("," + inner).join(map(int.__repr__, v)) + "\n" + " " * depth + "]"

    def scalar_text(s: FieldScalar, depth: int) -> str:
        text = scalar_texts.get((depth, s))
        if text is None:
            items = [int_text((0, 1), depth + 1)] * s.dimension
            for p, v in s.terms:
                g = math.gcd(v, s.den)
                items[p] = int_text((v // g, s.den // g), depth + 1)
            inner = "\n" + " " * (depth + 1)
            text = scalar_texts[depth, s] = "[" + inner + ("," + inner).join(items) + "\n" + " " * depth + "]"
        return text

    def write(v, depth: int) -> None:
        if isinstance(v, str):
            emit(_encode_str(v))
        elif isinstance(v, Quaternion):
            write({"conductor": v.conductor, "coeffs": [v.a, v.b, v.c, v.d]}, depth)
        elif isinstance(v, FieldScalar):
            emit(scalar_text(v, depth))
        elif isinstance(v, (list, tuple)):
            if not v:
                emit("[]")
                return
            if ints(v):
                emit(int_text(v, depth))
                return
            inner = "\n" + " " * (depth + 1)
            sep = "["
            for item in v:
                emit(sep + inner)
                write(item, depth + 1)
                sep = ","
            emit("\n" + " " * depth + "]")
        elif isinstance(v, dict):
            if not v:
                emit("{}")
                return
            inner = "\n" + " " * (depth + 1)
            sep = "{"
            for key, item in v.items():
                emit(sep + inner + _encode_str(key) + ": ")
                write(item, depth + 1)
                sep = ","
            emit("\n" + " " * depth + "}")
        else:  # int, float, bool, None; anything else raises TypeError as json does
            emit(json.dumps(v))

    write(value, 0)


class UsageError(ValueError):
    """A bad argument or setting: exit 2.  Any other ValueError exits 3."""


class SizeBoundError(ValueError):
    """The Cayley table of the group named by --k/--n exceeds the bound."""


def _max_order() -> int:
    """``default_max_order()``; a bad QUATREFL_MAX_ORDER is a usage error."""
    from .numutil import default_max_order

    try:
        return default_max_order()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _build_from_args(args, valued: bool = True) -> "FiniteQuaternionGroup":
    """The group named by --k/--n; C_n and D_n without values (``label_group``)
    unless ``valued``."""
    from .groups import build_group, label_group

    if args.k in ("cyclic", "dicyclic"):
        if args.n is None:
            raise UsageError(f"--k {args.k} requires --n")
        order = args.n if args.k == "cyclic" else 4 * args.n
        bound = _max_order()
        # order > isqrt(bound) iff order^2 > bound; a bad n is left to build_group
        if order > math.isqrt(bound):
            raise SizeBoundError(f"--k {args.k} --n {args.n}: Cayley table of {order}^2 "
                                 f"entries exceeds the bound {bound} (QUATREFL_MAX_ORDER)")
        try:
            return (build_group if valued else label_group)(args.k, args.n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if args.n is not None:
        raise UsageError(f"--k {args.k} takes no --n")
    return build_group(args.k)


def cmd_group(args) -> int:
    from .groups import element_order_census

    K = _build_from_args(args, valued=args.emit != "summary")  # a summary prints no element
    if args.emit == "summary":
        print(f"name={K.name}")
        print(f"order={K.order}")
        census = element_order_census(K)
        print("element_orders=" + ",".join(f"{o}:{c}" for o, c in census.items()))
    elif args.emit == "elements":
        _emit_json({"name": K.name, "order": K.order,
                    "elements": K.elements,
                    "rendered": [q.render() for q in K.elements]})
    else:  # cayley: K.to_json(), with the elements left to the writer
        _emit_json({"name": K.name, "order": K.order, "elements": K.elements, "cayley": K.cayley})
    return 0


def cmd_systems(args) -> int:
    from .refsystems import copy_count, enumerate_systems, orbit_partition, subgroup_copy_count

    K = _build_from_args(args)
    rows = []
    for L in enumerate_systems(K):
        rows.append({
            "size": L.size,
            "generators": list(L.generators),
            "orbit_partition": [list(o) for o in orbit_partition(L)],
            "copies": copy_count(L),
            "subgroup_copies": subgroup_copy_count(L),
        })
    if args.format == "json":
        _emit_json({"group": K.name, "systems": rows})
    else:
        print(f"reflection systems of {K.name}")
        print(f"{'size':>5} {'copies':>7} {'embeddings':>11}  orbits")
        for row in rows:
            orbits = "+".join(str(len(o)) for o in row["orbit_partition"])
            print(f"{row['size']:>5} {row['copies']:>7} {row['subgroup_copies']:>11}  {orbits}")
    return 0


def _parse_index(text: str) -> list[int]:
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--index needs n,a,b,r")
    return parts  # validated by IndexQuadruple


def cmd_classify(args) -> int:
    selectors = [s is not None for s in (args.k, args.index, args.order)]
    if sum(selectors) != 1:
        raise UsageError("exactly one of --k / --index / --order is required")
    if args.n is not None and args.k is None:
        raise UsageError("--n requires --k")
    if args.index is not None:
        from .indices import IndexQuadruple, dicyclic_record

        rec = dicyclic_record(IndexQuadruple(*args.index))
        if args.format == "json":
            _emit_json({"record": rec.to_json()})
        else:
            _print_records([rec])
        return 0
    from .classify import classify_K, find_isomorphisms, order_scan

    if args.order is not None:
        if args.order < 1:
            raise UsageError("--order must be at least 1")
        records = order_scan(args.order)
        isos = find_isomorphisms(records)
        partner = {}
        for iso in isos:
            partner[iso.label1] = iso.label2
            partner[iso.label2] = iso.label1
        records = [rec._replace(iso_partner=partner.get(rec.label_str()))
                   for rec in records]
        if args.format == "json":
            _emit_json({"records": [rec.to_json() for rec in records],
                        "isomorphisms": [[i.label1, i.label2, i.map_summary]
                                         for i in isos]})
        else:
            _print_records(records)
            for iso in isos:
                print(f"isomorphism: {iso.label1} ~ {iso.label2} ({iso.map_summary})")
        return 0
    records = classify_K(_build_from_args(args))
    if args.format == "json":
        _emit_json({"records": [rec.to_json() for rec in records]})
    else:
        _print_records(records)
    return 0


def _print_records(records) -> None:
    print(f"{'label':<22} {'K':<5} {'|L|':>4} {'H':<5} {'order':>7} {'refs':>5}  orbits")
    for rec in records:
        print(f"{rec.label_str():<22} {rec.K_name:<5} {rec.L_size:>4} {rec.H_name:<5} "
              f"{rec.order:>7} {rec.reflections:>5}  {rec.orbit_types}")


def cmd_verify(args) -> int:
    from .golden import SUITES

    report = SUITES[args.suite]()
    print(report.render())
    return 0 if report.passed else 1


def cmd_iso_search(args) -> int:
    from .indices import corollary_pair_search

    if args.max_n < 2:
        raise UsageError("--max-n must be at least 2")
    if args.max_n > MAX_ISO_SEARCH_N:
        raise ValueError(f"--max-n {args.max_n} exceeds the bound {MAX_ISO_SEARCH_N} "
                         "(the search is linear in n)")
    pairs = corollary_pair_search(args.max_n, args.type)
    if args.format == "json":
        _emit_json({"type": args.type, "max_n": args.max_n,
                    "pairs": [p.to_json() for p in pairs]})
    else:
        print(f"type ({args.type}) pairs up to n = {args.max_n}: {len(pairs)}")
        for p in pairs:
            print(f"  {p.idx1.render()} ~ {p.idx2.render()}  c={p.c}  "
                  f"order={p.idx1.order} refs={p.idx1.reflections}  [{p.certificate}]")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatrefl",
        description="Exact classification toolkit for rank-two imprimitive "
                    "quaternionic reflection groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p):
        p.add_argument("--k", required=True,
                       choices=["cyclic", "dicyclic", "T", "O", "I"])
        p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("group", help="construct a finite quaternion group")
    add_group_args(p)
    p.add_argument("--emit", choices=["summary", "elements", "cayley"],
                   default="summary")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("systems", help="enumerate reflection systems up to equivalence")
    add_group_args(p)
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_systems)

    p = sub.add_parser("classify", help="classification records")
    p.add_argument("--k", choices=["cyclic", "dicyclic", "T", "O", "I"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--index", type=_parse_index, default=None,
                   metavar="n,a,b,r")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="golden-data verification suites")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("iso-search", help="equal-invariant non-isomorphic pair search")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--type", required=True, choices=["i", "ii"])
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_iso_search)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        _max_order()  # checked before any command runs
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the try
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, UsageError) else DOMAIN_ERROR
    except BrokenPipeError:
        # the reader went away (`| head`): send the rest of stdout, flushed
        # again at exit, to devnull and fail without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
