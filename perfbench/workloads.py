"""The four benchmark workloads and the metric names they report.

CLI workloads are lists of `quatrefl` argument vectors, each run as a cold
subprocess. The `session` workload is a list of library queries run in one
process after a fixed set-up.
"""

from __future__ import annotations

import random

CLI_WORKLOADS = {
    # Every command rebuilds I (closure_table: 14,400 exact products in
    # conductor 20); three commands enumerate the systems of I; table1
    # closes reflection groups of up to 28,800 elements.
    "polyhedral": [
        "group --k I --emit elements",
        "systems --k I",
        "classify --k O",
        "classify --k I",
        "verify --suite table1",
    ],
    # No polyhedral group at all: D200 is dominated by the Fraction sort
    # key, the D60 Cayley emit by rendering, D24/D30 by enumeration and
    # classify_K. No closure_table runs here.
    "dicyclic": [
        "group --k dicyclic --n 200",
        "group --k dicyclic --n 60 --emit cayley",
        "systems --k dicyclic --n 24",
        "classify --k dicyclic --n 30",
        "verify --suite table3",
        "classify --index 6,1,3,4",
    ],
    # Order scans and isomorphism settlement: each --order command builds
    # and classifies T, O and I; 592 = 16*37 settles the known dicyclic
    # pair through D37 and D74. `verify --suite missing` exits 1 by design.
    "scan": [
        "classify --order 192",
        "classify --order 480 --format json",
        "classify --order 592",
        "verify --suite orders",
        "verify --suite isos",
        "iso-search --max-n 20000 --type i",
        "iso-search --max-n 2000 --type ii",
        "verify --suite missing",
    ],
}

# Commands expected to exit nonzero at the seed commit.
EXPECTED_EXIT = {"verify --suite missing": 1}

# The cheapest entry of each workload, run by `run.py --self-test`.
SMOKE = {
    "polyhedral": "classify --k O",
    "dicyclic": "classify --index 6,1,3,4",
    "scan": "iso-search --max-n 2000 --type ii",
    "session": "pair_search:ii",
}

SESSION_GROUPS = ["T", "O", "I"] + [f"D{n}" for n in range(2, 17)]

# Library functions behind each session query kind; a query label is
# "<kind>:<arg>:<arg>...".
QUERY_KINDS = {
    "classify_K": ["classify.classify_K"],
    "scan": ["classify.order_scan", "classify.find_isomorphisms"],
    "rank_n": ["refgroups.rank_n_group", "groups.Subgroup"],
    "verify_iso": ["classify.the_dicyclic_family_isomorphism",
                   "refgroups.verify_isomorphism"],
    "suite": ["golden.SUITES"],
    "pair_search": ["classify.corollary_pair_search"],
    "lambda_set": ["classify.lambda_set"],
}

SESSION_QUERIES = (
    [f"classify_K:{g}" for g in SESSION_GROUPS]
    + [f"scan:{o}" for o in range(8, 481, 8)]
    + ["rank_n:3:T", "rank_n:3:O", "rank_n:4:D2"]
    + [f"verify_iso:{n}" for n in range(3, 16, 2)]
    + ["suite:table1", "suite:isos"]
    + ["pair_search:i", "pair_search:ii"]
    + ["lambda_set:2000"]
)

WORKLOADS = list(CLI_WORKLOADS) + ["session"]

# The workloads BENCHMARK.json lists. A single 20-30 s pass of `polyhedral`
# spread by 21-38% over seeds even at the nominal host speed, and several
# passes of four workloads do not fit the run budget, so only the two
# cheapest are gated. `polyhedral` and `scan` stay runnable by name.
BENCHMARK_WORKLOADS = ["dicyclic", "session"]

# cmd_p50_s is computed too (run info line) but not reported: the median of
# a session pass is a 3 ms query, and its run-to-run spread was 9-20%.
END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "cmd_max_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio",
}

LAYERS = ["exactarith", "groups", "refsystems", "refgroups", "classify", "golden", "cli"]

# Timed spans: metric name -> span name (outermost calls only).
SPAN_METRICS = {
    "groups.closure_table_s": "groups.closure_table",
    "groups.sort_s": "groups.sort",
    "groups.build_group_s": "groups.build_group",
    "groups.automorphism_group_s": "groups.automorphism_group",
    "groups.normal_subgroups_s": "groups.normal_subgroups",
    "refsystems.enumerate_systems_s": "refsystems.enumerate_systems",
    "refgroups.build_reflection_group_s": "refgroups.build_reflection_group",
    "refgroups.closure_of_triples_s": "refgroups.closure_of_triples",
    "refgroups.verify_isomorphism_s": "refgroups.verify_isomorphism",
    "refgroups.isomorphism_search_s": "refgroups.isomorphism_search",
    "refgroups.rank_n_group_s": "refgroups.rank_n_group",
    "classify.classify_K_s": "classify.classify_K",
    "classify.polyhedral_records_s": "classify.polyhedral_records",
    "classify.order_scan_s": "classify.order_scan",
    "classify.find_isomorphisms_s": "classify.find_isomorphisms",
    "golden.suite_s": "golden.suite",
    "golden.load_fixture_s": "golden.load_fixture",
    "cli.emit_s": "cli.emit",
}

# Counters: metric name -> counter name.
COUNT_METRICS = {
    "exactarith.quat_mul_n": "exactarith.Quaternion.__mul__",
    "exactarith.scalar_mul_n": "exactarith.FieldScalar.__mul__",
    "groups.build_group_miss_n": "groups.build_group.misses",
    "groups.build_group_hit_n": "groups.build_group.hits",
    "refsystems.extend_n": "refsystems._extend_closure",
    "refsystems.equiv_test_n": "refsystems._matches_under_autos",
    "refgroups.model_mul_n": "refgroups.model_mul",
    "classify.records_n": "classify.records",
    "classify.iso_pairs_n": "classify.iso_pairs",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "exactarith.render_s": "s",         # outermost render/to_json calls
    "refsystems.useful_ratio": "ratio",  # distinct closures / extensions
    "cli.import_s": "s",                # median import of quatrefl.cli per process
    "trace.overhead_s": "s",            # traced pass wall - untraced pass wall
}


def cli_order(workload: str, rng: random.Random) -> list[str]:
    """The workload's commands in a seed-determined order."""
    cmds = list(CLI_WORKLOADS[workload])
    rng.shuffle(cmds)
    return cmds


def session_order(rng: random.Random) -> list[str]:
    """The session queries, shuffled within each kind; kinds keep their order
    so that the query that first fills a shared cache is the same for every
    seed."""
    out = []
    for kind in QUERY_KINDS:
        part = [q for q in SESSION_QUERIES if q.split(":")[0] == kind]
        rng.shuffle(part)
        out.extend(part)
    return out
