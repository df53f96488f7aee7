"""Exact classification toolkit for rank-two imprimitive quaternionic
reflection groups: cyclotomic/quaternion arithmetic, the finite subgroups of
the unit quaternions, reflection systems, the monomial reflection groups
they generate, and the full classification with its isomorphism analysis.

The exported names are loaded lazily (PEP 562): ``quatrefl.build_group``
imports ``quatrefl.groups`` on first access, so importing the package, or a
command that needs only some layers, compiles no other module."""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {
    "FieldScalar": "exactarith",
    "Quaternion": "exactarith",
    "FiniteQuaternionGroup": "groups",
    "Subgroup": "groups",
    "automorphism_group": "groups",
    "build_group": "groups",
    "commutator_subgroup": "groups",
    "element_order_census": "groups",
    "normal_subgroups": "groups",
    "quotient_automorphisms": "groups",
    "DicyclicIndex": "indices",
    "ReflectionSystem": "refsystems",
    "close_system": "refsystems",
    "copy_count": "refsystems",
    "dicyclic_system": "refsystems",
    "enumerate_systems": "refsystems",
    "omega_set": "indices",
    "subgroup_copy_count": "refsystems",
    "system_orbit": "refsystems",
    "systems_equivalent": "refsystems",
    "RankNDescriptor": "refgroups",
    "ReflectionGroup": "refgroups",
    "ReflectionOrbitType": "refgroups",
    "build_reflection_group": "refgroups",
    "diagonal_subgroups": "refgroups",
    "generate_from_reflections": "refgroups",
    "is_canonical": "refgroups",
    "iso_prescreen": "refgroups",
    "rank_n_group": "refgroups",
    "realize_matrices": "refgroups",
    "reflection_orbit_types": "refgroups",
    "verify_isomorphism": "refgroups",
    "ClassificationRecord": "indices",
    "IndexQuadruple": "indices",
    "classify_K": "classify",
    "cohen_index": "indices",
    "corollary_pair_search": "indices",
    "find_isomorphisms": "classify",
    "lambda_set": "indices",
    "missing_from_cohen": "indices",
    "order_scan": "classify",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
