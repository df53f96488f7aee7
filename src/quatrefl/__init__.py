"""Exact classification toolkit for rank-two imprimitive quaternionic
reflection groups: cyclotomic/quaternion arithmetic, the finite subgroups of
the unit quaternions, reflection systems, the monomial reflection groups
they generate, and the full classification with its isomorphism analysis."""

from .exactarith import FieldScalar, Quaternion
from .groups import (
    FiniteQuaternionGroup,
    Subgroup,
    automorphism_group,
    build_group,
    commutator_subgroup,
    element_order_census,
    normal_subgroups,
    quotient_automorphisms,
)
from .refsystems import (
    DicyclicIndex,
    ReflectionSystem,
    close_system,
    copy_count,
    dicyclic_system,
    enumerate_systems,
    omega_set,
    subgroup_copy_count,
    system_orbit,
    systems_equivalent,
)
from .refgroups import (
    RankNDescriptor,
    ReflectionGroup,
    ReflectionOrbitType,
    build_reflection_group,
    diagonal_subgroups,
    generate_from_reflections,
    is_canonical,
    iso_prescreen,
    rank_n_group,
    realize_matrices,
    reflection_orbit_types,
    verify_isomorphism,
)
from .classify import (
    ClassificationRecord,
    IndexQuadruple,
    classify_K,
    cohen_index,
    corollary_pair_search,
    find_isomorphisms,
    lambda_set,
    missing_from_cohen,
    order_scan,
)

__version__ = "0.1.0"
