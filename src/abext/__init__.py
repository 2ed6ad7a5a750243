"""Exact computations with abelian group extensions.

Smith/Hermite normal forms over Z, finitely generated abelian groups with
their categorical toolkit, Hom and Ext^1 with Baer sums and the connecting
morphism, canonical universal (co)extensions with verified certificates,
and the co-Ext^1-universality classifier for symbolic torsion groups.
"""

from .intlin import IntMatrix, SnfDecomposition, det, hnf, snf, solve_mod, solve_mod_many
from .abgroup import (
    AbMap,
    FinGenAb,
    SumDiagram,
    abelian_groups_of_order,
    abelian_groups_up_to_order,
    canonicalize,
    codiagonal,
    cokernel,
    cokernel_group,
    diagonal,
    direct_sum,
    is_epi,
    is_mono,
    kernel,
    pullback,
    pushout,
    torsion_part,
)
from .homext import (
    ExtClass,
    ExtGroup,
    HomGroup,
    ShortExactSeq,
    classify,
    connecting_hom,
    connecting_hom_dual,
    ext_contravariant_map,
    ext_covariant_map,
    ext_group,
    find_equivalence,
    hom_group,
    pullback_action,
    pushout_action,
    realize,
    ses_equivalent,
)
from .universal import (
    ComparisonMap,
    UniversalCertificate,
    build_universal_coextension,
    build_universal_extension,
    cyclic_generation_check,
    phi,
    phi_inverse_via_lim,
    psi,
    psi_inverse_via_colim,
    sufficient_condition_check,
)
from .torsioncat import (
    ClassificationReport,
    TorsionExpr,
    ab4star_failure_witness,
    counterexample_witness,
    divisible_reduced_split,
    is_cotorsion,
    p_component,
    parse,
    parse_finite_group,
    quotient_closure_check,
)
from .torsioncat import classify as classify_torsion

__version__ = "0.1.0"
