"""Exact computations with abelian group extensions.

Smith/Hermite normal forms over Z, finitely generated abelian groups with
their categorical toolkit, Hom and Ext^1 with Baer sums and the connecting
morphism, canonical universal (co)extensions with verified certificates,
and the co-Ext^1-universality classifier for symbolic torsion groups.

Names resolve on first access: ``import abext`` loads no submodule, and
``abext.psi`` (or ``from abext import psi``) loads ``abext.universal`` and
the modules it needs, then binds the name here for later lookups.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in (
        ("intlin", "IntMatrix SnfDecomposition hnf snf solve_mod solve_mod_many"),
        (
            "abgroup",
            "AbMap FinGenAb SumDiagram abelian_groups_of_order abelian_groups_up_to_order canonicalize"
            " codiagonal cokernel cokernel_group diagonal direct_sum is_epi is_mono kernel pullback pushout"
            " torsion_part",
        ),
        (
            "homext",
            "ExtClass ExtGroup HomGroup ShortExactSeq classify connecting_hom connecting_hom_dual"
            " ext_contravariant_map ext_covariant_map ext_group find_equivalence hom_group pullback_action"
            " pushout_action realize ses_equivalent",
        ),
        (
            "universal",
            "ComparisonMap UniversalCertificate build_universal_coextension build_universal_extension"
            " cyclic_generation_check phi phi_inverse_via_lim psi psi_inverse_via_colim"
            " sufficient_condition_check",
        ),
        (
            "torsioncat",
            "ClassificationReport TorsionExpr ab4star_failure_witness classify_torsion counterexample_witness"
            " divisible_reduced_split is_cotorsion p_component parse parse_finite_group quotient_closure_check",
        ),
    )
    for name in names.split()
}
_RENAMED = {"classify_torsion": "classify"}
_SUBMODULES = frozenset(("abgroup", "errors", "homext", "intlin", "torsioncat", "universal"))

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module("." + _HOME[name], __name__), _RENAMED.get(name, name))
    elif name in _SUBMODULES:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
