"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines, or `abext suite` for the JSON scorecard.
"""

import dataclasses

import pytest

from abext import acceptance, torsioncat, universal
from abext.errors import DomainError
from abext.torsioncat import AllPrimesCyclic, Cyclic, TorsionExpr, UnboundedFamily


def _check(fn):
    res = fn(seed=0)
    status = "PASS" if res["passed"] else "FAIL"
    print(f"[{status}] criterion {res['id']:>2}: {res['name']} — {res['detail']}")
    assert res["passed"], res


def test_criterion_01_ext_oracle_equivalence():
    _check(acceptance.criterion_1_ext_oracle)


def test_criterion_02_hom_oracle_equivalence():
    _check(acceptance.criterion_2_hom_oracle)


def test_criterion_03_gng_law():
    _check(acceptance.criterion_3_gng_law)


def test_criterion_04_psi_bijectivity():
    _check(acceptance.criterion_4_psi_bijective)


def test_criterion_05_universal_tri_condition():
    _check(acceptance.criterion_5_tri_condition)


def _flip_c(verify):
    def lying(seq, B):
        ra, rb, rc = verify(seq, B)
        return ra, rb, dataclasses.replace(rc, passed=not rc.passed)

    return lying


def _refuse(*args):
    raise DomainError("universal construction failed its own verification")


# (module patched, name in it, its replacement given the real one, failures
# among the 50 certificates of the 5 groups of order at most 4).  ``audit``
# reads classify and the verifiers from ``universal`` when it runs.
LIARS = [
    (universal, "classify", lambda real: lambda seq: None, 50),
    (universal, "verify_extension_conditions", _flip_c, 25),
    (universal, "verify_coextension_conditions", _flip_c, 25),
    (acceptance, "ext_count_by_cocycles", lambda real: lambda A, B: real(A, B) + 1, 50),
    (acceptance, "build_universal_coextension", lambda real: _refuse, 25),
]


@pytest.mark.parametrize("module, name, liar, failures", LIARS, ids=[name for _, name, _, _ in LIARS])
def test_criterion_05_fails_when_an_independent_check_disagrees(monkeypatch, module, name, liar, failures):
    # Each certificate is audited by classify, the generic verifiers and the
    # cocycle count; one of them disagreeing, or a build raising, fails it.
    groups = acceptance.abelian_groups_up_to_order
    monkeypatch.setattr(acceptance, "abelian_groups_up_to_order", lambda n: groups(4))
    assert acceptance.criterion_5_tri_condition()["detail"] == "50 certificates, 0 failures"
    monkeypatch.setattr(module, name, liar(getattr(module, name)))
    res = acceptance.criterion_5_tri_condition()
    assert not res["passed"] and res["detail"] == f"50 certificates, {failures} failures"


def test_criterion_06_cyclic_generation():
    _check(acceptance.criterion_6_cyclic_generation)


def test_criterion_07_closure_laws():
    _check(acceptance.criterion_7_closure)


def _one_more_class(real):
    def build(B, A):
        cert = real(B, A)
        return dataclasses.replace(cert, X=cert.X + cert.X[:1])

    return build


# (module patched, name in it, its replacement given the real one, violations
# among the 100 instances).  One more class in every X breaks the product
# law everywhere, since (n1 + 1)(n2 + 1) > n1·n2 + 1; a sum that drops B2
# breaks it wherever Ext^1(B2, A) is nontrivial.
CLOSURE_LIARS = [
    (universal, "verify_extension_conditions", _flip_c, 100),
    (universal, "classify", lambda real: lambda seq: None, 100),
    (acceptance, "build_universal_extension", _one_more_class, 100),
    (acceptance, "direct_sum", lambda real: lambda groups: real(groups[:1]), 33),
    (acceptance, "build_universal_extension", lambda real: _refuse, 100),
]


@pytest.mark.parametrize(
    "module, name, liar, violations", CLOSURE_LIARS, ids=[f"{name}-{n}" for n, (_, name, _, _) in enumerate(CLOSURE_LIARS)]
)
def test_criterion_07_fails_when_the_law_or_a_check_breaks(monkeypatch, module, name, liar, violations):
    # The sum's |X| must be the product of the summands', and its
    # certificate must pass ``audit``; a build that raises is a violation too.
    monkeypatch.setattr(module, name, liar(getattr(module, name)))
    res = acceptance.criterion_7_closure()
    assert not res["passed"] and res["detail"] == f"100 instances, {violations} violations"


def test_criterion_08_torsion_fixtures():
    _check(acceptance.criterion_8_torsion_fixtures)


def test_criterion_09_cotorsion_implication():
    _check(acceptance.criterion_9_cotorsion_implication)


def _ignoring(kind):
    """A cotorsion flag that reads the expression without its atoms of ``kind``."""
    return lambda real: lambda e: real(TorsionExpr.from_terms([(a, m) for a, m in e.terms if not isinstance(a, kind)]))


def _cyclic_unbounded(real):
    """A per-prime report that calls a reduced part with a cyclic atom unbounded."""

    def lying(e, p):
        r = real(e, p)
        cyclic = any(isinstance(a, Cyclic) for a in r.reduced_part.atoms())
        return dataclasses.replace(r, reduced_bounded=r.reduced_bounded and not cyclic)

    return lying


# (name patched in torsioncat and acceptance, its replacement given the real
# one, the criterion that catches it and that criterion's detail).  The flag
# and the verdict are derived apart, so a flag ignoring U, or a verdict that
# calls a bounded p-component unbounded, breaks cotorsion ⇒ universal; a flag
# ignoring W breaks no implication and only the fixtures W and W+Z(4) see it.
COTORSION_LIARS = [
    ("is_cotorsion", _ignoring(UnboundedFamily), 9, "1000 expressions, 230 violations"),
    ("_prime_report", _cyclic_unbounded, 9, "1000 expressions, 366 violations"),
    ("is_cotorsion", _ignoring(AllPrimesCyclic), 8, "14 fixtures, 2 failures"),
]


@pytest.mark.parametrize("name, liar, cid, detail", COTORSION_LIARS, ids=["U-ignored", "cyclic-unbounded", "W-ignored"])
def test_criteria_08_09_fail_when_a_derivation_lies(monkeypatch, name, liar, cid, detail):
    lying = liar(getattr(torsioncat, name))
    for module in (torsioncat, acceptance):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, lying)
    criterion = {8: acceptance.criterion_8_torsion_fixtures, 9: acceptance.criterion_9_cotorsion_implication}[cid]
    res = criterion()
    assert (res["passed"], res["detail"]) == (False, detail)


def test_criterion_10_witness_growth():
    _check(acceptance.criterion_10_witness_growth)


def test_run_all_records_a_raising_criterion_as_failed(monkeypatch):
    def crashed(seed=0):
        raise DomainError("universal extension construction failed its own verification")

    criteria = list(acceptance.CRITERIA)
    criteria[4] = crashed
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    card = acceptance.run_all(only=[5, 8])
    assert not card["all_passed"]
    five, eight = card["criteria"]
    assert five["id"] == 5 and not five["passed"]
    assert five["detail"] == "raised DomainError: universal extension construction failed its own verification"
    assert eight["passed"]
