"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines, or `abext suite` for the JSON scorecard.
"""

import dataclasses

import pytest

from abext import acceptance
from abext.errors import DomainError


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


# (name patched in acceptance, its replacement given the real one, failures
# among the 50 certificates of the 5 groups of order at most 4).
LIARS = [
    ("classify", lambda real: lambda seq: None, 50),
    ("verify_extension_conditions", _flip_c, 25),
    ("verify_coextension_conditions", _flip_c, 25),
    ("ext_count_by_cocycles", lambda real: lambda A, B: real(A, B) + 1, 50),
    ("build_universal_coextension", lambda real: _refuse, 25),
]


@pytest.mark.parametrize("name, liar, failures", LIARS, ids=[name for name, _, _ in LIARS])
def test_criterion_05_fails_when_an_independent_check_disagrees(monkeypatch, name, liar, failures):
    # Each certificate is audited by classify, the generic verifiers and the
    # cocycle count; one of them disagreeing, or a build raising, fails it.
    groups = acceptance.abelian_groups_up_to_order
    monkeypatch.setattr(acceptance, "abelian_groups_up_to_order", lambda n: groups(4))
    assert acceptance.criterion_5_tri_condition()["detail"] == "50 certificates, 0 failures"
    monkeypatch.setattr(acceptance, name, liar(getattr(acceptance, name)))
    res = acceptance.criterion_5_tri_condition()
    assert not res["passed"] and res["detail"] == f"50 certificates, {failures} failures"


def test_criterion_06_cyclic_generation():
    _check(acceptance.criterion_6_cyclic_generation)


def test_criterion_07_closure_laws():
    _check(acceptance.criterion_7_closure)


def test_criterion_08_torsion_fixtures():
    _check(acceptance.criterion_8_torsion_fixtures)


def test_criterion_09_cotorsion_implication():
    _check(acceptance.criterion_9_cotorsion_implication)


def test_criterion_10_witness_growth():
    _check(acceptance.criterion_10_witness_growth)


def test_run_all_records_a_raising_criterion_as_failed(monkeypatch):
    def crashed(seed=0, budget=None):
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
