"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines, or `abext suite` for the JSON scorecard.
"""

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
