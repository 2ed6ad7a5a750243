"""Acceptance criteria as runnable checks with a machine-readable scorecard.

Each criterion function returns a dict with its verdict and detail; the
test suite asserts on these and the CLI `suite` verb serializes them.
Tolerances are exact everywhere (integer arithmetic); the stated runtime
bounds are enforced as part of the verdict, and the times themselves are not
reported, so the scorecard is the same on every run.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Sequence

from .errors import BudgetExceeded, DomainError
from .abgroup import (
    AbMap,
    FinGenAb,
    abelian_groups_up_to_order,
    cokernel,
    direct_sum,
)
from .homext import ExtClass, classify, ext_group, hom_group
from .oracle import ConcreteGroup, enumerate_homs, ext_count_by_cocycles
from .torsioncat import (
    ab4star_failure_witness,
    classify as classify_torsion,
    counterexample_witness,
    parse,
    random_expression,
)
from .universal import (
    build_universal_coextension,
    build_universal_extension,
    cyclic_generation_check,
    psi,
    psi_inverse_via_colim,
    verify_coextension_conditions,
    verify_extension_conditions,
)


def _result(cid, name, passed, detail):
    return {"id": cid, "name": name, "passed": bool(passed), "detail": detail}


def criterion_1_ext_oracle(seed: int = 0) -> dict:
    """|Ext^1(A,B)| equals the cocycle count for all pairs of order <= 12."""
    t0 = time.time()
    groups = abelian_groups_up_to_order(12)
    mismatches = []
    for A in groups:
        cA = ConcreteGroup.from_group(A)
        for B in groups:
            cB = ConcreteGroup.from_group(B)
            if ext_group(A, B).order() != ext_count_by_cocycles(cA, cB):
                mismatches.append((str(A), str(B)))
    dt = time.time() - t0
    ok = not mismatches and dt < 60
    detail = f"{len(groups) ** 2} pairs, {len(mismatches)} mismatches"
    return _result(1, "oracle equivalence: Ext", ok, detail)


def criterion_2_hom_oracle(seed: int = 0) -> dict:
    """|Hom(A,B)| equals the enumeration count for all pairs of order <= 12."""
    t0 = time.time()
    groups = abelian_groups_up_to_order(12)
    mismatches = []
    for A in groups:
        cA = ConcreteGroup.from_group(A)
        for B in groups:
            cB = ConcreteGroup.from_group(B)
            if hom_group(A, B).carrier.order() != len(enumerate_homs(cA, cB)):
                mismatches.append((str(A), str(B)))
    dt = time.time() - t0
    ok = not mismatches and dt < 30
    detail = f"{len(groups) ** 2} pairs, {len(mismatches)} mismatches"
    return _result(2, "oracle equivalence: Hom", ok, detail)


def criterion_3_gng_law(seed: int = 0) -> dict:
    """Ext^1(Z(n), G) has the canonical form of G/nG for |G| <= 16, n <= 12."""
    t0 = time.time()
    groups = abelian_groups_up_to_order(16)
    failures = []
    for G in groups:
        for n in range(1, 13):
            zn = FinGenAb(0, (n,)) if n > 1 else FinGenAb(0, ())
            lhs = ext_group(zn, G).group
            mul = AbMap.identity(G).scale(n)
            rhs, _ = cokernel(mul)
            if lhs != rhs:
                failures.append((str(G), n))
    dt = time.time() - t0
    ok = not failures and dt < 10
    return _result(3, "G/nG law", ok, f"{len(groups) * 12} cases, {len(failures)} failures")


def criterion_4_psi_bijective(seed: int = 0) -> dict:
    """Psi bijective and constructively inverted for 200 random families."""
    rng = random.Random(seed)
    pool = abelian_groups_up_to_order(16)
    bad = 0
    for _ in range(200):
        summands = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        B = rng.choice(pool)
        ps = psi(summands, B)
        if not ps.bijective:
            bad += 1
            continue
        classes = []
        for Ai in summands:
            eg = ext_group(Ai, B)
            coords = tuple(rng.randrange(g) if g else 0 for g in eg.piece_mods)
            classes.append(ExtClass(Ai, B, coords))
        if classes:
            # psi_inverse machine-checks the componentwise roundtrip itself.
            psi_inverse_via_colim(classes)
    return _result(4, "Psi bijectivity + colim inverse", bad == 0, f"200 families, {bad} failures")


def criterion_5_tri_condition(seed: int = 0) -> dict:
    """Universal (co)extension certificates for all pairs of order <= 8, each
    audited by checks that share no decision code with its builder: the
    sequence classifies to the canonical class, the generic verifiers pass
    all three conditions, and |X| is the cocycle count wherever that fits
    the oracle's budget.  A build or audit that raises DomainError fails
    its certificate; any other exception fails the criterion in ``run_all``."""
    t0 = time.time()
    groups = abelian_groups_up_to_order(8)
    failures = []
    for B in groups:
        for A in groups:
            for direction, build, verify, ends in (
                ("ext", build_universal_extension, verify_extension_conditions, (B, A)),
                ("coext", build_universal_coextension, verify_coextension_conditions, (A, B)),
            ):
                try:
                    ok = _audited(build(B, A), verify, *ends)
                except DomainError:
                    ok = False
                if not ok:
                    failures.append((direction, str(B), str(A)))
    dt = time.time() - t0
    ok = not failures and dt < 120
    return _result(
        5, "universal tri-condition", ok, f"{2 * len(groups) ** 2} certificates, {len(failures)} failures"
    )


def _audited(cert, verify, quot: FinGenAb, sub: FinGenAb) -> bool:
    """Whether ``cert`` passes the independent checks, X being Ext^1(quot, sub)."""
    if not _checked(cert, verify):
        return False
    try:
        count = ext_count_by_cocycles(ConcreteGroup.from_group(quot), ConcreteGroup.from_group(sub))
    except BudgetExceeded:
        return True
    return count == len(cert.X)


def _checked(cert, verify) -> bool:
    """Whether ``cert``'s sequence classifies to its canonical class and passes
    the generic verifiers of all three conditions."""
    return classify(cert.sequence) == cert.canonical_class and all(r.passed for r in verify(cert.sequence, cert.B))


def criterion_6_cyclic_generation(seed: int = 0) -> dict:
    """Cyclic generation over End(B^(X)) for all pairs with |Ext| <= 4."""
    groups = abelian_groups_up_to_order(8)
    checked = 0
    failures = []
    for B in groups:
        for A in groups:
            if ext_group(B, A).order() > 4:
                continue
            cert = build_universal_extension(B, A)
            res = cyclic_generation_check(cert, samples=5, seed=seed)
            checked += 1
            if not res.passed:
                failures.append((str(B), str(A)))
    return _result(6, "cyclic generation", not failures, f"{checked} pairs, {len(failures)} failures")


def criterion_7_closure(seed: int = 0) -> dict:
    """The closure law over 100 random instances B1, B2, A of order <= 4:
    Ext^1 turns the sum in B into a product, so |X(B1 ⊕ B2, A)| =
    |X(B1, A)|·|X(B2, A)|, and the certificate of the sum passes the checks
    it shares no decision code with (``classify`` and the generic
    verifiers).  A build or check that raises DomainError is a violation."""
    rng = random.Random(seed)
    pool = abelian_groups_up_to_order(4)
    violations = 0
    for _ in range(100):
        B1, B2, A = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        try:
            n1, n2 = (len(build_universal_extension(B, A).X) for B in (B1, B2))
            cert = build_universal_extension(direct_sum([B1, B2]).total, A)
            ok = len(cert.X) == n1 * n2 and _checked(cert, verify_extension_conditions)
        except DomainError:
            ok = False
        violations += not ok
    return _result(7, "closure laws", violations == 0, f"100 instances, {violations} violations")


TORSION_FIXTURES = [
    ("U(2)", False, False),
    ("U(3)", False, False),
    ("U(2)+Z(3)", False, False),
    ("Z(2^inf)+U(2)", False, False),
    ("U(5)+Z(5^inf)^inf", False, False),
    ("Z(2^inf)", True, True),
    ("Z(2^inf)^inf", True, True),
    ("Z(4)^inf", True, True),
    ("Z(2)+Z(8)^3", True, True),
    ("Z(5^inf)^3+Z(5^2)^inf", True, True),
    ("Z(12)^inf", True, True),
    ("Z(7^4)^inf+Z(7^inf)", True, True),
    ("W", True, False),
    ("W+Z(4)", True, False),
]


def criterion_8_torsion_fixtures(seed: int = 0) -> dict:
    """Classifier fixture table: verdicts and cotorsion flags, exact match."""
    failures = []
    for text, want_tz, want_cot in TORSION_FIXTURES:
        rep = classify_torsion(parse(text))
        if rep.verdict_TZ != want_tz or rep.cotorsion != want_cot:
            failures.append(text)
    return _result(
        8, "torsion classifier fixtures", not failures,
        f"{len(TORSION_FIXTURES)} fixtures, {len(failures)} failures",
    )


def criterion_9_cotorsion_implication(seed: int = 0) -> dict:
    """cotorsion ⇒ co-Ext^1-universal over 1000 random expressions."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(1000):
        rep = classify_torsion(random_expression(rng))
        if rep.cotorsion and not rep.verdict_TZ:
            violations += 1
    return _result(9, "cotorsion implies universal", violations == 0, f"1000 expressions, {violations} violations")


def criterion_10_witness_growth(seed: int = 0) -> dict:
    """counterexample_witness(2, N) = 2^N for N = 1..8; fast/brute cross-check."""
    t0 = time.time()
    brute_budget = 1 << 10  # makes N = 4 the brute/fast boundary for p = 2
    failures = []
    prev = 0
    for N in range(1, 9):
        w = counterexample_witness(2, N, budget=brute_budget, mode="auto")
        a = ab4star_failure_witness(2, N, budget=brute_budget, mode="auto")
        want_method = "brute-force" if N <= 4 else "fast-path"
        if w.order != 2 ** N or a.order != 2 ** N:
            failures.append(f"N={N}: wrong order")
        if w.method != want_method:
            failures.append(f"N={N}: method {w.method}")
        if w.order <= prev:
            failures.append(f"N={N}: not strictly increasing")
        prev = w.order
    # Boundary cross-check: both methods agree at N = 4.
    wb = counterexample_witness(2, 4, mode="brute")
    wf = counterexample_witness(2, 4, mode="fast")
    ab = ab4star_failure_witness(2, 4, mode="brute")
    af = ab4star_failure_witness(2, 4, mode="fast")
    if not (wb.order == wf.order == ab.order == af.order == 16):
        failures.append("boundary N=4 cross-check")
    dt = time.time() - t0
    ok = not failures and dt < 30
    return _result(10, "witness growth", ok, f"N=1..8, {len(failures)} failures")


CRITERIA: List[Callable[..., dict]] = [
    criterion_1_ext_oracle,
    criterion_2_hom_oracle,
    criterion_3_gng_law,
    criterion_4_psi_bijective,
    criterion_5_tri_condition,
    criterion_6_cyclic_generation,
    criterion_7_closure,
    criterion_8_torsion_fixtures,
    criterion_9_cotorsion_implication,
    criterion_10_witness_growth,
]


def run_all(seed: int = 0, only: Sequence[int] = ()) -> dict:
    """Scorecard of the criteria; one that raises is recorded as failed.
    An id in ``only`` that names no criterion is a DomainError."""
    unknown = sorted(set(only) - set(range(1, len(CRITERIA) + 1)))
    if unknown:
        raise DomainError(f"no criterion {unknown[0]}: ids run from 1 to {len(CRITERIA)}")
    results = []
    for idx, fn in enumerate(CRITERIA, start=1):
        if only and idx not in only:
            continue
        try:
            results.append(fn(seed=seed))
        except Exception as exc:  # the suite reports every criterion, so a crash is a FAIL
            detail = f"raised {type(exc).__name__}: {exc}"
            results.append(_result(idx, fn.__name__, False, detail))
    return {"criteria": results, "all_passed": all(r["passed"] for r in results)}
