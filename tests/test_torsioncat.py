import functools
import itertools
import math
import random

import pytest

from abext import acceptance, torsioncat
from abext.errors import BudgetExceeded, DomainError, ParseError
from abext.abgroup import FinGenAb
from abext.oracle import WITNESS_SEARCH_BUDGET, least_coset_order
from abext.torsioncat import (
    AllPrimesCyclic,
    Cyclic,
    Prufer,
    TorsionExpr,
    UnboundedFamily,
    WitnessResult,
    ab4star_failure_witness,
    classify,
    counterexample_witness,
    divisible_reduced_split,
    is_cotorsion,
    p_component,
    parse,
    parse_finite_group,
    quotient_closure_check,
    random_expression,
)
from abext.universal import audit, build_universal_coextension


# ---------------------------------------------------------------------------
# Parser


def test_parse_examples():
    e = parse("Z(8)+Z(2)^3")
    assert e.terms == ((Cyclic(2, 1), 3), (Cyclic(2, 3), 1))
    e = parse("Z(12)")
    assert e.terms == ((Cyclic(2, 2), 1), (Cyclic(3, 1), 1))
    e = parse("U(3)+Z(3^inf)")
    assert e.terms == ((Prufer(3), 1), (UnboundedFamily(3), 1))


def test_parse_whitespace_and_mult():
    assert parse(" Z( 2 ^ 3 ) ^ inf ") == parse("Z(2^3)^inf")
    assert parse("W^2 + W") == TorsionExpr.from_terms([(AllPrimesCyclic(), 3)])
    assert parse("Z(2)^inf + Z(2)") == TorsionExpr.from_terms([(Cyclic(2, 1), None)])


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as ei:
        parse("Z(4^2)")
    assert ei.value.position == 2
    with pytest.raises(ParseError):
        parse("U(6)")
    with pytest.raises(ParseError):
        parse("Z(2^0)")
    with pytest.raises(ParseError):
        parse("Z(0)")
    with pytest.raises(ParseError):
        parse("Z(2) Z(3)")
    with pytest.raises(ParseError):
        parse("Q(2)")
    with pytest.raises(ParseError):
        parse("Z")  # free parts are rejected in torsion mode


@pytest.mark.parametrize(
    "parser, text, message, position",
    [
        # an offset taken right after "(", or after "inf", is where the whitespace begins
        (parse, "Z( 4 ^2)", "Z(4^..): 4 is not prime", 2),
        (parse, "U( 6 )", "U(6): 6 is not prime", 2),
        (parse, "Z( 0 )", "Z(0) is the free group, not torsion", 2),
        (parse_finite_group, "Z ^inf + Z(2)", "free rank must be finite", 6),
        # every other offset is where the next token begins
        (parse, "Z(2^ 0)", "exponent must be >= 1", 5),
        (parse, "Z(2)^ 0", "multiplicity must be >= 1", 6),
        (parse, "Z(2)  Z(3)", "expected '+'", 6),
        (parse, "  Q", "expected an atom (Z(..), U(..) or W)", 2),
        (parse, " Z ", "free part 'Z' not allowed in a torsion expression", 1),
        (parse, "Z(2) + ", "expected an atom (Z(..), U(..) or W)", 7),
        (parse, "Z( ", "expected a number", 3),
        (parse, "Z(2 ", "expected ')'", 4),
        (parse, "Z(2^\tinf x", "expected ')'", 9),
    ],
)
def test_parse_error_offsets_around_whitespace(parser, text, message, position):
    with pytest.raises(ParseError) as ei:
        parser(text)
    assert (str(ei.value), ei.value.position) == (message, position)


def test_parse_roundtrip_through_str():
    rng = random.Random(51)
    for _ in range(100):
        e = random_expression(rng)
        assert parse(str(e)) == e


def test_parse_finite_group():
    assert parse_finite_group("Z(4)+Z(6)") == FinGenAb(0, (2, 12))
    assert parse_finite_group("Z^2+Z(12)") == FinGenAb(2, (12,))
    assert parse_finite_group("Z") == FinGenAb(1, ())
    assert parse_finite_group("Z(2)^3") == FinGenAb(0, (2, 2, 2))
    with pytest.raises(DomainError):
        parse_finite_group("Z(2^inf)")
    with pytest.raises(DomainError):
        parse_finite_group("U(2)")
    with pytest.raises(DomainError):
        parse_finite_group("Z(2)^inf")


# ---------------------------------------------------------------------------
# Structural operators


def test_p_component_examples():
    assert p_component(parse("Z(12)"), 2) == parse("Z(4)")
    assert p_component(parse("W"), 5) == parse("Z(5)")
    assert p_component(parse("U(3)"), 2).is_zero()
    assert p_component(parse("W^inf"), 3) == parse("Z(3)^inf")


def test_divisible_reduced_split_examples():
    d, r = divisible_reduced_split(parse("Z(2^inf)^inf + Z(4)"))
    assert d == parse("Z(2^inf)^inf") and r == parse("Z(4)")
    d, r = divisible_reduced_split(parse("Z(3^inf)"))
    assert d == parse("Z(3^inf)") and r.is_zero()
    d, r = divisible_reduced_split(parse("U(2)"))
    assert d.is_zero() and r == parse("U(2)")


def test_classify_fixtures():
    rep = classify(parse("U(2)"))
    assert not rep.verdict_TZ and rep.witness_prime == 2
    rep = classify(parse("Z(5^inf)^3 + Z(5^2)^inf"))
    assert rep.verdict_TZ and rep.cotorsion
    rep = classify(parse("W"))
    assert rep.verdict_TZ and not rep.cotorsion
    rep = classify(parse("Z(4)^inf"))
    assert rep.verdict_TZ and rep.cotorsion and rep.cotorsion_bound == 4


def test_classify_per_prime_verdicts():
    rep = classify(parse("U(2)+Z(9)"), primes=[5])
    assert rep.verdict_Tp[2] is False
    assert rep.verdict_Tp[3] is True
    assert rep.verdict_Tp[5] is True  # trivial 5-component is bounded
    assert rep.witness_prime == 2


def test_classify_theorem_equivalence_a_iff_b():
    # verdict_TZ ⟺ all per-prime verdicts of the p-components
    rng = random.Random(52)
    for _ in range(300):
        e = random_expression(rng)
        rep = classify(e)
        per_prime = all(
            classify(p_component(e, p)).verdict_TZ for p in e.primes()
        )
        assert rep.verdict_TZ == per_prime


def test_classify_invariant_under_rewriting():
    rng = random.Random(53)
    for _ in range(100):
        e = random_expression(rng)
        raw = list(e.terms)
        rng.shuffle(raw)
        # split multiplicities into pieces before re-normalizing
        exploded = []
        for atom, mult in raw:
            if mult is not None and mult > 1:
                exploded.append((atom, mult - 1))
                exploded.append((atom, 1))
            else:
                exploded.append((atom, mult))
        e2 = TorsionExpr.from_terms(exploded)
        assert e2 == e
        assert classify(e2).verdict_TZ == classify(e).verdict_TZ


def test_is_cotorsion_examples():
    res = is_cotorsion(parse("Z(2)^inf"))
    assert res.cotorsion and res.bound == 2
    assert not is_cotorsion(parse("U(7)")).cotorsion
    assert not is_cotorsion(parse("W")).cotorsion
    res = is_cotorsion(parse("Z(2^inf) + Z(6)^inf"))
    assert res.cotorsion and res.bound == 6
    assert res.divisible_part == parse("Z(2^inf)")


def test_cotorsion_implies_universal():
    rng = random.Random(54)
    for _ in range(1000):
        rep = classify(random_expression(rng))
        if rep.cotorsion:
            assert rep.verdict_TZ


# ---------------------------------------------------------------------------
# Quotient closure


def test_quotient_examples():
    r = quotient_closure_check(parse("Z(4)^inf"), parse("Z(2)^inf"))
    assert r.source_universal and r.quotient_universal
    r = quotient_closure_check(parse("Z(2^inf)"), parse("Z(2^inf)"))
    assert r.source_universal and r.quotient_universal
    r = quotient_closure_check(parse("U(2)"), parse("Z(2^5)"))
    assert (r.source_universal, r.quotient_universal) == (False, True)
    r = quotient_closure_check(parse("W^2"), parse("W+Z(3)"))
    assert r.source_universal and r.quotient_universal


def test_quotient_rejections():
    with pytest.raises(DomainError, match="W demand exceeds supply"):
        quotient_closure_check(parse("W"), parse("W^2"))
    with pytest.raises(DomainError, match="Prüfer demand at p=2 exceeds supply"):
        quotient_closure_check(parse("Z(2^inf)"), parse("Z(2^inf)^2"))
    # W is one Z(p) at each prime, spent once: on the quotient's W or on its
    # cyclic Z(p), not on both.
    for source, quotient in [("W", "W+Z(2)"), ("W^2", "Z(7)+W^2"), ("Z(5)+U(7)^2+W^2", "Z(5)^2+W^2")]:
        with pytest.raises(DomainError, match="cyclic demand"):
            quotient_closure_check(parse(source), parse(quotient))
    with pytest.raises(DomainError):
        quotient_closure_check(parse("Z(2)"), parse("Z(4)"))
    with pytest.raises(DomainError):
        quotient_closure_check(parse("Z(2)"), parse("Z(3)"))
    with pytest.raises(DomainError):
        quotient_closure_check(parse("Z(2^inf)"), parse("Z(2)"))
    with pytest.raises(DomainError):
        quotient_closure_check(parse("Z(2)^3"), parse("Z(2)^inf"))
    with pytest.raises(DomainError):
        quotient_closure_check(parse("Z(4)"), parse("U(2)"))


@functools.lru_cache(maxsize=None)
def _maps_onto(orders, target):
    """Whether ⊕ Z(n) over ``orders`` maps onto ⊕ Z(m) over ``target``.

    A depth-first search over the images of the generators, each an element
    of the target whose order divides its n, for images that generate the
    target.  The images chosen so far matter only through the subgroup S
    they span, and the next image only through its coset modulo S, so each
    coset is tried once and each (generator, S) that failed is not searched
    again; an S that could not reach the target's order with the generators
    left is dropped.
    """
    elems = list(itertools.product(*(range(m) for m in target)))
    failed = set()

    def reach(i, span):
        if len(span) == len(elems):
            return True
        if i == len(orders) or len(span) * math.prod(orders[i:]) < len(elems) or (i, span) in failed:
            return False
        n, tried = orders[i], set()
        for x in elems:
            if x in tried or any(n * a % m for a, m in zip(x, target)):
                continue
            tried.update(tuple((a + b) % m for a, b, m in zip(s, x, target)) for s in span)
            if reach(i + 1, frozenset(tuple((a + j * b) % m for a, b, m in zip(s, x, target)) for s in span for j in range(n))):
                return True
        failed.add((i, span))
        return False

    return reach(0, frozenset(elems[:1]))


def _abelian_groups(n, least=1):
    """The invariant factors d_1 | d_2 | ..., each a multiple of ``least``, of
    every abelian group of order n."""
    if n == 1:
        return [()]
    return [(d, *rest) for d in range(2, n + 1) if n % d == 0 and d % least == 0 for rest in _abelian_groups(n // d, d)]


def _accepts(e, q):
    try:
        quotient_closure_check(e, q)
    except DomainError:
        return False
    return True


def test_quotient_check_matches_a_surjection_search_on_small_finite_groups():
    # Every ordered pair of nontrivial finite abelian groups of order ≤ 16,
    # written by invariant factors, which parse splits by the CRT: the check
    # accepts exactly when the search finds a surjection.
    groups = [g for n in range(2, 17) for g in _abelian_groups(n)]
    assert len(groups) == 24
    exprs = {g: parse("+".join(f"Z({d})" for d in g)) for g in groups}
    pairs = [(g, h) for g in groups for h in groups]
    wrong = [(g, h) for g, h in pairs if _accepts(exprs[g], exprs[h]) != _maps_onto(g, h)]
    assert not wrong
    assert sum(_maps_onto(g, h) for g, h in pairs) > len(groups)


def test_quotient_check_spends_each_summand_of_w_once():
    # Sums of W and cyclic 2- and 3-groups, each atom of multiplicity 1.  At
    # p = 2 and p = 3 the p-components (W gives one Z(p)) are held to the
    # search; at any other prime, 5 say, they are W's Z(p) alone, so W^a ↠ W^b
    # needs b ≤ a.
    rng = random.Random(7)
    atoms = ["W", "Z(2)", "Z(4)", "Z(8)", "Z(3)", "Z(9)"]
    rows = [[rng.choice(atoms) for _ in range(rng.randint(1, 3))] for _ in range(400)]

    def component(row, p):
        return tuple(sorted(p if a == "W" else int(a[2:-1]) for a in row if a == "W" or int(a[2:-1]) % p == 0))

    def expected(src, quo):
        return all(_maps_onto(component(src, p), component(quo, p)) for p in (2, 3)) and quo.count("W") <= src.count("W")

    pairs = [(rng.choice(rows), rng.choice(rows)) for _ in range(2500)]
    wrong = [(src, quo) for src, quo in pairs if _accepts(parse("+".join(src)), parse("+".join(quo))) != expected(src, quo)]
    assert not wrong, wrong[:5]
    assert 200 < sum(expected(src, quo) for src, quo in pairs) < 2300


def test_quotient_monotonicity_random():
    rng = random.Random(55)

    def symbolic_quotient(e):
        out = []
        for atom, mult in e.terms:
            roll = rng.random()
            if roll < 0.25:
                continue  # drop the term
            if isinstance(atom, Cyclic) and roll < 0.6:
                out.append((Cyclic(atom.p, rng.randint(1, atom.k)), mult))
            elif isinstance(atom, UnboundedFamily) and roll < 0.6:
                out.append((Cyclic(atom.p, rng.randint(1, 5)), mult))
            else:
                out.append((atom, mult))
        return TorsionExpr.from_terms(out)

    for _ in range(200):
        e = random_expression(rng)
        q = symbolic_quotient(e)
        r = quotient_closure_check(e, q)
        assert r.consistent
        if r.source_universal:
            assert r.quotient_universal


# ---------------------------------------------------------------------------
# Witnesses


def test_witness_examples():
    assert counterexample_witness(2, 1).order == 2
    assert counterexample_witness(2, 4).order == 16
    assert counterexample_witness(3, 3).order == 27
    assert ab4star_failure_witness(2, 1).order == 2
    assert ab4star_failure_witness(2, 5).order == 32
    assert ab4star_failure_witness(5, 2).order == 25


# Every (p, N) with p <= 7 whose coset the oracle searches within its budget.
ORACLE_PAIRS = [
    (p, N) for p in (2, 3, 5, 7) for N in range(1, 9) if p ** (N * (N - 1) // 2) <= WITNESS_SEARCH_BUDGET
]


def oracle_mismatches():
    """The pairs where a witness differs from the oracle's coset search."""
    return [
        (p, N)
        for p, N in ORACLE_PAIRS
        if not counterexample_witness(p, N).order == ab4star_failure_witness(p, N).order == least_coset_order(p, N)
    ]


def test_the_coset_search_equals_both_witnesses():
    assert len(ORACLE_PAIRS) == 19  # N <= 6, 5, 4, 4 for p = 2, 3, 5, 7
    assert oracle_mismatches() == []
    with pytest.raises(BudgetExceeded):
        least_coset_order(2, 7)  # 2^21 elements


def test_a_witness_one_power_short_fails_the_oracle_and_criterion_10(monkeypatch):
    monkeypatch.setattr(torsioncat, "_least_coset_order", lambda p, N: WitnessResult(p ** (N - 1), p, N))
    assert oracle_mismatches() == ORACLE_PAIRS
    assert acceptance.criterion_10_witness_growth() == {
        "id": 10, "name": "witness growth", "passed": False, "detail": "N=1..8, 12 failures"
    }


def test_witness_sizes_are_estimated_before_any_power():
    # N = 10^9 would be a power of 301,029,996 digits.
    for witness in (counterexample_witness, ab4star_failure_witness):
        with pytest.raises(BudgetExceeded, match="order 2\\^1000000000 of about 301029996 digits"):
            witness(2, 10**9)
    assert counterexample_witness(2, 14000).order == 2**14000  # 4,215 digits


def test_group_atom_past_the_digit_budget_is_refused():
    with pytest.raises(BudgetExceeded, match="Z\\(2\\^99999999999\\) of about 30102999567 digits"):
        parse_finite_group("Z(2^99999999999)")
    with pytest.raises(BudgetExceeded):
        parse_finite_group("Z(3) + Z(3^10000)")
    assert parse_finite_group("Z(2^9000) + Z(3^5000)") == FinGenAb(0, (2**9000 * 3**5000,))  # 2,710 + 2,386 digits
    with pytest.raises(ParseError):
        parse_finite_group("Z(2000000000000000006^2)")  # not prime: a parse error, as before


def test_witnesses_agree_and_grow():
    prev_c = prev_a = 0
    for N in range(1, 6):
        c = counterexample_witness(2, N).order
        a = ab4star_failure_witness(2, N).order
        assert c == a == 2 ** N
        assert c > prev_c and a > prev_a
        prev_c, prev_a = c, a


def test_witness_argument_validation():
    with pytest.raises(DomainError):
        counterexample_witness(4, 2)
    with pytest.raises(DomainError):
        counterexample_witness(2, 0)
    with pytest.raises(DomainError):
        ab4star_failure_witness(1, 2)


# ---------------------------------------------------------------------------
# The Q ⊕ R theorem from both sides: a bounded expression called universal
# builds and verifies its universal co-extension, and one called not
# universal has a witness of unbounded order at its witness prime.


@pytest.mark.parametrize("text", ["Z(2)+Z(8)^3", "Z(12)", "Z(3)^2+Z(9)"])
def test_bounded_expressions_called_universal_build_their_coextension(text):
    assert classify(parse(text)).verdict_TZ
    B = parse_finite_group(text)
    built = 0
    for A in (FinGenAb(0, (2,)), FinGenAb(0, (3,)), FinGenAb(0, (6,))):
        cert = build_universal_coextension(B, A)
        assert cert.all_pass
        assert all(r.passed for r in audit(cert))
        built += 1
    assert built == 3


@pytest.mark.parametrize("text", ["U(2)", "U(3)", "U(5)+Z(5^inf)^inf"])
def test_unbounded_expressions_have_witnesses_of_growing_order(text):
    report = classify(parse(text))
    assert not report.verdict_TZ
    orders = [ab4star_failure_witness(report.witness_prime, N).order for N in (2, 3, 4)]
    assert orders[0] < orders[1] < orders[2]
