import dataclasses
import hashlib
import itertools
import math
import random
import time

import pytest

import abext.abgroup as abgroup
import abext.homext as homext
import abext.intlin as intlin
import abext.universal as universal
from abext.oracle import ConcreteGroup, ext_count_by_cocycles
from abext.torsioncat import parse_finite_group
from abext.errors import BudgetExceeded, DomainError
from abext.intlin import IntMatrix
from abext.abgroup import (
    AbMap,
    FinGenAb,
    ZERO_GROUP,
    abelian_groups_up_to_order,
    cokernel,
    cokernel_group,
    cyclic_sum,
    direct_sum,
    is_epi,
    is_mono,
    kernel,
    pullback,
    torsion_part,
)
from abext.homext import (
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
    hom_pieces,
    pullback_action,
    pushout_action,
    realize,
    seq_pullback,
)
from abext.universal import (
    audit,
    build_universal_coextension,
    build_universal_extension,
    cyclic_generation_check,
    phi,
    phi_inverse_via_lim,
    psi,
    psi_inverse_via_colim,
    sufficient_condition_check,
    verify_coextension_conditions,
    verify_extension_conditions,
)
from test_drift import COMPARISONS, CYCLIC_CHECKS

Z2 = FinGenAb(0, (2,))
Z3 = FinGenAb(0, (3,))
Z4 = FinGenAb(0, (4,))


# ---------------------------------------------------------------------------
# Psi / Phi


def test_psi_single_summand_is_identity():
    pm = psi([Z2], Z2)
    assert pm.matrix.matrix.rows == ((1,),)
    assert pm.bijective


def test_psi_pair_example():
    pm = psi([Z2, Z2], Z2)
    assert pm.domain.order() == 4
    assert pm.codomain.total.order() == 4
    assert pm.injective and pm.bijective


def test_psi_empty_family():
    pm = psi([], Z2)
    assert pm.domain.carrier == ZERO_GROUP
    assert pm.bijective


def test_phi_pair():
    pm = phi([Z2, Z4], Z4)
    assert pm.bijective
    assert pm.domain.order() == pm.codomain.total.order()


def test_comparison_ranks_once_per_prime(monkeypatch):
    # Ψ and Φ are ranked for mono alone; bijective reads the orders of the
    # two finite ends, so a one-prime family takes one rank_mod_p.
    real = abgroup.rank_mod_p
    primes = []

    def counted(rows, ncols, p):
        primes.append(p)
        return real(rows, ncols, p)

    monkeypatch.setattr(abgroup, "rank_mod_p", counted)
    families = [([Z2, Z4], Z4, 2), ([Z2, FinGenAb(1, (2,))], Z4, 2), ([Z3, FinGenAb(0, (9,))], FinGenAb(0, (3, 3)), 3)]
    for summands, B, p in families:
        for comparison in (psi, phi):
            del primes[:]
            pm = comparison(summands, B)
            assert pm.injective and pm.bijective and primes == [p], (comparison.__name__, summands, B, primes)


def test_comparison_bijective_agrees_with_the_epi_test():
    # The order count stands in for a second rank: on the drift families,
    # free ends included, it gives the verdict that ranking for epi gives.
    for summands, B in COMPARISONS:
        family = [parse_finite_group(s) for s in summands.split(";")]
        for comparison in (psi, phi):
            pm = comparison(family, parse_finite_group(B))
            assert pm.bijective == (pm.injective and is_epi(pm.matrix)), (comparison.__name__, summands, B)


@pytest.mark.parametrize("comparison, induced", [(psi, "ext_contravariant_map"), (phi, "ext_covariant_map")])
def test_comparison_is_not_bijective_onto_a_larger_codomain(monkeypatch, comparison, induced):
    # Every real family is bijective, so only a padded one shows that the
    # order count decides: the first part's codomain gains one more copy of
    # its top invariant factor, the map stays mono, and |dom| < |cod|.
    real, padded = getattr(universal, induced), []

    def pad(*args):
        part = real(*args)
        if padded:
            return part
        factors = part.target.invariant_factors
        padded.append(FinGenAb(0, factors + factors[-1:]))
        return AbMap(part.source, padded[0], part.cols)

    monkeypatch.setattr(universal, induced, pad)
    pm = comparison([Z2, Z4], Z4)
    assert padded and pm.injective and not pm.bijective


def test_psi_bijective_random_families():
    rng = random.Random(41)
    pool = abelian_groups_up_to_order(8)
    for _ in range(30):
        fam = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        B = rng.choice(pool)
        pm = psi(fam, B)
        assert pm.injective  # always, per the theory
        assert pm.bijective  # Ab is Ab4


def test_psi_inverse_examples():
    c0 = ExtClass(Z2, Z2, (0,))
    c1 = ExtClass(Z2, Z2, (1,))
    one = psi_inverse_via_colim([c1])
    assert find_equivalence(one, realize(c1)) is not None
    two = psi_inverse_via_colim([c0, c0])
    assert classify(two).is_zero()
    mixed = psi_inverse_via_colim([c0, c1])
    assert mixed.middle.order() == 8


def test_psi_inverse_roundtrip_random():
    rng = random.Random(42)
    pool = abelian_groups_up_to_order(8)
    for _ in range(25):
        A = rng.choice(pool)
        classes = []
        for _ in range(rng.randint(1, 3)):
            Bi = rng.choice(pool)
            eg = ext_group(Bi, A)
            classes.append(
                ExtClass(Bi, A, tuple(rng.randrange(g) if g else 0 for g in eg.piece_mods))
            )
        # componentwise pullback check happens inside; raises on failure
        psi_inverse_via_colim(classes)


def test_phi_inverse_roundtrip_random():
    rng = random.Random(44)
    pool = abelian_groups_up_to_order(8)
    for _ in range(25):
        A = rng.choice(pool)
        classes = []
        for _ in range(rng.randint(1, 3)):
            Bi = rng.choice(pool)
            eg = ext_group(A, Bi)
            classes.append(
                ExtClass(A, Bi, tuple(rng.randrange(g) if g else 0 for g in eg.piece_mods))
            )
        # componentwise pushout check happens inside; raises on failure
        seq = phi_inverse_via_lim(classes)
        assert seq.quot == A


@pytest.mark.parametrize("inverse", [psi_inverse_via_colim, phi_inverse_via_lim])
def test_inverses_refuse_empty_and_mismatched_families(inverse):
    with pytest.raises(DomainError, match="at least one class"):
        inverse([])
    # Ψ^{-1} needs a shared sub end, Φ^{-1} a shared quotient end: these
    # two classes share neither.
    with pytest.raises(DomainError, match="must share their"):
        inverse([ExtClass(Z2, Z2, (1,)), ExtClass(Z4, Z4, (2,))])


def test_each_system_is_factored_once(monkeypatch):
    calls = []
    real_local = intlin._local

    def counting_local(rows, qs, carry=None):
        calls.append((len(rows), len(qs)))
        return real_local(rows, qs, carry)

    A = FinGenAb(0, (2, 2, 4, 4))
    seq = realize(ExtClass(A, Z4, (1, 0, 3, 2)))
    cert = build_universal_extension(Z2, Z2)
    G = FinGenAb(0, (2, 4, 4))
    square = pullback(AbMap.identity(G), AbMap.identity(G))
    monkeypatch.setattr(intlin, "_local", counting_local)
    monkeypatch.setattr(intlin, "_snf", None)  # every system here is torsion
    monkeypatch.setattr(intlin, "snf", None)  # a solve forms no U

    # one elimination of g modulo A and one of f modulo E, each at the prime 2 alone
    assert classify(seq) == ExtClass(A, Z4, (1, 0, 3, 2))
    assert len(calls) == 2
    calls.clear()
    assert len(cyclic_generation_check(cert, samples=5).witnesses) == 5
    assert len(calls) == 1
    calls.clear()
    assert square.apex.dim == 3
    med = square.mediator(square.left, square.right)
    assert med == AbMap.identity(square.apex)
    assert len(calls) == 1


def test_torsion_systems_never_reach_the_integer_elimination(monkeypatch):
    # With the integer SNF and canonicalize gone, the finite work still runs:
    # classify of the |X| = 128 extension, realize of finite classes, the
    # cyclic check, and classify of a free middle over a finite quotient,
    # whose descent reads E's free rows modulo exp(Q)².  A free end of
    # realize, and a quotient with free rank, still take the integer path.
    cert = build_universal_extension(FinGenAb(0, (2, 4)), FinGenAb(0, (2, 2, 4)))
    small = build_universal_extension(Z2, FinGenAb(0, (2, 2)))
    free = realize(ExtClass(Z2, FinGenAb(1, (2,)), (1, 1)))
    free_quotient = realize(ExtClass(FinGenAb(1, (2,)), Z2, (1,)))
    assert free.middle.free_rank and free_quotient.quot.free_rank

    def gone(*_args, **_kwargs):
        raise AssertionError("the integer elimination ran")

    monkeypatch.setattr(intlin, "_snf", gone)
    monkeypatch.setattr(homext, "canonicalize", gone)
    monkeypatch.setattr(abgroup, "canonicalize", gone)
    assert classify(cert.sequence) == cert.canonical_class
    rng = random.Random(2025)
    for A, B in ((FinGenAb(0, (2, 2, 4)), Z4), (FinGenAb(0, (6, 6)), FinGenAb(0, (2, 6))), (Z3, FinGenAb(0, (3, 9)))):
        for _ in range(5):
            c = ExtClass(A, B, tuple(rng.randrange(max(g, 1)) for g in ext_group(A, B).piece_mods))
            assert classify(realize(c)) == c
    assert cyclic_generation_check(small, samples=3).passed
    assert classify(free) == ExtClass(Z2, FinGenAb(1, (2,)), (1, 1))
    with pytest.raises(AssertionError, match="integer elimination"):
        realize(ExtClass(Z2, FinGenAb(1, (2,)), (1, 1)))  # E has free rank
    with pytest.raises(AssertionError, match="integer elimination"):
        classify(free_quotient)


# ---------------------------------------------------------------------------
# Universal extension certificates


def test_degenerate_certificate():
    # X = Ext^1 is trivial, so it is the zero class alone: |X| = 1, B^(X) = B
    # and the middle is A ⊕ B, here Z(3) ⊕ Z(2) = Z(6), in both directions.
    Z6 = FinGenAb(0, (6,))
    cert = build_universal_extension(Z2, Z3)
    assert cert.degenerate and cert.all_pass
    assert cert.X == (ExtClass(Z2, Z3, (0,)),)
    assert cert.to_json()["X_size"] == 1
    assert (cert.sequence.sub, cert.sequence.middle, cert.sequence.quot) == (Z3, Z6, Z2)
    co = build_universal_coextension(Z2, Z3)
    assert co.degenerate and co.all_pass
    assert co.X == (ExtClass(Z3, Z2, (0,)),)
    assert (co.sequence.sub, co.sequence.middle, co.sequence.quot) == (Z2, Z6, Z3)
    free = build_universal_extension(FinGenAb(1, ()), Z2)  # Ext^1(Z, -) = 0 has no coordinates
    assert free.degenerate and free.X == (ExtClass(FinGenAb(1, ()), Z2, ()),)
    assert free.sequence.middle == FinGenAb(1, (2,))
    assert free.to_json(include_sequence=True)["class"] == free.canonical_class.to_json()


def test_certificate_z2_z2():
    cert = build_universal_extension(Z2, Z2)
    assert len(cert.X) == 2
    assert cert.sequence.middle.order() == 8
    assert cert.all_pass and cert.conditions_agree()
    assert cert.sequence.quot == FinGenAb(0, (2, 2))


def test_certificate_z4_z2():
    cert = build_universal_extension(Z4, Z2)
    assert len(cert.X) == 2  # Ext^1(Z4, Z2) = Z2
    assert cert.all_pass


def test_coextension_certificates():
    co = build_universal_coextension(Z2, Z2)
    assert len(co.X) == 2 and co.all_pass
    assert co.sequence.middle.order() == 8
    co2 = build_universal_coextension(Z2, Z4)
    # X = Ext^1(Z4, Z2) has two elements; middle order |B|^|X| * |A|
    assert len(co2.X) == 2
    assert co2.sequence.middle.order() == 2 ** 2 * 4
    assert co2.all_pass


def test_certificate_pullbacks_recover_representatives():
    cert = build_universal_extension(Z4, Z2)
    eta = cert.canonical_class
    ds = direct_sum([Z4] * len(cert.X))
    for i, cls in enumerate(cert.X):
        assert pullback_action(eta, ds.injections[i]) == cls


A336 = FinGenAb(0, (3, 3, 6))

AUDIT_CASES = [
    # small finite pairs, both directions
    ("extension", FinGenAb(0, (2, 2)), Z2),
    ("coextension", FinGenAb(0, (2, 2)), Z2),
    ("extension", FinGenAb(0, (2, 4)), Z4),
    ("coextension", FinGenAb(0, (2, 4)), Z4),
    ("extension", Z4, FinGenAb(0, (2, 2))),
    ("coextension", Z4, FinGenAb(0, (2, 2))),
    # free rank in A: the free part of A lifts
    ("coextension", Z2, FinGenAb(1, (2,))),
    ("coextension", Z4, FinGenAb(1, (2,))),
    ("coextension", FinGenAb(0, (2, 2)), FinGenAb(1, (2,))),
    ("extension", Z2, FinGenAb(1, (2,))),
    # free rank in B: free slots split off as free summands
    ("extension", FinGenAb(1, (2,)), Z2),
    ("coextension", FinGenAb(1, (2,)), Z2),
    ("extension", FinGenAb(1, (2,)), FinGenAb(1, (4,))),
    ("coextension", FinGenAb(1, (4,)), Z2),
    # split factors that do not chain with the core: regrouped by prime
    ("extension", FinGenAb(0, (2, 2)), A336),
    ("coextension", FinGenAb(0, (2, 2)), A336),
    ("extension", FinGenAb(0, (2, 4)), A336),
    ("coextension", FinGenAb(0, (2, 4)), A336),
]


@pytest.mark.parametrize(
    "direction,B,A", AUDIT_CASES, ids=[f"{d}:{B}:{A}".replace(" ", "") for d, B, A in AUDIT_CASES]
)
def test_builder_matches_literal_construction(direction, B, A):
    if direction == "extension":
        cert = build_universal_extension(B, A)
        literal = psi_inverse_via_colim(cert.X)
    else:
        cert = build_universal_coextension(B, A)
        literal = phi_inverse_via_lim(cert.X)
    assert all(r.passed for r in audit(cert))
    assert cert.sequence.middle == literal.middle
    assert classify(literal) == cert.canonical_class


def _audit(direction, B, A):
    """The certificate of (B, A) against checks the builder does not share:
    ``audit`` and |X| against the cocycle count."""
    if direction == "extension":
        cert, pair = build_universal_extension(B, A), (B, A)
    else:
        cert, pair = build_universal_coextension(B, A), (A, B)
    assert all(r.passed for r in audit(cert))
    assert len(cert.X) == ext_count_by_cocycles(*(ConcreteGroup.from_group(G) for G in pair))


def test_independent_audit_of_every_pair_up_to_order_8_with_x_up_to_32():
    groups = abelian_groups_up_to_order(8)
    audited = 0
    for B in groups:
        for A in groups:
            for direction, pair in (("extension", (B, A)), ("coextension", (A, B))):
                if 1 < ext_group(*pair).order() <= 32:
                    _audit(direction, B, A)
                    audited += 1
    assert audited == 98


# Every certificate of order at most 8 with |X| = 64, in both directions.
@pytest.mark.parametrize(
    "direction, B, A",
    [
        (direction, FinGenAb(0, B), FinGenAb(0, A))
        for B, A in (((2, 4), (2, 2, 2)), ((2, 2, 2), (2, 4)), ((2, 2), (2, 2, 2)), ((2, 2, 2), (2, 2)))
        for direction in ("extension", "coextension")
    ],
)
def test_independent_audit_at_x_64(direction, B, A):
    _audit(direction, B, A)


# Ends taken with free rank, beside the groups of order at most 8.
FREE_ENDS = [FinGenAb(1, ()), FinGenAb(1, (2,)), FinGenAb(2, (2,)), FinGenAb(1, (3,))]


def _property_pairs():
    """Every ordered pair of order at most 8, then each free end as B and as A."""
    small = abelian_groups_up_to_order(8)
    yield from itertools.product(small, small)
    for F in FREE_ENDS:
        for G in small + FREE_ENDS:
            yield F, G
            if G not in FREE_ENDS:
                yield G, F


def test_every_certificate_has_the_ends_and_class_it_claims():
    """The B^(X) end is B^(|X|), a finite middle has order |A|·|B|^|X|, the
    generic exactness check of ``ShortExactSeq`` accepts the sequence (with a
    finite middle ``realize`` proves exactness through its presentation map
    instead), and every report of ``audit`` passes, the four at |X| = 512
    among them; trivial Ext included, where |X| = 1 and E = A ⊕ B."""
    counts = {"certificates": 0, "trivial": 0, "audited": 0}
    for B, A in _property_pairs():
        for build in (build_universal_extension, build_universal_coextension):
            cert = build(B, A)
            n = len(cert.X)
            seq = cert.sequence
            power = FinGenAb(n * B.free_rank, tuple(sorted(B.invariant_factors * n)))
            assert cert.all_pass
            assert (seq.sub, seq.quot) == ((A, power) if cert.direction == "extension" else (power, A))
            assert ShortExactSeq(seq.f, seq.g) == seq
            if seq.middle.is_finite():
                assert A.is_finite() and B.is_finite()
                assert seq.middle.order() == A.order() * B.order() ** n
            assert all(r.passed for r in audit(cert))
            counts["audited"] += 1
            counts["certificates"] += 1
            counts["trivial"] += cert.degenerate
    assert counts == {"certificates": 450, "trivial": 206, "audited": 450}


def test_non_universal_candidate_fails_all_three():
    # split sequence A ↪ A ⊕ B^(X) ↠ B^(X) is not universal when Ext ≠ 0
    B, A = Z2, Z2
    X = list(ext_group(B, A).classes())
    BX = direct_sum([B] * len(X)).total
    ds = direct_sum([A, BX])
    seq = ShortExactSeq(ds.injections[0], ds.projections[1])
    ra, rb, rc = verify_extension_conditions(seq, B)
    assert not ra.passed and not rb.passed and not rc.passed  # verdicts agree on failure


@pytest.mark.parametrize(
    "B, A",
    [(Z2, Z2), (FinGenAb(0, (2, 4)), FinGenAb(1, (2,))), (FinGenAb(1, (4,)), FinGenAb(0, (2, 6)))],
    ids=["Z2:Z2", "Z2+Z4:Z+Z2", "Z+Z4:Z2+Z6"],
)
def test_non_universal_cocandidate_fails_all_three(B, A):
    # The dual: the split B^X ↪ B^X ⊕ A ↠ A, |X| = |Ext^1(A, B)|, is not a
    # universal co-extension when Ext ≠ 0, free ends on either side included.
    BX = direct_sum([B] * ext_group(A, B).order()).total
    ds = direct_sum([BX, A])
    seq = ShortExactSeq(ds.injections[0], ds.projections[1])
    ra, rb, rc = verify_coextension_conditions(seq, B)
    assert not ra.passed and not rb.passed and not rc.passed


@pytest.mark.parametrize("build", [build_universal_extension, build_universal_coextension], ids=["extension", "coextension"])
def test_audit_eliminates_a_sequence_once(monkeypatch, build):
    # The class is the sequence's, derived on first read: audit's "class"
    # report and δ in (c) share one lift solve and one descent solve, where
    # a classify of their own would make four.  realize sets no class, so
    # classify of its sequence still solves twice.
    cert = build(FinGenAb(0, (2, 4)), FinGenAb(0, (2, 2)))
    calls = _record(monkeypatch, "solve_mod_many", homext)
    reports = audit(cert)
    assert [r.name for r in reports] == ["class", "a", "b", "c"] and all(r.passed for r in reports)
    assert len(calls) == 2
    assert all(r.passed for r in audit(cert)) and len(calls) == 2  # read again, solved for no more
    c = cert.X[-1]
    assert classify(realize(c)) == c and len(calls) == 4


@pytest.mark.parametrize("build", [build_universal_extension, build_universal_coextension], ids=["extension", "coextension"])
def test_audit_fails_a_certificate_claiming_another_class(build):
    # The class report alone sees a canonical class swapped for another of
    # the same Ext group: the sequence, which the verifiers read, is unchanged.
    cert = build(Z2, FinGenAb(0, (2, 4)))
    eta = cert.canonical_class
    other = next(c for c in ext_group(eta.A, eta.B).classes() if c != eta)
    reports = audit(dataclasses.replace(cert, canonical_class=other))
    assert [(r.name, r.passed) for r in reports] == [("class", False), ("a", True), ("b", True), ("c", True)]
    assert all(r.passed for r in audit(cert))


@pytest.mark.parametrize("build", [build_universal_extension, build_universal_coextension], ids=["extension", "coextension"])
def test_builders_refuse_their_own_failed_conditions(monkeypatch, build):
    # (c) alone failing makes the three verdicts disagree; all three failing
    # is a construction that failed its own verification.
    assert build(Z2, Z4).all_pass
    monkeypatch.setattr(universal, "_generates", lambda *_: False)
    with pytest.raises(DomainError, match="verdicts disagree: a=True b=True c=False"):
        build(Z2, Z4)
    monkeypatch.setattr(universal, "_zero_mod", lambda *_: False)
    monkeypatch.setattr(universal, "orders_match", lambda *_: False)
    with pytest.raises(DomainError, match="failed its own verification"):
        build(Z2, Z4)


@pytest.mark.parametrize(
    "inverse, action", [(psi_inverse_via_colim, "pullback_action"), (phi_inverse_via_lim, "pushout_action")], ids=["psi", "phi"]
)
def test_inverses_refuse_a_sequence_that_misses_an_input(monkeypatch, inverse, action):
    # The class read back along one of the structure maps is shifted by one
    # in its first coordinate, so it no longer matches that input.
    real = getattr(universal, action)

    def shifted(c, h):
        out = real(c, h)
        return ExtClass(out.A, out.B, (out.coords[0] + 1, *out.coords[1:]))

    classes = [ExtClass(Z2, Z2, (1,)), ExtClass(Z2, Z2, (0,))]
    inverse(classes)
    monkeypatch.setattr(universal, action, shifted)
    with pytest.raises(DomainError, match="of the constructed sequence does not reproduce the inputs"):
        inverse(classes)


def test_exhaustive_small_pairs_have_certificates():
    # Ab is Ab4: universal extensions exist for every pair (orders ≤ 6 here;
    # the acceptance suite pushes this to 8)
    groups = abelian_groups_up_to_order(6)
    for B in groups:
        for A in groups:
            assert build_universal_extension(B, A).all_pass
            assert build_universal_coextension(B, A).all_pass


def test_certificate_with_free_sub_end():
    Zfree = FinGenAb(1, ())
    cert = build_universal_extension(Z2, Zfree)  # Ext^1(Z2, Z) = Z2
    assert len(cert.X) == 2
    assert cert.all_pass


@pytest.mark.parametrize(
    "build, k, size, twos",
    [
        (build_universal_coextension, 3, 64, 125),
        (build_universal_extension, 3, 256, 508),
        (build_universal_coextension, 4, 256, 508),
    ],
    ids=["coextension", "extension", "coextension-256"],
)
def test_free_rank_pairs_build_in_seconds(build, k, size, twos):
    # B = Z(2)^2, A = Z + Z(2)^k: exactness with a free summand in the middle
    # is read off invariant factors, not solved for column by column.
    t0 = time.perf_counter()
    cert = build(FinGenAb(0, (2, 2)), FinGenAb(1, (2,) * k))
    assert time.perf_counter() - t0 < 5
    assert cert.all_pass and len(cert.X) == size
    assert cert.sequence.middle == FinGenAb(1, (2,) * twos + (4,) * k)


P19 = 1000000000000000003  # prime


@pytest.mark.parametrize(
    "B, A",
    [
        (FinGenAb(0, (2,) * 5), FinGenAb(0, (2,) * 3)),
        (FinGenAb(0, (P19,)), FinGenAb(0, (P19**2,))),
    ],
    ids=["Z(2)^5/Z(2)^3", "Z(p)/Z(p^2)"],
)
def test_oversized_pairs_are_refused_before_x_is_listed(monkeypatch, B, A):
    def listed(self):
        raise AssertionError("X was listed")

    monkeypatch.setattr(ExtGroup, "classes", listed)
    t0 = time.perf_counter()
    # Ext^1(B, A) and Ext^1(A, B) have the same order here (2^15 and p), so
    # B^(X) has 163,840 and p slots in both directions; the refusal names the budget.
    budget = f"at least {universal.UNIVERSAL_SLOT_BUDGET} slots, the slot budget"
    for refused in (build_universal_extension, build_universal_coextension):
        with pytest.raises(BudgetExceeded, match=budget):
            refused(B, A)
    with pytest.raises(BudgetExceeded, match=budget):
        sufficient_condition_check(A, B)
    assert time.perf_counter() - t0 < 1


def test_huge_ext_groups_are_refused_without_their_order(monkeypatch):
    # Ext^1(Z(2)^512, Z(2)^512) has 2^262144 classes: the slots are multiplied
    # out only until they reach the budget, so neither its order nor a digit
    # string of it is ever formed.
    def ordered(self):
        raise AssertionError("the order of X was formed")

    G = FinGenAb(0, (2,) * 512)
    monkeypatch.setattr(ExtGroup, "order", ordered)
    for refused in (build_universal_extension, build_universal_coextension):
        with pytest.raises(BudgetExceeded, match=f"at least {universal.UNIVERSAL_SLOT_BUDGET} slots"):
            refused(G, G)


def test_slot_budget_boundary(monkeypatch):
    # B = A = Z(2): |X| = 2 and dim B = 1, so two slots.
    monkeypatch.setattr(universal, "UNIVERSAL_SLOT_BUDGET", 3)
    assert build_universal_extension(Z2, Z2).all_pass
    assert build_universal_coextension(Z2, Z2).all_pass
    assert sufficient_condition_check(Z2, Z2).consistent
    monkeypatch.setattr(universal, "UNIVERSAL_SLOT_BUDGET", 2)
    for refused in (build_universal_extension, build_universal_coextension, sufficient_condition_check):
        with pytest.raises(BudgetExceeded):
            refused(Z2, Z2)


# SHA-256 of repr(matrix.rows) for (B, A) = (Z(2)^4, Z(2)^2), as (direction,
# leg) -> (shape, digest).  A change that means to move the legs prints the
# table anew with ``PYTHONPATH=src python tests/test_universal.py``.
SPARSE_GUARD_ROWS = {
    ("extension", "f"): ((1024, 2), "cb3e116674fa2ebdc107f240fb91f6aa5d5d2edebf6a6bbd006980b1c77a2e31"),
    ("extension", "g"): ((1024, 1024), "0116353f5e50491d67146103db19f42482d65c8f104acca20d3782e230609924"),
    ("coextension", "f"): ((1024, 1024), "908284cdb4375b07b2c85db60503e15e609c7ee7412b08612418c06632733357"),
    ("coextension", "g"): ((2, 1024), "9887bb1e93bfc00a900c06781a3f9cd8f0bb7d32247532e592c38ef0634915fa"),
}


def leg_digests(certs) -> dict:
    """(direction, leg) -> (shape, SHA-256 of repr(matrix.rows)) of the certificates' legs."""
    table = {}
    for cert in certs:
        for leg in ("f", "g"):
            rows = getattr(cert.sequence, leg).matrix.rows
            table[cert.direction, leg] = ((len(rows), len(rows[0])), hashlib.sha256(repr(rows).encode()).hexdigest())
    return table


def test_universal_builds_build_no_dense_slot_matrix(monkeypatch):
    # |X| = 256 and dim B = 4: p is 1024 x 1024 with about two nonzeros per
    # column, so no matrix the build makes may come near its dense size.
    cells = []
    real = intlin.IntMatrix.__post_init__

    def counting(self):
        real(self)
        cells.append(self.nrows * self.ncols)

    monkeypatch.setattr(intlin.IntMatrix, "__post_init__", counting)
    B, A = FinGenAb(0, (2,) * 4), FinGenAb(0, (2,) * 2)
    certs = [build_universal_extension(B, A), build_universal_coextension(B, A)]
    monkeypatch.undo()
    assert not cells  # no IntMatrix at all: every elimination takes sparse rows
    assert leg_digests(certs) == SPARSE_GUARD_ROWS


def test_checks_build_no_dense_matrix(monkeypatch):
    # The independent checks of a certificate hand maps to the elimination as
    # their sparse columns: classify of the |X| = 256 co-extension (its
    # [f | diag] is 1024 x 2048) and of the |X| = 128 extension, kernels,
    # cokernels, pullback mediators, mono with free rank, cokernel_group and
    # find_equivalence build no IntMatrix.
    coext = build_universal_coextension(FinGenAb(0, (2,) * 4), FinGenAb(0, (2, 2)))
    ext = build_universal_extension(FinGenAb(0, (2, 4)), FinGenAb(0, (2, 2, 4)))
    assert (len(coext.X), len(ext.X)) == (256, 128)
    A, B = FinGenAb(0, (2, 4)), FinGenAb(1, (2, 4))
    seq = realize(ExtClass(A, B, (1, 1, 2, 0, 3, 2)))
    h = AbMap(Z4, A, [{0: 1, 1: 2}])
    cells = []
    real = intlin.IntMatrix.__post_init__

    def counting(self):
        real(self)
        cells.append(self.shape)

    monkeypatch.setattr(intlin.IntMatrix, "__post_init__", counting)
    assert classify(coext.sequence) == coext.canonical_class
    assert classify(ext.sequence) == ext.canonical_class
    assert kernel(seq.g)[0] == B and cokernel(seq.f)[0] == A
    pulled = seq_pullback(seq, h)  # a pullback and its mediator
    assert classify(pulled) == pullback_action(classify(seq), h)
    assert is_mono(seq.f) and not is_mono(AbMap(FinGenAb(2, ()), FinGenAb(1, ()), [{0: 1}, {0: 2}]))
    assert cokernel_group(seq.f.cols, seq.middle.moduli()) == A
    assert find_equivalence(seq, seq_pullback(seq, AbMap.identity(A))) is not None
    monkeypatch.undo()
    assert cells == []


def test_coextension_read_back_catches_misplaced_slots(monkeypatch):
    """The co-extension builder reads every class back from γ before it
    realizes γ; a γ with its slots out of place is refused."""
    real = universal._reduced_class
    B, A = FinGenAb(0, (2, 4)), Z2
    assert build_universal_coextension(B, A).all_pass
    monkeypatch.setattr(universal, "_reduced_class", lambda A_, B_, coords: real(A_, B_, coords[::-1]))
    with pytest.raises(DomainError, match="Φ does not reproduce the inputs"):
        build_universal_coextension(B, A)


def test_power_group_numbers_the_slots_as_cyclic_sum():
    # B^(n) and its slot numbering read off B's runs equal the canonical
    # form of the n copies, for B with free rank and mixed primes.
    rng = random.Random(13)
    pool = [G.invariant_factors for G in abelian_groups_up_to_order(36)] + [(2, 6, 12), (3, 3, 15, 30)]
    for _ in range(60):
        B = FinGenAb(rng.randint(0, 2), rng.choice(pool))
        if B.is_trivial():
            continue
        n = rng.randint(1, 9)
        group, runs = universal._power_group(B, n)
        want, place, _lift = cyclic_sum(B.moduli() * n)
        assert group == want
        slot = {}
        for j0, j1 in runs:
            for x in range(n):
                for j in range(j0, j1):
                    slot[x * B.dim + j] = {n * j0 + x * (j1 - j0) + (j - j0): 1}
        assert [slot[s] for s in range(n * B.dim)] == place


def test_projective_b_is_vacuously_universal():
    # free B has Ext^1(B, A) = 0, so X is the zero class and the split
    # sequence A ↪ A ⊕ B ↠ B passes the generic verifier too
    Zfree = FinGenAb(1, ())
    for A in (Z2, Z4, FinGenAb(2, (6,))):
        cert = build_universal_extension(Zfree, A)
        assert cert.degenerate and cert.all_pass
        assert cert.sequence.middle == direct_sum([A, Zfree]).total
        assert all(r.passed for r in verify_extension_conditions(cert.sequence, Zfree))


# ---------------------------------------------------------------------------
# Conditions (a) and (a*): the vanishing rules against the generic Ext maps


def _covariant_rule(B, h):
    """The builders' (a) on h: Ext^1(B, h) = 0 iff h vanishes modulo each factor of B."""
    return all(universal._zero_mod(d, h.target.moduli(), h.cols) for d in sorted(set(B.invariant_factors)))


def _contravariant_rule(h, B):
    """The builders' (a*) on h: Ext^1(h, B) = 0 iff h's weights vanish modulo each modulus of B."""
    weights = homext._ext_weights(h.cols, h.source.invariant_factors, h.target.invariant_factors)
    return all(universal._zero_mod(m, h.source.invariant_factors, weights) for m in sorted(set(B.moduli())))


def test_vanishing_rules_match_the_generic_ext_maps():
    # Seeded well-defined h : S → T with free ranks, some of them scaled so
    # that they vanish modulo more factors; B of order at most 16, with or
    # without a free summand.
    rng = random.Random(22)
    pool = abelian_groups_up_to_order(16)
    verdicts = {"covariant": [], "contravariant": []}
    for _ in range(700):
        S, T = (FinGenAb(rng.choice((0, 0, 1, 2)), rng.choice(pool).invariant_factors) for _ in range(2))
        B = FinGenAb(rng.choice((0, 1)), rng.choice(pool).invariant_factors)
        H = hom_group(S, T)
        scale = rng.choice((1, 1, 2, 3, 4, 6))
        h = H.recompose({k: scale * (rng.randrange(m) if m else rng.randint(-3, 3)) for k, m in enumerate(H.carrier.moduli())})
        cov = _covariant_rule(B, h)
        assert cov == ext_covariant_map(B, h).is_zero()
        contra = _contravariant_rule(h, B)
        assert contra == ext_contravariant_map(h, B).is_zero()
        verdicts["covariant"].append(cov)
        verdicts["contravariant"].append(contra)
    assert all(set(v) == {True, False} for v in verdicts.values())


def test_ext_weights_are_the_blocks_of_the_pullback_action():
    # Over a cyclic B = Z(m) (Z when m = 0), Ext^1(T, B) has one slot per
    # torsion generator t of T, and pulling the unit class at t back along h
    # puts weight[t][s] at slot s, reduced modulo gcd(σ_s, m).  The weights
    # are checked against the class of the geometrically pulled-back
    # realization, and against pullback_action, which reads them.
    rng = random.Random(23)
    pool = abelian_groups_up_to_order(16)
    for _ in range(200):
        S, T = (FinGenAb(rng.choice((0, 1)), rng.choice(pool).invariant_factors) for _ in range(2))
        H = hom_group(S, T)
        h = H.recompose({k: rng.randrange(m) if m else rng.randint(-3, 3) for k, m in enumerate(H.carrier.moduli())})
        weights = homext._ext_weights(h.cols, S.invariant_factors, T.invariant_factors)
        assert len(weights) == T.torsion_count
        for m in (0, 2, 3, 4, 12):
            B = FinGenAb(0, (m,)) if m else FinGenAb(1, ())
            for t in range(T.torsion_count):
                unit = ExtClass(T, B, tuple(int(k == t) for k in range(T.torsion_count)))
                want = tuple(weights[t].get(s, 0) % math.gcd(d, m) for s, d in enumerate(S.invariant_factors))
                assert classify(seq_pullback(realize(unit), h)).coords == want
                assert pullback_action(unit, h).coords == want


def test_split_sequences_fail_the_builders_conditions_when_ext_is_nontrivial(monkeypatch):
    # With realize replaced by the split sequence A ↪ A ⊕ B^(X) ↠ B^(X)
    # (dually B^X ↪ B^X ⊕ A ↠ A), Ext^1(B, u) and Ext^1(u, B) are injective
    # and Ext^1(B, p), Ext^1(p, B) onto: the builders' (a) and (b) must fail
    # exactly when the Ext group is nontrivial.
    def split(cls):
        ds = direct_sum([cls.B, cls.A])
        return ShortExactSeq(ds.injections[0], ds.projections[1])

    monkeypatch.setattr(universal, "realize", split)
    monkeypatch.setattr(universal, "_finalize", lambda direction, B, A, X, seq, cls, reports: (len(X), reports))
    groups = abelian_groups_up_to_order(8) + [FinGenAb(1, ()), FinGenAb(1, (2,)), FinGenAb(2, (3,))]
    verdicts = set()
    for B in groups:
        for A in groups:
            for build, ext in ((build_universal_extension, ext_group(B, A)), (build_universal_coextension, ext_group(A, B))):
                if 0 in ext.piece_mods or ext.order() > 64:
                    continue
                n, (ra, rb, _) = build(B, A)
                assert ra.passed == rb.passed == (n == 1), (build.__name__, B, A)
                verdicts.add(ra.passed)
    assert verdicts == {True, False}


def test_builders_act_on_no_class(monkeypatch):
    # The builders decide every condition on the legs' cells: no class
    # action and no induced map on an Ext group is reached, even with free ends.
    def refuse(*args, **kwargs):
        raise AssertionError("a universal builder acted on an Ext class")

    cases = RANK_CORE_CASES + [(FinGenAb(1, (2, 4)), FinGenAb(1, (2,))), (FinGenAb(0, (2, 2)), FinGenAb(2, (4,)))]
    for module in (universal, homext):
        for name in ("pushout_action", "pullback_action", "ext_covariant_map", "ext_contravariant_map"):
            monkeypatch.setattr(module, name, refuse)
    certs = [build(B, A) for B, A in cases for build in (build_universal_extension, build_universal_coextension)]
    monkeypatch.undo()
    assert sum(not cert.degenerate for cert in certs) >= 12
    for cert in certs:
        verify = verify_extension_conditions if cert.direction == "extension" else verify_coextension_conditions
        assert cert.all_pass and all(r.passed for r in verify(cert.sequence, cert.B))


def test_induced_maps_act_on_flat_slots(monkeypatch):
    # The induced maps, δ, Ψ/Φ and the cyclic check read Ext^1's action off
    # flat slots and Hom pieces: none of them acts on a class, recomposes a
    # Hom map or lifts a carrier generator to a class.  Witnesses build γ
    # from its piece coefficients and re-verify it by the class action, so
    # no sample is drawn.
    def refuse(*args, **kwargs):
        raise AssertionError("an Ext^1 action went through a class or a Hom map")

    A, B, T = FinGenAb(1, (2, 4)), FinGenAb(1, (2,)), FinGenAb(1, (2, 4))
    s = realize(ExtClass(A, B, (1, 1, 2, 3)))
    rng = random.Random(24)
    h, k = (H.recompose({j: rng.randrange(m) if m else rng.randint(-3, 3) for j, m in enumerate(H.carrier.moduli())}) for H in (hom_group(T, A), hom_group(B, T)))
    cert = build_universal_extension(FinGenAb(0, (2, 4)), Z2)
    for module in (universal, homext):
        monkeypatch.setattr(module, "pushout_action", refuse)
        monkeypatch.setattr(module, "pullback_action", refuse)
    for name in ("recompose", "from_pieces"):
        monkeypatch.setattr(HomGroup, name, refuse)
    monkeypatch.setattr(ExtGroup, "from_carrier", refuse)
    maps = [
        ext_covariant_map(Z4, k),
        ext_contravariant_map(h, B),
        connecting_hom(s, T),
        connecting_hom_dual(s, T),
        psi([A, T, Z2], B).matrix,
        phi([A, T, Z2], B).matrix,
    ]
    assert cyclic_generation_check(cert, samples=0).passed
    monkeypatch.undo()
    assert all(not m.is_zero() for m in maps)


# ---------------------------------------------------------------------------
# Conditions (b) and (c): the order count and the rank core against the restricted-map route


def _restricted_map(q, src_mods, tgt_mods, cols):
    """The sparse ``cols`` restricted to the gcd groups ⊕Z(gcd(q, m)), Z read
    as Z(q), as an AbMap, which checks that it is well defined."""
    src = [(j, math.gcd(m, q)) for j, m in enumerate(src_mods) if math.gcd(m, q) > 1]
    tgt = [(i, math.gcd(m, q)) for i, m in enumerate(tgt_mods) if math.gcd(m, q) > 1]
    mat = IntMatrix.from_rows([[cols[j].get(i, 0) for j, _ in src] for i, _ in tgt], ncols=len(src))
    return AbMap.from_matrix(FinGenAb(0, tuple(g for _, g in src)), FinGenAb(0, tuple(g for _, g in tgt)), mat)


def _piece_class(ext, vec):
    """The ExtClass of a sparse flat vector of ``ext``'s coordinates."""
    return ExtClass(ext.A, ext.B, tuple(vec.get(k, 0) for k in range(len(ext.piece_mods))))


def _pieces_map(ext, pieces):
    """The pieces as a canonical source group mapping to the carrier: the
    dense route ``_generates`` took before its rank core, each sparse flat
    vector rebuilt as an ExtClass and placed by ``to_carrier``."""
    pieces = sorted(pieces, key=lambda piece: (piece[1] == 0, piece[1]))
    src = FinGenAb(sum(1 for _, g in pieces if not g), tuple(g for _, g in pieces if g))
    cols = [ext.to_carrier(_piece_class(ext, vec)) for vec, _ in pieces]
    return AbMap.from_matrix(src, ext.carrier, IntMatrix.from_columns(cols, ext.carrier.dim))


def _record(monkeypatch, name, module=universal):
    calls = []
    real = getattr(module, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, record)
    return calls


RANK_CORE_CASES = [
    (Z2, Z2),
    (FinGenAb(0, (2, 4)), Z2),
    (Z4, FinGenAb(0, (2, 6))),
    (FinGenAb(0, (6,)), FinGenAb(0, (6,))),
    (FinGenAb(1, (2,)), Z4),
    (FinGenAb(1, (4,)), Z2),
    (Z2, FinGenAb(1, (2,))),
]
# q values that share all, some or none of the primes of the moduli above.
EXTRA_Q = (2, 3, 4, 10, 12, 15)


def _p_restricted(seq, direction, q):
    """p (extension) or its Ext-dual weights (co-extension) restricted to the
    q-parts: the map whose injectivity is (b) or (b*) at q, and the route the
    builders ranked before they counted."""
    if direction == "extension":
        p = seq.g
        return _restricted_map(q, p.source.moduli(), p.target.moduli(), p.cols)
    p = seq.f
    weights = homext._ext_weights(p.cols, p.source.invariant_factors, p.target.invariant_factors)
    return _restricted_map(q, p.target.invariant_factors, p.source.invariant_factors, weights)


def _count(seq, direction, q):
    """The builders' count for (b) or (b*) at q on any exact sequence with
    p its quotient (extension) or sub (co-extension) leg."""
    if direction == "extension":
        return abgroup.orders_match(seq.middle, [seq.quot], q)
    return abgroup.orders_match(torsion_part(seq.middle), [torsion_part(seq.sub)], q)


@pytest.mark.parametrize("build", [build_universal_extension, build_universal_coextension])
def test_order_count_matches_the_restricted_map(monkeypatch, build):
    # The builders count (b)/(b*) at each factor (extension) or modulus
    # (co-extension) of B; the injectivity of p's restriction is the oracle.
    calls = []
    real = abgroup.orders_match

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(universal, "orders_match", record)
    built = []
    for B, A in RANK_CORE_CASES:
        n = len(calls)
        built.append((B, build(B, A), calls[n:]))
    monkeypatch.undo()
    verdicts = set()
    for B, cert, made in built:
        seq, direction = cert.sequence, cert.direction
        coext = direction == "coextension"
        BX = seq.sub if coext else seq.quot
        ends = (torsion_part(seq.middle), [torsion_part(BX)]) if coext else (seq.middle, [BX])
        assert all(args[:2] == ends and not kwargs for args, kwargs in made)
        qs = [args[2] for args, _ in made]
        assert qs == sorted(set(B.moduli() if coext else B.invariant_factors))
        for q in qs + list(EXTRA_Q):
            f = _p_restricted(seq, direction, q)
            got = _count(seq, direction, q)
            assert got == is_mono(f) == kernel(f)[0].is_trivial(), (str(B), direction, q)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_order_count_matches_the_verifiers_off_the_universal_sequences():
    # Exact sequences over B^(n) that are not universal: realizations of
    # random classes of Ext^1(B^(n), A) and Ext^1(A, B^(n)), half of them
    # split.  The count decides (b)/(b*) as the generic verifiers do.
    rng = random.Random(27)
    pool = abelian_groups_up_to_order(8) + [FinGenAb(1, ()), FinGenAb(1, (2,)), FinGenAb(1, (4,))]
    seen = {"extension": set(), "coextension": set()}
    for k in range(240):
        direction = ("extension", "coextension")[k % 2]
        B, A = rng.choice(pool), rng.choice(pool)
        BX = universal._power_group(B, rng.randint(1, 3))[0]
        ext = ext_group(BX, A) if direction == "extension" else ext_group(A, BX)
        coords = tuple(0 if k % 4 < 2 else rng.randrange(g) if g else rng.randint(-3, 3) for g in ext.piece_mods)
        seq = realize(ExtClass(ext.A, ext.B, coords))
        if direction == "extension":
            qs, verify = B.invariant_factors, verify_extension_conditions
        else:
            qs, verify = B.moduli(), verify_coextension_conditions
        got = all(_count(seq, direction, q) for q in qs)
        assert got == verify(seq, B)[1].passed, (direction, str(B), str(A), coords)
        seen[direction].add(got)
    assert seen == {"extension": {True, False}, "coextension": {True, False}}


def test_flat_slot_verdicts_match_the_carrier_route():
    # The generic verifiers decide on Ext's flat slots; the induced maps and
    # δ on carriers, which they replaced, are the oracle.  The sequences are
    # the 240 of the test above, drawn from the same seed.
    rng = random.Random(27)
    pool = abelian_groups_up_to_order(8) + [FinGenAb(1, ()), FinGenAb(1, (2,)), FinGenAb(1, (4,))]
    seen = {(direction, name): set() for direction in ("extension", "coextension") for name in "abc"}
    for k in range(240):
        direction = ("extension", "coextension")[k % 2]
        B, A = rng.choice(pool), rng.choice(pool)
        BX = universal._power_group(B, rng.randint(1, 3))[0]
        ext = ext_group(BX, A) if direction == "extension" else ext_group(A, BX)
        coords = tuple(0 if k % 4 < 2 else rng.randrange(g) if g else rng.randint(-3, 3) for g in ext.piece_mods)
        seq = realize(ExtClass(ext.A, ext.B, coords))
        if direction == "extension":
            u, p = seq.f, seq.g
            reports = verify_extension_conditions(seq, B)
            want = (ext_covariant_map(B, u).is_zero(), is_mono(ext_covariant_map(B, p)), is_epi(connecting_hom(seq, B)))
        else:
            p, u = seq.f, seq.g
            reports = verify_coextension_conditions(seq, B)
            want = (ext_contravariant_map(u, B).is_zero(), is_mono(ext_contravariant_map(p, B)), is_epi(connecting_hom_dual(seq, B)))
        assert tuple(r.passed for r in reports) == want, (direction, str(B), str(A), coords)
        for r in reports:
            seen[direction, r.name].add(r.passed)
    assert all(v == {True, False} for v in seen.values()), seen


def test_audit_forms_no_carrier(monkeypatch):
    # The audit and the cyclic check decide on flat slots and Hom pieces: no
    # carrier of a Hom or Ext group is read, and no induced map is placed in
    # one.  The cyclic checks are the drift guard's, free ends included, each
    # with at least one witness solved for and re-verified.
    def refuse(*args, **kwargs):
        raise AssertionError("the audit formed a carrier")

    cases = RANK_CORE_CASES + [(Z2, Z3), (FinGenAb(0, (2, 2, 2)), FinGenAb(0, (2, 2, 2, 2)))]
    certs = [build(B, A) for B, A in cases for build in (build_universal_extension, build_universal_coextension)]
    cyclic = [(build_universal_extension(parse_finite_group(B), parse_finite_group(A)), max(n, 1), seed) for B, A, n, seed in CYCLIC_CHECKS]
    for group in (ExtGroup, HomGroup):
        for name in ("carrier", "place", "lift"):
            monkeypatch.setattr(group, name, property(refuse))
    monkeypatch.setattr(homext, "_carrier_map", refuse)
    reports = [audit(cert) for cert in certs]
    checks = [cyclic_generation_check(cert, samples=n, seed=seed) for cert, n, seed in cyclic]
    monkeypatch.undo()
    assert {len(cert.X) for cert in certs} >= {1, 2, 4096}
    assert all(r.passed for rs in reports for r in rs)
    assert any(cert.B.free_rank for cert, _, _ in cyclic) and any(cert.A.free_rank for cert, _, _ in cyclic)
    assert all(res.passed for res in checks)
    assert [len(res.witnesses) for res in checks] == [0 if cert.degenerate else n for cert, n, _ in cyclic]


@pytest.mark.parametrize("build", [build_universal_extension, build_universal_coextension])
def test_generates_matches_epi_of_the_pieces(monkeypatch, build):
    calls = _record(monkeypatch, "_generates")
    for B, A in RANK_CORE_CASES:
        build(B, A)
    monkeypatch.undo()
    assert calls
    assert all(type(vec) is dict for _, pieces in calls for vec, _ in pieces)  # sparse flat vectors
    rng = random.Random(31)
    verdicts = set()
    for ext, pieces in calls:
        for some in (pieces, rng.sample(pieces, len(pieces) // 2), pieces[1:]):
            got = universal._generates(ext, some)
            f = _pieces_map(ext, some)
            assert got == is_epi(f) == cokernel(f)[0].is_trivial()
            verdicts.add(got)
    assert verdicts == {True, False}


def test_builds_read_no_carrier_and_sum_once(monkeypatch):
    # A build lists X off the slot moduli and decides (c) on flat slots, so
    # it reads no carrier and no place or lift of an Ext group.  Its one
    # ``cyclic_sum`` is realize's, when both ends are finite.
    def refuse(self):
        raise AssertionError("a universal build read an Ext carrier")

    sums = []
    real_sum = homext.cyclic_sum

    def counted(moduli):
        sums.append(len(moduli))
        return real_sum(moduli)

    for name in ("carrier", "place", "lift"):
        monkeypatch.setattr(ExtGroup, name, property(refuse))
    monkeypatch.setattr(homext, "cyclic_sum", counted)
    cases = RANK_CORE_CASES + [(Z2, Z3), (FinGenAb(0, (2, 2, 2)), FinGenAb(0, (2, 2, 2, 2))), (FinGenAb(1, (2, 4)), FinGenAb(1, (2,)))]
    certs = []
    for B, A in cases:
        for build in (build_universal_extension, build_universal_coextension):
            sums.clear()
            certs.append(build(B, A))
            if B.is_finite() and A.is_finite():
                assert len(sums) == 1, (build.__name__, str(B), str(A))
    monkeypatch.undo()
    assert {len(cert.X) for cert in certs} >= {1, 2, 4096}
    assert all(cert.all_pass for cert in certs)


def test_flat_slot_generation_matches_the_carrier_route(monkeypatch):
    # Condition (c) is decided on Ext's flat slots ⊕Z(t_i), which need not
    # form a chain.  On seeded subsets of the builders' δ pieces, the
    # verdict equals ``is_epi_mod`` of the same pieces placed in the carrier.
    calls = _record(monkeypatch, "_generates")
    directions = []
    # Ext^1(Z(2) + Z(6), Z(3) + Z(6)) has slot moduli 1, 2, 3, 6: no chain.
    for B, A in RANK_CORE_CASES + [(FinGenAb(0, (2, 6)), FinGenAb(0, (3, 6))), (FinGenAb(0, (6, 12)), FinGenAb(0, (4,)))]:
        for build in (build_universal_extension, build_universal_coextension):
            build(B, A)
            directions.append(build.__name__)
    monkeypatch.undo()
    assert len(calls) == len(directions)
    rng = random.Random(29)
    verdicts = {name: set() for name in directions}
    for name, (ext, pieces) in zip(directions, calls):
        for _ in range(40):
            some = rng.sample(pieces, rng.randint(0, len(pieces)))
            got = universal._generates(ext, some)
            placed = [abgroup.sparse_image(ext.place, vec) for vec, _ in some]
            assert got == abgroup.is_epi_mod(placed, [g for _, g in some], ext.carrier.moduli()), (name, ext)
            verdicts[name].add(got)
    assert all(v == {True, False} for v in verdicts.values()), verdicts
    assert any(a % b and b % a for ext, _ in calls for a in ext.piece_mods for b in ext.piece_mods)


@pytest.mark.parametrize("build", [build_universal_extension, build_universal_coextension])
def test_delta_pieces_are_the_images_of_the_hom_pieces(monkeypatch, build):
    # The sparse pieces condition (c) hands ``_generates``, with their
    # orders, are exactly the nonzero δ(h) over the cyclic pieces h of
    # Hom(B, B^(X)) (co-extension: Hom(B^X, B)) with the orders of h, each
    # δ(h) from the generic pullback (pushout) action.
    calls = _record(monkeypatch, "_generates")
    certs = [build(B, A) for B, A in RANK_CORE_CASES + [(Z2, Z3)]]
    monkeypatch.undo()
    for cert, (ext, pieces) in zip(certs, calls):
        got = {(_piece_class(ext, vec), g) for vec, g in pieces}
        if cert.direction == "extension":
            S, T, act = cert.B, cert.sequence.quot, pullback_action
        else:
            S, T, act = cert.sequence.sub, cert.B, pushout_action
        want = set()
        for j, i, g, entry in hom_pieces(S, T):
            cols = [{} for _ in range(S.dim)]
            cols[j] = {i: entry}
            want.add((act(cert.canonical_class, AbMap(S, T, cols)), g))
        assert {p for p in got if not p[0].is_zero()} == {p for p in want if not p[0].is_zero()}


# ---------------------------------------------------------------------------
# Cyclic generation


def test_cyclic_generation_examples():
    assert cyclic_generation_check(build_universal_extension(Z2, Z3)).passed  # Ext trivial, |X| = 1
    res = cyclic_generation_check(build_universal_extension(Z2, Z2))
    assert res.passed and len(res.witnesses) == 5
    for cls, gamma in res.witnesses:
        eta = build_universal_extension(Z2, Z2).canonical_class
        assert pullback_action(eta, gamma) == cls
    assert cyclic_generation_check(build_universal_extension(Z4, Z4)).passed


def test_piece_readers_match_the_actions_on_the_hom_basis():
    # δ and the cyclic check read c·h and h·c off the pieces of a Hom group
    # with no map built; over that group's basis, recomposed as maps, they
    # equal the class actions.  Every pair with |B|, |A| <= 4 and
    # 1 < |X| <= 8, both directions, over End of either end; then classes
    # with free ends.
    groups = [G for G in abelian_groups_up_to_order(4) if G.dim]
    classes = []
    for B in groups:
        for A in groups:
            if 1 < ext_group(B, A).order() <= 8:
                classes += [build(B, A).canonical_class for build in (build_universal_extension, build_universal_coextension)]
    assert len(classes) == 2 * 9
    classes += [
        ExtClass(FinGenAb(1, (2, 4)), FinGenAb(1, (2,)), (1, 1, 2, 3)),
        ExtClass(FinGenAb(2, (6,)), FinGenAb(2, (4,)), (3, 1, 5)),
    ]
    for cls in classes:
        X = ext_group(cls.A, cls.B)
        for H, reader, act in (
            (hom_group(cls.A, cls.A), homext._pullback_pieces, pullback_action),
            (hom_group(cls.B, cls.B), homext._pushout_pieces, pushout_action),
        ):
            got = homext._carrier_map(H, reader(cls, H), X)
            want = [dict(enumerate(X.to_carrier(act(cls, h)))) for h in H.basis]
            assert got == AbMap(H.carrier, X.carrier, want)


@pytest.mark.parametrize("samples", [0, 3])
@pytest.mark.parametrize("B, A", [(Z2, FinGenAb(0, (2, 2))), (Z4, FinGenAb(0, (2, 4))), (FinGenAb(1, (2,)), Z4)])
def test_cyclic_generation_refuses_the_zero_class(B, A, samples):
    # The zero class generates nothing of a nontrivial Ext group: the one
    # generation decision refuses it before any sample is drawn.
    cert = build_universal_extension(B, A)
    zero = ext_group(cert.sequence.quot, A).zero()
    res = cyclic_generation_check(dataclasses.replace(cert, canonical_class=zero), samples=samples)
    assert not cert.degenerate
    assert (res.passed, res.detail, res.witnesses) == (False, "η·End(B^(X)) is a proper subgroup", ())


@pytest.mark.parametrize("samples", [0, 3])
def test_cyclic_generation_is_one_elimination(monkeypatch, samples):
    # A unit target on every slot rides along with the samples, so the
    # check decides from its one solve and ranks nothing: Ext^1(B^(X), A)
    # has the one prime 2, so that is one call of ``_local``.
    cert = build_universal_extension(Z4, FinGenAb(0, (2, 4)))
    real = intlin._local
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    def no_rank(*_args):
        raise AssertionError("the cyclic check ranked a map")

    monkeypatch.setattr(intlin, "_local", counted)
    monkeypatch.setattr(abgroup, "rank_mod_p", no_rank)
    res = cyclic_generation_check(cert, samples=samples)
    assert res.passed and len(res.witnesses) == samples and len(calls) == 1


def test_cyclic_generation_refuses_a_shifted_witness(monkeypatch):
    # γ is built from the solver's Hom-piece coefficients and re-verified by
    # the class action: one coefficient shifted, on a piece whose η·h is
    # nonzero, is caught.
    cert = build_universal_extension(Z4, FinGenAb(0, (2, 4)))
    real = universal.solve_mod_many

    def shifted(cols, rhs, mods):
        k = next(k for k, col in enumerate(cols) if not homext._vanishes(col, mods))
        return [{**x, k: x.get(k, 0) + 1} for x in real(cols, rhs, mods)]

    assert cyclic_generation_check(cert, samples=2).passed
    monkeypatch.setattr(universal, "solve_mod_many", shifted)
    with pytest.raises(DomainError, match="failed re-verification"):
        cyclic_generation_check(cert, samples=2)


def test_cyclic_generation_samples_are_bounded_before_any_work(monkeypatch):
    cert = build_universal_extension(Z2, Z2)
    assert universal.CYCLIC_SAMPLE_BUDGET == 1024
    assert len(cyclic_generation_check(cert, samples=1024).witnesses) == 1024
    assert cyclic_generation_check(cert, samples=0).witnesses == ()

    def no_end_ring(*_args):
        raise AssertionError("End(B^(X)) built before the sample count was checked")

    monkeypatch.setattr(universal, "hom_group", no_end_ring)
    with pytest.raises(BudgetExceeded):
        cyclic_generation_check(cert, samples=1025)
    with pytest.raises(BudgetExceeded):
        cyclic_generation_check(cert, samples=10**9)
    with pytest.raises(DomainError) as info:
        cyclic_generation_check(cert, samples=-3)
    assert not isinstance(info.value, BudgetExceeded)


def test_cyclic_generation_deterministic():
    cert = build_universal_extension(Z4, Z2)
    r1 = cyclic_generation_check(cert, seed=3)
    r2 = cyclic_generation_check(cert, seed=3)
    assert [w[0] for w in r1.witnesses] == [w[0] for w in r2.witnesses]


# ---------------------------------------------------------------------------
# Closure and the sufficient condition


def test_closure_properties():
    rng = random.Random(43)
    pool = abelian_groups_up_to_order(4)
    for _ in range(30):
        B1, B2, A = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert build_universal_extension(B1, A).all_pass
        assert build_universal_extension(B2, A).all_pass
        Bsum = direct_sum([B1, B2]).total
        assert build_universal_extension(Bsum, A).all_pass  # coproduct closure
        # summand closure is the same assertion read backwards
        assert build_universal_extension(B1, A).all_pass


@pytest.mark.parametrize("build", [build_universal_extension, build_universal_coextension], ids=["extension", "coextension"])
def test_closure_law_on_sums_up_to_order_4(build):
    """|X(B1 ⊕ B2, A)| = |X(B1, A)|·|X(B2, A)|, as Ext^1 turns the sum in B
    into a product, and the certificate of the sum passes the checks the
    builder does not share."""
    pool = abelian_groups_up_to_order(4)
    certs = {}

    def size(B, A):
        if (B, A) not in certs:
            certs[B, A] = build(B, A)
        return len(certs[B, A].X)

    sums = set()
    for B1, B2, A in itertools.product(pool, repeat=3):
        Bsum = direct_sum([B1, B2]).total
        assert size(Bsum, A) == size(B1, A) * size(B2, A)
        sums.add((Bsum, A))
    audited = 0
    for Bsum, A in sums:
        cert = certs[Bsum, A]
        if 1 < len(cert.X) <= 32:
            assert all(r.passed for r in audit(cert))
            audited += 1
    assert (len(sums), audited) == (70, 35)


def test_sufficient_condition_examples():
    rep = sufficient_condition_check(Z2, Z2)
    assert rep.monic and rep.certificate_exists and rep.consistent
    rep = sufficient_condition_check(Z3, Z2)  # zero Ext: X is the zero class
    assert rep.X_size == 1 and rep.monic and rep.certificate_exists and rep.consistent
    rep = sufficient_condition_check(Z2, Z4)
    assert rep.monic and rep.consistent


if __name__ == "__main__":
    B, A = FinGenAb(0, (2,) * 4), FinGenAb(0, (2,) * 2)
    for key, value in leg_digests([build_universal_extension(B, A), build_universal_coextension(B, A)]).items():
        print(f"    {key!r}: {value!r},")
