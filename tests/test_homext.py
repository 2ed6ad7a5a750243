import dataclasses
import random

import pytest

import abext.homext as homext
from abext.errors import BudgetExceeded, DomainError, EndpointMismatch, NotExactSequence
from abext.intlin import IntMatrix, solve_mod, sparse_rows
from abext.abgroup import (
    AbMap,
    FinGenAb,
    ZERO_GROUP,
    abelian_groups_up_to_order,
    canonicalize,
    cokernel,
    cyclic_sum,
    direct_sum,
    is_epi,
    kernel,
    sparse_sum,
)
from abext.homext import (
    connecting_hom_dual,
    ExtClass,
    ShortExactSeq,
    classify,
    connecting_hom,
    ext_covariant_map,
    ext_contravariant_map,
    ext_group,
    find_equivalence,
    hom_group,
    pullback_action,
    pushout_action,
    realize,
    seq_pullback,
    seq_pushout,
    ses_direct_sum,
    ses_equivalent,
)
from abext.oracle import ConcreteGroup, enumerate_homs
from abext.universal import build_universal_coextension, build_universal_extension

Z = FinGenAb(1, ())
Z2 = FinGenAb(0, (2,))
Z3 = FinGenAb(0, (3,))
Z4 = FinGenAb(0, (4,))
Z6 = FinGenAb(0, (6,))
Z12 = FinGenAb(0, (12,))


def split_sequence(A, B):
    """The split sequence B ↪ B ⊕ A ↠ A."""
    ds = direct_sum([B, A])
    return ShortExactSeq(ds.injections[0], ds.projections[1])


def hom_postcompose(h, T):
    """Hom(T, h): Hom(T, source) → Hom(T, target), f ↦ h ∘ f."""
    HS = hom_group(T, h.source)
    HT = hom_group(T, h.target)
    return AbMap(HS.carrier, HT.carrier, [dict(enumerate(HT.decompose(h @ b))) for b in HS.basis])


def random_class(rng, A, B):
    eg = ext_group(A, B)
    return ExtClass(A, B, tuple(rng.randrange(g) if g else 0 for g in eg.piece_mods))


def random_hom(rng, A, B):
    H = hom_group(A, B)
    coords = tuple(rng.randrange(m) if m else rng.randint(-2, 2) for m in H.carrier.moduli())
    return H.recompose(dict(enumerate(coords)))


# ---------------------------------------------------------------------------
# Hom groups


def test_hom_examples():
    assert hom_group(Z4, Z6).carrier == Z2
    assert len(enumerate_homs(ConcreteGroup.from_group(Z4), ConcreteGroup.from_group(Z6))) == 2
    assert hom_group(Z, Z6).carrier == Z6  # evaluation at 1
    assert hom_group(Z2, Z3).carrier == ZERO_GROUP
    assert hom_group(Z, Z).carrier == Z


def test_hom_decompose_recompose_roundtrip():
    rng = random.Random(21)
    for _ in range(40):
        A = rng.choice(abelian_groups_up_to_order(8))
        B = rng.choice(abelian_groups_up_to_order(8))
        H = hom_group(A, B)
        coords = tuple(rng.randrange(m) if m else 0 for m in H.carrier.moduli())
        f = H.recompose(dict(enumerate(coords)))
        assert H.decompose(f) == coords
        assert H.recompose(dict(enumerate(H.decompose(f)))) == f


def test_hom_and_ext_groups_are_values():
    assert hom_group(Z4, Z6) == hom_group(Z4, Z6)
    assert ext_group(Z4, Z12) == ext_group(Z4, Z12)
    assert len({hom_group(Z4, Z6), hom_group(Z4, Z6), ext_group(Z4, Z12), ext_group(Z4, Z12)}) == 2
    # The ends are the only fields; what is derived and cached on first read
    # leaves equality and hashing alone.
    assert [f.name for f in dataclasses.fields(homext.HomGroup)] == ["source", "target"]
    assert [f.name for f in dataclasses.fields(homext.ExtGroup)] == ["A", "B"]
    H, X = hom_group(Z4, Z6), ext_group(Z4, Z12)
    assert (H.place, H.carrier, X.lift, X.carrier) == ([{0: 1}], Z2, [{0: 1}], Z4)
    assert (H, X) == (hom_group(Z4, Z6), ext_group(Z4, Z12))
    assert (hash(H), hash(X)) == (hash(hom_group(Z4, Z6)), hash(ext_group(Z4, Z12)))


def _seeded_group(rng, free):
    """Z^free plus up to six cyclic factors drawn from a short chain, with repeats."""
    chain = rng.choice([(2, 4, 8), (3, 9), (2, 6, 30), (4, 12, 60), (5,)])
    return FinGenAb(free, tuple(sorted(rng.choice(chain) for _ in range(rng.randint(0, 6)))))


def test_hom_and_ext_carriers_from_runs_match_the_listed_groups():
    """A carrier read first is counted by runs of equal moduli, with no piece
    listed; ``cyclic_sum`` of the listed pieces or slot moduli is the oracle,
    on seeded pairs with free rank 0-2 at either end, read before and after
    the coordinates."""
    rng = random.Random(2607)
    for _ in range(300):
        A, B = (_seeded_group(rng, rng.choice((0, 0, 1, 2))) for _ in range(2))
        H, X = hom_group(A, B), ext_group(A, B)
        assert H.carrier == cyclic_sum([g for _, _, g, _ in H.pieces])[0], (A, B)
        assert X.carrier == cyclic_sum(X.piece_mods)[0], (A, B)
        for G in (hom_group(A, B), ext_group(A, B)):
            G.lift  # the coordinates first
            assert G.carrier == G._summed[0], (A, B)
    big = FinGenAb(0, (2,) * 1024)
    H = hom_group(big, big)
    assert H.carrier == FinGenAb(0, (2,) * (1 << 20))
    assert "pieces" not in vars(H) and "_summed" not in vars(H)
    for group in (hom_group, ext_group):
        with pytest.raises(BudgetExceeded):
            group(FinGenAb(0, (2,) * 1025), big)


# ---------------------------------------------------------------------------
# Ext groups


def test_ext_examples():
    for G in (Z6, Z4, FinGenAb(2, (2,))):
        assert ext_group(Z, G).carrier == ZERO_GROUP  # free quotient end
    assert ext_group(Z4, Z6).carrier == Z2
    # G/nG law instance from the paper: Ext(Z(4), Z(12)) = Z(4)
    assert ext_group(Z4, Z12).carrier == Z4
    assert ext_group(Z2, Z).carrier == Z2


def test_ext_order_vs_oracle_small():
    from abext.oracle import ext_count_by_cocycles

    groups = abelian_groups_up_to_order(8)
    for A in groups:
        for B in groups:
            assert ext_group(A, B).order() == ext_count_by_cocycles(
                ConcreteGroup.from_group(A), ConcreteGroup.from_group(B)
            )


# ---------------------------------------------------------------------------
# Realize / classify


def test_realize_split_class():
    s = realize(ExtClass(Z2, Z2, (0,)))
    assert s.middle == FinGenAb(0, (2, 2))
    assert ses_equivalent(s, split_sequence(Z2, Z2))


def test_realize_nonsplit_class():
    s = realize(ExtClass(Z2, Z2, (1,)))
    assert s.middle == Z4  # the unique nonsplit middle


def test_realize_z_by_z2():
    # nonzero class of Ext(Z(2), Z): Z ↪ Z ↠ Z(2) via multiplication by 2
    s = realize(ExtClass(Z2, Z, (1,)))
    assert s.middle == Z
    doubling = ShortExactSeq(
        AbMap.from_matrix(Z, Z, IntMatrix.from_rows([[2]])),
        AbMap.from_matrix(Z, Z2, IntMatrix.from_rows([[1]])),
    )
    assert classify(doubling) == classify(s)
    assert ses_equivalent(s, doubling)  # middle iso found despite free rank


# A over Z(4) with twists (2, 2, 1): lifts 0 and 1 share a key, so E is
# presented on the core Z(2) + Z(16) and lift 1 splits off as Z(2), the last
# summand ``realize`` hands to ``cyclic_sum``.  A and B are finite, so the
# core goes through ``torsion_quotient`` and exactness through ψ.
LIFT_CHECK_CLASS = ExtClass(FinGenAb(0, (2, 2, 4)), Z4, (2, 2, 1))


def _place(k, x, target):
    """The k-th summand's place: x times the place of summand ``target``."""

    def corrupt(out):
        place = out[1]
        place[k] = {i: x * v for i, v in place[target].items()}

    return corrupt


def _add_place(k, x, target):
    """The k-th summand's place plus x times the place of summand ``target``."""

    def corrupt(out):
        place = out[1]
        place[k] = sparse_sum([(1, place[k]), (x, place[target])])

    return corrupt


def _add_entry(part, k, s, x):
    """Entry s of the k-th place (part 0) or lift (part 1) plus x."""

    def corrupt(out):
        vec = out[1 + part][k]
        vec[s] = vec.get(s, 0) + x

    return corrupt


def _divide_modulus(s, x):
    """``torsion_quotient``'s s-th summand modulus divided by x."""

    def corrupt(out):
        out[0][s] //= x

    return corrupt


BROKEN_LIFT = "a lift ℓ breaks g"
NOT_ISOMORPHIC = "ψ is not an isomorphism"


# The core is columns σ (B's generator), t_0 and t_2, with summands Z(2) and
# Z(16); ``cyclic_sum`` takes (2, 16, 2) and numbers E's generators Z(2),
# Z(2), Z(16).  With finite ends ``realize`` evaluates only the d-halves of
# its lift checks, then its two onto checks and |E| = |A|·|B|; which one
# refuses each case:
#
# - d-halves.  4 times the Z(16) generator has order 4, so the split lift it
#   is added to breaks 2·s = 0 (split-lift-order-4); the core Z(2) placed at
#   the Z(16) generator breaks d_0·ℓ_0 = f(b_0) (core-lift-at-other).
# - Every generator of E is a ψ-image (the second onto check).  A place that
#   ``cyclic_sum`` built as a unit no longer is: the split lift at twice
#   itself, which is 0 (split-lift-times-2), or at the core Z(2)
#   (split-lift-at-core), and the core Z(16) at twice itself
#   (core-lift-times-2); a g-half, which g = π∘ψ⁻¹ makes redundant here,
#   would refuse these three too.  E's first generator lifted to
#   s_0 + 4·s_1, with 4·s_1 in ker g, leaves g and every lift relation as
#   they were (generator-lift-off-by-kernel), and so does the split of B
#   placed at a non-unit below (split-of-B-at-a-non-unit).
# - Each core summand is a ψ-image (the first onto check): the core Z(2)
#   lifted with σ added, which g does not read (core-summand-lift-off), and
#   t_0 placed 8·s_1 off, which g and d_0 = 2 both kill
#   (core-place-off-by-kernel).  Their f and g are still exact: what fails
#   is the proof.
# - |E| = |A|·|B|: the core Z(16) read as Z(8) leaves f not mono, and only
#   the order shows it (core-summand-order-halved).
#
# In ``SPLIT_CLASS`` B's two generators share their twist, so the second
# splits off as Z(4), E's first generator; placed at twice that generator,
# a non-unit, f is not mono, and no lift check reads the split.
SPLIT_CLASS = ExtClass(Z2, FinGenAb(0, (4, 4)), (1, 1))
CLASSES = {"lift": (LIFT_CHECK_CLASS, FinGenAb(0, (2, 2, 16))), "split": (SPLIT_CLASS, FinGenAb(0, (4, 8)))}
CALLS = {("lift", "cyclic_sum"): (2, 16, 2), ("lift", "torsion_quotient"): (4, 8, 16), ("split", "cyclic_sum"): (8, 4)}


@pytest.mark.parametrize(
    "cls, source, corrupt, message",
    [
        ("lift", "cyclic_sum", _place(-1, 2, -1), NOT_ISOMORPHIC),
        ("lift", "cyclic_sum", _place(-1, 1, 0), NOT_ISOMORPHIC),
        ("lift", "cyclic_sum", _add_place(-1, 4, 1), BROKEN_LIFT),
        ("lift", "cyclic_sum", _place(1, 2, 1), NOT_ISOMORPHIC),
        ("lift", "cyclic_sum", _place(0, 1, 1), BROKEN_LIFT),
        ("lift", "cyclic_sum", _add_entry(1, 0, 1, 4), NOT_ISOMORPHIC),
        ("lift", "torsion_quotient", _add_entry(1, 0, 0, 1), NOT_ISOMORPHIC),
        ("lift", "torsion_quotient", _add_entry(0, 1, 1, 8), NOT_ISOMORPHIC),
        ("lift", "torsion_quotient", _divide_modulus(1, 2), NOT_ISOMORPHIC),
        ("split", "cyclic_sum", _place(1, 2, 1), NOT_ISOMORPHIC),
    ],
    ids=[
        "split-lift-times-2",
        "split-lift-at-core",
        "split-lift-order-4",
        "core-lift-times-2",
        "core-lift-at-other",
        "generator-lift-off-by-kernel",
        "core-summand-lift-off",
        "core-place-off-by-kernel",
        "core-summand-order-halved",
        "split-of-B-at-a-non-unit",
    ],
)
def test_realize_lift_check_catches_a_corrupt_summand(monkeypatch, cls, source, corrupt, message):
    (c, middle), real = CLASSES[cls], getattr(homext, source)
    calls = []

    def corrupted(*args):
        out = list(real(*args))
        calls.append(args[-1])
        corrupt(out)
        return tuple(out)

    def exactness_test(*_):
        raise AssertionError("ShortExactSeq ran")

    assert realize(c).middle == middle
    monkeypatch.setattr(homext, source, corrupted)
    monkeypatch.setattr(homext, "ShortExactSeq", exactness_test)
    with pytest.raises(DomainError, match=message):
        realize(c)
    assert [tuple(mods) for mods in calls] == [CALLS[cls, source]]


# A free end evaluates the g-halves too, and they alone see a lift whose
# image in A is off while f, the d-halves and E are not.  With A = Z(3),
# B = Z and class (1,), E = Z on the core lift t, 3t = e; its ``canonicalize``
# lift read as 2t makes g(ℓ_0) = 2·a_0 (kept-lift).  With A = Z(3)² and class
# (1, 1), t_1 splits off as Z(3), E's first generator; its ``cyclic_sum``
# lift read as twice the split makes g(s_1) = 2·(a_1 − a_0) (split-lift).
@pytest.mark.parametrize(
    "c, source",
    [(ExtClass(Z3, Z, (1,)), "canonicalize"), (ExtClass(FinGenAb(0, (3, 3)), Z, (1, 1)), "cyclic_sum")],
    ids=["kept-lift", "split-lift"],
)
def test_realize_g_half_catches_a_free_end_lift_off_in_a(monkeypatch, c, source):
    real = getattr(homext, source)

    def corrupted(*args):
        out = list(real(*args))
        _add_entry(1, 0, 1, 1)(out)
        return tuple(out)

    assert classify(realize(c)) == c
    monkeypatch.setattr(homext, source, corrupted)
    with pytest.raises(DomainError, match=BROKEN_LIFT):
        realize(c)


@pytest.mark.parametrize(
    "c, maps, g_halves, exactness",
    [(LIFT_CHECK_CLASS, 1, 0, 0), (ExtClass(FinGenAb(1, (2, 2, 4)), Z4, (2, 2, 1)), 2, 3, 1)],
    ids=["finite", "free"],
)
def test_realize_validates_f_alone_with_finite_ends(monkeypatch, c, maps, g_halves, exactness):
    # With finite ends ψ's proof gives g = π∘ψ⁻¹, so ``realize`` validates one
    # AbMap, f, and evaluates no g-half: no vanishing test modulo A's moduli.
    # The free twin of LIFT_CHECK_CLASS (two kept lifts and one split) reads
    # both halves of its three torsion lifts, validates g and runs the
    # generic check, whose own g∘f test is not counted.
    real_map, real_seq, real_vanishes = AbMap.__post_init__, ShortExactSeq.__post_init__, homext._vanishes
    seen = []

    def counted_map(self):
        seen.append("AbMap")
        real_map(self)

    def counted_seq(self):
        seen.append("ShortExactSeq")
        real_seq(self)

    def counted_vanishes(vec, mods):
        if "ShortExactSeq" not in seen and tuple(mods) == c.A.moduli():
            seen.append("g-half")
        return real_vanishes(vec, mods)

    monkeypatch.setattr(AbMap, "__post_init__", counted_map)
    monkeypatch.setattr(ShortExactSeq, "__post_init__", counted_seq)
    monkeypatch.setattr(homext, "_vanishes", counted_vanishes)
    s = realize(c)
    assert [seen.count(event) for event in ("AbMap", "g-half", "ShortExactSeq")] == [maps, g_halves, exactness]
    monkeypatch.undo()
    assert classify(s) == c and ShortExactSeq(s.f, s.g) == s


def test_classify_examples():
    assert classify(split_sequence(Z4, Z6)).is_zero()
    s = ShortExactSeq(
        AbMap.from_matrix(Z2, Z4, IntMatrix.from_rows([[2]])),
        AbMap.from_matrix(Z4, Z2, IntMatrix.from_rows([[1]])),
    )
    assert not classify(s).is_zero()


def test_classify_reads_a_free_middle_modulo_the_square_of_the_exponent():
    # Z --3--> Z --> Z(3): the descent 3y = 3 has y = 1, so the class is (1).
    # It is solved with E's free row read modulo exp(Z(3))² = 9, where every
    # solution is 1 modulo 3; modulo 3 alone y = 0 would solve it too.
    s = ShortExactSeq(AbMap(Z, Z, [{0: 3}]), AbMap(Z, Z3, [{0: 1}]))
    assert classify(s) == ExtClass(Z3, Z, (1,))


def test_classify_rejects_non_exact():
    with pytest.raises(NotExactSequence):
        ShortExactSeq(AbMap.identity(Z4), AbMap.identity(Z4))
    with pytest.raises(NotExactSequence):
        # mono followed by a map that is not epi onto its stated target
        ShortExactSeq(AbMap.from_matrix(Z2, Z4, IntMatrix.from_rows([[2]])), AbMap.zero(Z4, Z2))
    with pytest.raises(NotExactSequence, match="kernel of g not contained in image of f"):
        # Z --2--> Z → 0: mono, epi and g∘f = 0, but the cokernel Z(2) is not 0
        ShortExactSeq(AbMap.from_matrix(Z, Z, IntMatrix.from_rows([[2]])), AbMap.zero(Z, ZERO_GROUP))
    with pytest.raises(NotExactSequence, match="g ∘ f is not zero"):
        # Z --1--> Z --2--> Z: g∘f is nonzero in a free row, where nothing reduces it
        ShortExactSeq(AbMap.identity(Z), AbMap(Z, Z, [{0: 2}]))
    with pytest.raises(NotExactSequence) as err:
        # Z(2) --e0--> Z(2)^3 --e2--> Z(2): mono, epi and g∘f = 0, but |E| = 8, not 4
        Z2_3 = FinGenAb(0, (2, 2, 2))
        ShortExactSeq(AbMap(Z2, Z2_3, [{0: 1}]), AbMap(Z2_3, Z2, [{}, {}, {0: 1}]))
    assert str(err.value) == "middle order is not |A|·|B|"


def exact_by_lattices(f, g):
    """The lattice route exactness once took, kept as the oracle: g∘f = 0,
    trivial kernel of f and cokernel of g, and ker g ⊆ im f by one solve per
    generator of ker g."""
    if not (g @ f).is_zero() or not kernel(f)[0].is_trivial() or not cokernel(g)[0].is_trivial():
        return False
    K, incl = kernel(g)
    emods = list(f.target.moduli())
    return all(solve_mod(f.matrix, [col.get(i, 0) for i in range(len(emods))], emods) is not None for col in incl.cols)


def test_exactness_matches_lattice_route():
    # Realized sequences with free rank 0-2 at both ends, and the same with f
    # scaled by 2 or 3, which is exact only when that keeps im f = ker g.
    rng = random.Random(41)
    torsion = abelian_groups_up_to_order(8)
    seen = set()
    for _ in range(120):
        A, B = (FinGenAb(rng.randint(0, 2), rng.choice(torsion).invariant_factors) for _ in range(2))
        s = realize(random_class(rng, A, B))
        for k in (1, 2, 3):
            f = s.f.scale(k)
            try:
                ShortExactSeq(f, s.g)
                verdict = "exact"
            except NotExactSequence as e:
                verdict = str(e)
            assert (verdict == "exact") == exact_by_lattices(f, s.g), (A, B, k)
            seen.add((verdict, s.middle.is_finite()))
    # exact and not, with finite and infinite middle, and with f mono but coker f ≇ A
    assert {
        ("exact", True),
        ("exact", False),
        ("f is not a monomorphism", True),
        ("f is not a monomorphism", False),
        ("kernel of g not contained in image of f", False),
    } <= seen


def test_classify_realize_roundtrip_random():
    rng = random.Random(22)
    groups = abelian_groups_up_to_order(8)
    for _ in range(60):
        A = rng.choice(groups)
        B = rng.choice(groups)
        c = random_class(rng, A, B)
        s = realize(c)
        assert classify(s) == c
        # middle order multiplicativity for finite ends
        assert s.middle.order() == A.order() * B.order()
    # realize(classify(s)) is equivalent to s
    s = realize(ExtClass(Z4, Z4, (3,)))
    phi = find_equivalence(s, realize(classify(s)))
    assert phi is not None
    assert find_equivalence(s, realize(ExtClass(Z4, Z2, (1,)))) is None  # the subs differ


def test_find_equivalence_checks_its_commuting_squares(monkeypatch):
    # By the five lemma a middle map that commutes with both legs is an
    # isomorphism, so the solved map is checked by its two squares and by no
    # mono or epi test.  On Z(2) ↪ Z(2)² ↠ Z(2), f = e_0 and g the second
    # coordinate, a solve shifted at unknown (1, 0) gives φ(e_0) = e_0 + e_1:
    # invertible, but φ∘f ≠ f.
    s = split_sequence(Z2, Z2)

    def no_rank(*_args):
        raise AssertionError("find_equivalence tested the solved map for mono or epi")

    monkeypatch.setattr(homext, "is_mono", no_rank)
    monkeypatch.setattr(homext, "is_epi", no_rank)
    phi = find_equivalence(s, s)
    assert phi @ s.f == s.f and s.g @ phi == s.g
    real = homext.solve_mod_many

    def shifted(cols, rhs, mods):
        return [{**x, 2: x.get(2, 0) + 1} for x in real(cols, rhs, mods)]

    monkeypatch.setattr(homext, "solve_mod_many", shifted)
    with pytest.raises(DomainError, match="does not commute"):
        find_equivalence(s, s)


def test_generic_exactness_accepts_every_sequence_realize_certifies():
    """With finite ends ``realize`` proves exactness through its presentation
    map ψ and runs no generic check, and builds g unvalidated; the generic
    check of ``ShortExactSeq`` accepts every such sequence, and ``AbMap``
    rebuilds the same g from its columns, which holds only if they are
    reduced.  Seeded classes whose twists repeat, so that generators of both
    ends split off, free ends, which take the generic check inside
    ``realize``, and both certificates of B = Z(2)⁴, A = Z(2)², with 1,024
    slots."""
    rng = random.Random(2604)
    certified = 0
    for _ in range(200):
        A, B = (_seeded_group(rng, rng.choice((0, 0, 0, 1))) for _ in range(2))
        c = random_class(rng, A, B)
        s = realize(c)
        assert ShortExactSeq(s.f, s.g) == s
        assert AbMap(s.middle, s.quot, s.g.cols) == s.g
        assert classify(s) == c
        certified += s.middle.is_finite()
    assert 100 < certified < 200
    B, A = FinGenAb(0, (2, 2, 2, 2)), Z2_2
    for build in (build_universal_extension, build_universal_coextension):
        s = build(B, A).sequence
        assert ShortExactSeq(s.f, s.g) == s
        assert AbMap(s.middle, s.quot, s.g.cols) == s.g


def _realize_full_presentation(c):
    """realize before repeats split off: canonicalize the whole presentation
    on B's generators and one lift per generator of A.  The oracle for
    ``test_realize_splits_repeated_twists``."""
    A, B = c.A, c.B
    nB, n = B.dim, B.dim + A.dim
    rows = [[m if t == i else 0 for t in range(n)] for i, m in enumerate(B.moduli()) if m]
    for j, (d, twist) in enumerate(zip(A.invariant_factors, c.twists())):
        rows.append([-b for b in twist] + [d if t == nB + j else 0 for t in range(nB, n)])
    E, place, lift = canonicalize(sparse_rows(rows), n)
    return ShortExactSeq(AbMap(B, E, place[:nB]), AbMap(E, A, [{t - nB: x for t, x in vec.items() if t >= nB} for vec in lift]))


A336 = FinGenAb(0, (3, 3, 6))
Z2_2 = FinGenAb(0, (2, 2))
SPLIT_CASES = [
    # equal lift rows: t_1 - t_0 splits off
    ExtClass(Z2_2, Z2, (1, 1)),
    ExtClass(FinGenAb(0, (4, 4)), Z4, (2, 2)),
    # equal sub columns: e_1 splits off, e_0 + e_1 stays
    ExtClass(Z2, Z2_2, (1, 1)),
    ExtClass(Z4, FinGenAb(0, (4, 4)), (3, 3)),
    # both at once; rows 0 and 1 repeat, then columns 0 and 2 on the kept rows
    ExtClass(Z2_2, Z2_2, (1, 1, 1, 1)),
    ExtClass(FinGenAb(0, (2, 2, 2)), FinGenAb(0, (2, 2, 2)), (1, 0, 1, 1, 0, 1, 0, 1, 0)),
    # equal twists on different moduli, different twists on equal ones: no merge
    ExtClass(FinGenAb(0, (2, 4)), Z2, (1, 1)),
    ExtClass(Z2, FinGenAb(0, (2, 4)), (1, 1)),
    ExtClass(Z2_2, Z2, (1, 0)),
    ExtClass(Z2, Z2_2, (0, 1)),
    # the zero class
    ExtClass(Z2_2, Z2_2, (0, 0, 0, 0)),
    ExtClass(FinGenAb(2, (2,)), FinGenAb(2, (2,)), (0, 0, 0)),
    # invisible twists: coordinates modulo gcd(2, 3) = 1 are always 0
    ExtClass(Z2, A336, (0, 0, 1)),
    ExtClass(Z2, A336, (0, 0, 0)),
    ExtClass(A336, Z2, (0, 0, 1)),
    ExtClass(A336, Z2, (0, 0, 0)),
]


def test_realize_splits_repeated_twists():
    rng = random.Random(26)
    cases = list(SPLIT_CASES)
    # free rank 0-2 at both ends: free lifts repeat, free sub columns are read modulo d
    for ra in range(3):
        for rb in range(3):
            A, B = FinGenAb(ra, (2, 2)), FinGenAb(rb, (2, 4))
            cases.append(ExtClass(A, B, (1,) * len(ext_group(A, B).piece_mods)))
            cases += [random_class(rng, A, B) for _ in range(3)]
    for c in cases:
        s = realize(c)
        assert classify(s) == c, c
        oracle = _realize_full_presentation(c)
        assert s.middle == oracle.middle, c
        assert find_equivalence(s, oracle) is not None, c


# ---------------------------------------------------------------------------
# Baer sum


def test_baer_group_laws():
    rng = random.Random(23)
    groups = abelian_groups_up_to_order(8)
    for _ in range(50):
        A = rng.choice(groups)
        B = rng.choice(groups)
        zero = ext_group(A, B).zero()
        c1, c2, c3 = (random_class(rng, A, B) for _ in range(3))
        assert c1 + zero == c1
        assert (c1 + (-c1)).is_zero()
        assert c1 + c2 == c2 + c1
        assert (c1 + c2) + c3 == c1 + (c2 + c3)


def test_baer_sum_example_z4():
    c = ExtClass(Z4, Z4, (1,))
    assert (c + c).coords == (2,)


def test_baer_sum_matches_geometric_construction():
    # diagonal pullback / codiagonal pushout cross-check
    from abext.abgroup import codiagonal, diagonal

    rng = random.Random(24)
    groups = abelian_groups_up_to_order(6)
    for _ in range(20):
        A = rng.choice(groups)
        B = rng.choice(groups)
        c1 = random_class(rng, A, B)
        c2 = random_class(rng, A, B)
        big, ds_sub, _m, ds_quot = ses_direct_sum([realize(c1), realize(c2)])
        if A.dim:
            pulled = seq_pullback(big, diagonal(A, 2))
        else:
            pulled = big
        nabla = codiagonal(B, 2) if B.dim else None
        if nabla is not None:
            summed = seq_pushout(pulled, nabla)
        else:
            summed = pulled
        if A.dim and B.dim:
            assert classify(summed) == c1 + c2


def test_baer_endpoint_mismatch():
    with pytest.raises(EndpointMismatch):
        ExtClass(Z2, Z2, (1,)) + ExtClass(Z4, Z2, (1,))


# ---------------------------------------------------------------------------
# Actions


def test_action_identities():
    c = ExtClass(Z2, Z2, (1,))
    assert pullback_action(c, AbMap.identity(Z2)) == c
    assert pushout_action(c, AbMap.identity(Z2)) == c
    assert pullback_action(c, AbMap.zero(Z2, Z2)).is_zero()


def test_action_contravariant_functoriality():
    rng = random.Random(25)
    groups = abelian_groups_up_to_order(8)
    for _ in range(40):
        A, A1, A2, B = (rng.choice(groups) for _ in range(4))
        c = random_class(rng, A, B)
        h = random_hom(rng, A1, A)
        h2 = random_hom(rng, A2, A1)
        assert pullback_action(pullback_action(c, h), h2) == pullback_action(c, h @ h2)


def test_action_bifunctoriality_100_random():
    rng = random.Random(26)
    groups = abelian_groups_up_to_order(8)
    for _ in range(100):
        A, A1, B, B1, B2 = (rng.choice(groups) for _ in range(5))
        c = random_class(rng, A, B)
        h = random_hom(rng, A1, A)
        k = random_hom(rng, B, B1)
        k2 = random_hom(rng, B1, B2)
        assert pushout_action(pullback_action(c, h), k) == pullback_action(pushout_action(c, k), h)
        assert pushout_action(pushout_action(c, k), k2) == pushout_action(c, k2 @ k)


def test_actions_agree_with_geometric():
    rng = random.Random(27)
    groups = abelian_groups_up_to_order(6)
    for _ in range(30):
        A, B = rng.choice(groups), rng.choice(groups)
        c = random_class(rng, A, B)
        s = realize(c)
        A1 = rng.choice(groups)
        h = random_hom(rng, A1, A)
        assert classify(seq_pullback(s, h)) == pullback_action(c, h)
        B1 = rng.choice(groups)
        k = random_hom(rng, B, B1)
        assert classify(seq_pushout(s, k)) == pushout_action(c, k)
    # Every column of the induced maps is the geometric action on its unit
    # class: the class of the pulled-back (pushed-out) realization, with free
    # ranks 0-2 on every end.
    pool = abelian_groups_up_to_order(12)
    columns, nonzero = 0, 0
    for _ in range(80):
        A, A1, B, B1 = (FinGenAb(rng.choice((0, 1, 2)), rng.choice(pool).invariant_factors) for _ in range(4))
        h, k = random_hom(rng, A1, A), random_hom(rng, B, B1)
        for M, XS, XT, geometric in (
            (ext_contravariant_map(h, B), ext_group(A, B), ext_group(A1, B), lambda s: seq_pullback(s, h)),
            (ext_covariant_map(A, k), ext_group(A, B), ext_group(A, B1), lambda s: seq_pushout(s, k)),
        ):
            for v, col in enumerate(M.cols):
                unit = tuple(int(u == v) for u in range(XS.carrier.dim))
                want = XT.to_carrier(classify(geometric(realize(XS.from_carrier(unit)))))
                assert tuple(col.get(i, 0) for i in range(XT.carrier.dim)) == want
                columns, nonzero = columns + 1, nonzero + bool(col)
    assert columns >= 300 and nonzero >= 150


def test_actions_are_additive():
    rng = random.Random(28)
    groups = abelian_groups_up_to_order(6)
    for _ in range(30):
        A, B = rng.choice(groups), rng.choice(groups)
        c1 = random_class(rng, A, B)
        c2 = random_class(rng, A, B)
        A1 = rng.choice(groups)
        h = random_hom(rng, A1, A)
        assert pullback_action(c1 + c2, h) == pullback_action(c1, h) + pullback_action(c2, h)


# ---------------------------------------------------------------------------
# Connecting morphism and induced maps


def test_connecting_hom_examples():
    s = ShortExactSeq(
        AbMap.from_matrix(Z2, Z4, IntMatrix.from_rows([[2]])),
        AbMap.from_matrix(Z4, Z2, IntMatrix.from_rows([[1]])),
    )
    # T = Z: Ext^1(Z, B) = 0
    d = connecting_hom(s, Z)
    assert d.target == ZERO_GROUP
    # split sequences have zero δ
    assert connecting_hom(split_sequence(Z2, Z2), Z2).is_zero()
    # for s itself at T = Z(2) the δ image is all of Ext^1(Z2, Z2)
    d = connecting_hom(s, Z2)
    assert is_epi(d)
    H = hom_group(Z2, Z2)
    cls = pullback_action(classify(s), H.basis[0])
    assert not cls.is_zero()  # δ(id) is the nonsplit class


def test_induced_map_examples():
    assert ext_covariant_map(Z2, AbMap.identity(Z4)) == AbMap.identity(ext_group(Z2, Z4).carrier)
    assert ext_contravariant_map(AbMap.identity(Z4), Z2) == AbMap.identity(ext_group(Z4, Z2).carrier)
    doubling = AbMap.from_matrix(Z4, Z4, IntMatrix.from_rows([[2]]))
    assert ext_covariant_map(Z2, doubling).is_zero()


def test_induced_maps_functorial():
    rng = random.Random(29)
    groups = abelian_groups_up_to_order(6)
    for _ in range(20):
        T, B, B1, B2 = (rng.choice(groups) for _ in range(4))
        k = random_hom(rng, B, B1)
        k2 = random_hom(rng, B1, B2)
        lhs = ext_covariant_map(T, k2 @ k)
        rhs = ext_covariant_map(T, k2) @ ext_covariant_map(T, k)
        assert lhs == rhs


def test_connecting_homs_are_the_geometric_actions():
    # δ(h) is the class of the pulled-back (dually pushed-out) sequence, for
    # every basis map h of the Hom group, with free ranks 0-1 on every end.
    rng = random.Random(32)
    pool = abelian_groups_up_to_order(8)
    columns = nonzero = 0
    for _ in range(80):
        A, B, T = (FinGenAb(rng.choice((0, 1)), rng.choice(pool).invariant_factors) for _ in range(3))
        s = realize(random_class(rng, A, B))
        for delta, H, X, geometric in (
            (connecting_hom(s, T), hom_group(T, A), ext_group(T, B), seq_pullback),
            (connecting_hom_dual(s, T), hom_group(B, T), ext_group(A, T), seq_pushout),
        ):
            want = [dict(enumerate(X.to_carrier(classify(geometric(s, h))))) for h in H.basis]
            assert delta == AbMap(H.carrier, X.carrier, want)
            columns, nonzero = columns + len(want), nonzero + sum(map(any, delta.cols))
    assert columns >= 200 and nonzero >= 30


def test_les_exactness_at_hom_ext():
    # image of Hom(T,E) → Hom(T,A) equals kernel of δ, as subgroups
    rng = random.Random(30)
    groups = abelian_groups_up_to_order(8)
    for _ in range(25):
        A, B, T = (rng.choice(groups) for _ in range(3))
        s = realize(random_class(rng, A, B))
        post = hom_postcompose(s.g, T)  # Hom(T,E) → Hom(T,A)
        delta = connecting_hom(s, T)
        assert (delta @ post).is_zero()  # im ⊆ ker
        Kd, _ = kernel(delta)
        Kp, _ = kernel(post)
        im_order = post.source.order() // Kp.order()
        assert im_order == Kd.order()  # containment + equal order = equality


# ---------------------------------------------------------------------------
# Equivalence


def test_equivalence_constructive_vs_bruteforce():
    from abext.oracle import ses_equivalent_bruteforce

    rng = random.Random(31)
    groups = abelian_groups_up_to_order(6)
    agree = 0
    for _ in range(200):
        A, B = rng.choice(groups), rng.choice(groups)
        c1 = random_class(rng, A, B)
        c2 = random_class(rng, A, B)
        s1, s2 = realize(c1), realize(c2)
        want = c1 == c2
        assert ses_equivalent(s1, s2) == want
        assert ses_equivalent_bruteforce(s1, s2) == want
        agree += 1
    assert agree == 200


def test_sequence_json_roundtrip():
    s = realize(ExtClass(Z4, Z6, (1,)))
    again = ShortExactSeq.from_json(s.to_json())
    assert again.f == s.f and again.g == s.g
    c = ExtClass(Z4, Z6, (1,))
    assert ExtClass.from_json(c.to_json()) == c


def test_mixed_free_torsion_roundtrips():
    rng = random.Random(77)
    pairs = [
        (FinGenAb(1, (2,)), FinGenAb(1, (4,))),
        (FinGenAb(0, (2, 4)), FinGenAb(2, ())),
        (FinGenAb(1, (6,)), FinGenAb(0, (2, 2))),
        (FinGenAb(2, (3,)), FinGenAb(1, (9,))),
    ]
    for A, B in pairs:
        eg = ext_group(A, B)
        for c in list(eg.classes())[:6]:
            assert classify(realize(c)) == c
        c = ExtClass(A, B, tuple(rng.randrange(g) if g else 0 for g in eg.piece_mods))
        s = realize(c)
        connecting_hom(s, Z2)  # free ranks flow through δ without error
        connecting_hom_dual(s, Z4)


def test_connecting_hom_dual_example():
    s = realize(ExtClass(Z2, Z2, (1,)))
    dd = connecting_hom_dual(s, Z2)  # Hom(Z2,Z2) → Ext^1(Z2,Z2)
    assert is_epi(dd)
    # both functorialities send the identity to the identity
    m = ext_covariant_map(Z2, AbMap.identity(Z4))
    assert m == AbMap.identity(ext_group(Z2, Z4).carrier)
    m = ext_contravariant_map(AbMap.identity(Z4), Z2)
    assert m == AbMap.identity(ext_group(Z4, Z2).carrier)
