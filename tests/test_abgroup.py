import itertools
import json
import math
import random
import sys
import time

import pytest

from abext import abgroup, intlin
from abext.errors import BudgetExceeded, DomainError
import dense_elimination as dense
from abext.intlin import IntMatrix, is_prime, prime_factors, snf_diagonal, sparse_rows
from abext.abgroup import (
    AbMap,
    FinGenAb,
    ZERO_GROUP,
    abelian_groups_of_order,
    abelian_groups_up_to_order,
    apply_sparse,
    canonicalize,
    codiagonal,
    cokernel,
    cokernel_group,
    cyclic_sum,
    dense_matrix,
    diagonal,
    direct_sum,
    is_epi,
    is_epi_mod,
    is_mono,
    is_mono_mod,
    kernel,
    mod_quotient,
    power_sum,
    pullback,
    pushout,
    sparse_columns,
    sparse_image,
    torsion_part,
)
from abext.homext import hom_group

Z = FinGenAb(1, ())
Z2 = FinGenAb(0, (2,))
Z3 = FinGenAb(0, (3,))
Z4 = FinGenAb(0, (4,))
Z6 = FinGenAb(0, (6,))


def random_group(rng, max_order=8):
    pool = abelian_groups_up_to_order(max_order)
    g = rng.choice(pool)
    if rng.random() < 0.2:
        return FinGenAb(rng.randint(1, 2), g.invariant_factors)
    return g


def canonicalize_rows(R):
    """``canonicalize`` of the rows of the IntMatrix R, passed sparse."""
    return canonicalize(sparse_rows(R.rows), R.ncols)


def columns(rows):
    """Dense rows (target by source) as the sparse columns the rank cores read."""
    return sparse_columns(rows, len(rows[0]) if rows else 0)


def random_map(rng, A, B):
    rows = []
    for m in B.moduli():
        row = []
        for mj in A.moduli():
            if mj == 0:
                row.append(rng.randint(-3, 3) if m == 0 else rng.randrange(m))
            elif m == 0:
                row.append(0)
            else:
                # a well-defined image of a generator of order mj
                step = m // __import__("math").gcd(m, mj)
                row.append(step * rng.randrange(m // step))
        rows.append(row)
    return AbMap.from_matrix(A, B, IntMatrix.from_rows(rows, ncols=A.dim))


def test_invariant_factor_validation():
    with pytest.raises(DomainError):
        FinGenAb(0, (4, 2))
    with pytest.raises(DomainError):
        FinGenAb(0, (1,))
    with pytest.raises(DomainError):
        FinGenAb(-1, ())


def test_ill_defined_map_names_its_lowest_bad_column():
    # Row 0 breaks at column 1 and row 1 at column 0: the message names column 0.
    Z2Z2, Z4Z4 = FinGenAb(0, (2, 2)), FinGenAb(0, (4, 4))
    with pytest.raises(DomainError) as err:
        AbMap.from_matrix(Z2Z2, Z4Z4, IntMatrix.from_rows([[2, 1], [1, 2]]))
    assert str(err.value) == "map not well defined: 2 * column 0 not in target relations"
    with pytest.raises(DomainError) as err:
        AbMap.from_matrix(FinGenAb(0, (2, 4)), FinGenAb(1, (4,)), IntMatrix.from_rows([[2, 1], [0, 3]]))
    assert str(err.value) == "map not well defined: 4 * column 1 not in target relations"
    # Row 0 breaks at column 0 and row 1 at column 1: still column 0.
    with pytest.raises(DomainError) as err:
        AbMap.from_matrix(Z2Z2, Z4Z4, IntMatrix.from_rows([[1, 2], [2, 1]]))
    assert str(err.value) == "map not well defined: 2 * column 0 not in target relations"


def test_canonicalize_examples():
    G, _, _ = canonicalize([{0: 2}, {1: 4}], 2)
    assert G == FinGenAb(0, (2, 4))
    G, _, _ = canonicalize([], 3)
    assert G == FinGenAb(3, ())
    G, place, lift = canonicalize([{0: 2, 1: 4}, {0: 6, 1: 8}], 2)
    assert G == FinGenAb(0, (2, 4))
    proj, lift = dense_matrix(place, G.dim), dense_matrix(lift, 2)
    assert dense.matmul(proj, lift).rows == dense.identity(G.dim).rows
    # a diagonal lattice whose moduli do not chain
    G, place, lift = canonicalize([{0: 2}, {1: 3}], 2)
    assert G == Z6
    proj, lift = dense_matrix(place, G.dim), dense_matrix(lift, 2)
    assert dense.matmul(proj, lift).rows == ((1,),)
    assert G.reduce(dense.apply(proj, [2, 0])) == G.reduce(dense.apply(proj, [0, 3])) == (0,)


def test_canonicalize_kills_relations():
    rng = random.Random(2)
    # diagonal lattices whose moduli do not chain, then random ones
    presentations = [IntMatrix.diagonal(mods) for mods in ([2, 3], [75, 45], [6, 10, 15], [4, 0, 9, 1, 6])]
    for _ in range(40):
        m, n = rng.randint(0, 4), rng.randint(1, 4)
        presentations.append(IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)], ncols=n))
    for R in presentations:
        G, place, lift = canonicalize_rows(R)
        assert len(place) == R.ncols and len(lift) == G.dim
        # on the sparse vectors: placing the lifts is the identity, exactly
        for k, vec in enumerate(lift):
            assert {i: x for i, x in sparse_image(place, vec).items() if x} == {k: 1}
        for row in R.rows:
            assert not any(G.reduce(apply_sparse(place, row, G.dim)))
        proj, lift = dense_matrix(place, G.dim), dense_matrix(lift, R.ncols)
        assert dense.matmul(proj, lift).rows == dense.identity(G.dim).rows
        for row in R.rows:
            assert G.reduce(dense.apply(proj, list(row))) == (0,) * G.dim


def test_canonicalize_of_sparse_relations_gives_the_dense_loops_results():
    # Zero entries left out or explicit, keys in any order, all-zero rows as
    # empty dicts or dicts of zeros, no rows or no columns: diagonal lattices
    # (a relation touching one column, whatever zeros it lists) and mixed ones.
    rng = random.Random(33)
    presentations = [dense.zeros(0, 0), dense.zeros(0, 3), dense.zeros(3, 0), dense.zeros(2, 3)]
    presentations += [IntMatrix.diagonal(mods, len(mods) + 1) for mods in ([2, 3], [75, 45], [4, 0, 9, 1, 6])]
    presentations.append(IntMatrix.from_rows([[0, 4, 0], [0, 0, 0], [6, 0, 0], [0, 10, 0]]))
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 0, 1, -2, 3, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        presentations.append(IntMatrix.from_rows(rows, ncols=n))
    for R in presentations:
        want = dense.canonicalize(R)
        for rows in dense.sparse_forms(rng, R.rows):
            assert canonicalize(rows, R.ncols) == want, (R, rows)


def test_canonicalize_runs_one_elimination_and_no_hnf(monkeypatch):
    def no_hnf(*_args):
        raise AssertionError("hnf called")

    for mod in [m for name, m in sys.modules.items() if name.startswith("abext")]:
        if hasattr(mod, "hnf"):
            monkeypatch.setattr(mod, "hnf", no_hnf)
    calls, columns, rows_of_inverse = [], [], []
    real, real_apply, real_inverse = abgroup._snf, abgroup._v_apply, abgroup._v_inverse_apply
    monkeypatch.setattr(abgroup, "_snf", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    monkeypatch.setattr(abgroup, "_v_apply", lambda log, y: columns.append(y) or real_apply(log, y))
    monkeypatch.setattr(abgroup, "_v_inverse_apply", lambda log, r: rows_of_inverse.append(r) or real_inverse(log, r))
    monkeypatch.setattr(intlin, "_v_columns", None)  # V is never formed whole
    rng = random.Random(5)
    presentations = []
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(2, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        rows[0][:2] = [rng.randint(1, 9), rng.randint(1, 9)]  # two nonzeros in a row: not diagonal
        presentations.append((rows, n, None))
    rng = random.Random(40)  # the CI's dense 40x40: one kept coordinate of 40
    presentations.append(([[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)], 40, 1))
    for rows, n, kept in presentations:
        calls.clear()
        columns.clear()
        rows_of_inverse.clear()
        G, place, lift = canonicalize(sparse_rows(rows), n)
        assert len(calls) == 1
        # one column of V and one row of V^-1 per kept coordinate, nothing more
        assert G.dim == len(lift) == len(columns) == len(rows_of_inverse) == (kept or G.dim)
    calls.clear()
    canonicalize([{0: 4}, {1: 6, 0: 0}, {}], 3)  # a diagonal lattice takes no SNF
    assert calls == []


def test_direct_sum_examples():
    assert direct_sum([Z2, Z2]).total == FinGenAb(0, (2, 2))
    assert direct_sum([]).total == ZERO_GROUP
    ds = direct_sum([Z2, Z4])
    assert ds.total == FinGenAb(0, (2, 4))
    # moduli that do not chain regroup by prime
    ds = direct_sum([Z2, Z3])
    assert ds.total == Z6
    assert_biproduct(ds)


def assert_biproduct(ds):
    groups = ds.summands
    for i, gi in enumerate(groups):
        for j, gj in enumerate(groups):
            comp = ds.projections[i] @ ds.injections[j]
            want = AbMap.identity(gi) if i == j else AbMap.zero(gj, gi)
            assert comp == want
    if groups:
        total = ds.injections[0] @ ds.projections[0]
        for k in range(1, len(groups)):
            total = total + ds.injections[k] @ ds.projections[k]
        assert total == AbMap.identity(ds.total)


def test_biproduct_identities():
    rng = random.Random(4)
    for _ in range(30):
        assert_biproduct(direct_sum([random_group(rng, 6) for _ in range(rng.randint(0, 3))]))


def test_cyclic_sum_examples():
    # a chain is the stable sort by modulus, free summands last, Z(1) dropped
    G, place, lift = cyclic_sum([4, 0, 2, 1, 2])
    assert G == FinGenAb(1, (2, 2, 4))
    assert place == [{2: 1}, {3: 1}, {0: 1}, {}, {1: 1}]
    assert lift == [{2: 1}, {4: 1}, {0: 1}, {1: 1}]
    assert cyclic_sum([]) == (ZERO_GROUP, [], [])


def test_cyclic_sum_matches_snf():
    rng = random.Random(11)
    for _ in range(80):
        mods = [rng.choice([0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 30]) for _ in range(rng.randint(1, 7))]
        G, place, lift = cyclic_sum(mods)
        diag = [abs(d) for d in snf_diagonal([{i: m} for i, m in enumerate(mods)], len(mods))]
        assert G.invariant_factors == tuple(d for d in diag if d > 1)
        assert G.free_rank == diag.count(0)
        P, L = dense_matrix(place, G.dim), dense_matrix(lift, len(mods))

        def on_summands(vec):
            return [v % m if m else v for v, m in zip(vec, mods)]

        # place and lift are mutually inverse modulo the moduli
        for k, col in enumerate(zip(*dense.matmul(P, L).rows)):
            assert G.reduce(col) == tuple(int(t == k) for t in range(G.dim))
        for i, col in enumerate(zip(*dense.matmul(L, P).rows)):
            assert on_summands(col) == on_summands([int(t == i) for t in range(len(mods))])
        # canonicalize finds the same group, and on a chain the same coordinates
        H, hplace, hlift = canonicalize_rows(IntMatrix.diagonal(mods))
        assert H == G
        torsion = sorted(m for m in mods if m > 1)
        if all(b % a == 0 for a, b in zip(torsion, torsion[1:])):
            assert (dense_matrix(hplace, H.dim), dense_matrix(hlift, len(mods))) == (P, L)


def _cyclic_sum_oracle(moduli):
    """``cyclic_sum`` as it was before summands were grouped by modulus: every
    summand's prime parts, sorted per prime by (part, modulus, index), each
    idempotent added in its own step."""
    torsion = [i for i, m in enumerate(moduli) if m > 1]
    free = [i for i, m in enumerate(moduli) if m == 0]
    per_prime = {}
    for t, i in enumerate(torsion):
        m = moduli[i]
        for p in prime_factors(m):
            q = p ** abgroup._pval(m, p)
            per_prime.setdefault(p, []).append((q, m, t))
    k = max((len(parts) for parts in per_prime.values()), default=0)
    blocks = [[] for _ in range(k)]
    for parts in per_prime.values():
        parts.sort()
        for pos, (q, _m, t) in enumerate(parts, start=k - len(parts)):
            blocks[pos].append((t, q))
    factors = [math.prod(q for _, q in block) for block in blocks]
    place = [{} for _ in moduli]
    lift = []
    for k, (F, block) in enumerate(zip(factors, blocks)):
        row = {}
        for t, q in block:
            i = torsion[t]
            row[i] = (row.get(i, 0) + abgroup._idempotent(moduli[i], q)) % moduli[i]
            place[i][k] = (place[i].get(k, 0) + abgroup._idempotent(F, q)) % F
        lift.append(row)
    for k, i in enumerate(free, start=len(factors)):
        place[i][k] = 1
        lift.append({i: 1})
    return FinGenAb(len(free), tuple(factors)), place, lift


def test_cyclic_sum_matches_the_ungrouped_oracle():
    """Same group, place and lift values as the summand-by-summand regrouping
    (dict order may differ), and placing the lifts is the identity modulo the
    group's moduli."""
    rng = random.Random(23)
    pools = [
        [0, 1, 2, 4, 8, 3, 9, 5, 25, 7],  # 0, 1 and prime powers
        [0, 1, 2, 3, 4, 5, 6, 10, 15, 30, 12, 60, 9, 45],  # mixed moduli
        [2, 6, 10, 30],
    ]
    lists = []
    for case in range(3000):
        pool = pools[case % 3]
        mods = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        if mods and case % 4 == 0:  # repeats
            mods += [rng.choice(mods) for _ in range(rng.randint(1, 6))]
            rng.shuffle(mods)
        lists.append(mods)
    for m in (2, 6, 30, 0, 1):  # runs of at least 1,000 equal moduli, alone and mixed in
        lists.append([m] * 1000)
        mixed = [m] * 1200 + [rng.choice(pools[1]) for _ in range(30)]
        rng.shuffle(mixed)
        lists.append(mixed)
    for mods in lists:
        G, place, lift = cyclic_sum(mods)
        assert (G, place, lift) == _cyclic_sum_oracle(mods), mods
        gmods = G.moduli()
        for k, vec in enumerate(lift):
            image = {i: x % gmods[i] if gmods[i] else x for i, x in sparse_image(place, vec).items()}
            assert {i: x for i, x in image.items() if x} == {k: 1}, mods


def test_diagonal_codiagonal():
    nabla = codiagonal(Z2, 2)
    assert nabla.matrix.rows == ((1, 1),)
    delta = diagonal(Z3, 3)
    assert delta.matrix.rows == ((1,), (1,), (1,))
    Z5 = FinGenAb(0, (5,))
    comp = codiagonal(Z5, 2) @ diagonal(Z5, 2)
    assert comp == AbMap.from_matrix(Z5, Z5, IntMatrix.from_rows([[2]]))
    ds = power_sum(Z5, 2)
    for i in range(2):
        assert codiagonal(Z5, 2) @ ds.injections[i] == AbMap.identity(Z5)
        assert ds.projections[i] @ diagonal(Z5, 2) == AbMap.identity(Z5)


def test_kernel_cokernel_examples():
    K, incl = kernel(AbMap.from_matrix(Z4, Z4, IntMatrix.from_rows([[2]])))
    assert K == Z2
    assert incl.matrix.rows == ((2,),)
    C, _ = cokernel(AbMap.from_matrix(Z, Z, IntMatrix.from_rows([[2]])))
    assert C == Z2
    K, _ = kernel(AbMap.identity(Z4))
    assert K == ZERO_GROUP


def test_kernel_universal_property():
    rng = random.Random(9)
    for _ in range(30):
        A = random_group(rng, 8)
        B = random_group(rng, 8)
        f = random_map(rng, A, B)
        K, incl = kernel(f)
        assert (f @ incl).is_zero()
        assert is_mono(incl)
        # any map killed by f factors uniquely through K
        T = random_group(rng, 6)
        H = hom_group(T, A)
        for coords in [tuple(rng.randrange(g) if g else rng.randint(-2, 2) for g in H.carrier.moduli())]:
            t = H.recompose(dict(enumerate(coords)))
            if not (f @ t).is_zero():
                continue
            from abext.intlin import solve_mod
            cols = []
            ok = True
            for j in range(T.dim):
                vec = [t.matrix.rows[i][j] for i in range(A.dim)]
                x = solve_mod(incl.matrix, vec, list(A.moduli()))
                if x is None:
                    ok = False
                    break
                cols.append(x)
            assert ok
            factor = AbMap.from_matrix(T, K, IntMatrix.from_rows(
                [[cols[j][i] for j in range(T.dim)] for i in range(K.dim)], ncols=T.dim))
            assert incl @ factor == t


def test_cokernel_projection_is_epi():
    rng = random.Random(10)
    for _ in range(30):
        A = random_group(rng, 8)
        B = random_group(rng, 8)
        f = random_map(rng, A, B)
        C, proj = cokernel(f)
        assert is_epi(proj)
        assert (proj @ f).is_zero()


def test_pushout_examples():
    po = pushout(AbMap.identity(Z2), AbMap.identity(Z2))
    assert po.apex == Z2
    inc = AbMap.from_matrix(Z2, Z4, IntMatrix.from_rows([[2]]))
    po2 = pushout(AbMap.identity(Z2), inc)
    # |B ⊕ C| / |A| = 2*4/2 = 4
    assert po2.apex.order() == 4
    assert po2.left @ AbMap.identity(Z2) == po2.left
    assert (po2.left @ AbMap.identity(Z2) - po2.right @ inc).is_zero()
    pb = pullback(AbMap.identity(Z2), AbMap.identity(Z2))
    assert pb.apex == Z2


def test_pushout_mediators_random():
    rng = random.Random(12)
    for _ in range(50):
        A = random_group(rng, 6)
        B = random_group(rng, 6)
        C = random_group(rng, 6)
        f = random_map(rng, A, B)
        g = random_map(rng, A, C)
        po = pushout(f, g)
        assert (po.left @ f) == (po.right @ g)
        Q = random_group(rng, 6)
        # build a commuting cocone through the pushout itself
        b = po.left
        c = po.right
        med = po.mediator(b, c)
        assert med @ po.left == b and med @ po.right == c
        # uniqueness: only the zero map kills both legs
        H = hom_group(po.apex, po.apex)
        if H.carrier.dim:
            from abext.intlin import IntMatrix as IM
            cols = []
            for basis_map in H.basis:
                lv = (basis_map @ po.left).matrix
                rv = (basis_map @ po.right).matrix
                cols.append([v for row in lv.rows for v in row] + [v for row in rv.rows for v in row])
            mat = IM.from_rows(
                [[cols[c2][r] for c2 in range(len(cols))] for r in range(len(cols[0]))],
                ncols=len(cols)) if cols and cols[0] else None
            # kernel of "precompose with both legs" must be trivial modulo
            # target relations; check by brute force over the hom basis span
            mods = H.carrier.moduli()
            import itertools
            ranges = [range(m) if m else range(-2, 3) for m in mods]
            if all((m and m <= 4) for m in mods) and H.carrier.order() and H.carrier.order() <= 256:
                for coords in itertools.product(*ranges):
                    hmap = H.recompose(dict(enumerate(coords)))
                    if (hmap @ po.left).is_zero() and (hmap @ po.right).is_zero():
                        assert hmap.is_zero()


def test_pullback_mediator():
    rng = random.Random(13)
    for _ in range(30):
        A = random_group(rng, 6)
        B = random_group(rng, 6)
        C = random_group(rng, 6)
        f = random_map(rng, B, A)
        g = random_map(rng, C, A)
        pb = pullback(f, g)
        assert (f @ pb.left) == (g @ pb.right)
        med = pb.mediator(pb.left, pb.right)
        assert pb.left @ med == pb.left and pb.right @ med == pb.right


def test_mono_epi_examples():
    assert is_mono(AbMap.from_matrix(Z, Z, IntMatrix.from_rows([[2]])))
    assert not is_epi(AbMap.from_matrix(Z, Z, IntMatrix.from_rows([[2]])))
    red = AbMap.from_matrix(Z4, Z2, IntMatrix.from_rows([[1]]))
    assert is_epi(red) and not is_mono(red)
    assert torsion_part(FinGenAb(2, (6,))) == Z6
    assert FinGenAb(2, (6,)).order() is None and Z6.order() == 6


def test_mono_epi_fast_path_matches_lattice_path():
    # Free rank 0-2 on both sides against kernel and cokernel with transforms.
    rng = random.Random(14)
    torsion = abelian_groups_up_to_order(8)
    verdicts = set()
    for _ in range(200):
        A, B = (FinGenAb(rng.randint(0, 2), rng.choice(torsion).invariant_factors) for _ in range(2))
        f = random_map(rng, A, B)
        K, _ = kernel(f)
        C, _ = cokernel(f)
        assert is_mono(f) == K.is_trivial()
        assert is_epi(f) == C.is_trivial()
        assert cokernel_group(f.cols, B.moduli()) == C
        verdicts.add((A.is_finite(), B.is_finite(), is_mono(f), is_epi(f)))
    assert {(False, False, True, False), (False, False, False, True), (False, True, False, True)} <= verdicts
    # Permutation-like maps from Z^n, with unit columns for cokernel_group to drop.
    epis = set()
    for _ in range(100):
        B = FinGenAb(rng.randint(0, 2), rng.choice(torsion).invariant_factors or (2,))
        A = FinGenAb(rng.randint(2, 6), ())
        f = AbMap.from_matrix(A, B, IntMatrix.from_rows(unit_column_rows(rng, B.moduli(), A.dim), ncols=A.dim))
        K, _ = kernel(f)
        C, _ = cokernel(f)
        assert is_mono(f) == K.is_trivial()
        assert is_epi(f) == C.is_trivial()
        assert cokernel_group(f.cols, B.moduli()) == C
        epis.add((B.is_finite(), is_epi(f)))
    assert epis == {(True, True), (True, False), (False, True), (False, False)}


def test_cokernel_group_examples():
    assert cokernel_group(columns([[1]]), [5]).is_trivial()
    assert cokernel_group(columns([[2]]), [4]) == Z2
    # Z -> Z/4 + Z/9 via (2,3): image generated by an element of order 6 < 36
    assert cokernel_group(columns([[2], [3]]), [4, 9]) == Z6
    reachable = {(2 * x % 4, 3 * x % 9) for x in range(36)}
    assert len(reachable) == 6
    # untouched coordinates stay whole, free ones too; no columns at all
    assert cokernel_group(columns([[0, 0], [1, 3], [0, 0]]), [4, 0, 0]) == FinGenAb(1, (4,))
    assert cokernel_group(columns([[], []]), [3, 0]) == FinGenAb(1, (3,))
    assert cokernel_group(columns([]), []) == ZERO_GROUP


def test_cokernel_group_against_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        moduli = [rng.choice([2, 3, 4]) for _ in range(m)]
        M = IntMatrix.from_rows(rows)
        total = math.prod(moduli)
        L = math.lcm(*moduli)
        image = set()
        for x in itertools.product(range(L), repeat=n):
            vals = dense.apply(M, list(x))
            image.add(tuple(v % md for v, md in zip(vals, moduli)))
        assert cokernel_group(columns(rows), moduli).order() == total // len(image)
    # Columns that are units at their one nonzero entry, against the
    # subgroup their span generates and against cokernel with transforms.
    for _ in range(60):
        moduli = [rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
        rows = unit_column_rows(rng, moduli, rng.randint(2, 5))
        T, place, _ = cyclic_sum(moduli)
        image = {(0,) * len(moduli)}
        frontier = list(image)
        while frontier:
            v = frontier.pop()
            for col in zip(*rows):
                w = tuple((a + b) % m for a, b, m in zip(v, col, moduli))
                if w not in image:
                    image.add(w)
                    frontier.append(w)
        got = cokernel_group(columns(rows), moduli)
        assert got.order() == math.prod(moduli) // len(image), (rows, moduli)
        # the same map into the canonical form of ⊕Z(moduli)
        M = dense.matmul(dense_matrix(place, T.dim), IntMatrix.from_rows(rows))
        assert got == cokernel(AbMap.from_matrix(FinGenAb(M.ncols, ()), T, M))[0]


def unit_column_rows(rng, moduli, n):
    """n columns into ⊕Z(moduli), 0 meaning Z, in the shape of a universal
    co-extension's p: two single-entry unit columns on one row (±1, m-1 or
    another unit of Z(m)), other unit columns on random rows, and dense
    columns that also hit the first unit row; shuffled."""
    k = len(moduli)
    units = [[u for u in range(-1, max(m, 2)) if u and math.gcd(u, m) == 1] for m in moduli]
    i0 = rng.randrange(k)
    cols = []
    for c in range(n):
        col = [0] * k
        if c < 2 or rng.random() < 0.4:
            i = i0 if c < 2 else rng.randrange(k)
            col[i] = rng.choice(units[i])
        else:
            col = [rng.randint(-3, 3) for _ in range(k)]
            col[i0] = rng.choice([1, 2, -2, 3])
        cols.append(col)
    rng.shuffle(cols)
    return [list(row) for row in zip(*cols)]


def unreduced(rng, rows, moduli):
    """The same map with multiples of the target moduli added and some rows negated."""
    out = []
    for row, m in zip(rows, moduli):
        sign = rng.choice((1, -1))
        out.append([sign * v + m * rng.randint(-2, 2) for v in row])
    return out


def permutation_like(rng, d, n):
    """Z(d)^n to itself: generator 0 to e_0 and generator s to e_s - e_0, the
    shape of a universal extension's p, with generators shuffled and, at
    random, one column repeated (not mono) or one row cleared (not epi)."""
    cols = [{0: 1}] + [{s: 1, 0: -1} for s in range(1, n)]
    rng.shuffle(cols)
    if rng.random() < 0.3:
        cols[rng.randrange(n)] = dict(cols[rng.randrange(n)])
    rows = [[col.get(i, 0) for col in cols] for i in range(n)]
    if rng.random() < 0.3:
        rows[rng.randrange(n)] = [0] * n
    return rows


def test_mono_epi_mod_match_kernel_and_cokernel():
    # The rank cores on unreduced rows against the SNF route of kernel/cokernel.
    rng = random.Random(23)
    pool = abelian_groups_up_to_order(12)
    verdicts = set()
    for case in range(160):
        if case % 4 == 0:
            d, n = rng.choice((2, 3, 4, 6)), rng.randint(1, 12)
            S = T = FinGenAb(0, (d,) * n)
            rows = permutation_like(rng, d, n)
        else:
            S, T = (direct_sum([rng.choice(pool) for _ in range(rng.randint(1, 3))]).total for _ in range(2))
            if case % 4 == 1:
                S = FinGenAb(rng.randint(1, 2), S.invariant_factors)  # free source: epi only
            rows = [list(r) for r in random_map(rng, S, T).matrix.rows]
        f = AbMap.from_matrix(S, T, IntMatrix.from_rows(rows, ncols=S.dim))
        rows = unreduced(rng, rows, T.moduli())
        cols = sparse_columns(rows, S.dim)
        mono = is_mono_mod(cols, S.moduli(), T.moduli()) if S.is_finite() else None
        epi = is_epi_mod(cols, S.moduli(), T.moduli())
        if mono is not None:
            assert mono == kernel(f)[0].is_trivial(), (S, T, rows)
        assert epi == cokernel(f)[0].is_trivial(), (S, T, rows)
        verdicts.add((mono, epi))
    assert {(True, True), (False, False), (True, False), (False, True), (None, True), (None, False)} <= verdicts


def test_map_entries_reduce_like_python_mod():
    rng = random.Random(25)
    pool = abelian_groups_up_to_order(12)
    for _ in range(60):
        S, T = rng.choice(pool), FinGenAb(rng.randint(0, 1), rng.choice(pool).invariant_factors)
        reduced = random_map(rng, S, T).matrix
        rows = unreduced(rng, reduced.rows, T.moduli())
        f = AbMap.from_matrix(S, T, IntMatrix.from_rows(rows, ncols=S.dim))
        want = tuple(tuple(v % m if m else v for v in row) for row, m in zip(rows, T.moduli()))
        assert f.matrix.rows == want
        assert AbMap.from_matrix(S, T, reduced).matrix is reduced  # a reduced matrix is kept as given


def _normalized(M, T):
    """A dense matrix into T in normal form: each row reduced modulo its target modulus."""
    return tuple(tuple(v % m if m else v for v in row) for row, m in zip(M.rows, T.moduli()))


def test_sparse_maps_match_dense_arithmetic():
    # Sparse columns against dense IntMatrix arithmetic, and mono/epi against
    # kernel/cokernel through SNF, on groups with torsion, free rank, the zero
    # group and so maps with no rows or no columns.
    rng = random.Random(41)
    pool = abelian_groups_up_to_order(12) + [Z, FinGenAb(2, ()), FinGenAb(1, (2, 6)), FinGenAb(2, (3,))]
    verdicts = set()
    for _ in range(200):
        S, T, U = (rng.choice(pool) for _ in range(3))
        rows = unreduced(rng, [list(r) for r in random_map(rng, S, T).matrix.rows], T.moduli())
        F = IntMatrix.from_rows(rows, ncols=S.dim)
        # explicit zeros and unreduced entries in the columns, as callers may pass them
        f = AbMap(S, T, [{i: r[j] for i, r in enumerate(rows) if r[j] or rng.random() < 0.3} for j in range(S.dim)])
        assert f.matrix.shape == (T.dim, S.dim) and f.matrix.rows == _normalized(F, T)
        g, h = random_map(rng, T, U), random_map(rng, S, T)
        G, H = g.matrix, h.matrix
        assert (g @ f).matrix.rows == _normalized(dense.matmul(G, F), U)
        assert (f + h).matrix.rows == _normalized(dense.add(F, H), T)
        assert (f - h).matrix.rows == _normalized(dense.add(F, dense.scale(H, -1)), T)
        c = rng.randint(-5, 5)
        assert f.scale(c).matrix.rows == _normalized(dense.scale(F, c), T)
        x = [rng.randint(-9, 9) for _ in range(S.dim)]
        assert f.apply(x) == T.reduce(dense.apply(F, x))
        assert f.is_zero() == (not any(map(any, _normalized(F, T))))
        same = AbMap.from_matrix(S, T, F)
        assert same == f and hash(same) == hash(f)
        assert (f == h) == (f.matrix.rows == H.rows)
        mono, epi = is_mono(f), is_epi(f)
        assert mono == kernel(f)[0].is_trivial()
        assert epi == cokernel(f)[0].is_trivial()
        verdicts.add((mono, epi))
        text = json.dumps(f.to_json())
        back = AbMap.from_json(json.loads(text))
        assert back == f and json.dumps(back.to_json()) == text
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_group_enumeration():
    assert [g.invariant_factors for g in abelian_groups_of_order(8)] == [
        (2, 2, 2),
        (2, 4),
        (8,),
    ]
    assert len(abelian_groups_up_to_order(12)) == 17
    assert abelian_groups_of_order(1) == [ZERO_GROUP]


def test_prime_runs():
    # moduli that chain stay whole, in stable-sort order: Z(2)^2 + Z(6) = Z(2) + Z(2) + Z(6)
    assert abgroup._prime_runs({6: 1, 2: 2}) == ([2, 2, 6], [(2, 2, 0), (2, 6, 2), (3, 6, 2)])
    # Z(2) + Z(3)^2 + Z(6) = Z(3) + Z(6) + Z(6), regrouped by prime
    assert abgroup._prime_runs({2: 1, 3: 2, 6: 1}) == ([3, 6, 6], [(2, 2, 1), (2, 6, 2), (3, 3, 0), (3, 6, 2)])
    assert abgroup._prime_runs({}) == ([], [])


def test_orders_match_agrees_with_the_products_of_the_orders():
    rng = random.Random(2605)
    chains = [(2, 4, 8, 16), (3, 9, 27), (2, 6, 12, 60), (5, 25), (7,)]
    agreed = set()
    for _ in range(2000):
        G, H, K = (
            FinGenAb(0, tuple(sorted(rng.choice(chain) for _ in range(rng.randint(0, 8)))))
            for chain in (rng.choice(chains) for _ in range(3))
        )
        if rng.random() < 0.5:  # a middle group of the right order, often not the sum
            parts = [q for d in H.invariant_factors + K.invariant_factors for _, q in abgroup._prime_parts(d)]
            G = FinGenAb(0, abgroup.invariant_factors_of(parts))
            if G.invariant_factors and rng.random() < 0.5:
                G = FinGenAb(0, G.invariant_factors[:-1] + (G.invariant_factors[-1] * rng.choice((2, 3)),))
        want = math.prod(G.invariant_factors) == math.prod(H.invariant_factors) * math.prod(K.invariant_factors)
        assert abgroup.orders_match(G, (H, K)) == want, (G, H, K)
        agreed.add(want)
    assert agreed == {True, False}
    assert abgroup.orders_match(ZERO_GROUP, ()) and abgroup.orders_match(ZERO_GROUP, (ZERO_GROUP,))
    assert not abgroup.orders_match(Z2, ())
    twos = FinGenAb(0, (2,) * (1 << 18))
    assert abgroup.orders_match(twos, (FinGenAb(0, (2,) * (1 << 17)), FinGenAb(0, (4,) * (1 << 16))))


def test_orders_match_modulo_q_agrees_with_the_products_of_the_gcds():
    # |G/qG| is the product of gcd(q, m) over G's moduli m (gcd(q, 0) = q),
    # and |t(G)[q]| = |t(G)/q·t(G)| that over the torsion part's factors
    # alone; q = 0 reads each factor whole.
    rng = random.Random(2705)
    chains = [(2, 4, 8), (3, 9), (2, 6, 12, 60), (5,), (2, 6, 30)]
    agreed = set()
    for _ in range(2000):
        G, H = (
            FinGenAb(rng.randint(0, 2), tuple(sorted(rng.choice(chain) for _ in range(rng.randint(0, 6)))))
            for chain in (rng.choice(chains) for _ in range(2))
        )
        torsion = rng.random() < 0.5
        q = rng.choice((0, 2, 3, 4, 6, 10, 12, 15))
        if torsion or q == 0:
            G, H = torsion_part(G), torsion_part(H)
        want = math.prod(math.gcd(q, m) for m in G.moduli()) == math.prod(math.gcd(q, m) for m in H.moduli())
        assert abgroup.orders_match(G, [H], q) == want, (G, H, q)
        agreed.add(want)
    assert agreed == {True, False}
    twos = FinGenAb(3, (2,) * (1 << 18) + (4,))
    assert abgroup.orders_match(twos, [FinGenAb(0, (2,) * ((1 << 18) + 4))], 2)
    assert abgroup.orders_match(torsion_part(twos), [FinGenAb(0, (2,) * ((1 << 18) + 1))], 2)


def test_mod_quotient():
    G = FinGenAb(0, (2, 4, 8))
    Q, proj, kept = mod_quotient(G, 4)
    assert Q == FinGenAb(0, (2, 4, 4))
    assert kept == [0, 1, 2]
    Q, proj, kept = mod_quotient(FinGenAb(1, (3,)), 2)
    assert Q == Z2 and kept == [1]


def test_trivial_group_everywhere():
    assert direct_sum([ZERO_GROUP, Z2]).total == Z2
    K, _ = kernel(AbMap.zero(ZERO_GROUP, Z2))
    assert K == ZERO_GROUP
    C, _ = cokernel(AbMap.zero(ZERO_GROUP, Z2))
    assert C == Z2
    po = pushout(AbMap.zero(ZERO_GROUP, Z2), AbMap.zero(ZERO_GROUP, Z3))
    assert po.apex == Z6


def test_group_json_roundtrip():
    g = FinGenAb(2, (2, 6))
    assert FinGenAb.from_json(g.to_json()) == g
    m = AbMap.from_matrix(Z4, Z6, IntMatrix.from_rows([[3]]))
    assert AbMap.from_json(m.to_json()) == m


def _smallest_prime_factors(n):
    """spf[m] for m < n by a sieve: the reference for small factorizations."""
    spf = list(range(n))
    for p in range(2, int(n**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, n, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def test_prime_factors_and_is_prime_match_the_sieve_up_to_1e5():
    spf = _smallest_prime_factors(10**5 + 1)
    for n in range(2, 10**5 + 1):
        want, m = [], n
        while m > 1:
            p = spf[m]
            want.append(p)
            while m % p == 0:
                m //= p
        assert prime_factors(n) == want
        assert prime_factors(-n) == want
        assert is_prime(n) == (spf[n] == n)
    assert prime_factors(1) == [] and not is_prime(1) and not is_prime(0)


def test_prime_factors_matches_sympy_on_factors_below_the_bound():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(60):
        n = 1
        for _ in range(rng.randint(1, 6)):
            n *= rng.randrange(2, 1 << 16) ** rng.randint(1, 3)
        if rng.random() < 0.5:  # one prime cofactor past 2^32, within Miller–Rabin's exact range
            n *= sympy.nextprime(rng.randrange(1 << 32, 10**24))
        assert prime_factors(n) == sorted(sympy.factorint(n))


def test_is_prime_matches_sympy_past_trial_division():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    cases = [rng.randrange(1 << 32, 3 * 10**24) | 1 for _ in range(200)]
    cases += [sympy.nextprime(rng.randrange(1 << 32, 3 * 10**24)) for _ in range(20)]
    # the least strong pseudoprimes to the primes up to 7, 23 and 37 (OEIS A014233)
    cases += [3215031751, 3825123056546413051, 318665857834031151167461]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_large_cofactors_answer_at_once():
    p, q = 1000000000000000003, 1000000000000000009  # two 19-digit primes
    t0 = time.perf_counter()
    assert prime_factors(2 * p) == [2, p] and is_prime(p)
    assert prime_factors(6 * p**2) == [2, 3, p]
    with pytest.raises(BudgetExceeded):
        prime_factors(p * q)
    # prime, the least strong pseudoprime to 2..41, and a product of two primes:
    # all past the exact range of Miller-Rabin, with no prime factor up to 2^16
    for undecided in (2**89 - 1, 3317044064679887385961981, p * q):
        with pytest.raises(BudgetExceeded):
            is_prime(undecided)
    assert not is_prime(2**89 + 1) and not is_prime(p**2 * 11)
    assert time.perf_counter() - t0 < 1


def test_cofactors_past_trial_division_are_prime_powers_or_refused():
    assert prime_factors(70001**816) == [70001] and prime_factors(65537**3 * 70001) == [65537, 70001]
    # 4,300 digits leaving a 14,272-bit cofactor, and two distinct primes past
    # the exact range of is_prime: neither a prime power nor split by rho
    for unsplit in (10**4299 + 1, 10000000000037 * 10000000000051):
        with pytest.raises(BudgetExceeded):
            prime_factors(unsplit)


def test_cofactors_in_the_exact_range_are_split_by_rho():
    # two, three and four distinct primes past 2^16, two primes near the
    # square root of the range's end, and a product of two prime powers
    cases = [
        [70001, 70003],
        [65537, 1000003, 1000033],
        [65537, 65539, 65543, 65551],
        [1799999999969, 1799999999977],
    ]
    for primes in cases:
        n = math.prod(primes)
        assert n < 3317044064679887385961981 and all(is_prime(p) for p in primes)
        assert prime_factors(6 * n) == [2, 3] + primes
    assert prime_factors(70001**3 * 70003**2) == [70001, 70003]
