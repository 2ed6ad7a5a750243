import itertools
import math
import random

import pytest

from abext.errors import BudgetExceeded
from abext.intlin import (
    DimensionMismatch,
    IntMatrix,
    det,
    json_str,
    hnf,
    is_surjective_mod,
    kernel_basis,
    rank_mod_p,
    snf,
    solve,
    solve_mod,
)


def entries_gcd(M):
    g = 0
    for row in M.rows:
        for v in row:
            g = math.gcd(g, v)
    return g


def test_snf_spec_example():
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = snf(M)
    assert dec.diagonal() == [2, 4]
    assert (dec.U * M * dec.V).rows == dec.D.rows
    assert det(dec.U) in (1, -1) and det(dec.V) in (1, -1)
    # d1 is the gcd of all entries, d1*d2 = |det M|
    assert dec.diagonal()[0] == entries_gcd(M)
    assert dec.diagonal()[0] * dec.diagonal()[1] == abs(det(M))


def test_snf_empty_and_identity():
    dec = snf(IntMatrix.zeros(0, 0))
    assert dec.D.shape == (0, 0)
    dec = snf(IntMatrix.identity(3))
    assert dec.diagonal() == [1, 1, 1]


def test_snf_zero_rows_cols():
    dec = snf(IntMatrix.zeros(3, 2))
    assert dec.D.rows == IntMatrix.zeros(3, 2).rows
    dec = snf(IntMatrix.from_rows([], ncols=4))
    assert dec.D.shape == (0, 4)


def test_snf_random_properties():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(0, 6)
        n = rng.randint(0, 6)
        M = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], ncols=n
        )
        dec = snf(M)
        assert (dec.U * M * dec.V).rows == dec.D.rows
        assert det(dec.U) in (1, -1)
        assert det(dec.V) in (1, -1)
        diag = dec.diagonal()
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0
        # off-diagonal zero
        for i in range(dec.D.nrows):
            for j in range(dec.D.ncols):
                if i != j:
                    assert dec.D.entry(i, j) == 0
        # determinism
        again = snf(M)
        assert again.U.rows == dec.U.rows and again.V.rows == dec.V.rows


def test_solve_mod_examples():
    assert solve_mod(IntMatrix.from_rows([[2]]), [1], [4]) is None
    assert solve_mod(IntMatrix.from_rows([[1]]), [7], [0]) == [7]
    x = solve_mod(IntMatrix.from_rows([[2, 0], [0, 3]]), [2, 3], [4, 9])
    assert x is not None
    assert (2 * x[0]) % 4 == 2 and (3 * x[1]) % 9 == 3


def test_solve_mod_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_mod(IntMatrix.from_rows([[1, 2]]), [1, 2], [3])


def _exhaustive_solvable(M, b, moduli):
    # Solutions are periodic modulo the lcm of the row moduli.
    L = math.lcm(*moduli)
    n = M.ncols
    for x in itertools.product(range(L), repeat=n):
        vals = M.apply(list(x))
        if all((v - t) % m == 0 for v, t, m in zip(vals, b, moduli)):
            return True
    return False


def test_solve_mod_against_exhaustive_search():
    rng = random.Random(5)
    for _ in range(80):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        M = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        moduli = [rng.choice([2, 3, 4, 5, 6]) for _ in range(m)]
        b = [rng.randint(0, 5) for _ in range(m)]
        got = solve_mod(M, b, moduli)
        brute = _exhaustive_solvable(M, b, moduli)
        if got is None:
            assert not brute
        else:
            assert brute
            vals = M.apply(got)
            for v, t, md in zip(vals, b, moduli):
                assert (v - t) % md == 0


def test_is_surjective_mod_examples():
    assert is_surjective_mod(IntMatrix.from_rows([[1]]), [5])
    assert not is_surjective_mod(IntMatrix.from_rows([[2]]), [4])
    # Z -> Z/4 + Z/9 via (2,3): image generated by an element of order 6 < 36
    M = IntMatrix.from_rows([[2], [3]])
    assert not is_surjective_mod(M, [4, 9])
    reachable = {(2 * x % 4, 3 * x % 9) for x in range(36)}
    assert len(reachable) < 36


def test_is_surjective_mod_against_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        M = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        moduli = [rng.choice([2, 3, 4]) for _ in range(m)]
        total = math.prod(moduli)
        L = math.lcm(*moduli)
        image = set()
        for x in itertools.product(range(L), repeat=n):
            vals = M.apply(list(x))
            image.add(tuple(v % md for v, md in zip(vals, moduli)))
        assert is_surjective_mod(M, moduli) == (len(image) == total)


def test_solve_plain():
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(M, [4, 9]) == [2, 3]
    assert solve(M, [1, 0]) is None


def test_kernel_basis():
    M = IntMatrix.from_rows([[1, 2, 3]])
    K = kernel_basis(M)
    assert K.ncols == 2
    for j in range(K.ncols):
        col = [K.entry(i, j) for i in range(3)]
        assert sum(a * b for a, b in zip([1, 2, 3], col)) == 0


def test_hnf_properties():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        H, U = hnf(M)
        assert (U * M).rows == H.rows
        assert det(U) in (1, -1)
        pivots = []
        for i in range(m):
            nz = [j for j in range(n) if H.entry(i, j)]
            if nz:
                assert H.entry(i, nz[0]) > 0
                pivots.append(nz[0])
        assert pivots == sorted(pivots)


def test_rank_mod_p():
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1}]
    assert rank_mod_p(rows, 3, 2) == 2
    assert rank_mod_p(rows, 3, 3) == 3
    assert rank_mod_p([], 3, 2) == 0
    assert rank_mod_p([{}, {}], 0, 5) == 0
    assert rank_mod_p([{0: 4, 1: -2}, {0: 0, 1: 0}], 2, 2) == 0  # even entries vanish
    assert rank_mod_p([{1: -1}, {1: 6}], 2, 7) == 1


def dense_rank_mod_p(rows, ncols, p):
    """Gauss-Jordan over F_p on dense rows: the reference for ``rank_mod_p``."""
    work = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [v * inv % p for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [(v - c * w) % p for v, w in zip(work[i], work[rank])]
        rank += 1
    return rank


def test_rank_mod_p_matches_dense_gauss_jordan():
    rng = random.Random(17)
    ranks = set()
    for case in range(600):
        p = (2, 3, 5, 7)[case % 4]
        density = (0.1, 0.3, 1.0)[case // 4 % 3]
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        dense = [[rng.randint(-3 * p, 3 * p) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        if m > 2 and case % 5 == 0:  # a row that is a combination of two others
            a, b = rng.sample(range(m - 1), 2)
            c = rng.randint(-p, p)
            dense[-1] = [x + c * y + p * rng.randint(-2, 2) for x, y in zip(dense[a], dense[b])]
        sparse = [{j: v for j, v in enumerate(row) if v or rng.random() < 0.2} for row in dense]
        want = dense_rank_mod_p(dense, n, p)
        assert rank_mod_p(sparse, n, p) == want, (p, dense)
        ranks.add((want == min(m, n), want == 0))
    assert ranks == {(True, False), (False, False), (True, True), (False, True)}


def test_mul_matches_triple_loop():
    rng = random.Random(19)
    shapes = [(2, 0, 3), (0, 3, 2), (3, 2, 0), (1, 1, 1)] + [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for m, k, n in shapes:
        a = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(k)] for _ in range(m)]
        b = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)] for _ in range(k)]
        want = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        got = IntMatrix.from_rows(a, ncols=k) * IntMatrix.from_rows(b, ncols=n)
        assert got.shape == (m, n)
        assert got.rows == tuple(tuple(r) for r in want)
    assert (IntMatrix.zeros(2, 0) * IntMatrix.zeros(0, 3)).rows == ((0, 0, 0), (0, 0, 0))


def test_matrix_json_roundtrip():
    M = IntMatrix.from_rows([[10 ** 30, -2], [0, 7]])
    assert IntMatrix.from_json(M.to_json()).rows == M.rows


def test_zero_row_matrices_keep_their_width():
    a, b = IntMatrix.zeros(0, 3), IntMatrix.zeros(0, 5)
    assert a.shape == (0, 3) and b.shape == (0, 5)
    assert a != b and hash(a) != hash(b)
    assert a == IntMatrix.from_rows([], ncols=3) == IntMatrix.from_columns([(), (), ()], 0)
    assert a.transpose() == IntMatrix.zeros(3, 0)
    assert (IntMatrix.zeros(2, 0) * a).shape == (2, 3)


def test_from_columns():
    M = IntMatrix.from_columns([(1, 2), (3, 4), (5, 6)], 2)
    assert M.rows == ((1, 3, 5), (2, 4, 6))
    assert M == M.transpose().transpose()
    assert IntMatrix.from_columns([], 2).shape == (2, 0)
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_columns([(1, 2), (3,)], 2)
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2]], ncols=3)


@pytest.mark.parametrize("sign", [1, -1])
def test_json_str_prints_up_to_4300_digits_and_refuses_more(sign):
    assert json_str(sign * (10**4300 - 1)) == str(sign * (10**4300 - 1))
    for past in (10**4300, 10**4300 + 1, 2**20000):
        with pytest.raises(BudgetExceeded):
            json_str(sign * past)
    # bit lengths on both sides of 10^4300's
    rng = random.Random(7)
    for _ in range(50):
        v = rng.randrange(2**14284, 2**14286)
        if v < 10**4300:
            assert json_str(sign * v) == str(sign * v)
        else:
            with pytest.raises(BudgetExceeded):
                json_str(sign * v)


def test_matrix_json_refuses_an_unprintable_entry():
    assert IntMatrix.from_rows([[10**4300 - 1, 0]]).to_json()[0][0] == "9" * 4300
    with pytest.raises(BudgetExceeded):
        IntMatrix.from_rows([[0], [10**4300]]).to_json()
