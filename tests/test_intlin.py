import itertools
import math
import random
import time

import pytest

import dense_elimination as dense
from abext.errors import BudgetExceeded
from abext.intlin import (
    DimensionMismatch,
    _snf,
    IntMatrix,
    json_str,
    hnf,
    preimage_lattice,
    rank_mod_p,
    snf,
    snf_diagonal,
    solve_mod,
    solve_mod_many,
    sparse_columns,
    sparse_rows,
)
from abext import intlin
from abext.abgroup import FinGenAb, invariant_factors_of
from abext.homext import ExtClass, classify, ext_group, realize
from dense_elimination import augment_moduli, det, identity, matmul, product, zeros, rank_mod_p as dense_rank_mod_p


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
    assert product(dec.U, M, dec.V).rows == dec.D.rows
    assert det(dec.U) in (1, -1) and det(dec.V) in (1, -1)
    # d1 is the gcd of all entries, d1*d2 = |det M|
    assert dec.diagonal()[0] == entries_gcd(M)
    assert dec.diagonal()[0] * dec.diagonal()[1] == abs(det(M))


def test_snf_empty_and_identity():
    dec = snf(zeros(0, 0))
    assert dec.D.shape == (0, 0)
    dec = snf(identity(3))
    assert dec.diagonal() == [1, 1, 1]


def test_snf_zero_rows_cols():
    dec = snf(zeros(3, 2))
    assert dec.D.rows == zeros(3, 2).rows
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
        assert product(dec.U, M, dec.V).rows == dec.D.rows
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
        vals = dense.apply(M, list(x))
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
            vals = dense.apply(M, got)
            for v, t, md in zip(vals, b, moduli):
                assert (v - t) % md == 0


def test_solve_plain():
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_mod(M, [4, 9], [0, 0]) == [2, 3]
    assert solve_mod(M, [1, 0], [0, 0]) is None


def _in_column_lattice(M, b, moduli):
    """Whether b lies in the span of M's columns and the m_i·e_i, by row HNF
    of the spanning vectors: an oracle that takes no SNF."""
    m = M.nrows
    gens = [list(c) for c in dense.transpose(M).rows] + [[md if k == i else 0 for k in range(m)] for i, md in enumerate(moduli) if md]
    H, _ = hnf(IntMatrix.from_rows(gens, ncols=m))
    v = list(b)
    for row in H.rows:
        piv = next((j for j, a in enumerate(row) if a), None)
        if piv is None:
            break
        if v[piv] % row[piv]:
            return False
        q = v[piv] // row[piv]
        v = [x - q * a for x, a in zip(v, row)]
    return not any(v)


def dense_answers(answers, n):
    """Sparse solutions over n unknowns as dense lists, None kept: each key
    must be an unknown and no stored value 0."""
    out = []
    for x in answers:
        if x is not None:
            assert all(j in range(n) and v != 0 for j, v in x.items()), (n, x)
            x = [x.get(j, 0) for j in range(n)]
        out.append(x)
    return out


def solve_many(M, rhs, moduli):
    """``solve_mod_many`` of an IntMatrix and dense right-hand sides, each passed sparse, answers made dense."""
    return dense_answers(solve_mod_many(sparse_columns(M.rows, M.ncols), sparse_rows(rhs), moduli), M.ncols)


def integer_solve(M, rhs, moduli):
    """The integer elimination's solve, which ``solve_mod_many`` takes when some modulus is 0, of any system,
    answers made dense."""
    return dense_answers(intlin._solve_integer(sparse_columns(M.rows, M.ncols), sparse_rows(rhs), moduli), M.ncols)


def assert_answers_like(M, rhs, moduli, got, want):
    """``got`` refuses the right-hand sides ``want`` refuses, and each of its answers solves its system."""
    assert [x is None for x in got] == [x is None for x in want], (M, moduli)
    for b, x in zip(rhs, got):
        if x is not None:
            assert all((v - t) % md == 0 if md else v == t for v, t, md in zip(dense.apply(M, x), b, moduli)), (M, b)


def test_batched_solves_match_one_at_a_time_solve_mod():
    rng = random.Random(17)
    answered = unsolvable = 0
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 3)
        M = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        if rng.random() < 0.3:  # rank-deficient: a row that is a sum of two others
            rows = [list(r) for r in M.rows] + [[a + b for a, b in zip(M.rows[0], M.rows[-1])]]
            M, m = IntMatrix.from_rows(rows, ncols=n), m + 1
        # free rows (0) among mixed moduli, so some right-hand sides have no solution
        moduli = [rng.choice([0, 0, 0, 2, 3, 4, 6, 9]) for _ in range(m)]
        rhs = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(8)]
        for b, x in zip(rhs, solve_many(M, rhs, moduli)):
            assert x == solve_mod(M, b, moduli)
            if x is None:
                unsolvable += 1
                assert not _in_column_lattice(M, b, moduli)
            else:
                answered += 1
                assert all((v - t) % md == 0 if md else v == t for v, t, md in zip(dense.apply(M, x), b, moduli))
    assert answered > 100 and unsolvable > 100
    # inconsistent right-hand sides give None, consistent ones the same vector
    M = IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]])
    got = solve_many(M, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 3, 5]], [4, 0, 5])
    assert got == [None, None, None, [1, 1]] and solve_mod(M, [2, 3, 5], [4, 0, 5]) == [1, 1]
    # shapes are checked where an IntMatrix comes in
    with pytest.raises(DimensionMismatch):
        solve_mod(IntMatrix.from_rows([[1, 2]]), [1], [3, 4])
    with pytest.raises(DimensionMismatch):
        solve_mod(M, [1, 2], [4, 0, 5])


def as_dense_loops(result, n, head=0, inverse=False):
    """``_snf``'s (diagonal, left, log, labels) as the dense loops' (diagonal,
    left, V columns): V built from the log forward, its columns cut to their
    first ``head`` coordinates, and with ``inverse`` the rows of V^-1 in
    place of ``left``.  V is built a second time one column at a time, the
    log applied last operation first, and V^-1's rows are undone from it."""
    diag, left, log, labels = result
    V = intlin._v_columns(log, labels)
    assert V == [intlin._v_apply(log, intlin._unit(n, c)) for c in labels]
    if inverse:
        left = [intlin._v_inverse_apply(log, intlin._unit(n, c)) for c in labels]
    return diag, left, [col[:head] for col in V] if head else []


def refuse(*_):
    raise AssertionError("a transform was formed")


def _solve_through_u(M, b, moduli):
    """The solve as it was before right-hand sides were carried: the SNF with
    both transforms of [M | diag(moduli)], then U·b, then V's first n rows."""
    dec = snf(augment_moduli(M, moduli))
    diag = dec.diagonal()
    c = dense.apply(dec.U, list(b))
    if any(ci % d if d else ci for ci, d in zip(c, diag)) or any(c[len(diag) :]):
        return None
    w = [ci // d if d else 0 for ci, d in zip(c, diag)]
    return [sum(a * x for a, x in zip(r, w) if a) for r in dec.V.rows[: M.ncols]]


def _carried_solve_cases():
    rng = random.Random(151)
    yield zeros(0, 3), []  # no equations: x = 0
    yield zeros(3, 0), [4, 0, 6]  # no unknowns: b must vanish
    yield zeros(4, 0), [0, 0, 0, 0]
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 6)
        M = _dense(rng, m, n)
        if rng.random() < 0.4:  # rank-deficient: a row that is a sum of two others
            rows = [list(r) for r in M.rows] + [[a + b for a, b in zip(M.rows[0], M.rows[-1])]]
            M, m = IntMatrix.from_rows(rows, ncols=n), m + 1
        pool = rng.choice(([0], [0, 0, 2, 3, 4, 6, 9], [2, 3, 4, 5, 6, 8, 9, 12]))  # exact, mixed, all nonzero
        yield M, [rng.choice(pool) for _ in range(m)]


def test_carried_solve_equals_the_solve_through_u(monkeypatch):
    real = intlin._snf
    widths = []

    def carried(rows, ncols, carry=None):
        widths.append({len(c) for c in carry or ()})
        return real(rows, ncols, carry)

    rng = random.Random(152)
    answers = []
    for M, moduli in _carried_solve_cases():
        m, n = M.shape
        rhs = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(6)]
        for _ in range(3):  # planted, so solvable
            x0 = [rng.randint(-5, 5) for _ in range(n)]
            rhs.append([v % md if md else v for v, md in zip(dense.apply(M, x0), moduli)])
        want = [_solve_through_u(M, b, moduli) for b in rhs]
        widths.clear()
        with monkeypatch.context() as patch:
            patch.setattr(intlin, "snf", refuse)
            patch.setattr(intlin, "hnf", refuse)
            patch.setattr(intlin, "_v_columns", refuse)
            patch.setattr(intlin, "_snf", carried)
            assert integer_solve(M, rhs, moduli) == want
            assert [integer_solve(M, [b], moduli)[0] for b in rhs] == want
            assert solve_many(M, [], moduli) == []
        # one elimination per call, each row carrying the right-hand sides and no row of U
        assert widths == [{len(rhs)} if m else set()] + [{1} if m else set()] * len(rhs)
        # with every modulus nonzero the torsion elimination answers instead
        got = solve_many(M, rhs, moduli)
        assert [solve_mod(M, b, moduli) for b in rhs] == got
        if all(moduli):
            assert_answers_like(M, rhs, moduli, got, want)
        else:
            assert got == want
        answers += want
    assert sum(x is None for x in answers) > 60 and sum(x is not None for x in answers) > 150


def kernel_basis(M):
    """The integer kernel of M: its preimage lattice with every modulus 0, as an IntMatrix of columns."""
    cols = preimage_lattice(sparse_columns(M.rows, M.ncols), [0] * M.nrows)
    return IntMatrix.from_columns([[col.get(i, 0) for i in range(M.ncols)] for col in cols], M.ncols)


def test_kernel_basis():
    M = IntMatrix.from_rows([[1, 2, 3]])
    K = kernel_basis(M)
    assert K.ncols == 2
    for j in range(K.ncols):
        col = [K.entry(i, j) for i in range(3)]
        assert sum(a * b for a, b in zip([1, 2, 3], col)) == 0


def test_kernel_basis_is_snfs_v_on_the_free_columns(monkeypatch):
    rng = random.Random(190)
    cases = [zeros(0, 3), zeros(3, 0), zeros(2, 4), identity(3)]
    cases += [_dense(rng, m, n) for m, n in ((1, 3), (3, 5), (5, 3), (6, 6))]
    cases += [_of_rank(rng, m, n, r) for m, n, r in ((6, 6, 3), (4, 7, 2), (7, 5, 4))]
    real = intlin._snf
    real_apply = intlin._v_apply
    built = []

    def uncarried(rows, ncols, carry=None):
        assert carry is None  # no U
        return real(rows, ncols, carry)

    def counted(log, y):
        built.append(len(y))
        return real_apply(log, y)

    for M in cases:
        # the kernel as it was taken before: V of the SNF with both transforms
        dec = snf(M)
        diag = dec.diagonal()
        want = dense.select_columns(dec.V, [j for j in range(M.ncols) if j >= len(diag) or diag[j] == 0])
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(intlin, "snf", None)
            patch.setattr(intlin, "_v_columns", refuse)  # no more of V than the kernel columns
            patch.setattr(intlin, "_snf", uncarried)
            patch.setattr(intlin, "_v_apply", counted)
            got = kernel_basis(M)
        assert got == want
        assert built == [M.ncols] * want.ncols
        assert dense.is_zero(matmul(M, got))


def test_hnf_properties():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        H, U = hnf(M)
        assert matmul(U, M).rows == H.rows
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


def test_rank_mod_p_pivots_scaled_when_first_used_match_dense_ranks():
    """An odd-p pivot is kept as read and scaled to 1 only when it first
    reduces a row.  Seeded systems for p = 3, 5, 7 whose rows crowd into a
    few last columns, so pivots with a lead other than 1 reduce many rows,
    beside rows with a last column of their own, whose pivots reduce none;
    the rows passed in are left as they were."""
    rng = random.Random(2606)
    for case in range(900):
        p = (3, 5, 7)[case % 3]
        n = rng.randint(2, 14)
        crowd = rng.randint(1, min(3, n))  # the last columns most rows end in
        dense = []
        for _ in range(rng.randint(1, 16)):
            row = [rng.randint(-2 * p, 2 * p) if rng.random() < 0.4 else 0 for _ in range(n)]
            if rng.random() < 0.7:
                row[n - rng.randint(1, crowd)] = rng.choice([x for x in range(2, p)] + [-1, p + 2])
            dense.append(row)
        sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
        before = [dict(r) for r in sparse]
        assert rank_mod_p(sparse, n, p) == dense_rank_mod_p(dense, n, p), (p, dense)
        assert sparse == before


def test_rank_mod_p_with_single_entry_rows_matches_dense_gauss_jordan():
    """Rows of one entry are peeled off as pivots when that entry is a unit mod
    p; the cross-check covers non-unit single entries, several single-entry
    rows in one column, negative entries, explicit zeros, and general rows
    that touch the peeled columns."""
    assert rank_mod_p([{0: 3}, {0: -3}, {0: 6}], 1, 3) == 0  # single entries that are not units
    assert rank_mod_p([{0: -1}, {0: 2}, {0: 1, 1: 0}, {1: 5}], 2, 5) == 1
    assert rank_mod_p([{0: 1}, {0: 1, 1: 2}, {1: 7, 0: 0}], 2, 7) == 2
    rng = random.Random(29)
    peeled = 0
    for case in range(800):
        p = (2, 3, 5, 7)[case % 4]
        n = rng.randint(1, 10)
        dense = []
        for _ in range(rng.randint(0, 12)):
            row = [0] * n
            if rng.random() < 0.6:  # a single entry: a unit, a multiple of p, or negative
                row[rng.randrange(min(n, 3))] = rng.choice((1, -1, p, -p, 2 * p, rng.randint(-3 * p, 3 * p)))
            else:
                for j in range(n):
                    if rng.random() < 0.4:
                        row[j] = rng.randint(-3 * p, 3 * p)
            dense.append(row)
        sparse = []
        for row in dense:
            cells = {j: v for j, v in enumerate(row) if v}
            if rng.random() < 0.2:  # an explicit zero, which makes a single entry a row of two
                cells = {rng.randrange(n): 0, **cells}
            sparse.append(cells)
        peeled += sum(1 for r in sparse if len(r) == 1 and next(iter(r.values())) % p)
        assert rank_mod_p(sparse, n, p) == dense_rank_mod_p(dense, n, p), (p, dense)
    assert peeled > 1000


def test_mul_matches_triple_loop():
    rng = random.Random(19)
    shapes = [(2, 0, 3), (0, 3, 2), (3, 2, 0), (1, 1, 1)] + [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for m, k, n in shapes:
        a = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(k)] for _ in range(m)]
        b = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)] for _ in range(k)]
        want = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        got = matmul(IntMatrix.from_rows(a, ncols=k), IntMatrix.from_rows(b, ncols=n))
        assert got.shape == (m, n)
        assert got.rows == tuple(tuple(r) for r in want)
    assert matmul(zeros(2, 0), zeros(0, 3)).rows == ((0, 0, 0), (0, 0, 0))


def test_matrix_json_roundtrip():
    M = IntMatrix.from_rows([[10 ** 30, -2], [0, 7]])
    assert IntMatrix.from_json(M.to_json()).rows == M.rows


def test_zero_row_matrices_keep_their_width():
    a, b = zeros(0, 3), zeros(0, 5)
    assert a.shape == (0, 3) and b.shape == (0, 5)
    assert a != b and hash(a) != hash(b)
    assert a == IntMatrix.from_rows([], ncols=3) == IntMatrix.from_columns([(), (), ()], 0)
    assert dense.transpose(a) == zeros(3, 0)
    assert matmul(zeros(2, 0), a).shape == (2, 3)


def test_from_columns():
    M = IntMatrix.from_columns([(1, 2), (3, 4), (5, 6)], 2)
    assert M.rows == ((1, 3, 5), (2, 4, 6))
    assert M == dense.transpose(dense.transpose(M))
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


# ---------------------------------------------------------------------------
# The least-remainder pass: oracles and bounds on transform size


def _dense(rng, m, n):
    return IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], ncols=n)


def _of_rank(rng, m, n, rank):
    """m x n of rank ``rank``: a random rank x rank core, then extra columns
    and rows, each the sum or difference of two earlier ones."""
    while True:
        core = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rank)]
        if det(IntMatrix.from_rows(core)):
            break
    cols = [list(c) for c in zip(*core)]
    while len(cols) < n:
        a, b, s = *rng.sample(range(rank), 2), rng.choice((-1, 1))
        cols.append([x + s * y for x, y in zip(cols[a], cols[b])])
    rows = [list(r) for r in zip(*cols)]
    while len(rows) < m:
        a, b, s = *rng.sample(range(rank), 2), rng.choice((-1, 1))
        rows.append([x + s * y for x, y in zip(rows[a], rows[b])])
    rng.shuffle(rows)
    return IntMatrix.from_rows(rows, ncols=n)


def _assert_smith(M, dec, max_digits=None):
    assert product(dec.U, M, dec.V).rows == dec.D.rows
    diag = dec.diagonal()
    assert all(d >= 0 for d in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    assert all(v == 0 for i, row in enumerate(dec.D.rows) for j, v in enumerate(row) if i != j)
    if max_digits is not None:
        bound = 10**max_digits
        assert all(abs(v) < bound for T in (dec.U, dec.V) for row in T.rows for v in row)


SHAPES = [(9, 9, None), (11, 11, 7), (12, 7, None), (7, 12, None), (12, 8, 5), (8, 12, 5)]


def _shape_matrices():
    rng = random.Random(2024)
    for m, n, rank in SHAPES:
        for _ in range(3):
            yield (_dense(rng, m, n) if rank is None else _of_rank(rng, m, n, rank)), rank


def test_snf_agrees_with_snf_diagonal_on_every_shape():
    for M, rank in _shape_matrices():
        dec = snf(M)
        _assert_smith(M, dec)
        assert det(dec.U) in (1, -1) and det(dec.V) in (1, -1)
        assert dec.diagonal() == snf_diagonal(sparse_rows(M.rows), M.ncols)
        if rank is not None:
            assert sum(1 for d in dec.diagonal() if d) == rank


def test_snf_tracking_v_inverse_gives_snf_v_and_its_exact_inverse():
    rng = random.Random(7)
    cases = [zeros(0, 4), zeros(3, 0), zeros(3, 3)]
    cases += [_dense(rng, m, n) for m, n in ((3, 8), (8, 3), (6, 6), (1, 5), (5, 1))]
    cases += [_of_rank(rng, m, n, r) for m, n, r in ((7, 7, 4), (9, 6, 3), (6, 9, 3))]
    cases += [M for M, _ in _shape_matrices()]
    for M in cases:
        n = M.ncols
        diag, vinv, vcols = as_dense_loops(_snf(sparse_rows(M.rows), n), n, n, inverse=True)
        assert (diag, vinv, vcols) == dense._snf(M.rows, n, head=n, inverse=True)
        dec = snf(M)
        assert diag == dec.diagonal()
        V = IntMatrix.from_columns(vcols, n)
        assert V == dec.V
        assert matmul(V, IntMatrix.from_rows(vinv, ncols=n)).rows == identity(n).rows


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    for M, _ in _shape_matrices():
        S = smith_normal_form(sympy.Matrix([list(r) for r in M.rows]), domain=sympy.ZZ)
        assert snf_diagonal(sparse_rows(M.rows), M.ncols) == [int(S[i, i]) for i in range(min(M.shape))]


@pytest.mark.parametrize("m, n, rank", [(40, 40, None), (40, 40, 30), (30, 40, None)])
def test_snf_transforms_stay_small_at_40_columns(m, n, rank):
    rng = random.Random(40)
    M = _dense(rng, m, n) if rank is None else _of_rank(rng, m, n, rank)
    dec = snf(M)
    _assert_smith(M, dec, max_digits=1000)
    assert sum(1 for d in dec.diagonal() if d) == (rank or min(m, n))


def test_snf_of_the_benchmarks_24x24_rank_18_shape():
    # The snf benchmark's construction, written out: the sign is drawn per
    # entry, so the matrix has full rank.  The transforms of the old Euclid
    # loops reached thousands of digits on it.
    rng = random.Random(4)
    core = [[rng.randint(-4, 4) for _ in range(18)] for _ in range(18)]
    cols = [list(c) for c in zip(*core)]
    while len(cols) < 24:
        a, b = rng.sample(range(18), 2)
        cols.append([x + rng.choice((-1, 1)) * y for x, y in zip(cols[a], cols[b])])
    rows = [list(r) for r in zip(*cols)]
    while len(rows) < 24:
        a, b = rng.sample(range(18), 2)
        rows.append([x + rng.choice((-1, 1)) * y for x, y in zip(rows[a], rows[b])])
    rng.shuffle(rows)
    M = IntMatrix.from_rows(rows)
    _assert_smith(M, snf(M), max_digits=1000)


def test_solve_mod_dense_16x16_with_a_modulus_on_every_row():
    rng = random.Random(16)
    M = _dense(rng, 16, 16)
    moduli = [rng.choice((2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(16)]
    planted = [rng.randint(-5, 5) for _ in range(16)]
    b = [v % md for v, md in zip(dense.apply(M, planted), moduli)]
    start = time.perf_counter()
    x = solve_mod(M, b, moduli)
    assert time.perf_counter() - start < 2.0
    assert x is not None
    assert all((v - t) % md == 0 for v, t, md in zip(dense.apply(M, x), b, moduli))


def test_hnf_is_unchanged_by_a_row_permutation():
    rng = random.Random(11)
    for M, _ in _shape_matrices():
        H, U = hnf(M)
        assert matmul(U, M).rows == H.rows and det(U) in (1, -1)
        order = list(range(M.nrows))
        rng.shuffle(order)
        assert hnf(dense.select_rows(M, order))[0] == H


# ---------------------------------------------------------------------------
# The elimination walks nonzero cells only: equal to the dense loops


def _twisted_presentation(rng, nb, na):
    """A torsion presentation shaped like ``realize``'s core, rows and columns
    permuted: diag(B's moduli) on B's columns, then per A-generator a row of
    twists on B's columns and A's modulus on its own column.  Coprime moduli
    (2 against 3) make a pivot that does not divide its block, so the
    divisibility fix-up runs."""
    bmods = [rng.choice((2, 3, 4, 6, 8, 9)) for _ in range(nb)]
    amods = [rng.choice((2, 3, 4, 5, 9)) for _ in range(na)]
    rows = [[b if k == i else 0 for k in range(nb)] + [0] * na for i, b in enumerate(bmods)]
    for j, d in enumerate(amods):
        twist = [-rng.randrange(b) if rng.random() < 0.5 else 0 for b in bmods]
        rows.append(twist + [d if t == j else 0 for t in range(na)])
    order = list(range(nb + na))
    rng.shuffle(order)
    rng.shuffle(rows)
    return IntMatrix.from_rows([[row[k] for k in order] for row in rows], ncols=nb + na)


def _oracle_matrices():
    rng = random.Random(17)
    yield from (zeros(m, n) for m, n in ((0, 0), (0, 3), (3, 0)))
    for m, n in ((20, 20), (20, 14), (14, 20), (1, 7), (7, 1)):
        yield _dense(rng, m, n)
    for _ in range(24):
        yield _dense(rng, rng.randint(1, 12), rng.randint(1, 12))
    for m, n, r in ((10, 10, 6), (12, 8, 5), (8, 12, 5), (6, 6, 2)):
        yield _of_rank(rng, m, n, r)
    for _ in range(24):
        yield _twisted_presentation(rng, rng.randint(1, 6), rng.randint(0, 6))
    yield IntMatrix.from_rows([[0, 3], [2, 0]])
    for _ in range(6):
        M = IntMatrix.from_rows([[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(8)] for _ in range(6)])
        yield augment_moduli(M, [rng.choice((0, 2, 3, 4, 6, 9)) for _ in range(6)])
    # negative pivots: every least entry negative
    yield IntMatrix.from_rows([[-2, 4, 0], [6, -3, 0], [0, 0, -5]])
    yield dense.scale(_dense(rng, 9, 9), -1)
    yield dense.scale(_twisted_presentation(rng, 4, 3), -1)


def test_nonzero_cell_elimination_equals_the_dense_loops():
    rng = random.Random(1998)
    for M in _oracle_matrices():
        m, n = M.shape
        rows = sparse_rows(M.rows)
        for carry in ("identity", "rhs", None):
            block = {"identity": intlin._identity(m), "rhs": _dense(rng, m, 3).rows, None: None}[carry]
            carried = None if block is None else [list(r) for r in block]
            got = intlin._snf(rows, n, carried)
            for head in sorted({0, n // 2, n}):
                want = dense._snf(M.rows, n, carried, head)
                assert as_dense_loops(got, n, head) == want, (M, carry, head)
        got = as_dense_loops(intlin._snf(rows, n), n, n, inverse=True)
        assert got == dense._snf(M.rows, n, head=n, inverse=True), M
        assert hnf(M) == dense.hnf(M), M
    # diag(2, 3) is not a Smith form: only the divisibility fix-up gives (1, 6)
    assert snf_diagonal([{1: 3}, {0: 2}], 2) == [1, 6]


def test_solve_read_back_equals_the_dense_read_back():
    rng = random.Random(2)
    for M in _oracle_matrices():
        m, n = M.shape
        moduli = [rng.choice((0, 2, 3, 4, 6, 9, 12)) for _ in range(m)]
        planted = [dense.apply(M, [rng.randint(-4, 4) for _ in range(n)]) for _ in range(4)]
        rhs = planted + [[rng.randint(-9, 9) for _ in range(m)] for _ in range(4)]
        want = dense.solve_mod_many(M, rhs, moduli)
        assert integer_solve(M, rhs, moduli) == want, M
        assert all(x is not None for x in want[:4])
        got = solve_many(M, rhs, moduli)
        assert_answers_like(M, rhs, moduli, got, want)
        assert got == want or all(moduli)


def test_a_solve_with_a_zero_modulus_forms_no_v(monkeypatch):
    # V never forms: each answer applies the log to its own w
    monkeypatch.setattr(intlin, "_v_columns", refuse)
    monkeypatch.setattr(intlin, "snf", refuse)
    monkeypatch.setattr(intlin, "hnf", refuse)
    rng = random.Random(34)
    for M in _oracle_matrices():
        m, n = M.shape
        for moduli in ([0] * m, [0] + [rng.choice((0, 2, 3, 4, 6, 9, 12)) for _ in range(m - 1)]):
            planted = [dense.apply(M, [rng.randint(-4, 4) for _ in range(n)]) for _ in range(3)]
            rhs = planted + [[rng.randint(-9, 9) for _ in range(m)] for _ in range(3)]
            want = dense.solve_mod_many(M, rhs, moduli[:m])
            assert integer_solve(M, rhs, moduli[:m]) == want, M
            assert solve_many(M, rhs, moduli[:m]) == want, M
            assert all(x is not None for x in want[:3])


# ---------------------------------------------------------------------------
# Sparse input: every form of the same rows gives the dense loops' results


def _with_zero_lines(rng, M):
    """M with an all-zero column and an all-zero row put in at random places."""
    j = rng.randint(0, M.ncols)
    rows = [list(r[:j]) + [0] + list(r[j:]) for r in M.rows]
    rows.insert(rng.randint(0, len(rows)), [0] * (M.ncols + 1))
    return IntMatrix.from_rows(rows, ncols=M.ncols + 1)


def _contract_matrices():
    rng = random.Random(31)
    yield from (zeros(m, n) for m, n in ((0, 0), (0, 3), (3, 0), (2, 2)))
    for _ in range(12):
        M = _dense(rng, rng.randint(1, 6), rng.randint(1, 6))
        yield M
        yield _with_zero_lines(rng, M)
    for _ in range(6):
        yield _with_zero_lines(rng, _twisted_presentation(rng, rng.randint(1, 4), rng.randint(0, 3)))


def test_sparse_input_gives_the_dense_loops_results():
    rng = random.Random(32)
    for M in _contract_matrices():
        m, n = M.shape
        carry = [list(r) for r in _dense(rng, m, 2).rows]
        want = dense._snf(M.rows, n, carry, n)
        want_inverse = dense._snf(M.rows, n, head=n, inverse=True)
        for rows in dense.sparse_forms(rng, M.rows):
            assert as_dense_loops(_snf(rows, n, carry), n, n) == want, (M, rows)
            assert as_dense_loops(_snf(rows, n), n, n, inverse=True) == want_inverse, (M, rows)
            assert snf_diagonal(rows, n) == want[0], (M, rows)
        moduli = [rng.choice((0, 2, 3, 4, 6, 9)) for _ in range(m)]
        planted = [dense.apply(M, [rng.randint(-4, 4) for _ in range(n)]) for _ in range(2)]
        rhs = planted + [[rng.randint(-9, 9) for _ in range(m)] for _ in range(3)]
        want = dense.solve_mod_many(M, rhs, moduli)
        got = solve_many(M, rhs, moduli)
        assert_answers_like(M, rhs, moduli, got, want)
        forms = zip(dense.sparse_forms(rng, dense.transpose(M).rows), dense.sparse_forms(rng, rhs))
        for cols, sparse_rhs in forms:
            assert dense_answers(intlin._solve_integer(cols, sparse_rhs, moduli), n) == want, (M, cols, sparse_rhs)
            assert dense_answers(solve_mod_many(cols, sparse_rhs, moduli), n) == got, (M, cols, sparse_rhs)


# ---------------------------------------------------------------------------
# Torsion systems: one elimination per prime, against the integer SNF


def _torsion_systems():
    """Seeded (relations, column moduli), every modulus nonzero: rank-deficient,
    mixed-prime (2-, 3- and 5-parts), permutation-like, repeated moduli, and
    unit-only columns (every entry ±1, or the modulus 1)."""
    rng = random.Random(2501)
    mixed = (2, 3, 4, 5, 6, 9, 10, 12, 15, 25, 30, 60)

    def relations(m, n, entries=range(-9, 10)):
        return [{j: rng.choice(entries) for j in range(n) if rng.random() < 0.6} for _ in range(m)]

    for _ in range(12):  # rank-deficient: a relation that is the sum of two others
        n = rng.randint(2, 6)
        rows = relations(rng.randint(2, 5), n)
        rows.append({j: rows[0].get(j, 0) + rows[-1].get(j, 0) for j in range(n)})
        yield rows, [rng.choice(mixed) for _ in range(n)]
    for _ in range(12):  # mixed-prime
        n = rng.randint(1, 6)
        yield relations(rng.randint(0, 6), n), [2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 2) for _ in range(n)]
    for _ in range(8):  # permutation-like: a unit or a prime power per row, columns permuted
        n = rng.randint(1, 7)
        order = list(range(n))
        rng.shuffle(order)
        rows = [{order[i]: rng.choice((1, -1, 2, 3, 4, 9)), order[(i + 1) % n]: rng.choice((0, 0, 2, 6))} for i in range(n)]
        yield rows, [rng.choice((4, 8, 9, 12, 36)) for _ in range(n)]
    for _ in range(8):  # repeated moduli
        n = rng.randint(2, 7)
        yield relations(rng.randint(1, 5), n), [rng.choice((6, 12))] * n
    for _ in range(8):  # unit-only columns: column 0 all ±1, column 1 of modulus 1
        n = rng.randint(2, 6)
        rows = relations(rng.randint(1, 5), n)
        for row in rows:
            row[0] = rng.choice((1, -1))
        yield rows, [rng.choice(mixed), 1] + [rng.choice(mixed) for _ in range(n - 2)]
    yield [], [4, 6]  # no relation: the moduli alone
    yield [{0: 2, 1: 3}], [12, 18]


def _image(place, vec):
    out = {}
    for k, x in vec.items():
        for s, y in place[k].items():
            out[s] = out.get(s, 0) + x * y
    return out


def test_torsion_quotient_regroups_to_the_integer_smith_diagonal():
    for rels, moduli in _torsion_systems():
        n = len(moduli)
        mods, place, lift = intlin.torsion_quotient(rels, moduli)
        assert all(len(intlin._prime_parts(q)) == 1 for q in mods), mods
        presentation = [{k: m} for k, m in enumerate(moduli)] + rels
        want = [d for d in _snf([dict(r) for r in presentation], n)[0] if d != 1]
        dense_rows = [[r.get(j, 0) for j in range(n)] for r in presentation]
        assert want == [d for d in dense._snf(dense_rows, n)[0] if d != 1]
        assert list(invariant_factors_of(mods)) == want, (rels, moduli)
        # every relation places to 0, and each lift places to its own unit vector
        for rel in presentation:
            assert all(x % mods[s] == 0 for s, x in _image(place, rel).items()), (rels, moduli)
        for s, vec in enumerate(lift):
            got = _image(place, vec)
            assert all((x - (t == s)) % mods[t] == 0 for t, x in got.items()), (rels, moduli, s)
            assert got.get(s, 0) % mods[s] == 1


def test_torsion_solve_answers_as_the_integer_path():
    # M^T y ≡ b mod the moduli, M's rows the relations: b is solvable iff it
    # places to 0 in the torsion quotient, a third oracle beside the two paths.
    rng = random.Random(2502)
    answered = refused = 0
    for rels, moduli in _torsion_systems():
        n = len(moduli)
        planted = [{j: sum(y * r.get(j, 0) for y, r in zip(ys, rels)) for j in range(n)} for ys in
                   ([rng.randint(-5, 5) for _ in rels] for _ in range(3))]
        rhs = planted + [{j: b.get(j, 0) + (j == k) for j in range(n)} for b, k in zip(planted, range(n))]
        rhs += [{j: rng.randint(-9, 9) for j in range(n)} for _ in range(3)]
        got = dense_answers(solve_mod_many(rels, rhs, moduli), len(rels))
        want = dense_answers(intlin._solve_integer(rels, rhs, moduli), len(rels))
        mods, place, _ = intlin.torsion_quotient(rels, moduli)
        assert [x is None for x in got] == [x is None for x in want], (rels, moduli)
        for t, (b, x) in enumerate(zip(rhs, got)):
            zero = all(v % mods[s] == 0 for s, v in _image(place, b).items())
            assert (x is not None) == zero, (rels, moduli, b)
            if t < len(planted):
                assert x is not None
            if x is None:
                refused += 1
                continue
            answered += 1
            assert len(x) == len(rels)
            for j, m in enumerate(moduli):
                assert (sum(y * r.get(j, 0) for y, r in zip(x, rels)) - b.get(j, 0)) % m == 0, (rels, moduli, b)
    assert answered > 150 and refused > 60


def test_classify_inverts_realize_on_seeded_finite_classes():
    rng = random.Random(2503)
    groups = [(2,), (4,), (6,), (2, 2), (2, 6), (3, 9), (2, 4, 8), (6, 30), (5, 25), (2, 2, 4)]
    for _ in range(60):
        A, B = (FinGenAb(0, rng.choice(groups)) for _ in range(2))
        c = ExtClass(A, B, tuple(rng.randrange(g) for g in ext_group(A, B).piece_mods))
        s = realize(c)
        assert s.middle.order() == A.order() * B.order()
        assert classify(s) == c, c
