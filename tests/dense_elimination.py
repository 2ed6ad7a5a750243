"""The dense elimination loops of ``abext.intlin``, kept as a test oracle.

``_sweep``, ``_snf`` and ``hnf`` below are the loops that visit every cell of
the rows they update, zeros included, and ``solve_mod_many`` reads its
solutions back over every cell of V's columns; ``abext.intlin`` walks only the nonzero
support of the row or column it subtracts, with the same pivots, quotients and
swaps.  ``test_intlin.py`` asserts that both give equal values.
Do not edit these loops to follow a change in ``intlin``: they are the
reference that change is checked against.  They take dense rows, as
``intlin`` did before its eliminations took sparse ones.

``canonicalize`` is ``abext.abgroup.canonicalize`` as it read dense rows,
with its SNF from the loops here.  ``sparse_forms`` writes dense rows as the
sparse rows an elimination now takes, in each form its contract allows.

``rank_mod_p`` is Gauss-Jordan over F_p on dense rows, the reference for
``intlin.rank_mod_p``.

The dense matrix arithmetic at the end (products, determinants, transposes
and the like) is what the tests check identities such as U·M·V = D with;
``abext`` itself multiplies no dense matrices.
"""

import math
from itertools import compress

from abext.abgroup import FinGenAb, _diagonal_quotient
from abext.intlin import DimensionMismatch, IntMatrix


def _sweep(a, t, c):
    """Least-remainder pass: clear column c below row t by row operations."""
    while True:
        at = a[t]
        p = at[c]
        best = least = 0
        for i, ai in enumerate(a[t + 1 :], t + 1):
            x = ai[c]
            if x:
                q = (2 * x + p) // (2 * p)
                if q:
                    for k in range(c, len(ai)):
                        ai[k] -= q * at[k]
                    x -= q * p
                if x and (not best or abs(x) < least):
                    best, least = i, abs(x)
        if not best:
            return
        a[t], a[best] = a[best], a[t]


def _identity(n, width=None):
    width = n if width is None else width
    return [[0] * i + [1] + [0] * (width - i - 1) if i < width else [0] * width for i in range(n)]


def _swap_first(j, a, W, Z):
    for row in a:
        row[0], row[j] = row[j], row[0]
    for T in (W, Z):
        if T:
            T[0], T[j] = T[j], T[0]


def _snf(rows, n, carry=None, head=0, inverse=False):
    """(diagonal, left, V columns), as ``abext.intlin._snf``."""
    m = len(rows)
    a = [list(r) + c for r, c in zip(rows, carry)] if carry is not None else [list(r) for r in rows]
    W = _identity(n, head) if head else []
    Z = _identity(n) if inverse else []
    done_left, done_w, diag, k = [], [], [], min(m, n)
    while a and n:
        piv = None
        best = None
        for i, ai in enumerate(a):
            for j in range(n):
                v = ai[j]
                if v:
                    av = abs(v)
                    if best is None or av < best:
                        best = av
                        piv = (i, j)
                        if av == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        a[0], a[pi] = a[pi], a[0]
        if pj:
            _swap_first(pj, a, W, Z)
        while True:
            _sweep(a, 0, 0)
            a0 = a[0]
            p = a0[0]
            best = least = 0
            for j in range(1, n):
                x = a0[j]
                if x:
                    q = (2 * x + p) // (2 * p)
                    if q:
                        x -= q * p
                        a0[j] = x
                        if W:
                            wj, w0 = W[j], W[0]
                            for col in range(len(wj)):
                                wj[col] -= q * w0[col]
                        if Z:
                            zj, z0 = Z[j], Z[0]
                            for col in range(len(zj)):
                                z0[col] += q * zj[col]
                    if x and (not best or abs(x) < least):
                        best, least = j, abs(x)
            if best:
                _swap_first(best, a, W, Z)
                continue
            bad = abs(p) != 1 and next((i for i, row in enumerate(a) for x in row[1:n] if x % p), 0)
            if not bad:
                break
            a[0] = [x + y for x, y in zip(a0, a[bad])]
        if a[0][0] < 0:
            a[0] = [-x for x in a[0]]
        diag.append(a[0][0])
        if carry is not None:
            done_left.append(a[0][n:])
        if W:
            done_w.append(W.pop(0))
        if Z:
            done_left.append(Z.pop(0))
        a = [row[1:] for row in a[1:]]
        n -= 1
    if inverse:
        done_left += Z
    elif carry is not None:
        done_left += [row[n:] for row in a]
    return diag + [0] * (k - len(diag)), done_left, done_w + W


def hnf(M: IntMatrix):
    """(H, U) with H = U·M, as ``abext.intlin.hnf``."""
    m, n = M.shape
    a = [list(r) + u for r, u in zip(M.rows, _identity(m))]
    r = 0
    for c in range(n):
        i0 = next((i for i in range(r, m) if a[i][c]), None)
        if i0 is None:
            continue
        a[r], a[i0] = a[i0], a[r]
        _sweep(a, r, c)
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                ai, ar = a[i], a[r]
                for k in range(c, len(ai)):
                    ai[k] -= q * ar[k]
        r += 1
    return IntMatrix.from_rows([row[:n] for row in a], ncols=n), IntMatrix.from_rows([row[n:] for row in a], ncols=m)


def solve_mod_many(M: IntMatrix, rhs, moduli):
    """One solution of M x ≡ b mod the moduli for each b, or None, as ``abext.intlin.solve_mod_many``
    answers it but as a dense list."""
    m, n = M.shape
    if not rhs:
        return []
    aug = augment_moduli(M, moduli)
    carry = [list(col) for col in zip(*rhs)] if m else None
    diag, left, W = _snf(aug.rows, aug.ncols, carry=carry, head=n)
    out = []
    for t in range(len(rhs)):
        c = [row[t] for row in left]
        if any(ci % d if d else ci for ci, d in zip(c, diag)) or any(c[len(diag) :]):
            out.append(None)
            continue
        x = [0] * n
        for ci, d, col in zip(c, diag, W):
            if ci:
                w = ci // d
                for i, v in enumerate(col):
                    if v:
                        x[i] += w * v
        out.append(x)
    return out


def canonicalize(presentation: IntMatrix):
    """(group, place, lift) of Z^n modulo the rows of ``presentation``, as ``abext.abgroup.canonicalize``."""
    n = presentation.ncols
    rows = [r for r in presentation.rows if any(r)]
    col_mod = [0] * n
    for r in rows:
        nz = [(j, v) for j, v in enumerate(r) if v]
        if len(nz) != 1:
            break
        j, v = nz[0]
        col_mod[j] = math.gcd(col_mod[j], v)
    else:
        return _diagonal_quotient(col_mod)
    diag, vinv, vcols = _snf(rows, n, head=n, inverse=True)
    torsion = [i for i, d in enumerate(diag) if d > 1]
    free = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
    kept = torsion + free
    group = FinGenAb(len(free), tuple(diag[i] for i in torsion))
    place = [{k: vcols[c][i] for k, c in enumerate(kept) if vcols[c][i]} for i in range(n)]
    return group, place, [{i: x for i, x in enumerate(vinv[c]) if x} for c in kept]


def sparse_forms(rng, rows):
    """The dense ``rows`` as sparse rows {column: entry} in four forms: zeros
    left out (an all-zero row an empty dict); every cell, zeros explicit, keys
    descending; and twice some zeros explicit, keys shuffled."""
    yield [{j: v for j, v in enumerate(r) if v} for r in rows]
    yield [dict(reversed(list(enumerate(r)))) for r in rows]
    for _ in range(2):
        forms = []
        for r in rows:
            cells = [(j, v) for j, v in enumerate(r) if v or rng.random() < 0.5]
            rng.shuffle(cells)
            forms.append(dict(cells))
        yield forms


# ---------------------------------------------------------------------------
# Dense matrix arithmetic on IntMatrix


def rank_mod_p(rows, ncols, p):
    """Gauss-Jordan over F_p on dense rows: the reference for ``intlin.rank_mod_p``."""
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


def zeros(nrows: int, ncols: int) -> IntMatrix:
    return IntMatrix(((0,) * ncols,) * nrows, ncols)


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)


def matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """A·B, visiting only the nonzero cells of either factor."""
    if A.ncols != B.nrows:
        raise DimensionMismatch(f"cannot multiply {A.shape} by {B.shape}")
    ocols = B.ncols
    cols = tuple(range(ocols))
    sparse = [[(j, orow[j]) for j in compress(cols, orow)] for orow in B.rows]
    inner = tuple(range(A.ncols))
    out = []
    for r in A.rows:
        acc = [0] * ocols
        for k in compress(inner, r):
            a = r[k]
            for j, b in sparse[k]:
                acc[j] += a * b
        out.append(acc)
    return IntMatrix(tuple(out), ocols)


def product(*factors: IntMatrix) -> IntMatrix:
    out = factors[0]
    for M in factors[1:]:
        out = matmul(out, M)
    return out


def add(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    if A.shape != B.shape:
        raise DimensionMismatch("shape mismatch in addition")
    return IntMatrix(tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(A.rows, B.rows)), A.ncols)


def transpose(M: IntMatrix) -> IntMatrix:
    return IntMatrix.from_columns(M.rows, M.ncols)


def apply(M: IntMatrix, vec) -> list:
    if len(vec) != M.ncols:
        raise DimensionMismatch("vector length mismatch")
    return [sum(a * x for a, x in zip(r, vec) if a) for r in M.rows]


def scale(M: IntMatrix, c: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(c * a for a in r) for r in M.rows), M.ncols)


def select_columns(M: IntMatrix, idx) -> IntMatrix:
    return IntMatrix(tuple(tuple(r[j] for j in idx) for r in M.rows), len(idx))


def select_rows(M: IntMatrix, idx) -> IntMatrix:
    return IntMatrix(tuple(M.rows[i] for i in idx), M.ncols)


def is_zero(M: IntMatrix) -> bool:
    return not any(map(any, M.rows))


def det(M: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = M.nrows
    if n != M.ncols:
        raise DimensionMismatch("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in M.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def augment_moduli(M: IntMatrix, moduli) -> IntMatrix:
    """[M | diag(moduli)] without the columns of zero moduli."""
    slack = [i for i, m in enumerate(moduli) if m]
    rows = [list(row) + [moduli[i] if k == i else 0 for k in slack] for i, row in enumerate(M.rows)]
    return IntMatrix.from_rows(rows, ncols=M.ncols + len(slack))
