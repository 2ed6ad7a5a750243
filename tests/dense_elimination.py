"""The dense elimination loops of ``abext.intlin``, kept as a test oracle.

``_sweep``, ``_snf`` and ``hnf`` below are the loops that visit every cell of
the rows they update, zeros included, and ``solve_mod_many`` reads its
solutions back over every cell of V's columns; ``abext.intlin`` walks only the nonzero
support of the row or column it subtracts, with the same pivots, quotients and
swaps.  ``test_intlin.py`` asserts that both give equal values.
Do not edit these loops to follow a change in ``intlin``: they are the
reference that change is checked against.
"""

from abext.intlin import IntMatrix, augment_moduli


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
    """One solution of M x ≡ b mod the moduli for each b, or None, as ``abext.intlin.solve_mod_many``."""
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
