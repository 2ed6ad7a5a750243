"""The benchmark's own arithmetic: every expected value is computed here.

Nothing in this module imports abext.  Groups are plain pairs
``(rank, factors)`` with ``factors`` the invariant factors in ascending
divisibility order, exactly the canonical form abext promises.
"""

from __future__ import annotations

import math
from operator import mul

LOG10_2 = math.log10(2)


def prime_power_parts(n: int) -> list:
    """[(p, p**e), ...] for n >= 1, by trial division (inputs are small)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def canonical(rank: int, orders) -> tuple:
    """Canonical form of Z^rank ⊕ ⊕ Z(n) over the given cyclic orders.

    Order 0 is a free summand and order 1 is dropped.  The invariant factors
    are rebuilt from prime-power parts: the i-th largest power of every prime
    multiplies into the i-th largest factor.
    """
    per_prime = {}
    for n in orders:
        if n == 0:
            rank += 1
        elif n > 1:
            for p, q in prime_power_parts(n):
                per_prime.setdefault(p, []).append(q)
    for qs in per_prime.values():
        qs.sort(reverse=True)
    depth = max((len(qs) for qs in per_prime.values()), default=0)
    factors = []
    for i in range(depth):
        f = 1
        for qs in per_prime.values():
            if i < len(qs):
                f *= qs[i]
        factors.append(f)
    return rank, tuple(sorted(factors))


def moduli(group) -> tuple:
    rank, factors = group
    return tuple(factors) + (0,) * rank


def order(group):
    rank, factors = group
    return None if rank else math.prod(factors)


def hom(A, B) -> tuple:
    """Hom(A, B) = ⊕ over generator pairs: Z, Z(b), 0 or Z(gcd(a, b))."""
    pieces = []
    for a in moduli(A):
        for b in moduli(B):
            if a == 0:
                pieces.append(b)
            elif b:
                pieces.append(math.gcd(a, b))
    return canonical(0, pieces)


def ext_pieces(A, B) -> list:
    """Slot orders of Ext^1(A, B) = ⊕_j B/d_j B, with Ext(Z(d), Z) = Z(d)."""
    return [math.gcd(d, m) if m else d for d in A[1] for m in moduli(B)]


def ext(A, B) -> tuple:
    return canonical(0, ext_pieces(A, B))


def ext_order(A, B) -> int:
    return math.prod(ext_pieces(A, B))


def power(B, n: int) -> tuple:
    """B^(n): the factors of B repeated n times, still a divisibility chain."""
    rank, factors = B
    return rank * n, tuple(sorted(factors * n))


def matmul(A, B) -> list:
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
            ri[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1] if n else 1


def decimal_digits(x: int) -> int:
    """Decimal digits of |x| without str(), which refuses ints over 4300 digits."""
    x = abs(x)
    if x < 10:
        return 1
    d = int((x.bit_length() - 1) * LOG10_2)  # floor(log10 x), up to float rounding
    while 10 ** d > x:
        d -= 1
    while 10 ** (d + 1) <= x:
        d += 1
    return d + 1


def max_abs(*matrices) -> int:
    return max((abs(v) for m in matrices for row in m for v in row), default=0)


def composite_is_zero(g_rows, f_rows, target_moduli) -> bool:
    """Whether g∘f vanishes modulo the relations of g's target.

    Builds one column of f at a time, so checking a certificate adds little
    to the run's peak memory.
    """
    for j in range(len(f_rows[0]) if f_rows else 0):
        col = [r[j] for r in f_rows]
        for row, m in zip(g_rows, target_moduli):
            v = sum(map(mul, row, col))
            if (v % m if m else v):
                return False
    return True


def is_smith_diagonal(D) -> bool:
    """Diagonal, non-negative, and each entry divides the next."""
    diag = []
    for i, row in enumerate(D):
        for j, v in enumerate(row):
            if i != j and v:
                return False
        if i < len(row):
            diag.append(row[i])
    if any(d < 0 for d in diag):
        return False
    return all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))


def is_hermite(H) -> bool:
    """Row staircase with positive pivots and entries above each pivot in [0, pivot)."""
    last = -1
    pivots = []
    for r, row in enumerate(H):
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            if any(any(rest) for rest in H[r:]):
                return False
            break
        if lead <= last or row[lead] <= 0:
            return False
        pivots.append((r, lead))
        last = lead
    return all(0 <= H[i][c] < H[r][c] for r, c in pivots for i in range(r))


# ---------------------------------------------------------------------------
# Torsion expressions: the grammar of the classifier, evaluated independently.


def torsion_terms(text: str) -> list:
    """[(kind, p, k, mult)] with kind in Cyclic/Prufer/UnboundedFamily/AllPrimesCyclic.

    Only parses the expressions this benchmark writes itself: terms joined by
    '+', each one of Z(n), Z(p^k), Z(p^inf), U(p) or W, with an optional
    '^m' or '^inf' multiplicity.  ``mult`` is None for inf.
    """
    out = []
    for term in text.split("+"):
        term = term.strip()
        mult = 1
        if term.endswith(")") or term == "W":
            body = term
        else:
            body, _, m = term.rpartition("^")
            mult = None if m == "inf" else int(m)
        if body == "W":
            out.append(("AllPrimesCyclic", None, None, mult))
        elif body.startswith("U("):
            out.append(("UnboundedFamily", int(body[2:-1]), None, mult))
        else:
            inner = body[2:-1]
            if "^" in inner:
                p, _, k = inner.partition("^")
                if k == "inf":
                    out.append(("Prufer", int(p), None, mult))
                else:
                    out.append(("Cyclic", int(p), int(k), mult))
            else:
                for p, q in prime_power_parts(int(inner)):
                    k = 0
                    while q > 1:
                        q //= p
                        k += 1
                    out.append(("Cyclic", p, k, mult))
    return out


def torsion_verdicts(text: str):
    """(universal_TZ, cotorsion, cotorsion_bound) by the paper's criteria.

    Universal exactly when no reduced p-component is unbounded (no U(p));
    cotorsion when, in addition, one bound serves every prime (no W).  The
    bound is the lcm of the cyclic orders.
    """
    terms = torsion_terms(text)
    kinds = {t[0] for t in terms}
    universal = "UnboundedFamily" not in kinds
    cotorsion = universal and "AllPrimesCyclic" not in kinds
    bound = None
    if cotorsion:
        bound = 1
        for kind, p, k, _ in terms:
            if kind == "Cyclic":
                bound = math.lcm(bound, p ** k)
    return universal, cotorsion, bound


_KIND_RANK = {"Cyclic": 0, "Prufer": 1, "UnboundedFamily": 2, "AllPrimesCyclic": 3}


def torsion_normal_form(text: str) -> list:
    """Merged, sorted [(kind, p, k, mult)]: equal atoms add multiplicities."""
    merged = {}
    for kind, p, k, mult in torsion_terms(text):
        key = (kind, p, k)
        if key in merged:
            old = merged[key]
            merged[key] = None if old is None or mult is None else old + mult
        else:
            merged[key] = mult
    ordered = sorted(merged.items(), key=lambda kv: (_KIND_RANK[kv[0][0]], kv[0][1] or 0, kv[0][2] or 0))
    return [(kind, p, k, mult) for (kind, p, k), mult in ordered]
