"""Exact integer linear algebra: Smith/Hermite normal forms and solvers.

Everything here works over plain Python ints (arbitrary precision).  This is
the computational bedrock for the group machinery: canonical forms come from
SNF, and morphism equations are solved as integer linear systems with
per-row cyclic moduli.  The primes of the moduli come from here too
(``prime_factors``, and ``_prime_parts`` cached per modulus), shared by the
per-prime elimination and by the groups' prime-by-prime regrouping.

Every elimination takes sparse rows, dicts {column: entry} in which zero
entries may be left out, the format ``rank_mod_p`` and the maps' sparse
columns already use; only ``_snf`` builds the dense block it works on.
Solutions come back sparse as well: ``solve_mod_many`` answers each
right-hand side with a dict {unknown: value} of its nonzeros, or None.
``IntMatrix``, an immutable dense matrix, is the boundary type: ``snf``,
``hnf`` and ``solve_mod`` take one, for JSON, the CLI and benchmarks, and
convert it once; ``solve_mod`` alone spreads its answer into a dense list.

No floats anywhere.  Unimodular transforms are exact, so ``U * M * V == D``
holds over Z; only ``D`` is canonical, ``U`` and ``V`` depend on pivot
choices (smallest absolute value, first in row-major order) and on the
least-remainder pass that clears each pivot's column and row, which keeps
their entries small.

Two eliminations, and the input picks one; there is no option.

- ``_local`` eliminates a torsion system, every modulus nonzero, one prime
  at a time over Z localized at p, on sparse rows, and CRT joins the primes.
  It serves ``solve_mod_many`` (and so ``solve_mod``, ``classify``, the
  cyclic check, ``find_equivalence`` and the pullback mediator) when every
  modulus is nonzero, ``torsion_quotient``, the finite core of ``realize``,
  and ``rank_mod_p`` (so every torsion mono and epi test, a mono test as
  the epi test of the map's dual), which counts its pivots with each column
  read modulo p.  Its coordinates hold modulo the moduli.
- ``_snf``, over Z, serves solves with a zero modulus and every exact
  contract: ``snf``, ``snf_diagonal``, preimage lattices and
  ``canonicalize``, whose lifts place to the identity over Z.  It computes
  only what its caller reads.  Each row carries a block through the row
  operations: the identity for ``snf``'s U, the right-hand sides for a
  solve (which so reads U·b without forming U), nothing for
  ``snf_diagonal``, ``canonicalize`` and preimage lattices.  V is kept in
  product form, as the log of its column operations, and each caller
  builds from the log only the part of V it reads: ``snf`` replays it
  forward on the identity for all of V; a solve applies it to each
  answer's w, last operation first, and never forms V; a preimage lattice
  builds its kernel columns alone, cut to the unknowns; ``canonicalize``
  builds V's columns and V^-1's rows on its kept coordinates alone, one of
  40 for a dense 40 x 40 presentation; ``snf_diagonal`` reads none of it.

``_snf`` pays for nonzero cells only.  A row operation walks the nonzero
support of the row it subtracts (listed at C speed by
``itertools.compress``, once per pass and only once a quotient is nonzero),
a column operation changes one cell and is logged, and the pivot search and
the divisibility check skip zeros at C speed.  The pivots, quotients and
swaps are those of the loops that visit every cell, so every result is the
same; the tests keep those loops as an oracle.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence

from .errors import BudgetExceeded

# Python prints no int of more than 4300 digits; 2^99999999999 would not even fit in memory.
MAX_BOUND_DIGITS = 4300
_UNPRINTABLE = 10**MAX_BOUND_DIGITS  # the least integer of more than MAX_BOUND_DIGITS digits
_UNPRINTABLE_BITS = _UNPRINTABLE.bit_length()
# The decimal strings JSON input may give an integer as: ASCII digits, no sign but '-', no '_' or spaces.
_DECIMAL = re.compile("-?[0-9]+").fullmatch


class DimensionMismatch(ValueError):
    """Raised when matrix/vector shapes are inconsistent."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major tuple of tuples: the boundary type.

    Cells must be ints: they are stored as given, and text becomes integers
    only where it enters, in ``from_json``.  ``ncols`` is part of the value,
    so matrices with no rows still differ by width; it is read off the rows
    when there are any.
    """

    rows: tuple
    ncols: Optional[int] = None

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        width = len(rows[0]) if rows else self.ncols or 0
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("ragged rows")
        if self.ncols not in (None, width):
            raise DimensionMismatch(f"rows have {width} columns, not {self.ncols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", width)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]], ncols: Optional[int] = None) -> "IntMatrix":
        return IntMatrix(tuple(rows), ncols)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        """The matrix whose j-th column is ``cols[j]``."""
        if any(len(c) != nrows for c in cols):
            raise DimensionMismatch("column length mismatch")
        return IntMatrix(tuple(zip(*cols)) if cols else ((),) * nrows, len(cols))

    @staticmethod
    def diagonal(entries: Sequence[int], nrows: Optional[int] = None, ncols: Optional[int] = None) -> "IntMatrix":
        k = len(entries)
        nrows = k if nrows is None else nrows
        ncols = k if ncols is None else ncols
        rows = [[0] * ncols for _ in range(nrows)]
        for i, d in enumerate(entries):
            rows[i][i] = d
        return IntMatrix(tuple(rows), ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def to_json(self) -> list:
        return [[json_str(a) for a in r] for r in self.rows]

    @staticmethod
    def from_json(data, ncols: Optional[int] = None) -> "IntMatrix":
        """The matrix of a JSON list of rows of integers (see ``json_int``).

        >>> IntMatrix.from_json([["-2", 3]]).rows
        ((-2, 3),)
        >>> IntMatrix.from_json([[1.5, 2]])
        Traceback (most recent call last):
        ...
        ValueError: expected an integer, got 1.5
        """
        return IntMatrix.from_rows([[json_int(x) for x in json_of(list, r)] for r in json_of(list, data)], ncols=ncols)


def json_int(value) -> int:
    """A JSON int (not a bool) or a decimal string, ``-?[0-9]+`` as in the
    expression grammar, as an int; anything else is a ValueError, and so is
    a string past int's 4,300-digit limit.

    >>> json_int("-12"), json_int(7)
    (-12, 7)
    >>> json_int("1_0")
    Traceback (most recent call last):
    ...
    ValueError: expected an integer, got '1_0'
    """
    if isinstance(value, str) and _DECIMAL(value) or isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def json_str(value: int) -> str:
    """``value`` as a decimal string; BudgetExceeded past MAX_BOUND_DIGITS digits.

    Every integer the CLI prints as a decimal string comes from here.  The bit length
    settles all but the integers of exactly ``_UNPRINTABLE_BITS`` bits,
    which are compared with 10^MAX_BOUND_DIGITS.

    >>> json_str(-12)
    '-12'
    >>> len(json_str(10**4300 - 1))
    4300
    >>> json_str(10**4300)
    Traceback (most recent call last):
    ...
    abext.errors.BudgetExceeded: an integer of more than 4300 digits cannot be printed
    """
    if value.bit_length() >= _UNPRINTABLE_BITS and abs(value) >= _UNPRINTABLE:
        raise BudgetExceeded(f"an integer of more than {MAX_BOUND_DIGITS} digits cannot be printed")
    return str(value)


def json_of(kind: type, value):
    """``value`` if it is a JSON ``list`` or ``dict``, else ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class SnfDecomposition:
    """U*M*V = D with U, V unimodular and D in Smith normal form."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list:
        n = min(self.D.nrows, self.D.ncols)
        return [self.D.entry(i, i) for i in range(n)]


def _sweep(a, t, c):
    """Least-remainder pass: clear column c below row t by row operations.

    With the pivot p at (t, c), a sweep takes from every row below t the
    nearest multiple of row t, leaving at most |p|/2, and the row with the
    least nonzero remainder becomes the pivot row of the next sweep, until
    none is left (after Havas–Majewski–Matthews 1998).  Rows from t on must
    be zero left of c; a row may carry its row of the transform on the right.

    A row operation walks only the nonzero cells of row t, which all lie at
    or right of c, listed once per sweep and only once some quotient is
    nonzero; subtracting a multiple of a zero changes nothing, so the result
    is that of the loop over every cell.
    """
    while True:
        at = a[t]
        p = at[c]
        cells = None
        best = least = 0
        for i, ai in enumerate(a[t + 1 :], t + 1):
            x = ai[c]
            if x:
                q = (2 * x + p) // (2 * p)
                if q:
                    if cells is None:
                        cells = list(compress(range(len(at)), at))
                    for k in cells:
                        ai[k] -= q * at[k]
                    x -= q * p
                if x and (not best or abs(x) < least):
                    best, least = i, abs(x)
        if not best:
            return
        a[t], a[best] = a[best], a[t]


def _unit(n, i):
    """e_i as a list of n entries."""
    e = [0] * n
    e[i] = 1
    return e


def _identity(n):
    """The rows of the n x n identity."""
    return [_unit(n, i) for i in range(n)]


def _swap_first(j, a, labels):
    """Swap column j of the block ``a`` into column 0, and with it the two columns' labels."""
    for row in a:
        row[0], row[j] = row[j], row[0]
    labels[0], labels[j] = labels[j], labels[0]


def _snf(rows, n, carry=None):
    """(diagonal, left, log, labels) of the Smith form U·M·V = D of the m x n
    matrix M whose rows are the sparse ``rows``, each a dict {column: entry}.

    ``carry`` gives each row a block that goes through the row operations
    with it, and ``left`` is U times that block: U itself when it is the
    identity, U·b for right-hand-side columns; None carries nothing.  V is
    not formed: each column of M is labelled by its index, a column swap
    swaps labels, and each column operation, column t minus q times column
    s, appends (t, s, q) to ``log``.  ``labels`` lists them in diagonal
    order, so V's k-th column is the product of the logged operations
    applied to e_{labels[k]}; ``_v_columns``, ``_v_apply`` and
    ``_v_inverse_apply`` build from the log what each caller reads.  ``a``
    is the block not yet diagonal, pivot at (0, 0), each row followed by
    its carried row.

    Cost: each row operation walks the nonzero cells of the row it
    subtracts (``_sweep``'s row t), a column operation changes one cell of
    row 0 and logs three numbers, and the pivot search and the divisibility
    check skip zeros at C speed, keeping the dense loops' pivots, quotients
    and swaps.  The block is the one dense copy of M, made here, and each
    pivot's row and column are deleted from it in place; every row handed
    back is sliced off it.
    """
    m = len(rows)
    a = [[0] * n for _ in rows]
    for row, r in zip(a, rows):
        for j, v in r.items():
            row[j] = v
    if carry is not None:
        for row, c in zip(a, carry):
            row += c
    labels = list(range(n))
    log, done, done_left, diag, k = [], [], [], [], min(m, n)
    while a and n:
        # Pivot: smallest nonzero absolute value in the block, first such
        # entry in row-major order.  Keeps coefficient growth down.
        cols = tuple(range(n))
        piv = None
        best = None
        for i, ai in enumerate(a):
            for j in compress(cols, ai):
                av = abs(ai[j])
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
            _swap_first(pj, a, labels)
        while True:
            _sweep(a, 0, 0)
            # Row 0 by column operations, one sweep of the same pass: column 0
            # is clear, so they change only a[0], and each is logged.  The
            # least remainder is swapped into column 0, and the column pass
            # clears it again.
            a0 = a[0]
            p = a0[0]
            s = labels[0]
            best = least = 0
            for j in compress(cols[1:], a0[1:n]):
                x = a0[j]
                q = (2 * x + p) // (2 * p)
                if q:
                    x -= q * p
                    a0[j] = x
                    log.append((labels[j], s, q))
                if x and (not best or abs(x) < least):
                    best, least = j, abs(x)
            if best:
                _swap_first(best, a, labels)
                continue
            # Divisibility fix-up: pivot must divide every trailing entry,
            # which a unit does, so only a larger pivot scans them, nonzero
            # ones only.
            rmod = p.__rmod__
            bad = abs(p) != 1 and next((i for i, row in enumerate(a) if any(map(rmod, filter(None, row[1:n])))), 0)
            if not bad:
                break
            a[0] = [x + y for x, y in zip(a0, a[bad])]
        if a[0][0] < 0:
            a[0] = [-x for x in a[0]]
        diag.append(a[0][0])
        if carry is not None:
            done_left.append(a[0][n:])
        done.append(labels.pop(0))
        del a[0]
        for row in a:
            del row[0]
        n -= 1
    if carry is not None:
        done_left += [row[n:] for row in a]
    return diag + [0] * (k - len(diag)), done_left, log, done + labels


def _v_columns(log, labels):
    """All of V, its columns (as lists) in diagonal order: ``_snf``'s log
    replayed forward on the identity, each operation walking the nonzero
    cells of its source column, listed once per run of one source."""
    n = len(labels)
    cols = _identity(n)
    last = cells = None
    for t, s, q in log:
        src = cols[s]
        if s != last:  # no operation of a run targets its source
            last, cells = s, list(compress(range(n), src))
        dst = cols[t]
        for i in cells:
            dst[i] -= q * src[i]
    return [cols[c] for c in labels]


def _v_apply(log, y):
    """V·y in place, y a list indexed by column label: ``_snf``'s log applied
    last operation first, each in O(1)."""
    for t, s, q in reversed(log):
        if y[t]:
            y[s] -= q * y[t]
    return y


def _v_inverse_apply(log, r):
    """r·V^-1 in place, r a list indexed by column label: each logged
    operation undone, last operation first, each in O(1)."""
    for t, s, q in reversed(log):
        if r[s]:
            r[t] += q * r[s]
    return r


def sparse_rows(rows: Iterable[Sequence[int]]) -> List[Dict[int, int]]:
    """Dense rows as the sparse rows {column: entry} every elimination takes, zeros left out."""
    return [dict(compress(enumerate(r), r)) for r in rows]


def sparse_columns(rows: Sequence[Sequence[int]], ncols: int) -> List[Dict[int, int]]:
    """The nonzero cells of the dense ``rows`` as ncols sparse columns {row: entry}."""
    cols: List[Dict[int, int]] = [{} for _ in range(ncols)]
    idx = tuple(range(ncols))
    for i, row in enumerate(rows):
        for j in compress(idx, row):
            cols[j][i] = row[j]
    return cols


def snf(M: IntMatrix) -> SnfDecomposition:
    """Smith normal form with transforms: U*M*V = D.

    D is diagonal with nonnegative entries satisfying D[i,i] | D[i+1,i+1].
    Deterministic for identical inputs.  Works for any shape including empty.
    """
    m, n = M.shape
    diag, U, log, labels = _snf(sparse_rows(M.rows), n, carry=_identity(m))
    D = IntMatrix.diagonal(diag, m, n)
    return SnfDecomposition(U=IntMatrix.from_rows(U, ncols=m), D=D, V=IntMatrix.from_columns(_v_columns(log, labels), n))


def snf_diagonal(rows: Sequence[Dict[int, int]], n: int) -> list:
    """Just the diagonal of the Smith form of the sparse ``rows`` of width n (no transform bookkeeping)."""
    return _snf(rows, n)[0]


def hnf(M: IntMatrix):
    """Row-style Hermite normal form: returns (H, U) with H = U*M.

    U unimodular; H is an upper staircase with positive pivots and entries
    above each pivot reduced to [0, pivot), each row above subtracting the
    pivot row on its nonzero cells only.
    """
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
        ar = a[r]
        p = ar[c]
        cells = None
        for ai in a[:r]:
            q = ai[c] // p
            if q:
                if cells is None:
                    cells = list(compress(range(len(ar)), ar))
                for k in cells:
                    ai[k] -= q * ar[k]
        r += 1
    return IntMatrix.from_rows([row[:n] for row in a], ncols=n), IntMatrix.from_rows([row[n:] for row in a], ncols=m)


# ---------------------------------------------------------------------------
# Primes


# Trial division stops at 2^16: every n < 2^32 is split by division alone,
# and a cofactor left past that is decided by Miller–Rabin.
_TRIAL_BOUND = 1 << 16
# Miller–Rabin on the first thirteen primes is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, Math. Comp.
# 86, 2017); the first twelve, 2..37, all pass 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _miller_rabin(n: int) -> bool:
    """Whether n, below ``_MR_EXACT_BELOW`` with no prime factor up to 2^16, is prime."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, e: int) -> int:
    """floor(n^(1/e)) for n, e >= 1 with a root below 2^1000.

    Newton's method from just above the root: the float estimate is within
    a relative 10^-12 of it, so a few steps settle it.
    """
    r = int(2 ** (math.log2(n) / e) * (1 + 1e-9)) + 1
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


# Pollard–Brent rho gives up after this many steps (two primes near 1.8·10^12 take 1.6·10^6).
_RHO_STEPS = 1 << 21


def _rho(n: int) -> Optional[int]:
    """A proper divisor of the composite n < ``_MR_EXACT_BELOW``, by Pollard–Brent
    rho on x^2 + c from 2 for c = 1, 2, ..., or None after ``_RHO_STEPS`` steps."""
    steps, c = 0, 0
    while steps < _RHO_STEPS:
        c, y, r, g = c + 1, 2, 1, 1
        while g == 1 and steps < _RHO_STEPS:
            x, q, steps = y, 1, steps + 2 * r
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):  # one gcd per 128 products
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                if (g := math.gcd(q, n)) != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: step through it one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


def _cofactor_primes(n: int) -> List[int]:
    """The distinct primes of n > 1 with no prime factor up to 2^16, ascending.

    Below ``_MR_EXACT_BELOW`` n is prime or split by ``_rho``.  Past it, or
    when rho gives up, n must be r^e for a prime 2^16 < r < ``_MR_EXACT_BELOW``
    (< 2^82), so only the e with 16e < bits(n) <= 82e are tried; any other n
    is refused with BudgetExceeded.
    """
    if n < _MR_EXACT_BELOW:
        if _miller_rabin(n):
            return [n]
        if d := _rho(n):
            return sorted(set(_cofactor_primes(d) + _cofactor_primes(n // d)))
    bits = n.bit_length()
    for e in range(max(1, bits // 82), bits // 16 + 1):
        r = _iroot(n, e)
        if r < _MR_EXACT_BELOW and r**e == n and _miller_rabin(r):
            return [r]
    raise BudgetExceeded(f"cannot factor a {bits}-bit cofactor with no prime factor up to 2^16")


def is_prime(n: int) -> bool:
    """Exact primality: trial division up to 2^16, then Miller–Rabin on the
    bases 2, 3, ..., 41, deterministic for n < 3.3·10^24.  A larger n with
    no prime factor up to 2^16 is refused with BudgetExceeded.

    >>> [n for n in range(30) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> is_prime(10**18 + 3), is_prime(10**18 + 1)
    (True, False)
    """
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        if p > _TRIAL_BOUND:
            if n >= _MR_EXACT_BELOW:
                raise BudgetExceeded(f"cannot decide whether a {n.bit_length()}-bit integer is prime")
            return _miller_rabin(n)
        p += 1 if p == 2 else 2
    return True


def prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n != 0, ascending.

    Trial division up to 2^16 splits off every small factor.  A cofactor left
    below 3.3·10^24, the exact range of ``is_prime``, is split by a bounded,
    deterministic Pollard–Brent rho; past it, or when rho gives up, it must be
    a power of one prime ``is_prime`` can decide, or is refused with BudgetExceeded.

    >>> prime_factors(-360), prime_factors(6 * (10**18 + 3) ** 2)
    ([2, 3, 5], [2, 3, 1000000000000000003])
    >>> prime_factors(70001 * 70003)
    [70001, 70003]
    """
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        elif p > _TRIAL_BOUND:
            return out + _cofactor_primes(n)
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=1024)
def _prime_parts(m: int):
    """(p, the p-part of m) for each prime p of m >= 1, ascending."""
    parts = []
    for p in prime_factors(m):
        q = p
        while not m % (q * p):
            q *= p
        parts.append((p, q))
    return tuple(parts)


def _tops(moduli: Sequence[int]):
    """(p, the largest power of p dividing a modulus) for each prime p of the
    nonzero ``moduli``, ascending; each distinct modulus is factored alone."""
    tops: Dict[int, int] = {}
    for m in set(moduli):
        for p, q in _prime_parts(m):
            if q > tops.get(p, 1):
                tops[p] = q
    return sorted(tops.items())


# ---------------------------------------------------------------------------
# Torsion systems: one elimination per prime


@lru_cache(maxsize=1024)  # a sum of thousands of cyclic groups has a few distinct (m, q)
def _idempotent(m: int, q: int) -> int:
    """The element of Z(m) that is 1 on the q-primary part and 0 on the rest."""
    r = m // q
    return r * pow(r, -1, q) % m


def _local(rows, qs, carry=None):
    """Eliminate the sparse ``rows`` over Z localized at a prime p, in place: the pivots.

    Column k is read modulo qs[k], a power of p; that is the relation
    qs[k]·e_k, kept implicit.  An entry x's p-power is gcd(x, max(qs)).
    Each pivot is an entry of least p-power, ties going to the fewest cells
    in its row times its column (Markowitz 1957), from a heap whose keys are
    refreshed only when popped; the rows on each column are kept as cells
    appear and vanish, so nothing is rescanned.  A least p-power divides
    every entry left, so each pivot clears its column by row operations
    alone, and ``carry`` (one sparse row {index: entry} per row, read
    modulo max(qs)) goes through them.

    Each pivot is (c, q, row, carried) with row made q at c by a unit.  Row
    by row this is a basis change: g = e_c + Σ_j (row[j] / q)·e_j has order
    q, and the other rows no longer meet e_c.  When qs[c] > q, qs[c]·e_c
    leaves the relation (qs[c] / q)·Σ_j row[j]·e_j on the columns left,
    added as a row (it carries nothing).  A pivoted row becomes None in
    ``rows``, and the rows left are zero by the end.
    """
    top = max(qs, default=1)
    gcd = math.gcd
    at: Dict[int, set] = {}
    for r, row in enumerate(rows):
        for c in row:
            if c in at:
                at[c].add(r)
            else:
                at[c] = {r}
    heap = [(gcd(x, top), (len(row) - 1) * (len(at[c]) - 1), r, c) for r, row in enumerate(rows) for c, x in row.items()]
    heapify(heap)
    pivots = []
    while heap:
        q, cost, r, c = heappop(heap)
        row = rows[r]
        x = row and row.get(c)
        if not x or gcd(x, top) != q:
            continue  # a cell since changed or pivoted
        now = (len(row) - 1) * (len(at[c]) - 1)
        if now > cost:
            heappush(heap, (q, now, r, c))
            continue
        rows[r] = None
        crow = carry[r] if carry else None
        if x != q:
            inv = pow(x // q, -1, top)
            row = {j: y * inv % qs[j] for j, y in row.items()}
            if crow:
                crow = {t: y * inv % top for t, y in crow.items()}
        for j in row:
            at[j].discard(r)
        for r2 in at.pop(c):
            row2 = rows[r2]
            f = row2.pop(c) // q
            for j, a in row.items():
                if j != c:
                    y = (row2.get(j, 0) - f * a) % qs[j]
                    if y:
                        if j not in row2:
                            at[j].add(r2)
                        row2[j] = y
                        heappush(heap, (gcd(y, top), (len(row2) - 1) * (len(at[j]) - 1), r2, j))
                    elif j in row2:
                        del row2[j]
                        at[j].discard(r2)
            if crow:
                c2 = carry[r2]
                for t, y in crow.items():
                    z = (c2.get(t, 0) - f * y) % top
                    if z:
                        c2[t] = z
                    else:
                        c2.pop(t, None)
        if qs[c] < top and len(row) > 1:
            s = qs[c] // q
            fill = {j: y for j, a in row.items() if j != c and (y := -s * a % qs[j])}
            for j, y in fill.items():
                at.setdefault(j, set()).add(len(rows))
                heappush(heap, (gcd(y, top), 0, len(rows), j))
            if fill:
                rows.append(fill)
        pivots.append((c, q, row, crow))
    return pivots


def torsion_quotient(relations: Sequence[Dict[int, int]], moduli: Sequence[int]):
    """The finite quotient of Z^n by the sparse ``relations`` and the moduli[k]·e_k,
    as prime-power cyclic summands: ``(summand moduli, place, lift)``.

    Every modulus must be nonzero (a multiple of the order of e_k).  Each
    prime p of their lcm L is eliminated apart by ``_local``, column k
    modulo the p-part of moduli[k]: a pivot of order q > 1 is a summand
    Z(q), and so is a column no relation touches.  ``place[k]`` is e_k on
    the summands and ``lift[s]`` the s-th summand's generator on the e_k,
    its p-part picked out by the CRT idempotent of L; placing a lift gives
    the unit vector modulo the summand moduli, and lifts hold modulo the
    moduli, not over Z.  ``cyclic_sum`` regroups the summands.
    """
    L = math.lcm(*moduli)
    mods: List[int] = []
    place: List[Dict[int, int]] = [{} for _ in moduli]
    lift: List[Dict[int, int]] = []
    for _, top in _tops(moduli):
        qs = moduli if top == L else [math.gcd(m, top) for m in moduli]
        rows = []
        for rel in relations:
            row = {}
            for c, x in rel.items():
                if x % qs[c]:
                    row[c] = x % qs[c]
            if row:
                rows.append(row)
        e = _idempotent(L, top)
        here: Dict[int, Dict[int, int]] = {}  # e_k on this prime's summands
        for c, q, row, _ in reversed(_local(rows, qs)):  # e_c = g − Σ_j (row[j] / q)·e_j
            vec: Dict[int, int] = {}
            if q > 1:
                vec[len(mods)] = 1
                mods.append(q)
                lift.append({j: e * (a // q) % moduli[j] for j, a in row.items()})
            for j, a in row.items():
                if j == c:
                    continue
                if j not in here:  # no later pivot took column j: its own summand
                    here[j] = {len(mods): 1}
                    mods.append(qs[j])
                    lift.append({j: e % moduli[j]})
                f = a // q
                for s, y in here[j].items():
                    z = (vec.get(s, 0) - f * y) % mods[s]
                    if z:
                        vec[s] = z
                    else:
                        vec.pop(s, None)
            here[c] = vec
        for c, q in enumerate(qs):
            if q > 1 and c not in here:  # a column no relation touches
                here[c] = {len(mods): 1}
                mods.append(q)
                lift.append({c: e % moduli[c]})
        for c, vec in here.items():
            place[c].update(vec)
    return mods, place, lift


def _solve_torsion(cols, rhs, moduli) -> List[Optional[Dict[int, int]]]:
    """``solve_mod_many`` with every modulus nonzero, one prime of their lcm L at a time.

    For p with p-part P of L, row i multiplied by P / (p-part of m_i) turns
    M x ≡ b into one system modulo P (rows p does not divide drop out);
    ``_local`` triangulates it carrying the right-hand sides, and a zero row
    must carry 0.  Back substitution, for all right-hand sides at once and
    free unknowns 0, sets x_c = t / q for each pivot q at c: every entry
    left of its row is a multiple of q, so b is solvable iff q divides each
    carried t.  The CRT idempotents of L join the primes' solutions: each
    prime's x_c is nonzero modulo P, so no joined entry is 0.
    """
    n = len(cols)
    eqs: List[Dict[int, int]] = [{} for _ in moduli]
    for j, col in enumerate(cols):
        for i, x in col.items():
            eqs[i][j] = x
    bs: List[Dict[int, int]] = [{} for _ in moduli]
    for t, b in enumerate(rhs):
        for i, x in b.items():
            bs[i][t] = x
    L = math.lcm(*moduli)
    bad, parts = set(), []
    for _, top in _tops(moduli):
        rows, carry = [], []
        for eq, b, m in zip(eqs, bs, moduli):
            s = top // math.gcd(m, top)
            if s < top:
                rows.append({j: y for j, x in eq.items() if (y := x * s % top)})
                carry.append({t: y for t, x in b.items() if (y := x * s % top)})
        pivots = _local(rows, [top] * n, carry)
        for row, b in zip(rows, carry):
            if row is not None:  # never pivoted, so zero
                bad.update(b)
        X: Dict[int, Dict[int, int]] = {}
        for c, q, row, crow in reversed(pivots):
            acc = dict(crow or ())
            for j, a in row.items():
                if j != c and j in X:  # a free unknown is 0
                    for t, y in X[j].items():
                        acc[t] = acc.get(t, 0) - a * y
            xc = {}
            for t, y in acc.items():
                y %= top
                if y % q:
                    bad.add(t)
                elif y:
                    xc[t] = y // q
            X[c] = xc
        parts.append((_idempotent(L, top), X))
    out: List[Optional[Dict[int, int]]] = [None if t in bad else {} for t in range(len(rhs))]
    for e, X in parts:
        for c, xc in X.items():
            for t, y in xc.items():
                x = out[t]
                if x is not None:
                    x[c] = (x.get(c, 0) + e * y) % L
    return out


# ---------------------------------------------------------------------------
# Solves and preimage lattices


def _augmented(cols: Sequence[Dict[int, int]], moduli: Sequence[int]):
    """The sparse rows of [M | diag(moduli)], zero moduli adding no column, and their width.

    M has the sparse columns ``cols`` and one row per modulus.  The column
    lattice of [M | diag(moduli)] is the image of M plus the relations
    m_i·e_i, so x ↦ M x taken modulo the moduli becomes a map of lattices.
    """
    rows: List[Dict[int, int]] = [{} for _ in moduli]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    width = len(cols)
    for row, m in zip(rows, moduli):
        if m:
            row[width] = m
            width += 1
    return rows, width


def preimage_lattice(cols: Sequence[Dict[int, int]], moduli: Sequence[int]) -> List[Dict[int, int]]:
    """Sparse vectors spanning {x : M x ≡ 0 componentwise mod the per-row moduli}.

    M has the sparse columns ``cols``; a modulus of 0 makes its row an exact
    equation, so with every modulus 0 this is the integer kernel of M.  The
    lattice is the kernel of [M | diag(moduli)], spanned by V's columns past
    the rank, cut to the coordinates of x: only those columns are built from
    the elimination's log, and no U is formed.
    """
    n = len(cols)
    rows, width = _augmented(cols, moduli)
    diag, _, log, labels = _snf(rows, width)
    return sparse_rows(_v_apply(log, _unit(width, c))[:n] for j, c in enumerate(labels) if j >= len(diag) or diag[j] == 0)


def _solve_integer(cols, rhs, moduli) -> List[Optional[Dict[int, int]]]:
    """``solve_mod_many`` by one integer elimination of [M | diag(moduli)],
    any modulus 0: each row carries the right-hand sides through the row
    operations, which gives U·b with no U, and no V is formed.  D w = U·b is
    solvable iff M x ≡ b is, and x is V w cut to the unknowns: w placed on
    its columns' labels and the log applied to it, last operation first."""
    n = len(cols)
    rows, width = _augmented(cols, moduli)
    carry = [[0] * len(rhs) for _ in moduli]
    for t, b in enumerate(rhs):
        for i, v in b.items():
            carry[i][t] = v
    diag, left, log, labels = _snf(rows, width, carry=carry)
    out: List[Optional[Dict[int, int]]] = []
    for t in range(len(rhs)):
        c = [row[t] for row in left]
        if any(not d or ci % d for ci, d in compress(zip(c, diag), c)) or any(c[len(diag) :]):
            out.append(None)
            continue
        y = [0] * width
        for ci, d, label in compress(zip(c, diag, labels), c):
            y[label] = ci // d
        x = _v_apply(log, y)[:n]
        out.append(dict(compress(enumerate(x), x)))
    return out


def solve_mod_many(
    cols: Sequence[Dict[int, int]], rhs: Sequence[Dict[int, int]], moduli: Sequence[int]
) -> List[Optional[Dict[int, int]]]:
    """For each b in ``rhs``, one solution x of M x ≡ b componentwise mod the per-row moduli, or None.

    M has the sparse columns ``cols`` (a map's ``AbMap.cols``) and one row
    per modulus; each b is sparse, {row: entry}, and each x is sparse too,
    {unknown: value} over range(len(cols)) with zeros left out.  A modulus
    of 0 means that row is an exact equation over Z.  One elimination
    serves every b: with every modulus nonzero it is ``_solve_torsion``'s,
    one prime at a time, and x is reduced modulo the lcm of the moduli (a
    modulus ``prime_factors`` refuses is refused with BudgetExceeded); with
    some modulus 0 it is ``_solve_integer``'s.

    >>> solve_mod_many([{0: 2}, {1: 3}], [{0: 2, 1: 3}, {0: 1}, {1: 6}], [4, 9])
    [{0: 9, 1: 28}, None, {1: 20}]
    """
    if not rhs:
        return []
    return (_solve_torsion if all(moduli) else _solve_integer)(cols, rhs, moduli)


def solve_mod(M: IntMatrix, b: Sequence[int], moduli: Sequence[int]):
    """Solve M x ≡ b componentwise mod the given per-row moduli.

    A modulus of 0 means that row is an exact equation over Z.  Returns one
    solution as a dense list of n entries, or None when the system has no
    solution: the dense boundary of ``solve_mod_many``, whose sparse answer
    it spreads out.  One right-hand side, one elimination: a caller with
    many passes them all, sparse, to ``solve_mod_many``.
    """
    m, n = M.shape
    if len(moduli) != m or len(b) != m:
        raise DimensionMismatch("solve_mod shape mismatch")
    x = solve_mod_many(sparse_columns(M.rows, n), sparse_rows([b]), moduli)[0]
    return None if x is None else [x.get(j, 0) for j in range(n)]


def rank_gf2(rows: Iterable[int]) -> int:
    """Rank over F_2 of rows given as Python-int bitmasks.

    No production path calls it any more (``rank_mod_p`` counts ``_local``'s
    pivots); it stays because ``perfbench/tracer.py`` binds it by name.

    Pivots are keyed by their highest set bit, so a row is reduced only
    against the pivots whose bit it meets, and each reduction lowers it.
    """
    pivots: Dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = r
                break
            r ^= pivot
    return len(pivots)


def rank_mod_p(rows: Iterable[Dict[int, int]], ncols: int, p: int) -> int:
    """Rank over F_p of sparse integer rows, each a dict {column: entry}.

    Columns lie in range(ncols); entries are any integers, reduced mod p
    here, and zero entries may be left out.  A row whose single entry is a
    unit mod p is its own pivot, and its column drops out of every other
    row: that is the first step of structured Gaussian elimination
    (LaMacchia–Odlyzko 1990), and it takes the split slots of a universal
    (co)extension, unit vectors, off the elimination.  The other rows,
    reduced mod p, go to ``_local`` with every column read modulo p: each
    of its pivots is a unit, so the rank is the number of pivots.

    >>> rank_mod_p([{0: 1, 2: 1}, {1: -1}, {0: 3, 1: 2, 2: 3}], 3, 3)
    2
    """
    units, rest = set(), []
    for r in rows:
        if len(r) == 1:
            for j, v in r.items():
                if v % p:
                    units.add(j)
        elif r:
            rest.append(r)
    rest = [row for r in rest if (row := {j: v % p for j, v in r.items() if v % p and j not in units})]
    return len(units) + (len(_local(rest, [p] * ncols)) if rest else 0)
