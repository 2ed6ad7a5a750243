"""Exact integer linear algebra: Smith/Hermite normal forms and solvers.

Everything here works over plain Python ints (arbitrary precision).  This is
the computational bedrock for the group machinery: canonical forms come from
SNF, and morphism equations are solved as integer linear systems with
per-row cyclic moduli.

Every elimination takes sparse rows, dicts {column: entry} in which zero
entries may be left out, the format ``rank_mod_p`` and the maps' sparse
columns already use; only ``_snf`` builds the dense block it works on.
``IntMatrix``, an immutable dense matrix, is the boundary type: ``snf``,
``hnf`` and ``solve_mod`` take one, for JSON, the CLI and benchmarks, and
convert it once.

No floats anywhere.  Unimodular transforms are accumulated explicitly so
``U * M * V == D`` holds exactly; only ``D`` is canonical, ``U`` and ``V``
depend on pivot choices (smallest absolute value, first in row-major order)
and on the least-remainder pass that clears each pivot's column and row,
which keeps their entries small.

One elimination, ``_snf``, serves every caller and computes only what that
caller reads.  Each row carries a block through the row operations: the
identity for ``snf``'s U, the right-hand sides for a solve (which so reads
U·b without forming U), nothing for ``snf_diagonal``, ``canonicalize`` and
preimage lattices.  V's columns are kept on their leading coordinates only:
all of them for ``snf`` and ``canonicalize``, the unknowns for a solve or a
preimage lattice, none for ``snf_diagonal``.  ``canonicalize`` also keeps
V^-1, by undoing each column operation.

The elimination pays for nonzero cells only.  A row or column operation
walks the nonzero support of the row or column it subtracts (listed at C
speed by ``itertools.compress``, once per pass and only once a quotient is
nonzero), and the pivot search and the divisibility check skip zeros at C
speed.  The pivots, quotients and swaps are those of the loops that visit
every cell, so every result is the same; the tests keep those loops as an
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence

from .errors import BudgetExceeded

# Python prints no int of more than 4300 digits; 2^99999999999 would not even fit in memory.
MAX_BOUND_DIGITS = 4300
_UNPRINTABLE = 10**MAX_BOUND_DIGITS  # the least integer of more than MAX_BOUND_DIGITS digits
_UNPRINTABLE_BITS = _UNPRINTABLE.bit_length()


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
    """A JSON int (not a bool) or a decimal string as an int; anything else is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


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


def _identity(n, width=None):
    """The rows of the n x n identity, cut to their first ``width`` entries."""
    width = n if width is None else width
    return [[0] * i + [1] + [0] * (width - i - 1) if i < width else [0] * width for i in range(n)]


def _swap_first(j, a, W, Z):
    """Swap column j of the block ``a`` into column 0, and with it V's columns and V^-1's rows."""
    for row in a:
        row[0], row[j] = row[j], row[0]
    for T in (W, Z):
        if T:
            T[0], T[j] = T[j], T[0]


def _snf(rows, n, carry=None, head=0, inverse=False):
    """(diagonal, left, V columns) of the Smith form U·M·V = D of the m x n
    matrix M whose rows are the sparse ``rows``, each a dict {column: entry}.

    ``carry`` gives each row a block that goes through the row operations
    with it, and ``left`` is U times that block: U itself when it is the
    identity, U·b for right-hand-side columns; None carries nothing.  V's
    columns, as rows, keep their first ``head`` coordinates (0: V is not
    kept).  With ``inverse`` (and head = n), ``left`` is V^-1's rows instead,
    each column operation on V undone on them.  ``a`` is the block not yet
    diagonal, pivot at (0, 0), each row followed by its carried row; W holds
    V's columns and Z V^-1's rows.

    Cost: each row or column operation walks the nonzero cells of the row it
    subtracts (``_sweep``'s row t, V's column 0, V^-1's row j), and the
    pivot search and the divisibility check skip zeros at C speed, keeping
    the dense loops' pivots, quotients and swaps.  The block is the one
    dense copy of M, made here, and each pivot's row and column are deleted
    from it in place; every row handed back is sliced off it.
    """
    m = len(rows)
    a = [[0] * n for _ in rows]
    for row, r in zip(a, rows):
        for j, v in r.items():
            row[j] = v
    if carry is not None:
        for row, c in zip(a, carry):
            row += c
    W = _identity(n, head) if head else []
    Z = _identity(n) if inverse else []
    done_left, done_w, diag, k = [], [], [], min(m, n)
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
            _swap_first(pj, a, W, Z)
        while True:
            _sweep(a, 0, 0)
            # Row 0 by column operations, one sweep of the same pass: column 0
            # is clear, so they change only a[0], W and Z.  The least remainder
            # is swapped into column 0, and the column pass clears it again.
            a0 = a[0]
            p = a0[0]
            wcells = None
            best = least = 0
            for j in compress(cols[1:], a0[1:n]):
                x = a0[j]
                q = (2 * x + p) // (2 * p)
                if q:
                    x -= q * p
                    a0[j] = x
                    if W:
                        w0 = W[0]
                        if wcells is None:
                            wcells = list(compress(range(len(w0)), w0))
                        wj = W[j]
                        for col in wcells:
                            wj[col] -= q * w0[col]
                    if Z:
                        zj, z0 = Z[j], Z[0]
                        for col in compress(range(len(zj)), zj):
                            z0[col] += q * zj[col]
                if x and (not best or abs(x) < least):
                    best, least = j, abs(x)
            if best:
                _swap_first(best, a, W, Z)
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
        if W:
            done_w.append(W.pop(0))
        if Z:
            done_left.append(Z.pop(0))
        del a[0]
        for row in a:
            del row[0]
        n -= 1
    if inverse:
        done_left += Z
    elif carry is not None:
        done_left += [row[n:] for row in a]
    return diag + [0] * (k - len(diag)), done_left, done_w + W


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
    diag, U, W = _snf(sparse_rows(M.rows), n, carry=_identity(m), head=n)
    D = IntMatrix.diagonal(diag, m, n)
    return SnfDecomposition(U=IntMatrix.from_rows(U, ncols=m), D=D, V=IntMatrix.from_columns(W, n))


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
    the rank, cut to the coordinates of x: only those are kept through the
    elimination, and no U is formed.
    """
    rows, width = _augmented(cols, moduli)
    diag, _, W = _snf(rows, width, head=len(cols))
    return sparse_rows(W[j] for j in range(width) if j >= len(diag) or diag[j] == 0)


def solve_mod_many(
    cols: Sequence[Dict[int, int]], rhs: Sequence[Dict[int, int]], moduli: Sequence[int]
) -> List[Optional[list]]:
    """For each b in ``rhs``, one solution x of M x ≡ b componentwise mod the per-row moduli, or None.

    M has the sparse columns ``cols`` (a map's ``AbMap.cols``) and one row
    per modulus; each b is sparse too, {row: entry}, and each x is a list of
    len(cols) entries.  A modulus of 0 means that row is an exact equation
    over Z.  One elimination of [M | diag(moduli)] serves every b: each row
    carries the right-hand sides through the row operations, which gives U·b
    with no U, and V keeps only the coordinates of the unknowns.  D w = U·b
    is solvable iff M x ≡ b is, and x = V_head w.

    >>> solve_mod_many([{0: 2}, {1: 3}], [{0: 2, 1: 3}, {0: 1}, {1: 6}], [4, 9])
    [[1, 1], None, [0, 2]]
    """
    if not rhs:
        return []
    n = len(cols)
    rows, width = _augmented(cols, moduli)
    carry = [[0] * len(rhs) for _ in moduli]
    for t, b in enumerate(rhs):
        for i, v in b.items():
            carry[i][t] = v
    diag, left, W = _snf(rows, width, carry=carry, head=n)
    out: List[Optional[list]] = []
    for t in range(len(rhs)):
        c = [row[t] for row in left]
        if any(not d or ci % d for ci, d in compress(zip(c, diag), c)) or any(c[len(diag) :]):
            out.append(None)
            continue
        x = [0] * n
        for ci, d, col in compress(zip(c, diag, W), c):
            w = ci // d
            for i, v in compress(enumerate(col), col):
                x[i] += w * v
        out.append(x)
    return out


def solve_mod(M: IntMatrix, b: Sequence[int], moduli: Sequence[int]):
    """Solve M x ≡ b componentwise mod the given per-row moduli.

    A modulus of 0 means that row is an exact equation over Z.  Returns one
    solution vector or None when the system has no solution.  One right-hand
    side, one elimination: a caller with many passes them all, sparse, to
    ``solve_mod_many``.
    """
    m, n = M.shape
    if len(moduli) != m or len(b) != m:
        raise DimensionMismatch("solve_mod shape mismatch")
    return solve_mod_many(sparse_columns(M.rows, n), sparse_rows([b]), moduli)[0]


def rank_gf2(rows: Iterable[int]) -> int:
    """Rank over F_2 of rows given as Python-int bitmasks.

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
    here, and zero entries may be left out.  Only the given cells are read:
    over F_2 each row becomes a bitmask, and for odd p each row is reduced
    against pivots keyed by their last column.

    A row whose single entry is a unit mod p is its own pivot, and its column
    drops out of every other row: that is the first step of structured
    Gaussian elimination (LaMacchia–Odlyzko 1990), and it takes the split
    slots of a universal (co)extension, unit vectors, off the elimination.
    The other rows go sparsest first, and their pivots are keyed by the last
    column, not the first, because the certificate maps send a split
    generator to e_s - e_first with ``first`` the lowest slot of its key:
    keyed by the first column, each split of a key would be reduced through
    the one before it.

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
    rest.sort(key=len)
    if p == 2:
        masks = [0] * len(rest)
        for k, r in enumerate(rest):
            for j, v in r.items():
                if v & 1 and j not in units:
                    masks[k] |= 1 << j
        return len(units) + rank_gf2(masks)
    pivots: Dict[int, Dict[int, int]] = {}
    for r in rest:
        row = {j: v % p for j, v in r.items() if v % p and j not in units}
        while row:
            last = max(row)
            pivot = pivots.get(last)
            if pivot is None:
                inv = pow(row[last], -1, p)
                pivots[last] = {j: v * inv % p for j, v in row.items()}
                break
            c = row[last]
            for j, v in pivot.items():
                w = (row.get(j, 0) - c * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
    return len(units) + len(pivots)
