"""Finitely generated abelian groups, morphisms, and categorical plumbing.

A group is kept in canonical invariant-factor form only.  Generator order is
fixed: torsion generators first (factors ascending in the divisibility
chain), free generators last, so the moduli vector of ``Z^r ⊕ ⊕ Z(d_i)`` is
``(d_1, ..., d_k, 0, ..., 0)``.  A morphism keeps the image of each canonical
generator as a sparse column {target generator: entry}, normalized modulo the
target moduli with zeros dropped; equality of maps is equality of those
normal forms, and every map operation takes time in the nonzero entries.  The
dense integer matrix is a view, built only when a caller reads it.

A direct sum of cyclic groups ⊕ Z(m_i) is put in canonical form by
``cyclic_sum``: the moduli regroup prime by prime into invariant factors
(CRT), with sparse placements of the summands and lifts of the canonical
generators, inverse modulo the moduli.  Biproducts, G/dG, the Hom and Ext
carriers and the universal middle groups go through it.  ``canonicalize``
gives a quotient of Z^n in the same ``(group, place, lift)`` format, with
place and lift exactly inverse over Z, so a diagonal presentation takes the
same group through gcd/lcm steps instead; only presentations with
genuinely mixed relations reach SNF, one elimination whose log of column
operations gives V's columns and V^-1's rows on the kept coordinates alone.

(Co)kernels, biproducts, pushouts and pullbacks return canonicalized groups
together with transported legs and mediator solvers.  Mono and epi build
no (co)kernel.  Onto a finite group, epi is one F_p rank per prime
(``is_epi_mod``), read off the columns (rank is transpose-invariant), which
stays fast even for groups with a thousand cyclic factors.  From a finite
group, mono is epi of the Pontryagin dual, the ``_ext_weights``
σ_s·h[t][s]/τ_t.  Free rank is decided by SNF diagonals alone (the rank
over Q of the free block, and ``cokernel_group``), with no unimodular
transforms.

All values are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, DomainError, EndpointMismatch
from .intlin import (
    DimensionMismatch,
    IntMatrix,
    _augmented,
    _idempotent,
    _prime_parts,
    _snf,
    _tops,
    _unit,
    _v_apply,
    _v_inverse_apply,
    json_int,
    json_of,
    json_str,
    preimage_lattice,
    prime_factors,
    rank_mod_p,
    snf_diagonal,
    solve_mod_many,
    sparse_columns,
    sparse_rows,
)


# The most generators (free rank plus cyclic summands) a group read from input may have.
MAX_GROUP_DIM = 1 << 20


@dataclass(frozen=True)
class FinGenAb:
    """Canonical form Z^free_rank ⊕ ⊕_i Z(d_i), d_i >= 2, d_i | d_{i+1}.

    >>> print(FinGenAb(1, (2, 6)))
    Z + Z(2) + Z(6)
    >>> FinGenAb(0, (2, 6)).order()
    12
    >>> FinGenAb(0, (2, 6)).moduli()
    (2, 6)
    """

    free_rank: int
    invariant_factors: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "invariant_factors", tuple(self.invariant_factors))
        if self.free_rank < 0:
            raise DomainError("negative free rank")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise DomainError(f"invariant factor {d} < 2")
            if prev is not None and d % prev:
                raise DomainError(f"invariant factors fail divisibility: {prev} does not divide {d}")
            prev = d

    @property
    def torsion_count(self) -> int:
        return len(self.invariant_factors)

    @property
    def dim(self) -> int:
        return self.torsion_count + self.free_rank

    def moduli(self) -> Tuple[int, ...]:
        return self.invariant_factors + (0,) * self.free_rank

    def is_trivial(self) -> bool:
        return self.dim == 0

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

    def reduce(self, vec: Sequence[int]) -> Tuple[int, ...]:
        """Normalize a coordinate vector modulo this group's relations."""
        mods = self.moduli()
        if len(vec) != len(mods):
            raise DimensionMismatch("vector does not match group dimension")
        return tuple(v % m if m else v for v, m in zip(vec, mods))

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z({d})" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.free_rank, "factors": [json_str(d) for d in self.invariant_factors]}

    @staticmethod
    def from_json(data: dict) -> "FinGenAb":
        data = json_of(dict, data)
        factors = json_of(list, data.get("factors", []))
        rank = json_int(data.get("rank", 0))
        if rank > MAX_GROUP_DIM:
            raise BudgetExceeded(f"a free rank of {rank} exceeds {MAX_GROUP_DIM}")
        return FinGenAb(rank, tuple(json_int(d) for d in factors))


ZERO_GROUP = FinGenAb(0, ())


def _primes(moduli: Sequence[int]) -> Tuple[int, ...]:
    """The primes dividing some nonzero modulus, ascending."""
    return tuple(p for p, _ in _tops(moduli))


def _prime_runs(counts: Dict[int, int]):
    """Regroup ⊕ Z(m)^counts[m], every m >= 2, into its invariant factors, prime by prime.

    Returns ``(factors, runs)``: the invariant factors, ascending, and one run
    ``(q, m, pos)`` per prime-power part q of each modulus m, whose counts[m]
    copies fill the factors at positions pos, pos + 1, ...  Per prime the parts
    go in order of (q, m), so moduli that already form a chain keep each m
    whole, in the place a stable sort gives it.  The work is per distinct
    modulus, plus one multiplication per part.
    """
    per_prime: Dict[int, list] = {}
    for m in counts:
        for p, q in _prime_parts(m):
            per_prime.setdefault(p, []).append((q, m))
    k = max((sum(counts[m] for _, m in parts) for parts in per_prime.values()), default=0)
    factors, runs = [1] * k, []
    for parts in per_prime.values():
        parts.sort()
        pos = k - sum(counts[m] for _, m in parts)
        for q, m in parts:
            end = pos + counts[m]
            factors[pos:end] = [F * q for F in factors[pos:end]]
            runs.append((q, m, pos))
            pos = end
    return factors, runs


def invariant_factors_of(prime_powers: Sequence[int]) -> Tuple[int, ...]:
    """Invariant factors of ⊕ Z(q) over prime powers q >= 2."""
    counts: Dict[int, int] = {}
    for q in prime_powers:
        counts[q] = counts.get(q, 0) + 1
    return tuple(_prime_runs(counts)[0])


def _pval(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def orders_match(G: FinGenAb, parts: Sequence[FinGenAb], q: int = 0) -> bool:
    """Whether |G/qG| = Π |H/qH| over the ``parts``: each factor Z(m) counts
    as Z(gcd(q, m)) and Z as Z(q).  For a finite group T, |T/qT| = |T[q]|,
    so the torsion parts count |t(G)[q]|.  q = 0 compares the orders
    themselves, of groups that must then be finite.

    The orders are compared prime by prime, as the exponent of p in each,
    read once per run of equal invariant factors (they ascend, so a run's
    end is found by bisection, and gcd(q, ·) keeps each run a run): no
    product is formed, so 262,144 factors of 2 cost one bisection, not a
    262,144-bit multiplication.

    >>> orders_match(FinGenAb(0, (2, 12)), [FinGenAb(0, (4,)), FinGenAb(0, (6,))])
    True
    >>> orders_match(FinGenAb(1, (2, 12)), [FinGenAb(0, (2, 2, 2))], 2)
    True
    >>> orders_match(torsion_part(FinGenAb(1, (2, 12))), [FinGenAb(0, (2, 2, 2))], 2)
    False
    """
    exps: Dict[int, int] = {}

    def count(m: int, times: int) -> None:
        for p, e in _prime_exponents(m):
            exps[p] = exps.get(p, 0) + times * e

    for sign, H in [(1, G)] + [(-1, H) for H in parts]:
        factors = H.invariant_factors
        i, n = 0, len(factors)
        while i < n:
            j = bisect_right(factors, factors[i], i)
            count(math.gcd(q, factors[i]), sign * (j - i))
            i = j
        if q:
            count(q, sign * H.free_rank)
    return not any(exps.values())


@lru_cache(maxsize=1024)
def _prime_exponents(m: int) -> Tuple[Tuple[int, int], ...]:
    """(p, the exponent of p in m) for each prime p of m >= 1, ascending."""
    return tuple((p, _pval(q, p)) for p, q in _prime_parts(m))


def cyclic_sum(moduli: Sequence[int]):
    """Canonical form of ⊕ Z(m_i), a modulus of 0 meaning Z and 1 the zero group.

    Returns ``(group, place, lift)`` as sparse vectors (dicts from coordinate
    to coefficient): ``place[i]`` is the i-th summand's generator in canonical
    coordinates and ``lift[k]`` the k-th canonical generator written on the
    summands.  Torsion regroups prime by prime through CRT idempotents, so the
    moduli need not form a divisibility chain; when they do, this is the
    stable sort by modulus.  Free summands come last, in input order.

    The summands are grouped by modulus, so prime parts, their order and the
    idempotents are found once per distinct modulus; a summand of prime-power
    order has one place and one lift entry, written directly.

    >>> cyclic_sum([2, 3])
    (FinGenAb(free_rank=0, invariant_factors=(6,)), [{0: 3}, {0: 4}], [{0: 1, 1: 1}])
    """
    by_mod: Dict[int, List[int]] = {}
    for i, m in enumerate(moduli):
        by_mod.setdefault(m, []).append(i)
    free = by_mod.pop(0, [])
    by_mod = {m: idx for m, idx in by_mod.items() if m > 1}
    factors, runs = _prime_runs({m: len(idx) for m, idx in by_mod.items()})
    place: List[Dict[int, int]] = [{} for _ in moduli]
    lift: List[Dict[int, int]] = [{} for _ in factors]
    for q, m, pos in runs:
        if m == q:  # Z(q) is its own q-part: idempotent 1 in Z(m), and no other part to add
            for k, i in enumerate(by_mod[m], pos):
                F = factors[k]
                lift[k][i] = 1
                place[i][k] = 1 if F == q else _idempotent(F, q)
            continue
        e = _idempotent(m, q)
        for k, i in enumerate(by_mod[m], pos):
            F, row, col = factors[k], lift[k], place[i]
            row[i] = (row.get(i, 0) + e) % m
            col[k] = (col.get(k, 0) + _idempotent(F, q)) % F
    for k, i in enumerate(free, start=len(factors)):
        place[i][k] = 1
        lift.append({i: 1})
    return FinGenAb(len(free), tuple(factors)), place, lift


def dense_matrix(cols: Sequence[Dict[int, int]], nrows: int) -> IntMatrix:
    """The nrows x len(cols) matrix whose j-th column is the sparse vector cols[j]."""
    rows = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    for i, row in enumerate(rows):  # one row at a time, so a list and its tuple never all coexist
        rows[i] = tuple(row)
    return IntMatrix.from_rows(rows, ncols=len(cols))


def json_rows(cols: Sequence[Dict[int, int]], nrows: int) -> List[List[str]]:
    """``dense_matrix(cols, nrows).to_json()`` with no dense matrix: rows of "0",
    and only the nonzero cells pass through ``json_str``."""
    rows = [["0"] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            if x:
                rows[i][j] = json_str(x)
    return rows


def apply_sparse(cols: Sequence[Dict[int, int]], vec: Sequence[int], nrows: int) -> List[int]:
    """Σ_j vec[j]·cols[j] as a dense vector of length nrows."""
    out = [0] * nrows
    for c, col in zip(vec, cols):
        if c:
            for i, x in col.items():
                out[i] += c * x
    return out


def sparse_image(cols: Sequence[Dict[int, int]], vec: Dict[int, int]) -> Dict[int, int]:
    """Σ_k vec[k]·cols[k] for a sparse vec: the image of vec under the map with columns ``cols``."""
    out: Dict[int, int] = {}
    for k, c in vec.items():
        for i, x in cols[k].items():
            out[i] = out.get(i, 0) + c * x
    return out


def sparse_sum(terms) -> Dict[int, int]:
    """Σ c·vec over (coefficient, sparse vector) pairs."""
    out: Dict[int, int] = {}
    for c, vec in terms:
        for i, x in vec.items():
            out[i] = out.get(i, 0) + c * x
    return out


def canonicalize(relations: Sequence[Dict[int, int]], n: int):
    """Quotient of Z^n by the lattice R spanned by the sparse ``relations``, in ``cyclic_sum``'s format.

    Each relation is a dict {column: entry} with columns in range(n), zero
    entries allowed.  Returns sparse ``(group, place, lift)``: ``place[i]``
    is the class of e_i in canonical coordinates, ``lift[k]`` a
    representative in Z^n of the k-th canonical generator, and placing the
    lifts is exactly the identity.  A diagonal lattice (each relation
    touching one column) takes ``_diagonal_quotient``, any other one SNF
    U·R·V = D: y = V^T x turns Z^n / R^T Z^m into Z^n / D^T Z^m, so place
    reads V and lift V^-1 on the kept coordinates, those of the diagonal
    entries other than 1.  Only those are built, from the elimination's log
    of column operations: one column of V and one row of V^-1 per kept
    coordinate, and no U.

    This stays exact over Z, on the integer elimination, because its callers
    read coordinates past any modulus: the ``canon`` verb prints place and
    lift as mutually inverse matrices, and (co)kernels and presentations
    with free rank have no modulus to read them by.  The per-prime
    ``intlin.torsion_quotient`` gives CRT coordinates, inverse only modulo
    the moduli (for moduli 75, 45 no integer pair is inverse exactly); a
    finite core in ``realize`` takes it, since E reads no more than that.

    >>> canonicalize([{0: 2, 1: 4}, {0: 6, 1: 8}], 2)
    (FinGenAb(free_rank=0, invariant_factors=(2, 4)), [{0: 1, 1: -2}, {1: 1}], [{0: 1, 1: 2}, {1: 1}])
    """
    rows = [r for r in ({j: v for j, v in rel.items() if v} for rel in relations) if r]
    # Rows touching a single column each present a sum of cyclic groups.
    col_mod = [0] * n
    for r in rows:
        if len(r) != 1:
            break
        ((j, v),) = r.items()
        col_mod[j] = math.gcd(col_mod[j], v)
    else:  # no row broke off: the lattice is diagonal
        return _diagonal_quotient(col_mod)
    diag, _, log, labels = _snf(rows, n)
    torsion = [i for i, d in enumerate(diag) if d > 1]
    free = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
    kept = torsion + free
    group = FinGenAb(len(free), tuple(diag[i] for i in torsion))
    vcols = [_v_apply(log, _unit(n, labels[c])) for c in kept]
    vinv = [_v_inverse_apply(log, _unit(n, labels[c])) for c in kept]
    return group, sparse_columns(vcols, n), sparse_rows(vinv)


def _diagonal_quotient(moduli: Sequence[int]):
    """``canonicalize`` for Z^n / ⊕ m_i·Z e_i, with place and lift exactly inverse.

    The torsion moduli go in ascending order into a divisibility chain
    c_1 | ... | c_r.  A modulus that c_r does not divide is carried along the
    chain: each pair (c_j, carry) with c_j not dividing carry becomes
    (gcd, lcm) under a unimodular change of the two coordinates, so every
    step keeps the coordinates exact.  The group and, on moduli that already
    chain, the coordinates (a stable sort) are those of ``cyclic_sum``; its
    CRT coordinates are inverse only modulo the moduli, and for moduli such
    as 75, 45 no integer pair realizes them exactly.  SNF takes 5.5 s on
    1,000 diagonal relations, not 0.02 s.
    """
    chain: List[list] = []  # [modulus, its coordinate as a form on Z^n, its lift], sparse
    for m, i in sorted((m, i) for i, m in enumerate(moduli) if m > 1):
        carry = [m, {i: 1}, {i: 1}]
        if chain and m % chain[-1][0]:  # else c_r | m and m just goes last
            for link in chain:
                a, b = link[0], carry[0]
                if b % a == 0:
                    continue
                g = math.gcd(a, b)
                # p = 0 mod a/g and 1 mod b/g; the new coordinates are
                # z_g = z_a - z_b and z_l = (1 - p) z_a + p z_b, with
                # inverse z_a = p z_g + z_l and z_b = (p - 1) z_g + z_l.
                p = a // g * pow(a // g, -1, b // g)
                (_, ra, ca), (_, rb, cb) = link, carry
                link[:] = [g, sparse_sum([(1, ra), (-1, rb)]), sparse_sum([(p, ca), (p - 1, cb)])]
                carry[:] = [a // g * b, sparse_sum([(1 - p, ra), (p, rb)]), sparse_sum([(1, ca), (1, cb)])]
        chain.append(carry)
    chain = [link for link in chain if link[0] > 1]
    free = [[0, {i: 1}, {i: 1}] for i, m in enumerate(moduli) if m == 0]
    group = FinGenAb(len(free), tuple(link[0] for link in chain))
    links = chain + free
    place: List[Dict[int, int]] = [{} for _ in moduli]
    for k, (_, coord, _) in enumerate(links):
        for i, v in coord.items():
            if v:
                place[i][k] = v
    return group, place, [{i: v for i, v in col.items() if v} for _, _, col in links]


@dataclass(frozen=True)
class AbMap:
    """Morphism between canonical groups, kept as sparse columns.

    ``cols[j]`` is the image of the j-th source generator, a dict {target
    generator: entry} with entries reduced into [0, m) for each target
    modulus m > 0, free target rows left as they are, and zeros dropped.
    Construction normalizes and validates well-definedness in time linear in
    the nonzero entries: for each source generator of order m, m times its
    image must vanish in the target.  ``matrix`` is the dense
    (target.dim x source.dim) view, built on first use; ``to_json`` prints
    the columns without building it.
    """

    source: FinGenAb
    target: FinGenAb
    cols: Tuple[Dict[int, int], ...]

    def __post_init__(self):
        tmods = self.target.moduli()
        n = len(tmods)
        if len(self.cols) != self.source.dim:
            raise DimensionMismatch(f"map has {len(self.cols)} columns, not {self.source.dim}")
        cols = []
        for col, s in zip(self.cols, self.source.moduli()):  # column len(cols)
            out = {}
            for i, v in col.items():
                if not 0 <= i < n:
                    raise DimensionMismatch(f"column {len(cols)} has row {i}, past target dimension {n}")
                m = tmods[i]
                if m:
                    v %= m
                if v:
                    # s·v ≡ 0 mod m; into a free row (m = 0) only a free column may map
                    if s * v % m if m else s:
                        raise DomainError(f"map not well defined: {s} * column {len(cols)} not in target relations")
                    out[i] = v
            cols.append(out)
        object.__setattr__(self, "cols", tuple(cols))

    @staticmethod
    def from_matrix(source: FinGenAb, target: FinGenAb, M: IntMatrix) -> "AbMap":
        """The map whose j-th column is M's; an M already normalized becomes the ``matrix`` view."""
        if M.shape != (target.dim, source.dim):
            raise DimensionMismatch(f"map matrix {M.shape} does not match {target.dim}x{source.dim}")
        cols = sparse_columns(M.rows, M.ncols)
        f = AbMap(source, target, cols)
        if f.cols == tuple(cols):
            object.__setattr__(f, "matrix", M)
        return f

    @cached_property
    def matrix(self) -> IntMatrix:
        return dense_matrix(self.cols, self.target.dim)

    @staticmethod
    def identity(G: FinGenAb) -> "AbMap":
        return AbMap(G, G, [{j: 1} for j in range(G.dim)])

    @staticmethod
    def zero(source: FinGenAb, target: FinGenAb) -> "AbMap":
        return AbMap(source, target, ({},) * source.dim)

    def compose(self, other: "AbMap") -> "AbMap":
        """self ∘ other (apply other first)."""
        if other.target != self.source:
            raise EndpointMismatch("composition endpoint mismatch")
        mine = self.cols
        cols = [sparse_image(mine, col) for col in other.cols]
        return AbMap(other.source, self.target, cols)

    def __matmul__(self, other: "AbMap") -> "AbMap":
        return self.compose(other)

    def __add__(self, other: "AbMap") -> "AbMap":
        if self.source != other.source or self.target != other.target:
            raise EndpointMismatch("sum endpoint mismatch")
        return AbMap(self.source, self.target, [sparse_sum(((1, a), (1, b))) for a, b in zip(self.cols, other.cols)])

    def __sub__(self, other: "AbMap") -> "AbMap":
        return self + (-other)

    def __neg__(self) -> "AbMap":
        return self.scale(-1)

    def scale(self, c: int) -> "AbMap":
        return AbMap(self.source, self.target, [{i: c * v for i, v in col.items()} for col in self.cols])

    def apply(self, vec: Sequence[int]) -> Tuple[int, ...]:
        if len(vec) != self.source.dim:
            raise DimensionMismatch("vector length mismatch")
        return self.target.reduce(apply_sparse(self.cols, vec, self.target.dim))

    def __eq__(self, other):
        if not isinstance(other, AbMap):
            return NotImplemented
        return self.source == other.source and self.target == other.target and self.cols == other.cols

    def __hash__(self):
        return hash((self.source, self.target, tuple(frozenset(col.items()) for col in self.cols)))

    def is_zero(self) -> bool:
        return not any(self.cols)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "matrix": json_rows(self.cols, self.target.dim),
        }

    @staticmethod
    def from_json(data: dict) -> "AbMap":
        data = json_of(dict, data)
        src = FinGenAb.from_json(data["source"])
        tgt = FinGenAb.from_json(data["target"])
        return AbMap.from_matrix(src, tgt, IntMatrix.from_json(data["matrix"], ncols=src.dim))


@dataclass(frozen=True)
class SumDiagram:
    """Finite biproduct with canonical injections and projections."""

    summands: Tuple[FinGenAb, ...]
    total: FinGenAb
    injections: Tuple[AbMap, ...]
    projections: Tuple[AbMap, ...]


def direct_sum(groups: Sequence[FinGenAb]) -> SumDiagram:
    """Biproduct of a finite (possibly empty) list of groups.

    >>> print(direct_sum([FinGenAb(0, (2,)), FinGenAb(0, (3,))]).total)
    Z(6)
    >>> print(direct_sum([]).total)
    0
    """
    groups = tuple(groups)
    mods = [m for g in groups for m in g.moduli()]
    total, place, lift = cyclic_sum(mods)
    injections = []
    projections = []
    base = 0
    for g in groups:
        end = base + g.dim
        injections.append(AbMap(g, total, place[base:end]))
        projections.append(AbMap(total, g, [{i - base: x for i, x in row.items() if base <= i < end} for row in lift]))
        base = end
    return SumDiagram(groups, total, tuple(injections), tuple(projections))


def power_sum(A: FinGenAb, X: int) -> SumDiagram:
    """A^(X) = A ⊕ ... ⊕ A with its biproduct structure."""
    return direct_sum([A] * X)


def codiagonal(A: FinGenAb, X: int) -> AbMap:
    """∇ : A^(X) → A with ∇ ∘ μ_i = id."""
    if X < 1:
        raise DomainError("codiagonal needs X >= 1")
    ds = power_sum(A, X)
    nabla = ds.projections[0]
    for pi in ds.projections[1:]:
        nabla = nabla + pi
    return nabla


def diagonal(A: FinGenAb, X: int) -> AbMap:
    """Δ : A → A^X with π_i ∘ Δ = id."""
    if X < 1:
        raise DomainError("diagonal needs X >= 1")
    ds = power_sum(A, X)
    delta = ds.injections[0]
    for mu in ds.injections[1:]:
        delta = delta + mu
    return delta


def kernel(f: AbMap) -> Tuple[FinGenAb, AbMap]:
    """Kernel with its inclusion; the universal property is exercised in tests.

    P spans the preimage of B's relations, and the kernel is Z^k / T for
    the vectors T that P maps into A's relations; the inclusion sends a
    lift y to P y.
    """
    A, B = f.source, f.target
    if A.is_trivial():
        return ZERO_GROUP, AbMap.zero(ZERO_GROUP, A)
    P = preimage_lattice(f.cols, B.moduli())
    if not P:
        return ZERO_GROUP, AbMap.zero(ZERO_GROUP, A)
    K, _place, lift = canonicalize(preimage_lattice(P, A.moduli()), len(P))
    return K, AbMap(K, A, [sparse_image(P, vec) for vec in lift])


def _cokernel_data(f: AbMap):
    """``canonicalize`` of B by its own relations and f's columns."""
    B = f.target
    return canonicalize([{j: d} for j, d in enumerate(B.moduli()) if d] + list(f.cols), B.dim)


def cokernel(f: AbMap) -> Tuple[FinGenAb, AbMap]:
    """Cokernel with its projection."""
    C, place, _lift = _cokernel_data(f)
    return C, AbMap(f.target, C, place)


def _ext_weights(cols: Sequence[Dict[int, int]], sig: Sequence[int], tau: Sequence[int]) -> List[Dict[int, int]]:
    """The dual of h with sparse columns ``cols`` from generators of orders
    ``sig`` (0: free) to a group of torsion factors ``tau``: the column over
    torsion generator t holds σ_s·h[t][s]/τ_t at s, exact since h is well
    defined.  That is the character 1/τ_t pulled back along h, Z(n)'s dual
    generated by 1/n; on twists it is Ext^1(h, ·).  Free generators have no
    twist and no dual, so they carry no weight."""
    out: List[Dict[int, int]] = [{} for _ in tau]
    for s, (col, d) in enumerate(zip(cols, sig)):
        if d:
            for t, x in col.items():
                if t < len(tau):
                    out[t][s] = d * x // tau[t]
    return out


def is_mono_mod(cols, smod: Sequence[int], tmod: Sequence[int]) -> bool:
    """Whether the well-defined map with sparse columns ``cols`` (entries not
    necessarily reduced) embeds ⊕Z(smod), all positive, in ⊕Z(tmod), 0 meaning
    Z, torsion first.

    The source is finite, so its image lies in the torsion targets, and by
    Pontryagin duality the map is mono iff its dual, the ``_ext_weights``
    from those targets, maps onto ⊕Z(smod): one ``is_epi_mod``.  Only the
    first len(smod) columns are read, so a source with free rank is tested
    on its torsion generators."""
    tau = [m for m in tmod if m]
    return is_epi_mod(_ext_weights(cols, smod, tau), tau, smod)


def is_epi_mod(cols, smod: Sequence[int], tmod: Sequence[int]) -> bool:
    """Whether the well-defined map with sparse columns ``cols`` (entries not
    necessarily reduced) maps ⊕Z(smod), 0 meaning Z, onto ⊕Z(tmod), all positive.

    Per prime p, the rank over F_p on the targets whose modulus p divides.  A
    column of order prime to p needs no filtering out: well-definedness makes
    its entries on those targets divisible by p, and rank_mod_p drops them.
    """
    for p in _primes(tmod):
        hit = [m % p == 0 for m in tmod]
        mat = cols[: len(smod)] if all(hit) else [{i: v for i, v in col.items() if hit[i]} for col, _ in zip(cols, smod)]
        if rank_mod_p(mat, len(tmod), p) < sum(hit):
            return False
    return True


def is_mono(f: AbMap) -> bool:
    """Trivial kernel, from the torsion generators and the rank over Q.

    ker f ∩ t(source) is the kernel of f on the torsion generators, decided
    as epi of the dual (``is_mono_mod``), and ker f has rank free_rank -
    rank_Q(f), where f ⊗ Q is the block of free target rows by free source
    columns.  A finitely generated group that is torsion-free of rank 0 is
    zero, so f is mono iff both tests pass.
    """
    S, T = f.source, f.target
    if not is_mono_mod(f.cols, S.invariant_factors, T.moduli()):
        return False
    if not S.free_rank:
        return True
    t = T.torsion_count
    free = [{i - t: v for i, v in col.items() if i >= t} for col in f.cols[S.torsion_count :]]
    # The block's columns are taken as rows: the rank is transpose-invariant.
    return sum(1 for d in snf_diagonal(free, T.free_rank) if d) == S.free_rank


def is_epi(f: AbMap) -> bool:
    """Trivial cokernel.  Finite targets use per-prime quotient rank, others
    the invariant factors of the cokernel."""
    if f.target.is_finite():
        return is_epi_mod(f.cols, f.source.moduli(), f.target.moduli())
    return cokernel_group(f.cols, f.target.moduli()).is_trivial()


def cokernel_group(cols, moduli: Sequence[int]) -> FinGenAb:
    """Canonical cokernel of x ↦ Mx into ⊕Z(moduli[i]), 0 meaning Z, with
    ``cols`` the sparse columns {row: entry} of M.

    A column whose only nonzero entry is a unit modulo its row's modulus
    puts that coordinate in the image, so the row and the column drop out
    (the split slots of a universal co-extension are such columns).  A
    remaining coordinate that no remaining column touches is its own summand
    Z(moduli[i]); the touched ones are read off the SNF diagonal of
    [M | diag(moduli)] on their rows, with a Z for each row past the diagonal.

    >>> print(cokernel_group([{0: 2, 1: 3}], [4, 0, 0]))
    Z + Z(12)
    >>> print(cokernel_group([{0: 1}, {0: 2, 1: 3}], [0, 0]))
    Z(3)
    """
    dropped, kept = set(), []
    for col in cols:
        nz = [(i, v) for i, v in col.items() if v]
        if len(nz) == 1 and math.gcd(nz[0][1], moduli[nz[0][0]]) == 1:
            dropped.add(nz[0][0])
        else:
            kept.append(nz)
    touched = sorted({i for nz in kept for i, _ in nz} - dropped)
    at = {i: r for r, i in enumerate(touched)}
    block = [{at[i]: v for i, v in nz if i in at} for nz in kept]
    diag = snf_diagonal(*_augmented(block, [moduli[i] for i in touched]))
    untouched = [m for i, m in enumerate(moduli) if i not in at and i not in dropped]
    return cyclic_sum(untouched + diag + [0] * (len(touched) - len(diag)))[0]


def torsion_part(A: FinGenAb) -> FinGenAb:
    """The torsion radical t(A): drop the free rank."""
    return FinGenAb(0, A.invariant_factors)


@dataclass(frozen=True)
class Square:
    """Apex of a pushout (legs from f.target and g.target) or a pullback
    (legs to f.source and g.source), and the mediator of a (co)cone."""

    apex: FinGenAb
    left: AbMap
    right: AbMap
    _mediator: Callable = field(repr=False, compare=False)

    def mediator(self, left_map: AbMap, right_map: AbMap) -> AbMap:
        return self._mediator(left_map, right_map)


def pushout(f: AbMap, g: AbMap) -> Square:
    """Pushout of f : A → B and g : A → C along their common source."""
    if f.source != g.source:
        raise EndpointMismatch("pushout legs must share their source")
    B, C = f.target, g.target
    ds = direct_sum([B, C])
    muB, muC = ds.injections
    piB, piC = ds.projections
    span = muB @ f - muC @ g
    # clift: coordinate lift of a canonical P generator to a B⊕C vector.
    P, cplace, clift = _cokernel_data(span)
    proj = AbMap(ds.total, P, cplace)
    left = proj @ muB
    right = proj @ muC

    def mediator(bq: AbMap, cq: AbMap) -> AbMap:
        if bq.source != B or cq.source != C or bq.target != cq.target:
            raise EndpointMismatch("cocone endpoints do not match pushout")
        if not (bq @ f - cq @ g).is_zero():
            raise DomainError("cocone does not commute with the span")
        m = (bq @ piB + cq @ piC).cols
        return AbMap(P, bq.target, [sparse_image(m, vec) for vec in clift])

    return Square(P, left, right, mediator)


def pullback(f: AbMap, g: AbMap) -> Square:
    """Pullback of f : B → A and g : C → A along their common target."""
    if f.target != g.target:
        raise EndpointMismatch("pullback legs must share their target")
    B, C = f.source, g.source
    ds = direct_sum([B, C])
    muB, muC = ds.injections
    piB, piC = ds.projections
    h = f @ piB - g @ piC
    K, incl = kernel(h)
    left = piB @ incl
    right = piC @ incl
    total_mods = ds.total.moduli()

    def mediator(bq: AbMap, cq: AbMap) -> AbMap:
        if bq.target != B or cq.target != C or bq.source != cq.source:
            raise EndpointMismatch("cone endpoints do not match pullback")
        if not (f @ bq - g @ cq).is_zero():
            raise DomainError("cone does not commute with the span")
        pair = muB @ bq + muC @ cq
        cols = solve_mod_many(incl.cols, pair.cols, total_mods)
        if None in cols:
            raise DomainError("cone does not factor through the pullback")
        return AbMap(pair.source, K, cols)

    return Square(K, left, right, mediator)


def partitions(n: int):
    """All integer partitions of n, each weakly decreasing."""
    if n == 0:
        yield ()
        return
    def rec(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def abelian_groups_of_order(n: int) -> List[FinGenAb]:
    """All isomorphism types of abelian groups of order n (canonical form)."""
    if n < 1:
        raise DomainError("order must be positive")
    if n == 1:
        return [ZERO_GROUP]
    from itertools import product as iproduct

    factorization = []
    for p in prime_factors(n):
        e = _pval(n, p)
        factorization.append((p, list(partitions(e))))
    out = []
    for combo in iproduct(*(parts for _, parts in factorization)):
        powers = [p ** e for (p, _), part in zip(factorization, combo) for e in part]
        out.append(FinGenAb(0, invariant_factors_of(powers)))
    out.sort(key=lambda g: g.invariant_factors)
    return out


def abelian_groups_up_to_order(n: int) -> List[FinGenAb]:
    out = []
    for m in range(1, n + 1):
        out.extend(abelian_groups_of_order(m))
    return out


def mod_quotient(G: FinGenAb, d: int) -> Tuple[FinGenAb, AbMap, List[int]]:
    """G/dG with its projection and, per generator of G/dG, the generator of G it comes from."""
    Q, place, lift = cyclic_sum([math.gcd(m, d) for m in G.moduli()])
    return Q, AbMap(G, Q, place), [i for row in lift for i in row]
