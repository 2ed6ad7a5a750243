"""Finitely generated abelian groups, morphisms, and categorical plumbing.

A group is kept in canonical invariant-factor form only.  Generator order is
fixed: torsion generators first (factors ascending in the divisibility
chain), free generators last, so the moduli vector of ``Z^r ⊕ ⊕ Z(d_i)`` is
``(d_1, ..., d_k, 0, ..., 0)``.  A morphism is an integer matrix on canonical
generators, normalized entrywise modulo the target moduli; equality of maps
is equality of those normal forms.

(Co)kernels, biproducts, pushouts and pullbacks return canonicalized groups
together with transported legs and mediator solvers.  For finite groups,
mono/epi tests are decided per prime by F_p-rank of socle/quotient matrices,
which stays fast even for groups with a thousand cyclic factors; groups with
free rank fall back to integer lattice computations.

All values are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, EndpointMismatch
from .intlin import (
    DimensionMismatch,
    IntMatrix,
    hnf,
    kernel_basis,
    rank_mod_p,
    snf,
    solve_mod,
)


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
        object.__setattr__(self, "invariant_factors", tuple(int(d) for d in self.invariant_factors))
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

    def primes(self) -> Tuple[int, ...]:
        seen = []
        for d in self.invariant_factors:
            for p in prime_factors(d):
                if p not in seen:
                    seen.append(p)
        return tuple(sorted(seen))

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
        return {"rank": self.free_rank, "factors": [str(d) for d in self.invariant_factors]}

    @staticmethod
    def from_json(data: dict) -> "FinGenAb":
        return FinGenAb(int(data.get("rank", 0)), tuple(int(d) for d in data.get("factors", ())))


ZERO_GROUP = FinGenAb(0, ())


def prime_factors(n: int) -> List[int]:
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def invariant_factor_blocks(moduli: Sequence[int]) -> List[List[Tuple[int, int]]]:
    """Regroup ⊕ Z(m_i), every m_i >= 2, into its invariant factors, prime by prime.

    Returns one block per invariant factor, ascending: the pairs (i, q) of
    the prime-power parts q of Z(m_i) whose product is that factor.  Equal
    parts are placed in order of (m_i, i), so moduli that already form a
    chain keep each m_i whole, in the place a stable sort gives it.
    """
    per_prime: Dict[int, list] = {}
    parts_of: Dict[int, List[Tuple[int, int]]] = {}
    for i, m in enumerate(moduli):
        if m not in parts_of:
            parts_of[m] = [(p, p ** _pval(m, p)) for p in prime_factors(m)]
        for p, q in parts_of[m]:
            per_prime.setdefault(p, []).append((q, m, i))
    k = max((len(parts) for parts in per_prime.values()), default=0)
    blocks: List[List[Tuple[int, int]]] = [[] for _ in range(k)]
    for parts in per_prime.values():
        parts.sort()
        for pos, (q, _m, i) in enumerate(parts, start=k - len(parts)):
            blocks[pos].append((i, q))
    return blocks


def invariant_factors_of(prime_powers: Sequence[int]) -> Tuple[int, ...]:
    """Invariant factors of ⊕ Z(q) over prime powers q >= 2."""
    return tuple(math.prod(q for _, q in block) for block in invariant_factor_blocks(prime_powers))


def _pval(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def _unimodular_inverse(V: IntMatrix) -> IntMatrix:
    H, U = hnf(V)
    if H.rows != IntMatrix.identity(V.nrows).rows:
        raise DomainError("matrix is not unimodular")
    return U


def canonicalize(presentation: IntMatrix):
    """Quotient of Z^n by the row lattice of ``presentation``.

    Returns ``(group, proj, lift)``: ``proj`` (dim x n) sends a vector of
    Z^n to canonical coordinates of its class, ``lift`` (n x dim) picks a
    representative for each canonical generator, and ``proj * lift`` is the
    identity exactly.
    """
    n = presentation.ncols
    rows = [r for r in presentation.rows if any(r)]
    # Fast path: rows touching a single column each present a diagonal
    # lattice; if the resulting factor multiset is a divisibility chain the
    # canonical form is just a column permutation (no SNF).
    diag_ok = True
    col_mod = [0] * n
    for r in rows:
        nz = [(j, v) for j, v in enumerate(r) if v]
        if len(nz) != 1:
            diag_ok = False
            break
        j, v = nz[0]
        col_mod[j] = math.gcd(col_mod[j], abs(v))
    if diag_ok:
        torsion = sorted((d, j) for j, d in enumerate(col_mod) if d >= 2)
        chain = all(torsion[i + 1][0] % torsion[i][0] == 0 for i in range(len(torsion) - 1))
        if chain:
            free = [j for j, d in enumerate(col_mod) if d == 0]
            kept = [j for _, j in torsion] + free
            group = FinGenAb(len(free), tuple(d for d, _ in torsion))
            proj = IntMatrix.from_rows(
                [[1 if j == k else 0 for j in range(n)] for k in kept], ncols=n
            )
            lift = IntMatrix.from_rows(
                [[1 if kept[c] == i else 0 for c in range(len(kept))] for i in range(n)],
                ncols=len(kept),
            )
            return group, proj, lift
    R = IntMatrix.from_rows(rows, ncols=n)
    dec = snf(R)
    diag = dec.diagonal()
    # Relations are the image of R^T; with U R V = D the quotient Z^n/im(R^T)
    # becomes Z^n/im(D^T) under y = V^T x, so classes read off V^T and
    # representatives come from columns of V^{-T}.
    vt = dec.V.transpose()
    vinvt = _unimodular_inverse(dec.V).transpose()
    torsion_idx = [i for i, d in enumerate(diag) if d not in (0, 1)]
    free_idx = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
    kept = torsion_idx + free_idx
    group = FinGenAb(len(free_idx), tuple(diag[i] for i in torsion_idx))
    proj = vt.select_rows(kept)
    lift = vinvt.select_columns(kept)
    return group, proj, lift


@dataclass(frozen=True)
class AbMap:
    """Morphism between canonical groups as a matrix on generators.

    ``matrix`` is (target.dim x source.dim); column j is the image of the
    j-th source generator.  Entries are normalized into [0, m) for each
    target modulus m > 0.  Construction validates well-definedness: for each
    source generator of order m, m times its image must vanish in the target.
    """

    source: FinGenAb
    target: FinGenAb
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatch(
                f"map matrix {self.matrix.shape} does not match {self.target.dim}x{self.source.dim}"
            )
        tmod = self.target.moduli()
        norm = []
        for i, row in enumerate(self.matrix.rows):
            m = tmod[i]
            if m:
                norm.append(tuple(v % m if v else 0 for v in row))
            else:
                norm.append(tuple(row))
        nmat = IntMatrix.from_rows(norm, ncols=self.source.dim)
        object.__setattr__(self, "matrix", nmat)
        smod = self.source.moduli()
        for j, mj in enumerate(smod):
            if mj == 0:
                continue
            for i, mi in enumerate(tmod):
                v = nmat.rows[i][j]
                if not v:
                    continue
                if mi == 0 or (mj * v) % mi:
                    raise DomainError(
                        f"map not well defined: {mj} * column {j} not in target relations"
                    )

    @staticmethod
    def identity(G: FinGenAb) -> "AbMap":
        return AbMap(G, G, IntMatrix.identity(G.dim))

    @staticmethod
    def zero(source: FinGenAb, target: FinGenAb) -> "AbMap":
        return AbMap(source, target, IntMatrix.zeros(target.dim, source.dim))

    def compose(self, other: "AbMap") -> "AbMap":
        """self ∘ other (apply other first)."""
        if other.target != self.source:
            raise EndpointMismatch("composition endpoint mismatch")
        return AbMap(other.source, self.target, self.matrix * other.matrix)

    def __matmul__(self, other: "AbMap") -> "AbMap":
        return self.compose(other)

    def __add__(self, other: "AbMap") -> "AbMap":
        if self.source != other.source or self.target != other.target:
            raise EndpointMismatch("sum endpoint mismatch")
        return AbMap(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other: "AbMap") -> "AbMap":
        return self + (-other)

    def __neg__(self) -> "AbMap":
        return AbMap(self.source, self.target, -self.matrix)

    def scale(self, c: int) -> "AbMap":
        return AbMap(self.source, self.target, self.matrix.scale(c))

    def apply(self, vec: Sequence[int]) -> Tuple[int, ...]:
        out = self.matrix.apply(list(vec))
        return self.target.reduce(out)

    def __eq__(self, other):
        if not isinstance(other, AbMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix.rows == other.matrix.rows
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix.rows))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "matrix": self.matrix.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "AbMap":
        src = FinGenAb.from_json(data["source"])
        tgt = FinGenAb.from_json(data["target"])
        return AbMap(src, tgt, IntMatrix.from_json(data["matrix"], ncols=src.dim))


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
    offsets = []
    pos = 0
    for g in groups:
        offsets.append(pos)
        pos += g.dim
    total_dim = pos
    concat_mods = []
    for g in groups:
        concat_mods.extend(g.moduli())
    torsion = sorted((d, j) for j, d in enumerate(concat_mods) if d >= 2)
    chain = all(torsion[i + 1][0] % torsion[i][0] == 0 for i in range(len(torsion) - 1))
    if chain:
        # Concatenated factors already form a chain after sorting, so the
        # canonical form is a permutation of slots (always the case for
        # copies of a single group).  Avoids SNF on huge diagonal matrices.
        free = [j for j, d in enumerate(concat_mods) if d == 0]
        kept = [j for _, j in torsion] + free
        slot_to_canon = {slot: k for k, slot in enumerate(kept)}
        total = FinGenAb(len(free), tuple(d for d, _ in torsion))
        injections = []
        projections = []
        for gi, g in enumerate(groups):
            base = offsets[gi]
            inj_rows = [[0] * g.dim for _ in range(total_dim)]
            for local in range(g.dim):
                inj_rows[slot_to_canon[base + local]][local] = 1
            inj = AbMap(g, total, IntMatrix.from_rows(inj_rows, ncols=g.dim))
            proj_rows = [[0] * total_dim for _ in range(g.dim)]
            for local in range(g.dim):
                proj_rows[local][slot_to_canon[base + local]] = 1
            proj = AbMap(total, g, IntMatrix.from_rows(proj_rows, ncols=total_dim))
            injections.append(inj)
            projections.append(proj)
        return SumDiagram(groups, total, tuple(injections), tuple(projections))
    rel_rows = []
    for j, d in enumerate(concat_mods):
        if d:
            rel_rows.append([d if k == j else 0 for k in range(total_dim)])
    total, proj, lift = canonicalize(IntMatrix.from_rows(rel_rows, ncols=total_dim))
    injections = []
    projections = []
    for gi, g in enumerate(groups):
        base = offsets[gi]
        # Embed local coordinates into the concatenated space.
        emb_rows = [[0] * g.dim for _ in range(total_dim)]
        for local in range(g.dim):
            emb_rows[base + local][local] = 1
        emb = IntMatrix.from_rows(emb_rows, ncols=g.dim)
        injections.append(AbMap(g, total, proj * emb))
        sel_rows = [[0] * total_dim for _ in range(g.dim)]
        for local in range(g.dim):
            sel_rows[local][base + local] = 1
        sel = IntMatrix.from_rows(sel_rows, ncols=total_dim)
        projections.append(AbMap(total, g, sel * lift))
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


def _preimage_lattice(M: IntMatrix, target_mods: Sequence[int]) -> IntMatrix:
    """Columns spanning {x : M x lies in the target relation lattice}."""
    n = M.ncols
    slack_cols = [i for i, m in enumerate(target_mods) if m]
    rows = []
    for i in range(M.nrows):
        row = list(M.rows[i])
        for k in slack_cols:
            row.append(target_mods[i] if k == i else 0)
        rows.append(row)
    aug = IntMatrix.from_rows(rows, ncols=n + len(slack_cols))
    ker = kernel_basis(aug)
    return ker.select_rows(list(range(n))) if ker.ncols else IntMatrix.zeros(n, 0)


def kernel(f: AbMap) -> Tuple[FinGenAb, AbMap]:
    """Kernel with its inclusion; the universal property is exercised in tests."""
    A, B = f.source, f.target
    if A.is_trivial():
        return ZERO_GROUP, AbMap(ZERO_GROUP, A, IntMatrix.zeros(A.dim, 0))
    P = _preimage_lattice(f.matrix, B.moduli())
    if P.ncols == 0:
        return ZERO_GROUP, AbMap(ZERO_GROUP, A, IntMatrix.zeros(A.dim, 0))
    T = _preimage_lattice(P, A.moduli())
    rel = T.transpose()
    K, _projK, liftK = canonicalize(rel)
    incl = AbMap(K, A, P * liftK)
    return K, incl


def _cokernel_data(f: AbMap):
    B = f.target
    rows = []
    for j, d in enumerate(B.moduli()):
        if d:
            rows.append([d if k == j else 0 for k in range(B.dim)])
    for j in range(f.source.dim):
        rows.append([f.matrix.rows[i][j] for i in range(B.dim)])
    return canonicalize(IntMatrix.from_rows(rows, ncols=B.dim))


def cokernel(f: AbMap) -> Tuple[FinGenAb, AbMap]:
    """Cokernel with its projection."""
    C, proj, _lift = _cokernel_data(f)
    return C, AbMap(f.target, C, proj)


def _socle_matrix(f: AbMap, p: int):
    """F_p matrix of f restricted to the p-socle of its source."""
    smod = f.source.moduli()
    tmod = f.target.moduli()
    cols = [j for j, m in enumerate(smod) if m and m % p == 0]
    rows_idx = [i for i, m in enumerate(tmod) if m and m % p == 0]
    mat = []
    for i in rows_idx:
        a = _pval(tmod[i], p)
        row = []
        for j in cols:
            b = _pval(smod[j], p)
            w = f.matrix.rows[i][j]
            if b >= a:
                row.append((w * p ** (b - a)) % p)
            else:
                row.append((w // p ** (a - b)) % p)
        mat.append(row)
    return mat, len(cols)


def is_mono(f: AbMap) -> bool:
    """Trivial kernel.  Finite sources use per-prime socle rank."""
    if f.source.is_trivial():
        return True
    if f.source.is_finite():
        for p in f.source.primes():
            mat, ncols = _socle_matrix(f, p)
            if rank_mod_p(mat, ncols, p) < ncols:
                return False
        return True
    K, _ = kernel(f)
    return K.is_trivial()


def is_epi(f: AbMap) -> bool:
    """Trivial cokernel.  Finite targets use per-prime quotient rank."""
    if f.target.is_trivial():
        return True
    if f.target.is_finite():
        smod = f.source.moduli()
        tmod = f.target.moduli()
        for p in f.target.primes():
            rows_idx = [i for i, m in enumerate(tmod) if m % p == 0]
            cols = [j for j, m in enumerate(smod) if m == 0 or m % p == 0]
            mat = [[f.matrix.rows[i][j] % p for j in cols] for i in rows_idx]
            if rank_mod_p(mat, len(cols), p) < len(rows_idx):
                return False
        return True
    C, _ = cokernel(f)
    return C.is_trivial()


def torsion_part(A: FinGenAb) -> FinGenAb:
    """The torsion radical t(A): drop the free rank."""
    return FinGenAb(0, A.invariant_factors)


@dataclass(frozen=True)
class Pushout:
    apex: FinGenAb
    left: AbMap   # from f.target
    right: AbMap  # from g.target
    _mediator: Callable = field(repr=False, compare=False)

    def mediator(self, left_map: AbMap, right_map: AbMap) -> AbMap:
        return self._mediator(left_map, right_map)


def pushout(f: AbMap, g: AbMap) -> Pushout:
    """Pushout of f : A → B and g : A → C along their common source."""
    if f.source != g.source:
        raise EndpointMismatch("pushout legs must share their source")
    B, C = f.target, g.target
    ds = direct_sum([B, C])
    muB, muC = ds.injections
    piB, piC = ds.projections
    span = muB @ f - muC @ g
    # clift: coordinate lift of a canonical P generator to a B⊕C vector.
    P, cproj, clift = _cokernel_data(span)
    proj = AbMap(ds.total, P, cproj)
    left = proj @ muB
    right = proj @ muC

    def mediator(bq: AbMap, cq: AbMap) -> AbMap:
        if bq.source != B or cq.source != C or bq.target != cq.target:
            raise EndpointMismatch("cocone endpoints do not match pushout")
        if not (bq @ f - cq @ g).is_zero():
            raise DomainError("cocone does not commute with the span")
        m = bq @ piB + cq @ piC
        h = AbMap(P, bq.target, m.matrix * clift)
        return h

    return Pushout(P, left, right, mediator)


@dataclass(frozen=True)
class Pullback:
    apex: FinGenAb
    left: AbMap   # to f.source
    right: AbMap  # to g.source
    _mediator: Callable = field(repr=False, compare=False)

    def mediator(self, left_map: AbMap, right_map: AbMap) -> AbMap:
        return self._mediator(left_map, right_map)


def pullback(f: AbMap, g: AbMap) -> Pullback:
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
        cols = []
        for j in range(pair.source.dim):
            target_vec = [pair.matrix.rows[i][j] for i in range(ds.total.dim)]
            x = solve_mod(incl.matrix, target_vec, list(total_mods))
            if x is None:
                raise DomainError("cone does not factor through the pullback")
            cols.append(x)
        return AbMap(pair.source, K, IntMatrix.from_columns(cols, K.dim))

    return Pullback(K, left, right, mediator)


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
    """G/dG with its projection and the kept coordinate indices.

    Used for the per-block Ext computations: for G finite with chain moduli
    the quotient moduli gcd(m_i, d) keep the chain, so this is coordinate
    selection, never SNF.
    """
    if d == 0:
        return G, AbMap.identity(G), list(range(G.dim))
    mods = G.moduli()
    kept = []
    factors = []
    for i, m in enumerate(mods):
        q = math.gcd(m, d) if m else d
        if q > 1:
            kept.append(i)
            factors.append(q)
    order = sorted(range(len(kept)), key=lambda t: (factors[t], kept[t]))
    kept = [kept[t] for t in order]
    factors = [factors[t] for t in order]
    Q = FinGenAb(0, tuple(factors))
    rows = [[1 if j == i else 0 for j in range(G.dim)] for i in kept]
    proj = AbMap(G, Q, IntMatrix.from_rows(rows, ncols=G.dim))
    return Q, proj, kept
