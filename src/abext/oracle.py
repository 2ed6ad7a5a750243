"""Element-level brute-force ground truth for small instances.

Everything here works on explicit tuples under componentwise cyclic
addition and is deliberately independent of the structural modules: Hom is
counted by enumerating generator images against relation constraints, Ext
is counted through the symmetric normalized 2-cocycle system (built from
scratch and reduced with a local integer diagonalization, not intlin's),
sequence equivalence is an exhaustive middle-isomorphism search, and the
witness order of the torsion counterexamples is a search of its coset.

Hard budgets raise BudgetExceeded instead of silently truncating.
Enumeration orders are fixed (lexicographic), so results are reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import BudgetExceeded, DomainError
from .abgroup import FinGenAb

HOM_BUDGET = 1 << 20
COCYCLE_ENUM_BUDGET = 1 << 20
SES_MIDDLE_BUDGET = 1 << 12
WITNESS_SEARCH_BUDGET = 1 << 17  # (7, 4) has 117,649 elements: 0.2 s (CPython 3.11, 2 vCPU)


@dataclass(frozen=True)
class ConcreteGroup:
    """Finite abelian group as explicit tuples with componentwise addition."""

    moduli: Tuple[int, ...]

    @staticmethod
    def from_group(G: FinGenAb) -> "ConcreteGroup":
        if not G.is_finite():
            raise DomainError("concrete realization needs a finite group")
        return ConcreteGroup(G.invariant_factors)

    @property
    def order(self) -> int:
        return math.prod(self.moduli) if self.moduli else 1

    @property
    def zero(self) -> Tuple[int, ...]:
        return (0,) * len(self.moduli)

    def elements(self) -> List[Tuple[int, ...]]:
        return list(itertools.product(*(range(m) for m in self.moduli)))

    def add(self, x, y) -> Tuple[int, ...]:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def neg(self, x) -> Tuple[int, ...]:
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def scale(self, c: int, x) -> Tuple[int, ...]:
        return tuple((c * a) % m for a, m in zip(x, self.moduli))

    def element_order(self, x) -> int:
        o = 1
        for a, m in zip(x, self.moduli):
            o = math.lcm(o, m // math.gcd(m, a))
        return o


@dataclass(frozen=True)
class ConcreteHom:
    """Homomorphism determined by generator images."""

    source: ConcreteGroup
    target: ConcreteGroup
    gen_images: Tuple[Tuple[int, ...], ...]

    def __call__(self, x) -> Tuple[int, ...]:
        acc = self.target.zero
        for c, img in zip(x, self.gen_images):
            if c:
                acc = self.target.add(acc, self.target.scale(c, img))
        return acc


def enumerate_homs(A: ConcreteGroup, B: ConcreteGroup) -> List[ConcreteHom]:
    """All homomorphisms A → B by generator images (relation-constrained)."""
    if A.order * B.order > HOM_BUDGET:
        raise BudgetExceeded("hom enumeration budget exceeded")
    elements = B.elements()
    candidates = []
    for d in A.moduli:
        candidates.append([t for t in elements if B.scale(d, t) == B.zero])
    out = []
    for combo in itertools.product(*candidates):
        out.append(ConcreteHom(A, B, combo))
    return out


# ---------------------------------------------------------------------------
# Ext by symmetric normalized 2-cocycles


def _diag_of_integer_matrix(rows: List[List[int]], ncols: int) -> List[int]:
    """Diagonal of a Smith-like form, local to the oracle (no transforms)."""
    a = [row[:] for row in rows if any(row)]
    m = len(a)
    t = 0
    diag = []
    while t < m and t < ncols:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, ncols):
                v = a[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        at = a[t]
                        ai = a[i]
                        for j in range(t, ncols):
                            ai[j] -= q * at[j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if dirty:
                continue
            bad = False
            for i in range(t + 1, m):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t]:
                        at = a[t]
                        ai = a[i]
                        for jj in range(t, ncols):
                            at[jj] += ai[jj]
                        bad = True
                        break
                if bad:
                    break
            if not bad:
                break
        diag.append(abs(a[t][t]))
        t += 1
    return diag


_COCYCLE_CACHE: Dict[Tuple[int, ...], Tuple[int, List[int]]] = {}


def _pair_index(elements):
    """Variable slots: unordered pairs of nonzero elements (symmetric f)."""
    nonzero = [e for e in elements if any(e)]
    index = {}
    nvars = 0
    for a_i, a in enumerate(nonzero):
        for b in nonzero[a_i:]:
            index[(a, b)] = nvars
            index[(b, a)] = nvars
            nvars += 1
    return nonzero, index, nvars


def _cocycle_system(A: ConcreteGroup):
    """Smith diagonal of the symmetric-cocycle constraint matrix over Z.

    Depends only on A; cached.  Normalization (values on pairs involving 0
    are 0) is built into the variable set, symmetry into the indexing, so
    the rows are exactly the 2-cocycle identities on nonzero triples.
    """
    key = A.moduli
    if key in _COCYCLE_CACHE:
        return _COCYCLE_CACHE[key]
    elements = A.elements()
    nonzero, index, nvars = _pair_index(elements)
    zero = A.zero

    def slot(x, y):
        if x == zero or y == zero:
            return None
        return index[(x, y)]

    seen = set()
    rows = []
    for a in nonzero:
        for b in nonzero:
            ab = A.add(a, b)
            for c in nonzero:
                row = [0] * nvars
                bc = A.add(b, c)
                for s, sgn in (
                    (slot(a, b), 1),
                    (slot(ab, c), 1),
                    (slot(b, c), -1),
                    (slot(a, bc), -1),
                ):
                    if s is not None:
                        row[s] += sgn
                if any(row):
                    tup = tuple(row)
                    if tup not in seen:
                        seen.add(tup)
                        neg = tuple(-x for x in row)
                        seen.add(neg)
                        rows.append(row)
    diag = _diag_of_integer_matrix(rows, nvars)
    _COCYCLE_CACHE[key] = (nvars, diag)
    return nvars, diag


def _solution_count_mod(nvars: int, diag: List[int], m: int) -> int:
    """#{x in (Z/m)^nvars : Mx = 0} from the Smith diagonal of M."""
    image = 1
    for d in diag:
        image *= m // math.gcd(d, m)
    total = m ** nvars
    assert total % image == 0
    return total // image


def ext_count_by_cocycles(A: ConcreteGroup, B: ConcreteGroup) -> int:
    """|Ext^1(A, B)| = |symmetric normalized cocycles| / |coboundaries|."""
    nvars, diag = _cocycle_system(A)
    z2 = 1
    for m in B.moduli:
        z2 *= _solution_count_mod(nvars, diag, m)
    homs = enumerate_homs(A, B)
    # |C^1| = |B|^(|A|-1) normalized functions; kernel of the coboundary map
    # is exactly Hom(A, B), so |B^2| = |B|^(|A|-1) / |Hom(A, B)|.
    c1 = B.order ** (A.order - 1)
    assert c1 % len(homs) == 0
    b2 = c1 // len(homs)
    assert z2 % b2 == 0
    return z2 // b2


def ext_representatives_by_cocycles(A: ConcreteGroup, B: ConcreteGroup):
    """Exhaustively enumerated cocycle representatives, one per class.

    Only for tiny instances: the full assignment space |B|^nvars must fit
    the budget.  Returns a list of dicts (pair of elements → value in B).
    """
    elements = A.elements()
    nonzero, index, nvars = _pair_index(elements)
    if B.order ** nvars > COCYCLE_ENUM_BUDGET:
        raise BudgetExceeded("cocycle enumeration budget exceeded")
    if B.order ** (A.order - 1) > COCYCLE_ENUM_BUDGET:
        raise BudgetExceeded("coboundary enumeration budget exceeded")
    belts = B.elements()
    zero = A.zero

    def value(assign, x, y):
        if x == zero or y == zero:
            return B.zero
        return assign[index[(x, y)]]

    def is_cocycle(assign) -> bool:
        for a in nonzero:
            for b in nonzero:
                ab = A.add(a, b)
                for c in nonzero:
                    lhs = B.add(value(assign, a, b), value(assign, ab, c))
                    rhs = B.add(value(assign, b, c), value(assign, a, A.add(b, c)))
                    if lhs != rhs:
                        return False
        return True

    solutions = [assign for assign in itertools.product(belts, repeat=nvars) if is_cocycle(assign)]
    coboundaries = set()
    for g_imgs in itertools.product(belts, repeat=A.order - 1):
        g = {zero: B.zero}
        for e, img in zip(nonzero, g_imgs):
            g[e] = img
        cob = []
        pairs_done = {}
        for (x, y), idx in index.items():
            if idx not in pairs_done:
                pairs_done[idx] = B.add(B.add(g[x], g[y]), B.neg(g[A.add(x, y)]))
        coboundaries.add(tuple(pairs_done[i] for i in range(nvars)))
    reps = []
    seen = set()
    for sol in solutions:
        if sol in seen:
            continue
        reps.append({pair: sol[idx] for pair, idx in index.items()})
        for cob in coboundaries:
            shifted = tuple(B.add(s, c) for s, c in zip(sol, cob))
            seen.add(shifted)
    return reps


# ---------------------------------------------------------------------------
# Sequence equivalence by exhaustive search


def ses_equivalent_bruteforce(s1, s2) -> bool:
    """Search all middle isomorphisms commuting with both legs.

    Complete backtracking over generator images, prefiltered by order and
    by compatibility with the quotient legs; injectivity is confirmed by
    scanning elements.  Sequences must share their end groups.
    """
    if s1.sub != s2.sub or s1.quot != s2.quot:
        return False
    E1, E2 = s1.middle, s2.middle
    if E1 != E2:
        # Canonical forms differ, so the middles are not even isomorphic.
        return False
    if not E1.is_finite() or E1.order() > SES_MIDDLE_BUDGET:
        raise BudgetExceeded("middle order exceeds brute-force budget")
    C1 = ConcreteGroup.from_group(E1)
    C2 = ConcreteGroup.from_group(E2)
    e2_elements = C2.elements()

    candidates = []
    for j, d in enumerate(E1.moduli()):
        gen = tuple(1 if t == j else 0 for t in range(len(E1.moduli())))
        target_g = s1.g.apply(gen)
        opts = [
            t
            for t in e2_elements
            if C2.scale(d, t) == C2.zero and s2.g.apply(t) == target_g
        ]
        candidates.append(opts)

    f1_cols = [tuple(col.get(i, 0) for i in range(E1.dim)) for col in s1.f.cols]
    f2_cols = [tuple(col.get(i, 0) for i in range(E2.dim)) for col in s2.f.cols]

    def phi_of(images, x):
        acc = C2.zero
        for c, img in zip(x, images):
            if c:
                acc = C2.add(acc, C2.scale(c, img))
        return acc

    for images in itertools.product(*candidates):
        ok = True
        for c1, c2 in zip(f1_cols, f2_cols):
            if phi_of(images, c1) != c2:
                ok = False
                break
        if not ok:
            continue
        kernel_size = sum(1 for x in C1.elements() if phi_of(images, x) == C2.zero)
        if kernel_size == 1:
            return True
    return False


# ---------------------------------------------------------------------------
# Witness orders by exhaustive search


def least_coset_order(p: int, N: int) -> int:
    """The least order of 1 + p·c over c ∈ ∏_{n≤N} Z(p^(n−1)), in
    G = ∏_{n≤N} Z(p^n), for p prime and N ≥ 1: the coset 1 + pG searched
    element by element.  Both torsion witnesses range over it, x − p·α and
    the preimages of all-ones under ∏ (Z(p^n) → Z(p)) alike.  A search
    space p^(N(N−1)/2) past WITNESS_SEARCH_BUDGET is refused as it is
    multiplied out, before any element is formed."""
    space = 1
    for n in range(1, N):
        space *= p**n
        if space > WITNESS_SEARCH_BUDGET:
            raise BudgetExceeded("witness search budget exceeded")
    G = ConcreteGroup(tuple(p**n for n in range(1, N + 1)))
    choices = itertools.product(*(range(p ** (n - 1)) for n in range(1, N + 1)))
    return min(G.element_order(tuple(1 + p * c for c in choice)) for choice in choices)
