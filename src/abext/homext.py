"""Hom and Ext^1 groups, extension classes, Baer sums, and the δ map.

Ext^1(A, B) is coordinatized against the canonical free resolution
``0 → Z^k --diag(d)--> Z^k ⊕ Z^r → A → 0`` of the quotient end A: a class is
a tuple of elements b_j ∈ B, one per invariant factor d_j of A, with the
coordinate over the i-th generator of B well defined modulo gcd(d_j, m_i)
(and modulo d_j over free generators).  In this normal form the Baer sum is
literally vector addition, equality is O(1) after reduction, and the split
class is the zero vector.

Ext^1(h, k) acts on these flat slots, slot (j, i) for factor d_j of A and
generator i of B, as one block-sparse map: k acts on each twist, and h : A' → A
(lifted to the resolutions) through the weights σ_s·h[t][s]/τ_t of
``_ext_weights``.  The class actions, the induced maps on carriers, δ, and the
universal module's Ψ/Φ and cyclic check all read these sparse columns; the
geometric pullback/pushout of realized sequences exist alongside and the two
routes are cross-checked in the test suite.

``HomGroup`` and ``ExtGroup`` hold their two ends alone, which equality and
hashing read; the rest is derived on first read and cached.  The ``hom`` and
``ext`` verbs read the carrier alone, counted by runs of equal moduli; the
universal builders read the slot moduli alone; only what reads coordinates
runs ``cyclic_sum``.

Ab is hereditary, so Ext^2 and higher vanish and are not represented.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, DomainError, EndpointMismatch, NotExactSequence
from .intlin import json_int, json_of, json_str, solve_mod_many, torsion_quotient
from .abgroup import (
    MAX_GROUP_DIM,
    _prime_runs,
    AbMap,
    FinGenAb,
    apply_sparse,
    canonicalize,
    cokernel_group,
    cyclic_sum,
    direct_sum,
    is_epi,
    is_mono,
    orders_match,
    pullback,
    pushout,
    sparse_image,
    sparse_sum,
)


# ---------------------------------------------------------------------------
# Hom groups


class _Summed:
    """What HomGroup and ExtGroup derive alike from their ends on first read:
    ``place`` and ``lift`` from one ``cyclic_sum`` of the ``_moduli`` of their
    pieces.  Each counts its ``carrier`` by runs of equal moduli, with no
    piece listed."""

    @cached_property
    def _summed(self):
        return cyclic_sum(self._moduli())

    @property
    def place(self) -> List[Dict[int, int]]:
        return self._summed[1]

    @property
    def lift(self) -> List[Dict[int, int]]:
        return self._summed[2]


@dataclass(frozen=True)
class HomGroup(_Summed):
    """Hom(A, B) from its two ends; the rest is derived (``_Summed``).

    ``pieces`` lists the nontrivial cyclic pieces as tuples
    (source_gen, target_gen, piece_modulus, generator_entry), and the carrier
    is their canonical form.  ``decompose`` and ``recompose`` are mutually
    inverse between maps and carrier coordinates.
    """

    source: FinGenAb
    target: FinGenAb

    @cached_property
    def pieces(self) -> Tuple[Tuple[int, int, int, int], ...]:
        return tuple(hom_pieces(self.source, self.target))

    def _moduli(self) -> List[int]:
        return [g for _, _, g, _ in self.pieces]

    @cached_property
    def carrier(self) -> FinGenAb:
        S, T = self.source, self.target
        return _gcd_sum(S.moduli(), T.invariant_factors, S.free_rank * T.free_rank)

    @property
    def basis(self) -> Tuple[AbMap, ...]:
        return tuple(self.recompose(unit) for unit in _units(len(self.lift)))

    def decompose(self, f: AbMap) -> Tuple[int, ...]:
        if f.source != self.source or f.target != self.target:
            raise EndpointMismatch("map does not belong to this Hom group")
        raw = []
        for (j, i, g, entry) in self.pieces:
            c = f.cols[j].get(i, 0) // entry
            raw.append(c % g if g else c)
        return self.carrier.reduce(apply_sparse(self.place, raw, self.carrier.dim))

    def recompose(self, coords: Sequence[int]) -> AbMap:
        raw = apply_sparse(self.lift, coords, len(self.pieces))
        cols: List[Dict[int, int]] = [{} for _ in range(self.source.dim)]
        for (j, i, g, entry), c in zip(self.pieces, raw):
            cols[j][i] = c * entry
        return AbMap(self.source, self.target, cols)


def _units(n: int):
    for k in range(n):
        yield tuple(1 if t == k else 0 for t in range(n))


def hom_pieces(A: FinGenAb, B: FinGenAb) -> List[Tuple[int, int, int, int]]:
    """Nontrivial cyclic pieces (source_gen, target_gen, modulus, entry) of Hom(A, B).

    The piece's generator sends source generator j to ``entry`` times target
    generator i; a modulus of 0 marks an infinite piece.  Past MAX_GROUP_DIM
    pairs of generators, nothing is listed.
    """
    _refuse_past(A.dim, B.dim, "Hom pieces")
    pieces = []
    for j, mj in enumerate(A.moduli()):
        for i, ni in enumerate(B.moduli()):
            if mj == 0 and ni == 0:
                pieces.append((j, i, 0, 1))
            elif mj == 0:
                pieces.append((j, i, ni, 1))
            elif ni == 0:
                continue  # Hom(Z(d), Z) = 0
            else:
                g = math.gcd(mj, ni)
                if g > 1:
                    pieces.append((j, i, g, ni // g))
    return pieces


def hom_group(A: FinGenAb, B: FinGenAb) -> HomGroup:
    """Hom(A, B) ≅ ⊕ over generator pairs of cyclic pieces, refused past
    MAX_GROUP_DIM pairs of generators before anything is computed."""
    _refuse_past(A.dim, B.dim, "Hom pieces")
    return HomGroup(A, B)


def _gcd_sum(left: Sequence[int], right: Sequence[int], free: int) -> FinGenAb:
    """Z^free ⊕ ⊕ Z(gcd(m, n)) over every pair of a modulus m in ``left`` and
    n in ``right``, not both 0, in canonical form.  Equal moduli are taken as
    one run with its count, so the work is per pair of distinct moduli, and
    the factors are ``cyclic_sum``'s."""
    counts: Dict[int, int] = {}
    runs = Counter(right)
    for m, a in Counter(left).items():
        for n, b in runs.items():
            g = math.gcd(m, n)
            if g > 1:
                counts[g] = counts.get(g, 0) + a * b
    return FinGenAb(free, tuple(_prime_runs(counts)[0]))


def _refuse_past(n: int, k: int, what: str) -> None:
    """Refuse n x k pieces past MAX_GROUP_DIM, before any is listed."""
    if n * k > MAX_GROUP_DIM:
        raise BudgetExceeded(f"{n} x {k} {what} exceed {MAX_GROUP_DIM}")


# ---------------------------------------------------------------------------
# Ext groups and classes


@dataclass(frozen=True)
class ExtGroup(_Summed):
    """Ext^1(A, B) from its two ends; the rest is derived (``_Summed``).

    Flat coordinates have one slot per (torsion factor d_j of A, generator i
    of B); slot modulus is gcd(d_j, m_i), with gcd(d, 0) read as d, so every
    slot is finite.  The carrier is the canonical form of the direct sum of
    the slots.  The universal builders read ``piece_mods`` alone.
    """

    A: FinGenAb
    B: FinGenAb

    @cached_property
    def piece_mods(self) -> Tuple[int, ...]:
        return ext_pieces(self.A, self.B)

    def _moduli(self) -> Tuple[int, ...]:
        return self.piece_mods

    @cached_property
    def carrier(self) -> FinGenAb:
        return _gcd_sum(self.A.invariant_factors, self.B.moduli(), 0)

    @property
    def group(self) -> FinGenAb:
        return self.carrier

    def order(self) -> int:
        return math.prod(self.piece_mods)

    def zero(self) -> "ExtClass":
        return ExtClass(self.A, self.B, (0,) * len(self.piece_mods))

    def to_carrier(self, cls: "ExtClass") -> Tuple[int, ...]:
        return self.carrier.reduce(apply_sparse(self.place, cls.coords, self.carrier.dim))

    def from_carrier(self, coords: Sequence[int]) -> "ExtClass":
        return ExtClass(self.A, self.B, apply_sparse(self.lift, coords, len(self.piece_mods)))  # reduced there

    def classes(self) -> Iterator["ExtClass"]:
        """All classes, lexicographic on normal-form coordinates (reduced by construction)."""
        for combo in itertools.product(*(range(g) for g in self.piece_mods)):
            yield _reduced_class(self.A, self.B, combo)


# Every ExtClass reduces its coordinates by these moduli, and the universal
# builders make hundreds of classes over the same pair.
@lru_cache(maxsize=256)
def ext_pieces(A: FinGenAb, B: FinGenAb) -> Tuple[int, ...]:
    mods = []
    for d in A.invariant_factors:
        for m in B.moduli():
            mods.append(math.gcd(d, m) if m else d)
    return tuple(mods)


def ext_group(A: FinGenAb, B: FinGenAb) -> ExtGroup:
    """Ext^1(A, B) = ⊕_j B/d_jB over the invariant factors of A, refused
    past MAX_GROUP_DIM slots (d_j, generator of B) before any is listed."""
    _refuse_past(A.torsion_count, B.dim, "Ext slots")
    return ExtGroup(A, B)


@dataclass(frozen=True)
class ExtClass:
    """Element of Ext^1(A, B) in normal form (split class = all zeros)."""

    A: FinGenAb
    B: FinGenAb
    coords: Tuple[int, ...]

    def __post_init__(self):
        mods = ext_pieces(self.A, self.B)
        if len(self.coords) != len(mods):
            raise DomainError("ExtClass coordinate length mismatch")
        object.__setattr__(
            self, "coords", tuple(v % g if g else v for v, g in zip(self.coords, mods))
        )

    def twists(self) -> List[Tuple[int, ...]]:
        """Every twist in order: the j-th is the j-th block of dim B coordinates, an element of B."""
        n = self.B.dim
        return list(zip(*[iter(self.coords)] * n)) if n else [()] * self.A.torsion_count

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "ExtClass") -> "ExtClass":
        if self.A != other.A or self.B != other.B:
            raise EndpointMismatch("Baer sum endpoint mismatch")
        return ExtClass(self.A, self.B, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ExtClass":
        return ExtClass(self.A, self.B, tuple(-c for c in self.coords))

    def __sub__(self, other: "ExtClass") -> "ExtClass":
        return self + (-other)

    def to_json(self) -> dict:
        return {
            "A": self.A.to_json(),
            "B": self.B.to_json(),
            "coords": [json_str(c) for c in self.coords],
        }

    @staticmethod
    def from_json(data: dict) -> "ExtClass":
        data = json_of(dict, data)
        return ExtClass(
            FinGenAb.from_json(data["A"]),
            FinGenAb.from_json(data["B"]),
            tuple(json_int(c) for c in json_of(list, data["coords"])),
        )


def _reduced_class(A: FinGenAb, B: FinGenAb, coords: Tuple[int, ...]) -> ExtClass:
    """The ExtClass of coordinates already in normal form, not reduced again."""
    cls = object.__new__(ExtClass)
    cls.__dict__.update(A=A, B=B, coords=coords)
    return cls


# ---------------------------------------------------------------------------
# Short exact sequences


@dataclass(frozen=True)
class ShortExactSeq:
    """B ↪ E ↠ A with exactness machine-checked at construction.

    Exactness is decided as g∘f = 0, f mono, g epi and coker f ≅ A: then g
    induces an epimorphism coker f ↠ A, and finitely generated abelian groups
    are Hopfian, so that epimorphism is an isomorphism and im f = ker g.  For
    a finite middle group coker f ≅ A is |E| = |A|·|B|, compared prime by
    prime (``orders_match``); otherwise coker f is read off invariant factors
    (``cokernel_group``).  Mono and epi are per-prime F_p ranks over every
    generator of E.

    Every constructor runs this check but one: ``realize`` with a finite
    middle proves the same exactness through the presentation it built (see
    there) and constructs its sequence with ``_certified_seq``.
    """

    f: AbMap
    g: AbMap

    def __post_init__(self):
        f, g = self.f, self.g
        if f.target != g.source:
            raise NotExactSequence("middle objects disagree")
        amods = g.target.moduli()
        if not all(_vanishes(sparse_image(g.cols, col), amods) for col in f.cols):  # g ∘ f, no map built
            raise NotExactSequence("g ∘ f is not zero")
        if not is_mono(f):
            raise NotExactSequence("f is not a monomorphism")
        if not is_epi(g):
            raise NotExactSequence("g is not an epimorphism")
        B, E, A = f.source, f.target, g.target
        if E.is_finite():
            if not orders_match(E, (A, B)):
                raise NotExactSequence("middle order is not |A|·|B|")
        elif cokernel_group(f.cols, E.moduli()) != A:
            raise NotExactSequence("kernel of g not contained in image of f")

    @property
    def sub(self) -> FinGenAb:
        return self.f.source

    @property
    def middle(self) -> FinGenAb:
        return self.f.target

    @property
    def quot(self) -> FinGenAb:
        return self.g.target

    def to_json(self) -> dict:
        return {"f": self.f.to_json(), "g": self.g.to_json()}

    @staticmethod
    def from_json(data: dict) -> "ShortExactSeq":
        data = json_of(dict, data)
        return ShortExactSeq(AbMap.from_json(data["f"]), AbMap.from_json(data["g"]))


def _certified_seq(f: AbMap, g: AbMap) -> ShortExactSeq:
    """The sequence of legs whose exactness the caller has proved, not checked again."""
    seq = object.__new__(ShortExactSeq)
    seq.__dict__.update(f=f, g=g)
    return seq


def realize(c: ExtClass) -> ShortExactSeq:
    """An explicit B ↪ E ↠ A whose class is c.

    E is presented as P, on B's generators e_i plus one lift t_j per
    generator a_j of A, with relations m_i·e_i = 0 and, for the torsion
    lifts, d_j·t_j = Σ_i b_ji·e_i, where b_j is the j-th twist.  Repeats
    split off before anything is canonicalized, by two unimodular changes of
    basis on (e, t) that commute:

    - lifts t_j, t_k with equal (d, twist row) differ by t_k − t_j, of order
      d, which splits off as Z(d) with g(t_k − t_j) = a_k − a_j; free lifts
      carry no twist, so all but the first split off as Z;
    - generators of B with equal (modulus, twist column) share every
      relation: each one after the first splits off as Z(m), and their sum
      σ takes the first one's place.  Every dropped row repeats a kept one,
      so columns are compared on the kept rows.

    Only the core of first occurrences (the σ's and the first lifts) is
    canonicalized, and ``cyclic_sum`` regroups it with the split summands
    by prime; with no repeats E is the core itself.  This keeps the
    universal (co)extensions small: their |X|·dim B slots share a handful of
    twists.  When A and B are finite the core is finite, and
    ``torsion_quotient`` eliminates it one prime at a time, e_i modulo m_i
    and t_j modulo d_j·exp B (a multiple of its order): its prime-power
    summands go to ``cyclic_sum`` as they are, and its coordinates hold
    modulo the moduli, which is all E and the checks below read.  A free
    end keeps ``canonicalize``, exact over Z.

    The legs are f(e_i) and g, and ψ : P → E sends e_i ↦ f(e_i) and t_j ↦
    ℓ_j, the lift of a_j: a core generator goes to its core image (σ to the
    sum of its group's f(e_i), a first f(e_i) being its core image minus its
    group's splits), and a later lift to ℓ_j0 + s_j, with s_j its own split
    summand's generator.  Nothing the eliminations return is trusted:

    - ψ is well defined.  f is a checked ``AbMap``, so m_i·f(e_i) = 0, and
      each torsion lift is checked: g(ℓ_j) = a_j and d_j·ℓ_j = f(b_j).  A
      kept lift is checked on core images, since b_j is constant on each
      group of B's generators, so f(b_j) = Σ b_jσ·σ's image.  A later lift
      has d_j = d_j0 and b_j = b_j0, so by linearity it passes iff
      g(s_j) = a_j − a_j0 and d_j·s_j = 0, read off s_j's own cells.
    - With E finite, ψ is onto.  Each core summand's place in E is its
      ``torsion_quotient`` lift applied to the core images, each split
      summand is a ψ-image by construction, and each generator of E is its
      ``cyclic_sum`` lift applied to the summands' places.
    - |P| = Π m_i·Π d_j, the determinant of its triangular relations, which
      is |B|·|A|; ``orders_match`` checks |E| against it.

    So ψ is an isomorphism.  B's generators span a copy of B in P, with
    quotient A, so f is mono, and with g∘f = 0 (checked) g∘ψ is that
    quotient, so g is epi with kernel im f.  This replaces
    ``ShortExactSeq``'s F_p ranks over every generator of E; a free end
    takes that generic check.
    """
    A, B = c.A, c.B
    nB, bmods = B.dim, B.moduli()
    twists = c.twists()
    tfirst = _firsts(list(zip(A.invariant_factors, twists)) + [(0, ())] * A.free_rank)
    kept_rows = [j for j in range(A.torsion_count) if tfirst[j] == j]
    efirst = _firsts(list(zip(bmods, zip(*(twists[j] for j in kept_rows)) if kept_rows else [()] * nB)))
    core_e = [i for i, first in enumerate(efirst) if first == i]
    core_t = [j for j, first in enumerate(tfirst) if first == j]
    esplit = [i for i, first in enumerate(efirst) if first != i]
    tsplit = [j for j, first in enumerate(tfirst) if first != j]

    # The core presents E on the first generators of B, then the first lifts.
    ce = {i: k for k, i in enumerate(core_e)}
    ct = {j: len(core_e) + k for k, j in enumerate(core_t)}
    rels = []
    for j in kept_rows:
        b = twists[j]
        rel = {ce[i]: -b[i] for i in core_e if b[i]}
        rel[ct[j]] = A.invariant_factors[j]
        rels.append(rel)
    colmods = [bmods[i] for i in core_e]
    if A.is_finite() and B.is_finite():  # each lift's order divides d_j·exp B
        expB = math.lcm(*colmods)
        cmods, placec, liftc = torsion_quotient(rels, colmods + [A.invariant_factors[j] * expB for j in core_t])
    else:
        core, placec, liftc = canonicalize([{k: m} for k, m in enumerate(colmods) if m] + rels, len(ce) + len(ct))
        cmods = list(core.moduli())
    amods = A.moduli()
    E, place, lift = cyclic_sum(cmods + [bmods[i] for i in esplit] + [amods[j] for j in tsplit])
    nc = len(cmods)
    # Each core generator's image in E, ψ of it, is its core coordinates placed in E.
    img = [sparse_image(place, vec) for vec in placec]
    esplit_at = {i: place[nc + k] for k, i in enumerate(esplit)}
    tsplit_at = {j: place[nc + len(esplit) + k] for k, j in enumerate(tsplit)}

    # f sends a later generator to its own split, and a first one to its core
    # image minus its group's splits.
    fcols = [esplit_at[i] if i in esplit_at else dict(img[ce[i]]) for i in range(nB)]
    for i in esplit:
        col = fcols[efirst[i]]
        for k, x in esplit_at[i].items():
            col[k] = col.get(k, 0) - x
    # g reads a core generator's lift on the core lifts; a split of B maps to
    # 0 and a split lift t_k − t_j to a_k − a_j.
    ne = len(core_e)
    gimg = [{core_t[i - ne]: x for i, x in vec.items() if i >= ne} for vec in liftc]
    gimg += [{}] * len(esplit) + [{j: 1, tfirst[j]: -1} for j in tsplit]
    gcols = [sparse_image(gimg, row) for row in lift]

    emods, dA = E.moduli(), A.invariant_factors
    for j in kept_rows:
        v, d, b = img[ct[j]], dA[j], twists[j]
        hit = sparse_sum([(1, sparse_image(gcols, v)), (-1, {j: 1})])
        twist = sparse_sum([(d, v)] + [(-b[i], img[ce[i]]) for i in core_e if b[i]])
        if not (_vanishes(hit, amods) and _vanishes(twist, emods)):
            raise DomainError(_BROKEN_LIFT)
    for j in tsplit:
        if j >= len(dA):  # free lifts come last and carry no relation
            break
        d, hit = dA[j], {j: -1, tfirst[j]: 1}
        for k, x in tsplit_at[j].items():
            m = emods[k]
            if d * x % m if m else x:
                raise DomainError(_BROKEN_LIFT)
            for a, y in gcols[k].items():
                hit[a] = hit.get(a, 0) + x * y
        if not _vanishes(hit, amods):
            raise DomainError(_BROKEN_LIFT)
    f, g = AbMap(B, E, fcols), AbMap(E, A, gcols)
    if not E.is_finite():
        return ShortExactSeq(f, g)
    # g∘ψ kills B's generators: σ's image is the sum of its group's f(e_i),
    # and a split of B is its own f(e_i).
    for v in itertools.chain(img[:ne], esplit_at.values()):
        if not _vanishes(sparse_image(gcols, v), amods):
            raise DomainError(_NOT_EXACT)
    for s in range(nc):  # the core summands are ψ-images
        if not _vanishes(sparse_sum([(1, sparse_image(img, liftc[s])), (-1, place[s])]), emods):
            raise DomainError(_NOT_EXACT)
    for k, row in enumerate(lift):  # and so is every generator of E
        if len(row) == 1:  # one summand, placed as a unit at k alone
            ((s, x),) = row.items()
            at = place[s]
            if len(at) == 1 and at.get(k, 0) * x % emods[k] == 1:
                continue
        v = sparse_image(place, row)
        v[k] = v.get(k, 0) - 1
        if not _vanishes(v, emods):
            raise DomainError(_NOT_EXACT)
    if not orders_match(E, (A, B)):
        raise DomainError(_NOT_EXACT)
    return _certified_seq(f, g)


_BROKEN_LIFT = "realize: a lift ℓ breaks g(ℓ) = a or d·ℓ = f(b)"
_NOT_EXACT = "realize: ψ is not an isomorphism onto E with g∘ψ the quotient onto A"


def _firsts(keys: Sequence) -> List[int]:
    """For each key, the index of its first occurrence."""
    seen: Dict[object, int] = {}
    return [seen.setdefault(key, i) for i, key in enumerate(keys)]


def _vanishes(vec: Dict[int, int], mods: Sequence[int]) -> bool:
    for i, x in vec.items():  # a plain loop costs less than any() over a generator
        if x % mods[i] if mods[i] else x:
            return False
    return True


def classify(s: ShortExactSeq) -> ExtClass:
    """Normal-form class of a short exact sequence (inverse of realize)."""
    if not isinstance(s, ShortExactSeq):
        raise NotExactSequence("classify expects a validated ShortExactSeq")
    B, E, A = s.sub, s.middle, s.quot
    units = [{j: 1} for j in range(A.torsion_count)]
    lifts = solve_mod_many(s.g.cols, units, A.moduli())
    if None in lifts:
        raise NotExactSequence("quotient map is not surjective")
    scaled = [{i: d * xi for i, xi in enumerate(x) if xi} for d, x in zip(A.invariant_factors, lifts)]
    descents = solve_mod_many(s.f.cols, scaled, E.moduli())
    if None in descents:
        raise NotExactSequence("d·lift does not land in the subobject")
    return ExtClass(A, B, tuple(itertools.chain.from_iterable(descents)))


# ---------------------------------------------------------------------------
# Actions on flat slots


def _ext_weights(cols: Sequence[Dict[int, int]], sig: Sequence[int], tau: Sequence[int]) -> List[Dict[int, int]]:
    """Ext^1(h, ·) on twists for h with sparse columns ``cols`` from generators
    of orders ``sig`` (0: free) to a group of torsion factors ``tau``: the
    column over torsion generator t holds σ_s·h[t][s]/τ_t at s, exact since h
    is well defined.  Free generators have no twist, so they carry no weight."""
    out: List[Dict[int, int]] = [{} for _ in tau]
    for s, (col, d) in enumerate(zip(cols, sig)):
        if d:
            for t, x in col.items():
                if t < len(tau):
                    out[t][s] = d * x // tau[t]
    return out


def _pullback_slots(h: AbMap, B: FinGenAb) -> List[Dict[int, int]]:
    """Ext^1(h, B) for h : A' → A on flat slots: slot (t, i) goes to
    Σ_s w[t][s]·(s, i), w the ``_ext_weights`` of h."""
    n = B.dim
    w = _ext_weights(h.cols, h.source.invariant_factors, h.target.invariant_factors)
    return [{s * n + i: x for s, x in col.items()} for col in w for i in range(n)]


def _pushout_slots(A: FinGenAb, k: AbMap) -> List[Dict[int, int]]:
    """Ext^1(A, k) for k : B → B' on flat slots: slot (j, i) goes to Σ k[i'][i]·(j, i')."""
    n = k.target.dim
    return [{j * n + t: x for t, x in col.items()} for j in range(A.torsion_count) for col in k.cols]


def _pullback_pieces(c: ExtClass, H: HomGroup) -> List[Dict[int, int]]:
    """c·h for each piece h = (j, i, g, entry) of H = Hom(A', A) as a sparse
    flat vector: h's weight times c's i-th twist, in block j."""
    n, sig = c.B.dim, H.source.moduli()
    w = _ext_weights([{i: entry} for _, i, _, entry in H.pieces], [sig[j] for j, *_ in H.pieces], c.A.invariant_factors)
    out: List[Dict[int, int]] = [{} for _ in H.pieces]
    for col, twist in zip(w, c.twists()):
        for k, x in col.items():
            base = H.pieces[k][0] * n
            out[k] = {base + b: x * y for b, y in enumerate(twist) if y}
    return out


def _pushout_pieces(c: ExtClass, H: HomGroup) -> List[Dict[int, int]]:
    """h·c for each piece h = (j, i, g, entry) of H = Hom(B, B') as a sparse
    flat vector: entry times c's cell at generator j of B, at generator i of
    B' in every twist."""
    n, twists = H.target.dim, c.twists()
    return [{a * n + i: entry * tw[j] for a, tw in enumerate(twists) if tw[j]} for j, i, _, entry in H.pieces]


def _carrier_map(G: HomGroup | ExtGroup, cols: Sequence[Dict[int, int]], X: ExtGroup) -> AbMap:
    """The map from G's carrier whose generator v, ``G.lift[v]`` on G's Hom
    pieces or Ext slots, goes through the sparse columns ``cols`` to X's flat
    slots, placed in X's carrier."""
    return AbMap(G.carrier, X.carrier, [sparse_image(X.place, sparse_image(cols, v)) for v in G.lift])


def pullback_action(c: ExtClass, h: AbMap) -> ExtClass:
    """η·h for h : A' → A, the flat-slot map ``_pullback_slots`` applied to η."""
    if h.target != c.A:
        raise EndpointMismatch("pullback action endpoint mismatch")
    n = h.source.torsion_count * c.B.dim
    return ExtClass(h.source, c.B, tuple(apply_sparse(_pullback_slots(h, c.B), c.coords, n)))


def pushout_action(c: ExtClass, k: AbMap) -> ExtClass:
    """k·η for k : B → B', the flat-slot map ``_pushout_slots`` applied to η."""
    if k.source != c.B:
        raise EndpointMismatch("pushout action endpoint mismatch")
    n = c.A.torsion_count * k.target.dim
    return ExtClass(c.A, k.target, tuple(apply_sparse(_pushout_slots(c.A, k), c.coords, n)))


def seq_pullback(s: ShortExactSeq, h: AbMap) -> ShortExactSeq:
    """Geometric pullback of B ↪ E ↠ A along h : A' → A."""
    if h.target != s.quot:
        raise EndpointMismatch("sequence pullback endpoint mismatch")
    pb = pullback(s.g, h)
    zero = AbMap.zero(s.sub, h.source)
    fprime = pb.mediator(s.f, zero)
    return ShortExactSeq(fprime, pb.right)


def seq_pushout(s: ShortExactSeq, k: AbMap) -> ShortExactSeq:
    """Geometric pushout of B ↪ E ↠ A along k : B → B'."""
    if k.source != s.sub:
        raise EndpointMismatch("sequence pushout endpoint mismatch")
    po = pushout(s.f, k)
    zero = AbMap.zero(k.target, s.quot)
    gprime = po.mediator(s.g, zero)
    return ShortExactSeq(po.right, gprime)


def ses_direct_sum(seqs: Sequence[ShortExactSeq]):
    """⊕ of sequences, with the three biproduct diagrams."""
    ds_sub = direct_sum([s.sub for s in seqs])
    ds_mid = direct_sum([s.middle for s in seqs])
    ds_quot = direct_sum([s.quot for s in seqs])
    f = AbMap.zero(ds_sub.total, ds_mid.total)
    g = AbMap.zero(ds_mid.total, ds_quot.total)
    for i, s in enumerate(seqs):
        f = f + ds_mid.injections[i] @ s.f @ ds_sub.projections[i]
        g = g + ds_quot.injections[i] @ s.g @ ds_mid.projections[i]
    return ShortExactSeq(f, g), ds_sub, ds_mid, ds_quot


# ---------------------------------------------------------------------------
# Connecting morphism and induced maps


def connecting_hom(s: ShortExactSeq, T: FinGenAb) -> AbMap:
    """δ : Hom(T, A) → Ext^1(T, B) for B ↪ E ↠ A, δ(h) = classify(s)·h."""
    cls = classify(s)
    H = hom_group(T, s.quot)
    return _carrier_map(H, _pullback_pieces(cls, H), ext_group(T, s.sub))


def connecting_hom_dual(s: ShortExactSeq, T: FinGenAb) -> AbMap:
    """δ : Hom(B, T) → Ext^1(A, T) for B ↪ E ↠ A, δ(h) = h·classify(s)."""
    cls = classify(s)
    H = hom_group(s.sub, T)
    return _carrier_map(H, _pushout_pieces(cls, H), ext_group(s.quot, T))


def ext_covariant_map(T: FinGenAb, h: AbMap) -> AbMap:
    """Ext^1(T, h) : Ext^1(T, B) → Ext^1(T, B') on carriers, for h : B → B'."""
    XS = ext_group(T, h.source)
    return _carrier_map(XS, _pushout_slots(T, h), ext_group(T, h.target))


def ext_contravariant_map(h: AbMap, T: FinGenAb) -> AbMap:
    """Ext^1(h, T) : Ext^1(A, T) → Ext^1(A', T) on carriers, for h : A' → A."""
    XS = ext_group(h.target, T)
    return _carrier_map(XS, _pullback_slots(h, T), ext_group(h.source, T))


# ---------------------------------------------------------------------------
# Equivalence of sequences


def find_equivalence(s1: ShortExactSeq, s2: ShortExactSeq) -> Optional[AbMap]:
    """Middle iso commuting with both legs, found by solving a linear system.

    By the five lemma any commuting middle map between sequences with the
    same ends is an isomorphism, so only existence is searched.
    """
    if s1.sub != s2.sub or s1.quot != s2.quot:
        return None
    E1, E2 = s1.middle, s2.middle
    n1, n2 = E1.dim, E2.dim
    mods2 = E2.moduli()
    amods = s1.quot.moduli()

    def var(i, j):
        return i * n1 + j

    # The system in the map's sparse columns: one column per unknown φ[i][j],
    # {equation: coefficient}, equations numbered as they are stated.
    cols: List[Dict[int, int]] = [{} for _ in range(n1 * n2)]
    rhs: Dict[int, int] = {}
    rmods: List[int] = []

    def equation(cells, b, modulus):
        r = len(rmods)
        for v, x in cells:
            cols[v][r] = x
        if b:
            rhs[r] = b
        rmods.append(modulus)

    for j, mj in enumerate(E1.moduli()):  # φ is well defined: m_j·φ(e_j) = 0
        if mj:
            for i in range(n2):
                equation([(var(i, j), mj)], 0, mods2[i])
    for f1, f2 in zip(s1.f.cols, s2.f.cols):  # φ ∘ f1 = f2
        for i in range(n2):
            equation([(var(i, j), x) for j, x in f1.items()], f2.get(i, 0), mods2[i])
    g2rows: List[Dict[int, int]] = [{} for _ in amods]
    for i, col in enumerate(s2.g.cols):
        for a, x in col.items():
            g2rows[a][i] = x
    for j, g1 in enumerate(s1.g.cols):  # g2 ∘ φ = g1
        for a, row in enumerate(g2rows):
            equation([(var(i, j), x) for i, x in row.items()], g1.get(a, 0), amods[a])
    sol = solve_mod_many(cols, [rhs], rmods)[0]
    if sol is None:
        return None
    phi = AbMap(E1, E2, [{i: sol[var(i, j)] for i in range(n2)} for j in range(n1)])
    if not (is_mono(phi) and is_epi(phi)):
        raise DomainError("commuting middle map is not an isomorphism")
    return phi


def ses_equivalent(s1: ShortExactSeq, s2: ShortExactSeq) -> bool:
    return find_equivalence(s1, s2) is not None
