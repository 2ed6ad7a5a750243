"""Universal extensions and co-extensions with verified certificates.

The canonical universal extension of B by A takes X = Ext^1(B, A) (the full
lexicographic enumeration of classes) and realizes the class whose pullback
along each inclusion μ_x is the x-th class; dually for co-extensions with
the diagonal and projections.  A certificate records the sequence plus
independent verdicts for the three equivalent defining conditions:

  (a) Ext^1(B, u) is zero,
  (b) Ext^1(B, p) is injective,
  (c) the connecting morphism δ : Hom(B, B^(X)) → Ext^1(B, A) is surjective,

and their duals for co-extensions.  Any disagreement between the verdicts is
a build failure.

Both builders realize the class directly from stacked coordinates, since Ext
over a finite coproduct is blockwise.  Slots of B^(X) (resp. B^X) with the
same twist differ by a generator of their own order, so all but the first
slot of each twist split off as Z(d) summands (Z for free slots) and only a
tiny core is canonicalized, even when |X| runs into the hundreds; the pieces
are then regrouped by prime into invariant factors.  Each build
machine-checks the componentwise pullback (resp. pushout) identities on its
result.

The paper's literal constructions stay as references: ``psi_inverse_via_colim``
pushes the coproduct of realizations out along the codiagonal (Ψ^{-1}) and
``phi_inverse_via_lim`` pulls their product back along the diagonal
(Φ^{-1}).  With ``verify_extension_conditions`` and
``verify_coextension_conditions`` they audit the builders independently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, DomainError, UnsupportedInstance
from .intlin import IntMatrix, solve_mod
from .abgroup import (
    AbMap,
    FinGenAb,
    SumDiagram,
    ZERO_GROUP,
    canonicalize,
    cyclic_sum,
    dense_matrix,
    direct_sum,
    is_epi,
    is_epi_mod,
    is_mono,
    is_mono_mod,
    pullback,
    pushout,
    sparse_sum,
)
from .homext import (
    ExtClass,
    ExtGroup,
    ShortExactSeq,
    classify,
    connecting_hom,
    connecting_hom_dual,
    ext_covariant_map,
    ext_contravariant_map,
    ext_group,
    hom_group,
    hom_pieces,
    pullback_action,
    pushout_action,
    realize,
    ses_direct_sum,
)

# End(B^(X)) has dim^2 generating pieces; beyond this the dense hom-group
# bookkeeping stops being reasonable and the check refuses rather than crawl.
CYCLIC_CHECK_BUDGET = 1024


# ---------------------------------------------------------------------------
# Psi / Phi comparison maps


@dataclass(frozen=True)
class ComparisonMap:
    """Ψ : Ext^1(⊕A_i, B) → ∏ Ext^1(A_i, B), ε ↦ (ε·μ_i), or dually
    Φ : Ext^1(B, ∏A_i) → ∏ Ext^1(B, A_i), ε ↦ (π_i·ε)."""

    summands: Tuple[FinGenAb, ...]
    B: FinGenAb
    domain: ExtGroup
    codomain: SumDiagram
    matrix: AbMap
    injective: bool
    bijective: bool


def psi(A_list: Sequence[FinGenAb], B: FinGenAb) -> ComparisonMap:
    return _comparison(A_list, B, dual=False)


def phi(A_list: Sequence[FinGenAb], B: FinGenAb) -> ComparisonMap:
    return _comparison(A_list, B, dual=True)


def _comparison(A_list: Sequence[FinGenAb], B: FinGenAb, dual: bool) -> ComparisonMap:
    """Ψ pulls back along the injections μ_i; Φ, with the summands in Ext's
    second argument, pushes out along the projections π_i."""
    summands = tuple(A_list)
    ds = direct_sum(summands)
    if dual:
        ext, legs, act = (lambda Ai: ext_group(B, Ai)), ds.projections, pushout_action
    else:
        ext, legs, act = (lambda Ai: ext_group(Ai, B)), ds.injections, pullback_action
    dom = ext(ds.total)
    pieces = [ext(Ai) for Ai in summands]
    cod = direct_sum([pc.carrier for pc in pieces])
    basis = dom.basis_classes()
    mat = AbMap.zero(dom.carrier, cod.total)
    for pc, leg, mu in zip(pieces, legs, cod.injections):
        cols = [pc.to_carrier(act(cls, leg)) for cls in basis]
        block = IntMatrix.from_columns(cols, pc.carrier.dim)
        mat = mat + mu @ AbMap(dom.carrier, pc.carrier, block)
    inj = is_mono(mat)
    bij = inj and is_epi(mat)
    return ComparisonMap(summands, B, dom, cod, mat, inj, bij)


def psi_inverse_via_colim(classes: Sequence[ExtClass]) -> ShortExactSeq:
    """Ψ^{-1}((η_i)) = ∇·(⊕η_i): pushout of the coproduct along the codiagonal.

    All classes must share their sub end A.  The result is machine-checked:
    pulling back along each μ_i reproduces the input classes.
    """
    classes = list(classes)
    if not classes:
        raise DomainError("psi_inverse_via_colim needs at least one class")
    A = classes[0].B
    if any(c.B != A for c in classes):
        raise DomainError("classes must share their sub end")
    seqs = [realize(c) for c in classes]
    big, ds_sub, _ds_mid, ds_quot = ses_direct_sum(seqs)
    nabla = ds_sub.projections[0]
    for pi in ds_sub.projections[1:]:
        nabla = nabla + pi
    po = pushout(big.f, nabla)
    g_eta = po.mediator(big.g, AbMap.zero(A, big.quot))
    seq = ShortExactSeq(po.right, g_eta)
    got = classify(seq)
    for i, c in enumerate(classes):
        if pullback_action(got, ds_quot.injections[i]) != c:
            raise DomainError("Ψ of the constructed sequence does not reproduce the inputs")
    return seq


def phi_inverse_via_lim(classes: Sequence[ExtClass]) -> ShortExactSeq:
    """Φ^{-1}((γ_i)) = (⊕γ_i)·Δ: pullback of the product along the diagonal.

    All classes must share their quotient end A.  The result is
    machine-checked: pushing out along each π_i reproduces the input classes.
    """
    classes = list(classes)
    if not classes:
        raise DomainError("phi_inverse_via_lim needs at least one class")
    A = classes[0].A
    if any(c.A != A for c in classes):
        raise DomainError("classes must share their quotient end")
    seqs = [realize(c) for c in classes]
    big, ds_sub, _ds_mid, ds_quot = ses_direct_sum(seqs)
    delta = ds_quot.injections[0]
    for mu in ds_quot.injections[1:]:
        delta = delta + mu
    pb = pullback(big.g, delta)
    fprime = pb.mediator(big.f, AbMap.zero(big.sub, A))
    seq = ShortExactSeq(fprime, pb.right)
    got = classify(seq)
    for i, c in enumerate(classes):
        if pushout_action(got, ds_sub.projections[i]) != c:
            raise DomainError("Φ of the constructed sequence does not reproduce the inputs")
    return seq


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class UniversalCertificate:
    """Constructed (co)extension plus verdicts for the defining conditions."""

    direction: str  # "extension" | "coextension"
    B: FinGenAb
    A: FinGenAb
    X: Tuple[ExtClass, ...]
    sequence: ShortExactSeq
    canonical_class: Optional[ExtClass]
    degenerate: bool
    condition_a: ConditionReport
    condition_b: ConditionReport
    condition_c: ConditionReport

    @property
    def all_pass(self) -> bool:
        return self.condition_a.passed and self.condition_b.passed and self.condition_c.passed

    def conditions_agree(self) -> bool:
        return self.condition_a.passed == self.condition_b.passed == self.condition_c.passed

    def to_json(self, include_sequence: bool = False) -> dict:
        out = {
            "direction": self.direction,
            "B": self.B.to_json(),
            "A": self.A.to_json(),
            "X_size": len(self.X),
            "middle": self.sequence.middle.to_json(),
            "degenerate": self.degenerate,
            "conditions": {
                r.name: {"passed": r.passed, "detail": r.detail}
                for r in (self.condition_a, self.condition_b, self.condition_c)
            },
        }
        if include_sequence:
            out["sequence"] = self.sequence.to_json()
            if self.canonical_class is not None:
                out["class"] = self.canonical_class.to_json()
        return out


def _require_finite_ext(ext: ExtGroup):
    if any(g == 0 for g in ext.piece_mods):
        raise UnsupportedInstance("Ext group has an infinite carrier")


def verify_extension_conditions(seq: ShortExactSeq, B: FinGenAb):
    """Generic verdicts for Def. of universal extension on A ↪ E ↠ B^(X)."""
    u, p = seq.f, seq.g
    ma = ext_covariant_map(B, u)
    ra = ConditionReport("a", ma.is_zero(), "Ext^1(B,u) on Ext^1(B,A) basis")
    mb = ext_covariant_map(B, p)
    rb = ConditionReport("b", is_mono(mb), "Ext^1(B,p) kernel triviality")
    delta = connecting_hom(seq, B)
    rc = ConditionReport("c", is_epi(delta), "connecting δ: Hom(B,B^(X)) → Ext^1(B,A)")
    return ra, rb, rc


def verify_coextension_conditions(seq: ShortExactSeq, B: FinGenAb):
    """Generic verdicts for the dual conditions on B^X ↪ E ↠ A."""
    p, u = seq.f, seq.g
    ma = ext_contravariant_map(u, B)
    ra = ConditionReport("a", ma.is_zero(), "Ext^1(u,B) on Ext^1(A,B) basis")
    mb = ext_contravariant_map(p, B)
    rb = ConditionReport("b", is_mono(mb), "Ext^1(p,B) kernel triviality")
    delta = connecting_hom_dual(seq, B)
    rc = ConditionReport("c", is_epi(delta), "connecting δ: Hom(B^X,B) → Ext^1(A,B)")
    return ra, rb, rc


def _degenerate_certificate(direction: str, B: FinGenAb, A: FinGenAb) -> UniversalCertificate:
    # Ext vanishes; Def 5.6 insists on non-empty X, so we flag rather than guess.
    if direction == "extension":
        seq = ShortExactSeq(AbMap.identity(A), AbMap.zero(A, ZERO_GROUP))
    else:
        seq = ShortExactSeq(AbMap.zero(ZERO_GROUP, A), AbMap.identity(A))
    note = "Ext group is trivial; vacuously universal (degenerate)"
    rep = lambda n: ConditionReport(n, True, note)  # noqa: E731
    return UniversalCertificate(
        direction, B, A, (), seq, None, True, rep("a"), rep("b"), rep("c")
    )


def _finalize(direction, B, A, X, seq, cls, reports) -> UniversalCertificate:
    ra, rb, rc = reports
    cert = UniversalCertificate(direction, B, A, tuple(X), seq, cls, False, ra, rb, rc)
    if not cert.conditions_agree():
        raise DomainError(
            f"universal {direction} verdicts disagree: "
            f"a={ra.passed} b={rb.passed} c={rc.passed}"
        )
    if not cert.all_pass:
        raise DomainError(f"universal {direction} construction failed its own verification")
    return cert


def build_universal_extension(B: FinGenAb, A: FinGenAb) -> UniversalCertificate:
    """Canonical universal extension A ↪ E ↠ B^(X) with X = Ext^1(B, A)."""
    ext = ext_group(B, A)
    _require_finite_ext(ext)
    if ext.order() == 1:
        return _degenerate_certificate("extension", B, A)
    X = list(ext.classes())
    dA = A.dim
    BX, slot = _power_group(B, len(X))
    # Slot (x, j) lifts to t with d_j·t = u(b), b the j-th twist of the x-th
    # class; free slots carry no twist.
    untwisted = (0,) * dA
    slots = [
        (slot[x, j], (d, X[x].block(j) if d else untwisted))
        for x in range(len(X))
        for j, d in enumerate(B.moduli())
    ]
    tw = _twist_merge(slots, lambda keys: _presentation(A.moduli(), keys))
    E = tw.E
    n = dA + len(tw.keys)

    ucols = [tw.embed(_unit(a, n)) for a in range(dA)]
    u = AbMap(A, E, dense_matrix(ucols, E.dim))
    # p sends a key's core generator to the key's first slot and a split to
    # its own slot minus that first slot.
    images = [{tw.first[key]: c for key, c in zip(tw.keys, col[dA:]) if c} for col in tw.core_lift]
    images += [{s: 1, tw.first[key]: -1} for s, key in tw.splits]
    pcols = [sparse_sum((c, images[g]) for g, c in row.items()) for row in tw.lift]
    p = AbMap(E, BX, dense_matrix(pcols, BX.dim))
    seq = ShortExactSeq(u, p)

    # Componentwise Ψ check: slot s of key (d, b) lifts to ℓ, the key's core
    # generator plus s's split, with p(ℓ) = e_s and d·ℓ = u(b).  This makes η
    # the class of the sequence.
    core_t = {key: tw.embed(_unit(dA + k, n)) for k, key in enumerate(tw.keys)}
    split_of = {s: tw.place[tw.ncore + t] for t, (s, _key) in enumerate(tw.splits)}
    bxmods, emods = BX.moduli(), E.moduli()
    for s, (d, b) in slots:
        lift = sparse_sum([(1, core_t[d, b]), (1, split_of.get(s, {}))])
        hit = sparse_sum([(c, pcols[k]) for k, c in lift.items()] + [(-1, {s: 1})])
        twist = sparse_sum([(d, lift)] + [(-c, ucols[a]) for a, c in enumerate(b)])
        if not (_vanishes(hit, bxmods) and _vanishes(twist, emods)):
            raise DomainError("universal extension: a slot's lift breaks the Ψ identity")
    twist_at = dict(slots)
    eta = ExtClass(BX, A, tuple(c for s in range(BX.torsion_count) for c in twist_at[s][1]))

    # (a): Ext^1(B, u) kills every basis class of Ext^1(B, A).
    ok_a = all(pushout_action(c, u).is_zero() for c in ext.basis_classes())
    # (b): Ext^1(B, p) is injective iff E/dE → B^(X)/dB^(X) is, for each factor d of B.
    ok_b = all(
        _injective_mod(d, E.moduli(), BX.moduli(), p.matrix.rows) for d in sorted(set(B.invariant_factors))
    )
    # (c): δ(h) = η·h over the cyclic pieces h of Hom(B, B^(X)); η·h vanishes
    # unless h starts at a torsion generator of B, and depends only on h's
    # source, order and the twist at its target, so equal pieces count once.
    kB = B.torsion_count
    delta = []
    for j, g, block in dict.fromkeys((j, g, eta.block(i)) for j, i, g, _ in hom_pieces(B, BX) if j < kB):
        flat = [0] * (kB * dA)
        flat[j * dA : (j + 1) * dA] = [B.invariant_factors[j] // g * c for c in block]
        delta.append((ExtClass(B, A, tuple(flat)), g))
    reports = (
        ConditionReport("a", ok_a, "pushout of Ext^1(B,A) basis along u lands in d·E"),
        ConditionReport("b", ok_b, "blockwise kernel of Ext^1(B,p)"),
        ConditionReport("c", _generates(ext, delta), "δ image saturates Ext^1(B,A)"),
    )
    return _finalize("extension", B, A, X, seq, eta, reports)


def build_universal_coextension(B: FinGenAb, A: FinGenAb) -> UniversalCertificate:
    """Canonical universal co-extension B^X ↪ E ↠ A with X = Ext^1(A, B)."""
    ext = ext_group(A, B)
    _require_finite_ext(ext)
    if ext.order() == 1:
        return _degenerate_certificate("coextension", B, A)
    X = list(ext.classes())
    dA, dB, kA = A.dim, B.dim, A.torsion_count
    BX, slot = _power_group(B, len(X))
    # A's j-th generator lifts to T_j with d_j·T_j = p(v_j), v_j = Σ_x μ_x(x's j-th twist).
    v = [[0] * BX.dim for _ in range(kA)]
    for x, cls in enumerate(X):
        for j in range(kA):
            for i, c in enumerate(cls.block(j)):
                v[j][slot[x, i]] = c
    if any(tuple(v[j][slot[x, i]] for j in range(kA) for i in range(dB)) != cls.coords for x, cls in enumerate(X)):
        raise DomainError("universal co-extension: Φ does not reproduce the inputs")
    # Slots of equal modulus and twist pattern merge.  Listing each key's
    # slots together keeps the splits of one key adjacent in E.
    keyed: Dict[tuple, List[int]] = {}
    for s, m in enumerate(BX.moduli()):
        keyed.setdefault((m, tuple(v[j][s] % m if m else v[j][s] for j in range(kA))), []).append(s)
    tw = _twist_merge(
        [(s, key) for key, group in keyed.items() for s in group],
        lambda keys: _presentation(
            [m for m, _ in keys],
            [(d, tuple(pat[j] for _, pat in keys) if d else (0,) * len(keys)) for j, d in enumerate(A.moduli())],
        ),
    )
    E = tw.E
    nk = len(tw.keys)
    n = nk + dA

    # p sends a key's first slot to the key's core generator minus the key's
    # splits, and every other slot to its split.
    pcols: List[Dict[int, int]] = [{} for _ in range(BX.dim)]
    for k, key in enumerate(tw.keys):
        pcols[tw.first[key]] = tw.embed(_unit(k, n))
    for (s, key), w in zip(tw.splits, tw.place[tw.ncore :]):
        pcols[s] = w
        first = pcols[tw.first[key]]
        for k, c in w.items():
            first[k] = first.get(k, 0) - c
    p = AbMap(BX, E, dense_matrix(pcols, E.dim))
    images = [{j: c for j, c in enumerate(col[nk:]) if c} for col in tw.core_lift] + [{}] * len(tw.splits)
    ucols = [sparse_sum((c, images[g]) for g, c in row.items()) for row in tw.lift]
    u = AbMap(E, A, dense_matrix(ucols, dA))
    seq = ShortExactSeq(p, u)

    # Componentwise Φ check: u(T_j) = e_j and d_j·T_j = p(v_j), which makes
    # γ the class of the sequence.
    for j, d in enumerate(A.invariant_factors):
        t = tw.embed(_unit(nk + j, n))
        hit = sparse_sum([(c, ucols[k]) for k, c in t.items()] + [(-1, {j: 1})])
        twist = sparse_sum([(d, t)] + [(-c, pcols[s]) for s, c in enumerate(v[j]) if c])
        if not (_vanishes(hit, A.moduli()) and _vanishes(twist, E.moduli())):
            raise DomainError("universal co-extension: a lift breaks the Φ identity")
    gamma = ExtClass(A, BX, tuple(c for vj in v for c in vj))

    # (a*): Ext^1(u, B) kills every basis class of Ext^1(A, B).
    ok_a = all(pullback_action(c, u).is_zero() for c in ext.basis_classes())
    # (b*): Ext^1(p, B) is injective iff it is on the coordinates over each
    # generator of B.  Its matrix sends the block of E's jp-th factor e to
    # D·p[jp][jq]/e times the block of B^X's jq-th factor D.  The rows are
    # read off p's sparse columns; a torsion slot's image is torsion, so its
    # column has no entry at a free coordinate of E.
    efacts = E.invariant_factors
    weights = [[0] * len(efacts) for _ in BX.invariant_factors]
    for row, col, D in zip(weights, pcols, BX.invariant_factors):
        for jp, c in col.items():
            row[jp] = D * (c % efacts[jp]) // efacts[jp]
    ok_b = all(_injective_mod(m, efacts, BX.invariant_factors, weights) for m in sorted(set(B.moduli())))
    # (c*): δ(h) = h·γ over the cyclic pieces h of Hom(B^X, B); it depends
    # only on h's target, order and entry and the twists at h's source, so
    # equal pieces count once.
    pieces = dict.fromkeys((i, g, entry, tuple(vj[j] for vj in v)) for j, i, g, entry in hom_pieces(BX, B))
    delta = [
        (ExtClass(A, B, tuple(entry * c if t == i else 0 for c in twists for t in range(dB))), g)
        for i, g, entry, twists in pieces
    ]
    reports = (
        ConditionReport("a", ok_a, "pullback of Ext^1(A,B) basis along u vanishes"),
        ConditionReport("b", ok_b, "blockwise kernel of Ext^1(p,B)"),
        ConditionReport("c", _generates(ext, delta), "δ image saturates Ext^1(A,B)"),
    )
    return _finalize("coextension", B, A, X, seq, gamma, reports)


# ---------------------------------------------------------------------------
# The twist-merge construction shared by both builders


def _power_group(B: FinGenAb, n: int):
    """B^(n) canonically, with slot (copy x, generator j) → coordinate index.

    Slot order matches direct_sum([B]*n): the torsion slots stably sorted by
    invariant factor, then the free slots in copy order.
    """
    group, place, _lift = cyclic_sum(B.moduli() * n)
    return group, {divmod(s, B.dim): k for s, col in enumerate(place) for k in col}


def _presentation(base_mods: Sequence[int], twists: Sequence[Tuple[int, Sequence[int]]]) -> IntMatrix:
    """Relations m_i·e_i = 0 and d_k·t_k = Σ_i b_k,i·e_i on the generators (e, t)."""
    n = len(base_mods) + len(twists)
    rows = [[m if c == i else 0 for c in range(n)] for i, m in enumerate(base_mods) if m]
    for k, (d, b) in enumerate(twists):
        row = [-c for c in b] + [0] * len(twists)
        row[len(base_mods) + k] = d
        rows.append(row)
    return IntMatrix.from_rows(rows, ncols=n)


@dataclass(frozen=True)
class _Twist:
    """Middle group E = core ⊕ splits, with its generators placed.

    The combined generators are the core's canonical generators followed by
    one per split.  Vectors are sparse dicts from coordinate to coefficient.
    """

    keys: List[tuple]
    first: Dict[tuple, int]  # key -> the slot that stays in the core
    splits: List[Tuple[int, tuple]]  # (slot, key) split off as Z(key[0])
    projc: IntMatrix  # core presentation coordinates -> core coordinates
    core_lift: List[tuple]  # each core generator on the core presentation
    E: FinGenAb
    place: List[Dict[int, int]]  # each combined generator in E
    lift: List[Dict[int, int]]  # each generator of E on the combined ones

    @property
    def ncore(self) -> int:
        return len(self.core_lift)

    def embed(self, vec: Sequence[int]) -> Dict[int, int]:
        """E coordinates of a vector on the core presentation's generators."""
        return sparse_sum((c, self.place[g]) for g, c in enumerate(self.projc.apply(vec)) if c)


def _twist_merge(slots: Sequence[Tuple[int, tuple]], presentation: Callable[[List[tuple]], IntMatrix]) -> _Twist:
    """Group slots by key, split off repeats, canonicalize the core, place E.

    ``slots`` lists (slot, key) pairs; key[0] is the slot's modulus, 0 for a
    free slot.  Slots with equal keys carry the same twist, so any two of them
    differ by a generator of that modulus: the first slot of each key stays in
    the core and every later one splits off as a Z(key[0]) summand.
    ``presentation(keys)`` is the core's relation matrix, one generator per key.
    """
    first: Dict[tuple, int] = {}
    splits: List[Tuple[int, tuple]] = []
    for s, key in slots:
        if key in first:
            splits.append((s, key))
        else:
            first[key] = s
    keys = list(first)
    core, projc, liftc = canonicalize(presentation(keys))
    E, place, lift = cyclic_sum(core.moduli() + tuple(key[0] for _, key in splits))
    return _Twist(keys, first, splits, projc, list(zip(*liftc.rows)), E, place, lift)


def _unit(i: int, n: int) -> List[int]:
    return [1 if t == i else 0 for t in range(n)]


def _vanishes(vec: Dict[int, int], mods: Sequence[int]) -> bool:
    return all(x % mods[i] == 0 if mods[i] else x == 0 for i, x in vec.items())


def _injective_mod(q: int, src_mods: Sequence[int], tgt_mods: Sequence[int], rows) -> bool:
    """Injectivity of ``rows`` (target by source) from ⊕Z(gcd(q, s)) to ⊕Z(gcd(q, t)).

    The moduli are 0 for Z, read as gcd q.  ``rows`` is p or its Ext-dual
    weights read modulo q, well defined because p was checked when it was
    built, so nothing is checked again here.
    """
    return is_mono_mod(rows, [math.gcd(m, q) for m in src_mods], [math.gcd(m, q) for m in tgt_mods])


def _generates(ext: ExtGroup, pieces: Sequence[Tuple[ExtClass, int]]) -> bool:
    """Whether classes of the given orders (0: infinite) generate ``ext``."""
    cols = [ext.to_carrier(cls) for cls, _ in pieces]
    rows = [[col[i] for col in cols] for i in range(ext.carrier.dim)]
    return is_epi_mod(rows, [g for _, g in pieces], ext.carrier.moduli())


# ---------------------------------------------------------------------------
# Cyclic generation and the sufficient condition


@dataclass(frozen=True)
class CyclicGenerationResult:
    passed: bool
    detail: str
    witnesses: Tuple[Tuple[ExtClass, AbMap], ...]


def cyclic_generation_check(
    cert: UniversalCertificate, samples: int = 5, seed: int = 0
) -> CyclicGenerationResult:
    """Ext^1(B^(X), A) as a cyclic right End(B^(X))-module generated by η̄.

    Builds the additive map γ ↦ η·γ over the generating pieces of
    End(B^(X)) (matrix units composed with the cyclic generators) and
    decides surjectivity; on success returns explicit γ witnesses for
    sampled target classes, each re-verified by recomputing η·γ.
    """
    if cert.direction != "extension":
        raise DomainError("cyclic generation check applies to extension certificates")
    if cert.degenerate:
        return CyclicGenerationResult(True, "Ext^1(B,A) trivial; vacuous", ())
    eta = cert.canonical_class
    BX = cert.sequence.quot
    ext_big = ext_group(BX, cert.A)
    if BX.dim * BX.dim > CYCLIC_CHECK_BUDGET:
        raise BudgetExceeded("End(B^(X)) generating set too large for the check")
    H = hom_group(BX, BX)
    cols = []
    for b in H.basis:
        cols.append(ext_big.to_carrier(pullback_action(eta, b)))
    m = AbMap(H.carrier, ext_big.carrier, IntMatrix.from_columns(cols, ext_big.carrier.dim))
    if not is_epi(m):
        return CyclicGenerationResult(False, "η·End(B^(X)) is a proper subgroup", ())
    rng = random.Random(seed)
    witnesses = []
    carrier_mods = list(ext_big.carrier.moduli())
    for _ in range(samples):
        target = tuple(rng.randrange(md) if md else rng.randrange(-9, 10) for md in carrier_mods)
        x = solve_mod(m.matrix, list(target), carrier_mods)
        if x is None:
            return CyclicGenerationResult(False, "no γ for a sampled class", ())
        gamma = H.recompose([xi for xi in x])
        got = ext_big.to_carrier(pullback_action(eta, gamma))
        want = ext_big.carrier.reduce(list(target))
        if got != want:
            raise DomainError("cyclic generation witness failed re-verification")
        witnesses.append((ext_big.from_carrier(target), gamma))
    return CyclicGenerationResult(True, "η generates Ext^1(B^(X),A) over End(B^(X))", tuple(witnesses))


@dataclass(frozen=True)
class SufficientConditionReport:
    X_size: int
    monic: bool
    certificate_exists: bool
    consistent: bool


def sufficient_condition_check(A: FinGenAb, B: FinGenAb, check_certificate: bool = True) -> SufficientConditionReport:
    """⊕f_x monic over a complete set of representatives of Ext^1(B, A).

    The coproduct of the inclusions of all realizations is monic in Ab for
    finite X; the report records this together with the success of the
    universal-extension construction (the lemma's (b) ⇒ (c) direction).
    """
    ext = ext_group(B, A)
    _require_finite_ext(ext)
    X = list(ext.classes())
    if not X or ext.order() == 1:
        cert_ok = True
        if check_certificate:
            cert_ok = build_universal_extension(B, A).conditions_agree()
        return SufficientConditionReport(len(X), True, cert_ok, cert_ok)
    # ⊕f_x is block diagonal, so it is monic iff every block is.
    monic = all(is_mono(realize(c).f) for c in X)
    cert_ok = True
    if check_certificate:
        cert = build_universal_extension(B, A)
        cert_ok = cert.all_pass
    return SufficientConditionReport(len(X), monic, cert_ok, monic == cert_ok)
