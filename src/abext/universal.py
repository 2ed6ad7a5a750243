"""Universal extensions and co-extensions with verified certificates.

The canonical universal extension of B by A takes X = Ext^1(B, A) (the full
lexicographic enumeration of classes) and realizes the class whose pullback
along each inclusion μ_x is the x-th class; dually for co-extensions with
the diagonal and projections.  A certificate records the sequence plus
verdicts for the three equivalent defining conditions on A ↪u E ↠p B^(X):

  (a) Ext^1(B, u) is zero,
  (b) Ext^1(B, p) is injective,
  (c) the connecting morphism δ : Hom(B, B^(X)) → Ext^1(B, A) is surjective,

and their duals for co-extensions.  Any disagreement between the verdicts is
a build failure.  No condition acts on a class: Ext^1(B, h) is h modulo each
invariant factor d of B, so (a) asks u(A) ⊆ dE, and dually (a*) reads u's
``_ext_weights`` modulo each modulus of B.  (b) and (b*) rank no map; they
count, through ``orders_match``:

  (b)  Ext^1(Z(d), G) ≅ G/dG naturally, so Ext^1(Z(d), p) is the map
       E/dE → B^(X)/dB^(X).  p is epi, so that map is onto between finite
       groups, and injective iff |E/dE| = |B^(X)/dB^(X)|: products of
       gcd(d, e) over the moduli e of each group, Z read as Z(d).
  (b*) p : B^X ↪ E is mono.  Ext^1(G, Z(m)) is naturally the dual of G[m]
       (apply Hom(-, Q/Z) to 0 → G[m] → G →m G), and Ext^1(G, Z) that of
       tors G (Hom(G, Q) → Hom(G, Q/Z) has image the maps that kill tors G),
       written G[0].  So Ext^1(p, Z(m)) is the dual of B^X[m] → E[m],
       injective iff that restriction of p is onto; it is injective, so that
       is |B^X[m]| = |E[m]|: products of gcd(m, e) over the torsion factors
       e of each group, for each modulus m of B.

Both counts rest on p's being epi (resp. mono), which ``realize`` has
already proved: its certificate shows the sequence exact through its
presentation map (or ``ShortExactSeq`` checked it), so nothing is ranked
again.  (a) still reads u and (c) still ranks δ, on Ext's flat slots
⊕Z(t_i): a map into a finite group is onto iff it is onto modulo every
prime, chain or not.  So a build forms no carrier of Ext.

Both builders stack X into one class, η ∈ Ext^1(B^(X), A) whose x-th
component is x (resp. γ ∈ Ext^1(A, B^X)), since Ext over a finite coproduct
is blockwise, and take its ``realize``.  The |X|·dim B slots of B^(X) are
numbered run by run (``_power_group``), so η and γ are slices of the listed
classes.  The slots share a handful of twists: ``realize`` splits the
repeats off and checks each once, and δ reads each distinct twist once as
sparse flat vectors, so a slot costs little more than its bookkeeping.
X is listed only when B^(X) has fewer than ``UNIVERSAL_SLOT_BUDGET`` slots.
Every pair takes this path; when Ext^1 is trivial, X is its zero class, the
middle is A ⊕ B, and the certificate reads ``degenerate`` off |X| = 1.

The paper's literal constructions stay as references: Ψ^{-1} is
``psi_inverse_via_colim``, the ``seq_pushout`` of the coproduct of
realizations along the codiagonal ∇, and Φ^{-1} is ``phi_inverse_via_lim``,
the ``seq_pullback`` of their product along the diagonal Δ.  With
``verify_extension_conditions`` and ``verify_coextension_conditions`` they
audit the builders.  The verifiers read the induced maps on carriers and
decide with ``is_zero``, ``is_mono`` and ``is_epi``; the builders decide with
``_zero_mod``, the order count and ``_generates``.  Both reach ``is_epi_mod``
for (c), the builders on flat slots and the verifiers on carriers.  They
also share ``homext._ext_weights``, the weights through which a map acts on
Ext^1 in its first argument; the tests check those weights against the
geometric pullback of realized sequences.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence, Tuple

from .errors import BudgetExceeded, DomainError
from .intlin import solve_mod_many
from .abgroup import (
    AbMap,
    FinGenAb,
    SumDiagram,
    codiagonal,
    diagonal,
    direct_sum,
    is_epi,
    is_epi_mod,
    is_mono,
    orders_match,
)
from .homext import (
    ExtClass,
    ExtGroup,
    ShortExactSeq,
    _carrier_map,
    _ext_weights,
    _pullback_pieces,
    _reduced_class,
    _vanishes,
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
    seq_pullback,
    seq_pushout,
    ses_direct_sum,
)

# End(B^(X)) has dim^2 generating pieces; beyond this the dense hom-group
# bookkeeping stops being reasonable and the check refuses rather than crawl.
CYCLIC_CHECK_BUDGET = 1024
# The most witnesses a cyclic generation check samples, checked before any work.
CYCLIC_SAMPLE_BUDGET = 1024
# A universal (co)extension must have fewer slots |X|·dim B than this, checked
# before X is listed, with the slots multiplied out only until they reach it.
# A build takes time and memory linear in the slots, about 10 µs and 1.6 KB a
# slot in CPython 3.11 on 2 vCPU (12,288 in 0.08-0.20 s; 262,144, past the
# budget, in 2.3-2.5 s and 350-410 MB), since (b) and (b*) are counts and no
# condition ranks a map over the slots; the budget bounds the classes listed
# and the dense p that ``--full`` prints, |X|·dim B by dim E cells.
UNIVERSAL_SLOT_BUDGET = 1 << 14


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
    """Ψ = Σ μ_i∘Ext^1(ι_i, B) over the injections ι_i; Φ, with the summands in
    Ext's second argument, Σ μ_i∘Ext^1(B, π_i) over the projections π_i."""
    summands = tuple(A_list)
    ds = direct_sum(summands)
    if dual:
        dom, parts = ext_group(B, ds.total), [ext_covariant_map(B, pi) for pi in ds.projections]
    else:
        dom, parts = ext_group(ds.total, B), [ext_contravariant_map(mu, B) for mu in ds.injections]
    cod = direct_sum([part.target for part in parts])
    mat = AbMap.zero(dom.carrier, cod.total)
    for part, mu in zip(parts, cod.injections):
        mat = mat + mu @ part
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
    big, _ds_sub, _ds_mid, ds_quot = ses_direct_sum([realize(c) for c in classes])
    seq = seq_pushout(big, codiagonal(A, len(classes)))
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
    big, ds_sub, _ds_mid, _ds_quot = ses_direct_sum([realize(c) for c in classes])
    seq = seq_pullback(big, diagonal(A, len(classes)))
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
    """Constructed (co)extension plus verdicts for the defining conditions.

    ``canonical_class`` is the class the builder realized: η ∈ Ext^1(B^(X), A)
    for an extension, γ ∈ Ext^1(A, B^X) for a co-extension.
    """

    direction: str  # "extension" | "coextension"
    B: FinGenAb
    A: FinGenAb
    X: Tuple[ExtClass, ...]
    sequence: ShortExactSeq
    canonical_class: ExtClass
    condition_a: ConditionReport
    condition_b: ConditionReport
    condition_c: ConditionReport

    @property
    def degenerate(self) -> bool:
        """Whether the Ext group is trivial: X is its zero class alone, so
        B^(X) = B and the middle is A ⊕ B."""
        return len(self.X) == 1

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
            out["class"] = self.canonical_class.to_json()
        return out


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


def _finalize(direction, B, A, X, seq, cls, reports) -> UniversalCertificate:
    ra, rb, rc = reports
    cert = UniversalCertificate(direction, B, A, tuple(X), seq, cls, ra, rb, rc)
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
    X = _list_classes(ext, B)
    dA, kB = A.dim, B.torsion_count
    BX, runs = _power_group(B, len(X))
    # η's twist at slot (x, j) is x's j-th twist: over each run, one slice per
    # class, reduced already, since slot and twist have the same moduli.
    slices = (cls.coords[j0 * dA : j1 * dA] for j0, j1 in runs if j0 < kB for cls in X)
    eta = _reduced_class(BX, A, tuple(chain.from_iterable(slices)))
    seq = realize(eta)
    u, p, E = seq.f, seq.g, seq.middle

    # (a): u read modulo each factor d of B; (b): |E/dE| = |B^(X)/dB^(X)|,
    # since p is epi (see the module docstring).
    facts = sorted(set(B.invariant_factors))
    ok_a = all(_zero_mod(d, E.moduli(), u.cols) for d in facts)
    ok_b = all(orders_match(E, [BX], d) for d in facts)
    # (c): δ(h) = η·h over the cyclic pieces h of Hom(B, B^(X)); η·h vanishes
    # unless h starts at a torsion generator j of B, and depends only on j, h's
    # order g = gcd(d_j, D) and the twist at its target slot of factor D, so
    # each distinct (D, twist) is read once, and equal pieces count once.
    # η·h is (d_j/g)·twist in the j-th twist and zero elsewhere: a sparse vector.
    bfacts = B.invariant_factors
    slots = dict.fromkeys(zip(BX.invariant_factors, eta.twists()))
    pieces = dict.fromkeys((j, g, tw) for D, tw in slots for j, d in enumerate(bfacts) if (g := math.gcd(d, D)) > 1)
    delta = [({j * dA + t: bfacts[j] // g * c for t, c in enumerate(tw) if c}, g) for j, g, tw in pieces]
    reports = (
        ConditionReport("a", ok_a, "pushout of Ext^1(B,A) basis along u lands in d·E"),
        ConditionReport("b", ok_b, "blockwise kernel of Ext^1(B,p)"),
        ConditionReport("c", _generates(ext, delta), "δ image saturates Ext^1(B,A)"),
    )
    return _finalize("extension", B, A, X, seq, eta, reports)


def build_universal_coextension(B: FinGenAb, A: FinGenAb) -> UniversalCertificate:
    """Canonical universal co-extension B^X ↪ E ↠ A with X = Ext^1(A, B)."""
    ext = ext_group(A, B)
    X = _list_classes(ext, B)
    dB, kA = B.dim, A.torsion_count
    BX, runs = _power_group(B, len(X))
    # γ's j-th twist is Σ_x μ_x(x's j-th twist): over each run, one slice per
    # class, reduced already, since slot and twist have the same moduli.
    slices = (cls.coords[j * dB + j0 : j * dB + j1] for j in range(kA) for j0, j1 in runs for cls in X)
    gamma = _reduced_class(A, BX, tuple(chain.from_iterable(slices)))
    # Φ(γ) = (π_x·γ)_x reads each class back at the slots the runs give it:
    # one slice [n·j0 + x·w, n·j0 + (x + 1)·w) of each twist per run of width w.
    v, n = gamma.twists(), len(X)
    at = [(n * j0, j1 - j0) for j0, j1 in runs]
    if any(tuple(chain.from_iterable(t[b + x * w : b + x * w + w] for t in v for b, w in at)) != cls.coords for x, cls in enumerate(X)):
        raise DomainError("universal co-extension: Φ does not reproduce the inputs")
    seq = realize(gamma)
    p, u, E = seq.f, seq.g, seq.middle

    # (a*): u's weights read modulo each modulus m of B; (b*): |B^X[m]| = |E[m]|,
    # since p is mono (see the module docstring).
    mods = sorted(set(B.moduli()))
    wu = _ext_weights(u.cols, u.source.invariant_factors, u.target.invariant_factors)
    ok_a = all(_zero_mod(m, E.invariant_factors, wu) for m in mods)
    ok_b = all(orders_match(E, [BX], m, torsion=True) for m in mods)
    # (c*): δ(h) = h·γ over the cyclic pieces h of Hom(B^X, B); it depends
    # only on h's target i, order and entry and the twists at h's source slot.
    # A slot of modulus D has the pieces of Hom(Z(D), B) (Z when D = 0), listed
    # once per D, so each distinct (D, twists) is read once, and equal pieces
    # count once.  h·γ is entry·twist at generator i of B: a sparse vector.
    slots = dict.fromkeys(zip(BX.moduli(), zip(*v)))
    from_slot = {D: hom_pieces(FinGenAb(0, (D,)) if D else FinGenAb(1, ()), B) for D in {D for D, _ in slots}}
    pieces = dict.fromkeys((i, g, entry, tw) for D, tw in slots for _, i, g, entry in from_slot[D])
    delta = [({k * dB + i: entry * c for k, c in enumerate(tw) if c}, g) for i, g, entry, tw in pieces]
    reports = (
        ConditionReport("a", ok_a, "pullback of Ext^1(A,B) basis along u vanishes"),
        ConditionReport("b", ok_b, "blockwise kernel of Ext^1(p,B)"),
        ConditionReport("c", _generates(ext, delta), "δ image saturates Ext^1(A,B)"),
    )
    return _finalize("coextension", B, A, X, seq, gamma, reports)


# ---------------------------------------------------------------------------
# Helpers shared by both builders


def _list_classes(ext: ExtGroup, B: FinGenAb) -> List[ExtClass]:
    """X, every class of ``ext``, refused before it is listed when B^(X)
    would have UNIVERSAL_SLOT_BUDGET slots or more.  Only the slot moduli
    are read, each gcd(d, m) or d with d >= 2, so finite; the slots |X|·dim B
    are multiplied out only until they reach the budget, so an Ext group of
    2^262144 classes costs no big product and no canonical form."""
    slots = B.dim
    for g in ext.piece_mods:
        if slots >= UNIVERSAL_SLOT_BUDGET:
            break
        slots *= g
    if slots >= UNIVERSAL_SLOT_BUDGET:
        raise BudgetExceeded(f"B^(X) would have at least {UNIVERSAL_SLOT_BUDGET} slots, the slot budget")
    return list(ext.classes())


def _power_group(B: FinGenAb, n: int):
    """B^(n) canonically, with the runs that number its slots.

    B's generators of equal modulus make runs [j0, j1), and since its moduli
    chain, direct_sum([B]*n) is the stable sort of the copies by modulus: slot
    (copy x, generator j) of the run [j0, j1) is n·j0 + x·(j1 − j0) + (j − j0).
    """
    mods = B.moduli()
    runs = [(j, j + mods.count(m)) for j, m in enumerate(mods) if mods.index(m) == j]
    return FinGenAb(B.free_rank * n, tuple(d for d in B.invariant_factors for _ in range(n))), runs


def _zero_mod(q: int, tgt_mods: Sequence[int], cols) -> bool:
    """Whether the sparse columns ``cols`` vanish in ⊕Z(gcd(q, t)), 0 for Z
    read as q.  For u's weights that is each block's vanishing, since a weight
    w from Z(gcd(d, q)) to Z(gcd(e, q)) has gcd(e, q) | w·gcd(d, q)."""
    mods = [math.gcd(m, q) for m in tgt_mods]
    return all(_vanishes(col, mods) for col in cols)


def _generates(ext: ExtGroup, pieces: Sequence[Tuple[Dict[int, int], int]]) -> bool:
    """Whether the classes of the given sparse flat coordinates (not necessarily
    reduced) and orders (0: infinite) generate ``ext``, decided on its flat
    slots ⊕Z(t_i): a map into a finite group is onto iff it is onto modulo p
    at every prime p, whether or not the t_i form a chain, so no carrier is
    formed."""
    return is_epi_mod([vec for vec, _ in pieces], [g for _, g in pieces], ext.piece_mods)


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
    End(B^(X)), read off the pieces as sparse flat vectors (the reader δ
    uses) with no map built, and decides surjectivity; on success returns
    explicit γ witnesses for sampled target classes, each recomposed and
    re-verified by recomputing η·γ.  One factorization of the system serves
    every sample.
    """
    if samples < 0:
        raise DomainError(f"samples must be at least 0, not {samples}")
    if samples > CYCLIC_SAMPLE_BUDGET:
        raise BudgetExceeded(f"{samples} samples exceed {CYCLIC_SAMPLE_BUDGET}")
    if cert.direction != "extension":
        raise DomainError("cyclic generation check applies to extension certificates")
    # A trivial Ext group is generated by anything, and the check below would
    # refuse every B of dimension past 32 under CYCLIC_CHECK_BUDGET.
    if cert.degenerate:
        return CyclicGenerationResult(True, "Ext^1(B,A) trivial; vacuous", ())
    eta = cert.canonical_class
    BX = cert.sequence.quot
    ext_big = ext_group(BX, cert.A)
    if BX.dim * BX.dim > CYCLIC_CHECK_BUDGET:
        raise BudgetExceeded("End(B^(X)) generating set too large for the check")
    H = hom_group(BX, BX)
    m = _carrier_map(H, _pullback_pieces(eta, H), ext_big)
    if not is_epi(m):
        return CyclicGenerationResult(False, "η·End(B^(X)) is a proper subgroup", ())
    rng = random.Random(seed)
    witnesses = []
    carrier_mods = ext_big.carrier.moduli()
    targets = [
        tuple(rng.randrange(md) if md else rng.randrange(-9, 10) for md in carrier_mods) for _ in range(samples)
    ]
    for target, x in zip(targets, solve_mod_many(m.cols, [dict(enumerate(t)) for t in targets], carrier_mods)):
        if x is None:
            return CyclicGenerationResult(False, "no γ for a sampled class", ())
        gamma = H.recompose(x)
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


def sufficient_condition_check(A: FinGenAb, B: FinGenAb) -> SufficientConditionReport:
    """⊕f_x monic over a complete set of representatives of Ext^1(B, A).

    The coproduct of the inclusions of all realizations is monic in Ab for
    finite X; the report records this together with the success of the
    universal-extension construction (the lemma's (b) ⇒ (c) direction).
    """
    X = _list_classes(ext_group(B, A), B)
    # ⊕f_x is block diagonal, so it is monic iff every block is.
    monic = all(is_mono(realize(c).f) for c in X)
    cert_ok = build_universal_extension(B, A).all_pass
    return SufficientConditionReport(len(X), monic, cert_ok, monic == cert_ok)
