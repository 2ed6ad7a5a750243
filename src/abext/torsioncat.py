"""Symbolic torsion abelian groups and the co-universality classifier.

Expressions denote direct sums of four kinds of atoms: finite cyclic
p-groups Z(p^k), Prüfer groups Z(p^inf), the unbounded family
U(p) = ⊕_{n≥1} Z(p^n), and W = ⊕_p Z(p) over all primes.  Multiplicities
are positive integers or "inf"; the classification is cardinal-insensitive
(boundedness depends only on exponents), so no cardinal arithmetic exists
here.

The classifier decides, per prime, whether the reduced part is bounded;
the group is co-Ext^1-universal in the category of torsion groups exactly
when every reduced p-component is bounded, and cotorsion exactly when the
whole reduced part admits a single bound (which W deliberately breaks:
bounded at every prime, unbounded globally).

The two witness operations produce the quantitative shadow of the infinite
counterexamples: the divisibility defect of the all-ones vector in
∏_{n≤N} Z(p^n) and the minimal order of a preimage of all-ones under the
product of the canonical epimorphisms Z(p^n) → Z(p), both equal to p^N and
growing without bound.  Both answer by the unit argument, through one
helper; ``oracle.least_coset_order`` is the element-by-element search that
tests hold them to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import BudgetExceeded, DomainError, ParseError
from .abgroup import MAX_GROUP_DIM, FinGenAb, invariant_factors_of
from .intlin import MAX_BOUND_DIGITS, is_prime, json_str, prime_factors

Mult = Optional[int]  # None encodes "inf" (any infinite cardinal)


@dataclass(frozen=True)
class Cyclic:
    p: int
    k: int


@dataclass(frozen=True)
class Prufer:
    p: int


@dataclass(frozen=True)
class UnboundedFamily:
    p: int


@dataclass(frozen=True)
class AllPrimesCyclic:
    pass


Atom = Union[Cyclic, Prufer, UnboundedFamily, AllPrimesCyclic]


def _atom_key(a: Atom):
    if isinstance(a, Cyclic):
        return (0, a.p, a.k)
    if isinstance(a, Prufer):
        return (1, a.p, 0)
    if isinstance(a, UnboundedFamily):
        return (2, a.p, 0)
    return (3, 0, 0)


def _atom_str(a: Atom) -> str:
    if isinstance(a, Cyclic):
        return f"Z({a.p}^{a.k})"
    if isinstance(a, Prufer):
        return f"Z({a.p}^inf)"
    if isinstance(a, UnboundedFamily):
        return f"U({a.p})"
    return "W"


def _mult_add(a: Mult, b: Mult) -> Mult:
    if a is None or b is None:
        return None
    return a + b


def _mult_le(a: Mult, b: Mult) -> bool:
    """a <= b with None = inf."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


@dataclass(frozen=True)
class TorsionExpr:
    """Normal-form symbolic torsion group: sorted (atom, multiplicity) terms."""

    terms: Tuple[Tuple[Atom, Mult], ...]

    @staticmethod
    def from_terms(raw: Sequence[Tuple[Atom, Mult]]) -> "TorsionExpr":
        merged: Dict[Atom, Mult] = {}
        for atom, mult in raw:
            if mult is not None and mult < 1:
                raise DomainError("multiplicity must be positive or inf")
            if atom in merged:
                merged[atom] = _mult_add(merged[atom], mult)
            else:
                merged[atom] = mult
        items = sorted(merged.items(), key=lambda t: _atom_key(t[0]))
        return TorsionExpr(tuple(items))

    def is_zero(self) -> bool:
        return not self.terms

    def atoms(self) -> Tuple[Atom, ...]:
        return tuple(a for a, _ in self.terms)

    def primes(self) -> Tuple[int, ...]:
        ps = set()
        for a, _ in self.terms:
            if isinstance(a, (Cyclic, Prufer, UnboundedFamily)):
                ps.add(a.p)
        return tuple(sorted(ps))

    def has_all_primes_cyclic(self) -> bool:
        return any(isinstance(a, AllPrimesCyclic) for a, _ in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for a, m in self.terms:
            s = _atom_str(a)
            if m is None:
                s += "^inf"
            elif m != 1:
                s += f"^{m}"
            parts.append(s)
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Parser


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def number(self) -> int:
        """A run of ASCII digits, of at most MAX_BOUND_DIGITS."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if start == self.pos:
            raise ParseError("expected a number", start)
        if self.pos - start > MAX_BOUND_DIGITS:
            raise ParseError(f"a number of more than {MAX_BOUND_DIGITS} digits", start)
        return int(self.text[start : self.pos])

    def keyword(self, word: str) -> bool:
        self.skip_ws()
        if self.text.startswith(word, self.pos):
            self.pos += len(word)
            return True
        return False

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_mult(sc: _Scanner) -> Mult:
    if sc.peek() == "^":
        sc.expect("^")
        if sc.keyword("inf"):
            return None
        start = sc.pos
        m = sc.number()
        if m < 1:
            raise ParseError("multiplicity must be >= 1", start)
        return m
    return 1


def _parse_atom_list(sc: _Scanner, allow_free: bool):
    """One term -> (free_rank_delta, [(atom, 1), ...]) before multiplicity."""
    sc.skip_ws()
    start = sc.pos
    if sc.keyword("W"):
        return 0, [(AllPrimesCyclic(), 1)]
    if sc.keyword("U"):
        sc.expect("(")
        pstart = sc.pos
        p = sc.number()
        if not is_prime(p):
            raise ParseError(f"U({p}): {p} is not prime", pstart)
        sc.expect(")")
        return 0, [(UnboundedFamily(p), 1)]
    if sc.keyword("Z"):
        if sc.peek() != "(":
            if allow_free:
                return 1, []
            raise ParseError("free part 'Z' not allowed in a torsion expression", start)
        sc.expect("(")
        nstart = sc.pos
        n = sc.number()
        if sc.peek() == "^":
            sc.expect("^")
            if not is_prime(n):
                raise ParseError(f"Z({n}^..): {n} is not prime", nstart)
            if sc.keyword("inf"):
                sc.expect(")")
                return 0, [(Prufer(n), 1)]
            kstart = sc.pos
            k = sc.number()
            if k < 1:
                raise ParseError("exponent must be >= 1", kstart)
            sc.expect(")")
            return 0, [(Cyclic(n, k), 1)]
        sc.expect(")")
        if n == 0:
            raise ParseError("Z(0) is the free group, not torsion", nstart)
        # Composite orders are CRT-split into prime-power cyclic atoms.
        atoms = []
        for p in prime_factors(n):
            e = 0
            m = n
            while m % p == 0:
                m //= p
                e += 1
            atoms.append((Cyclic(p, e), 1))
        return 0, atoms
    raise ParseError("expected an atom (Z(..), U(..) or W)", start)


def _parse_expr(text: str, allow_free: bool):
    sc = _Scanner(text)
    free_rank = 0
    terms: List[Tuple[Atom, Mult]] = []
    while True:
        rank, atoms = _parse_atom_list(sc, allow_free)
        mult = _parse_mult(sc)
        if rank:
            if mult is None:
                raise ParseError("free rank must be finite", sc.pos)
            free_rank += rank * mult
        for atom, _ in atoms:
            terms.append((atom, mult))
        if sc.at_end():
            break
        sc.expect("+")
    return free_rank, terms


def parse(text: str) -> TorsionExpr:
    """Parse a torsion group expression; total on the grammar, errors carry offsets."""
    free_rank, terms = _parse_expr(text, allow_free=False)
    assert free_rank == 0
    return TorsionExpr.from_terms(terms)


def parse_finite_group(text: str) -> FinGenAb:
    """Group expression for the homological verbs: finite atoms plus Z / Z^r."""
    free_rank, terms = _parse_expr(text, allow_free=True)
    for atom, mult in terms:
        if not isinstance(atom, Cyclic):
            raise DomainError(f"'{_atom_str(atom)}' is not finitely generated")
        if mult is None:
            raise DomainError("infinite multiplicity is not finitely generated")
        _refuse_past_digits(_atom_str(atom), [(atom.p, atom.k)])
    dim = free_rank + sum(mult for _, mult in terms)
    if dim > MAX_GROUP_DIM:
        raise BudgetExceeded(f"a group of {dim} generators exceeds {MAX_GROUP_DIM}")
    pieces = [atom.p ** atom.k for atom, mult in terms for _ in range(mult)]
    return FinGenAb(free_rank, invariant_factors_of(pieces))


# ---------------------------------------------------------------------------
# Structural operators


def p_component(e: TorsionExpr, p: int) -> TorsionExpr:
    """Torsion radical t_p: the atoms living at p; W contributes Z(p)."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    out = []
    for atom, mult in e.terms:
        if isinstance(atom, AllPrimesCyclic):
            out.append((Cyclic(p, 1), mult))
        elif atom.p == p:
            out.append((atom, mult))
    return TorsionExpr.from_terms(out)


def divisible_reduced_split(e: TorsionExpr) -> Tuple[TorsionExpr, TorsionExpr]:
    """G = D ⊕ R with D the Prüfer (injective) part and R reduced."""
    div = [(a, m) for a, m in e.terms if isinstance(a, Prufer)]
    red = [(a, m) for a, m in e.terms if not isinstance(a, Prufer)]
    return TorsionExpr.from_terms(div), TorsionExpr.from_terms(red)


@dataclass(frozen=True)
class PrimeReport:
    p: int
    divisible_part: TorsionExpr
    reduced_part: TorsionExpr
    reduced_bounded: bool
    bound: Optional[int]  # p^k annihilating the reduced part, when bounded


@dataclass(frozen=True)
class ClassificationReport:
    expression: TorsionExpr
    primes: Tuple[PrimeReport, ...]
    verdict_TZ: bool
    witness_prime: Optional[int]
    verdict_Tp: Dict[int, bool]
    cotorsion: bool
    cotorsion_bound: Optional[int]
    has_all_primes_cyclic: bool

    def to_json(self) -> dict:
        out = {
            "expression": str(self.expression),
            "primes": [
                {
                    "p": json_str(r.p),
                    "divisible": str(r.divisible_part),
                    "reduced": str(r.reduced_part),
                    "bounded": r.reduced_bounded,
                    "bound": json_str(r.bound) if r.bound is not None else None,
                }
                for r in self.primes
            ],
            "universal_TZ": self.verdict_TZ,
            "universal_Tp": {json_str(p): v for p, v in sorted(self.verdict_Tp.items())},
            "cotorsion": self.cotorsion,
            "cotorsion_bound": json_str(self.cotorsion_bound) if self.cotorsion_bound is not None else None,
            "all_primes_cyclic": self.has_all_primes_cyclic,
        }
        if self.witness_prime is not None:
            out["witness_prime"] = json_str(self.witness_prime)
        return out


def _prime_report(e: TorsionExpr, p: int) -> PrimeReport:
    comp = p_component(e, p)
    div, red = divisible_reduced_split(comp)
    unbounded = any(isinstance(a, UnboundedFamily) for a, _ in red.terms)
    bound = None if unbounded else _bound(red)
    return PrimeReport(p, div, red, not unbounded, bound)


def _bound(e: TorsionExpr) -> int:
    """The least common multiple of the orders of e's cyclic atoms.

    A bound of more than MAX_BOUND_DIGITS digits is refused before any power
    is taken.
    """
    kmax: Dict[int, int] = {}
    for a, _ in e.terms:
        if isinstance(a, Cyclic):
            kmax[a.p] = max(kmax.get(a.p, 0), a.k)
    _refuse_past_digits("bound", kmax.items())
    return math.prod(p**k for p, k in kmax.items())


def _refuse_past_digits(what: str, powers) -> None:
    """BudgetExceeded when Π p^k over the pairs (p, k), estimated in digits as
    Σ k·log10 p, could not be printed: it has more than MAX_BOUND_DIGITS digits."""
    digits = sum(k * math.log10(p) for p, k in powers)
    if digits >= MAX_BOUND_DIGITS:
        raise BudgetExceeded(f"{what} of about {int(digits) + 1} digits exceeds {MAX_BOUND_DIGITS}")


def classify(e: TorsionExpr, primes: Sequence[int] = ()) -> ClassificationReport:
    """Per-prime boundedness report and the co-Ext^1-universality verdicts.

    A finite list of cyclic exponents is always bounded, so the reduced
    p-component is unbounded exactly when an U(p) atom is present; the
    global verdict requires every reduced p-component bounded.  Cotorsion
    additionally requires one bound for all primes at once, which fails for
    W even though W passes prime by prime; that flag and its bound are
    ``is_cotorsion``'s, derived apart from the per-prime reports.
    """
    plist = sorted(set(e.primes()) | set(primes))
    reports = tuple(_prime_report(e, p) for p in plist)
    witness = None
    for r in reports:
        if not r.reduced_bounded:
            witness = r.p
            break
    verdict = witness is None
    verdict_tp = {r.p: r.reduced_bounded for r in reports}
    cot = is_cotorsion(e)
    return ClassificationReport(
        e, reports, verdict, witness, verdict_tp, cot.cotorsion, cot.bound, e.has_all_primes_cyclic()
    )


@dataclass(frozen=True)
class CotorsionResult:
    cotorsion: bool
    bound: Optional[int]
    divisible_part: TorsionExpr
    bounded_part: TorsionExpr


def is_cotorsion(e: TorsionExpr) -> CotorsionResult:
    """Baer–Fomin: torsion cotorsion ⟺ injective ⊕ bounded, with the bound.

    The reduced part has one global bound exactly when it has no U(p) atom,
    unbounded at p, and no W, whose orders are all primes."""
    div, red = divisible_reduced_split(e)
    if any(isinstance(a, (UnboundedFamily, AllPrimesCyclic)) for a in red.atoms()):
        return CotorsionResult(False, None, div, red)
    return CotorsionResult(True, _bound(red), div, red)


# ---------------------------------------------------------------------------
# Symbolic quotient relation


def _resources(e: TorsionExpr):
    per_prime: Dict[int, dict] = {}
    w_mult: Mult = 0
    for atom, mult in e.terms:
        if isinstance(atom, AllPrimesCyclic):
            w_mult = _mult_add(w_mult, mult)
            continue
        slot = per_prime.setdefault(atom.p, {"cyclic": {}, "u": 0, "prufer": 0})
        if isinstance(atom, Cyclic):
            slot["cyclic"][atom.k] = _mult_add(slot["cyclic"].get(atom.k, 0), mult)
        elif isinstance(atom, UnboundedFamily):
            slot["u"] = _mult_add(slot["u"], mult)
        else:
            slot["prufer"] = _mult_add(slot["prufer"], mult)
    return per_prime, w_mult


@dataclass(frozen=True)
class QuotientCheck:
    source_universal: bool
    quotient_universal: bool
    consistent: bool


def quotient_closure_check(e: TorsionExpr, q: TorsionExpr) -> QuotientCheck:
    """Verify q is a recognizable symbolic quotient of e, then compare verdicts.

    Recognized shapes: cyclics shrink (Z(p^k) ↠ Z(p^j), j ≤ k), U(p) covers
    any cyclic sum at p and smaller U(p), Prüfer covers only Prüfer, W
    covers W and height-1 cyclic demands up to its multiplicity.  Raises
    when q does not match; the universality implication must then hold and
    is returned for inspection.
    """
    res, w_avail = _resources(e)
    dem, w_need = _resources(q)
    if not _mult_le(w_need, w_avail):
        raise DomainError("quotient check: W demand exceeds supply")
    for p, slot in dem.items():
        have = res.get(p, {"cyclic": {}, "u": 0, "prufer": 0})
        if not _mult_le(slot["prufer"], have["prufer"]):
            raise DomainError(f"quotient check: Prüfer demand at p={p} exceeds supply")
        if not _mult_le(slot["u"], have["u"]):
            raise DomainError(f"quotient check: U demand at p={p} exceeds supply")
        demands = sorted(slot["cyclic"].items(), reverse=True)
        if not demands:
            continue
        if have["u"] != 0:
            continue  # an unbounded family surjects onto any cyclic sum at p
        supply = dict(have["cyclic"])
        if w_avail != 0:
            supply[1] = _mult_add(supply.get(1, 0), w_avail)
        for k, need in demands:
            remaining: Mult = need
            for kk in sorted([s for s in supply if s >= k]):
                avail = supply[kk]
                if avail == 0:
                    continue
                if avail is None or remaining is not None and avail >= remaining:
                    used = remaining
                    supply[kk] = None if avail is None else (avail - (used or 0))
                    remaining = 0
                    break
                if remaining is None:
                    continue
                remaining -= avail
                supply[kk] = 0
            if remaining is None:
                # infinite demand needs an infinite supply at some k' >= k
                if not any(supply.get(kk) is None for kk in supply if kk >= k):
                    raise DomainError(
                        f"quotient check: infinite cyclic demand Z({p}^{k}) unmatched"
                    )
            elif remaining:
                raise DomainError(f"quotient check: cyclic demand Z({p}^{k}) unmatched")
    ve = classify(e).verdict_TZ
    vq = classify(q).verdict_TZ
    consistent = (not ve) or vq
    if not consistent:
        raise DomainError("quotient closure violated: universal source, non-universal quotient")
    return QuotientCheck(ve, vq, consistent)


# ---------------------------------------------------------------------------
# Numeric witnesses for the infinite counterexamples


@dataclass(frozen=True)
class WitnessResult:
    order: int
    p: int
    N: int


def _least_coset_order(p: int, N: int) -> WitnessResult:
    """The least order p^N of an element of the coset 1 + pG, where
    G = ∏_{n≤N} Z(p^n), for p prime and N ≥ 1; p^N is estimated in digits
    before it is taken.

    Every coordinate of such an element is 1 mod p, a unit mod p^n, so its
    order is p^n; the element's order is the largest, p^N.  Both witnesses
    range over this coset, since 1 − pα and 1 + pc do.
    ``oracle.least_coset_order`` searches it element by element.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if N < 1:
        raise DomainError("N must be >= 1")
    _refuse_past_digits(f"order {p}^{N}", [(p, N)])
    return WitnessResult(p**N, p, N)


def counterexample_witness(p: int, N: int) -> WitnessResult:
    """Minimal order of x - p·α over α ∈ ∏_{n≤N} Z(p^n), x = all-ones.

    Every coordinate 1 - p·α_n is a unit mod p^n, so the order is exactly
    p^N.  This is the finite shadow of the product P/t(P) failing to be
    divisible.
    """
    return _least_coset_order(p, N)


def ab4star_failure_witness(p: int, N: int) -> WitnessResult:
    """Minimal order of a preimage of all-ones under ∏ (Z(p^n) → Z(p)).

    Preimage coordinates satisfy a_n ≡ 1 mod p, hence are units of additive
    order p^n; the minimum over preimages is p^N, unbounded in N — the
    finite shadow of the product of epimorphisms failing to be epi in the
    torsion category.
    """
    return _least_coset_order(p, N)


# ---------------------------------------------------------------------------
# Random expressions (property-test corpus)


def random_expression(rng, max_terms: int = 4) -> TorsionExpr:
    primes = (2, 3, 5, 7)
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        p = rng.choice(primes)
        kind = rng.randrange(6)
        if kind <= 2:
            atom: Atom = Cyclic(p, rng.randint(1, 4))
        elif kind == 3:
            atom = Prufer(p)
        elif kind == 4:
            atom = UnboundedFamily(p)
        else:
            atom = AllPrimesCyclic()
        mult: Mult = rng.choice([1, 2, 3, None])
        terms.append((atom, mult))
    return TorsionExpr.from_terms(terms)
