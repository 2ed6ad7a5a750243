"""The four workloads: seeded inputs, the calls into abext, and their checks.

An operation is one certificate build, one normal-form call or one CLI
request.  Each workload builds one *round*: a fixed list of operations made
from the seed.  A run repeats whole rounds, so every run attempts the same
operations in the same proportions, faults included.

Calls go through module attributes (``universal.build_universal_extension``)
at call time, so the tracer's rebinding is seen.  Checks use only
``arith``; they never compare with saved program output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import arith
from abext import abgroup, cli, intlin, universal


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    fault: Optional[str] = None  # a known fault id: failing is expected
    size: Optional[Callable[[object], int]] = None  # a reported output size


def group_of(G) -> tuple:
    """A program FinGenAb as the benchmark's (rank, factors) pair."""
    return G.free_rank, tuple(G.invariant_factors)


def program_group(g):
    return abgroup.FinGenAb(g[0], g[1])


# ---------------------------------------------------------------------------
# certify-small and certify-large


def certificate_check(direction, B, A, cert) -> bool:
    """Verdicts, |X|, both ends, the middle's size and g∘f = 0."""
    if cert.degenerate or not (cert.condition_a.passed and cert.condition_b.passed and cert.condition_c.passed):
        return False
    X = arith.ext_order(B, A) if direction == "extension" else arith.ext_order(A, B)
    if len(cert.X) != X:
        return False
    seq = cert.sequence
    sub, mid, quot = group_of(seq.f.source), group_of(seq.f.target), group_of(seq.g.target)
    if group_of(seq.g.source) != mid:
        return False
    want_sub, want_quot = (A, arith.power(B, X)) if direction == "extension" else (arith.power(B, X), A)
    if (sub, quot) != (want_sub, want_quot):
        return False
    if mid[0] == 0 and A[0] == 0 and B[0] == 0:
        if arith.order(mid) != arith.order(A) * arith.order(B) ** X:
            return False
    elif mid[0] != A[0] + X * B[0]:
        return False
    return arith.composite_is_zero(seq.g.matrix.rows, seq.f.matrix.rows, arith.moduli(quot))


def certificate_op(direction, B, A) -> Op:
    build = "build_universal_extension" if direction == "extension" else "build_universal_coextension"
    PB, PA = program_group(B), program_group(A)
    return Op(
        f"{direction} B={B} A={A}",
        lambda: getattr(universal, build)(PB, PA),
        lambda cert: certificate_check(direction, B, A, cert),
    )


def groups_up_to(n: int) -> list:
    """Every non-trivial finite abelian group of order <= n, canonically."""
    out = set()

    def rec(orders, size):
        if orders:
            out.add(arith.canonical(0, orders))
        for q in range(2, n // size + 1):
            if not orders or q >= orders[-1]:
                rec(orders + [q], size * q)

    rec([], 1)
    return sorted(out, key=lambda g: (math.prod(g[1]), g[1]))


def certify_small(rng: random.Random) -> list:
    """Every (B, A) of order <= 8 with 1 < |X| <= 16, both directions, and
    the free-summand cases A in {Z, Z + Z(2)} with |B| <= 4."""
    ops = []
    finite = groups_up_to(8)
    for B in finite:
        for A in finite:
            if 1 < arith.ext_order(B, A) <= 16:
                ops.append(certificate_op("extension", B, A))
            if 1 < arith.ext_order(A, B) <= 16:
                ops.append(certificate_op("coextension", B, A))
    for A in ((1, ()), (1, (2,))):
        for B in groups_up_to(4):
            if arith.ext_order(B, A) > 1:
                ops.append(certificate_op("extension", B, A))
            if arith.ext_order(A, B) > 1:
                ops.append(certificate_op("coextension", B, A))
    rng.shuffle(ops)
    return ops


# |X| from 64 to 256 in both directions.  B = A = Z(2)^3 (|X| = 512) is left
# out: its two builds take 6-12 s each, which would more than double the
# round for two operations.
LARGE_PAIRS = [
    ((0, (2, 2, 2)), (0, (2, 2))),
    ((0, (3, 3)), (0, (3, 3))),
    ((0, (6, 6)), (0, (2, 6))),
    ((0, (2, 2)), (0, (2, 2, 2, 2))),
    ((0, (2, 2, 2, 2)), (0, (2, 2))),
    ((0, (2, 4)), (0, (2, 2, 4))),
    ((0, (2, 8)), (0, (2, 8))),
    ((0, (4, 4)), (0, (4, 4))),
    ((0, (2, 2, 4)), (0, (2, 8))),
    ((0, (4, 4)), (0, (2, 2, 2))),
    ((0, (2, 2, 2)), (0, (2, 6))),
    ((0, (2, 6)), (0, (2, 2, 4))),
    ((0, (2, 4)), (0, (4, 4))),
    ((0, (2, 8)), (0, (2, 2, 2))),
    ((0, (2, 2)), (0, (2, 2, 4))),
    ((0, (4, 4)), (0, (2, 8))),
    ((0, (2, 2, 4)), (0, (2, 2))),
    ((0, (2, 2, 2)), (0, (4, 4))),
    ((0, (2, 6)), (0, (2, 2, 2))),
    ((0, (2, 4)), (0, (2, 2, 2))),
]


def certify_large(rng: random.Random) -> list:
    ops = []
    for B, A in LARGE_PAIRS:
        ops.append(certificate_op("extension", B, A))
        ops.append(certificate_op("coextension", A, B))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# snf


def random_matrix(rng, m, n, rank=None) -> list:
    """Dense m x n, entries in [-9, 9]; with ``rank``, the extra rows and
    columns are sums or differences of two earlier ones."""
    if rank is None:
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    basis = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rank)]
    cols = [list(c) for c in zip(*basis)]
    while len(cols) < n:
        a, b = rng.sample(range(rank), 2)
        cols.append([x + rng.choice((-1, 1)) * y for x, y in zip(cols[a], cols[b])])
    rows = [list(r) for r in zip(*cols)]
    while len(rows) < m:
        a, b = rng.sample(range(rank), 2)
        rows.append([x + rng.choice((-1, 1)) * y for x, y in zip(rows[a], rows[b])])
    rng.shuffle(rows)
    return rows


# (rows, cols, rank or None for full rank): square, tall and wide shapes.  No
# 20x20 square: a few seeded ones grow thousands of digits more than the rest,
# which moved the tail by a quarter from seed to seed.
SNF_SHAPES = [
    (6, 6, None), (10, 10, None), (14, 14, None), (18, 18, None),
    (20, 14, None), (16, 10, None), (12, 8, None),
    (14, 20, None), (10, 16, None), (8, 12, None),
    (16, 16, 11), (12, 12, 8), (16, 12, 8), (12, 16, 8),
]


SNF_PER_SHAPE = 12
SOLVE_MOD_MAX_ROWS = 8


def rows(M) -> list:
    return [list(r) for r in M.rows]


def snf_check(M, U, D, V) -> bool:
    """U·M·V = D exactly, D a Smith diagonal, det U = det V = ±1."""
    m, n = len(M), len(M[0])
    if len(U) != m or len(V) != n or len(D) != m or any(len(r) != n for r in D):
        return False
    if arith.matmul(arith.matmul(U, M), V) != D or not arith.is_smith_diagonal(D):
        return False
    return abs(arith.det(U)) == 1 and abs(arith.det(V)) == 1


def hnf_check(M, result) -> bool:
    """H = U·M with U unimodular and H a Hermite staircase."""
    H, U = rows(result[0]), rows(result[1])
    if len(U) != len(M) or arith.matmul(U, M) != H or not arith.is_hermite(H):
        return False
    return abs(arith.det(U)) == 1


def solve_check(M, b, mods, x) -> bool:
    """A planted solution exists, so None is wrong; else every congruence holds."""
    if x is None or len(x) != len(M[0]):
        return False
    for row, bi, mi in zip(M, b, mods):
        r = sum(a * v for a, v in zip(row, x)) - bi
        if (r % mi if mi else r):
            return False
    return True


def snf_ops(rng: random.Random) -> list:
    ops = []
    for m, n, rank in SNF_SHAPES * SNF_PER_SHAPE:
        M = random_matrix(rng, m, n, rank)
        PM = intlin.IntMatrix(tuple(map(tuple, M)))
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        # Per-row moduli only up to SOLVE_MOD_MAX_ROWS rows: beyond that the
        # SNF of the augmented system runs for seconds to minutes.
        mods = [rng.choice((0, 2, 3, 4, 5, 6, 8, 9, 12)) if m <= SOLVE_MOD_MAX_ROWS else 0 for _ in range(m)]
        b = [sum(a * v for a, v in zip(row, x0)) for row in M]
        b = [bi % mi if mi else bi for bi, mi in zip(b, mods)]
        shape = f"{m}x{n}" + (f" rank {rank}" if rank else "")
        ops.append(Op(
            f"snf {shape}",
            lambda PM=PM: intlin.snf(PM),
            lambda d, M=M: snf_check(M, rows(d.U), rows(d.D), rows(d.V)),
            size=lambda d: arith.decimal_digits(arith.max_abs(d.U.rows, d.V.rows)),
        ))
        ops.append(Op(f"hnf {shape}", lambda PM=PM: intlin.hnf(PM), lambda r, M=M: hnf_check(M, r)))
        ops.append(Op(
            f"solve_mod {shape}",
            lambda PM=PM, b=b, mods=mods: intlin.solve_mod(PM, b, mods),
            lambda x, M=M, b=b, mods=mods: solve_check(M, b, mods, x),
        ))
    return ops


# ---------------------------------------------------------------------------
# cli


def run_cli(argv):
    """abext.cli.main in-process with stdout captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def ok_json(result):
    code, text = result
    if code != 0:
        raise ValueError(f"exit {code}")
    return json.loads(text)


def is_structured_error(result) -> bool:
    code, text = result
    if code != 1:
        return False
    err = json.loads(text).get("error")
    return isinstance(err, dict) and isinstance(err.get("code"), str) and isinstance(err.get("message"), str)


def group_json(g) -> dict:
    return {"rank": g[0], "factors": [str(d) for d in g[1]]}


def from_json_group(d) -> tuple:
    return int(d.get("rank", 0)), tuple(int(x) for x in d.get("factors", ()))


def group_arg(rng, g) -> str:
    """Either wire form of a group: an expression or the JSON object."""
    if rng.random() < 0.5:
        return json.dumps(group_json(g))
    parts = (["Z"] if g[0] == 1 else [f"Z^{g[0]}"] if g[0] else []) + [f"Z({d})" for d in g[1]]
    return "+".join(parts)


def random_group(rng, max_rank=0, max_cyclic=3) -> tuple:
    orders = [rng.randint(2, 12) for _ in range(rng.randint(1, max_cyclic))]
    return arith.canonical(rng.randint(0, max_rank), orders)


def random_class(rng, A, B) -> list:
    return [rng.randrange(s) for s in arith.ext_pieces(A, B)]


def class_json(A, B, coords) -> dict:
    return {"A": group_json(A), "B": group_json(B), "coords": [str(c) for c in coords]}


def random_map(rng, S, T) -> list:
    """A well-defined map S -> T: entry (i, j) times S's j-th modulus vanishes mod T's i-th."""
    out = []
    for n in arith.moduli(T):
        row = []
        for m in arith.moduli(S):
            if n == 0:
                row.append(rng.randint(-3, 3) if m == 0 else 0)
            elif m == 0:
                row.append(rng.randrange(n))
            else:
                step = n // math.gcd(n, m)
                row.append(step * rng.randrange(n // step))
        out.append(row)
    return out


def map_json(S, T, rows) -> dict:
    return {"source": group_json(S), "target": group_json(T), "matrix": [[str(v) for v in r] for r in rows]}


def reduce_class(A, B, coords) -> list:
    return [c % s for c, s in zip(coords, arith.ext_pieces(A, B))]


def pullback_expected(A, B, coords, Ap, h) -> list:
    """η·h for h : A' -> A, lifting h to the canonical resolutions."""
    nB = len(arith.moduli(B))
    out = []
    for jp, dp in enumerate(Ap[1]):
        acc = [0] * nB
        for i, d in enumerate(A[1]):
            coeff = dp * h[i][jp] // d
            for t in range(nB):
                acc[t] += coeff * coords[i * nB + t]
        out.extend(acc)
    return reduce_class(Ap, B, out)


def pushout_expected(A, B, coords, Bp, k) -> list:
    nB = len(arith.moduli(B))
    out = []
    for j in range(len(A[1])):
        block = coords[j * nB:(j + 1) * nB]
        out.extend(sum(a * v for a, v in zip(row, block)) for row in k)
    return reduce_class(A, Bp, out)


def class_coords(d, A, B) -> list:
    if from_json_group(d["A"]) != A or from_json_group(d["B"]) != B:
        raise ValueError("class ends")
    return [int(c) for c in d["coords"]]


def random_torsion_expr(rng) -> str:
    terms = []
    for _ in range(rng.randint(1, 4)):
        p = rng.choice((2, 3, 5, 7))
        kind = rng.randrange(6)
        if kind == 0:
            atom = f"Z({rng.randint(2, 30)})"
        elif kind <= 2:
            atom = f"Z({p}^{rng.randint(1, 4)})"
        elif kind == 3:
            atom = f"Z({p}^inf)"
        elif kind == 4:
            atom = f"U({p})"
        else:
            atom = "W"
        mult = rng.choice(("", "", "^2", "^3", "^inf"))
        terms.append(atom + mult)
    return "+".join(terms)


# The classifier fixture table from the paper: (expression, universal_TZ, cotorsion).
TORSION_FIXTURES = [
    ("U(2)", False, False),
    ("U(3)", False, False),
    ("U(2)+Z(3)", False, False),
    ("Z(2^inf)+U(2)", False, False),
    ("U(5)+Z(5^inf)^inf", False, False),
    ("Z(2^inf)", True, True),
    ("Z(2^inf)^inf", True, True),
    ("Z(4)^inf", True, True),
    ("Z(2)+Z(8)^3", True, True),
    ("Z(5^inf)^3+Z(5^2)^inf", True, True),
    ("Z(12)^inf", True, True),
    ("Z(7^4)^inf+Z(7^inf)", True, True),
    ("W", True, False),
    ("W+Z(4)", True, False),
]

# A dense 30 x 30 matrix whose snf transforms pass 4300 digits.  Its seed is
# fixed, so the fault request is the same in every run.
F6_MATRIX = random_matrix(random.Random(30), 30, 30)


def check_torsion_report(text, d, want=None) -> bool:
    universal_tz, cotorsion, bound = arith.torsion_verdicts(text)
    if want is not None and want != (universal_tz, cotorsion):
        return False
    if d["universal_TZ"] != universal_tz or d["cotorsion"] != cotorsion:
        return False
    return d["cotorsion_bound"] == (None if bound is None else str(bound))


def fault_ops() -> list:
    """F1-F6: requests that today escape main as a Python exception.  The
    right outcome is exit 0 with a right answer or exit 1 with a structured
    error."""
    def f5_ok(result):
        if is_structured_error(result):
            return True
        d = ok_json(result)
        return d["universal_TZ"] is True and d["cotorsion"] is True

    def f6_ok(result):
        if is_structured_error(result):
            return True
        d = ok_json(result)
        U, D, V = ([[int(v) for v in r] for r in d[key]] for key in ("U", "D", "V"))
        return snf_check(F6_MATRIX, U, D, V)

    requests = [
        ("F1", ["hom", "--A", '{"rank":"x"}', "--B", "Z(2)"], is_structured_error),
        ("F2", ["ext", "--A", '{"rank": 0, "factors": ["2"]', "--B", "Z(2)"], is_structured_error),
        ("F3", ["hom", "--A", "@perfbench/no-such-group.json", "--B", "Z(2)"], is_structured_error),
        ("F4", ["realize", "--class", '{"B": {"rank": 0, "factors": ["2"]}, "coords": ["1"]}'], is_structured_error),
        ("F5", ["classify-torsion", "Z(2^40000000)"], f5_ok),
        ("F6", ["snf", "--matrix", json.dumps([[str(v) for v in r] for r in F6_MATRIX])], f6_ok),
    ]
    return [Op(f"{fid} {argv[0]}", lambda argv=argv: run_cli(argv), check, fault=fid) for fid, argv, check in requests]


def cli_ops(rng: random.Random) -> list:
    ops = []

    def request(label, argv, check):
        ops.append(Op(f"{label}", lambda argv=list(argv): run_cli(argv), lambda r: check(ok_json(r))))

    for _ in range(12):
        A, B = random_group(rng, 1), random_group(rng, 1)
        want = arith.hom(A, B)
        request("hom", ["hom", "--A", group_arg(rng, A), "--B", group_arg(rng, B)],
                lambda d, want=want: from_json_group(d["group"]) == want)
    for _ in range(12):
        A, B = random_group(rng, 1), random_group(rng, 1)
        want = arith.ext(A, B)
        request("ext", ["ext", "--A", group_arg(rng, A), "--B", group_arg(rng, B)],
                lambda d, want=want: from_json_group(d["group"]) == want)

    # classify(realize(c)) = c: the classify request reads the sequence the
    # realize request of the same round returned.
    for _ in range(6):
        A, B = random_group(rng, 0, 2), random_group(rng, 1, 2)
        coords = random_class(rng, A, B)
        slot = {}

        def realized(d, A=A, B=B, slot=slot):
            f, g = d["sequence"]["f"], d["sequence"]["g"]
            sub, mid, quot = from_json_group(f["source"]), from_json_group(f["target"]), from_json_group(g["target"])
            if (sub, quot) != (B, A) or from_json_group(g["source"]) != mid:
                return False
            if B[0] == 0 and arith.order(mid) != arith.order(A) * arith.order(B):
                return False
            if mid[0] != B[0]:
                return False
            grows = [[int(v) for v in r] for r in g["matrix"]]
            frows = [[int(v) for v in r] for r in f["matrix"]]
            slot["sequence"] = json.dumps(d["sequence"])
            return arith.composite_is_zero(grows, frows, arith.moduli(A))

        request("realize", ["realize", "--class", json.dumps(class_json(A, B, coords))], realized)
        ops.append(Op(
            "classify",
            lambda slot=slot: run_cli(["classify", "--sequence", slot.pop("sequence")]),
            lambda r, A=A, B=B, coords=coords: class_coords(ok_json(r)["class"], A, B) == coords,
        ))

    # (c1 + c2) - c2 = c1 under baer, each sum computed here.
    for _ in range(4):
        A, B = random_group(rng, 0, 2), random_group(rng, 1, 2)
        c1, c2 = random_class(rng, A, B), random_class(rng, A, B)
        s = reduce_class(A, B, [a + b for a, b in zip(c1, c2)])
        j1, j2, js = (json.dumps(class_json(A, B, c)) for c in (c1, c2, s))
        request("baer", ["baer", "--c1", j1, "--c2", j2],
                lambda d, A=A, B=B, s=s: class_coords(d["class"], A, B) == s)
        request("baer", ["baer", "--c1", js, "--c2", j2, "--subtract"],
                lambda d, A=A, B=B, c1=c1: class_coords(d["class"], A, B) == c1)

    for _ in range(3):
        A, B, Ap = random_group(rng, 0, 2), random_group(rng, 0, 2), random_group(rng, 0, 2)
        coords, h = random_class(rng, A, B), random_map(rng, Ap, A)
        want = pullback_expected(A, B, coords, Ap, h)
        request("act", ["act", "--class", json.dumps(class_json(A, B, coords)),
                        "--map", json.dumps(map_json(Ap, A, h)), "--side", "pull"],
                lambda d, Ap=Ap, B=B, want=want: class_coords(d["class"], Ap, B) == want)
        Bp = random_group(rng, 1, 2)
        k = random_map(rng, B, Bp)
        want = pushout_expected(A, B, coords, Bp, k)
        request("act", ["act", "--class", json.dumps(class_json(A, B, coords)),
                        "--map", json.dumps(map_json(B, Bp, k)), "--side", "push"],
                lambda d, A=A, Bp=Bp, want=want: class_coords(d["class"], A, Bp) == want)

    # δ of a split sequence is zero; δ(id) of Z(m) -> Z(mn) -> Z(n) is its
    # class, non-zero when gcd(m, n) > 1.
    for _ in range(2):
        b = rng.choice((2, 3))
        a1 = b * rng.choice((1, 2))
        B, A = (0, (b,)), (0, (a1, a1 * rng.choice((1, 3))))
        E = (0, (b,) + A[1])
        seq = {"f": map_json(B, E, [[1], [0], [0]]), "g": map_json(E, A, [[0, 1, 0], [0, 0, 1]])}
        T = random_group(rng, 0, 2)
        for dual, want_src, want_tgt in ((False, arith.hom(T, A), arith.ext(T, B)),
                                         (True, arith.hom(B, T), arith.ext(A, T))):
            request("delta", ["delta", "--sequence", json.dumps(seq), "--T", group_arg(rng, T)] + (["--dual"] if dual else []),
                    lambda d, s=want_src, t=want_tgt: (from_json_group(d["map"]["source"]), from_json_group(d["map"]["target"])) == (s, t)
                    and all(v == "0" for r in d["map"]["matrix"] for v in r))
        m = rng.choice((2, 3, 4, 6))
        n = m * rng.choice((1, 2))
        B, A, E = (0, (m,)), (0, (n,)), (0, (m * n,))
        seq = json.dumps({"f": map_json(B, E, [[n]]), "g": map_json(E, A, [[1]])})
        for dual, T, want_src, want_tgt in ((False, A, arith.hom(A, A), arith.ext(A, B)),
                                            (True, B, arith.hom(B, B), arith.ext(A, B))):
            request("delta", ["delta", "--sequence", seq, "--T", group_arg(rng, T)] + (["--dual"] if dual else []),
                    lambda d, s=want_src, t=want_tgt: (from_json_group(d["map"]["source"]), from_json_group(d["map"]["target"])) == (s, t)
                    and any(v != "0" for r in d["map"]["matrix"] for v in r))

    for phi in (False, True):
        summands = [random_group(rng, 0, 2) for _ in range(2)]
        B = random_group(rng, 0, 2)
        total = arith.canonical(0, [d for g in summands for d in g[1]])
        if phi:
            want_dom = arith.ext(B, total)
            want_cod = arith.canonical(0, [d for g in summands for d in arith.ext(B, g)[1]])
        else:
            want_dom = arith.ext(total, B)
            want_cod = arith.canonical(0, [d for g in summands for d in arith.ext(g, B)[1]])
        argv = ["psi", "--summands", ";".join(group_arg(rng, g) for g in summands), "--B", group_arg(rng, B)]
        request("psi", argv + (["--phi"] if phi else []),
                lambda d, dom=want_dom, cod=want_cod: from_json_group(d["domain"]) == dom
                and from_json_group(d["codomain"]) == cod and d["injective"] is True and d["bijective"] is True)

    # canon of a square nonsingular presentation: |det| is the group order.
    for _ in range(3):
        n = rng.randint(2, 5)
        while True:
            P = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = abs(arith.det(P))
            if det:
                break

        def canon_ok(d, n=n, det=det):
            g = from_json_group(d["group"])
            proj = [[int(v) for v in r] for r in d["to_canonical"]]
            lift = [[int(v) for v in r] for r in d["from_canonical"]]
            dim = len(g[1]) + g[0]
            identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
            return (g[0] == 0 and arith.canonical(0, g[1]) == g and math.prod(g[1]) == det
                    and (dim == 0 or arith.matmul(proj, lift) == identity))

        request("canon", ["canon", "--presentation", json.dumps([[str(v) for v in r] for r in P])], canon_ok)

    # Universal certificates and cyclic generation on every pair with
    # |B|, |A| <= 4 and |X| <= 8: these are the slowest requests, so taking
    # all of them keeps the tail from depending on which ones a seed picks.
    small = [(B, A) for B in groups_up_to(4) for A in groups_up_to(4) if 1 < arith.ext_order(B, A) <= 8]
    for verb, (B, A) in itertools.product(("univ-ext", "univ-coext", "cyclic-check"), small):
        X = arith.ext_order(B, A)
        if verb == "univ-coext":
            B, A = A, B  # X = Ext(A, B) for a co-extension

        def univ_ok(d, B=B, A=A, X=X):
            if d["X_size"] != X or d["degenerate"] or not all(c["passed"] for c in d["conditions"].values()):
                return False
            return arith.order(from_json_group(d["middle"])) == arith.order(A) * arith.order(B) ** X

        def cyclic_ok(d, B=B, X=X):
            BX = arith.power(B, X)
            return d["passed"] is True and len(d["witnesses"]) == 3 and all(
                from_json_group(w["gamma"]["source"]) == BX and from_json_group(w["gamma"]["target"]) == BX
                for w in d["witnesses"])

        argv = [verb, "--B", group_arg(rng, B), "--A", group_arg(rng, A)]
        if verb == "cyclic-check":
            request(verb, argv + ["--samples", "3", "--seed", str(rng.randrange(1000))], cyclic_ok)
        else:
            request(verb, argv, univ_ok)

    for _ in range(3):
        text = random_torsion_expr(rng)

        def parse_ok(d, text=text):
            got = [(t["atom"], int(t["p"]) if "p" in t else None, int(t["k"]) if "k" in t else None,
                    None if t["multiplicity"] == "inf" else int(t["multiplicity"])) for t in d["terms"]]
            return got == arith.torsion_normal_form(text)

        request("parse", ["parse", text], parse_ok)
    for text, universal_tz, cotorsion in TORSION_FIXTURES:
        request("classify-torsion", ["classify-torsion", text],
                lambda d, text=text, want=(universal_tz, cotorsion): check_torsion_report(text, d, want))
    for _ in range(3):
        text = random_torsion_expr(rng)
        request("classify-torsion", ["classify-torsion", text], lambda d, text=text: check_torsion_report(text, d))
        _, cotorsion, bound = arith.torsion_verdicts(text)
        request("cotorsion", ["cotorsion", text],
                lambda d, c=cotorsion, b=bound: d["cotorsion"] == c and d["bound"] == (None if b is None else str(b)))

    for verb in ("witness", "ab4-witness"):
        p, N = rng.choice(((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)))
        request(verb, [verb, "--p", str(p), "--N", str(N)], lambda d, want=str(p ** N): d["order"] == want)

    ops += fault_ops()
    return ops


WORKLOADS = {
    "certify-small": certify_small,
    "certify-large": certify_large,
    "snf": snf_ops,
    "cli": cli_ops,
}
