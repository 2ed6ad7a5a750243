"""Output drift guard: fixed CLI requests answer byte for byte as recorded.

Each request's exit code and stdout are hashed together (SHA-256 of
``"<code>\\n<stdout>"``) and compared with ``drift_digests.json``.  The
requests cover every universal (co)extension certificate of order at most 8
in full, ``canon`` and ``snf`` on the seeded 30x30 and 40x40 matrices of the
CI, a ``canon`` that keeps several coordinates (three invariant factors
> 1 and free rank; the seeded matrices keep one each), a few sequence requests (``realize``, ``classify``, ``act``, ``delta``),
and the comparison maps and cyclic checks (``psi``, ``psi --phi``,
``cyclic-check``), free summands and ends included.  A change that means to change an output regenerates the file
with ``PYTHONPATH=src python tests/test_drift.py`` and records the drift in
CHANGES.md.

The ``canonical`` family holds only what is canonical: the universal
requests without ``--full`` and the ``classify`` answers.  A change to an
elimination may move particular solutions (``--full``'s f and g,
``realize``, cyclic-check witnesses), but never these digests.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from abext.cli import main

DIGESTS = Path(__file__).with_name("drift_digests.json")

# The abelian groups of order at most 8, by invariant factors.
SMALL_GROUPS = [(), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)]


def group_json(factors, rank=0) -> dict:
    return {"rank": rank, "factors": [str(d) for d in factors]}


def group(factors, rank=0) -> str:
    return json.dumps(group_json(factors, rank))


def ext_class(A, B, coords, B_rank=0) -> str:
    return json.dumps({"A": group_json(A), "B": group_json(B, B_rank), "coords": [str(c) for c in coords]})


def seeded_matrix(seed: int, n: int) -> str:
    """The CI's seeded n x n matrix with entries in [-9, 9]."""
    rng = random.Random(seed)
    return json.dumps([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def mixed_presentation(seed: int, m: int, n: int, factors) -> str:
    """A seeded m x n presentation whose Smith form is ``factors`` then
    zeros: diag(factors) mixed by unimodular row and column operations."""
    rng = random.Random(seed)
    rows = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(factors)]
    rows += [[0] * n for _ in range(m - len(factors))]
    for _ in range(2 * n):  # column j += q column k
        j, k = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        for row in rows:
            row[j] += q * row[k]
    for _ in range(3 * m):  # row i += q row k
        i, k = rng.sample(range(m), 2)
        q = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[k])]
    return json.dumps(rows)


def run(argv):
    """(exit code, stdout) of one in-process request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def universal_requests(full=True):
    """(label, argv) of every universal (co)extension request of order at most 8, with ``--full`` when ``full``."""
    for verb in ("univ-ext", "univ-coext"):
        for B in SMALL_GROUPS:
            for A in SMALL_GROUPS:
                yield f"{verb} B={B} A={A}", [verb, "--B", group(B), "--A", group(A)] + ["--full"] * full


def normal_form_requests():
    for seed, n in ((30, 30), (40, 40)):
        m = seeded_matrix(seed, n)
        yield f"snf seed={seed} {n}x{n}", ["snf", "--matrix", m]
        yield f"canon seed={seed} {n}x{n}", ["canon", "--presentation", m]
    # Z(2) + Z(6) + Z(12) + Z^5: seven kept coordinates of nine
    yield "canon mixed seed=36 6x9", ["canon", "--presentation", mixed_presentation(36, 6, 9, (1, 2, 6, 12))]


# (A, B, rank of B, coords) of classes in Ext^1(A, B), split and not, one with a free end.
CLASSES = [
    ((4,), (2,), 0, (1,)),
    ((2, 4), (2, 4), 0, (1, 0, 1, 3)),
    ((6,), (6,), 0, (5,)),
    ((4,), (4,), 0, (0,)),
    ((2, 2), (8,), 0, (1, 1)),
    ((4,), (2,), 1, (1, 3)),
]


def sequence_requests():
    """realize for each class, then classify and delta of the realized
    sequence (read off the realize answer), and both actions of a map."""
    for A, B, rank, coords in CLASSES:
        cls = ext_class(A, B, coords, rank)
        name = f"A={A} B={B}+Z^{rank} coords={coords}"
        yield f"realize {name}", ["realize", "--class", cls]
        seq = json.dumps(json.loads(run(["realize", "--class", cls])[1])["sequence"])
        yield f"classify {name}", ["classify", "--sequence", seq]
        yield f"delta {name}", ["delta", "--sequence", seq, "--T", "Z(2)+Z(4)"]
        yield f"delta --dual {name}", ["delta", "--sequence", seq, "--T", "Z(4)", "--dual"]
    twice = json.dumps({"source": group_json((4,)), "target": group_json((2, 4)), "matrix": [["1"], ["2"]]})
    yield "act pull", ["act", "--class", ext_class((2, 4), (4,), (1, 3)), "--map", twice, "--side", "pull"]
    yield "act push", ["act", "--class", ext_class((4,), (4,), (3,)), "--map", twice, "--side", "push"]
    free = json.dumps({"source": group_json((2,), 1), "target": group_json((4,)), "matrix": [["2", "1"]]})
    yield "act pull from a free source", ["act", "--class", ext_class((4,), (6,), (2,)), "--map", free, "--side", "pull"]


# (summands, B) of the comparison maps, each asked for both Ψ and Φ.
COMPARISONS = [
    ("Z(2);Z(4)", "Z(2)+Z(4)"),
    ("Z+Z(2);Z(6)", "Z+Z(4)"),
    ("Z(2)+Z(4);Z(4)", "Z(8)+Z"),
    ("Z(6);Z(4)", "Z+Z(6)"),
    ("Z(4);Z", "Z(2)"),
    ("Z;Z(2)", "Z"),
    ("Z(3)+Z(9)", "Z(3)^2"),
]
# (B, A, samples, seed) of the cyclic checks: trivial Ext, no samples, free ends.
CYCLIC_CHECKS = [
    ("Z(2)", "Z(2)^2", 3, 0),
    ("Z(2)+Z", "Z(4)", 2, 0),
    ("Z(4)", "Z+Z(2)", 2, 0),
    ("Z(3)", "Z(2)", 5, 0),
    ("Z(2)+Z(4)", "Z(2)", 0, 0),
    ("Z(6)", "Z(4)+Z(3)", 1, 7),
]


def action_requests():
    """Ψ and Φ of a few families, and cyclic checks with their witnesses."""
    for summands, B in COMPARISONS:
        yield f"psi {summands} B={B}", ["psi", "--summands", summands, "--B", B]
        yield f"psi --phi {summands} B={B}", ["psi", "--summands", summands, "--B", B, "--phi"]
    for B, A, samples, seed in CYCLIC_CHECKS:
        argv = ["cyclic-check", "--B", B, "--A", A, "--samples", str(samples), "--seed", str(seed)]
        yield f"cyclic-check B={B} A={A} samples={samples} seed={seed}", argv


def canonical_requests():
    """What no choice of particular solution can move: every universal
    (co)extension of order at most 8 without ``--full`` (verdicts, |X|, the
    middle group) and the classes ``classify`` reads off realized sequences."""
    yield from universal_requests(full=False)
    yield from ((name, argv) for name, argv in sequence_requests() if name.startswith("classify "))


FAMILIES = {
    "canonical": canonical_requests,
    "universal": universal_requests,
    "normal_forms": normal_form_requests,
    "sequences": sequence_requests,
    "actions": action_requests,
}


def digest(argv) -> str:
    code, out = run(argv)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_outputs_match_the_recorded_digests(family):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[family]
    requests = list(FAMILIES[family]())
    assert [name for name, _ in requests] == list(recorded)
    drifted = [name for name, argv in requests if digest(argv) != recorded[name]]
    assert not drifted, f"{len(drifted)} of {len(requests)} requests drifted: {drifted[:5]}"


if __name__ == "__main__":
    table = {family: {name: digest(argv) for name, argv in make()} for family, make in sorted(FAMILIES.items())}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    sys.stdout.write(f"{sum(map(len, table.values()))} digests written to {DIGESTS}\n")
