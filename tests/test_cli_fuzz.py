"""Seeded, grammar-driven requests over every CLI verb.

Each request is drawn from a small grammar of group expressions and atoms,
JSON groups, matrices, classes, maps and sequences (well formed, of the
wrong type, ragged, mismatched at their ends, or holding 5,000-digit
numbers), torsion expressions and witness parameters, and handed to
``cli.main`` in-process.  Every request must end in one of three ways: exit
0 with a JSON document, exit 1 with ``{"error": {code, message}}``, or
exit 2 (a usage error).  A traceback fails the test.  ``random.Random``
draws everything, so a failure replays from its seed and index.

Three kinds of admitted request are left out, because each alone takes
seconds or gigabytes and the test is sized by ``REQUESTS`` to run in a few
seconds; all are recorded as open work.  There is no budget on printed size yet, so a group
as large as Z(2)^2000 beside a small one makes Ψ print a dense 8000 x 8000
matrix, and ``--full`` prints a universal certificate's legs densely, |X|·dim B
by dim E cells (past 1.5 GB for ``univ-coext --B "Z(4)+Z(2)^2" --A
"Z(2)^4" --full``).  A universal (co)extension with a free end canonicalizes
``realize``'s core exactly over Z, one lift per distinct twist, so Z + Z(2) +
Z(6) against itself takes seconds.  So the universal verbs draw finite ends
and no ``--full`` here; both are tested on their own elsewhere.
"""

import json
import random
from collections import Counter

from abext.abgroup import AbMap, FinGenAb
from abext.cli import main
from abext.errors import DomainError
from abext.homext import ExtClass, realize

VERBS = (
    "snf", "canon", "hom", "ext", "realize", "classify", "baer", "act", "delta", "psi",
    "univ-ext", "univ-coext", "cyclic-check", "parse", "classify-torsion", "cotorsion",
    "witness", "ab4-witness", "suite",
)
HUGE = "9" * 5000
REQUESTS = 100 * len(VERBS)

# Group expressions: small sums that answer fast, and atoms that are wrong.
FINITE_TERMS = ("Z(2)", "Z(3)", "Z(4)", "Z(6)", "Z(2)^2", "Z(1)", "Z(9)")
TERMS = FINITE_TERMS + ("Z", "Z^2")
BAD_GROUPS = (
    "", " ", "Z(", "Z()", "Z(0)", "Z(-2)", "Z(2)^", "Z(2)^-1", "Z(2)^x", "Z(2^inf)", "U(2)", "W", "Q",
    "Z(x)", "Z(2)++Z(3)", "+Z(2)", "Z(2)^1048577", f"Z({HUGE})", "Z(2^40000000)", "Z(²)", "Z(1.5)",
    "Z(1000000000000000003)", "@/nonexistent/abext/group.json", "{", "[]", "null", "5", '"Z(2)"',
    "Z^1048577",
)
BAD_JSON_GROUPS = (
    {"rank": "x"}, {"rank": -1}, {"rank": 10**12}, {"rank": None}, {"rank": 1.5}, {"rank": True},
    {"factors": "2"}, {"factors": ["4", "2"]}, {"factors": ["0"]}, {"factors": ["1"]}, {"factors": ["-2"]},
    {"factors": [2.5]}, {"factors": [True]}, {"factors": [HUGE]}, {"factors": [None]}, {"factors": {}},
    [], "Z(2)", 7, None, {},
)
# Torsion expressions: the symbolic grammar, and text that is not in it.
TORSION_ATOMS = ("Z(2)", "Z(3^2)", "Z(2^inf)", "Z(5^inf)", "U(2)", "U(3)", "W", "Z(4)", "Z(12)", "Z(7^4)")
BAD_TORSION = (
    "", "Z(", "Z(2^)", "Z(p^inf)", "U(0)", "U(4)", "Z(0)", "W^", "Z(2)^-1", "Z(3^10000)", "Z(2^40000000)",
    "Z(2)+", "++", "Z(2)^inf^inf", "x", f"Z({HUGE})", "Z(²)", "Z(2)^" + "1" * 4400,
)


def group_json(rng, free=True):
    """A JSON group: well formed and small, or wrong in one field."""
    if rng.random() < 0.7:
        rank = rng.choice((0, 0, 0, 1)) if free else 0
        return FinGenAb(rank, rng.choice(((), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6)))).to_json()
    return rng.choice(BAD_JSON_GROUPS)


def group_arg(rng, free=True):
    kind = rng.random()
    if kind < 0.55:
        return "+".join(rng.choice(TERMS if free else FINITE_TERMS) for _ in range(rng.randint(1, 2)))
    if kind < 0.8:
        return json.dumps(group_json(rng, free))
    return rng.choice(BAD_GROUPS)


def matrix_json(rng, shape=None):
    """A JSON matrix: integers or decimal strings, or ragged, oversized,
    mistyped or not a list of lists."""
    m, n = shape or (rng.randint(0, 4), rng.randint(0, 4))
    rows = [[rng.choice((rng.randint(-9, 9), str(rng.randint(-9, 9)))) for _ in range(n)] for _ in range(m)]
    kind = rng.random()
    if kind < 0.7 or not rows:
        return rows
    if kind < 0.78 and rows[0]:
        rows[0].pop()  # ragged
    elif kind < 0.84 and rows[0]:
        rows[0][0] = rng.choice((HUGE, "-" + HUGE))  # 5,000 digits
    elif kind < 0.9 and rows[0]:
        rows[0][0] = rng.choice((1.5, True, None, "x", [], {}))
    else:
        return rng.choice((5, "x", {}, [1, 2], [[[]]], None))
    return rows


def class_json(rng, valid, k=None):
    """A JSON class: the k-th valid one (a random one if k is None), or one
    with ends and coordinates drawn apart; either may then be mutated."""
    if k is not None or rng.random() < 0.6:
        data = valid["classes"][rng.randrange(len(valid["classes"])) if k is None else k].to_json()
    else:
        data = {"A": group_json(rng), "B": group_json(rng), "coords": [str(rng.randint(-9, 9)) for _ in range(rng.randint(0, 4))]}
    return _mutate(rng, data)


def map_json(rng, valid):
    """A JSON map: a valid one, or ends drawn apart with a matrix of their
    dimensions (mostly not well defined), or of a random shape when an end
    is malformed; either may then be mutated."""
    if rng.random() < 0.5:
        data = rng.choice(valid["maps"])
    else:
        src, tgt = group_json(rng), group_json(rng)
        try:
            shape = tuple(FinGenAb.from_json(g).dim for g in (tgt, src))
        except (ValueError, DomainError):
            shape = None
        data = {"source": src, "target": tgt, "matrix": matrix_json(rng, shape)}
    return _mutate(rng, data)


def sequence_json(rng, valid):
    if rng.random() < 0.5:
        data = rng.choice(valid["sequences"])
    else:
        data = {"f": map_json(rng, valid), "g": map_json(rng, valid)}
    return _mutate(rng, data)


def _mutate(rng, data):
    """``data`` as it is, or with one field dropped, swapped for another's, or
    replaced by a value of the wrong type."""
    if not isinstance(data, dict) or rng.random() < 0.6:
        return data
    data = dict(data)
    key = rng.choice(sorted(data))
    kind = rng.random()
    if kind < 0.3:
        del data[key]
    elif kind < 0.6:
        data[key] = data[rng.choice(sorted(data))]
    else:
        data[key] = rng.choice((None, 3, "x", [], {}, [HUGE], {"rank": 0}))
    return data


def torsion_expr(rng):
    if rng.random() < 0.75:
        terms = []
        for _ in range(rng.randint(1, 3)):
            atom = rng.choice(TORSION_ATOMS)
            terms.append(atom + rng.choice(("", "", "^2", "^inf", "^3")))
        return "+".join(terms)
    return rng.choice(BAD_TORSION)


def _arg(rng, text):
    """A JSON argument as text, now and then malformed."""
    if not isinstance(text, str):
        text = json.dumps(text)
    return text[: rng.randrange(len(text))] if text and rng.random() < 0.05 else text


def request(rng, verb, valid):
    """One argv for ``verb``."""
    if verb == "snf":
        argv = ["snf", "--matrix", _arg(rng, matrix_json(rng))]
    elif verb == "canon":
        argv = ["canon", "--presentation", _arg(rng, matrix_json(rng))]
    elif verb in ("hom", "ext"):
        argv = [verb, "--A", group_arg(rng), "--B", group_arg(rng)]
    elif verb == "realize":
        argv = ["realize", "--class", _arg(rng, class_json(rng, valid))]
    elif verb == "classify":
        argv = ["classify", "--sequence", _arg(rng, sequence_json(rng, valid))]
    elif verb == "baer":  # half of the pairs share their ends
        k = rng.randrange(len(valid["classes"])) if rng.random() < 0.5 else None
        argv = ["baer", "--c1", _arg(rng, class_json(rng, valid, k)), "--c2", _arg(rng, class_json(rng, valid, k))]
        argv += ["--subtract"] * rng.randint(0, 1)
    elif verb == "act":  # half of the maps meet the class at the side acted on
        side = rng.choice(("pull", "push", "pull", "push", "both"))
        k = rng.randrange(len(valid["classes"]))
        meets = valid.get(side) if rng.random() < 0.5 else None
        h = _mutate(rng, rng.choice(meets[k])) if meets else map_json(rng, valid)
        argv = ["act", "--class", _arg(rng, class_json(rng, valid, k)), "--map", _arg(rng, h), "--side", side]
    elif verb == "delta":
        argv = ["delta", "--sequence", _arg(rng, sequence_json(rng, valid)), "--T", group_arg(rng)]
        argv += ["--dual"] * rng.randint(0, 1)
    elif verb == "psi":
        summands = ";".join(group_arg(rng) for _ in range(rng.randint(0, 3)))
        argv = ["psi", "--summands", summands, "--B", group_arg(rng)] + ["--phi"] * rng.randint(0, 1)
    elif verb in ("univ-ext", "univ-coext"):
        argv = [verb, "--B", group_arg(rng, False), "--A", group_arg(rng, False)]
    elif verb == "cyclic-check":
        samples = rng.choice(("0", "1", "5", "-3", "1025", "1000000000", "x"))
        argv = ["cyclic-check", "--B", group_arg(rng, False), "--A", group_arg(rng, False), "--samples", samples]
    elif verb == "parse":
        argv = ["parse", torsion_expr(rng)]
    elif verb == "classify-torsion":
        argv = ["classify-torsion", torsion_expr(rng)]
        argv += rng.choice(([], [], ["--p", "3,5"], ["--p", "x"], ["--p", "0,-2"], ["--p", "1000000000000000003"]))
    elif verb == "cotorsion":
        argv = ["cotorsion", torsion_expr(rng)]
    elif verb in ("witness", "ab4-witness"):
        p = rng.choice(("-3", "0", "1", "2", "3", "4", "5", "7", "1000000000000000003", str(2**61 - 1), "x"))
        N = rng.choice(("-1", "0", "1", "2", "3", "5", "8", "20000", "y"))
        argv = [verb, "--p", p, "--N", N] + rng.choice(([], ["--mode", "brute"], ["--mode", "fast"], ["--mode", "auto"], ["--mode", "other"]))
    else:  # the suite's cheap criteria, and ids it has not
        argv = ["suite", "--only", rng.choice(("2", "3", "6", "7", "8", "9", "10", "8,9", "0", "11", "99", "x", "-1"))]
    # options every verb takes: one a budget only witness searches read
    argv += rng.choice(([], [], ["--pretty"], ["--seed", str(rng.randint(-5, 5))], ["--seed", "x"], ["--budget", rng.choice(("0", "16", "1024", "-1", "z"))]))
    return argv


def valid_values():
    """Well-formed classes, maps and sequences for the grammar to start from."""
    Z2, Z4 = FinGenAb(0, (2,)), FinGenAb(0, (4,))
    classes = [
        ExtClass(Z4, Z4, (1,)),
        ExtClass(Z2, Z2, (1,)),
        ExtClass(FinGenAb(0, (2, 4)), FinGenAb(1, (2,)), (1, 1, 0, 3)),
        ExtClass(FinGenAb(1, (2,)), Z4, (2,)),
    ]
    sequences = [realize(c) for c in classes]
    maps = [leg.to_json() for s in sequences for leg in (s.f, s.g)]
    # per class, maps into its quotient end (pull) and out of its sub end (push)
    pull = [[AbMap.identity(c.A).to_json(), s.g.to_json()] for c, s in zip(classes, sequences)]
    push = [[AbMap.identity(c.B).to_json(), s.f.to_json()] for c, s in zip(classes, sequences)]
    return {"classes": classes, "sequences": [s.to_json() for s in sequences], "maps": maps, "pull": pull, "push": push}


def test_seeded_requests_over_every_verb_end_in_json_or_a_structured_error(capsys):
    rng = random.Random(2029)
    valid = valid_values()
    outcomes = Counter()
    answered = set()
    for k in range(REQUESTS):
        verb = VERBS[k % len(VERBS)]
        argv = request(rng, verb, valid)
        code = main(argv)
        out = capsys.readouterr().out
        if code == 2:
            outcomes[2] += 1
            continue
        assert code in (0, 1), (k, argv, code)
        data = json.loads(out)
        if code == 1:
            error = data["error"]
            assert set(data) == {"error"} and isinstance(error["code"], str) and isinstance(error["message"], str), (k, argv)
        else:
            assert "error" not in data, (k, argv)
            answered.add(verb)
        outcomes[code] += 1
    assert sum(outcomes.values()) == REQUESTS and all(outcomes[c] >= 50 for c in (0, 1, 2)), outcomes
    assert answered == set(VERBS), set(VERBS) - answered  # every verb also answered
