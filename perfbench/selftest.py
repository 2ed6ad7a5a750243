"""Checker self-test: every checker must reject a deliberately corrupted output.

    python3 perfbench/selftest.py

Each case takes a genuine program output, confirms the checker accepts it,
corrupts one thing (a wrong factor, a perturbed U entry, a flipped verdict,
a wrong |X|, ...) and confirms the checker rejects the result.  Exit status
0 means every checker both accepts and rejects as it should.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as w  # noqa: E402
from abext import intlin  # noqa: E402

failures = []


def expect(name, accepted, want):
    ok = accepted is want
    print(f"{'ok  ' if ok else 'FAIL'} {'accepts' if want else 'rejects'} {name}")
    if not ok:
        failures.append(name)


def verdict(check, *args):
    try:
        return check(*args) is True
    except Exception:
        return False


def certificate_cases():
    B, A = (0, (2, 2)), (0, (2,))
    op = w.certificate_op("extension", B, A)
    cert = op.call()
    expect("a genuine extension certificate", verdict(op.check, cert), True)
    flipped = replace(cert, condition_b=replace(cert.condition_b, passed=False))
    expect("a flipped verdict", verdict(op.check, flipped), False)
    expect("a wrong |X|", verdict(op.check, replace(cert, X=cert.X[:-1])), False)

    def with_sequence(f_rows=None, quot=None):
        seq = cert.sequence
        f = SimpleNamespace(source=seq.f.source, target=seq.f.target,
                            matrix=SimpleNamespace(rows=f_rows or seq.f.matrix.rows))
        g = SimpleNamespace(source=seq.g.source, target=quot or seq.g.target, matrix=seq.g.matrix)
        return SimpleNamespace(degenerate=False, condition_a=cert.condition_a, condition_b=cert.condition_b,
                               condition_c=cert.condition_c, X=cert.X, sequence=SimpleNamespace(f=f, g=g))

    expect("a certificate rebuilt from its parts", verdict(op.check, with_sequence()), True)
    f_rows = [list(r) for r in cert.sequence.f.matrix.rows]
    f_rows[-1][0] += 1
    expect("g∘f != 0 (a perturbed f entry)", verdict(op.check, with_sequence(f_rows=f_rows)), False)
    expect("a wrong quotient end", verdict(op.check, with_sequence(quot=w.program_group((0, (2, 2))))), False)


def normal_form_cases():
    M = w.random_matrix(random.Random(5), 6, 6)
    PM = intlin.IntMatrix(tuple(map(tuple, M)))
    dec = intlin.snf(PM)
    U, D, V = w.rows(dec.U), w.rows(dec.D), w.rows(dec.V)
    expect("a genuine SNF", w.snf_check(M, U, D, V), True)
    bad_U = copy.deepcopy(U)
    bad_U[0][0] += 1
    expect("a perturbed U entry", w.snf_check(M, bad_U, D, V), False)
    swapped = copy.deepcopy(D)
    swapped[0][0], swapped[-1][-1] = swapped[-1][-1], swapped[0][0]
    expect("a diagonal out of divisibility order", w.snf_check(M, U, swapped, V), False)
    # U·M·V = D holds and D is a Smith diagonal; only det U = 2 is wrong.
    expect("a non-unimodular U", w.snf_check([[1]], [[2]], [[2]], [[1]]), False)

    H, HU = intlin.hnf(PM)
    expect("a genuine HNF", w.hnf_check(M, (H, HU)), True)
    Hr, Ur = w.rows(H), w.rows(HU)
    # Add the last pivot row to the first row: H = U·M and det U = ±1 still
    # hold, but the entry above that pivot leaves [0, pivot).
    last = max(r for r, row in enumerate(Hr) if any(row))
    Hr[0] = [a + b for a, b in zip(Hr[0], Hr[last])]
    Ur[0] = [a + b for a, b in zip(Ur[0], Ur[last])]
    expect("an unreduced HNF", w.hnf_check(M, (SimpleNamespace(rows=Hr), SimpleNamespace(rows=Ur))), False)

    mods = [3, 0, 4, 0, 5, 0]
    x0 = [1, -2, 3, 0, 2, -1]
    b = [sum(a * v for a, v in zip(row, x0)) % m if m else sum(a * v for a, v in zip(row, x0)) for row, m in zip(M, mods)]
    x = intlin.solve_mod(PM, b, mods)
    expect("a genuine solve_mod answer", w.solve_check(M, b, mods, x), True)
    expect("a perturbed solution", w.solve_check(M, b, mods, [x[0] + 1] + list(x[1:])), False)
    expect("None for a planted system", w.solve_check(M, b, mods, None), False)


def bump(s):
    return str(int(s) + 1)


# verb -> corruption of its JSON answer
CORRUPT = {
    "hom": lambda d: d["group"]["factors"].append("2"),
    "ext": lambda d: d["group"]["factors"].append("2"),
    "realize": lambda d: d["sequence"]["g"]["target"]["factors"].append("2"),
    "classify": lambda d: d["class"]["coords"].__setitem__(0, bump(d["class"]["coords"][0])),
    "baer": lambda d: d["class"]["coords"].__setitem__(0, bump(d["class"]["coords"][0])),
    "act": lambda d: d["class"]["coords"].__setitem__(0, bump(d["class"]["coords"][0])),
    "delta": lambda d: d["map"]["source"]["factors"].append("7"),
    "psi": lambda d: d.__setitem__("bijective", False),
    "canon": lambda d: d["group"]["factors"].append("2"),
    "univ-ext": lambda d: d.__setitem__("X_size", d["X_size"] + 1),
    "univ-coext": lambda d: d["conditions"]["c"].__setitem__("passed", False),
    "cyclic-check": lambda d: d.__setitem__("passed", False),
    "parse": lambda d: d["terms"][0].__setitem__("multiplicity", "7"),
    "classify-torsion": lambda d: d.__setitem__("universal_TZ", not d["universal_TZ"]),
    "cotorsion": lambda d: d.__setitem__("cotorsion", not d["cotorsion"]),
    "witness": lambda d: d.__setitem__("order", bump(d["order"])),
    "ab4-witness": lambda d: d.__setitem__("order", bump(d["order"])),
}


def cli_cases():
    ops = w.cli_ops(random.Random(7))
    seen = set()
    for op in ops:
        if op.fault:
            continue
        result = op.call()
        accepted = verdict(op.check, result)  # also hands realize's sequence to classify
        if op.label in seen:
            continue
        seen.add(op.label)
        expect(f"a genuine {op.label} answer", accepted, True)
        d = json.loads(result[1])
        CORRUPT[op.label](d)
        expect(f"a corrupted {op.label} answer", verdict(op.check, (0, json.dumps(d))), False)
    missing = set(CORRUPT) - seen
    expect(f"coverage of every verb (missing {sorted(missing)})", not missing, True)

    faults = {op.fault: op for op in ops if op.fault}
    structured = (1, json.dumps({"error": {"code": "domain-error", "message": "m"}}))
    for fid, op in faults.items():
        expect(f"{fid} answered with a structured error", verdict(op.check, structured), True)
        expect(f"{fid} answered with an unstructured error", verdict(op.check, (1, '{"error": "m"}')), False)
    expect("F1 answered with exit 0", verdict(faults["F1"].check, (0, '{"group": {"rank": 0, "factors": []}}')), False)
    expect("F5 answered with a wrong verdict", verdict(faults["F5"].check, (0, json.dumps(
        {"universal_TZ": False, "cotorsion": True}))), False)
    n = len(w.F6_MATRIX)
    identity = [[str(int(i == j)) for j in range(n)] for i in range(n)]
    expect("F6 answered with identity transforms", verdict(faults["F6"].check, (0, json.dumps(
        {"U": identity, "D": [[str(v) for v in r] for r in w.F6_MATRIX], "V": identity}))), False)


def main() -> int:
    certificate_cases()
    normal_form_cases()
    cli_cases()
    print(f"{len(failures)} checker self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
