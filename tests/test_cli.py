import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import abext
from abext import cli, homext
from abext.cli import main
from abext.errors import BudgetExceeded
from abext.intlin import IntMatrix
from abext.torsioncat import parse_finite_group
from dense_elimination import product


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_ext_verb_example(capsys):
    code, out = run(capsys, "ext", "--A", "Z(4)", "--B", "Z(6)")
    assert code == 0
    assert json.loads(out) == {"group": {"rank": 0, "factors": ["2"]}}


def test_classify_torsion_example(capsys):
    code, data = run_json(capsys, "classify-torsion", "U(2)")
    assert code == 0
    assert data["universal_TZ"] is False
    assert data["witness_prime"] == "2"


def test_witness_example(capsys):
    code, out = run(capsys, "witness", "--p", "2", "--N", "4")
    assert (code, out) == (0, '{"order":"16"}\n')


def test_ab4_witness(capsys):
    code, data = run_json(capsys, "ab4-witness", "--p", "5", "--N", "2")
    assert code == 0 and data["order"] == "25"


def test_snf_verb(capsys):
    code, data = run_json(capsys, "snf", "--matrix", '[["2","4"],["6","8"]]')
    assert code == 0
    assert data["D"] == [["2", "0"], ["0", "4"]]


def test_snf_verb_answers_a_dense_30x30_matrix(capsys):
    rng = random.Random(30)
    M = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(30)] for _ in range(30)])
    code, data = run_json(capsys, "snf", "--matrix", json.dumps([list(r) for r in M.rows]))
    assert code == 0
    U, D, V = (IntMatrix.from_json(data[key]) for key in ("U", "D", "V"))
    assert product(U, M, V) == D


def test_canon_verb(capsys):
    code, data = run_json(capsys, "canon", "--presentation", '[["2","4"],["6","8"]]')
    assert code == 0
    assert data["group"] == {"rank": 0, "factors": ["2", "4"]}


def test_group_json_round_trip(capsys):
    code, data = run_json(capsys, "ext", "--A", "Z(4)", "--B", "Z(6)")
    back = json.dumps(data["group"])
    code2, data2 = run_json(capsys, "hom", "--A", back, "--B", "Z(4)")
    assert code2 == 0
    assert data2["group"] == {"rank": 0, "factors": ["2"]}


def test_realize_classify_round_trip(capsys):
    cls = {"A": {"rank": 0, "factors": ["4"]}, "B": {"rank": 0, "factors": ["2"]}, "coords": ["1"]}
    code, data = run_json(capsys, "realize", "--class", json.dumps(cls))
    assert code == 0
    seq = data["sequence"]
    code, data = run_json(capsys, "classify", "--sequence", json.dumps(seq))
    assert code == 0
    assert data["class"] == cls


def test_classify_refuses_a_kernel_past_the_image_over_an_infinite_middle(capsys):
    # Z --2--> Z → 0: f is mono, g is epi and g∘f = 0, but ker g = Z is not
    # im f = 2Z, which only the invariant factors of coker f show.
    Z, zero = {"rank": 1, "factors": []}, {"rank": 0, "factors": []}
    seq = {"f": {"source": Z, "target": Z, "matrix": [["2"]]}, "g": {"source": Z, "target": zero, "matrix": []}}
    code, data = run_json(capsys, "classify", "--sequence", json.dumps(seq))
    assert code == 1
    assert data == {"error": {"code": "not-exact", "message": "kernel of g not contained in image of f"}}


def test_classify_refuses_a_finite_middle_of_the_wrong_order(capsys):
    # Z(2) --e0--> Z(2)^3 --e2--> Z(2): f is mono, g is epi and g∘f = 0, but
    # |E| = 8 is not |A|·|B| = 4.
    Z2, Z2_3 = {"rank": 0, "factors": ["2"]}, {"rank": 0, "factors": ["2", "2", "2"]}
    f = {"source": Z2, "target": Z2_3, "matrix": [["1"], ["0"], ["0"]]}
    g = {"source": Z2_3, "target": Z2, "matrix": [["0", "0", "1"]]}
    code, data = run_json(capsys, "classify", "--sequence", json.dumps({"f": f, "g": g}))
    assert code == 1
    assert data == {"error": {"code": "not-exact", "message": "middle order is not |A|·|B|"}}


def test_seed_is_an_option_of_the_two_sampling_verbs_alone(capsys):
    cli._build_parser()
    seeded = {verb for verb, p in cli._VERB_PARSERS.items() if any("--seed" in a.option_strings for a in p._actions)}
    assert seeded == {"cyclic-check", "suite"} and len(cli._VERB_PARSERS) == 19
    assert run(capsys, "ext", "--A", "Z(2)", "--B", "Z(2)", "--seed", "3")[0] == 2
    assert run(capsys, "cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--samples", "1", "--seed", "3")[0] == 0
    assert run(capsys, "suite", "--only", "9", "--seed", "3")[0] == 0


def test_baer_and_act(capsys):
    c = {"A": {"rank": 0, "factors": ["4"]}, "B": {"rank": 0, "factors": ["4"]}, "coords": ["1"]}
    code, data = run_json(capsys, "baer", "--c1", json.dumps(c), "--c2", json.dumps(c))
    assert code == 0 and data["class"]["coords"] == ["2"]
    ident = {
        "source": {"rank": 0, "factors": ["4"]},
        "target": {"rank": 0, "factors": ["4"]},
        "matrix": [["1"]],
    }
    code, data = run_json(capsys, "act", "--class", json.dumps(c), "--map", json.dumps(ident), "--side", "pull")
    assert code == 0 and data["class"]["coords"] == ["1"]


def test_delta_verb(capsys):
    cls = {"A": {"rank": 0, "factors": ["2"]}, "B": {"rank": 0, "factors": ["2"]}, "coords": ["1"]}
    code, data = run_json(capsys, "realize", "--class", json.dumps(cls))
    seq = json.dumps(data["sequence"])
    code, data = run_json(capsys, "delta", "--sequence", seq, "--T", "Z(2)")
    assert code == 0
    assert data["map"]["matrix"] == [["1"]]


def test_psi_verb(capsys):
    code, data = run_json(capsys, "psi", "--summands", "Z(2);Z(2)", "--B", "Z(2)")
    assert code == 0
    assert data["bijective"] is True
    code, data = run_json(capsys, "psi", "--summands", "Z(2);Z(4)", "--B", "Z(4)", "--phi")
    assert code == 0 and data["bijective"] is True


def test_univ_ext_verbs(capsys):
    code, data = run_json(capsys, "univ-ext", "--B", "Z(2)", "--A", "Z(2)")
    assert code == 0
    assert data["X_size"] == 2
    assert data["middle"] == {"rank": 0, "factors": ["2", "4"]}
    assert all(c["passed"] for c in data["conditions"].values())
    assert "sequence" not in data
    code, data = run_json(capsys, "univ-ext", "--B", "Z(2)", "--A", "Z(2)", "--full")
    assert "sequence" in data and "class" in data
    code, data = run_json(capsys, "univ-coext", "--B", "Z(2)", "--A", "Z(4)")
    assert code == 0 and data["X_size"] == 2


def test_cyclic_check_verb(capsys):
    code, data = run_json(capsys, "cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--samples", "3")
    assert code == 0 and data["passed"] and len(data["witnesses"]) == 3


def test_parse_and_cotorsion_verbs(capsys):
    code, data = run_json(capsys, "parse", "Z(12)")
    assert code == 0
    assert data["expression"] == "Z(2^2) + Z(3^1)"
    code, data = run_json(capsys, "cotorsion", "Z(2)^inf")
    assert code == 0 and data["cotorsion"] is True and data["bound"] == "2"
    code, data = run_json(capsys, "cotorsion", "W")
    assert data["cotorsion"] is False


def test_parse_error_exit_code_and_position(capsys):
    code, data = run_json(capsys, "parse", "Z(4^2)")
    assert code == 1
    assert data["error"]["code"] == "parse-error"
    assert data["error"]["position"] == 2


def test_domain_error_exit_code(capsys):
    code, data = run_json(capsys, "ext", "--A", "Z(2^inf)", "--B", "Z(2)")
    assert code == 1
    assert "error" in data


def assert_structured_error(capsys, *argv):
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert isinstance(data["error"]["code"], str) and isinstance(data["error"]["message"], str)
    return data["error"]["message"]


def test_group_json_with_a_bad_field_is_a_structured_error(capsys):
    assert_structured_error(capsys, "hom", "--A", '{"rank":"x"}', "--B", "Z(2)")


def test_unclosed_group_json_is_a_structured_error(capsys):
    message = assert_structured_error(capsys, "ext", "--A", '{"rank": 0, "factors": ["2"]', "--B", "Z(2)")
    assert message.startswith("malformed JSON input")


def test_missing_argument_file_is_a_structured_error(capsys, tmp_path):
    missing = tmp_path / "no-such-group.json"
    assert str(missing) in assert_structured_error(capsys, "hom", "--A", f"@{missing}", "--B", "Z(2)")


def test_argument_files_answer_like_inline_arguments(capsys, tmp_path):
    group, matrix = tmp_path / "group.txt", tmp_path / "matrix.json"
    group.write_text("Z(4)+Z(2)", encoding="utf-8")
    matrix.write_text('[["2","4"],["6","8"]]', encoding="utf-8")
    inline = run(capsys, "ext", "--A", "Z(4)+Z(2)", "--B", "Z(6)")
    assert inline[0] == 0 and run(capsys, "ext", "--A", f"@{group}", "--B", "Z(6)") == inline
    inline = run(capsys, "snf", "--matrix", '[["2","4"],["6","8"]]')
    assert inline[0] == 0 and run(capsys, "snf", "--matrix", f"@{matrix}") == inline


def test_class_without_its_quotient_end_is_a_structured_error(capsys):
    cls = {"B": {"rank": 0, "factors": ["2"]}, "coords": ["1"]}
    assert "'A'" in assert_structured_error(capsys, "realize", "--class", json.dumps(cls))


@pytest.mark.parametrize("verb", ["realize", "baer", "act"])
def test_a_class_of_the_wrong_length_is_refused_before_its_slots_are_listed(capsys, tmp_path, verb):
    # A = B = Z(2)^20000 has 4·10^8 slots; one coordinate is counted short
    # of them before any slot modulus is listed.
    group = {"rank": 0, "factors": ["2"] * 20000}
    path = tmp_path / "class.json"
    path.write_text(json.dumps({"A": group, "B": group, "coords": ["1"]}), encoding="utf-8")
    cls = f"@{path}"
    z2 = {"rank": 0, "factors": ["2"]}
    argv = {
        "realize": ["--class", cls],
        "baer": ["--c1", cls, "--c2", cls],
        "act": ["--class", cls, "--map", json.dumps({"source": z2, "target": z2, "matrix": [["1"]]}), "--side", "pull"],
    }[verb]
    t0 = time.perf_counter()
    code, data = run_json(capsys, verb, *argv)
    assert time.perf_counter() - t0 < 5
    assert code == 1 and data["error"] == {"code": "domain-error", "message": "ExtClass coordinate length mismatch"}


WRONG_TYPE_REQUESTS = [
    ("snf", "--matrix", "[[1.5,2],[3,4]]"),
    ("canon", "--presentation", "[[2.7]]"),
    ("snf", "--matrix", "[[true]]"),
    ("hom", "--A", '{"rank":null}', "--B", "Z(2)"),
    ("realize", "--class", '{"A":5,"B":{"rank":0,"factors":["2"]},"coords":["1"]}'),
]


@pytest.mark.parametrize("argv", WRONG_TYPE_REQUESTS, ids=[" ".join(argv[:3]) for argv in WRONG_TYPE_REQUESTS])
def test_json_fields_of_the_wrong_type_are_structured_errors(capsys, argv):
    assert assert_structured_error(capsys, *argv).startswith("malformed input: expected")


# Decimal strings JSON takes as int() would but the expression grammar does not:
# an underscore, surrounding spaces, non-ASCII digits (Arabic-Indic 3 and 4).
NON_DECIMAL_REQUESTS = [
    ("snf", "--matrix", '[["1_0"]]'),
    ("snf", "--matrix", '[[" 7 "]]'),
    ("snf", "--matrix", '[["٣"]]'),
    ("hom", "--A", '{"rank":0,"factors":["٤"]}', "--B", "Z(2)"),
]


@pytest.mark.parametrize("argv", NON_DECIMAL_REQUESTS, ids=[" ".join(argv[:3]) for argv in NON_DECIMAL_REQUESTS])
def test_json_integers_are_ascii_decimals_as_in_the_grammar(capsys, argv):
    code, data = run_json(capsys, *argv)
    assert code == 1 and data["error"]["code"] == "domain-error"
    assert data["error"]["message"].startswith("malformed input: expected an integer, got")


def test_json_integers_take_a_minus_sign_and_stop_at_4300_digits(capsys):
    code, data = run_json(capsys, "snf", "--matrix", '[["-0", "-12"]]')
    assert code == 0 and data["D"] == [["12", "0"]]
    assert "4300" in assert_structured_error(capsys, "snf", "--matrix", json.dumps([["1" * 4301]]))
    code, data = run_json(capsys, "hom", "--A", "Z(٤)", "--B", "Z(2)")
    assert code == 1 and data["error"]["code"] == "parse-error"


@pytest.mark.parametrize("argv", [("classify-torsion", "Z(4)", "--p", "x"), ("suite", "--only", "x")])
def test_integer_list_options_reject_text(capsys, argv):
    code = main(list(argv))
    assert code == 2 and "invalid _int_list value: 'x'" in capsys.readouterr().err


def test_extra_primes_option(capsys):
    code, data = run_json(capsys, "classify-torsion", "Z(4)", "--p", "3,5")
    assert code == 0 and data["universal_Tp"] == {"2": True, "3": True, "5": True}


@pytest.mark.parametrize("verb", ["classify-torsion", "cotorsion"])
@pytest.mark.parametrize("expression", ["Z(2^40000000)", "Z(3^10000)"])
def test_bounds_past_the_digit_budget_are_refused(capsys, verb, expression):
    code, data = run_json(capsys, verb, expression)
    assert code == 1 and data["error"]["code"] == "budget-exceeded"


def test_bound_just_inside_the_digit_budget(capsys):
    code, data = run_json(capsys, "cotorsion", "Z(3^9000)")  # 4,295 digits
    assert code == 0 and data["bound"] == str(3**9000)


@pytest.mark.parametrize("verb", ["witness", "ab4-witness"])
def test_witness_order_past_the_digit_budget_is_refused(capsys, verb):
    code, data = run_json(capsys, verb, "--p", "2", "--N", "20000")  # 2^20000 has 6,021 digits
    assert code == 1 and data["error"]["code"] == "budget-exceeded"
    code, data = run_json(capsys, verb, "--p", "2", "--N", "14000")  # 4,215 digits
    assert (code, data) == (0, {"order": str(2**14000)})


def test_group_past_the_digit_budget_is_refused(capsys):
    code, data = run_json(capsys, "univ-ext", "--B", "Z(2)", "--A", "Z(2^40000000)")
    assert code == 1 and data["error"]["code"] == "budget-exceeded"
    code, data = run_json(capsys, "ext", "--A", "Z(3^9000)", "--B", "Z(3)")  # 4,295 digits
    assert code == 0 and data["group"]["factors"] == ["3"]


def test_usage_error_exit_code(capsys):
    code = main(["ext", "--A", "Z(2)"])  # missing --B
    capsys.readouterr()
    assert code == 2
    code = main(["no-such-verb"])
    capsys.readouterr()
    assert code == 2


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "univ-ext", "--B", "Z(2)", "--A", "Z(4)", "--full")
    _, out2 = run(capsys, "univ-ext", "--B", "Z(2)", "--A", "Z(4)", "--full")
    assert out1 == out2
    _, p1 = run(capsys, "witness", "--p", "2", "--N", "3")
    _, p2 = run(capsys, "witness", "--p", "2", "--N", "3")
    assert p1 == p2


def test_torsion_verbs_reject_free_parts(capsys):
    code, data = run_json(capsys, "classify-torsion", "Z + Z(2)")
    assert code == 1 and data["error"]["code"] == "parse-error"


def test_suite_smoke(capsys):
    code, data = run_json(capsys, "suite", "--only", "8,9,10")
    assert code == 0
    assert data["all_passed"] is True
    assert [c["id"] for c in data["criteria"]] == [8, 9, 10]


def test_printed_integers_stop_at_4300_digits(capsys):
    code, data = run_json(capsys, "canon", "--presentation", json.dumps([[str(10**4300 - 1)]]))
    assert code == 0 and data["group"]["factors"] == ["9" * 4300]
    # Z(2^4300) + Z(5^4300) is Z(10^4300): every input fits, the invariant factor does not
    code, data = run_json(capsys, "canon", "--presentation", json.dumps([[str(2**4300), "0"], ["0", str(5**4300)]]))
    assert code == 1 and data["error"]["code"] == "budget-exceeded"
    code, data = run_json(capsys, "univ-ext", "--A", "Z(2^9000) + Z(3^5000)", "--B", "Z(6)")
    assert code == 1 and data["error"]["code"] == "budget-exceeded"
    # e0 = N·e1 and e1 = N·e2 present Z on e2, so e0 goes to N², a coordinate of 8,600 digits
    N = 10**4300 - 1
    code, data = run_json(capsys, "canon", "--presentation", json.dumps([["1", str(-N), "0"], ["0", "1", str(-N)]]))
    assert code == 1 and data["error"]["code"] == "budget-exceeded"


@pytest.mark.parametrize(
    "group, want",
    [
        ("Z(2000000000000000006)", {"group": {"rank": 0, "factors": ["2"]}}),  # 2 times the prime 10^18 + 3
        ("Z(1000000000000000003^2)", {"group": {"rank": 0, "factors": []}}),
        ("Z(1000000000000000012000000000000000027)", "budget-exceeded"),  # two 19-digit primes
    ],
)
def test_large_prime_moduli_answer_at_once(capsys, group, want):
    t0 = time.perf_counter()
    code, data = run_json(capsys, "ext", "--A", group, "--B", "Z(2)")
    assert time.perf_counter() - t0 < 1
    if isinstance(want, dict):
        assert code == 0 and data == want
    else:
        assert code == 1 and data["error"]["code"] == want


@pytest.mark.parametrize(
    "B, want",
    [("Z(70001)", ["70001"]), ("Z(2)", [])],
)
def test_a_modulus_with_two_primes_past_trial_division_answers(capsys, B, want):
    # 4900280003 = 70001 · 70003: the cofactor past 2^16 is split by rho
    code, data = run_json(capsys, "ext", "--A", "Z(4900280003)", "--B", B)
    assert code == 0 and data == {"group": {"rank": 0, "factors": want}}


def test_a_cofactor_past_the_exact_range_is_still_refused(capsys):
    # two 14-digit primes: a product past 3.3·10^24 with no prime factor up to 2^16
    t0 = time.perf_counter()
    code, data = run_json(capsys, "ext", "--A", "Z(100000000000880000000001887)", "--B", "Z(2)")
    assert time.perf_counter() - t0 < 5
    assert code == 1 and data["error"]["code"] == "budget-exceeded"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["parse", "Z(²)"], {"code": "parse-error", "message": "expected a number", "position": 2}),
        (
            ["ext", "--A", "Z(2)^" + "1" * 4400, "--B", "Z(2)"],
            {"code": "parse-error", "message": "a number of more than 4300 digits", "position": 5},
        ),
        (["ext", "--A", "Z(2)^1000000000000", "--B", "Z(2)"], "budget-exceeded"),
        (["ext", "--A", "Z(2)^1048577", "--B", "Z(2)"], "budget-exceeded"),
        (["hom", "--A", "Z^1000000000000", "--B", "Z(2)"], "budget-exceeded"),
        (["hom", "--A", json.dumps({"rank": 10**12}), "--B", "Z(2)"], "budget-exceeded"),
        # |X|·dim B slots of B^(X): 163,840 and 10^18 + 3
        (["univ-ext", "--B", "Z(2)^5", "--A", "Z(2)^3"], "budget-exceeded"),
        (["univ-coext", "--B", "Z(2)^5", "--A", "Z(2)^3"], "budget-exceeded"),
        (["univ-ext", "--B", "Z(1000000000000000003)", "--A", "Z(1000000000000000003^2)"], "budget-exceeded"),
        # dim A · dim B Hom pieces, torsion count of A · dim B Ext slots: 4M and 9M, past 2^20
        (["hom", "--A", "Z(2)^2000", "--B", "Z(2)^2000"], "budget-exceeded"),
        (["ext", "--A", "Z(2)^3000", "--B", "Z(2)^3000"], "budget-exceeded"),
        (["ext", "--A", "Z^5000 + Z(2)^3000", "--B", "Z^1000"], "budget-exceeded"),
        # cyclic-check samples past CYCLIC_SAMPLE_BUDGET = 1024, or negative
        (["cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--samples", "1000000000"], "budget-exceeded"),
        (["cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--samples", "1025"], "budget-exceeded"),
        (
            ["cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--samples", "-3"],
            {"code": "domain-error", "message": "samples must be at least 0, not -3"},
        ),
        # suite ids outside 1..10
        (["suite", "--only", "99"], {"code": "domain-error", "message": "no criterion 99: ids run from 1 to 10"}),
        (["suite", "--only", "5,0,11"], {"code": "domain-error", "message": "no criterion 0: ids run from 1 to 10"}),
        # a multiplicity below 1, and an infinite free rank
        (
            ["ext", "--A", "Z(2)^0", "--B", "Z(2)"],
            {"code": "parse-error", "message": "multiplicity must be >= 1", "position": 5},
        ),
        (
            ["ext", "--A", "Z^inf", "--B", "Z(2)"],
            {"code": "parse-error", "message": "free rank must be finite", "position": 5},
        ),
    ],
)
def test_group_inputs_are_bounded_before_any_work(capsys, argv, want):
    t0 = time.perf_counter()
    code, data = run_json(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 1
    if isinstance(want, dict):
        assert data == {"error": want}
    else:
        assert data["error"]["code"] == want
    # the bound itself is allowed: 2^20 generators
    assert parse_finite_group("Z^1048576").free_rank == 1 << 20


@pytest.mark.parametrize(
    "samples, want",
    [
        ("-3", {"code": "domain-error", "message": "samples must be at least 0, not -3"}),
        ("1025", {"code": "budget-exceeded", "message": "1025 samples exceed 1024"}),
    ],
)
def test_cyclic_check_refuses_its_samples_before_the_build(capsys, monkeypatch, samples, want):
    from abext import universal

    def no_build(*_args):
        raise AssertionError("the certificate was built before the sample count was checked")

    monkeypatch.setattr(universal, "build_universal_extension", no_build)
    code, data = run_json(capsys, "cyclic-check", "--B", "Z(9)+Z(2)^2", "--A", "Z^2+Z(3)", "--samples", samples)
    assert (code, data) == (1, {"error": want})


def test_cyclic_check_refuses_its_end_size_before_the_build(capsys, monkeypatch):
    # |X| = 3,888 and dim B = 2: End(B^(X)) would have 7,776^2 pieces, past 1,024.
    from abext import universal

    def no_build(*_args):
        raise AssertionError("the certificate was built before the size of End(B^(X)) was checked")

    monkeypatch.setattr(universal, "build_universal_extension", no_build)
    t0 = time.perf_counter()
    code, data = run_json(capsys, "cyclic-check", "--B", "Z(9)+Z(2)^2", "--A", "Z^2+Z(3)", "--samples", "3")
    assert time.perf_counter() - t0 < 1
    message = "End(B^(X)) generating set too large for the check"
    assert (code, data) == (1, {"error": {"code": "budget-exceeded", "message": message}})
    # a trivial Ext group is let through however large B is: its check is vacuous
    monkeypatch.undo()
    code, data = run_json(capsys, "cyclic-check", "--B", "Z(3)^40", "--A", "Z(2)", "--samples", "3")
    assert (code, data["passed"], data["detail"]) == (0, True, "Ext^1(B,A) trivial; vacuous")


def test_piece_counts_are_bounded_at_the_group_bound(monkeypatch):
    monkeypatch.setattr(homext, "MAX_GROUP_DIM", 12)
    G3, G4, G5 = (parse_finite_group(f"Z(2)^{n}") for n in (3, 4, 5))
    assert homext.hom_group(G3, G4).carrier.dim == 12
    assert homext.ext_group(G4, parse_finite_group("Z^2 + Z(2)")).carrier.dim == 12
    # free rank in A gives no Ext slots
    assert homext.ext_group(parse_finite_group("Z^9 + Z(4)^4"), G3).carrier.dim == 12
    with pytest.raises(BudgetExceeded):
        homext.hom_group(G5, parse_finite_group("Z + Z(2)^2"))
    with pytest.raises(BudgetExceeded):
        homext.ext_group(G5, G3)


# One process, one parser: requests whose options differ, interleaved, so a
# default or a value left over from one request would show in the next.
REUSED_PARSER_REQUESTS = [
    ["witness", "--p", "2", "--N", "5", "--budget", "1024"],
    ["witness", "--p", "2", "--N", "5"],
    ["ext", "--A", "Z(4)", "--B", "Z(6)", "--pretty"],
    ["classify-torsion", "Z(4)", "--p", "3"],
    ["classify-torsion", "Z(4)"],
    ["suite", "--only", "9"],
    ["suite", "--only", "10"],
    ["ext", "--A", "Z(2)"],
    ["psi", "--summands", "Z(2);Z(4)", "--B", "Z(4)", "--phi"],
    ["--help"],
    ["univ-coext", "--B", "Z(2)", "--A", "Z(4)"],
    ["ext", "--A", "Z(2)", "--B", "Z(2)"],
    ["cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--samples", "2", "--seed", "3"],
]


def test_reused_parser_answers_like_a_fresh_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    parser = cli._build_parser()
    answers = [run(capsys, *argv) for argv in REUSED_PARSER_REQUESTS]
    assert cli._build_parser() is parser and cli._build_parser.cache_info().misses == 1
    # --budget is a retired option: a usage error, like --A without --B
    assert [code for code, _ in answers] == [2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0]
    env = {**os.environ, "PYTHONPATH": str(Path(abext.__file__).resolve().parents[1])}
    for argv, (code, out) in zip(REUSED_PARSER_REQUESTS, answers):
        fresh = subprocess.run(
            [sys.executable, "-m", "abext.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert fresh.returncode == code, argv
        assert fresh.stdout == out, argv


SEQUENCE_Z2_Z4_Z2 = json.dumps({
    "f": {"matrix": [["2"]], "source": {"factors": ["2"], "rank": 0}, "target": {"factors": ["4"], "rank": 0}},
    "g": {"matrix": [["1"]], "source": {"factors": ["4"], "rank": 0}, "target": {"factors": ["2"], "rank": 0}},
})
CLASS_Z4_Z4 = json.dumps({"A": {"rank": 0, "factors": ["4"]}, "B": {"rank": 0, "factors": ["4"]}, "coords": ["1"]})
ID_Z4 = json.dumps({"source": {"rank": 0, "factors": ["4"]}, "target": {"rank": 0, "factors": ["4"]}, "matrix": [["1"]]})

# A valid request of every verb, then options written as --X=v or
# abbreviated, usage errors, a "--" separator, help, and argv with no verb,
# then the shapes at the edge of what cli._read takes: a repeated option, a
# negative value, an empty value, a value that is an option, a flag given
# twice and a positional after the options.
PARSE_TABLE = [
    ["snf", "--matrix", '[["2","4"],["6","8"]]'],
    ["canon", "--presentation", '[["2","4"],["6","8"]]', "--pretty"],
    ["hom", "--A", "Z(4)", "--B", "Z(6)"],
    ["ext", "--A", "Z(4)", "--B", "Z(6)"],
    ["realize", "--class", CLASS_Z4_Z4],
    ["classify", "--sequence", SEQUENCE_Z2_Z4_Z2],
    ["baer", "--c1", CLASS_Z4_Z4, "--c2", CLASS_Z4_Z4, "--subtract"],
    ["act", "--class", CLASS_Z4_Z4, "--map", ID_Z4, "--side", "push"],
    ["delta", "--sequence", SEQUENCE_Z2_Z4_Z2, "--T", "Z(2)", "--dual"],
    ["psi", "--summands", "Z(2);Z(2)", "--B", "Z(2)"],
    ["univ-ext", "--B", "Z(2)", "--A", "Z(2)", "--full"],
    ["univ-coext", "--B", "Z(2)", "--A", "Z(4)"],
    ["cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--samples", "2"],
    ["parse", "Z(12)"],
    ["classify-torsion", "Z(4)", "--p", "3,5"],
    ["cotorsion", "Z(2)^inf"],
    ["witness", "--p", "2", "--N", "4", "--mode", "brute"],
    ["ab4-witness", "--p", "5", "--N", "2", "--budget", "64"],
    ["suite", "--only", "9"],
    ["ext", "--A=Z(2)", "--B", "Z(2)"],
    ["cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--sam", "3"],
    ["ext", "--A", "Z(2)", "--B", "Z(4)", "--pre"],
    ["ext", "--A", "Z(2)"],
    ["hom", "--A", "Z(2)", "--B", "Z(2)", "--seed", "x"],
    ["act", "--class", CLASS_Z4_Z4, "--map", ID_Z4, "--side", "sideways"],
    ["ext", "--A", "Z(2)", "--B", "Z(2)", "--no-such-option"],
    ["ext", "--A", "Z(2)", "--B", "Z(2)", "extra"],
    ["parse", "Z(2)", "Z(3)"],
    ["parse", "--", "Z(2)"],
    ["no-such-verb", "--A", "Z(2)"],
    [],
    ["--help"],
    ["-h", "ext"],
    ["ext", "--help"],
    ["hom", "--A", "Z(2)", "--B", "Z(2)", "--A", "Z(4)"],
    ["cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--sam", "1"],
    ["cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--samples", "1", "--seed", "-3"],
    ["ext", "--A", "", "--B", "Z(2)"],
    ["ext", "--A", "--B", "Z(2)"],
    ["ext", "--A", "--B", "--B", "Z(2)"],
    ["ext", "--A", "Z(2)", "--B", "Z(2)", "--pretty", "--pretty"],
    ["classify-torsion", "--p", "3", "Z(4)"],
    ["classify-torsion", "Z(4)", "--p", ""],
]


def answer_and_namespace(capsys, argv):
    """main's (exit code, stdout, stderr), and the parse as vars without
    ``verb`` (or the parser's exit code)."""
    try:
        parsed = vars(cli._parse(list(argv)))
        parsed.pop("verb", None)
    except SystemExit as e:
        parsed = e.code
    capsys.readouterr()
    code = main(list(argv))
    captured = capsys.readouterr()
    return (code, captured.out, captured.err), parsed


PARSE_IDS = [" ".join(a for a in argv if not a.startswith(("{", "["))) or "no-arguments" for argv in PARSE_TABLE]


@pytest.mark.parametrize("argv", PARSE_TABLE, ids=PARSE_IDS)
def test_verb_parser_answers_like_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage lines wrap to the terminal width
    got = answer_and_namespace(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda args: cli._build_parser().parse_args(args))
    want = answer_and_namespace(capsys, argv)
    assert got == want
    if {"--mode", "--budget"} & set(argv):  # retired options are usage errors
        assert got[0][0] == 2


# One well-formed request of every verb, each option written out in full.
PLAIN_REQUESTS = [
    ["snf", "--matrix", '[["2","4"],["6","8"]]'],
    ["canon", "--presentation", '[["2","4"],["6","8"]]', "--pretty"],
    ["hom", "--A", "Z(4)+Z(6)", "--B", "Z+Z(2)"],
    ["ext", "--A", "Z(4)", "--B", "Z(6)"],
    ["realize", "--class", CLASS_Z4_Z4],
    ["classify", "--sequence", SEQUENCE_Z2_Z4_Z2],
    ["baer", "--c1", CLASS_Z4_Z4, "--c2", CLASS_Z4_Z4, "--subtract"],
    ["act", "--class", CLASS_Z4_Z4, "--map", ID_Z4, "--side", "pull"],
    ["delta", "--sequence", SEQUENCE_Z2_Z4_Z2, "--T", "Z(2)", "--dual"],
    ["psi", "--summands", "Z(2);Z(2)", "--B", "Z(2)", "--phi"],
    ["univ-ext", "--B", "Z(2)", "--A", "Z(2)", "--full"],
    ["univ-coext", "--B", "Z(2)", "--A", "Z(4)"],
    ["cyclic-check", "--B", "Z(2)", "--A", "Z(2)", "--samples", "2", "--seed", "3"],
    ["parse", "Z(12)"],
    ["classify-torsion", "Z(4)", "--p", "3,5"],
    ["cotorsion", "Z(2)^inf"],
    ["witness", "--p", "2", "--N", "4"],
    ["ab4-witness", "--p", "5", "--N", "2"],
    ["suite", "--only", "9", "--seed", "1"],
]


def test_well_formed_requests_never_enter_argparse(capsys, monkeypatch):
    cli._build_parser()

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed request")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert {argv[0] for argv in PLAIN_REQUESTS} == set(cli._VERB_PARSERS)
    for argv in PLAIN_REQUESTS:
        code, out = run(capsys, *argv)
        assert code == 0 and "error" not in json.loads(out), argv


def test_the_reader_types_string_defaults_and_leaves_other_nargs_to_argparse():
    # No verb declares a string default or an nargs other than None and 0, so
    # the requests above reach neither branch of cli._table and cli._read.
    parser = argparse.ArgumentParser()
    parser.set_defaults(fn=None)
    actions = [parser.add_argument("--n", type=int, default="7"), parser.add_argument("--s", default="x")]
    table = cli._table(parser, actions)
    for argv in ([], ["--n", "3"], ["--s", "y", "--n", "3"]):
        got = cli._read(parser, table, argv)
        assert vars(got) == vars(parser.parse_known_args(argv)[0]), argv
    assert vars(cli._read(parser, table, []))["n"] == 7
    # argparse refuses a string default its type refuses
    assert cli._read(parser, cli._table(parser, [parser.add_argument("--k", type=int, default="x")]), []) is None
    assert cli._table(parser, actions + [parser.add_argument("--many", nargs="+")]) is None


COLD_EXT_CHILD = """
import sys
from abext.cli import main
main(["ext", "--A", "Z(2)", "--B", "Z(2)"])
print(sorted(name for name in sys.modules if name.startswith("abext")))
"""


def test_ext_in_a_fresh_process_loads_only_what_it_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(abext.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", COLD_EXT_CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [
        '{"group":{"factors":["2"],"rank":0}}',
        "['abext', 'abext.abgroup', 'abext.cli', 'abext.errors', 'abext.homext', 'abext.intlin', 'abext.torsioncat']",
    ]


FOUND25_CHILD = """
import contextlib, io, json, resource, sys, time
from abext.cli import main
out = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main(["univ-ext", "--B", "Z(2)^3", "--A", "Z+Z(2)^3"])
wall = time.perf_counter() - t0
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "X_size": json.loads(out.getvalue())["X_size"], "wall": wall, "peak_mb": peak_mb}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_universal_extension_with_free_rank_and_4096_classes_stays_small():
    # 12,288 slots, just under the slot budget: a dense p has 12,288 x 12,288
    # cells, gigabytes of tuples, while its sparse columns hold about two
    # nonzeros each.  The child reports its own peak, free of the test runner's.
    env = {**os.environ, "PYTHONPATH": str(Path(abext.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", FOUND25_CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    assert got["code"] == 0 and got["X_size"] == 4096
    assert got["peak_mb"] < 500 and got["wall"] < 30
