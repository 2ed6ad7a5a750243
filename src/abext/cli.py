"""Command-line surface: every capability behind a scriptable verb.

Output is a single JSON document on stdout; algebraic values are decimal
strings so arbitrary precision survives the wire.  Exit codes: 0 success,
1 domain error (structured {"error": {code, message, position?}}), 2 usage
error.  `--pretty` toggles indentation on every verb, and `--seed` fixes the
sampling of the two verbs that sample, `cyclic-check` and `suite`; output
is byte-for-byte deterministic for identical argv.  No option or
environment variable sets a budget: each is fixed in its module.  An
integer of more than 4,300 digits cannot be printed, so a result holding
one is refused with the structured error `budget-exceeded`.

The argument parser is built once per process, on the first request, and
reused by every later ``main`` call: no default it holds is mutable.  A
request is parsed by its verb's parser alone; the full parser sees only
help, an unknown verb and leftover arguments, so its messages are
unchanged.  Verb modules load on first use: ``univ-ext``, ``univ-coext``,
``psi`` and ``cyclic-check`` import ``universal`` when they run, and
``suite`` imports ``acceptance`` (and with it ``oracle``).

Group arguments accept either an expression ("Z(4)+Z(6)", "Z^2+Z(12)" —
composite orders CRT-split, free parts for the homological verbs only) or
the JSON object emitted by the group-producing verbs.  Arguments starting
with '@' are read from the named file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .errors import DomainError, ParseError
from .intlin import DimensionMismatch, IntMatrix, json_str, snf, sparse_rows
from .abgroup import AbMap, FinGenAb, canonicalize, dense_matrix
from .homext import (
    ExtClass,
    ShortExactSeq,
    classify as classify_seq,
    connecting_hom,
    connecting_hom_dual,
    ext_group,
    hom_group,
    pullback_action,
    pushout_action,
    realize,
)
from .torsioncat import (
    ab4star_failure_witness,
    classify as classify_torsion,
    counterexample_witness,
    is_cotorsion,
    parse as parse_torsion,
    parse_finite_group,
)


def _int_list(text: str) -> list:
    """Comma-separated integers, "" for none; argparse reports a ValueError as a usage error."""
    return [int(x) for x in text.split(",")] if text else []


def _read_arg(value: str) -> str:
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as e:
            raise DomainError(f"cannot read {value[1:]}: {e.strerror}") from e
    return value


def _decode(text: str, build):
    """``build`` applied to the decoded JSON.

    Malformed JSON, a missing field (KeyError) and a field of the wrong
    shape or not an integer (ValueError from the ``from_json`` decoders)
    become DomainErrors; anything else ``build`` raises is left alone, so a
    fault in a constructor stays visible.
    """
    try:
        data = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or a number past int's digit limit
        raise DomainError(f"malformed JSON input: {e}") from e
    try:
        return build(data)
    except DimensionMismatch:
        raise  # main reports shape errors with their own message
    except KeyError as e:
        raise DomainError(f"malformed input: missing field {e}") from e
    except ValueError as e:
        raise DomainError(f"malformed input: {e}") from e


def _load_json(value: str, build):
    return _decode(_read_arg(value), build)


def _group(value: str) -> FinGenAb:
    text = _read_arg(value)
    if text.lstrip().startswith("{"):
        return _decode(text, FinGenAb.from_json)
    return parse_finite_group(text)


def _matrix(value: str) -> IntMatrix:
    return _load_json(value, IntMatrix.from_json)


def _emit(obj, pretty: bool) -> None:
    if pretty:
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_snf(args):
    dec = snf(_matrix(args.matrix))
    return {"U": dec.U.to_json(), "D": dec.D.to_json(), "V": dec.V.to_json()}


def _cmd_canon(args):
    pres = _matrix(args.presentation)
    group, place, lift = canonicalize(sparse_rows(pres.rows), pres.ncols)
    return {
        "group": group.to_json(),
        "to_canonical": dense_matrix(place, group.dim).to_json(),
        "from_canonical": dense_matrix(lift, pres.ncols).to_json(),
    }


def _cmd_hom(args):
    return {"group": hom_group(_group(args.A), _group(args.B)).carrier.to_json()}


def _cmd_ext(args):
    return {"group": ext_group(_group(args.A), _group(args.B)).carrier.to_json()}


def _cmd_realize(args):
    cls = _load_json(args.cls, ExtClass.from_json)
    return {"sequence": realize(cls).to_json()}


def _cmd_classify(args):
    seq = _load_json(args.sequence, ShortExactSeq.from_json)
    return {"class": classify_seq(seq).to_json()}


def _cmd_baer(args):
    c1 = _load_json(args.c1, ExtClass.from_json)
    c2 = _load_json(args.c2, ExtClass.from_json)
    out = c1 - c2 if args.subtract else c1 + c2
    return {"class": out.to_json()}


def _cmd_act(args):
    cls = _load_json(args.cls, ExtClass.from_json)
    h = _load_json(args.map, AbMap.from_json)
    if args.side == "pull":
        out = pullback_action(cls, h)
    else:
        out = pushout_action(cls, h)
    return {"class": out.to_json()}


def _cmd_delta(args):
    seq = _load_json(args.sequence, ShortExactSeq.from_json)
    T = _group(args.T)
    d = connecting_hom_dual(seq, T) if args.dual else connecting_hom(seq, T)
    return {"map": d.to_json()}


def _cmd_psi(args):
    from .universal import phi, psi

    summands = [_group(s) for s in args.summands.split(";") if s.strip()]
    B = _group(args.B)
    pm = phi(summands, B) if args.phi else psi(summands, B)
    return {
        "domain": pm.domain.carrier.to_json(),
        "codomain": pm.codomain.total.to_json(),
        "matrix": pm.matrix.to_json(),
        "injective": pm.injective,
        "bijective": pm.bijective,
    }


def _cmd_univ_ext(args):
    from .universal import build_universal_extension

    cert = build_universal_extension(_group(args.B), _group(args.A))
    return cert.to_json(include_sequence=args.full)


def _cmd_univ_coext(args):
    from .universal import build_universal_coextension

    cert = build_universal_coextension(_group(args.B), _group(args.A))
    return cert.to_json(include_sequence=args.full)


def _cmd_cyclic_check(args):
    from .universal import build_universal_extension, check_end_size, check_samples, cyclic_generation_check

    B, A = _group(args.B), _group(args.A)
    check_samples(args.samples)
    check_end_size(B, A)
    cert = build_universal_extension(B, A)
    res = cyclic_generation_check(cert, samples=args.samples, seed=args.seed)
    return {
        "passed": res.passed,
        "detail": res.detail,
        "witnesses": [
            {"class": cls.to_json(), "gamma": gamma.to_json()} for cls, gamma in res.witnesses
        ],
    }


def _cmd_parse(args):
    expr = parse_torsion(_read_arg(args.expression))
    terms = []
    for atom, mult in expr.terms:
        entry = {"atom": type(atom).__name__}
        if hasattr(atom, "p"):
            entry["p"] = json_str(atom.p)
        if hasattr(atom, "k"):
            entry["k"] = json_str(atom.k)
        entry["multiplicity"] = "inf" if mult is None else json_str(mult)
        terms.append(entry)
    return {"expression": str(expr), "terms": terms}


def _cmd_classify_torsion(args):
    expr = parse_torsion(_read_arg(args.expression))
    return classify_torsion(expr, primes=args.p).to_json()


def _cmd_cotorsion(args):
    res = is_cotorsion(parse_torsion(_read_arg(args.expression)))
    return {
        "cotorsion": res.cotorsion,
        "bound": json_str(res.bound) if res.bound is not None else None,
        "divisible": str(res.divisible_part),
        "bounded": str(res.bounded_part),
    }


def _cmd_witness(args):
    return {"order": json_str(counterexample_witness(args.p, args.N).order)}


def _cmd_ab4_witness(args):
    return {"order": json_str(ab4star_failure_witness(args.p, args.N).order)}


def _cmd_suite(args):
    from .acceptance import run_all

    return run_all(seed=args.seed, only=args.only)


# verb -> its parser, recorded by _build_parser as it adds each one
_VERB_PARSERS: dict = {}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="abext", description="exact toolkit for abelian group extensions")
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_text):
        p = _VERB_PARSERS[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        return p

    p = add("snf", _cmd_snf, "Smith normal form of an integer matrix")
    p.add_argument("--matrix", required=True, help="JSON matrix (decimal strings) or @file")

    p = add("canon", _cmd_canon, "canonical form of a presented group")
    p.add_argument("--presentation", required=True, help="JSON relation matrix (rows = relations)")

    p = add("hom", _cmd_hom, "Hom(A, B) as a group")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)

    p = add("ext", _cmd_ext, "Ext^1(A, B) as a group")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)

    p = add("realize", _cmd_realize, "realize an Ext class as a short exact sequence")
    p.add_argument("--class", dest="cls", required=True)

    p = add("classify", _cmd_classify, "normal-form class of a short exact sequence")
    p.add_argument("--sequence", required=True)

    p = add("baer", _cmd_baer, "Baer sum (or difference) of two classes")
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    p.add_argument("--subtract", action="store_true")

    p = add("act", _cmd_act, "pullback/pushout action of a map on a class")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--side", choices=["pull", "push"], required=True)

    p = add("delta", _cmd_delta, "connecting morphism of a sequence at a test object")
    p.add_argument("--sequence", required=True)
    p.add_argument("--T", required=True)
    p.add_argument("--dual", action="store_true", help="Hom(sub,T) → Ext^1(quot,T) instead")

    p = add("psi", _cmd_psi, "Psi (or Phi) comparison map for a finite family")
    p.add_argument("--summands", required=True, help="semicolon-separated group expressions")
    p.add_argument("--B", required=True)
    p.add_argument("--phi", action="store_true", help="compute Phi instead of Psi")

    p = add("univ-ext", _cmd_univ_ext, "canonical universal extension certificate")
    p.add_argument("--B", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--full", action="store_true", help="include the sequence and class")

    p = add("univ-coext", _cmd_univ_coext, "canonical universal co-extension certificate")
    p.add_argument("--B", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--full", action="store_true")

    p = add("cyclic-check", _cmd_cyclic_check, "cyclic generation of Ext over End(B^(X))")
    p.add_argument("--seed", type=int, default=0, help="seed for any sampling")
    p.add_argument("--B", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--samples", type=int, default=5)

    p = add("parse", _cmd_parse, "parse a torsion group expression")
    p.add_argument("expression")

    p = add("classify-torsion", _cmd_classify_torsion, "co-Ext^1-universality classification")
    p.add_argument("expression")
    p.add_argument("--p", type=_int_list, default=(), help="extra primes for T_p verdicts, comma-separated")

    p = add("cotorsion", _cmd_cotorsion, "Baer–Fomin cotorsion test with witness")
    p.add_argument("expression")

    p = add("witness", _cmd_witness, "divisibility-defect witness order")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--N", type=int, required=True)

    p = add("ab4-witness", _cmd_ab4_witness, "Ab4* failure witness order")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--N", type=int, required=True)

    p = add("suite", _cmd_suite, "run the acceptance criteria, emit a scorecard")
    p.add_argument("--seed", type=int, default=0, help="seed for any sampling")
    p.add_argument("--only", type=_int_list, default=(), help="comma-separated criterion ids")

    return top


def _parse(argv: list) -> argparse.Namespace:
    """The request ``argv``, parsed by its verb's parser alone.

    The full parser answers what that one cannot: no verb, an unknown verb
    or ``-h`` first, and leftover arguments, which it reports under its own
    usage line.
    """
    top = _build_parser()
    verb = _VERB_PARSERS.get(argv[0]) if argv else None
    if verb is not None:
        args, extras = verb.parse_known_args(argv[1:])
        if not extras:
            return args
    return top.parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        result = args.fn(args)
    except ParseError as e:
        _emit({"error": {"code": e.code, "message": str(e), "position": e.position}}, args.pretty)
        return 1
    except (DomainError, DimensionMismatch) as e:
        code = getattr(e, "code", "domain-error")
        _emit({"error": {"code": code, "message": str(e)}}, args.pretty)
        return 1
    _emit(result, args.pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
