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
reused by every later ``main`` call: no default it holds is mutable.  Each
verb's argparse parser is the one declaration of its options and the one
source of usage errors and help.  A request is first read in one pass
(``_read``) against a table built, with the parser, from the actions that
the verb's ``add_argument`` calls returned; it takes only exact option
strings with plain values, ``store_true`` flags and positionals in order,
and declines anything else.  The verb's parser alone parses what it
declines, and the full parser sees only help, an unknown verb and leftover
arguments, so every message is unchanged.  Verb modules load on first use:
``univ-ext``, ``univ-coext``, ``psi`` and ``cyclic-check`` import
``universal`` when they run, and ``suite`` imports ``acceptance`` (and with
it ``oracle``).

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
from .abgroup import AbMap, FinGenAb, canonicalize, json_rows
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
        "to_canonical": json_rows(place, group.dim),
        "from_canonical": json_rows(lift, pres.ncols),
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


# verb -> its parser, and verb -> the table _read reads its argv against
# (None for a verb _read leaves to argparse); _build_parser records both
_VERB_PARSERS: dict = {}
_VERB_TABLES: dict = {}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="abext", description="exact toolkit for abelian group extensions")
    sub = top.add_subparsers(dest="verb", required=True)
    declared = {}  # verb -> the actions its add_argument calls returned

    def add(name, fn, help_text):
        """Add the verb; return its ``add_argument``, which records each action it makes."""
        p = _VERB_PARSERS[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        actions = declared[name] = []

        def arg(*flags, **kwargs):
            actions.append(p.add_argument(*flags, **kwargs))

        arg("--pretty", action="store_true", help="indent the JSON output")
        return arg

    arg = add("snf", _cmd_snf, "Smith normal form of an integer matrix")
    arg("--matrix", required=True, help="JSON matrix (decimal strings) or @file")

    arg = add("canon", _cmd_canon, "canonical form of a presented group")
    arg("--presentation", required=True, help="JSON relation matrix (rows = relations)")

    arg = add("hom", _cmd_hom, "Hom(A, B) as a group")
    arg("--A", required=True)
    arg("--B", required=True)

    arg = add("ext", _cmd_ext, "Ext^1(A, B) as a group")
    arg("--A", required=True)
    arg("--B", required=True)

    arg = add("realize", _cmd_realize, "realize an Ext class as a short exact sequence")
    arg("--class", dest="cls", required=True)

    arg = add("classify", _cmd_classify, "normal-form class of a short exact sequence")
    arg("--sequence", required=True)

    arg = add("baer", _cmd_baer, "Baer sum (or difference) of two classes")
    arg("--c1", required=True)
    arg("--c2", required=True)
    arg("--subtract", action="store_true")

    arg = add("act", _cmd_act, "pullback/pushout action of a map on a class")
    arg("--class", dest="cls", required=True)
    arg("--map", required=True)
    arg("--side", choices=["pull", "push"], required=True)

    arg = add("delta", _cmd_delta, "connecting morphism of a sequence at a test object")
    arg("--sequence", required=True)
    arg("--T", required=True)
    arg("--dual", action="store_true", help="Hom(sub,T) → Ext^1(quot,T) instead")

    arg = add("psi", _cmd_psi, "Psi (or Phi) comparison map for a finite family")
    arg("--summands", required=True, help="semicolon-separated group expressions")
    arg("--B", required=True)
    arg("--phi", action="store_true", help="compute Phi instead of Psi")

    arg = add("univ-ext", _cmd_univ_ext, "canonical universal extension certificate")
    arg("--B", required=True)
    arg("--A", required=True)
    arg("--full", action="store_true", help="include the sequence and class")

    arg = add("univ-coext", _cmd_univ_coext, "canonical universal co-extension certificate")
    arg("--B", required=True)
    arg("--A", required=True)
    arg("--full", action="store_true")

    arg = add("cyclic-check", _cmd_cyclic_check, "cyclic generation of Ext over End(B^(X))")
    arg("--seed", type=int, default=0, help="seed for any sampling")
    arg("--B", required=True)
    arg("--A", required=True)
    arg("--samples", type=int, default=5)

    arg = add("parse", _cmd_parse, "parse a torsion group expression")
    arg("expression")

    arg = add("classify-torsion", _cmd_classify_torsion, "co-Ext^1-universality classification")
    arg("expression")
    arg("--p", type=_int_list, default=(), help="extra primes for T_p verdicts, comma-separated")

    arg = add("cotorsion", _cmd_cotorsion, "Baer–Fomin cotorsion test with witness")
    arg("expression")

    arg = add("witness", _cmd_witness, "divisibility-defect witness order")
    arg("--p", type=int, required=True)
    arg("--N", type=int, required=True)

    arg = add("ab4-witness", _cmd_ab4_witness, "Ab4* failure witness order")
    arg("--p", type=int, required=True)
    arg("--N", type=int, required=True)

    arg = add("suite", _cmd_suite, "run the acceptance criteria, emit a scorecard")
    arg("--seed", type=int, default=0, help="seed for any sampling")
    arg("--only", type=_int_list, default=(), help="comma-separated criterion ids")

    for name, actions in declared.items():
        _VERB_TABLES[name] = _table(_VERB_PARSERS[name], actions)
    return top


def _table(verb: argparse.ArgumentParser, actions: list):
    """What ``_read`` reads the verb's argv against, from its declared actions.

    The options by option string (those taking one value, and flags shaped
    like ``store_true``), the Namespace defaults as argparse sets them, the
    required actions (every positional among them), the positionals in order
    and the actions with a string default.  None when an action takes some
    other number of values.
    """
    if any(a.nargs not in (None, 0) for a in actions):
        return None
    options, defaults = {}, {}
    for a in actions:
        if a.nargs is None or (a.const is True and a.default is False):
            options.update(dict.fromkeys(a.option_strings, a))
        if a.dest is not argparse.SUPPRESS and a.dest not in defaults and a.default is not argparse.SUPPRESS:
            defaults[a.dest] = a.default
    defaults.setdefault("fn", verb.get_default("fn"))
    required = [a for a in actions if a.required]
    positionals = [a for a in actions if not a.option_strings]
    return options, defaults, required, positionals, [a for a in actions if isinstance(a.default, str)]


_DECLINED = object()


def _typed(action: argparse.Action, text: str):
    """``text`` through the action's ``type``, or _DECLINED where argparse reports a usage error."""
    if action.type is None:
        return text
    try:
        return action.type(text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return _DECLINED


def _read(verb: argparse.ArgumentParser, table, argv: list) -> Optional[argparse.Namespace]:
    """``verb.parse_known_args(argv)``'s Namespace, read in one pass, or None.

    It reads only exact option strings, each followed by a value that does
    not start with '-' (passed through the action's ``type`` and checked
    against its ``choices``), ``store_true`` flags and the positionals in
    order, and hands each value to its action as argparse does.  Every other
    argv gives None: an unknown or abbreviated option, ``--opt=value``,
    ``--``, help, a value starting with '-' (negative numbers included), a
    value that ``type`` or ``choices`` refuses, a missing value, a missing
    required option and an extra or missing positional.
    """
    options, defaults, required, positionals, str_defaults = table
    ns = argparse.Namespace()
    vars(ns).update(defaults)
    seen = set()
    values = iter(argv)
    rest = iter(positionals)
    for text in values:
        if text.startswith("-"):
            option, action = text, options.get(text)
            if action is None:
                return None
            if action.nargs == 0:
                action(verb, ns, [], option)
                seen.add(action)
                continue
            text = next(values, "-")  # a missing value reads as '-'
            if text.startswith("-"):
                return None
        else:
            option, action = None, next(rest, None)
            if action is None:
                return None
        value = _typed(action, text)
        if value is _DECLINED or (action.choices is not None and value not in action.choices):
            return None
        action(verb, ns, value, option)
        seen.add(action)
    if any(a not in seen for a in required):
        return None
    for a in str_defaults:  # argparse types a string default it did not replace
        if a not in seen and getattr(ns, a.dest, None) is a.default:
            value = _typed(a, a.default)
            if value is _DECLINED:
                return None
            setattr(ns, a.dest, value)
    return ns


def _parse(argv: list) -> argparse.Namespace:
    """The request ``argv``, read by ``_read`` or parsed by its verb's parser alone.

    The verb's parser sees the argv ``_read`` declines, so it alone reports
    a usage error in a verb's arguments.  The full parser answers what that
    one cannot: no verb, an unknown verb or ``-h`` first, and leftover
    arguments, which it reports under its own usage line.
    """
    top = _build_parser()
    verb = _VERB_PARSERS.get(argv[0]) if argv else None
    if verb is not None:
        table = _VERB_TABLES[argv[0]]
        args = _read(verb, table, argv[1:]) if table is not None else None
        if args is not None:
            return args
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
