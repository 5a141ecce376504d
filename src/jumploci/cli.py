"""Batch command-line front end.

Commands: analyze, ng, certify, orbit, weights, thm4, cover, and
higgs verify-thm3.  Reports are deterministic JSON (sorted keys,
canonical array orders).  A report is a function of the arguments and
the input alone: no environment variable changes its bytes, and its
config records every option of its command but --out (see COMMANDS),
each of which can change results.  Exit codes: 0 success; 1 parse
error, for input the CLI cannot read; 2 refusal (errors.Refusal, a
limit in the README refusal table) or usage error; 70 (EX_SOFTWARE)
any other exception, with its traceback: a bug, such as a failed
errors.InvariantError check, or an OS error such as an unwritable
--out.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__, corpus
from .alexander import finite_locus_cover_check, weights_and_inverses
from .characters import Character
from .discovery import (abelian_cover_certificate, certify_component,
                        count_genus_components, discover_components)
from .errors import Refusal
from .higgs import (ComplexTorusModel, LatticeCharacter, partition_check,
                    splitting_check)
from .presfile import ParseError, parse_presentation
from .report import (REPORT_SCHEMA, SchemaError, build_report, check_schema,
                     write_report)
from .subtorus import TranslatedSubtorus, orbit_closure
from .twisted import numeric_unitary_scan, presentation_data

EX_SOFTWARE = 70

# The text forms of a rational that Fraction reads, less digit-group
# underscores and non-ASCII digits: p, p/q, decimals and exponents.
_RATIONAL = re.compile(r"\s*[-+]?(\d+/\d+|(\d+(\.\d*)?|\.\d+)(e[-+]?\d+)?)\s*",
                       re.ASCII | re.IGNORECASE)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from None


# The shapes of the certify --component and higgs --model files.
_COMPONENT = {"type": "object", "required": ["H", "tau"], "properties": {
    "H": {"type": "array", "items": {"type": "array",
                                     "items": {"type": "integer"}}},
    "tau": {"type": "object", "required": ["angles"], "properties": {
        key: {"type": "array"} for key in ("angles", "moduli", "torsion")}}}}
_MODEL = {"type": "object", "required": ["n", "period"], "properties": {
    "n": {"type": "integer"},
    "period": {"type": "array", "items": {"type": "array",
                                          "items": {"type": "array"}}}}}


def _read_json(path, schema):
    try:
        data = json.loads(_read_text(path))
        check_schema(data, schema, path)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", exc.lineno, exc.colno) from None
    except SchemaError as exc:
        raise ParseError(str(exc)) from None
    return data


def _rational(value, where):
    """The rational that str(value) spells: option text, or a JSON string
    or number (a number by its decimal text, so 0.1 is 1/10)."""
    text = str(value)
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            pass
    raise ParseError(f"{where}: not a rational: {value!r}")


def _rationals(values, where):
    if isinstance(values, str):         # an option's comma-separated list
        values = values.split(",") if values else ()
    return tuple(_rational(x, where) for x in values)


def _load_input(source):
    if os.path.exists(source):
        return parse_presentation(_read_text(source))
    if source in corpus.names():
        return corpus.get(source)
    raise ParseError(f"no such file or corpus group: {source}")


def _check_samples(samples):
    if samples < 0:
        raise Refusal("--samples must be at least 0")


def _analyze(args):
    _check_samples(args.samples)
    p = _load_input(args.input)
    results = discover_components(p, args.i, args.m, args.K).serialize()
    if args.numeric_fallback:
        results["numeric_candidates"] = numeric_unitary_scan(
            p, args.i, args.m, args.samples, args.seed)
    return results


def _certify(args):
    p = _load_input(args.input)
    data = _read_json(args.component, _COMPONENT)
    where, given = args.component, data["tau"]
    ab, _ = presentation_data(p)
    tau = Character(
        ab.free_rank, ab.torsion,
        _rationals(given.get("moduli", ["1"] * ab.free_rank), where),
        _rationals(given["angles"], where),
        _rationals(given.get("torsion", []), where))
    sub = TranslatedSubtorus(ab.free_rank, ab.torsion,
                             tuple(tuple(r) for r in data["H"]), tau)
    status, generic_h = certify_component(p, sub, args.i, args.m)
    return {"certified": status == "certified", "status": status,
            "generic_h1": generic_h, "K": None, "component": sub.serialize()}


def _orbit(args):
    moduli = _rationals(args.moduli, "--moduli")
    angles = _rationals(args.angles, "--angles")
    sub = orbit_closure(Character(len(moduli), (), moduli, angles, ()),
                        args.variant)
    return sub.serialize() | {"unitary_translate": sub.translate.is_unitary}


def _cover(args):
    cert = abelian_cover_certificate(_load_input(args.input), args.K)
    return cert.serialize() if cert else {"certificate": None}


def _higgs_thm3(args):
    if args.model:
        data = _read_json(args.model, _MODEL)
        if any(len(z) != 2 for row in data["period"] for z in row):
            raise ParseError(f"{args.model}: a period entry must be "
                             f"a pair [re, im]")
        model = ComplexTorusModel(data["n"], tuple(
            tuple(_rationals(z, args.model) for z in row)
            for row in data["period"]))
        # The config records the dimension of the model that ran, not the
        # default of --n, which a model file overrides.
        args.n = model.n
    else:
        model = ComplexTorusModel.standard(args.n)
    _check_samples(args.samples)
    import random as _random
    rng = _random.Random(args.seed)
    b = 2 * model.n
    failures = []
    for idx in range(args.samples):
        # Strata by idx mod 3: trivial, general, unitary-free (angles 0).
        stratum = idx % 3
        logs = [rng.randint(-3, 3) for _ in range(b)] if stratum else [0] * b
        angles = ([Fraction(rng.randint(0, 5), 6) for _ in range(b)]
                  if stratum == 1 else [0] * b)
        rho = LatticeCharacter(tuple(logs), tuple(angles))
        for degree in range(b + 1):
            ok, lhs, rhs = splitting_check(model, rho, degree)
            if not ok:
                failures.append({"rho": rho.serialize(), "degree": degree,
                                 "lhs": lhs, "rhs": rhs})
        ok, _, _ = partition_check(model, rho, 1, 1)
        if not ok:
            failures.append({"rho": rho.serialize(), "partition_check": False})
    return {"samples": args.samples,
            "degree_checks": args.samples * (b + 1),
            "failures": failures, "passed": not failures}


# The add_argument keywords of every option, each stated once.
OPTIONS = {
    "input": {},
    "--i": {"type": int, "default": 1, "metavar": "DEGREE"},
    "--m": {"type": int, "default": 1, "metavar": "MULT"},
    "--K": {"type": int, "default": 6},
    "--N": {"type": int, "default": 2},
    "--g": {"type": int, "required": True},
    "--n": {"type": int, "default": 1},
    "--numeric-fallback": {"action": "store_true"},
    "--samples": {"type": int, "default": 50},
    "--seed": {"type": int, "default": 0},
    "--component": {"required": True, "help": "JSON file with keys H "
                    "(annihilator rows) and tau"},
    "--moduli": {"required": True},
    "--angles": {"required": True},
    "--variant": {"choices": ["A", "B"], "default": "B"},
    "--model": {"default": None, "help": "JSON model file "
                "{n: int, period: [[re, im]...]}"},
    "--out": {"default": "-"},
}

# Report command -> (help, options, handler returning the report's
# results).  Every command also takes --out, and its report's config holds
# each of its other options, keyed by the option's name less its dashes
# (_key).  A word before a space names a command group.  The handlers read
# library functions as globals of this module when they run, so a wrapper
# bound here (a tracer, a planted fault) sees the call.
COMMANDS = {
    "analyze": ("scan and certify jump locus components",
                ("input", "--i", "--m", "--K", "--numeric-fallback",
                 "--samples", "--seed"), _analyze),
    "ng": ("count genus components through 1", ("input", "--g", "--K"),
           lambda a: {"N_g": count_genus_components(_load_input(a.input),
                                                    a.g, a.K)}),
    "certify": ("certify one translated subtorus",
                ("input", "--component", "--i", "--m"), _certify),
    "orbit": ("orbit closure of an exact character",
              ("--moduli", "--angles", "--variant"), _orbit),
    "weights": ("weights of the cover homology", ("input", "--K", "--N"),
                lambda a: weights_and_inverses(_load_input(a.input), a.N,
                                               a.K).serialize()),
    "thm4": ("finite-locus cover check", ("input", "--N", "--K"),
             lambda a: finite_locus_cover_check(_load_input(a.input), a.N,
                                                a.K).serialize()),
    "cover": ("abelian cover certificate", ("input", "--K"), _cover),
    "higgs verify-thm3": ("degreewise splitting sweep",
                          ("--n", "--samples", "--seed", "--model"),
                          _higgs_thm3),
}
GROUPS = {"higgs": "Higgs-pair checks on torus models"}


def _key(option):
    """An option's config key and argparse dest: --i is i."""
    return option.lstrip("-").replace("-", "_")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jumploci",
        description="exact jump loci of finitely presented groups")
    parser.add_argument("--version", action="version", version=__version__)
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (text, options, _) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(
                group, help=GROUPS[group]).add_subparsers(
                    dest=f"{group}_command", required=True)
        command = groups[group].add_parser(leaf, help=text)
        command.set_defaults(report=name)
        for option in options + ("--out",):
            command.add_argument(option, **OPTIONS[option])
    args = parser.parse_args(argv)
    _, options, handler = COMMANDS[args.report]
    try:
        results = handler(args)
        config = {key: getattr(args, key) for key in map(_key, options)}
        report = build_report(args.report, config, results)
        check_schema(report, REPORT_SCHEMA)
        write_report(report, args.out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback            # here only: it adds to start-up time
        traceback.print_exc()
        return EX_SOFTWARE
    return 0


if __name__ == "__main__":
    sys.exit(main())
