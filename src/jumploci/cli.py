"""Batch command-line front end.

Commands: analyze, ng, certify, orbit, weights, thm4, cover, and
higgs verify-thm3.  Reports are deterministic JSON (sorted keys,
canonical array orders).  A report is a function of the arguments and
the input alone: no environment variable changes its bytes, and its
config records only options that change results.  Exit codes: 0
success; 1 parse error, for input the CLI cannot read; 2 refusal
(errors.Refusal, a limit in the README refusal table) or usage error;
70 (EX_SOFTWARE) any other exception, with its traceback: a bug, such
as a failed errors.InvariantError check, or an OS error such as an
unwritable --out.
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


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jumploci",
        description="exact jump loci of finitely presented groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="scan and certify jump locus components")
    pa.add_argument("input")
    pa.add_argument("--i", type=int, default=1, dest="degree")
    pa.add_argument("--m", type=int, default=1, dest="mult")
    pa.add_argument("--K", type=int, default=6)
    pa.add_argument("--numeric-fallback", action="store_true")
    pa.add_argument("--samples", type=int, default=50)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", default="-")

    pn = sub.add_parser("ng", help="count genus components through 1")
    pn.add_argument("input")
    pn.add_argument("--g", type=int, required=True)
    pn.add_argument("--K", type=int, default=6)
    pn.add_argument("--out", default="-")

    pc = sub.add_parser("certify", help="certify one translated subtorus")
    pc.add_argument("input")
    pc.add_argument("--component", required=True,
                    help="JSON file with keys H (annihilator rows) and tau")
    pc.add_argument("--i", type=int, default=1, dest="degree")
    pc.add_argument("--m", type=int, default=1, dest="mult")
    pc.add_argument("--out", default="-")

    po = sub.add_parser("orbit", help="orbit closure of an exact character")
    po.add_argument("--moduli", required=True)
    po.add_argument("--angles", required=True)
    po.add_argument("--variant", choices=["A", "B"], default="B")
    po.add_argument("--out", default="-")

    pw = sub.add_parser("weights", help="weights of the cover homology")
    pw.add_argument("input")
    pw.add_argument("--K", type=int, default=6)
    pw.add_argument("--N", type=int, default=2)
    pw.add_argument("--out", default="-")

    pt = sub.add_parser("thm4", help="finite-locus cover check")
    pt.add_argument("input")
    pt.add_argument("--N", type=int, default=2)
    pt.add_argument("--K", type=int, default=6)
    pt.add_argument("--out", default="-")

    pv = sub.add_parser("cover", help="abelian cover certificate")
    pv.add_argument("input")
    pv.add_argument("--K", type=int, default=6)
    pv.add_argument("--out", default="-")

    ph = sub.add_parser("higgs", help="Higgs-pair checks on torus models")
    hsub = ph.add_subparsers(dest="higgs_command", required=True)
    pht = hsub.add_parser("verify-thm3", help="degreewise splitting sweep")
    pht.add_argument("--n", type=int, default=1)
    pht.add_argument("--samples", type=int, default=50)
    pht.add_argument("--seed", type=int, default=0)
    pht.add_argument("--model", default=None,
                     help="JSON model file {n: int, period: [[re, im]...]}")
    pht.add_argument("--out", default="-")

    args = parser.parse_args(argv)
    try:
        report = _dispatch(args)
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


def _dispatch(args):
    cmd = args.command
    if cmd == "analyze":
        _check_samples(args.samples)
        p = _load_input(args.input)
        rep = discover_components(p, args.degree, args.mult, args.K)
        results = rep.serialize()
        if args.numeric_fallback:
            results["numeric_candidates"] = numeric_unitary_scan(
                p, args.degree, args.mult, args.samples, args.seed)
        config = {"input": args.input, "i": args.degree, "m": args.mult,
                  "K": args.K, "numeric_fallback": bool(args.numeric_fallback),
                  "samples": args.samples, "seed": args.seed}
        return build_report("analyze", config, results)
    if cmd == "ng":
        p = _load_input(args.input)
        value = count_genus_components(p, args.g, args.K)
        config = {"input": args.input, "g": args.g, "K": args.K}
        return build_report("ng", config, {"N_g": value})
    if cmd == "certify":
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
        status, generic_h = certify_component(p, sub, args.degree, args.mult)
        config = {"input": args.input, "component": args.component,
                  "i": args.degree, "m": args.mult}
        return build_report("certify", config, {
            "certified": status == "certified", "status": status,
            "generic_h1": generic_h, "K": None,
            "component": sub.serialize()})
    if cmd == "orbit":
        moduli = _rationals(args.moduli, "--moduli")
        angles = _rationals(args.angles, "--angles")
        chi = Character(len(moduli), (), moduli, angles, ())
        sub = orbit_closure(chi, args.variant)
        config = {"moduli": args.moduli, "angles": args.angles,
                  "variant": args.variant}
        results = sub.serialize()
        results["unitary_translate"] = sub.is_unitary_translate()
        return build_report("orbit", config, results)
    if cmd == "weights":
        p = _load_input(args.input)
        rep = weights_and_inverses(p, args.N, args.K)
        config = {"input": args.input, "K": args.K, "N": args.N}
        return build_report("weights", config, rep.serialize())
    if cmd == "thm4":
        p = _load_input(args.input)
        rep = finite_locus_cover_check(p, args.N, args.K)
        config = {"input": args.input, "N": args.N, "K": args.K}
        return build_report("thm4", config, rep.serialize())
    if cmd == "cover":
        p = _load_input(args.input)
        cert = abelian_cover_certificate(p, args.K)
        config = {"input": args.input, "K": args.K}
        results = cert.serialize() if cert else {"certificate": None}
        return build_report("cover", config, results)
    if cmd == "higgs":
        if args.model:
            data = _read_json(args.model, _MODEL)
            if any(len(z) != 2 for row in data["period"] for z in row):
                raise ParseError(f"{args.model}: a period entry must be "
                                 f"a pair [re, im]")
            model = ComplexTorusModel(data["n"], tuple(
                tuple(_rationals(z, args.model) for z in row)
                for row in data["period"]))
        else:
            model = ComplexTorusModel.standard(args.n)
        results = _thm3_sweep(model, args.samples, args.seed)
        config = {"n": model.n, "samples": args.samples, "seed": args.seed,
                  "model": args.model}
        return build_report("higgs verify-thm3", config, results)
    raise AssertionError(f"unhandled command {cmd}")


def _check_samples(samples):
    if samples < 0:
        raise Refusal("--samples must be at least 0")


def _thm3_sweep(model, samples, seed):
    _check_samples(samples)
    import random as _random
    rng = _random.Random(seed)
    b = 2 * model.n
    failures = []
    for idx in range(samples):
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
    return {"samples": samples, "degree_checks": samples * (b + 1),
            "failures": failures, "passed": not failures}


if __name__ == "__main__":
    sys.exit(main())
