"""Batch command-line front end.

Commands: analyze, ng, certify, orbit, weights, thm4, cover, and
higgs verify-thm3.  Reports are deterministic JSON (sorted keys,
canonical array orders).  A report is a function of the arguments and
the input alone: no environment variable changes its bytes, and its
config records only options that change results.  Exit codes: 0
success, 1 parse error, 2 refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__, corpus
from .alexander import WeightsRefused, finite_locus_cover_check, weights_and_inverses
from .characters import Character
from .discovery import (CertificateError, abelian_cover_certificate,
                        certify_component, count_genus_components,
                        discover_components)
from .higgs import (ComplexTorusModel, LatticeCharacter, partition_check,
                    splitting_check)
from .presfile import ParseError, load_presentation
from .report import build_report, check_schema, load_schema, write_report
from .subtorus import SubtorusError, TranslatedSubtorus, orbit_closure
from .twisted import DegreeError, numeric_unitary_scan, presentation_data


def _load_input(source):
    if os.path.exists(source):
        return load_presentation(source)
    if source in corpus.CORPUS:
        return corpus.get(source)
    raise ParseError(f"no such file or corpus group: {source}")


def _fractions(text):
    return tuple(Fraction(x) for x in text.split(",")) if text else ()


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
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (DegreeError, WeightsRefused, CertificateError, SubtorusError,
            ValueError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    check_schema(report, load_schema())
    write_report(report, args.out)
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
        with open(args.component, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        ab, _ = presentation_data(p)
        tau = Character(
            ab.free_rank, ab.torsion,
            tuple(Fraction(x) for x in data["tau"].get(
                "moduli", ["1"] * ab.free_rank)),
            tuple(Fraction(x) for x in data["tau"]["angles"]),
            tuple(Fraction(x) for x in data["tau"].get("torsion", [])))
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
        moduli = _fractions(args.moduli)
        angles = _fractions(args.angles)
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
            with open(args.model, "r", encoding="utf-8") as fh:
                model_data = json.load(fh)
            n = model_data["n"]
            periods = tuple(
                tuple((Fraction(str(re)), Fraction(str(im))) for re, im in row)
                for row in model_data["period"])
            model = ComplexTorusModel(n, periods)
        else:
            model = ComplexTorusModel.standard(args.n)
        results = _thm3_sweep(model, args.samples, args.seed)
        config = {"n": model.n, "samples": args.samples, "seed": args.seed,
                  "model": args.model}
        return build_report("higgs verify-thm3", config, results)
    raise AssertionError(f"unhandled command {cmd}")


def _check_samples(samples):
    if samples < 0:
        raise ValueError("--samples must be at least 0")


def _thm3_sweep(model, samples, seed):
    _check_samples(samples)
    import random as _random
    rng = _random.Random(seed)
    b = 2 * model.n
    failures = []
    checked = 0
    for idx in range(samples):
        stratum = idx % 3
        if stratum == 0:
            rho = LatticeCharacter((Fraction(0),) * b, (Fraction(0),) * b)
        elif stratum == 1:
            rho = LatticeCharacter(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(b)),
                tuple(Fraction(rng.randint(0, 5), 6) for _ in range(b)))
        else:
            rho = LatticeCharacter(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(b)),
                (Fraction(0),) * b)
        for degree in range(2 * model.n + 1):
            ok, lhs, rhs = splitting_check(model, rho, degree)
            checked += 1
            if not ok:
                failures.append({"rho": rho.serialize(), "degree": degree,
                                 "lhs": lhs, "rhs": rhs})
        ok, _, _ = partition_check(model, rho, 1, 1)
        if not ok:
            failures.append({"rho": rho.serialize(), "partition_check": False})
    return {"samples": samples, "degree_checks": checked,
            "failures": failures, "passed": not failures}


if __name__ == "__main__":
    sys.exit(main())
