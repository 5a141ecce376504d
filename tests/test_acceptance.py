"""Acceptance gate: one test per criterion, each printing a PASS line.

All assertions are exact (integer/rational equality); the only tolerances
in the package live in explicitly flagged numeric fallback paths, which
these criteria do not rely on.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from math import comb, gcd

from conftest import REPO_ROOT, cli_env

from jumploci import corpus
from jumploci.alexander import (ModuleAction, finite_locus_cover_check,
                                is_weight, vanishing_check,
                                weights_and_inverses)
from jumploci.characters import (Character, enumerate_torsion_characters,
                                 rplus_act, torsion_modulus)
from jumploci.cyclotomic import Cyc, is_root_of_unity, rank_exact
from jumploci.discovery import count_genus_components, discover_components
from jumploci.higgs import (ComplexTorusModel, LatticeCharacter,
                            lattice_cohomology_dims, partition_check,
                            splitting_check)
from jumploci.intlinalg import mat_mul
from jumploci.linalg import inverse as _mat_inverse
from jumploci.presentation import FinitePresentation
from jumploci.subtorus import orbit_closure
from jumploci.twisted import scan_sigma, twisted_cohomology_dims

from oracles import (embeddings, reports_agree_after_transport,
                     tietze_transport, translate_root_of_unity_check)


def _report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def _characters(b, K):
    """The torsion characters of order <= K on (C*)^b, in canonical order."""
    n = torsion_modulus(K, ())
    return [Character.from_exponents(b, (), e, n)
            for e in enumerate_torsion_characters(b, (), K)]


def test_criterion_1_surface_suite():
    s2 = corpus.get("surface2")
    assert twisted_cohomology_dims(s2, Character.trivial(4)) == (1, 4, 1)
    chars = [c for c in _characters(4, 6) if not c.is_trivial]
    rng = random.Random(1001)
    sample = rng.sample(chars, 25)
    for chi in sample:
        dims = twisted_cohomology_dims(s2, chi)
        assert dims == (0, 2, 0), (chi, dims)
        # Euler-characteristic oracle: h1 = 2g - 2 + 2 [chi trivial]
        assert dims[1] == 2 * 2 - 2
    assert twisted_cohomology_dims(s2, Character.trivial(4))[1] == 2 * 2 - 2 + 2
    rep = discover_components(s2, 1, 1, 3)
    certs = rep.certified_components()
    assert len(certs) == 1
    assert certs[0].dim == 4 and certs[0].subtorus.annihilator == ()
    assert count_genus_components(s2, 2, 3) == 1
    assert count_genus_components(s2, 3, 3) == 0
    _report(1, "genus-2 dims (1,4,1)/(0,2,0) at 25 samples, one full-torus "
               "component, N_2 = 1, N_3 = 0")


def test_criterion_2_product_suite():
    p = corpus.get("product23")
    rep = discover_components(p, 1, 1, 3)
    pos = [c for c in rep.certified_components() if c.dim > 0]
    assert len(pos) == 2
    dims = sorted(c.dim for c in pos)
    assert dims == [4, 6]
    assert all(c.contains_trivial for c in pos)
    # Kunneth brute-force oracle over every scanned character: a point
    # hits exactly when one factor's character is trivial.
    hit_keys = {chi.sort_key() for chi, _ in rep.members}
    for chi in _characters(10, 3):
        first_trivial = all(a == 0 for a in chi.angles[:4])
        second_trivial = all(a == 0 for a in chi.angles[4:])
        assert (chi.sort_key() in hit_keys) == (first_trivial or second_trivial)
    assert count_genus_components(p, 2, 3) == 1
    assert count_genus_components(p, 3, 3) == 1
    assert count_genus_components(p, 4, 3) == 0
    _report(2, "product group: two components through 1 of dims 4 and 6; "
               "N_2 = N_3 = 1, N_4 = 0 (Kunneth oracle exact)")


def test_criterion_3_abelian_suite():
    for b in (2, 3, 4):
        p = corpus.get(f"z{b}")
        res = scan_sigma(p, 1, 1, 4)
        assert len(res.hits) == 1 and res.hits[0][0].is_trivial, b
    z4 = corpus.get("z4")
    assert count_genus_components(z4, 2, 4) == 0
    assert count_genus_components(z4, 3, 4) == 0
    _report(3, "Sigma^1(Z^b) = {1} for b in {2,3,4} over full order-<=4 "
               "scans; N_g(Z^4) = 0")


def test_criterion_4_orbit_closure_suite():
    rng = random.Random(1004)
    for trial in range(100):
        b = rng.choice([2, 3])
        moduli = tuple(Fraction(rng.randint(1, 50), rng.randint(1, 50))
                       for _ in range(b))
        angles = tuple(Fraction(rng.randint(0, 11), 12) for _ in range(b))
        chi = Character(b, (), moduli, angles, ())
        sub = orbit_closure(chi, "B")
        # (a) ten orbit points lie in the closure, exactly
        for t in range(1, 11):
            assert sub.contains(rplus_act(Fraction(t), chi, "B"))
        # (b) action stability on sampled coset points
        for pt in sub.torsion_points(2)[:5]:
            for t in (2, 3):
                moved = rplus_act(Fraction(t), pt, "B")
                assert sub.contains(moved)
        for t in (2, 3):
            assert sub.contains(rplus_act(Fraction(t), chi, "B"))
        # (c) the translate is unitary with root-of-unity coordinates
        assert sub.translate.is_unitary
        assert translate_root_of_unity_check(sub)
    # variant-A discrepancy: chi = (2) is a fixed point whose closure
    # is not a unitary translate
    chi2 = Character(1, (), (Fraction(2),), (Fraction(0),), ())
    assert rplus_act(Fraction(7), chi2, "A") == chi2
    bad = orbit_closure(chi2, "A")
    assert not bad.translate.is_unitary
    _report(4, "100 orbit closures contain their orbits, are action-stable "
               "with torsion translates; variant-A counterexample recorded")


def test_criterion_5_splitting_suite():
    rng = random.Random(1005)
    for n in (1, 2):
        X = ComplexTorusModel.standard(n)
        b = 2 * n
        checked = 0
        for idx in range(200):
            stratum = idx % 3
            if stratum == 0:
                rho = LatticeCharacter((Fraction(0),) * b, (Fraction(0),) * b)
            elif stratum == 1:
                angles = [Fraction(rng.randint(0, 5), 6) for _ in range(b)]
                if all(a == 0 for a in angles):
                    angles[0] = Fraction(1, 2)
                rho = LatticeCharacter(
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(b)),
                    tuple(angles))
            else:
                logs = [Fraction(rng.randint(-2, 2)) for _ in range(b)]
                if all(q == 0 for q in logs):
                    logs[0] = Fraction(1)
                rho = LatticeCharacter(tuple(logs), (Fraction(0),) * b)
            for degree in range(2 * n + 1):
                ok, lhs, rhs = splitting_check(X, rho, degree)
                assert ok, (n, rho, degree, lhs, rhs)
                checked += 1
            ok, _, _ = partition_check(X, rho, 1, 1)
            assert ok
        assert checked == 200 * (2 * n + 1)
        # binomial identity at the trivial character
        triv = LatticeCharacter((Fraction(0),) * b, (Fraction(0),) * b)
        dims = lattice_cohomology_dims(X, triv)
        for i in range(b + 1):
            assert dims[i] == comb(b, i) == sum(
                comb(n, p) * comb(n, i - p)
                for p in range(max(0, i - n), min(i, n) + 1))
    _report(5, "degreewise splitting holds at 200 exact samples per torus "
               "dimension n in {1, 2}, all strata, plus the binomial identity")


def test_criterion_6_weights_suite():
    rng = random.Random(1006)
    pool = [Cyc.one(), Cyc.rational(-1), Cyc.rational(2),
            Cyc.root_of_unity(3), Cyc.root_of_unity(4)]
    for trial in range(50):
        dim = rng.randint(1, 4)
        b = rng.randint(1, 3)
        diags = [[rng.choice(pool) for _ in range(dim)] for _ in range(b)]
        s = None
        while s is None:
            cand = [[Cyc.rational(rng.randint(-2, 2)) for _ in range(dim)]
                    for _ in range(dim)]
            if rank_exact(cand) == dim:
                s = cand
        sinv = _mat_inverse(s)
        mats = [mat_mul(mat_mul(s, [[dcol[i] if i == j else Cyc.zero()
                                     for j in range(dim)]
                                    for i in range(dim)]), sinv)
                for dcol in diags]
        act = ModuleAction(mats)

        def key_of(v):
            return (v.n, v.coeffs)

        eigen_sets = [list({key_of(x): x for x in dcol}.values())
                      for dcol in diags]
        combos = list(iproduct(*[range(len(es)) for es in eigen_sets]))
        brute = set()
        for combo in combos:
            vals = [eigen_sets[j][combo[j]] for j in range(b)]
            if is_weight(vals, act):
                brute.add(tuple(key_of(v) for v in vals))
        sampled = combos if len(combos) <= 6 else rng.sample(combos, 6)
        for combo in sampled:
            vals = [eigen_sets[j][combo[j]] for j in range(b)]
            verdict = vanishing_check(act, [v.inverse() for v in vals])
            assert verdict.inverse_is_weight == (tuple(key_of(v)
                                                       for v in vals) in brute)
            assert verdict.consistent

    # the inverse-weight identity over an order-<=6 scan
    for name, presentation in (("Z", FinitePresentation(1, ())),
                               ("Z^2", corpus.get("z2")),
                               ("Z/3+Z", corpus.get("c3xz"))):
        rep = weights_and_inverses(presentation, 2, 6)
        assert rep.identity_holds, name
    cover = finite_locus_cover_check(corpus.get("c3xz"), 2, 6)
    assert cover.passed
    _report(6, "vanishing dichotomy matches brute force on 50 actions; "
               "inverse-weight identity exact for Z, Z^2, Z/3+Z; cover "
               "check leaves only the trivial character")


def test_criterion_7_kronecker():
    for n in range(1, 25):
        for j in range(n):
            for sign in (1, -1):
                x = Cyc.root_of_unity(n, j) * sign
                flag, order = is_root_of_unity(x)
                assert flag
                # arithmetic oracle: order of e^(2 pi i (j/n + [sign<0]/2))
                angle = Fraction(j, n) + (Fraction(1, 2) if sign < 0 else 0)
                assert order == (angle % 1).denominator, (n, j, sign)
    rejected = 0
    for n in (5, 7, 8, 9, 11, 12, 13):
        for k in range(2, n):
            if gcd(k, n) != 1 or rejected >= 20:
                continue
            unit = ((Cyc.one() - Cyc.root_of_unity(n, k))
                    * (Cyc.one() - Cyc.root_of_unity(n)).inverse())
            if any(abs(abs(z) - 1.0) < 1e-12 for z in embeddings(unit)):
                continue  # keep only units that are non-unitary somewhere
            flag, order = is_root_of_unity(unit)
            assert not flag and order is None
            rejected += 1
    assert rejected == 20
    _report(7, "all +-zeta_n^j classified for n <= 24; 20 non-torsion "
               "cyclotomic units rejected")


def test_criterion_8_tietze_invariance():
    rng = random.Random(1008)
    plans = [("surface2", 3), ("free2", 3), ("z2", 3), ("z3", 3),
             ("c3xz", 3), ("trefoil", 6), ("swap_torus", 4),
             ("torus_bundle3", 3), ("product23", 2)]
    for name, K in plans:
        p = corpus.get(name)
        rep = discover_components(p, 1, 1, K)
        for _ in range(10):
            perm = list(range(p.generator_count))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(p.generator_count)]
            variant, gen_words = tietze_transport(p, perm, signs)
            vrep = discover_components(variant, 1, 1, K)
            assert reports_agree_after_transport(
                p, rep, variant, vrep, gen_words, K), (name, perm, signs)
    _report(8, "reports agree across 10 generator-permutation/inversion "
               "variants of each corpus group")


def test_criterion_9_determinism():
    runs = [
        ["analyze", "surface2", "--K", "3"],
        ["analyze", "swap_torus", "--K", "4"],
        ["ng", "surface2", "--g", "2", "--K", "3"],
        ["orbit", "--moduli", "4,2", "--angles", "0,0"],
        ["weights", "trefoil", "--K", "6"],
        ["thm4", "torus_bundle3", "--N", "2", "--K", "6"],
        ["cover", "swap_torus", "--K", "4"],
        ["higgs", "verify-thm3", "--n", "1", "--samples", "12", "--seed", "7"],
    ]
    for args in runs:
        outs = []
        for _ in range(2):
            res = subprocess.run([sys.executable, "-m", "jumploci"] + args
                                 + ["--out", "-"],
                                 capture_output=True, text=True,
                                 cwd=REPO_ROOT, env=cli_env())
            assert res.returncode == 0, (args, res.stderr)
            json.loads(res.stdout)   # well-formed
            outs.append(res.stdout)
        assert outs[0] == outs[1], args
    _report(9, "double runs of the full command battery are byte-identical")
