import random
from fractions import Fraction

import pytest

from jumploci import corpus
from jumploci.characters import (Character, enumerate_torsion_characters,
                                 torsion_modulus)
from jumploci.cyclotomic import Cyc, rank_exact
from jumploci.laurent import (LaurentPoly, det_bareiss, rank_generic,
                              resultant, univariate_view)
from jumploci.twisted import presentation_data


def gens(nvars):
    return [LaurentPoly.monomial((tuple(1 if k == j else 0 for k in range(nvars)), ()),
                                 nvars) for j in range(nvars)]


def rand_poly(rng, nvars, terms=3):
    p = LaurentPoly.zero(nvars)
    for _ in range(terms):
        exps = tuple(rng.randint(-2, 2) for _ in range(nvars))
        p = p.add_term((exps, ()), Fraction(rng.randint(-3, 3)))
    return p


def test_mul_commutative_associative_spot():
    rng = random.Random(21)
    for _ in range(40):
        a, b, c = (rand_poly(rng, 2) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_rank_generic_examples():
    A, B = gens(2)
    one = LaurentPoly.one(2)
    assert rank_generic([[one - B, A - one]]) == 1
    assert rank_generic([[LaurentPoly.zero(2), LaurentPoly.zero(2)]]) == 0
    # genus-2 surface Fox row is nonzero, so generic rank 1
    s2 = corpus.get("surface2")
    _, fox = presentation_data(s2)
    assert rank_generic(fox) == 1


def test_exact_division_roundtrip_and_error():
    rng = random.Random(22)
    for _ in range(30):
        a = rand_poly(rng, 2)
        b = rand_poly(rng, 2)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
    A, B = gens(2)
    one = LaurentPoly.one(2)
    with pytest.raises(ValueError):
        (A * B - one).exact_div(A - one)


def test_rank_generic_dominates_specializations():
    # rank at any character is at most the generic rank, with equality
    # at some sampled point.
    for name in ("surface2", "z2", "trefoil", "swap_torus"):
        p = corpus.get(name)
        ab, fox = presentation_data(p)
        if not fox:
            continue
        generic = rank_generic([[e.specialize_torsion(
            [Cyc.from_angle(Fraction(0))] * len(ab.torsion)) for e in row]
            for row in fox])
        best = -1
        n = torsion_modulus(4, ab.torsion)
        for e in enumerate_torsion_characters(ab.free_rank, ab.torsion, 4):
            chi = Character.from_exponents(ab.free_rank, ab.torsion, e, n)
            free_vals = [Cyc.from_angle(a) for a in chi.angles]
            tors_vals = chi.torsion_values()
            mat = [[e.evaluate(free_vals, tors_vals) for e in row] for row in fox]
            r = rank_exact(mat)
            assert r <= generic
            best = max(best, r)
        assert best == generic


def test_det_and_resultant():
    A, B = gens(2)
    one = LaurentPoly.one(2)
    d = det_bareiss([[A, one], [one, A]])
    assert d == A * A - one
    # resultant of (1 - B) and (A - 1) w.r.t. B is A - 1 (up to sign/unit)
    r = resultant(one - B, A - one, 1)
    assert not r.is_zero() and r.nvars == 1
    x = LaurentPoly.monomial(((1,), ()), 1)
    one1 = LaurentPoly.one(1)
    assert r == x - one1 or r == one1 - x
    # common-root detection: Res_B(AB - 1, B - A) vanishes iff A^2 = 1 line
    res = resultant(A * B - one, B - A, 1)
    assert res == x * x - one1 or res == one1 - x * x


def test_univariate_view():
    A, B = gens(2)
    one = LaurentPoly.one(2)
    view = univariate_view(A * B + B * B - one, 1)
    assert set(view) == {0, 1, 2}


def test_substitute_monomials():
    # z1 -> s, z2 -> s^2 turns z1^2 z2 into s^4
    p = LaurentPoly.monomial(((2, 1), ()), 2)
    q = p.substitute_monomials([[1], [2]], [Cyc.one(), Cyc.one()], 1)
    assert q == LaurentPoly.monomial(((4,), ()), 1)
    # translate values multiply in
    q2 = p.substitute_monomials([[1], [2]], [Cyc.rational(-1), Cyc.one()], 1)
    assert q2 == LaurentPoly.monomial(((4,), ()), 1, coeff=Cyc.one())
