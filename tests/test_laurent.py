import random
from fractions import Fraction

import pytest

from jumploci import corpus
from jumploci.characters import (Character, enumerate_torsion_characters,
                                 torsion_modulus)
from jumploci.cyclotomic import Cyc, rank_exact
from jumploci.errors import InvariantError
from jumploci.intlinalg import identity
from jumploci.laurent import (LaurentPoly, det_bareiss, rank_generic,
                              resultant, univariate_view)
from jumploci.twisted import presentation_data

from oracles import evaluate_by_coordinate, substitute_by_coordinate


def gens(nvars):
    return [LaurentPoly.monomial((tuple(1 if k == j else 0 for k in range(nvars)), ()),
                                 nvars) for j in range(nvars)]


def rand_poly(rng, nvars, terms=3):
    coeffs = {}
    for _ in range(terms):
        key = (tuple(rng.randint(-2, 2) for _ in range(nvars)), ())
        coeffs[key] = coeffs.get(key, 0) + Fraction(rng.randint(-3, 3))
    return LaurentPoly(nvars, (), coeffs)


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
    with pytest.raises(InvariantError):
        (A * B - one).exact_div(A - one)


def test_rank_generic_dominates_specializations():
    # rank at any character is at most the generic rank, with equality
    # at some sampled point.
    for name in ("surface2", "z2", "trefoil", "swap_torus"):
        p = corpus.get(name)
        ab, fox = presentation_data(p)
        if not fox:
            continue
        b = ab.free_rank
        generic = rank_generic([[substitute_by_coordinate(
            e, identity(b), b, [Cyc.one()] * b, [Cyc.one()] * len(ab.torsion))
            for e in row] for row in fox])
        best = -1
        n = torsion_modulus(4, ab.torsion)
        for e in enumerate_torsion_characters(ab.free_rank, ab.torsion, 4):
            chi = Character.from_exponents(ab.free_rank, ab.torsion, e, n)
            mat = [[evaluate_by_coordinate(e, chi) for e in row] for row in fox]
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
    q = p.substitute_monomials([[1], [2]], lambda v, w: Cyc.one(), 1)
    assert q == LaurentPoly.monomial(((4,), ()), 1)
    # the monomial's value multiplies in: z1 -> -1 gives (-1)^2 = 1
    chi = Character(2, (), (1, 1), (Fraction(1, 2), 0), ())
    q2 = p.substitute_monomials([[1], [2]], chi.value, 1)
    assert q2 == LaurentPoly.monomial(((4,), ()), 1, coeff=Cyc.one())
    q3 = LaurentPoly.monomial(((1, 0), ()), 2).substitute_monomials(
        [[1], [2]], chi.value, 1)
    assert q3 == LaurentPoly.monomial(((1,), ()), 1, coeff=Cyc.rational(-1))


def test_divmod_is_euclidean_in_one_variable():
    # a == q * b + r with r zero or of smaller span, for one-variable
    # polynomials with negative exponents and Q(zeta_3) coefficients.
    rng = random.Random(23)
    zeta3 = Cyc.root_of_unity(3)

    def rand_poly1():
        low = rng.randint(-3, 2)
        return LaurentPoly(1, (), {
            ((low + i,), ()): Cyc.rational(rng.randint(-3, 3))
            + zeta3 * rng.randint(-2, 2) for i in range(rng.randint(1, 5))})
    for _ in range(80):
        a, b = rand_poly1(), rand_poly1()
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert a == q * b + r
        assert r.is_zero() or r.span < b.span
        assert (a // b, a % b) == (q, r)
        m = b.monic()
        (low,), _ = min(m.terms)
        assert low == 0 and m.terms[((m.span,), ())] == 1
        assert m.span == b.span and (b % m).is_zero()
    assert LaurentPoly.zero(1).span == -1
    assert LaurentPoly.monomial(((-4,), ()), 1, coeff=5).span == 0
    A, B = gens(2)
    with pytest.raises(InvariantError):
        A.divmod(B)
    s = LaurentPoly.monomial(((1,), (1,)), 1, (2,))
    with pytest.raises(InvariantError):
        s.divmod(LaurentPoly.one(1, (2,)))


def test_shared_division_is_exact_on_products_and_refuses_the_rest():
    # Multivariate leading-term division, with negative exponents and
    # Q(zeta_3) coefficients: a product divides back exactly, and a product
    # plus a monomial does not, as a divisor of two or more terms divides
    # no unit.
    rng = random.Random(24)
    zeta3 = Cyc.root_of_unity(3)

    def rand_poly3(terms):
        return LaurentPoly(3, (), {
            (tuple(rng.randint(-2, 2) for _ in range(3)), ()):
            Cyc.rational(rng.randint(-3, 3)) + zeta3 * rng.randint(-2, 2)
            for _ in range(terms)})
    checked = 0
    for _ in range(60):
        a, b = rand_poly3(rng.randint(1, 4)), rand_poly3(rng.randint(2, 4))
        if a.is_zero() or len(b.terms) < 2:
            continue
        assert (a * b).exact_div(b) == a
        unit = LaurentPoly.monomial(
            (tuple(rng.randint(-3, 3) for _ in range(3)), ()), 3,
            coeff=zeta3)
        with pytest.raises(InvariantError):
            (a * b + unit).exact_div(b)
        checked += 1
    assert checked >= 30


def dense_divmod(num, den):
    """Schoolbook division of coefficient lists, lowest degree first, with
    nonzero leading coefficients: (quotient, remainder padded to len(num))."""
    num, q = list(num), [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in reversed(range(len(q))):
        q[k] = num[k + len(den) - 1] / den[-1]
        for i, d in enumerate(den):
            num[k + i] -= q[k] * d
    return q, num


def test_divmod_matches_dense_division_over_q():
    # In one variable with rational coefficients the shared division gives
    # the dense Euclidean quotient and remainder of the shifted operands.
    rng = random.Random(25)
    for _ in range(60):
        lows = rng.randint(-3, 3), rng.randint(-3, 3)
        dense = [[Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
                 for _ in range(2)]
        for cs in dense:
            cs[0] = cs[0] or Fraction(1)
            cs[-1] = cs[-1] or Fraction(1)
        a, b = (LaurentPoly(1, (), {((low + i,), ()): c
                                    for i, c in enumerate(cs)})
                for low, cs in zip(lows, dense))
        q, r = dense_divmod(*dense)
        assert a // b == LaurentPoly(1, (), {((lows[0] - lows[1] + i,), ()): c
                                             for i, c in enumerate(q)})
        assert a % b == LaurentPoly(1, (), {((lows[0] + i,), ()): c
                                            for i, c in enumerate(r)})
