import random
from fractions import Fraction

import pytest

from jumploci.cyclotomic import (Cyc, _poly_div_exact, cyclotomic_polynomial,
                                 is_root_of_unity, rank_exact)
from jumploci.errors import InvariantError
from jumploci.numutil import euler_phi

from oracles import embeddings

CONDUCTORS = [1, 2, 3, 4, 5, 8, 12]


def rand_cyc(rng, conductors=CONDUCTORS):
    n = rng.choice(conductors)
    return Cyc(n, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(euler_phi(n))))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_field_axioms_randomized():
    rng = random.Random(101)
    for _ in range(300):
        a, b, c = (rand_cyc(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        if not a.is_zero():
            assert (a * a.inverse()).is_one()


def test_explicit_errors_survive_optimization():
    # These checks raise explicit errors, not asserts, so python -O keeps them.
    z3 = Cyc.root_of_unity(3)
    with pytest.raises(ValueError):
        z3.lift_coeffs(4)
    assert z3.lift_coeffs(6) == (Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        z3.rational_value()
    assert Cyc.rational(5).rational_value() == 5
    with pytest.raises(InvariantError):
        _poly_div_exact([1, 0, 1], [1, 1])          # x^2 + 1 by x + 1
    with pytest.raises(InvariantError):
        _poly_div_exact([1, 3], [1, 2])             # 3x + 1 by 2x + 1
    assert _poly_div_exact([-1, 0, 1], [1, 1]) == [-1, 1]


def test_mixed_conductor_arithmetic():
    z3, z6 = Cyc.root_of_unity(3), Cyc.root_of_unity(6)
    assert z6 * z6 == z3
    assert z6 ** 3 == Cyc.rational(-1)
    assert z3 + z3 ** 2 == Cyc.rational(-1)
    assert (z6 - z6).is_zero()


def test_rational_power_equals_repeated_multiplication():
    # A rational base is raised as one Fraction power; the result equals
    # repeated multiplication by the base (or by its inverse).
    for q in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 4),
              Fraction(7, 5), Fraction(0)):
        base = Cyc.rational(q)
        for k in range(-6, 7):
            if q == 0 and k < 0:
                continue
            step = base if k >= 0 else base.inverse()
            expected = Cyc.one()
            for _ in range(abs(k)):
                expected = expected * step
            got = base ** k
            assert got == expected and got.n == 1, (q, k)
    with pytest.raises(ZeroDivisionError):
        Cyc.rational(0) ** -1


def test_rank_exact_examples():
    one, zero = Cyc.one(), Cyc.zero()
    z4 = Cyc.root_of_unity(4)
    assert rank_exact([[one - z4, zero], [zero, zero]]) == 1
    z3 = Cyc.root_of_unity(3)
    assert rank_exact([[one, z3], [z3 ** 2, one]]) == 1
    assert rank_exact([[zero, zero], [zero, zero]]) == 0
    assert rank_exact([]) == 0


def test_rank_exact_lift_invariance():
    # The same matrix written at conductors 3 and 12 has the same rank.
    z3 = Cyc.root_of_unity(3)
    z12_pow4 = Cyc.root_of_unity(12) ** 4
    assert z3 == z12_pow4
    m1 = [[Cyc.one(), z3], [z3 ** 2, Cyc.one()]]
    m2 = [[Cyc.one(), z12_pow4], [z12_pow4 ** 2, Cyc.one()]]
    assert rank_exact(m1) == rank_exact(m2) == 1


def test_rank_exact_permutation_invariance():
    rng = random.Random(102)
    for _ in range(30):
        m = [[rand_cyc(rng, [1, 3, 4]) for _ in range(3)] for _ in range(3)]
        r = rank_exact(m)
        perm = list(range(3))
        rng.shuffle(perm)
        mp = [[m[perm[i]][j] for j in range(3)] for i in range(3)]
        assert rank_exact(mp) == r


def test_root_of_unity_examples():
    assert is_root_of_unity(Cyc.root_of_unity(5)) == (True, 5)
    assert is_root_of_unity(-(Cyc.root_of_unity(5) ** 2)) == (True, 10)
    golden = Cyc.one() + Cyc.root_of_unity(5) + Cyc.root_of_unity(5) ** 4
    assert is_root_of_unity(golden) == (False, None)
    with pytest.raises(ValueError, match="zero is not"):
        is_root_of_unity(Cyc.zero())


def test_root_of_unity_agrees_with_embedding_moduli():
    # A unit is a root of unity iff all embeddings have modulus one
    # (Kronecker); checked numerically on randomized products of roots
    # and cyclotomic units.
    rng = random.Random(103)
    for _ in range(100):
        n = rng.choice([5, 7, 8, 12])
        k = rng.randrange(1, n)
        if rng.random() < 0.5:
            x = Cyc.root_of_unity(n, k) * rng.choice([1, -1])
        else:
            a = rng.choice([a for a in range(2, n) if __import__("math").gcd(a, n) == 1])
            num = Cyc.one() - Cyc.root_of_unity(n, a)
            den = Cyc.one() - Cyc.root_of_unity(n)
            x = num * den.inverse()
        if x.is_zero():
            continue
        flag, _ = is_root_of_unity(x)
        unit_modulus = all(abs(abs(z) - 1.0) < 1e-9 for z in embeddings(x))
        assert flag == unit_modulus
