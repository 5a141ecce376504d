"""Randomized cross-checks of the load-bearing exact kernels against
independent brute-force oracles."""

import random

from jumploci.cyclotomic import Cyc
from jumploci.alexander import smith_invariants
from jumploci.laurent import LaurentPoly, det_bareiss

from conftest import within_seconds


def test_smith_invariants_product_matches_determinant():
    # For square matrices over Q(zeta)[T, T^-1] the product of the
    # invariant factors agrees with the determinant up to a unit c T^k,
    # and each invariant factor divides the next.  Entries carry negative
    # exponents; the last 20 draw coefficients from Q(zeta_3).  The Smith
    # loop ends only if divmod lowers the span, so a broken divmod shows
    # as a timeout here.
    rng = random.Random(93)
    zeta3 = Cyc.root_of_unity(3)
    for case in range(60):
        n = rng.randint(1, 3)

        def coeff():
            c = Cyc.rational(rng.randint(-2, 2))
            return c + zeta3 * rng.randint(-1, 1) if case >= 40 else c
        mat = [[_rand_laurent1(rng, coeff) for _ in range(n)]
               for _ in range(n)]
        inv = within_seconds(5, smith_invariants, [list(r) for r in mat])
        for f in inv:
            (low,), _ = min(f.terms)
            assert low == 0 and f.terms[((f.span,), ())] == 1   # monic
        for f, g in zip(inv, inv[1:]):
            assert (g % f).is_zero()      # the divisibility chain
        det = det_bareiss(mat)
        if det.is_zero():
            assert len(inv) < n
            continue
        assert len(inv) == n
        prod = LaurentPoly.one(1)
        for f in inv:
            prod = prod * f
        q, r = det.divmod(prod)
        assert r.is_zero() and q.span == 0


def _rand_laurent1(rng, coeff):
    low = rng.randint(-2, 1)
    return LaurentPoly(1, (), {((low + i,), ()): coeff()
                               for i in range(rng.randint(1, 3))})


def test_laurent_det_matches_cofactor_expansion():
    rng = random.Random(94)
    for _ in range(25):
        n = rng.randint(1, 3)
        mat = [[_rand_laurent(rng) for _ in range(n)] for _ in range(n)]
        bare = det_bareiss([list(r) for r in mat])
        cof = _det_laurent_cofactor(mat)
        assert (bare - cof).is_zero()


def _rand_laurent(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = ((rng.randint(-1, 1), rng.randint(-1, 1)), ())
        terms[key] = terms.get(key, 0) + rng.randint(-2, 2)
    return LaurentPoly(2, (), terms)


def _det_laurent_cofactor(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = LaurentPoly.zero(2)
    for i in range(n):
        minor = [[mat[r][c] for c in range(1, n)] for r in range(n) if r != i]
        term = mat[i][0] * _det_laurent_cofactor(minor)
        total = total + term if i % 2 == 0 else total - term
    return total
