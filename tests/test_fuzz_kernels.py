"""Randomized cross-checks of the load-bearing exact kernels against
independent brute-force oracles."""

import random

from jumploci.cyclotomic import Cyc
from jumploci.laurent import LaurentPoly, det_bareiss
from jumploci.upoly import UPoly, smith_invariants


def test_smith_invariants_product_matches_determinant():
    # For square matrices the product of the invariant factors agrees
    # with the determinant up to a unit (nonzero scalar here), and each
    # invariant factor divides the next.  The last 20 draw coefficients
    # from Q(zeta_3).
    rng = random.Random(93)
    zeta3 = Cyc.root_of_unity(3)
    for case in range(60):
        n = rng.randint(1, 3)

        def coeff():
            c = Cyc.rational(rng.randint(-2, 2))
            return c + zeta3 * rng.randint(-1, 1) if case >= 40 else c
        mat = [[UPoly([coeff() for _ in range(rng.randint(1, 3))])
                for _ in range(n)] for _ in range(n)]
        inv, rank = smith_invariants([list(r) for r in mat])
        assert all(f.leading() == 1 for f in inv)
        for f, g in zip(inv, inv[1:]):
            assert (g % f).is_zero()      # the divisibility chain
        det = _det_upoly(mat)
        if det.is_zero():
            assert rank < n
            continue
        assert rank == n
        prod = UPoly.one()
        for f in inv:
            prod = prod * f
        q, r = det.divmod(prod)
        assert r.is_zero() and q.degree == 0


def _det_upoly(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = UPoly.zero()
    for i in range(n):
        minor = [[mat[r][c] for c in range(1, n)] for r in range(n) if r != i]
        term = mat[i][0] * _det_upoly(minor)
        total = total + term if i % 2 == 0 else total - term
    return total


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
