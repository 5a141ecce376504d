import random
from fractions import Fraction

from jumploci.intlinalg import (hnf_rows, kernel_rows, mat_mul,
                                smith_normal_form)
from jumploci.linalg import inverse, rank_exact

from conftest import within_seconds


def rand_matrix(rng, r, c, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]


def test_smith_normal_form_randomized():
    # The 6x6 and 8x8 shapes with entries up to 30 once ran without end:
    # swap-and-repeat clearing grew their entries to millions of bits.
    rng = random.Random(11)
    shapes = [(rng.randint(1, 5), rng.randint(1, 5), 6) for _ in range(200)]
    shapes += [(6, 6, 30)] * 60 + [(8, 8, 30)] * 60
    for r, c, bound in shapes:
        a = rand_matrix(rng, r, c, bound)
        u, d, v = within_seconds(5, smith_normal_form, a)
        assert mat_mul(mat_mul(u, a), v) == d
        diag = [d[i][i] for i in range(min(r, c))]
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert d[i][j] == 0
        # An integer matrix has an integer inverse iff its det is +-1.
        for m in (u, v):
            assert all(x.denominator == 1 for row in inverse(m) for x in row)


def test_kernel_rows_annihilate():
    # Rational rows, some of them none: the kernel rows are integral,
    # kill every row, number ncols - rank, and span a saturated lattice
    # (every Smith invariant of the kernel rows is 1).
    rng = random.Random(12)
    for _ in range(100):
        r, c = rng.randint(0, 4), rng.randint(1, 5)
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6))
              for _ in range(c)] for _ in range(r)]
        ker = kernel_rows(a, c)
        assert len(ker) == c - rank_exact(a)
        for u in ker:
            assert len(u) == c and all(isinstance(x, int) for x in u)
            assert all(sum(x * y for x, y in zip(u, row)) == 0 for row in a)
        if ker:
            _, d, _ = smith_normal_form(ker)
            assert all(d[i][i] == 1 for i in range(len(ker)))


def test_hnf_rows_is_span_invariant():
    # Unimodular row moves leave the HNF fixed, and the HNF has its shape:
    # positive pivots stepping right, entries above a pivot in
    # [0, pivot), no zero rows, and as many rows as the rank even when
    # the input has more rows than columns.
    rng = random.Random(13)
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 4)
        a = [[0 if rng.random() < 0.3 else rng.randint(-4, 4)
              for _ in range(c)] for _ in range(r)]
        b = [list(row) for row in a]
        for _ in range(6):
            i, j = rng.randrange(r), rng.randrange(r)
            if i != j:
                q = rng.randint(-3, 3)
                for t in range(c):
                    b[i][t] += q * b[j][t]
        h = hnf_rows(a)
        assert h == hnf_rows(b)
        assert len(h) == rank_exact(a)
        pivots = []
        for row in h:
            assert any(row)
            j = next(t for t, x in enumerate(row) if x)
            assert row[j] > 0
            pivots.append(j)
        assert pivots == sorted(set(pivots))
        for k, j in enumerate(pivots):
            assert all(0 <= h[i][j] < h[k][j] for i in range(k))
            assert all(h[i][j] == 0 for i in range(k + 1, len(h)))
