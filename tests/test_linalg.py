"""Differential tests of the field elimination kernel and the Koszul
builder: ranks against Bareiss over Laurent constants (an independent
elimination), transposition, inverses and solves checked by
multiplication, and d o d = 0."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumploci.cyclotomic import Cyc
from jumploci.laurent import LaurentPoly, rank_generic
from jumploci.linalg import (_solve_rows, inverse, koszul_differential,
                             koszul_dims, rank_exact)
from jumploci.numutil import euler_phi

FIELDS = ("Q", 1, 3, 4, 5, 12)      # "Q": Fraction entries; else a conductor
SETTINGS = settings(max_examples=60, deadline=None)

RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _zero(field):
    return Fraction(0) if field == "Q" else Cyc.zero()


def _entries(field):
    if field == "Q":
        return RATIONALS
    phi = euler_phi(field)
    return st.lists(RATIONALS, min_size=phi, max_size=phi).map(
        lambda cs: Cyc(field, tuple(cs)))


@st.composite
def matrices(draw):
    """A matrix over one field, sparse, with some rows and columns
    forced to zero."""
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    zero = _zero(field)
    entry = st.one_of(st.just(zero), _entries(field))
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows - 1)):
        m[i] = [zero] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1)):
        for row in m:
            row[j] = zero
    return m


@st.composite
def nonsingular(draw):
    """P L U with L unit lower triangular, U upper triangular with a
    nonzero diagonal and P a row permutation."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    zero = _zero(field)
    entry = st.one_of(st.just(zero), _entries(field))
    lower = [[draw(entry) if j < i else (1 if i == j else zero)
              for j in range(n)] for i in range(n)]
    upper = [[draw(_entries(field).filter(bool)) if i == j
              else (draw(entry) if j > i else zero)
              for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    lu = _mul(lower, upper)
    return [lu[i] for i in perm], field


def _mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _transpose(m):
    return [list(col) for col in zip(*m)]


z5 = Cyc.root_of_unity(5)
z12 = Cyc.root_of_unity(12)


@SETTINGS
@given(matrices())
@example([[Cyc.one() - z5, Cyc.zero(), z5 ** 2 - Cyc.one(), Cyc.zero()]])
@example([[z12], [Cyc.zero()], [z12 ** 3]])
@example([[Fraction(0)] * 3 for _ in range(2)])
def test_rank_matches_bareiss_over_laurent_constants(m):
    as_laurent = [[LaurentPoly.monomial(((0,), ()), 1, coeff=x) for x in row]
                  for row in m]
    assert rank_exact(m) == rank_generic(as_laurent)


@SETTINGS
@given(matrices())
@example([[Cyc.one() - z5, Cyc.zero(), z5 ** 2 - Cyc.one(), Cyc.zero()]])
@example([[z12], [Cyc.zero()], [z12 ** 3]])
def test_rank_of_transpose(m):
    assert rank_exact(m) == rank_exact(_transpose(m))


@given(st.sampled_from(FIELDS), st.integers(1, 4))
def test_rank_of_shapes_with_no_entries(field, k):
    assert rank_exact([]) == 0
    assert rank_exact([[]] * k) == 0
    assert rank_exact([[_zero(field)] * k]) == 0


@SETTINGS
@given(nonsingular())
def test_inverse_times_matrix_is_identity(case):
    a, _field = case
    n = len(a)
    product = _mul(inverse(a), a)
    assert all(product[i][j] == int(i == j)
               for i in range(n) for j in range(n))


@SETTINGS
@given(nonsingular(), st.data())
def test_solve_satisfies_the_system(case, data):
    a, field = case
    b = [data.draw(st.one_of(st.just(_zero(field)), _entries(field)))
         for _ in a]
    x = [row[0] for row in _solve_rows(a, [[v] for v in b])]
    assert [row[0] for row in _mul(a, [[v] for v in x])] == b


def test_singular_matrix_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    z3 = Cyc.root_of_unity(3)
    with pytest.raises(ZeroDivisionError):
        inverse([[Cyc.one(), z3], [z3 ** 2, Cyc.one()]])


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.lists(st.one_of(st.just(_zero(f)), _entries(f)),
                       min_size=1, max_size=4)))
def test_koszul_complex_of_scalars(values):
    # d o d = 0; the complex is exact unless every scalar is zero, when
    # every differential vanishes and h^p = C(b, p).
    ops = [[[v]] for v in values]
    b = len(ops)
    for p in range(b - 1):
        dd = _mul(koszul_differential(ops, p + 1, Fraction(0)),
                  koszul_differential(ops, p, Fraction(0)))
        assert all(x == 0 for row in dd for x in row)
    dims = koszul_dims(ops, 1, Fraction(0), rank_exact)
    if any(values):
        assert dims == (0,) * (b + 1)
    else:
        assert dims == tuple(comb(b, p) for p in range(b + 1))
