"""Exact linear algebra over a field, and Koszul differentials.

Entries are Fractions (ints are accepted and promoted) for Q, or Cyc
values for Q(zeta_n).  One forward-elimination routine serves the rank,
the inverse and the solve of a square nonsingular system; fraction-free
elimination over Laurent rings stays in `laurent`, and the sparse mod-p
rank of the scan stays in `twisted`.

Soundness: row operations over a field keep the row space, so every
echelon form of a matrix has as many pivots as its rank, and a
nonsingular system has exactly one solution, which back substitution
returns whatever the pivots were.  Rank, inverse and solution therefore
do not depend on the pivot rule; it can change the running time, never
a reported dimension or membership.  Every zero test is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb


def _inverse(x):
    return Fraction(1, x) if isinstance(x, (int, Fraction)) else x.inverse()


def _echelon(rows, ncols):
    """Forward elimination in place on the first ncols columns of rows
    (lists; columns past ncols ride along as right-hand sides).

    The pivot of each column is its first nonzero entry at or below the
    current row, swapped up.  A pivot is inverted only when some row
    below still has a nonzero entry in its column, and entries below a
    pivot are left as they are, since nothing reads them again.  Returns
    the pivot columns; rows[:len(pivots)] are the echelon rows.
    """
    nrows = len(rows)
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivots.append(j)
        prow = rows[r]
        below = [row for row in rows[r + 1:] if row[j]]
        if not below:
            continue
        inv = _inverse(prow[j])
        tail = [(k, prow[k]) for k in range(j + 1, len(prow)) if prow[k]]
        for row in below:
            f = -row[j] * inv
            for k, x in tail:
                row[k] = row[k] + f * x
    return pivots


def rank_exact(matrix):
    """Rank over the field of a matrix given as a sequence of rows."""
    rows = [list(r) for r in matrix]
    return len(_echelon(rows, len(rows[0]) if rows else 0))


def _solve_rows(a, rhs_rows):
    """Rows of X with a X = B for square nonsingular a, B given by rows."""
    n = len(a)
    rows = [list(r) + list(b) for r, b in zip(a, rhs_rows)]
    if len(_echelon(rows, n)) < n:
        raise ZeroDivisionError("singular matrix")
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = row[n:]
        for k in range(i + 1, n):
            if row[k]:
                acc = [s - row[k] * t for s, t in zip(acc, x[k])]
        inv = _inverse(row[i])
        x[i] = [s * inv for s in acc]
    return x


def inverse(a):
    """Inverse of a square nonsingular matrix, as a list of rows."""
    n = len(a)
    return _solve_rows(a, [[int(i == j) for j in range(n)] for i in range(n)])


def solve(a, b):
    """The solution x of a x = b for square nonsingular a."""
    return [row[0] for row in _solve_rows(a, [[v] for v in b])]


def koszul_differential(ops, p, zero):
    """Matrix of d: Lambda^p (x) V -> Lambda^(p+1) (x) V for commuting
    square matrices ops[0..b-1] acting on V:

        e_S (x) v  ->  sum over j not in S of
                       (-1)^#{s in S : s < j} e_(S + j) (x) ops[j] v.

    Rows run over the (p+1)-subsets and columns over the p-subsets of
    range(b), both in lexicographic order, each subset a block of dim V
    indices; entries outside the blocks are `zero`.  Scalars are 1 x 1
    matrices.
    """
    b = len(ops)
    dim = len(ops[0])
    src = list(combinations(range(b), p))
    dst = {t: i for i, t in enumerate(combinations(range(b), p + 1))}
    mat = [[zero] * (len(src) * dim) for _ in range(len(dst) * dim)]
    for si, s in enumerate(src):
        for j in range(b):
            if j in s:
                continue
            negative = sum(1 for x in s if x < j) % 2
            top = dst[tuple(sorted(s + (j,)))] * dim
            for r, op_row in enumerate(ops[j]):
                out = mat[top + r]
                for c, v in enumerate(op_row):
                    out[si * dim + c] = -v if negative else v
    return mat


def koszul_dims(ops, dim, zero, rank):
    """Cohomology dimensions (h^0, ..., h^b) of the Koszul complex of
    ops on a space of dimension dim, from rank() of each differential."""
    b = len(ops)
    ranks = [0] + [rank(koszul_differential(ops, p, zero))
                   for p in range(b)] + [0]
    return tuple(dim * comb(b, p) - ranks[p] - ranks[p + 1]
                 for p in range(b + 1))
