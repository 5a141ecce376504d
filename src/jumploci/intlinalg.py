"""Exact integer matrix algebra: Smith and Hermite normal forms and the
saturated integer kernel.  The Smith form also serves any Euclidean domain
(alexander uses it over Q(zeta)[T, T^-1], with LaurentPoly entries), and
the Hermite form reuses its row transform.

All matrices are lists of lists of Python ints (arbitrary precision), rows
first.  Everything here is deterministic: pivots are chosen by first
minimal nonzero entry, never randomly.
"""

from __future__ import annotations

from math import lcm


def mat_copy(a):
    return [list(row) for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def _find_pivot(d, k, size):
    """Position of the nonzero entry of least size in the trailing block
    d[k:][k:], first in row-major order among ties."""
    best = None
    for i in range(k, len(d)):
        for j in range(k, len(d[i])):
            x = d[i][j]
            if x and (best is None or size(x) < best[0]):
                best = (size(x), i, j)
    return best and best[1:]


def _elimination(p, x, one, zero):
    """(s, t, y, z) with s*z - t*y = 1, y*p + z*x = 0 and s*p + t*x a gcd
    of p and x.  When p divides x this is the plain subtraction
    (1, 0, -x // p, 1); otherwise the extended-gcd transform."""
    q = x // p
    if not x - q * p:
        return one, zero, -q, one
    # Euclid on (p, x), keeping s*p + t*x == g and s1*p + t1*x == r.
    g, s, t = p, one, zero
    r, s1, t1 = x, zero, one
    while r:
        q = g // r
        g, r = r, g - q * r
        s, s1 = s1, s - q * s1
        t, t1 = t1, t - q * t1
    return s, t, -(x // g), p // g


def _row_op(m, k, i, op):
    """Rows (k, i) of m become (s*row_k + t*row_i, y*row_k + z*row_i)."""
    s, t, y, z = op
    rk, ri = m[k], m[i]
    m[i] = [y * a + z * b for a, b in zip(rk, ri)]
    if t:
        m[k] = [s * a + t * b for a, b in zip(rk, ri)]


def _col_op(m, k, j, op):
    """Columns (k, j) of m, combined as _row_op combines rows."""
    s, t, y, z = op
    for row in m:
        a, b = row[k], row[j]
        row[j] = y * a + z * b
        if t:
            row[k] = s * a + t * b


def smith_form(a, size):
    """Smith form with transforms over a Euclidean domain.

    Entries are ints (size=abs) or ring elements supporting + - * // %
    and a truth test, such as one-variable LaurentPoly (size=span); size(x)
    is the Euclidean size of a nonzero x.  Returns (u, d, v) with
    u @ a @ v == d, u and v invertible over the ring, and d diagonal with
    d[0][0] | d[1][1] | ..., zeros last.  Diagonal entries are fixed only
    up to units; callers normalize them.

    The pivot is the entry of least size in the trailing block.  An entry
    in its row or column that it divides is cleared by subtracting a
    multiple; any other entry is cleared by the unimodular extended-gcd
    transform of the two rows (columns), which puts their gcd at the pivot.
    When the pivot does not divide some entry of the trailing block, that
    entry's row is added to the pivot row and the clearing runs again.
    Every extended-gcd transform strictly lowers the pivot's size and every
    repair forces one, so the loop ends, and on leaving it the pivot
    divides the whole trailing block (Cohen, GTM 138, Algorithm 2.4.14).
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = mat_copy(a)
    x = next((x for row in a for x in row if x), 1)
    one = x // x          # the ring's 1, taken from a nonzero entry
    zero = one - one
    u = [[one if i == j else zero for j in range(rows)] for i in range(rows)]
    v = [[one if i == j else zero for j in range(cols)] for i in range(cols)]
    for k in range(min(rows, cols)):
        piv = _find_pivot(d, k, size)
        if piv is None:
            break
        pi, pj = piv
        d[k], d[pi] = d[pi], d[k]
        u[k], u[pi] = u[pi], u[k]
        for m in (d, v):
            for row in m:
                row[k], row[pj] = row[pj], row[k]
        while True:
            for i in range(k + 1, rows):
                if d[i][k]:
                    op = _elimination(d[k][k], d[i][k], one, zero)
                    _row_op(d, k, i, op)
                    _row_op(u, k, i, op)
            for j in range(k + 1, cols):
                if d[k][j]:
                    op = _elimination(d[k][k], d[k][j], one, zero)
                    _col_op(d, k, j, op)
                    _col_op(v, k, j, op)
            if any(d[i][k] for i in range(k + 1, rows)):
                continue
            p = d[k][k]
            bad = next((i for i in range(k + 1, rows)
                        if any(y % p for y in d[i][k + 1:])), None)
            if bad is None:
                break
            d[k] = [y + z for y, z in zip(d[k], d[bad])]
            u[k] = [y + z for y, z in zip(u[k], u[bad])]
    return u, d, v


def smith_normal_form(a):
    """Smith normal form over Z with transforms.

    Returns (u, d, v) with u @ a @ v == d, u and v unimodular, d diagonal
    with d[0][0] | d[1][1] | ... and nonnegative diagonal entries.
    """
    u, d, v = smith_form(a, abs)
    for i in range(min(len(d), len(v))):
        if d[i][i] < 0:
            d[i][i] = -d[i][i]
            u[i] = [-x for x in u[i]]
    return u, d, v


def hnf_rows(a):
    """Canonical row Hermite normal form of the row span of a: per
    column, smith_form's extended-gcd row transform puts the gcd in the
    pivot row and clears the rows below; the pivot is made positive and
    entries above it reduced into [0, pivot).  Zero rows are dropped, and
    two integer matrices have equal row span iff their HNFs are equal."""
    work = mat_copy(a)
    cur = 0
    for j in range(len(a[0]) if a else 0):
        piv = next((i for i in range(cur, len(work)) if work[i][j]), None)
        if piv is None:
            continue
        work[cur], work[piv] = work[piv], work[cur]
        for i in range(cur + 1, len(work)):
            if work[i][j]:
                op = _elimination(work[cur][j], work[i][j], 1, 0)
                _row_op(work, cur, i, op)
        if work[cur][j] < 0:
            work[cur] = [-x for x in work[cur]]
        for i in range(cur):
            q = work[i][j] // work[cur][j]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[cur])]
        cur += 1
    return work[:cur]


def kernel_rows(rows, ncols):
    """Rows of a basis of {u in Z^ncols : u . r = 0 for every row r},
    for rows of integers or Fractions, possibly none.

    Denominators are cleared row by row.  With U A V = D the Smith form
    of the cleared rows and r its rank, the kernel is spanned by the last
    ncols - r columns of the unimodular V, so it is saturated: the
    integer kernel of a matrix always is."""
    if not rows:
        return identity(ncols)
    cleared = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        cleared.append([int(x * den) for x in row])
    _, d, v = smith_normal_form(cleared)
    r = sum(1 for i in range(min(len(d), ncols)) if d[i][i])
    return [[row[j] for row in v] for j in range(r, ncols)]
