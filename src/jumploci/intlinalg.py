"""Exact integer matrix algebra: Smith and Hermite normal forms, kernels,
lattice saturation and congruence solving.

All matrices are lists of lists of Python ints (arbitrary precision), rows
first.  Everything here is deterministic: pivots are chosen by first
minimal nonzero entry, never randomly.
"""

from __future__ import annotations

from math import gcd


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


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def _find_pivot(d, start, rows, cols):
    """Position of the nonzero entry of least absolute value in the
    trailing block, first in row-major order among ties."""
    best = None
    for i in range(start, rows):
        for j in range(start, cols):
            x = d[i][j]
            if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                best = (i, j)
                if abs(x) == 1:
                    return best
    return best


def smith_normal_form(a):
    """Smith normal form with transforms.

    Returns (u, d, v) with u @ a @ v == d, u and v unimodular, d diagonal
    with d[0][0] | d[1][1] | ... and nonnegative diagonal entries.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = mat_copy(a)
    u = identity(rows)
    v = identity(cols)
    k = 0
    while True:
        piv = _find_pivot(d, k, rows, cols)
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            d[k], d[pi] = d[pi], d[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            for row in d:
                row[k], row[pj] = row[pj], row[k]
            for row in v:
                row[k], row[pj] = row[pj], row[k]
        # Clear row and column k; a reduction may reintroduce entries, so loop.
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, rows):
                if d[i][k]:
                    q = d[i][k] // d[k][k]
                    if q:
                        for j in range(cols):
                            d[i][j] -= q * d[k][j]
                        for j in range(rows):
                            u[i][j] -= q * u[k][j]
                    if d[i][k]:
                        d[k], d[i] = d[i], d[k]
                        u[k], u[i] = u[i], u[k]
                        dirty = True
            for j in range(k + 1, cols):
                if d[k][j]:
                    q = d[k][j] // d[k][k]
                    if q:
                        for i in range(rows):
                            d[i][j] -= q * d[i][k]
                        for i in range(cols):
                            v[i][j] -= q * v[i][k]
                    if d[k][j]:
                        for i in range(rows):
                            d[i][k], d[i][j] = d[i][j], d[i][k]
                        for i in range(cols):
                            v[i][k], v[i][j] = v[i][j], v[i][k]
                        dirty = True
        k += 1
        if k >= rows or k >= cols:
            break
    # Enforce the divisibility chain d_i | d_{i+1}.
    n = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            x, y = d[i][i], d[i + 1][i + 1]
            if y % x if x else y:
                # Fold entry i+1 into column i and re-clear with gcd trick.
                for r in range(rows):
                    d[r][i] += d[r][i + 1]
                for r in range(cols):
                    v[r][i] += v[r][i + 1]
                _reclear_pair(d, u, v, i, rows, cols)
                changed = True
    for i in range(n):
        if d[i][i] < 0:
            for j in range(cols):
                d[i][j] = -d[i][j]
            for j in range(rows):
                u[i][j] = -u[i][j]
    return u, d, v


def _reclear_pair(d, u, v, k, rows, cols):
    """Restore diagonal form on the 2x2 block at k after a column fold."""
    while True:
        piv = _find_pivot(d, k, rows, cols)
        pi, pj = piv
        if pi != k:
            d[k], d[pi] = d[pi], d[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            for row in d:
                row[k], row[pj] = row[pj], row[k]
            for row in v:
                row[k], row[pj] = row[pj], row[k]
        done = True
        for i in range(k + 1, rows):
            if d[i][k]:
                q = d[i][k] // d[k][k]
                for j in range(cols):
                    d[i][j] -= q * d[k][j]
                for j in range(rows):
                    u[i][j] -= q * u[k][j]
                if d[i][k]:
                    d[k], d[i] = d[i], d[k]
                    u[k], u[i] = u[i], u[k]
                    done = False
        for j in range(k + 1, cols):
            if d[k][j]:
                q = d[k][j] // d[k][k]
                for i in range(rows):
                    d[i][j] -= q * d[i][k]
                for i in range(cols):
                    v[i][j] -= q * v[i][k]
                if d[k][j]:
                    for i in range(rows):
                        d[i][k], d[i][j] = d[i][j], d[i][k]
                    for i in range(cols):
                        v[i][k], v[i][j] = v[i][j], v[i][k]
                    done = False
        if done:
            return


def snf_diagonal(a):
    """Just the nonzero diagonal invariants d_1 | d_2 | ... of a."""
    _, d, _ = smith_normal_form(a)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return out


def kernel_columns(a, ncols=None):
    """Columns spanning {x in Z^cols : a @ x = 0}.

    The integer kernel of a matrix is automatically saturated.  Returns a
    cols x k matrix (list of rows), possibly with k = 0.  Pass ncols when
    a may have no rows.
    """
    rows = len(a)
    cols = len(a[0]) if rows else (ncols or 0)
    if cols == 0:
        return []
    if rows == 0:
        return identity(cols)
    u, d, v = smith_normal_form(a)
    n = min(rows, cols)
    r = sum(1 for i in range(n) if d[i][i])
    # Kernel is spanned by the last cols - r columns of v.
    ker = [[v[i][j] for j in range(r, cols)] for i in range(cols)]
    return ker


def column_span_saturation(b):
    """Saturation of the column span of b inside Z^rows.

    sat(L) = ker(ann(L)) where ann(L) is the integer annihilator; returns
    a rows x d matrix in column HNF.
    """
    n = len(b)
    ann = annihilator_rows(b)
    sat = kernel_columns(ann, ncols=n)
    return hnf_columns(sat)


def annihilator_rows(b):
    """Rows u with u @ b = 0, i.e. the saturated lattice orthogonal to the
    column span of b.  Returns a list of length-n rows, possibly empty."""
    n = len(b)
    bt = transpose(b)
    if not bt:
        return identity(n)
    ker = kernel_columns(bt, ncols=n)  # n x k
    return transpose(ker)


def hnf_columns(b):
    """Canonical column-style Hermite normal form of the column span of b.

    Columns are reduced so each pivot is positive, entries to its right in
    its row lie in [0, pivot), and zero columns are dropped.  Two integer
    matrices have equal column span iff their HNFs are equal.
    """
    if not b or not b[0]:
        return [[] for _ in b] if b else []
    n = len(b)
    work = [list(col) for col in zip(*b)]  # work on columns as rows
    work = [list(c) for c in work]
    cur = 0
    for i in range(n):
        piv = None
        for c in range(cur, len(work)):
            if work[c][i]:
                piv = c
                break
        if piv is None:
            continue
        for c in range(piv + 1, len(work)):
            while work[c][i]:
                q = work[piv][i] // work[c][i]
                for t in range(n):
                    work[piv][t] -= q * work[c][t]
                work[piv], work[c] = work[c], work[piv]
        work[cur], work[piv] = work[piv], work[cur]
        if work[cur][i] < 0:
            work[cur] = [-x for x in work[cur]]
        for c in range(cur):
            q = work[c][i] // work[cur][i]
            if q:
                for t in range(n):
                    work[c][t] -= q * work[cur][t]
        cur += 1
    cols = [c for c in work[:cur]]
    return [ [cols[j][i] for j in range(len(cols))] for i in range(n) ]


def hnf_rows(a):
    """Canonical row HNF of the row span of a (zero rows dropped)."""
    t = hnf_columns(transpose(a))
    return transpose(t)


def lattice_contains(container_rows, vec):
    """Whether an integer vector lies in the row lattice of container_rows."""
    if all(x == 0 for x in vec):
        return True
    if not container_rows:
        return False
    # Solve y @ container_rows = vec over Z via SNF of the transpose.
    a = transpose(container_rows)  # n x k, solve a @ y^T = vec^T
    return solve_integer(a, list(vec)) is not None


def solve_integer(a, b):
    """One integer solution x of a @ x = b, or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u, d, v = smith_normal_form(a)
    c = mat_vec(u, b)
    y = [0] * cols
    n = min(rows, cols)
    for i in range(rows):
        di = d[i][i] if i < n else 0
        if di:
            if c[i] % di:
                return None
            y[i] = c[i] // di
        elif c[i]:
            return None
    return mat_vec(v, y)


def row_lattice_subset(a, b):
    """Whether row lattice of a is contained in the row lattice of b."""
    return all(lattice_contains(b, row) for row in a)


def kernel_rational_rows(rows_of_fractions, ncols):
    """Integer kernel {u in Z^n : u . r = 0 for every rational row r}.

    Clears denominators row by row; the result is saturated.
    """
    cleared = []
    for row in rows_of_fractions:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        cleared.append([int(x * den) for x in row])
    if not cleared:
        return identity(ncols)
    return kernel_columns(cleared)
