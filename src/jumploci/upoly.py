"""Univariate polynomials with cyclotomic coefficients: Euclidean
division, Smith normal form over the PID Q(zeta)[T], and exact detection
of root-of-unity roots.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyc
from .numutil import euler_phi


class UPoly:
    """Coefficient list, low degree first, normalized (no trailing zeros)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Cyc) else Cyc.rational(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    @staticmethod
    def zero():
        return UPoly([])

    @staticmethod
    def one():
        return UPoly([Cyc.one()])

    @staticmethod
    def monomial(deg, coeff=1):
        return UPoly([Cyc.zero()] * deg + [coeff])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def is_unit(self):
        return self.degree == 0

    def leading(self):
        return self.coeffs[-1]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return UPoly([c * inv for c in self.coeffs])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else Cyc.zero()
            b = other.coeffs[i] if i < len(other.coeffs) else Cyc.zero()
            out.append(a + b)
        return UPoly(out)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyc)):
            return UPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UPoly.zero()
        out = [Cyc.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Cyc.zero()] * max(0, len(rem) - len(other.coeffs) + 1)
        inv = other.leading().inverse()
        for k in range(len(q) - 1, -1, -1):
            c = rem[other.degree + k] * inv
            q[k] = c
            if not c.is_zero():
                for i, oc in enumerate(other.coeffs):
                    rem[i + k] = rem[i + k] - c * oc
        return UPoly(q), UPoly(rem)

    def __eq__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def evaluate(self, x: Cyc):
        out = Cyc.zero()
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def conductor(self):
        n = 1
        for c in self.coeffs:
            from .numutil import lcm
            n = lcm(n, c.n)
        return n

    def __repr__(self):
        return f"UPoly({self.coeffs!r})"


def row_kernel_basis(row):
    """Kernel data of a 1 x g row over Q(zeta)[T].

    Returns (delta, basis, coords) where row . V = (delta, 0, ..., 0) for
    the implicit column transform V, basis is the list of kernel basis
    vectors (columns of V past the first when delta != 0, all columns
    otherwise), and coords(w) expresses any kernel vector w in that basis.
    """
    g = len(row)
    v = [[UPoly.one() if i == j else UPoly.zero() for j in range(g)] for i in range(g)]
    vinv = [[UPoly.one() if i == j else UPoly.zero() for j in range(g)] for i in range(g)]
    r = list(row)

    def col_swap(i, j):
        r[i], r[j] = r[j], r[i]
        for t in range(g):
            v[t][i], v[t][j] = v[t][j], v[t][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_addmul(dst, src, q):
        # col_dst += q * col_src; inverse: row_src -= q * row_dst on vinv.
        for t in range(g):
            v[t][dst] = v[t][dst] + q * v[t][src]
        vinv[src] = [a - q * b for a, b in zip(vinv[src], vinv[dst])]
        r[dst] = r[dst] + q * r[src]

    while True:
        nz = [i for i in range(g) if not r[i].is_zero()]
        if not nz:
            delta = UPoly.zero()
            break
        piv = min(nz, key=lambda i: r[i].degree)
        if piv != 0:
            col_swap(0, piv)
        done = True
        for i in range(1, g):
            if r[i].is_zero():
                continue
            q, rem = r[i].divmod(r[0])
            col_addmul(i, 0, -q)
            if not r[i].is_zero():
                done = False
        if done:
            delta = r[0]
            break

    if delta.is_zero():
        basis_cols = list(range(g))
    else:
        basis_cols = list(range(1, g))
    basis = [[v[t][j] for t in range(g)] for j in basis_cols]

    def coords(w):
        # vinv @ w, restricted to the basis columns; first coord must die.
        full = []
        for i in range(g):
            acc = UPoly.zero()
            for t in range(g):
                acc = acc + vinv[i][t] * w[t]
            full.append(acc)
        if not delta.is_zero():
            assert full[0].is_zero(), "vector not in the kernel"
        return [full[i] for i in basis_cols]

    return delta, basis, coords


def smith_invariants(mat):
    """Nonzero diagonal invariant factors of a UPoly matrix, plus the
    rank; the matrix presents coker = sum R/(f_i) + R^(rows - rank)."""
    rows = [list(r) for r in mat]
    if not rows or not rows[0]:
        return [], 0
    nr, nc = len(rows), len(rows[0])
    invariants = []
    top = 0
    while top < min(nr, nc):
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                if not rows[i][j].is_zero():
                    if best is None or rows[i][j].degree < rows[best[0]][best[1]].degree:
                        best = (i, j)
        if best is None:
            break
        bi, bj = best
        rows[top], rows[bi] = rows[bi], rows[top]
        for row in rows:
            row[top], row[bj] = row[bj], row[top]
        dirty = False
        for i in range(top + 1, nr):
            if rows[i][top].is_zero():
                continue
            q, _ = rows[i][top].divmod(rows[top][top])
            for j in range(top, nc):
                rows[i][j] = rows[i][j] - q * rows[top][j]
            if not rows[i][top].is_zero():
                dirty = True
        for j in range(top + 1, nc):
            if rows[top][j].is_zero():
                continue
            q, _ = rows[top][j].divmod(rows[top][top])
            for i in range(top, nr):
                rows[i][j] = rows[i][j] - q * rows[i][top]
            if not rows[top][j].is_zero():
                dirty = True
        if dirty:
            continue
        invariants.append(rows[top][top].monic())
        top += 1
    return invariants, top


def cyclotomic_roots(poly: UPoly):
    """(root_angles, residual) where root_angles lists rational angles a
    (with multiplicity) such that e^(2 pi i a) is a root, and residual is
    the cofactor with no root-of-unity roots left.

    Any root of unity in the splitting picture has degree phi(q) at most
    deg(poly) * phi(conductor) over Q, which bounds the orders to try.
    """
    if poly.is_zero():
        raise ValueError("zero polynomial has every root")
    bound = max(1, poly.degree * euler_phi(poly.conductor()))
    orders = [q for q in range(1, 2 * bound * bound + 3) if euler_phi(q) <= bound]
    angles = []
    current = poly
    for q in orders:
        for a in range(q):
            from math import gcd
            if q > 1 and gcd(a, q) != 1:
                continue
            root = Cyc.root_of_unity(q, a)
            while not current.is_zero() and current.degree >= 1 \
                    and current.evaluate(root).is_zero():
                lin = UPoly([-root, Cyc.one()])
                current, rem = current.divmod(lin)
                assert rem.is_zero()
                angles.append(Fraction(a, q))
    return sorted(angles), current


def numeric_roots(poly: UPoly):
    """Numeric roots of the residual factor via the principal embedding,
    flagged non-exact by callers."""
    import numpy as np
    cs = [complex(c.value()) for c in poly.coeffs]
    if len(cs) <= 1:
        return []
    return [complex(z) for z in np.roots(list(reversed(cs)))]
