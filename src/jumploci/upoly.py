"""Univariate polynomials with cyclotomic coefficients: Euclidean
division, invariant factors over the PID Q(zeta)[T] (through the one
Smith form in `intlinalg`), and exact detection of root-of-unity roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclotomic import Cyc
from .errors import InvariantError
from .intlinalg import smith_form
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

    def __bool__(self):
        return bool(self.coeffs)

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

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

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
        return lcm(*(c.n for c in self.coeffs))

    def __repr__(self):
        return f"UPoly({self.coeffs!r})"


def smith_invariants(mat):
    """Nonzero monic invariant factors of a UPoly matrix, plus the rank;
    the matrix presents coker = sum R/(f_i) + R^(rows - rank)."""
    _, d, _ = smith_form(mat, lambda f: f.degree)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    invariants = [f.monic() for f in diag if f]
    return invariants, len(invariants)


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
                if rem:
                    raise InvariantError("a root leaves a nonzero remainder")
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
