"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored in the power basis 1, z, ..., z^(phi(n)-1) modulo the
n-th cyclotomic polynomial, with Fraction coefficients.  Mixed-conductor
arithmetic lifts both operands to the lcm conductor.  Equality compares
coefficients after a common lift, so representations are canonical per
conductor; elements whose lift is rational collapse to conductor 1.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

from .errors import InvariantError
from .linalg import rank_exact  # noqa: F401  (the public name of the field rank)
from .numutil import divisors, euler_phi


_CYCLO_CACHE = {}


def cyclotomic_polynomial(n):
    """Integer coefficient list of Phi_n, lowest degree first."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    # (x^n - 1) / product of Phi_d over proper divisors d of n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d == n:
            continue
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    _CYCLO_CACHE[n] = poly
    return poly


def _poly_div_exact(num, den):
    """num / den for integer lists, as ints; raises unless exact."""
    q, r = upoly_divmod(list(map(Fraction, num)), list(map(Fraction, den)))
    if any(r) or any(c.denominator != 1 for c in q):
        raise InvariantError("inexact cyclotomic division")
    return [c.numerator for c in q]


_ZERO = Fraction(0)


def _reduce_mod_cyclotomic(coeffs, n):
    """Reduce a coefficient list modulo Phi_n to length phi(n)."""
    phi = euler_phi(n)
    if len(coeffs) <= phi:
        out = [x if type(x) is Fraction else Fraction(x) for x in coeffs]
        out.extend([_ZERO] * (phi - len(out)))
        return tuple(out)
    cp = cyclotomic_polynomial(n)
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[k]
        if c:
            coeffs[k] = 0
            for i in range(len(cp) - 1):
                coeffs[k - len(cp) + 1 + i] -= c * cp[i]
    out = [x if type(x) is Fraction else Fraction(x) for x in coeffs[:phi]]
    out.extend([_ZERO] * (phi - len(out)))
    return tuple(out)


class Cyc:
    """An element of Q(zeta_n) in the power basis mod Phi_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs, reduce=True):
        if reduce:
            coeffs = _reduce_mod_cyclotomic(coeffs, n)
        self.n = n
        self.coeffs = coeffs
        self._collapse()

    def _collapse(self):
        # A lift with only a constant term is rational: store at conductor 1.
        if self.n > 1 and all(c == 0 for c in self.coeffs[1:]):
            self.n = 1
            self.coeffs = (self.coeffs[0],)

    @staticmethod
    def rational(q):
        return Cyc(1, (Fraction(q),), reduce=False)

    @staticmethod
    def zero():
        return Cyc.rational(0)

    @staticmethod
    def one():
        return Cyc.rational(1)

    @staticmethod
    def root_of_unity(n, k=1):
        """zeta_n^k, stored at the reduced conductor n/gcd(n,k)."""
        k %= n
        g = gcd(k, n)
        n2, k2 = n // g, k // g
        if n2 == 1:
            return Cyc.one()
        if n2 == 2:
            return Cyc.rational(-1)
        coeffs = [Fraction(0)] * (k2 + 1)
        coeffs[k2] = Fraction(1)
        return Cyc(n2, coeffs)

    @staticmethod
    def from_angle(angle: Fraction):
        """e^(2 pi i angle) for a rational angle."""
        a = Fraction(angle)
        a -= a.numerator // a.denominator
        return Cyc.root_of_unity(a.denominator, a.numerator)

    def lift_coeffs(self, m):
        """Coefficient tuple of this element in the power basis of
        Q(zeta_m), n | m; always full length phi(m)."""
        if m % self.n:
            raise ValueError(f"conductor {self.n} does not divide {m}")
        if m == self.n:
            return self.coeffs
        step = m // self.n
        raw = [Fraction(0)] * (step * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            raw[i * step] = c
        return _reduce_mod_cyclotomic(raw, m)

    def _pair(self, other):
        if not isinstance(other, Cyc):
            other = Cyc.rational(other)
        m = lcm(self.n, other.n)
        return self.lift_coeffs(m), other.lift_coeffs(m), m

    def __add__(self, other):
        if isinstance(other, Cyc) and other.n == self.n:
            return Cyc(self.n, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)),
                       reduce=False)
        a, b, m = self._pair(other)
        return Cyc(m, tuple(x + y for x, y in zip(a, b)), reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.n, tuple(-x for x in self.coeffs), reduce=False)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Cyc) else Cyc.rational(-Fraction(other)))

    def __rsub__(self, other):
        return Cyc.rational(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(self.n, tuple(c * other for c in self.coeffs), reduce=False)
        if self.n == 1:
            c = self.coeffs[0]
            return Cyc(other.n, tuple(c * y for y in other.coeffs), reduce=False)
        if other.n == 1:
            c = other.coeffs[0]
            return Cyc(self.n, tuple(x * c for x in self.coeffs), reduce=False)
        a, b, m = self._pair(other)
        return Cyc(m, _upoly_mul(a, b))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via extended Euclid against Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.n == 1:
            return Cyc.rational(1 / self.coeffs[0])
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, r = upoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _upoly_sub(s0, _upoly_mul(q, s1))
        # r0 is a nonzero constant gcd (Phi_n is irreducible over Q).
        c = next(x for x in r0 if x != 0)
        if any(r0[1:]):
            raise InvariantError("cyclotomic inverse failed")
        inv = [x / c for x in s0]
        return Cyc(self.n, inv)

    def __pow__(self, k):
        if self.n == 1:
            return Cyc.rational(self.coeffs[0] ** k)
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.one()
        for bit in bin(k)[2:]:      # square-and-multiply from the top bit
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __bool__(self):
        return any(self.coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def is_one(self):
        return self.n == 1 and self.coeffs[0] == 1

    def is_rational(self):
        return self.n == 1

    def rational_value(self):
        if self.n != 1:
            raise ValueError("not a rational cyclotomic number")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b, _ = self._pair(other)
        return a == b

    # Equal elements may be stored at different conductors, so no __hash__.
    __hash__ = None

    def value(self):
        """Principal embedding zeta -> e^(2 pi i / n)."""
        z = cmath.exp(2j * cmath.pi / self.n)
        return sum(complex(c) * z ** i for i, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"Cyc(n={self.n}, {list(self.coeffs)})"


def upoly_divmod(num, den):
    """(q, r) with num == q * den + r and r shorter than den, for
    Fraction coefficient lists, lowest degree first; trailing zeros are
    dropped first."""
    num = list(num)
    while num and not num[-1]:
        num.pop()
    d = list(den)
    while d and not d[-1]:
        d.pop()
    inv = d[-1] ** -1
    out = [Fraction(0)] * (len(num) - len(d) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[len(d) - 1 + k] * inv
        out[k] = c
        if c:
            for i, dc in enumerate(d):
                num[i + k] -= c * dc
    while num and not num[-1]:
        num.pop()
    return out, num or [Fraction(0)]


def _upoly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _upoly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def is_root_of_unity(x: Cyc):
    """(True, multiplicative order) when x is a root of unity, else
    (False, None).  The roots of unity in Q(zeta_n) are exactly the
    lcm(2, n)-th roots, so one power decides."""
    if x.is_zero():
        raise ValueError("zero is not a candidate root of unity")
    m = lcm(2, x.n)
    if not (x ** m).is_one():
        return False, None
    order = m
    for d in divisors(m):
        if (x ** d).is_one():
            order = d
            break
    return True, order

