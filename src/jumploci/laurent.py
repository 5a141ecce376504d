"""Sparse multivariate Laurent polynomials over cyclotomic coefficients,
with an optional finite-torsion twist so elements of the integral group
ring Z[Z^b + Z/d_1 + ... + Z/d_t] share one representation.

Term keys are (free exponent vector, torsion exponent vector); torsion
exponents are reduced modulo the orders.  The term order is lexicographic
on the combined key, which fixes pivots, canonical forms and serialized
output.  Rank and division are only defined for torsion-free elements
(the group ring with torsion is not a domain); callers specialize the
torsion twist to roots of unity first.  In one free variable without
torsion, Q(zeta)[T, T^-1] is Euclidean with size span (divmod, monic).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import Cyc
from .errors import InvariantError


def _coerce(c):
    if isinstance(c, Cyc):
        return c
    return Cyc.rational(c)


def _accumulate(terms, key, c):
    """terms[key] += c for a nonzero c, dropping the key if the sum is 0."""
    if key in terms:
        c = terms[key] + c
        if c.is_zero():
            del terms[key]
            return
    terms[key] = c


class LaurentPoly:
    """A finite sum of terms coeff * z^v * s^w, w taken mod torsion orders."""

    __slots__ = ("nvars", "torsion", "terms")

    def __init__(self, nvars, torsion=(), terms=None):
        self.nvars = nvars
        self.torsion = tuple(torsion)
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = _coerce(c)
                if not c.is_zero():
                    self.terms[self._norm_key(key)] = c

    def _norm_key(self, key):
        free, tors = key
        tors = tuple(e % d for e, d in zip(tors, self.torsion))
        return (tuple(free), tors)

    @staticmethod
    def zero(nvars, torsion=()):
        return LaurentPoly(nvars, torsion)

    @staticmethod
    def one(nvars, torsion=()):
        return LaurentPoly.monomial(((0,) * nvars, (0,) * len(torsion)), nvars, torsion)

    @staticmethod
    def monomial(key, nvars, torsion=(), coeff=1):
        p = LaurentPoly(nvars, torsion)
        c = _coerce(coeff)
        if not c.is_zero():
            p.terms[p._norm_key(key)] = c
        return p

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # Dict equality compares coefficients by Cyc.__eq__, across conductors.
        return ((self.nvars, self.torsion) == (other.nvars, other.torsion)
                and self.terms == other.terms)

    __hash__ = None

    def __add__(self, other):
        out = LaurentPoly(self.nvars, self.torsion)
        out.terms = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out.terms, key, c)
        return out

    def __neg__(self):
        p = LaurentPoly(self.nvars, self.torsion)
        p.terms = {k: -c for k, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyc)):
            c0 = _coerce(other)
            p = LaurentPoly(self.nvars, self.torsion)
            if not c0.is_zero():
                p.terms = {k: c * c0 for k, c in self.terms.items()}
            return p
        out = LaurentPoly(self.nvars, self.torsion)
        for (v1, w1), c1 in self.terms.items():
            for (v2, w2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(v1, v2)),
                       tuple((a + b) % d for a, b, d in zip(w1, w2, self.torsion)))
                _accumulate(out.terms, key, c1 * c2)
        return out

    __rmul__ = __mul__

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def leading(self):
        """(key, coeff) of the lexicographically largest term."""
        key = max(self.terms)
        return key, self.terms[key]

    def evaluate(self, value):
        """The Cyc self takes when each monomial z^v s^w takes the Cyc
        value(v, w): the new_nvars = 0 case of substitute_monomials."""
        out = self.substitute_monomials((), value, 0)
        return out.terms.get(((), ()), Cyc.zero())

    def substitute_monomials(self, lattice_cols, value, new_nvars):
        """z^v s^w -> value(v, w) * t^(v B): value(v, w) is the nonzero
        Cyc the monomial takes (a character's value on the H1 element
        (v, w)), and row j of B, lattice_cols[j], is z_j's exponent vector
        in the new_nvars torsion-free variables t."""
        out = LaurentPoly(new_nvars, ())
        for (v, w), c in self.terms.items():
            exps = tuple(sum(lattice_cols[j][k] * v[j] for j in range(self.nvars))
                         for k in range(new_nvars))
            _accumulate(out.terms, (exps, ()), c * value(v, w))
        return out

    def _mins(self):
        """The least exponent of each free variable; self is nonzero."""
        return [min(k[0][j] for k in self.terms) for j in range(self.nvars)]

    def _shifted(self, shift):
        """self times the unit monomial with free exponents shift."""
        p = LaurentPoly(self.nvars, self.torsion)
        p.terms = {(tuple(a + s for a, s in zip(v, shift)), w): c
                   for (v, w), c in self.terms.items()}
        return p

    def shift_normalize(self):
        """Multiply by the unit monomial making all exponents >= 0 with a
        zero minimum per variable."""
        if not self.terms:
            return self
        mins = self._mins()
        return self._shifted([-m for m in mins]) if any(mins) else self

    def content_normalize(self):
        """Canonical ideal generator of a rational-coefficient element (a
        Fox minor): exponents shifted to zero minimum, rational content
        divided out, leading coefficient made positive.  A coefficient
        outside Q raises ValueError."""
        p = self.shift_normalize()
        if not p.terms:
            return p
        qs = [c.rational_value() for c in p.terms.values()]
        p = p * Fraction(lcm(*(q.denominator for q in qs)),
                         gcd(*(q.numerator for q in qs)))
        _, lead = p.leading()
        if lead.rational_value() < 0:
            p = p * Fraction(-1)
        return p

    def _divide(self, other):
        """(q, r) with self == q * other + r for torsion-free operands in
        any number of variables.  With both shifted to exponents >= 0 and
        zero minima, T^a A and T^b B, the multiple of B matching the
        leading term of the remainder R is taken off while there is one
        (each step lowers that term, so the loop ends): A = Q B + R, and
        q = T^(a-b) Q, r = T^a R.  In one variable the loop ends just when
        R is zero or of lower degree than B: Euclidean division."""
        if self.torsion or other.torsion:
            raise InvariantError("division needs torsion-free operands")
        if not other.terms:
            raise ZeroDivisionError("Laurent division by zero")
        if not self.terms:
            return self, self
        a, b = self._mins(), other._mins()
        rem = self._shifted([-x for x in a])
        div = other._shifted([-x for x in b])
        (lead, _), lc = div.leading()
        lc_inv = lc.inverse()
        quot = LaurentPoly(self.nvars)
        while rem.terms:
            (v, _), c = rem.leading()
            if any(x < y for x, y in zip(v, lead)):
                break
            qv = tuple(x - y for x, y in zip(v, lead))
            c = c * lc_inv
            quot.terms[(qv, ())] = c
            for (u, _), d in div.terms.items():
                _accumulate(rem.terms, (tuple(x + y for x, y in zip(qv, u)), ()),
                            -(c * d))
        return quot._shifted([x - y for x, y in zip(a, b)]), rem._shifted(a)

    def exact_div(self, other):
        """self / other for torsion-free operands, which must divide:
        a nonzero remainder raises InvariantError.  This is sound as every
        remainder of an exact division lies in the ideal (other), so its
        leading term is a multiple of other's and _divide goes on."""
        q, r = self._divide(other)
        if r.terms:
            raise InvariantError("inexact Laurent division")
        return q

    def _euclidean(self):
        if self.nvars != 1 or self.torsion:
            raise InvariantError("Euclidean operations need one free "
                                 "variable and no torsion")

    def coefficients(self):
        """(lowest exponent, coefficients from there up) of a polynomial in
        one free variable with no torsion; (0, []) for zero."""
        self._euclidean()
        if not self.terms:
            return 0, []
        low = min(self.terms)[0][0]
        cs = [Cyc.zero()] * (max(self.terms)[0][0] - low + 1)
        for (v, _), c in self.terms.items():
            cs[v[0] - low] = c
        return low, cs

    @property
    def span(self):
        """Highest minus lowest exponent, -1 for zero: the Euclidean size
        of Q(zeta)[T, T^-1], whose units c T^k have span 0."""
        self._euclidean()
        return max(self.terms)[0][0] - min(self.terms)[0][0] if self else -1

    def divmod(self, other):
        """(q, r) with self == q * other + r and r zero or r.span below
        other.span, for one free variable and no torsion; any other shape
        raises InvariantError.  It is _divide: r = T^a R with
        deg R < deg B = other.span."""
        self._euclidean()
        other._euclidean()
        return self._divide(other)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        """The associate of a one-variable polynomial with a nonzero
        constant term and leading coefficient 1: shift to T^0, then
        divide by the leading coefficient.  Zero stays zero."""
        p = self.shift_normalize()
        return p * p.leading()[1].inverse() if p else p

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for (v, w), c in self.sorted_terms():
            bits.append(f"{c!r}*z^{list(v)}" + (f"*s^{list(w)}" if w else ""))
        return "LaurentPoly(" + " + ".join(bits) + ")"


def _bareiss(matrix):
    """Fraction-free (Bareiss) elimination of a torsion-free LaurentPoly
    matrix, pivoting on the first nonzero entry of the trailing block in
    row-major order (the canonical term order fixes which entries are
    nonzero, so the pivots are deterministic).

    Returns (rank, last), where last is the final pivot times the sign of
    the row and column swaps.  Each Bareiss pivot is a leading principal
    minor of the permuted matrix, so for a square matrix of full rank
    last is its determinant, whatever the pivots were.
    """
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return 0, None
    nrows, ncols = len(rows), len(rows[0])
    nvars = rows[0][0].nvars
    prev = LaurentPoly.one(nvars)
    sign = 1
    r = 0
    while r < min(nrows, ncols):
        piv = next(((i, j) for i in range(r, nrows) for j in range(r, ncols)
                    if not rows[i][j].is_zero()), None)
        if piv is None:
            break
        pi, pj = piv
        if pi != r:
            rows[r], rows[pi] = rows[pi], rows[r]
            sign = -sign
        if pj != r:
            for row in rows:
                row[r], row[pj] = row[pj], row[r]
            sign = -sign
        p = rows[r][r]
        for i in range(r + 1, nrows):
            for j in range(r + 1, ncols):
                num = p * rows[i][j] - rows[i][r] * rows[r][j]
                rows[i][j] = num.exact_div(prev)
            rows[i][r] = LaurentPoly.zero(nvars)
        prev = p
        r += 1
    return r, prev if sign == 1 else -prev


def rank_generic(matrix):
    """Rank over the fraction field of the Laurent ring.  Entries must be
    torsion-free LaurentPoly."""
    return _bareiss(matrix)[0]


def univariate_view(poly, var):
    """Coefficient dict {degree: LaurentPoly in the remaining variables}
    of a nonzero torsion-free poly seen in one variable, exponents shifted
    to be nonnegative (a unit shift, harmless for root sets on the torus).
    Distinct terms go to distinct (degree, remaining exponents) pairs, so
    no two terms add and no coefficient is zero."""
    if poly.torsion:
        raise InvariantError("univariate view needs a torsion-free polynomial")
    shift = min(k[0][var] for k in poly.terms)
    out = {}
    for (v, _), c in poly.terms.items():
        key = (tuple(x for j, x in enumerate(v) if j != var), ())
        out.setdefault(v[var] - shift, LaurentPoly(poly.nvars - 1)).terms[key] = c
    return out


def resultant(p, q, var):
    """An eliminant of two nonzero torsion-free Laurent polynomials with
    respect to one variable: a member of the ideal (p, q) free of var, so
    a Laurent polynomial in the remaining variables that vanishes on the
    projection of their common zeros.  If p (or q) is free of var, it is
    p (or q) itself; otherwise it is their Sylvester resultant (up to unit
    factors absorbed by the exponent shifts), zero when they share a
    factor in var."""
    pv = univariate_view(p, var)
    qv = univariate_view(q, var)
    dp, dq = max(pv), max(qv)
    rest = p.nvars - 1
    if dp == 0:
        return pv[0]
    if dq == 0:
        return qv[0]
    size = dp + dq
    zero = LaurentPoly.zero(rest)
    rows = []
    for i in range(dq):
        row = [zero] * size
        for d, c in pv.items():
            row[i + dp - d] = c
        rows.append(row)
    for i in range(dp):
        row = [zero] * size
        for d, c in qv.items():
            row[i + dq - d] = c
        rows.append(row)
    return det_bareiss(rows)


def det_bareiss(matrix):
    """Determinant of a square torsion-free LaurentPoly matrix of size at
    least 1."""
    rank, last = _bareiss(matrix)
    return last if rank == len(matrix) else LaurentPoly.zero(matrix[0][0].nvars)
