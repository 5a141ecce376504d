"""Translated affine subtori of the character torus, stored as saturated
integer lattices plus an exact translate character.

A subtorus T is cut out by binomial equations z^u = 1 for u running over
the rows of a saturated annihilator matrix H (canonical row HNF).  Every
stored annihilator is saturated, so T is connected, and carries the
transforms of its one Smith form U H V = [I_m | 0]: the direction basis
B = V[:, m:] and the right inverse R = V[:, :m] U with H R = I.  An
annihilator that is not saturated is refused.  The coset tau*T fixes the
finite dual coordinates at tau's values, since a connected subtorus
cannot move them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .characters import Character, torsion_modulus
from .errors import Refusal
from .intlinalg import (hnf_rows, identity, kernel_columns,
                        kernel_rational_rows, mat_mul, smith_normal_form,
                        transpose)
from .numutil import factorint, frac_mod1
from .value import Value


class TranslatedSubtorus(Value):
    """tau * T with T = {z : z^u = 1 for rows u of annihilator}.

    annihilator holds the rows in canonical HNF, saturated.  directions
    is the saturated b x d basis B of T's direction lattice and
    right_inverse the b x m matrix R, both read from the Smith form of
    the annihilator taken once at construction (module docstring) and
    kept out of comparison."""

    _fields = ("free_rank", "torsion", "annihilator", "translate")

    def __init__(self, free_rank: int, torsion: tuple, annihilator: tuple,
                 translate: Character):
        if any(len(r) != free_rank for r in annihilator):
            raise Refusal("annihilator rows need one entry per free "
                          "generator")
        if translate.free_rank != free_rank:
            raise Refusal("translate lives on a different torus")
        ann = hnf_rows([list(r) for r in annihilator])
        m = len(ann)
        if m:
            u, d, v = smith_normal_form(ann)
            if any(d[i][i] != 1 for i in range(m)):
                raise Refusal("annihilator rows span a lattice that is not "
                              "saturated, so they cut out more than one "
                              "component")
        else:
            u, v = [], identity(free_rank)
        self.__dict__.update(free_rank=free_rank, torsion=torsion,
                             translate=translate)
        for name, value in (
                ("annihilator", ann),
                ("directions", [row[m:] for row in v]),
                ("right_inverse", mat_mul([row[:m] for row in v], u))):
            self.__dict__[name] = tuple(tuple(r) for r in value)

    @property
    def dim(self):
        return self.free_rank - len(self.annihilator)

    def is_unitary_translate(self):
        return self.translate.is_unitary

    def contains(self, chi: Character):
        if chi.free_rank != self.free_rank or chi.torsion != self.torsion:
            raise ValueError("dimension mismatch")
        if chi.tors_angles != self.translate.tors_angles:
            return False
        for u in self.annihilator:
            mod = Fraction(1)
            ang = Fraction(0)
            for m, tm, a, ta, e in zip(chi.moduli, self.translate.moduli,
                                       chi.angles, self.translate.angles, u):
                if e:
                    mod *= (m / tm) ** e
                    ang += (a - ta) * e
            if mod != 1 or frac_mod1(ang) != 0:
                return False
        return True

    def torsion_points(self, max_order):
        """All points of the coset whose character order divides some
        k <= max_order, as characters in canonical order."""
        n = torsion_modulus(max_order, self.torsion)
        return [Character.from_exponents(self.free_rank, self.torsion, e, n)
                for e in sorted(set(self._points(max_order)))]

    def iter_torsion_points(self, max_order):
        """Lazily yield the exponent vectors of the coset's torsion points
        of order <= max_order (see _points), so subset checks can fail on
        the first point outside a set.  Only such checks draw points
        here, which is what bench/tracer.py counts; listings use
        _points."""
        return self._points(max_order)

    def _points(self, max_order):
        """Exponent vectors modulo n = torsion_modulus(max_order, torsion)
        of the coset's points, grouped by killing order k (duplicates
        across orders possible).

        Soundness, with U H V = [I_m | 0], B = V[:, m:] and R = V[:, :m] U:
        - The coset is {theta : H theta = H tau (mod 1)} with the torsion
          coordinates fixed at tau's.  Set c = H tau; theta_0 = R c lies
          in the coset, since H R = I.
        - A point theta of the coset killed by k has k c = H (k theta)
          integral, and k kills tau's torsion angles.  Conversely, when
          both hold, k theta_0 = R (k c) is integral.
        - The points killed by such a k are then theta_0 + B w / k for w
          in (Z/k)^d: for theta = theta_0 + x / k with x = V y integral,
          H x = U^-1 y[:m] lies in k Z^m iff y[:m] does, so theta is
          theta_0 + B y[m:] / k modulo Z^b, and distinct w mod k give
          distinct points because B is part of the unimodular V.
        So the orders k with points are the multiples of q, the lcm of
        the denominators of c and of the torsion angles, and no Smith
        form or solve runs per k.  As vectors the points are
        n theta_0 + (n/k) B (Z/k)^d, taken mod n."""
        tau = self.translate
        if not tau.is_unitary:
            return
        # H tau = c / den in integers, then reduced: den becomes the lcm
        # of the denominators of H tau.
        den = lcm(*(a.denominator for a in tau.angles))
        t = [a.numerator * (den // a.denominator) for a in tau.angles]
        c = [sum(x * y for x, y in zip(u, t)) for u in self.annihilator]
        g = gcd(den, *c)
        c, den = [x // g for x in c], den // g
        q = lcm(den, *(a.denominator for a in tau.tors_angles))
        if q > max_order:
            return
        # den | q <= max_order divides n, so n theta_0 = (n / den) R c.
        n = torsion_modulus(max_order, self.torsion)
        base = [n // den * sum(r * x for r, x in zip(row, c)) % n
                for row in self.right_inverse]
        tail = tuple(a.numerator * (n // a.denominator) for a in tau.tors_angles)
        rows = self.directions
        for k in range(q, max_order + 1, q):
            step = n // k
            for w in product(range(k), repeat=self.dim):
                yield tuple((x + step * sum(e * y for e, y in zip(row, w))) % n
                            for x, row in zip(base, rows)) + tail

    def contains_subtorus(self, other):
        """Whether other (a translated subtorus) is contained in self: each
        row of self's annihilator kills other's directions (both lattices
        are saturated, so this is containment of the annihilator
        lattices), and other's translate lies in self."""
        if any(sum(x * y for x, y in zip(u, col))
               for u in self.annihilator for col in zip(*other.directions)):
            return False
        return self.contains(other.translate)

    def canonical_translate(self, max_order):
        """Reduce the translate to the lexicographically least torsion
        point of order at most max_order of the coset (unitary case).

        Soundness: the first point _points yields is theta_0, of order q,
        and the points killed by k are theta_0 + L_k mod n with L_k =
        (n/k) B Z^d + n Z^b.  Those killed by k are killed by 2k, so only
        the multiples k of q with 2k > max_order matter.  L_k holds n Z^b,
        so its row HNF (intlinalg.hnf_rows) is upper triangular with
        pivots h_ii dividing n.  The first coordinates of theta_0 + L_k
        are theta_0,1 + h_11 Z, and the vectors of L_k with first
        coordinate 0 are spanned by the later rows; the same holds at each
        later coordinate.  So reducing theta_0 coordinate by coordinate
        modulo the pivot rows gives the least point of theta_0 + L_k, in
        [0, n)^b.  The torsion tail is fixed, so it is appended."""
        first = next(self._points(max_order), None)
        if first is None:
            return self
        b, n = self.free_rank, torsion_modulus(max_order, self.torsion)
        q = n // gcd(n, *first)
        wrap = [[n * x for x in row] for row in identity(b)]
        least = []      # over the multiples k of q above max_order / 2:
        for k in range(q * (max_order // (2 * q) + 1), max_order + 1, q):
            x = first[:b]
            for i, row in enumerate(hnf_rows([[n // k * y for y in col] for col
                                              in zip(*self.directions)] + wrap)):
                f = x[i] // row[i]
                x = [a - f * r for a, r in zip(x, row)]
            least.append(tuple(x) + first[b:])
        best = Character.from_exponents(b, self.torsion, min(least), n)
        return TranslatedSubtorus(b, self.torsion, self.annihilator, best)

    def sort_key(self):
        return (-self.dim, self.annihilator, self.translate.sort_key())

    def serialize(self):
        return {
            "H": [list(r) for r in self.annihilator],
            "tau": self.translate.serialize(),
            "dim": self.dim,
        }


# Largest numerator or denominator _primes factors by trial division:
# orbit --moduli 4,99999999999973 (a prime just below it) takes 0.7 s and
# 4,2305843009213693951 ran past 20 s (Python 3.11, one core of a 2-core
# x86-64 host).
MAX_FACTORED = 10 ** 14


def _primes(qs):
    """Sorted primes of the numerators and denominators of qs; refuses a
    numerator or denominator above MAX_FACTORED before factoring any."""
    parts = [x for q in qs for x in (q.numerator, q.denominator)]
    if any(x > MAX_FACTORED for x in parts):
        raise Refusal(f"a modulus with a numerator or denominator above "
                      f"{MAX_FACTORED} is not factored")
    return sorted({p for x in parts for p in factorint(x)})


def _valuation(q: Fraction, p):
    v = 0
    for x, sign in ((q.numerator, 1), (q.denominator, -1)):
        while x % p == 0:
            x //= p
            v += sign
    return v


def point_subtorus(chi: Character):
    return TranslatedSubtorus(chi.free_rank, chi.torsion,
                              identity(chi.free_rank), chi)


def subtorus_from_directions(direction_rows, translate: Character):
    """Connected subtorus whose direction span is generated by rational
    direction vectors (e.g. lifted differences of torsion points)."""
    b = translate.free_rank
    return TranslatedSubtorus(b, translate.torsion,
                              transpose(kernel_rational_rows(direction_rows, b)),
                              translate)


def orbit_closure(chi, variant="B"):
    """Zariski closure of the positive-real scaling orbit of an exact
    character, as a translated subtorus.

    Variant B: the direction lattice is cut out by the multiplicative
    relations of the moduli (kernel of the prime exponent matrix), and the
    translate is the unitary part.  Variant A: closures are cut out by the
    rational relations of the angle vector; the translate keeps the
    moduli, so positive-real points are fixed and their closures are not
    unitary translates, which is why variant B is the default.
    """
    from .characters import NumericCharacter
    if isinstance(chi, NumericCharacter):
        raise ValueError("orbit closure requires exact data")
    b = chi.free_rank
    if variant == "B":
        primes = _primes(chi.moduli)
        exp_rows = [[_valuation(m, p) for m in chi.moduli] for p in primes]
        # relations = {u : prod m_j^{u_j} = 1}, the saturated integer
        # kernel; when all moduli are 1 it is Z^b and the orbit one point.
        relations = transpose(kernel_columns(exp_rows, ncols=b))
        return TranslatedSubtorus(b, chi.torsion, relations,
                                  chi.unitary_part())
    if variant == "A":
        # u with u . angles = 0 over Q (exact rational angle relations).
        relations = transpose(kernel_rational_rows([list(chi.angles)], b))
        return TranslatedSubtorus(b, chi.torsion, relations, chi)
    raise ValueError(f"unknown action variant {variant!r}")
