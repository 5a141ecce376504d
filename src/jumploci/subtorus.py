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
from math import lcm

from .characters import Character, count_by_order, torsion_modulus
from .errors import Refusal
from .intlinalg import (hnf_rows, identity, kernel_rows, mat_mul,
                        smith_normal_form)
from .numutil import factorint
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
        if translate.free_rank != free_rank or translate.torsion != torsion:
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

    def contains(self, chi: Character):
        """Whether chi lies in the coset: chi has tau's torsion angles and
        chi(u) = tau(u) on every annihilator row u, compared as the
        (modulus, angle mod 1) pairs value_parts gives."""
        if chi.free_rank != self.free_rank or chi.torsion != self.torsion:
            raise ValueError("dimension mismatch")
        tau = self.translate
        return chi.tors_angles == tau.tors_angles and all(
            chi.value_parts(u) == tau.value_parts(u)
            for u in self.annihilator)

    def torsion_points(self, max_order):
        """All points of the coset whose character order divides some
        k <= max_order, as characters in canonical order."""
        n = torsion_modulus(max_order, self.torsion)
        return [Character.from_exponents(self.free_rank, self.torsion, e, n)
                for e in sorted(set(self.iter_torsion_points(max_order)))]

    def iter_torsion_points(self, max_order):
        """Lazily yield the exponent vectors modulo n =
        torsion_modulus(max_order, torsion) of the coset's points of
        order <= max_order, grouped by killing order k (duplicates across
        orders possible), so subset checks can fail on the first point
        outside a set.

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
        form or solve runs per k.  c is taken mod 1, as
        tau.value_parts gives it: adding an integer vector z to c moves
        theta_0 = R c by the integer vector R z, to the same point.  As
        vectors the points are n theta_0 + (n/k) B (Z/k)^d, taken mod n."""
        c, q = self._least_killing_order()
        if not 0 < q <= max_order:
            return
        tau = self.translate
        # q <= max_order divides n, so n c is integral.
        n = torsion_modulus(max_order, self.torsion)
        nc = [a.numerator * (n // a.denominator) for a in c]
        base = [sum(r * x for r, x in zip(row, nc)) % n
                for row in self.right_inverse]
        tail = tuple(a.numerator * (n // a.denominator) for a in tau.tors_angles)
        rows = self.directions
        for k in range(q, max_order + 1, q):
            step = n // k
            for w in product(range(k), repeat=self.dim):
                yield tuple((x + step * sum(e * y for e, y in zip(row, w))) % n
                            for x, row in zip(base, rows)) + tail

    def _least_killing_order(self):
        """(c, q): c = H tau mod 1, as tau.value_parts gives it, and q the
        lcm of the denominators of c and of tau's torsion angles, so the
        orders k that kill a point of the coset are the multiples of q
        (iter_torsion_points); q = 0, killing none, for a translate that
        is not unitary."""
        tau = self.translate
        if not tau.is_unitary:
            return [], 0
        c = [tau.value_parts(u)[1] for u in self.annihilator]
        return c, lcm(*(a.denominator for a in c + list(tau.tors_angles)))

    def torsion_point_count(self, max_order):
        """len(torsion_points(max_order)), without listing a point:
        count_by_order, as by iter_torsion_points' soundness note the
        coset has points killed by i exactly when q | i, and then i^d of
        them (d = dim); none when the translate is not unitary (q = 0)."""
        q, d = self._least_killing_order()[1], self.dim
        return count_by_order(
            max_order, lambda i: i ** d if q and i % q == 0 else 0)

    def contains_subtorus(self, other):
        """Whether other (a translated subtorus) is contained in self: each
        row of self's annihilator kills other's directions (both lattices
        are saturated, so this is containment of the annihilator
        lattices), and other's translate lies in self.  A coset on
        another torus raises ValueError("dimension mismatch")."""
        return self.contains(other.translate) and not any(
            sum(x * y for x, y in zip(u, col))
            for u in self.annihilator for col in zip(*other.directions))

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
    """Connected subtorus through translate whose direction span is
    generated by rational direction vectors (e.g. lifted differences of
    torsion points): the annihilator is their saturated integer kernel."""
    b = translate.free_rank
    return TranslatedSubtorus(b, translate.torsion,
                              kernel_rows(direction_rows, b), translate)


def orbit_closure(chi, variant="B"):
    """Zariski closure of the positive-real scaling orbit of an exact
    character, as a translated subtorus.

    Variant B: the directions are the prime-valuation rows of the moduli,
    so the annihilator holds their multiplicative relations
    {u : prod m_j^{u_j} = 1} (all of Z^b when every modulus is 1, and the
    orbit is one point), and the translate is the unitary part.  Variant
    A: the direction is the angle vector, so closures are cut out by its
    rational relations; the translate keeps the moduli, so positive-real
    points are fixed and their closures are not unitary translates, which
    is why variant B is the default.
    """
    from .characters import NumericCharacter
    if isinstance(chi, NumericCharacter):
        raise ValueError("orbit closure requires exact data")
    if variant == "B":
        return subtorus_from_directions(
            [[_valuation(m, p) for m in chi.moduli]
             for p in _primes(chi.moduli)], chi.unitary_part())
    if variant == "A":
        return subtorus_from_directions([list(chi.angles)], chi)
    raise ValueError(f"unknown action variant {variant!r}")
