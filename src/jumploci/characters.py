"""Points of the character torus Hom(H1, C*).

An exact character stores positive rational moduli and rational angles
(twice-pi units) on the free part of H1, plus a rational angle per torsion
generator whose denominator divides that generator's order.  Its values on
group elements are therefore positive rationals times roots of unity,
exactly representable as cyclotomic numbers.

Torsion points (unitary characters of finite order) have a second,
integer form, and this module is the one place that defines it.  For a
scan of order bound K the modulus is n = lcm(1..K, d_1..d_t)
(torsion_modulus); a point of order dividing some k <= K is the exponent
vector e in (Z/n)^(b+t) of its angles e_j / n, free coordinates first.
Torsion coordinate i of a point is a multiple of n / d_i.  Since every
angle has the same denominator n, lexicographic order on vectors is
Character.sort_key order on the points they stand for, so a sorted list
of vectors is already in the canonical report order.  Scans and coset
growth work on vectors alone; Character.from_exponents turns the points
that reach a report into characters.

Numeric characters (complex values per generator) exist only for the
flagged fallback paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .cyclotomic import Cyc
from .numutil import frac_mod1, lcm_all, rational_power


class CharacterError(ValueError):
    pass


@dataclass(frozen=True)
class Character:
    """Exact character of Z^b + Z/d_1 + ... + Z/d_t."""

    free_rank: int
    torsion: tuple
    moduli: tuple
    angles: tuple
    tors_angles: tuple

    def __post_init__(self):
        moduli = tuple(Fraction(m) for m in self.moduli)
        if any(m <= 0 for m in moduli):
            raise CharacterError("moduli must be positive")
        angles = tuple(frac_mod1(Fraction(a)) for a in self.angles)
        tors = []
        for a, d in zip(self.tors_angles, self.torsion):
            a = frac_mod1(Fraction(a))
            if (a * d).denominator != 1:
                raise CharacterError("torsion value is not a d-th root of unity")
            tors.append(a)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "tors_angles", tuple(tors))

    @staticmethod
    def trivial(free_rank, torsion=()):
        return Character(free_rank, tuple(torsion),
                         (Fraction(1),) * free_rank,
                         (Fraction(0),) * free_rank,
                         (Fraction(0),) * len(torsion))

    @staticmethod
    def unitary(free_rank, torsion, angles, tors_angles=None):
        if tors_angles is None:
            tors_angles = (Fraction(0),) * len(torsion)
        return Character(free_rank, tuple(torsion),
                         (Fraction(1),) * free_rank, tuple(angles), tuple(tors_angles))

    @staticmethod
    def from_exponents(free_rank, torsion, e, n):
        """The torsion point with exponent vector e modulo n.

        For data that is already normalised: 0 <= e_j < n, and torsion
        coordinate i a multiple of n / d_i.  Nothing is checked again."""
        chi = object.__new__(Character)
        angles = tuple(Fraction(x, n) for x in e)
        for name, value in (("free_rank", free_rank), ("torsion", tuple(torsion)),
                            ("moduli", (Fraction(1),) * free_rank),
                            ("angles", angles[:free_rank]),
                            ("tors_angles", angles[free_rank:])):
            object.__setattr__(chi, name, value)
        return chi

    @property
    def is_unitary(self):
        return all(m == 1 for m in self.moduli)

    @property
    def is_trivial(self):
        return (self.is_unitary and all(a == 0 for a in self.angles)
                and all(a == 0 for a in self.tors_angles))

    def order(self):
        """Multiplicative order; defined for unitary characters only."""
        if not self.is_unitary:
            raise CharacterError("non-unitary characters have infinite order")
        return lcm_all([a.denominator for a in self.angles]
                       + [a.denominator for a in self.tors_angles])

    def value_parts(self, free_vec, tors_vec=()):
        """(modulus, angle) of the value on an H1 element."""
        mod = Fraction(1)
        ang = Fraction(0)
        for m, a, e in zip(self.moduli, self.angles, free_vec):
            if e:
                mod *= m ** e
                ang += a * e
        for a, e in zip(self.tors_angles, tors_vec):
            if e:
                ang += a * e
        return mod, frac_mod1(ang)

    def value(self, free_vec, tors_vec=()) -> Cyc:
        mod, ang = self.value_parts(free_vec, tors_vec)
        out = Cyc.from_angle(ang)
        if mod != 1:
            out = out * mod
        return out

    def unitary_values(self):
        """Cyc root-of-unity value per free coordinate (ignores moduli)."""
        return [Cyc.from_angle(a) for a in self.angles]

    def torsion_values(self):
        return [Cyc.from_angle(a) for a in self.tors_angles]

    def unitary_part(self):
        return Character(self.free_rank, self.torsion,
                         (Fraction(1),) * self.free_rank, self.angles, self.tors_angles)

    def __mul__(self, other):
        if self.free_rank != other.free_rank or self.torsion != other.torsion:
            raise CharacterError("characters live on different tori")
        return Character(self.free_rank, self.torsion,
                         tuple(a * b for a, b in zip(self.moduli, other.moduli)),
                         tuple(a + b for a, b in zip(self.angles, other.angles)),
                         tuple(a + b for a, b in zip(self.tors_angles, other.tors_angles)))

    def inverse(self):
        return Character(self.free_rank, self.torsion,
                         tuple(1 / m for m in self.moduli),
                         tuple(-a for a in self.angles),
                         tuple(-a for a in self.tors_angles))

    def conjugate(self):
        """Complex conjugate character (same moduli, negated angles)."""
        return Character(self.free_rank, self.torsion, self.moduli,
                         tuple(-a for a in self.angles),
                         tuple(-a for a in self.tors_angles))

    def sort_key(self):
        return (self.angles, self.tors_angles, self.moduli)

    def serialize(self):
        return {
            "moduli": [str(m) for m in self.moduli],
            "angles": [str(a) for a in self.angles],
            "torsion": [str(a) for a in self.tors_angles],
        }

    def __repr__(self):
        return (f"Character(moduli={[str(m) for m in self.moduli]}, "
                f"angles={[str(a) for a in self.angles]}, "
                f"torsion={[str(a) for a in self.tors_angles]})")


@dataclass(frozen=True)
class NumericCharacter:
    """Flagged numeric character used by fallback paths only."""

    free_rank: int
    torsion: tuple
    values: tuple          # complex per free generator
    tors_angles: tuple
    flag: str = "numeric"

    def value(self, free_vec, tors_vec=()):
        out = complex(1.0)
        for v, e in zip(self.values, free_vec):
            if e:
                out *= v ** e
        for a, e in zip(self.tors_angles, tors_vec):
            if e:
                out *= complex(Cyc.from_angle(Fraction(a)).value()) ** e
        return out


def torsion_modulus(max_order, torsion):
    """n = lcm(1..max_order, d_1..d_t), the common denominator of the
    torsion points of order at most max_order and of the torsion dual."""
    return lcm_all(list(range(1, max_order + 1)) + list(torsion), start=1)


def enumerate_torsion_characters(free_rank, torsion, max_order):
    """Exponent vectors (modulo torsion_modulus(max_order, torsion)) of all
    unitary characters whose order divides some k <= max_order, each
    exactly once, in canonical (Character.sort_key) order."""
    if max_order < 1:
        raise CharacterError("max order must be at least 1")
    n = torsion_modulus(max_order, torsion)
    points = set()
    for k in range(1, max_order + 1):
        # chi^k = 1: free angles in (1/k)Z, torsion angle i in (1/gcd(d_i, k))Z.
        steps = [n // k] * free_rank + [n // gcd(d, k) for d in torsion]
        points.update(product(*(range(0, n, step) for step in steps)))
    return sorted(points)


def count_killed_by(free_rank, torsion, k):
    """|{chi : chi^k = 1}| = k^b * prod gcd(d_i, k)."""
    n = k ** free_rank
    for d in torsion:
        n *= gcd(d, k)
    return n


def rplus_act(t: Fraction, chi, variant="B"):
    """The scaling action of a positive rational t on a character.

    Variant A fixes moduli and scales angles; variant B fixes angles and
    raises moduli to the t-th power (the default, matching the Higgs-side
    scaling of 1-forms).  Both act trivially on the finite dual.  Variant
    B falls back to a flagged numeric character when a modulus has no
    exact rational t-th power.
    """
    t = Fraction(t)
    if t <= 0:
        raise CharacterError("the action is by positive rationals")
    if isinstance(chi, NumericCharacter):
        if variant == "A":
            raise CharacterError("variant A on numeric characters is not supported")
        vals = tuple((abs(v) ** float(t)) * (v / abs(v)) for v in chi.values)
        return NumericCharacter(chi.free_rank, chi.torsion, vals, chi.tors_angles)
    if variant == "A":
        return Character(chi.free_rank, chi.torsion, chi.moduli,
                         tuple(t * a for a in chi.angles), chi.tors_angles)
    if variant != "B":
        raise CharacterError(f"unknown action variant {variant!r}")
    new_moduli = []
    for m in chi.moduli:
        p = rational_power(m, t)
        if p is None:
            vals = tuple(float(m_) ** float(t) *
                         complex(Cyc.from_angle(a).value())
                         for m_, a in zip(chi.moduli, chi.angles))
            return NumericCharacter(chi.free_rank, chi.torsion, vals, chi.tors_angles)
        new_moduli.append(p)
    return Character(chi.free_rank, chi.torsion, tuple(new_moduli),
                     chi.angles, chi.tors_angles)
