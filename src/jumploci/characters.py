"""Points of the character torus Hom(H1, C*).

An exact character stores positive rational moduli and rational angles
(twice-pi units) on the free part of H1, plus a rational angle per torsion
generator whose denominator divides that generator's order.  Its values on
group elements are therefore positive rationals times roots of unity,
exactly representable as cyclotomic numbers.

Numeric characters (complex values per generator) exist only for the
flagged fallback paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def enumerate_torsion_characters(free_rank, torsion, max_order):
    """All unitary characters whose order divides some k <= max_order,
    each exactly once, in canonical lexicographic order."""
    if max_order < 1:
        raise CharacterError("max order must be at least 1")
    seen = set()
    out = []
    for k in range(1, max_order + 1):
        for chi in _characters_killed_by(free_rank, torsion, k):
            key = chi.sort_key()
            if key not in seen:
                seen.add(key)
                out.append(chi)
    out.sort(key=Character.sort_key)
    return out


def _characters_killed_by(free_rank, torsion, k):
    from math import gcd
    angle_choices = [[Fraction(a, k) for a in range(k)] for _ in range(free_rank)]
    tors_choices = []
    for d in torsion:
        g = gcd(d, k)
        tors_choices.append([Fraction(c * (d // g), d) for c in range(g)])
    def rec(i, acc):
        if i == free_rank:
            yield from rec_tors(0, acc, [])
            return
        for a in angle_choices[i]:
            yield from rec(i + 1, acc + [a])
    def rec_tors(i, angles, acc):
        if i == len(torsion):
            yield Character.unitary(free_rank, tuple(torsion), tuple(angles), tuple(acc))
            return
        for a in tors_choices[i]:
            yield from rec_tors(i + 1, angles, acc + [a])
    yield from rec(0, [])


def count_killed_by(free_rank, torsion, k):
    """|{chi : chi^k = 1}| = k^b * prod gcd(d_i, k)."""
    from math import gcd
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
