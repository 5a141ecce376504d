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
of vectors is already in the canonical report order.  Scans, coset
growth and the report's member list work on vectors alone
(ExponentMembers); Character.from_exponents builds a character only for
a grow seed, a component, a residual point or a library reader.

The units (Z/n)^x act on vectors by e -> u.e mod n.  Read on characters,
u raises chi to the u-th power, which is the Galois automorphism
zeta_n -> zeta_n^u applied to chi's values.  A point of order k is
(n/k).f with f in (Z/k)^(b+t) and gcd(f, k) = 1, and u.e = e only for
u = 1 (mod k), so its orbit has exactly phi(k) members, all of order k.
An orbit is represented by its least vector (is_orbit_representative);
orbit_members lists all of it.

Numeric characters (complex values per generator) exist only for the
flagged fallback paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .cyclotomic import Cyc
from .errors import Refusal
from .numutil import divisors, frac_mod1, mobius, rational_power
from .value import Value


class Character(Value):
    """Exact character of Z^b + Z/d_1 + ... + Z/d_t."""

    _fields = ("free_rank", "torsion", "moduli", "angles", "tors_angles")

    def __init__(self, free_rank: int, torsion: tuple, moduli: tuple,
                 angles: tuple, tors_angles: tuple):
        if not len(moduli) == len(angles) == free_rank:
            raise Refusal("one modulus and one angle per free generator "
                          "required")
        if len(tors_angles) != len(torsion):
            raise Refusal("one angle per torsion generator required")
        moduli = tuple(Fraction(m) for m in moduli)
        if any(m <= 0 for m in moduli):
            raise Refusal("moduli must be positive")
        angles = tuple(frac_mod1(Fraction(a)) for a in angles)
        tors = []
        for a, d in zip(tors_angles, torsion):
            a = frac_mod1(Fraction(a))
            if (a * d).denominator != 1:
                raise Refusal("torsion value is not a d-th root of unity")
            tors.append(a)
        self.__dict__.update(free_rank=free_rank, torsion=torsion,
                             moduli=moduli, angles=angles,
                             tors_angles=tuple(tors))

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
        chi.__dict__.update(free_rank=free_rank, torsion=tuple(torsion),
                            moduli=(Fraction(1),) * free_rank,
                            angles=angles[:free_rank],
                            tors_angles=angles[free_rank:])
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
            raise ValueError("non-unitary characters have infinite order")
        return lcm(*(a.denominator for a in self.angles + self.tors_angles))

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

    def free_values(self):
        """Cyc value per free coordinate: modulus times root of unity."""
        return [Cyc.from_angle(a) * m for a, m in zip(self.angles, self.moduli)]

    def torsion_values(self):
        return [Cyc.from_angle(a) for a in self.tors_angles]

    def unitary_part(self):
        return Character(self.free_rank, self.torsion,
                         (Fraction(1),) * self.free_rank, self.angles, self.tors_angles)

    def __mul__(self, other):
        if self.free_rank != other.free_rank or self.torsion != other.torsion:
            raise ValueError("characters live on different tori")
        return Character(self.free_rank, self.torsion,
                         tuple(a * b for a, b in zip(self.moduli, other.moduli)),
                         tuple(a + b for a, b in zip(self.angles, other.angles)),
                         tuple(a + b for a, b in zip(self.tors_angles, other.tors_angles)))

    def inverse(self):
        return Character(self.free_rank, self.torsion,
                         tuple(1 / m for m in self.moduli),
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


class NumericCharacter(Value):
    """Flagged numeric character used by fallback paths only; values
    holds one complex number per free generator."""

    _fields = ("free_rank", "torsion", "values", "tors_angles", "flag")

    def __init__(self, free_rank: int, torsion: tuple, values: tuple,
                 tors_angles: tuple, flag: str = "numeric"):
        self.__dict__.update(free_rank=free_rank, torsion=torsion,
                             values=values, tors_angles=tors_angles, flag=flag)

    def value(self, free_vec, tors_vec=()):
        out = complex(1.0)
        for v, e in zip(self.values, free_vec):
            if e:
                out *= v ** e
        for a, e in zip(self.tors_angles, tors_vec):
            if e:
                out *= complex(Cyc.from_angle(Fraction(a)).value()) ** e
        return out


class ExponentMembers:
    """Members of a jump locus as (exponent vector, dims) pairs modulo n,
    in canonical order; a Character is built only on request."""

    def __init__(self, free_rank, torsion, n, pairs):
        self.free_rank, self.torsion, self.n = free_rank, torsion, n
        self.pairs = pairs

    def character(self, e):
        return Character.from_exponents(self.free_rank, self.torsion, e, self.n)

    def characters(self):
        return [(self.character(e), dims) for e, dims in self.pairs]

    def write_json(self, out, newline):
        """Write [chi.serialize() | {"dims": list(dims)} for chi, dims in
        self.characters()] as JSONEncoder(sort_keys=True, indent=2) does
        where the list's lines start with newline, building no Character."""
        item, key = newline + "  ", newline + "    "
        b, n = self.free_rank, self.n
        name = {x: f'"{Fraction(x, n)}"'
                for x in {x for e, _ in self.pairs for x in e}}
        moduli = _json_list(['"1"'] * b, key)
        sep = "["
        for e, dims in self.pairs:
            angles = [name[x] for x in e]
            out.write(f'{sep}{item}{{{key}"angles": '
                      f'{_json_list(angles[:b], key)},{key}"dims": '
                      f'{_json_list([str(d) for d in dims], key)},{key}'
                      f'"moduli": {moduli},{key}"torsion": '
                      f'{_json_list(angles[b:], key)}{item}}}')
            sep = ","
        out.write(newline + "]" if self.pairs else "[]")


def _json_list(items, newline):
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"


def torsion_modulus(max_order, torsion):
    """n = lcm(1..max_order, d_1..d_t), the common denominator of the
    torsion points of order at most max_order and of the torsion dual."""
    return lcm(*range(1, max_order + 1), *torsion)


def enumerate_torsion_characters(free_rank, torsion, max_order):
    """Exponent vectors (modulo torsion_modulus(max_order, torsion)) of all
    unitary characters whose order divides some k <= max_order, each
    exactly once, in canonical (Character.sort_key) order."""
    if max_order < 1:
        raise Refusal("max order must be at least 1")
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


def count_torsion_characters(free_rank, torsion, max_order):
    """len(enumerate_torsion_characters(free_rank, torsion, max_order)),
    without enumerating.

    count_killed_by(d) counts the points of every order dividing d, so by
    Moebius inversion sum_{e | d} mu(d/e) count_killed_by(e) counts those
    of order exactly d; the enumeration holds the orders 1..max_order."""
    if max_order < 1:
        raise Refusal("max order must be at least 1")
    return sum(mobius(d // e) * count_killed_by(free_rank, torsion, e)
               for d in range(1, max_order + 1) for e in divisors(d))


def is_orbit_representative(e, n):
    """Whether the vector e is the least of its orbit under (Z/n)^x.

    Zero coordinates stay zero under a unit, so every member of the orbit
    has its first nonzero coordinate where e has it, and the least member
    has the least value there.  Let k be the order of e and c that
    coordinate times k/n.  Over the units u, u.c mod k runs through the
    residues whose gcd with k is gcd(c, k), the least of which is gcd(c, k)
    itself: e can be least only if c divides k.  Then u.c = c (mod k)
    exactly for u = 1 (mod k/c), and only those units can give a smaller
    vector; every other unit gives a larger first nonzero coordinate."""
    k = n // gcd(n, *e)
    for x in e:
        if x:
            break
    else:
        return True         # the trivial point is its own orbit
    c = x * k // n
    if c == 1:
        return True         # only u = 1 keeps the first coordinate at 1
    if k % c:
        return False
    step = k // c
    return not any(gcd(u, k) == 1 and tuple(u * x % n for x in e) < e
                   for u in range(1 + step, k, step))


def orbit_members(e, n):
    """The orbit of e under (Z/n)^x: u.e mod n for the units u of Z/k,
    k the order of e, each member once (the action on it is free)."""
    k = n // gcd(n, *e)
    return [tuple(u * x % n for x in e)
            for u in range(1, k + 1) if gcd(u, k) == 1]


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
        raise ValueError("the action is by positive rationals")
    if isinstance(chi, NumericCharacter):
        if variant == "A":
            raise ValueError("variant A on numeric characters is not supported")
        vals = tuple((abs(v) ** float(t)) * (v / abs(v)) for v in chi.values)
        return NumericCharacter(chi.free_rank, chi.torsion, vals, chi.tors_angles)
    if variant == "A":
        return Character(chi.free_rank, chi.torsion, chi.moduli,
                         tuple(t * a for a in chi.angles), chi.tors_angles)
    if variant != "B":
        raise ValueError(f"unknown action variant {variant!r}")
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
