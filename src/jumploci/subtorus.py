"""Translated affine subtori of the character torus, stored as saturated
integer lattices plus an exact translate character.

A subtorus T is cut out by binomial equations z^u = 1 for u running over
the rows of a saturated annihilator matrix U (canonical row HNF).  The
coset tau*T fixes the finite dual coordinates at tau's values, since a
connected subtorus cannot move them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .characters import Character, torsion_modulus
from .errors import Refusal
from .intlinalg import (hnf_rows, identity, kernel_columns,
                        kernel_rational_rows, row_lattice_subset,
                        solve_integer, transpose)
from .numutil import factorint, frac_mod1, lcm_all


@dataclass(frozen=True)
class TranslatedSubtorus:
    """tau * T with T = {z : z^u = 1 for rows u of annihilator}."""

    free_rank: int
    torsion: tuple
    annihilator: tuple          # rows, canonical HNF, saturated
    translate: Character

    def __post_init__(self):
        if any(len(r) != self.free_rank for r in self.annihilator):
            raise Refusal("annihilator rows need one entry per free "
                          "generator")
        ann = hnf_rows([list(r) for r in self.annihilator])
        object.__setattr__(self, "annihilator", tuple(tuple(r) for r in ann))
        if self.translate.free_rank != self.free_rank:
            raise Refusal("translate lives on a different torus")

    @property
    def dim(self):
        return self.free_rank - len(self.annihilator)

    def lattice_columns(self):
        """Saturated b x d basis of the subtorus direction lattice."""
        ann = [list(r) for r in self.annihilator]
        return kernel_columns(ann, ncols=self.free_rank)

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
        here, which is what bench/tracer.py counts; listings and the
        canonical translate use _points."""
        return self._points(max_order)

    def _points(self, max_order):
        """Exponent vectors modulo n = torsion_modulus(max_order, torsion)
        of the coset's points, grouped by killing order k (duplicates
        across orders possible).

        For each k the points killed by k form either the empty set or a
        coset theta_0 + B (Z/k)^d / k; theta_0 is found by solving the
        angle congruences B z = -k tau (mod 1), which matters whenever the
        translate's order does not divide k.  As vectors that coset is
        n theta_0 + (n/k) B (Z/k)^d, taken mod n."""
        tau = self.translate
        if not tau.is_unitary:
            return
        n = torsion_modulus(max_order, self.torsion)
        cols = self.lattice_columns()
        d = len(cols[0]) if cols and cols[0] else 0
        rows = [[cols[j][t] for t in range(d)] for j in range(self.free_rank)]
        tail = tuple(a.numerator * (n // a.denominator) for a in tau.tors_angles)
        for k in range(1, max_order + 1):
            # The torsion-dual part must also be killed by k.
            if any((k * a).denominator != 1 for a in tau.tors_angles):
                continue
            z0 = _solve_angle_congruences(
                rows, [frac_mod1(-k * a) for a in tau.angles], d)
            if z0 is None:
                continue
            # k theta_0 is integral and k | n, so n theta_0 is an integer.
            base = [(a + Fraction(sum(x * z for x, z in zip(row, z0)), k)) * n
                    for a, row in zip(tau.angles, rows)]
            base = [x.numerator % n for x in base]
            step = n // k
            for w in product(range(k), repeat=d):
                yield tuple((x + step * sum(c * y for c, y in zip(row, w))) % n
                            for x, row in zip(base, rows)) + tail

    def contains_subtorus(self, other):
        """Whether other (a translated subtorus) is contained in self."""
        if not row_lattice_subset(list(self.annihilator), list(other.annihilator)):
            return False
        return self.contains(other.translate)

    def canonical_translate(self, max_order=None):
        """Reduce the translate to the lexicographically least torsion
        point of the coset with the same order bound (unitary case)."""
        if not self.translate.is_unitary:
            return self
        k = max_order or self.translate.order()
        least = min(self._points(k), default=None)
        if least is None:
            return self
        best = Character.from_exponents(self.free_rank, self.torsion, least,
                                        torsion_modulus(k, self.torsion))
        return TranslatedSubtorus(self.free_rank, self.torsion, self.annihilator, best)

    def sort_key(self):
        return (-self.dim, self.annihilator, self.translate.sort_key())

    def serialize(self):
        return {
            "H": [list(r) for r in self.annihilator],
            "tau": self.translate.serialize(),
            "dim": self.dim,
        }


def _solve_angle_congruences(rows, rhs, b):
    """theta in Q^b with rows . theta = rhs (mod 1), or None.

    By Smith normal form, when the system is solvable it has a solution
    with denominator dividing lcm(rhs denominators) * lcm(elementary
    divisors of the row matrix), so one integer solve decides.
    """
    if not rows:
        return [Fraction(0)] * b
    from .intlinalg import snf_diagonal
    n_den = lcm_all([x.denominator for x in rhs], start=1)
    elem = snf_diagonal(rows)
    scale = n_den * lcm_all([e for e in elem if e], start=1)
    # rows . psi + scale * k = scale * rhs with psi = scale * theta.
    m = len(rows)
    aug = [list(row) + [scale if i == j else 0 for j in range(m)]
           for i, row in enumerate(rows)]
    c = [int(x * scale) for x in rhs]
    sol = solve_integer(aug, c)
    if sol is None:
        return None
    return [Fraction(sol[j], scale) for j in range(b)]


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
    fr_rows = [[Fraction(x) for x in row] for row in direction_rows]
    ann = kernel_rational_rows(fr_rows, b)   # b x k columns
    ann_rows = transpose(ann)
    return TranslatedSubtorus(b, translate.torsion,
                              tuple(tuple(r) for r in ann_rows), translate)


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
        if exp_rows:
            # relations = {u : prod m_j^{u_j} = 1}, saturated integer kernel.
            relations = transpose(kernel_columns(exp_rows, ncols=b))
        else:
            # All moduli are 1: the orbit is the single unitary point.
            relations = identity(b)
        ann_rows = hnf_rows(relations)
        return TranslatedSubtorus(b, chi.torsion,
                                  tuple(tuple(r) for r in ann_rows),
                                  chi.unitary_part())
    if variant == "A":
        # u with u . angles = 0 over Q (exact rational angle relations).
        rows = [[Fraction(a) for a in chi.angles]]
        ann_cols = kernel_rational_rows(rows, b)
        relations = transpose(ann_cols)
        ann_rows = hnf_rows(relations)
        return TranslatedSubtorus(b, chi.torsion,
                                  tuple(tuple(r) for r in ann_rows), chi)
    raise ValueError(f"unknown action variant {variant!r}")
