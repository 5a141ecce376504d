"""Higgs line bundles on complex tori: the character correspondence, the
pair's cohomology, the Hodge-type splitting check, and the partition
identity for multiplicity loci.

A character of the lattice with log-rational moduli r_j = exp(q_j) and
rational angles keeps everything exact: the holomorphic 1-form is the
model's inverse period matrix times the log moduli.  Both sides are read
from whether something vanishes, since a Koszul complex with a nonzero
entry has a contracting homotopy: the group-cohomology side from whether
the character is trivial (the note is in lattice_cohomology_dims), and
the pair's side from whether the flat part is trivial and theta = 0 (the
note is in higgs_cohomology_dim).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import Refusal
from .linalg import inverse
from .numutil import frac_mod1
from .value import Value


# Largest torus dimension a model may have.  The pair's cohomology is
# read from whether theta vanishes, so no Koszul matrix grows with n; the
# cost left is one rational 2n x 2n inverse per model and a mat-vec
# product per character.  higgs verify-thm3 at its default 50 samples
# takes 0.19 s at n = 6, 0.25 s at n = 7 and 0.26 s at n = 8, imports
# included (medians of 5; Python 3.11, one core of a 2-core x86-64
# Xeon).  The limit stays at 6: the refusal is documented in the README
# and tested.
MAX_TORUS_DIMENSION = 6


class ComplexTorusModel(Value):
    """C^n modulo a rank-2n lattice; periods[j] is the j-th lattice
    generator as a vector of (real, imag) rational pairs, so 2n entries,
    each an n-tuple of (Fraction, Fraction).  period_inverse, the inverse
    of real_period_matrix(), is kept out of comparison."""

    _fields = ("n", "periods")

    def __init__(self, n: int, periods: tuple):
        if n < 1:
            raise Refusal("the torus needs dimension n >= 1")
        if n > MAX_TORUS_DIMENSION:
            raise Refusal(f"torus dimension {n} is above the limit "
                          f"{MAX_TORUS_DIMENSION}")
        if len(periods) != 2 * n:
            raise Refusal("need 2n lattice generators")
        if any(len(row) != n for row in periods):
            raise Refusal("each lattice generator needs n entries")
        self.__dict__.update(n=n, periods=tuple(
            tuple((Fraction(re), Fraction(im)) for re, im in row)
            for row in periods))
        try:
            self.__dict__["period_inverse"] = inverse(self.real_period_matrix())
        except ZeroDivisionError:
            raise Refusal("lattice does not span") from None

    @staticmethod
    def standard(n):
        """Lattice Z^n + i Z^n."""
        rows = []
        for j in range(n):
            rows.append(tuple((Fraction(int(k == j)), Fraction(0)) for k in range(n)))
        for j in range(n):
            rows.append(tuple((Fraction(0), Fraction(int(k == j))) for k in range(n)))
        return ComplexTorusModel(n, tuple(rows))

    def real_period_matrix(self):
        """2n x 2n rational matrix sending (Re theta, Im theta) to the
        vector of 2 Re theta(lambda_j)."""
        rows = []
        for lam in self.periods:
            row = [2 * re for re, _ in lam] + [-2 * im for _, im in lam]
            rows.append(row)
        return rows


class LatticeCharacter(Value):
    """Exact character of the period lattice: modulus exp(log_moduli[j])
    and angle angles[j] (in turns) on the j-th generator, both stored as
    Fractions, the angles reduced mod 1."""

    _fields = ("log_moduli", "angles")

    def __init__(self, log_moduli: tuple, angles: tuple):
        self.__dict__.update(
            log_moduli=tuple(Fraction(q) for q in log_moduli),
            angles=tuple(frac_mod1(Fraction(a)) for a in angles))

    @property
    def rank(self):
        return len(self.log_moduli)

    @property
    def is_unitary(self):
        return all(q == 0 for q in self.log_moduli)

    @property
    def is_trivial(self):
        return self.is_unitary and all(a == 0 for a in self.angles)

    def __mul__(self, other):
        return LatticeCharacter(
            tuple(a + b for a, b in zip(self.log_moduli, other.log_moduli)),
            tuple(a + b for a, b in zip(self.angles, other.angles)))

    def scale(self, t: Fraction):
        """The positive-real action fixing angles and powering moduli,
        exact for any rational t in the log parametrization."""
        t = Fraction(t)
        return LatticeCharacter(tuple(t * q for q in self.log_moduli), self.angles)

    def serialize(self):
        return {"log_moduli": [str(q) for q in self.log_moduli],
                "angles": [str(a) for a in self.angles]}


class HiggsLineBundle(Value):
    """Unitary character of the lattice (the flat line bundle; its first
    Chern class is trivial on a complex torus, which has no torsion) and
    the 1-form coefficient vector theta as n pairs of rational
    (real, imag) parts."""

    _fields = ("angles", "theta")

    def __init__(self, angles: tuple, theta: tuple):
        self.__dict__.update(
            angles=tuple(frac_mod1(Fraction(a)) for a in angles),
            theta=tuple((Fraction(re), Fraction(im)) for re, im in theta))

    @property
    def flat_is_trivial(self):
        return all(a == 0 for a in self.angles)

    def add(self, other):
        return HiggsLineBundle(
            tuple(a + b for a, b in zip(self.angles, other.angles)),
            tuple((r1 + r2, i1 + i2) for (r1, i1), (r2, i2)
                  in zip(self.theta, other.theta)))


def character_to_higgs(x: ComplexTorusModel, rho: LatticeCharacter):
    """The pair (flat part, 1-form) of a character: theta is the unique
    complex-linear functional with 2 Re theta(lambda_j) = log r_j."""
    if rho.rank != 2 * x.n:
        raise ValueError("character rank does not match the lattice")
    sol = [sum(a * q for a, q in zip(row, rho.log_moduli) if a and q)
           for row in x.period_inverse]
    theta = tuple((sol[k], sol[x.n + k]) for k in range(x.n))
    return HiggsLineBundle(rho.angles, theta)


def higgs_to_character(x: ComplexTorusModel, h: HiggsLineBundle):
    """Inverse correspondence: log r_j = 2 Re theta(lambda_j)."""
    logs = []
    for lam in x.periods:
        total = Fraction(0)
        for (lre, lim), (tre, tim) in zip(lam, h.theta):
            total += 2 * (tre * lre - tim * lim)
        logs.append(total)
    return LatticeCharacter(tuple(logs), h.angles)


# ---------------------------------------------------------------------------
# Cohomology of a Higgs line bundle on the torus model


def higgs_cohomology_dim(x: ComplexTorusModel, h: HiggsLineBundle, p, q):
    """dim of the (p, q) cohomology of the pair: C(n, p) C(n, q) when the
    flat part is trivial and theta = 0, and 0 otherwise.

    The group is the cohomology of wedging with theta on Lambda^p W*,
    tensored with Lambda^q Wbar*.  On a torus every Dolbeault group of a
    nontrivial flat bundle vanishes.  If theta is nonzero, take v in W
    with theta(v) = 1: contraction by v is a contracting homotopy of
    wedging with theta, since i_v(theta ^ w) + theta ^ i_v(w) = w, so the
    complex is exact (the argument of lattice_cohomology_dims).  If theta
    is zero every differential is zero and the group is all of
    Lambda^p W* (x) Lambda^q Wbar*."""
    n = x.n
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError("(p, q) out of range")
    if not h.flat_is_trivial or any(re or im for re, im in h.theta):
        return 0
    return comb(n, p) * comb(n, q)


# ---------------------------------------------------------------------------
# Group-cohomology side and the splitting check


def lattice_cohomology_dims(x: ComplexTorusModel, rho: LatticeCharacter):
    """Exact Betti numbers of the lattice Z^(2n) with coefficients in
    the rank-one system rho: (C(2n, 0), ..., C(2n, 2n)) when rho is
    trivial and all zeros otherwise.

    The cochain complex is the Koszul complex over C of the scalars
    f_j = rho(lambda_j) - 1, where rho(lambda_j) = e^(q_j) e^(2 pi i a_j).
    Since |rho(lambda_j)| = e^(q_j), f_j = 0 exactly when q_j = 0 and
    a_j = 0 mod 1, and both are exact Fraction tests (rho.is_trivial).
    If some f_j is nonzero, h = f_j^(-1) (contraction by e_j) satisfies
    dh + hd = id, so every cohomology group is 0 (Eisenbud, Commutative
    Algebra, section 17).  If every f_j is 0, every differential is 0
    and h^k is the rank C(2n, k) of the k-th exterior power."""
    if rho.rank != 2 * x.n:
        raise ValueError("character rank does not match the lattice")
    b = 2 * x.n
    if not rho.is_trivial:
        return (0,) * (b + 1)
    return tuple(comb(b, k) for k in range(b + 1))


def splitting_check(x: ComplexTorusModel, rho: LatticeCharacter, degree):
    """Whether the rank-one Betti number in the given degree equals the
    sum of the pair's (p, q) dimensions over p + q = degree."""
    lhs = lattice_cohomology_dims(x, rho)[degree]
    h = character_to_higgs(x, rho)
    rhs = sum(higgs_cohomology_dim(x, h, p, degree - p)
              for p in range(max(0, degree - x.n), min(degree, x.n) + 1))
    return lhs == rhs, lhs, rhs


def partitions_of(m, parts):
    """All functions mu: {0..parts-1} -> Z>=0 with sum m."""
    if parts == 1:
        yield (m,)
        return
    for head in range(m + 1):
        for rest in partitions_of(m - head, parts - 1):
            yield (head,) + rest


def partition_check(x: ComplexTorusModel, rho: LatticeCharacter, degree, mult):
    """Membership in the degree/mult jump locus matches the union over
    partitions mu of m of the intersections of the (k, degree-k) loci
    with multiplicities mu(k)."""
    lhs = lattice_cohomology_dims(x, rho)[degree] >= mult
    h = character_to_higgs(x, rho)
    rhs = False
    for mu in partitions_of(mult, degree + 1):
        if all(higgs_cohomology_dim(x, h, k, degree - k) >= mu[k]
               for k in range(degree + 1) if mu[k] > 0):
            rhs = True
            break
    return lhs == rhs, lhs, rhs
