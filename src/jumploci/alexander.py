"""Alexander modules of the maximal abelian cover: Fitting ideals,
module actions and weights, Koszul cohomology of commuting actions, the
vanishing/nonvanishing dichotomy, and the identity between inverse
weights and low-degree jump loci.

Conventions (recorded in the repo decisions): the module of the cover is
ker(d1)/im(d2) over the group ring, read from the Smith form of the Fox
matrix (see cover_homology_rank_one), the trivial weight contributed by
degree 0 is added explicitly, and cohomology weights are the inverses of
the homology eigenvalues (pinned by an asymmetric fixture where the two
conventions differ).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd, lcm, prod

from .characters import Character
from .cyclotomic import Cyc
from .discovery import kill_cover
from .errors import InvariantError, Refusal
from .intlinalg import identity, mat_mul, smith_form
from .laurent import LaurentPoly, det_bareiss, resultant
from .linalg import koszul_dims, rank_exact
from .numutil import euler_phi
from .presentation import FinitePresentation
from .twisted import (coset_dims, fox_on_coset, presentation_data,
                      scan_sigma, twisted_cohomology_dims)
from .value import Value


# ---------------------------------------------------------------------------
# Fitting ideals


def fitting_generators(p: FinitePresentation, k):
    """All (g - k)-minors of the Fox matrix, content-normalized and
    sorted; the empty list encodes the zero ideal."""
    ab, fox = presentation_data(p)
    g = p.generator_count
    r = p.relator_count
    size = g - k
    if size <= 0:
        raise ValueError("minor size must be positive; k < g required")
    if size > min(r, g):
        return []
    minors = []
    for rows in combinations(range(r), size):
        for cols in combinations(range(g), size):
            sub = [[fox[i][j] for j in cols] for i in rows]
            d = _det_laplace(sub, ab.free_rank, ab.torsion)
            if not d.is_zero():
                minors.append(d.content_normalize())
    uniq = {}
    for m in minors:
        uniq.setdefault(_poly_key(m), m)
    return [uniq[key] for key in sorted(uniq)]


def _poly_key(poly):
    return tuple((kv, c.n, c.coeffs) for kv, c in poly.sorted_terms())


def _det_laplace(mat, nvars, torsion):
    """Determinant by first-column expansion; valid over the full group
    ring (which is not a domain, so Bareiss is not)."""
    n = len(mat)
    if n == 0:
        return LaurentPoly.one(nvars, torsion)
    if n == 1:
        return mat[0][0]
    total = LaurentPoly.zero(nvars, torsion)
    for i in range(n):
        if mat[i][0].is_zero():
            continue
        minor = [[mat[r][c] for c in range(1, n)] for r in range(n) if r != i]
        term = mat[i][0] * _det_laplace(minor, nvars, torsion)
        total = total + term if i % 2 == 0 else total - term
    return total


# ---------------------------------------------------------------------------
# Module actions, weights, Koszul cohomology


class ModuleAction(Value):
    """Commuting invertible matrices over Q(zeta), one per free generator
    of the acting group, stored as a tuple of dim x dim Cyc matrices;
    int or Fraction entries are read as Cyc."""

    _fields = ("matrices",)

    def __init__(self, matrices: tuple):
        self.__dict__["matrices"] = tuple(
            tuple(tuple(c if isinstance(c, Cyc) else Cyc.rational(c)
                        for c in row) for row in m) for m in matrices)
        for m in self.matrices:
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise ValueError("matrix dimensions disagree")
        for a, b in combinations(self.matrices, 2):
            if mat_mul(a, b) != mat_mul(b, a):
                raise ValueError("matrices do not commute")
        for m in self.matrices:
            if rank_exact(m) != self.dim:
                raise ValueError("matrices must be invertible")

    @property
    def rank(self):
        """Number of acting generators."""
        return len(self.matrices)

    @property
    def dim(self):
        return len(self.matrices[0]) if self.matrices else 0


def is_weight(chi_values, action: ModuleAction):
    """Whether the simultaneous eigenspace for the given eigenvalue per
    generator is nonzero: rank of the stacked (M_j - chi_j I) drops."""
    if len(chi_values) != action.rank:
        raise ValueError("one value per acting generator required")
    stacked = []
    for m, val in zip(action.matrices, chi_values):
        for i in range(action.dim):
            row = [m[i][j] for j in range(action.dim)]
            row[i] = row[i] - val
            stacked.append(row)
    return rank_exact(stacked) < action.dim


def koszul_cohomology(action: ModuleAction, chi_values):
    """Cohomology dimensions (h^0 ... h^b) of the Koszul complex on the
    commuting operators N_j = chi_j M_j - I acting on V."""
    if len(chi_values) != action.rank:
        raise ValueError("one value per acting generator required")
    dim = action.dim
    ops = []
    for m, val in zip(action.matrices, chi_values):
        op = [[m[i][j] * val for j in range(dim)] for i in range(dim)]
        for i in range(dim):
            op[i][i] = op[i][i] - Cyc.one()
        ops.append(op)
    return koszul_dims(ops, dim, Cyc.zero(), rank_exact)


class VanishingVerdict:
    def __init__(self, inverse_is_weight, h_dims, consistent):
        self.inverse_is_weight = inverse_is_weight
        self.h_dims = h_dims
        self.consistent = consistent


def vanishing_check(action: ModuleAction, chi_values):
    """Dichotomy: H^0(A, V (x) C_chi) is nonzero exactly when chi^(-1)
    is a weight of V, and when it is not a weight every Koszul degree
    vanishes.  The direction of the first clause is forced by the 1x1
    case: M = [2] with chi = 1/2 gives N = 0, so H^0 is nonzero exactly
    when the inverse value is the eigenvalue."""
    inv_vals = [v.inverse() for v in chi_values]
    w = is_weight(inv_vals, action)
    dims = koszul_cohomology(action, chi_values)
    consistent = (dims[0] > 0) == w
    if not w:
        consistent = consistent and all(d == 0 for d in dims)
    return VanishingVerdict(w, dims, consistent)


# ---------------------------------------------------------------------------
# The Alexander module of the maximal abelian cover


class CoverModule:
    """Finite-dimensional first homology of the maximal abelian cover,
    split along the finite dual: per torsion character, the invariant
    factors of the module over Q(zeta)[T, T^-1]."""

    def __init__(self, finite_dimensional, eigen_angles, numeric_eigenvalues,
                 invariant_factors):
        self.finite_dimensional = finite_dimensional
        # (torsion character angles, angle) exact pairs
        self.eigen_angles = eigen_angles
        self.numeric_eigenvalues = numeric_eigenvalues
        # (torsion character angles, monic LaurentPoly in T) pairs
        self.invariant_factors = invariant_factors


def _dual_torus(ab, omega):
    """(directions, translate) of the full torus through the torsion-dual
    character omega: 1 on the free part, omega on the torsion."""
    b = ab.free_rank
    return identity(b), Character.unitary(b, ab.torsion, (0,) * b, omega)


def _specialized_fox(p, omega_tors_angles):
    """Fox matrix rows specialized at a torsion-dual character: Laurent
    polynomials in the free variables."""
    ab, _ = presentation_data(p)
    return fox_on_coset(p, *_dual_torus(ab, omega_tors_angles))


def cover_homology_rank_one(p: FinitePresentation):
    """Exact Alexander module computation for free rank 1 (plus finite
    torsion, split by Maschke along the finite dual).

    At each torsion-dual character the Fox matrix presents R^g / im d2
    over the PID R = Q(zeta)[T, T^-1].  Its image im d1 is a nonzero ideal
    (some generator has a nonzero free coordinate), so free of rank one,
    and ker d1 is a direct summand: R^g / im d2 = H1(cover) + R (Crowell).
    The Smith form of the Fox matrix therefore gives H1 of the cover: the
    torsion invariants are its diagonal entries with their unit factors
    c T^k removed (monic), and the free rank is g - rank - 1."""
    ab, _ = presentation_data(p)
    if ab.free_rank != 1:
        raise InvariantError("cover homology is computed for free rank 1 only")
    eigen = []
    numeric = []
    factors = []
    for omega in _all_torsion_duals(ab.torsion):
        invariants = smith_invariants(_specialized_fox(p, omega))
        free = p.generator_count - len(invariants) - 1
        if free < 0:
            raise InvariantError("Fox matrix rank exceeds g - 1")
        if free > 0:
            return CoverModule(False, [], [], [])
        for f in invariants:
            if f.span == 0:                 # c T^k is a unit of R
                continue
            factors.append((tuple(omega), f))
            angles, residual = cyclotomic_roots(f)
            for a in angles:
                eigen.append((tuple(omega), a))
            if residual.span >= 1:
                numeric.extend(numeric_roots(residual))
    return CoverModule(True, sorted(eigen), numeric, factors)


def smith_invariants(mat):
    """Nonzero monic invariant factors of a matrix over R = Q(zeta)[T, T^-1]
    (one-variable LaurentPoly entries); their number is the rank, and the
    matrix presents coker = sum R/(f_i) + R^(rows - rank)."""
    _, d, _ = smith_form(mat, lambda f: f.span)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    return [f.monic() for f in diag if f]


def cyclotomic_roots(poly: LaurentPoly):
    """(root_angles, residual) for a nonzero one-variable polynomial:
    root_angles lists rational angles a (with multiplicity) such that
    e^(2 pi i a) is a root, and residual is the cofactor with no
    root-of-unity roots left.

    Any root of unity in the splitting picture has degree phi(q) at most
    span(poly) * phi(conductor) over Q, which bounds the orders to try.
    """
    if poly.is_zero():
        raise ValueError("zero polynomial has every root")
    conductor = lcm(*(c.n for c in poly.terms.values()))
    current, cs = poly, poly.coefficients()[1]
    bound = max(1, (len(cs) - 1) * euler_phi(conductor))
    orders = [q for q in range(1, 2 * bound * bound + 3) if euler_phi(q) <= bound]
    angles = []
    for q in orders:
        for a in range(q):
            if q > 1 and gcd(a, q) != 1:
                continue
            root = Cyc.root_of_unity(q, a)
            # Horner on T^-low current, which has current's nonzero roots.
            while len(cs) > 1 and reduce(lambda acc, c: acc * root + c,
                                         reversed(cs)).is_zero():
                lin = LaurentPoly(1, (), {((0,), ()): -root, ((1,), ()): 1})
                current, rem = current.divmod(lin)
                if rem:
                    raise InvariantError("a root leaves a nonzero remainder")
                cs = current.coefficients()[1]
                angles.append(Fraction(a, q))
    return sorted(angles), current


def numeric_roots(poly: LaurentPoly):
    """Numeric roots of a one-variable residual factor via the principal
    embedding, flagged non-exact by callers."""
    import numpy as np
    cs = [complex(c.value()) for c in poly.coefficients()[1]]
    return [complex(z) for z in np.roots(cs[::-1])]


# Largest torsion dual (the characters of Z/d_1 + ... + Z/d_t, d_1 ...
# d_t of them) whose members weights_and_inverses specializes the Fox
# matrix at, one by one: weights --K 2 on Z/120 + Z takes 3.8-5.6 s, on
# Z/128 + Z 7.3-12.4 s and on (Z/2)^7 + Z 2.8-3.7 s; above it, Z/240 + Z
# took 28 s and (Z/2)^8 + Z 10 s (Python 3.11, one core of a 2-core
# x86-64 host).
MAX_TORSION_DUALS = 128


def _all_torsion_duals(torsion):
    """Angle tuples of every character of Z/d_1 + ... + Z/d_t, sorted;
    refuses more than MAX_TORSION_DUALS of them before listing any."""
    if prod(torsion) > MAX_TORSION_DUALS:
        raise Refusal(f"a torsion dual of {prod(torsion)} characters is "
                      f"above the limit {MAX_TORSION_DUALS}")
    return [tuple(Fraction(c, d) for c, d in zip(cs, torsion))
            for cs in product(*(range(d) for d in torsion))]


def _candidate_points_rank_two(p: FinitePresentation, omega):
    """Finite candidate superset for weight points at free rank 2 via
    pairwise resultants of the corank-1 Fox minors.

    A nontrivial weight point is a common zero of every corank-1 minor,
    so its coordinates are roots of any nonzero pairwise resultant.
    Returns (candidate angle pairs, numeric flag, certified);
    certified=False means no nonzero eliminant was found, so finiteness
    could not be established this way."""
    fox_s = _specialized_fox(p, omega)
    g, r = p.generator_count, p.relator_count
    size = g - 1
    minors = []
    if 0 < size <= min(r, g):
        for rows in combinations(range(r), size):
            for cols in combinations(range(g), size):
                sub = [[fox_s[i][j] for j in cols] for i in rows]
                d = det_bareiss(sub)
                if not d.is_zero():
                    minors.append(d)
    if len(minors) < 2:
        return [], False, False
    axis_roots = []
    has_numeric = False
    for var in (0, 1):
        elim = None
        for a, b in combinations(range(len(minors)), 2):
            cand = resultant(minors[a], minors[b], 1 - var)
            if not cand.is_zero():
                elim = cand
                break
        if elim is None:
            return [], False, False
        angles, residual = cyclotomic_roots(elim)
        if residual.span >= 1:
            has_numeric = True
        axis_roots.append(sorted(set(angles)))
    cands = [(a0, a1) for a0 in axis_roots[0] for a1 in axis_roots[1]]
    return cands, has_numeric, True


class WeightsReport:
    def __init__(self, inverse_weights, numeric_weights, finite_dim,
                 identity_holds, max_order, detail=""):
        self.inverse_weights = inverse_weights  # W^{-1}, exact Characters
        # flagged, principal-embedding complex values
        self.numeric_weights = numeric_weights
        self.finite_dim = finite_dim    # "exact" | "scan-bounded" | "refused"
        self.identity_holds = identity_holds
        self.max_order = max_order
        self.detail = detail

    @property
    def weights(self):
        """W, the exact Characters: the inverses of inverse_weights, in
        sort_key order, as inverting is a bijection."""
        return sorted((c.inverse() for c in self.inverse_weights),
                      key=Character.sort_key)

    def serialize(self):
        return {
            "weights": [c.serialize() for c in self.weights],
            "inverse_weights": [c.serialize() for c in self.inverse_weights],
            "numeric_weights": [repr(z) for z in self.numeric_weights],
            "finite_dim": self.finite_dim,
            "identity_holds": self.identity_holds,
            "K": self.max_order,
            "detail": self.detail,
        }


def weights_and_inverses(p: FinitePresentation, degree_bound=2, max_order=6):
    """W (cohomology weights of the cover homology in degrees < bound),
    its inverse set, and the pointwise identity against the union of jump
    loci over a torsion scan.

    Exact for free rank 1 (invariant factors over the PID) and rank 2
    (resultant finiteness certificate); otherwise scan-bounded.
    """
    if degree_bound > 2:
        raise Refusal("degree bound above 2 is not supported for "
                      "presentation input")
    if degree_bound < 1:
        raise Refusal("degree bound must be at least 1")
    ab, _ = presentation_data(p)
    b = ab.free_rank
    if b == 0:
        raise Refusal("free rank zero input")
    # W^-1: the eigencharacters of the cover homology, whose inverses are
    # the cohomology weights; H^0 contributes the trivial one.
    inverse_weights = {Character.trivial(b, ab.torsion)}
    numeric = []
    finite_dim = "exact"
    detail = ""
    if degree_bound >= 2:
        # At free rank 1 the module's own Smith form decides finiteness.
        module = cover_homology_rank_one(p) if b == 1 else None
        if not (module.finite_dimensional if b == 1
                else _cover_module_is_torsion(p, ab)):
            raise Refusal(
                "cover homology is infinite-dimensional "
                "(positive-dimensional jump locus expected instead)")
        if b == 1:
            inverse_weights.update(
                Character.unitary(1, ab.torsion, (angle,), omega)
                for omega, angle in module.eigen_angles)
            numeric = [1 / z for z in module.numeric_eigenvalues if z != 0]
        elif b == 2:
            ok_all = True
            for omega in _all_torsion_duals(ab.torsion):
                cands, has_num, certified = _candidate_points_rank_two(p, omega)
                if not certified:
                    ok_all = False
                    break
                if has_num:
                    detail = "non-cyclotomic eliminant factors ignored (flagged)"
                for a0, a1 in cands:
                    chi = Character.unitary(2, ab.torsion, (a0, a1), tuple(omega))
                    if chi.is_trivial:
                        continue
                    if twisted_cohomology_dims(p, chi)[1] >= 1:
                        inverse_weights.add(chi)
            if not ok_all:
                finite_dim = "scan-bounded"
        else:
            finite_dim = "scan-bounded"
    hits = _sigma_union_hits(p, degree_bound, max_order)
    if finite_dim == "scan-bounded":
        inverse_weights.update(hits)
    identity = ({c for c in inverse_weights if c.order() <= max_order}
                == set(hits))
    return WeightsReport(sorted(inverse_weights, key=Character.sort_key),
                         numeric, finite_dim, identity, max_order, detail)


def _sigma_union_hits(p, degree_bound, max_order):
    """Hits of the union of V^d_1 over d < degree_bound, in order, from
    one scan: V^0_1 = {1}, and 1 lies in V^1_1 as h1(1) = b >= 1, since
    weights refuses b = 0 and by transfer a finite-index cover, as
    finite_locus_cover_check rescans, has b_cover >= b."""
    vectors = scan_sigma(p, degree_bound - 1, 1, max_order).vectors
    return [vectors.character(e) for e, _ in vectors.pairs]


def _cover_module_is_torsion(p, ab):
    """Generic-rank test, used at free rank b >= 2: the cover homology is
    a torsion module iff the Fox matrix has generic rank g - 1, that is
    h1 = 0, at the generic point of the full torus through each torsion
    dual (a nontrivial point, as b >= 1)."""
    return all(coset_dims(p, *_dual_torus(ab, omega))[1] == 0
               for omega in _all_torsion_duals(ab.torsion))


# ---------------------------------------------------------------------------
# Finite-locus cover check


class CoverCheckReport:
    def __init__(self, cover_generators, cover_index, surviving, max_order):
        self.cover_generators = cover_generators
        self.cover_index = cover_index
        # nontrivial torsion characters in the cover loci
        self.surviving = surviving
        self.max_order = max_order

    @property
    def trivial_cover(self):
        """Whether nothing was killed: a nontrivial character has an image
        of order >= 2, so the cover killing it has index >= 2."""
        return self.cover_index == 1

    @property
    def passed(self):
        """Whether only the trivial character survives in the cover."""
        return not self.surviving

    def serialize(self):
        return {
            "trivial_cover": self.trivial_cover,
            "cover_generators": self.cover_generators,
            "cover_index": self.cover_index,
            "surviving_nontrivial": [c.serialize() for c in self.surviving],
            "passed": self.passed,
            "K": self.max_order,
        }


def finite_locus_cover_check(p: FinitePresentation, degree_bound=2,
                             max_order=6):
    """Build the finite abelian cover killing every nontrivial character
    in the low-degree jump loci and verify that only the trivial
    character survives in the cover's loci (over the same scan order).
    The rescan is refused before it enumerates when the cover's torus has
    more than twisted.MAX_SCAN_CHARACTERS characters of order at most
    max_order."""
    report = weights_and_inverses(p, degree_bound, max_order)
    kill = [c for c in report.inverse_weights if not c.is_trivial]
    if report.numeric_weights:
        raise Refusal("numeric weights present; exact cover kill "
                      "set unavailable")
    cover, _, index = kill_cover(p, kill) if kill else (p, (), 1)
    surviving = [chi for chi in _sigma_union_hits(cover, degree_bound,
                                                  max_order)
                 if not chi.is_trivial]
    return CoverCheckReport(cover.generator_count, index, surviving,
                            max_order)
