"""Alexander modules of the maximal abelian cover: Fitting ideals,
module actions and weights, Koszul cohomology of commuting actions, the
vanishing/nonvanishing dichotomy, and the identity between inverse
weights and low-degree jump loci.

Conventions (recorded in the repo decisions): the module of the cover is
ker(d1)/im(d2) over the group ring, read from the Smith form of the Fox
matrix (see weights_and_inverses), the trivial weight contributed by
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
    size = p.generator_count - k
    if size <= 0:
        raise ValueError("minor size must be positive; k < g required")
    uniq = {}
    for d in _minors(fox, size,
                     lambda m: _det_laplace(m, ab.free_rank, ab.torsion)):
        m = d.content_normalize()
        uniq.setdefault(_poly_key(m), m)
    return [uniq[key] for key in sorted(uniq)]


def _minors(mat, size, det):
    """The nonzero size x size minors of mat by det, rows before columns
    in lexicographic order; none when size exceeds either dimension."""
    cols = len(mat[0]) if mat else 0
    for rows in combinations(range(len(mat)), size):
        for sub_cols in combinations(range(cols), size):
            d = det([[mat[i][j] for j in sub_cols] for i in rows])
            if not d.is_zero():
                yield d


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


class VanishingVerdict(Value):
    """The outcome of vanishing_check."""

    _fields = ("inverse_is_weight", "h_dims", "consistent")


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


def _dual_torus(ab, omega):
    """(directions, translate) of the full torus through the torsion-dual
    character omega: 1 on the free part, omega on the torsion."""
    b = ab.free_rank
    return identity(b), Character.unitary(b, ab.torsion, (0,) * b, omega)


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

    Orders q are tried upward, each cleared whole, with multiplicity.
    Conjugates over Q(zeta_c), c the conductor of poly, share their
    multiplicity, so the residual stays over Q(zeta_c), and a root of
    order q left in it has all its conjugates there: phi(q) <= B =
    span(residual) * phi(c).  As phi(q) >= sqrt(q / 2), the search ends
    once q passes 2 B^2 + 2 or the residual is a constant.
    """
    if poly.is_zero():
        raise ValueError("zero polynomial has every root")
    phi_c = euler_phi(lcm(*(c.n for c in poly.terms.values())))
    current, cs = poly, poly.coefficients()[1]
    angles = []
    q = 0
    while len(cs) > 1 and q <= 2 * ((len(cs) - 1) * phi_c) ** 2 + 1:
        q += 1
        if euler_phi(q) > (len(cs) - 1) * phi_c:
            continue
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


def _candidate_points_rank_two(minors):
    """Candidate angle pairs for the weight points over one torsion-dual
    character at free rank 2, from the nonzero (g - 1)-minors of the Fox
    matrix specialized there.

    A nontrivial weight point is a common zero of every such minor, so
    each of its coordinates is a root of any nonzero pairwise resultant
    that eliminates the other.  Returns (candidates, numeric flag), the
    flag set when an eliminant has roots that are not roots of unity, or
    None when there are fewer than two minors or a coordinate has no
    nonzero eliminant, so that no finite candidate set is known."""
    if len(minors) < 2:
        return None
    axis_roots = []
    has_numeric = False
    for var in (0, 1):
        for f, h in combinations(minors, 2):
            elim = resultant(f, h, 1 - var)
            if not elim.is_zero():
                break
        else:
            return None
        angles, residual = cyclotomic_roots(elim)
        has_numeric = has_numeric or residual.span >= 1
        axis_roots.append(sorted(set(angles)))
    return ([(a0, a1) for a0 in axis_roots[0] for a1 in axis_roots[1]],
            has_numeric)


class WeightsReport(Value):
    """inverse_weights is W^(-1) as exact Characters, numeric_weights the
    flagged principal-embedding complex values, and finite_dim "exact" or
    "scan-bounded"."""

    _fields = ("inverse_weights", "numeric_weights", "finite_dim",
               "identity_holds", "max_order", "detail")

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

    The cover homology splits along the finite dual (Maschke).  At bound 2
    the Fox matrix F is specialized once at each torsion-dual character
    omega, and one elimination of F says whether the cover homology over
    omega is finite-dimensional, for every omega before any weight is
    searched, and gives the weights:
    - free rank 1: F presents R^g / im d2 over the PID R =
      Q(zeta)[T, T^-1].  Its image im d1 is a nonzero ideal, so free of
      rank one, and ker d1 is a direct summand: R^g / im d2 = H1(cover) +
      R (Crowell).  So the cover homology is finite iff F has g - 1 Smith
      invariant factors, and is then the sum of the R/(f) over them, where
      a factor c T^k is a unit.  Their roots are its eigenvalues: exact
      where they are roots of unity, numeric (flagged) otherwise.
    - free rank 2: the generic rank of F is at most g - 1, because
      d1 d0 = 0 and d0 != 0 at the nontrivial generic point, and it is at
      least g - 1 iff some (g - 1)-minor of F is nonzero.  The pairwise
      resultants of those minors bound the candidate weight points
      (_candidate_points_rank_two), and each candidate is tested exactly.
    - free rank 3 and up: twisted.coset_dims ranks F, and the weights are
      the scan's hits ("scan-bounded"), as they are at free rank 2 from the
      first omega whose minors bound no candidate set.
    """
    if degree_bound > 2:
        raise Refusal("degree bound above 2 is not supported for "
                      "presentation input")
    if degree_bound < 1:
        raise Refusal("degree bound must be at least 1")
    ab, _ = presentation_data(p)
    b, g = ab.free_rank, p.generator_count
    if b == 0:
        raise Refusal("free rank zero input")
    # W^-1: the eigencharacters of the cover homology, whose inverses are
    # the cohomology weights; H^0 contributes the trivial one.
    inverse_weights = {Character.trivial(b, ab.torsion)}
    numeric = []
    duals = _all_torsion_duals(ab.torsion) if degree_bound >= 2 else []
    finite_dim = "scan-bounded" if degree_bound >= 2 and b >= 3 else "exact"
    detail = ""
    eliminated = []     # (omega, invariant factors at b = 1, minors at b = 2)
    for omega in duals:
        if b >= 3:
            finite = coset_dims(p, *_dual_torus(ab, omega))[1] == 0
        elif b == 1:
            found = smith_invariants(fox_on_coset(p, *_dual_torus(ab, omega)))
            if len(found) > g - 1:
                raise InvariantError("Fox matrix rank exceeds g - 1")
            finite = len(found) == g - 1
        else:
            found = list(_minors(fox_on_coset(p, *_dual_torus(ab, omega)),
                                 g - 1, det_bareiss))
            finite = bool(found)
        if not finite:
            raise Refusal(
                "cover homology is infinite-dimensional "
                "(positive-dimensional jump locus expected instead)")
        if b <= 2:
            eliminated.append((omega, found))
    for omega, found in eliminated:
        if b == 1:
            for f in found:
                if f.span == 0:                 # c T^k is a unit of R
                    continue
                angles, residual = cyclotomic_roots(f)
                inverse_weights.update(
                    Character.unitary(1, ab.torsion, (a,), omega)
                    for a in angles)
                if residual.span >= 1:
                    numeric.extend(1 / z for z in numeric_roots(residual)
                                   if z != 0)
            continue
        search = _candidate_points_rank_two(found)
        if search is None:
            finite_dim = "scan-bounded"
            break
        cands, has_numeric = search
        if has_numeric:
            detail = "non-cyclotomic eliminant factors ignored (flagged)"
        for a0, a1 in cands:
            chi = Character.unitary(2, ab.torsion, (a0, a1), omega)
            if not chi.is_trivial and twisted_cohomology_dims(p, chi)[1] >= 1:
                inverse_weights.add(chi)
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


# ---------------------------------------------------------------------------
# Finite-locus cover check


class CoverCheckReport(Value):
    """surviving lists the nontrivial torsion characters in the cover loci."""

    _fields = ("cover_generators", "cover_index", "surviving", "max_order")

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
