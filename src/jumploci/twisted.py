"""Twisted cohomology of a presentation at exact characters, and fast
exhaustive membership scans over torsion characters.

The cochain complex of the presentation 2-complex at a character chi is
C^0 -> C^1 -> C^2 with d0 = (chi(x_j) - 1) and d1 the Fox matrix
evaluated at chi.  Degree-2 answers are only defined when the input is
flagged aspherical (check_query).  Every dimension comes from rank d1
by one rule, dims_from_rank: h0 = [chi = 1], as d0 = 0 exactly there;
h1 = g - rank - (1 - h0), as rank d0 = 1 - h0; and, on aspherical input,
h2 = r - rank.  So h1 and h2 fall by one per unit of rank.

Scans rank d1 over F_p, p = 1 (mod n) for n the lcm of the character
orders in play, through the ring map Z[zeta_n] -> F_p sending zeta_n to
an element w of order n; its kernel is a prime P above p.  Two facts
make these ranks exact certificates.

* A minor that is nonzero mod P is nonzero in Z[zeta_n], so the mod-P
  rank never exceeds the exact rank: "rank above the membership
  threshold mod p" certifies non-membership at any such prime.  The
  filter prime, the first p = 1 (mod n) above 10^6, rejects with it.
* At a character chi of order k the entries of d1 lie in Z[zeta_k].  If
  the mod-P rank is below the exact rank rho, some rho-minor D is
  nonzero but lies in P, hence in the prime P meet Z[zeta_k] of residue
  field F_p, so p divides the nonzero integer N(D), the product of the
  phi(k) Galois conjugates of D.  Each conjugate is the same minor of d1
  at a conjugate character, still unitary, so each entry is bounded by
  the L1 norm of the Fox entry's coefficients, and Hadamard's inequality
  bounds the conjugate by the product of the rho largest row 2-norms of
  that L1 matrix L.  With H^2 the product of the min(r, g) largest
  squared row norms of L, each taken as at least 1, 0 < |N(D)| <=
  H^phi(k).  Every scanned character has order at most K, so a prime
  with p^2 > (H^2)^phimax, phimax = max phi(k) over k <= K, cannot
  divide N(D): its mod-P rank is the exact rank, and so are the dims
  read from it (von zur Gathen and Gerhard, Modern Computer Algebra,
  ch. 5).

A scan's certifying prime is the filter prime when that prime already
clears the bound; otherwise the smallest p = 1 (mod n) that does, at
which only the filter's candidates are reranked.  When that prime would
lie past numutil.IS_PRIME_LIMIT, candidates are confirmed by exact
cyclotomic elimination (twisted_cohomology_dims) instead.  The Fox
identity behind d1 d0 = 0 is checked once per presentation, in the
group ring, by presentation_data.

A scan walks the exponent vectors of the characters module, whose
modulus is the evaluator's n: the value zeta_n^(e . h) of the character
e at h in H1 maps to w^(e . h).

The mod-p scan ranks one point per orbit of (Z/n)^x on those vectors,
the orbit's least vector, and gives its dims to the whole orbit.  One
representative is enough.  The Fox entries have integer coefficients,
so d1 at u.e is sigma_u(d1 at e) for the automorphism sigma_u: zeta_n ->
zeta_n^u of Q(zeta_n); sigma_u preserves rank, and u.e is trivial iff e
is, so the exact dims are constant on the orbit.  The filter is one
sided: its rejection of the representative proves the representative's
exact rank, hence every member's, above the threshold.  The Hadamard
bound above depends on the character only through its order k, which
every member shares, so the certifying-prime rank of the representative
is its exact rank and the orbit's.  The fallback through
twisted_cohomology_dims is exact at the representative anyway.

Before enumerating, a scan counts its characters exactly
(characters.count_torsion_characters) and refuses above
MAX_SCAN_CHARACTERS.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .characters import (Character, ExponentMembers,
                         count_torsion_characters,
                         enumerate_torsion_characters, is_orbit_representative,
                         orbit_members, torsion_modulus)
from .cyclotomic import Cyc
from .errors import InvariantError, Refusal
from .linalg import rank_exact
from .numutil import euler_phi, factorint, first_prime_congruent_one
from .presentation import (FinitePresentation, abelianize, fox_matrix,
                           fox_row_identity_holds)


# Largest torsion scan scan_sigma runs, in characters.  A scan holds one
# exponent vector per character, and every member of a dense locus adds
# coset-growth state and a report entry, so peak memory grows with the
# count.  analyze surface3 --K 6 (66,312 characters, all members, a 24 MB
# report) peaks at 83 MB RSS in 2.9 s (median of 3; Python 3.11, one core
# of a 2-core x86-64 host); at this limit, linearly, a dense scan peaks
# near 125 MB.  Above it: thm4 square_comm --K 4 rescans 281,826
# characters of a Z^9 cover, which peaked at 823 MB writing a 74 MB
# report, and analyze product23 --K 4 asks for 1,107,624.
MAX_SCAN_CHARACTERS = 100_000


def check_query(p: FinitePresentation, degree, mult):
    """Refuse a degree outside 0..2, H^2 on input not flagged aspherical,
    and a multiplicity below 1, which every character would meet."""
    if degree not in (0, 1, 2):
        raise Refusal(f"degree {degree} out of range for presentations")
    if degree == 2 and not p.aspherical:
        raise Refusal("H^2 undefined for this input")
    if mult < 1:
        raise Refusal("multiplicity must be at least 1")


@lru_cache(maxsize=None)
def presentation_data(p: FinitePresentation):
    """(abelianization, Fox matrix) of p, built once per presentation.

    Raises InvariantError unless every Fox row satisfies the fundamental
    identity sum_j (dr/dx_j)(x_j - 1) = 0 in Z[H1].  Evaluation at a
    character is a ring map, so the identity gives d1 d0 = 0 at every
    character at once."""
    ab = abelianize(p)
    fox = fox_matrix(p, ab)
    if not all(fox_row_identity_holds(row, ab) for row in fox):
        raise InvariantError("Fox identity fails in Z[H1]")
    return ab, fox


def coboundary_matrices(p: FinitePresentation, chi: Character):
    """(d0 entries, d1 matrix) of the twisted complex at chi, as Cyc."""
    ab, fox = presentation_data(p)
    gen_vals = [chi.value(f, t) for f, t in ab.gen_images]
    d0 = [v - Cyc.one() for v in gen_vals]
    free_vals = chi.free_values()
    tors_vals = chi.torsion_values()
    d1 = [[e.evaluate(free_vals, tors_vals) for e in row] for row in fox]
    return d0, d1


def twisted_cohomology_dims(p: FinitePresentation, chi: Character):
    """(h0, h1) and, for aspherical inputs, (h0, h1, h2) at chi."""
    d0, d1 = coboundary_matrices(p, chi)
    for row in d1:
        if sum((a * b for a, b in zip(row, d0)), Cyc.zero()):
            raise InvariantError("d1 after d0 does not vanish")
    rank_d1 = rank_exact(d1) if p.relator_count else 0
    return dims_from_rank(p, chi.is_trivial, rank_d1)


def dims_from_rank(p: FinitePresentation, trivial, rank_d1):
    """twisted_cohomology_dims at a character where d1 has rank rank_d1,
    by the rule in the module docstring."""
    h0 = 1 if trivial else 0
    h1 = (p.generator_count - rank_d1) - (1 - h0)
    if h1 < 0:
        raise InvariantError(f"negative h1 = {h1}")
    if p.aspherical:
        return (h0, h1, p.relator_count - rank_d1)
    return (h0, h1)


def sigma_membership(p: FinitePresentation, chi: Character, degree, mult):
    """Whether dim H^degree(chi) >= mult."""
    check_query(p, degree, mult)
    return twisted_cohomology_dims(p, chi)[degree] >= mult


# ---------------------------------------------------------------------------
# Fast scanning


class ScanResult:
    """Hits of a scan, with the primes behind them (kept out of reports).

    vectors holds the hits as ExponentMembers, and hits builds their
    (Character, dims) pairs on each read, for library callers.
    filter_prime certified every rejection; certifying_prime gave the
    hits' dims.  Both are None when nothing was ranked mod p (degree 0,
    or no relators), and certifying_prime is None when the scan fell back
    to exact elimination."""

    def __init__(self, vectors, scanned, max_order, filter_prime=None,
                 certifying_prime=None, ranked=0):
        self.vectors = vectors
        self.scanned = scanned
        self.max_order = max_order
        self.filter_prime = filter_prime
        self.certifying_prime = certifying_prime
        self.ranked = ranked    # orbit representatives ranked mod p

    @property
    def hits(self):
        return self.vectors.characters()


class _ModularEvaluator:
    """Evaluates Fox matrix entries at torsion characters over F_p.

    Each distinct monomial of the Fox matrix is pre-flattened to sparse
    (index, exponent) pairs and evaluated once per character; an entry is
    then an integer combination of those values, and only structurally
    nonzero entries are visited.  The evaluator carries the filter prime
    and the certifying prime of the module docstring (None when that
    prime would be past the deterministic primality range), with the
    powers of an order-n root of unity mod each.
    """

    def __init__(self, fox, free_rank, torsion, max_order):
        self.n = torsion_modulus(max_order, torsion)
        monomials = {}  # sparse exps over combined coords -> index
        # Per row: list of (col, [(coeff, monomial index)]).
        self.rows_struct = []
        norms_sq = []   # squared row 2-norms of the coefficient-L1 matrix
        for row in fox:
            srow = []
            norm_sq = 0
            for col, e in enumerate(row):
                if e.is_zero():
                    continue
                terms = []
                for (v, t), c in e.sorted_terms():
                    q = c.rational_value() if c.is_rational() else None
                    if q is None or q.denominator != 1:
                        raise InvariantError("Fox coefficient is not an integer")
                    sparse = (tuple((j, x) for j, x in enumerate(v) if x)
                              + tuple((free_rank + j, x)
                                      for j, x in enumerate(t) if x))
                    terms.append((int(q), monomials.setdefault(
                        sparse, len(monomials))))
                srow.append((col, terms))
                norm_sq += sum(abs(c) for c, _ in terms) ** 2
            self.rows_struct.append(srow)
            norms_sq.append(norm_sq)
        self.monomials = list(monomials)
        self.prime = first_prime_congruent_one(self.n)
        size = min(len(fox), len(fox[0])) if fox else 0
        self.certifying_prime = _certifying_prime(
            self.n, norms_sq, size, max_order, self.prime)
        self.root_powers = {q: _root_powers(q, self.n)
                            for q in {self.prime, self.certifying_prime}
                            if q is not None}

    def matrix_rows(self, e, prime):
        """Sparse rows {col: value mod prime} of d1 at the character with
        exponent vector e."""
        n = self.n
        powers = self.root_powers[prime]
        values = []
        for sparse in self.monomials:
            exp = 0
            for j, x in sparse:
                exp += x * e[j]
            values.append(powers[exp % n])
        rows = []
        for srow in self.rows_struct:
            row = {}
            for col, terms in srow:
                val = 0
                for coeff, m in terms:
                    val += coeff * values[m]
                val %= prime
                if val:
                    row[col] = val
            rows.append(row)
        return rows


def _certifying_prime(n, norms_sq, size, max_order, filter_prime):
    """Smallest prime p = 1 (mod n) with p^2 > (H^2)^phimax, preferring
    filter_prime when it qualifies; None past the primality range.

    H^2 is the product of the `size` largest squared row norms, each
    taken as at least 1 so that a zero row cannot make the bound 0."""
    h_sq = 1
    for s in sorted(norms_sq, reverse=True)[:size]:
        h_sq *= max(1, s)
    phi_max = max(euler_phi(k) for k in range(1, max_order + 1))
    floor = isqrt(h_sq ** phi_max)     # p^2 > (H^2)^phimax iff p > floor
    if filter_prime > floor:
        return filter_prime
    try:
        return first_prime_congruent_one(n, floor)
    except Refusal:
        return None


def _root_powers(prime, n):
    """[w^0, ..., w^(n-1)] for an element w of order exactly n mod prime.

    w = a^((prime-1)/n) has order dividing n, and exactly n unless
    w^(n/q) = 1 for a prime q | n, so only n is factored, never prime - 1.
    """
    cofactor = (prime - 1) // n
    qs = factorint(n)
    a = 2
    while True:
        w = pow(a, cofactor, prime)
        if all(pow(w, n // q, prime) != 1 for q in qs):
            break
        a += 1
    powers = [1] * n
    for e in range(1, n):
        powers[e] = powers[e - 1] * w % prime
    return powers


def _rank_mod_p(rows, prime, stop_at=None):
    """Rank of sparse rows over F_p, stopping early at stop_at pivots.

    Rows are consumed smallest first, which keeps the elimination cheap on
    the mostly sparse Fox matrices of product presentations.
    """
    pivots = {}
    rank = 0
    for row in sorted(rows, key=len):
        row = dict(row)
        while row:
            col = min(row)
            if col in pivots:
                factor = row.pop(col)
                for c, v in pivots[col].items():
                    if c in row:
                        nv = (row[c] - factor * v) % prime
                        if nv:
                            row[c] = nv
                        else:
                            del row[c]
                    else:
                        row[c] = (-factor * v) % prime
            else:
                inv = pow(row[col], -1, prime)
                del row[col]
                pivots[col] = {c: v * inv % prime for c, v in row.items()}
                rank += 1
                if stop_at is not None and rank >= stop_at:
                    return rank
                row = {}
    return rank


def scan_sigma(p: FinitePresentation, degree, mult, max_order):
    """Exact hit list of the degree/mult jump locus over all torsion
    characters of order <= max_order.

    The scan walks exponent vectors, ranking one per Galois orbit (module
    docstring), and keeps its hits as vectors."""
    check_query(p, degree, mult)
    ab, _ = presentation_data(p)
    b, torsion = ab.free_rank, ab.torsion
    count = count_torsion_characters(b, torsion, max_order)
    if count > MAX_SCAN_CHARACTERS:
        raise Refusal(f"scan of {count} characters is above the "
                      f"limit {MAX_SCAN_CHARACTERS}")
    points = enumerate_torsion_characters(b, torsion, max_order)
    n = torsion_modulus(max_order, torsion)
    found = []          # (exponent vector, dims)
    primes = ()
    ranked = 0
    if degree == 0:
        # h0 = [chi = 1] whatever the rank, and mult >= 1.
        if mult == 1:
            trivial = Character.trivial(b, torsion)
            found.append((points[0], twisted_cohomology_dims(p, trivial)))
    elif not p.relator_count:
        # Free groups: d1 is empty, so every dim follows from rank 0.
        for e in points:
            dims = dims_from_rank(p, not any(e), 0)
            if dims[degree] >= mult:
                found.append((e, dims))
    else:
        evaluator = _modular_evaluator_cached(p, max_order)
        prime, cert = primes = (evaluator.prime, evaluator.certifying_prime)
        # h^degree falls by one per unit of rank d1: a point is a member
        # iff its rank is at most its h^degree at rank 0, minus mult.
        # points[0] is the trivial character and no later point is.
        thresholds = {trivial: dims_from_rank(p, trivial, 0)[degree] - mult
                      for trivial in {not any(e) for e in points[:2]}}
        for e in points:
            trivial = not any(e)
            threshold = thresholds[trivial]
            if threshold < 0 or not is_orbit_representative(e, n):
                continue
            ranked += 1
            rank = _rank_mod_p(evaluator.matrix_rows(e, prime), prime,
                               stop_at=threshold + 1)
            if rank > threshold:
                continue  # exact non-membership certificate
            if cert is None:
                chi = Character.from_exponents(b, torsion, e, n)
                dims = twisted_cohomology_dims(p, chi)
            else:
                if cert != prime:
                    rank = _rank_mod_p(evaluator.matrix_rows(e, cert), cert)
                dims = dims_from_rank(p, trivial, rank)
            if dims[degree] >= mult:
                found.extend((member, dims) for member in orbit_members(e, n))
        found.sort()
    return ScanResult(ExponentMembers(b, torsion, n, found), len(points),
                      max_order, *primes, ranked=ranked)


@lru_cache(maxsize=8)
def _modular_evaluator_cached(p, max_order):
    ab, fox = presentation_data(p)
    return _ModularEvaluator(fox, ab.free_rank, ab.torsion, max_order)


# Singular values below this fraction of the largest (or of 1, if that is
# larger) count as zero in the numeric fallback's rank.
NUMERIC_RANK_TOL = 1e-8


def numeric_unitary_scan(p: FinitePresentation, degree, mult, samples, seed):
    """Flagged numeric fallback: random unitary characters, SVD rank.

    Returns characters (as angle tuples) whose numeric rank drop suggests
    membership; results are candidates, never certificates.
    """
    import cmath
    import random as _random

    import numpy as np

    check_query(p, degree, mult)
    ab, fox = presentation_data(p)
    rng = _random.Random(seed)
    found = []
    for _ in range(samples):
        angles = tuple(Fraction(rng.randint(0, 10 ** 6), 10 ** 6)
                       for _ in range(ab.free_rank))
        tors = tuple(Fraction(rng.randrange(d), d) for d in ab.torsion)
        free_vals = [cmath.exp(2j * cmath.pi * float(a)) for a in angles]
        tors_vals = [cmath.exp(2j * cmath.pi * float(a)) for a in tors]
        mat = np.array([[_numeric_eval(e, free_vals, tors_vals) for e in row]
                        for row in fox], dtype=complex)
        if mat.size == 0:
            rank = 0
        else:
            sv = np.linalg.svd(mat, compute_uv=False)
            rank = int((sv > NUMERIC_RANK_TOL * max(1.0, sv[0])).sum())
        trivial = not any(angles) and not any(tors)
        if dims_from_rank(p, trivial, rank)[degree] >= mult:
            found.append({"angles": [str(a) for a in angles],
                          "torsion": [str(a) for a in tors],
                          "flag": "numeric"})
    return found


def _numeric_eval(poly, free_vals, tors_vals):
    total = 0j
    for (v, t), c in poly.terms.items():
        val = complex(c.value())
        for x, e in zip(free_vals + tors_vals, v + t):
            if e:
                val *= x ** e
        total += val
    return total
