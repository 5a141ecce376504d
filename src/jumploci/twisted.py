"""Twisted cohomology of a presentation at exact characters, and fast
exhaustive membership scans over torsion characters.

The cochain complex of the presentation 2-complex at a character chi is
C^0 -> C^1 -> C^2 with d0 = (chi(x_j) - 1) and d1 the Fox matrix
evaluated at chi.  Degree-2 answers are only defined when the input is
flagged aspherical.

Scans certify non-membership through rank over F_p, p = 1 (mod n) for n
the lcm of the character orders in play: a minor that is nonzero mod p
lifts to a nonzero cyclotomic minor, so "full rank mod p" is an exact
certificate.  Candidate members are confirmed with exact cyclotomic
elimination, so reported memberships are always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .characters import Character, enumerate_torsion_characters
from .cyclotomic import Cyc
from .errors import InvariantError
from .linalg import rank_exact
from .numutil import first_prime_congruent_one, lcm_all, primitive_root_mod
from .presentation import FinitePresentation, abelianize, fox_matrix


class DegreeError(ValueError):
    """Raised for degree-2 requests on inputs not flagged aspherical."""


@lru_cache(maxsize=None)
def presentation_data(p: FinitePresentation):
    ab = abelianize(p)
    fox = fox_matrix(p, ab)
    return ab, fox


def coboundary_matrices(p: FinitePresentation, chi: Character):
    """(d0 entries, d1 matrix) of the twisted complex at chi, as Cyc."""
    ab, fox = presentation_data(p)
    gen_vals = [chi.value(f, t) for f, t in ab.gen_images]
    d0 = [v - Cyc.one() for v in gen_vals]
    free_vals = [Cyc.from_angle(a) * m for a, m in zip(chi.angles, chi.moduli)]
    tors_vals = chi.torsion_values()
    d1 = [[e.evaluate(free_vals, tors_vals) for e in row] for row in fox]
    return d0, d1


def twisted_cohomology_dims(p: FinitePresentation, chi: Character,
                            include_h2=None):
    """(h0, h1) and, for aspherical inputs, (h0, h1, h2) at chi."""
    if include_h2 is None:
        include_h2 = p.aspherical
    if include_h2 and not p.aspherical:
        raise DegreeError("H^2 undefined for this input")
    d0, d1 = coboundary_matrices(p, chi)
    for row in d1:
        if sum((a * b for a, b in zip(row, d0)), Cyc.zero()):
            raise InvariantError("d1 after d0 does not vanish")
    g = p.generator_count
    r = p.relator_count
    h0 = 1 if chi.is_trivial else 0
    rank_d1 = rank_exact(d1) if r else 0
    h1 = (g - rank_d1) - (1 - h0)
    if h1 < 0:
        raise InvariantError(f"negative h1 = {h1}")
    if include_h2:
        h2 = r - rank_d1
        return (h0, h1, h2)
    return (h0, h1)


def sigma_membership(p: FinitePresentation, chi: Character, degree, mult):
    """Whether dim H^degree(chi) >= mult."""
    if mult < 1:
        raise ValueError("multiplicity must be at least 1")
    if degree == 0:
        return chi.is_trivial and mult <= 1
    if degree == 1:
        return twisted_cohomology_dims(p, chi, include_h2=False)[1] >= mult
    if degree == 2:
        if not p.aspherical:
            raise DegreeError("H^2 undefined for this input")
        return twisted_cohomology_dims(p, chi)[2] >= mult
    raise DegreeError(f"degree {degree} out of range for presentations")


# ---------------------------------------------------------------------------
# Fast scanning


@dataclass
class ScanResult:
    hits: list          # (Character, dims tuple) pairs, canonical order
    scanned: int
    max_order: int


class _ModularEvaluator:
    """Evaluates Fox matrix entries at torsion characters over F_p.

    Exponent vectors are pre-flattened to sparse (index, exponent) pairs;
    only structurally nonzero entries are visited per character.
    """

    def __init__(self, p: FinitePresentation, max_order):
        ab, fox = presentation_data(p)
        self.ab = ab
        orders = [k for k in range(1, max_order + 1)] + list(ab.torsion)
        self.n = lcm_all(orders, start=1)
        self.prime = first_prime_congruent_one(self.n)
        g = primitive_root_mod(self.prime)
        w = pow(g, (self.prime - 1) // self.n, self.prime)
        self.root_powers = [1] * self.n
        for e in range(1, self.n):
            self.root_powers[e] = self.root_powers[e - 1] * w % self.prime
        b = ab.free_rank
        # Per row: list of (col, [(coeff, sparse exps over combined coords)]).
        self.rows_struct = []
        for row in fox:
            srow = []
            for col, e in enumerate(row):
                if e.is_zero():
                    continue
                terms = []
                for (v, t), c in e.sorted_terms():
                    q = c.rational_value()
                    if q.denominator != 1:
                        raise InvariantError("Fox coefficient is not an integer")
                    sparse = ([(j, x) for j, x in enumerate(v) if x]
                              + [(b + j, x) for j, x in enumerate(t) if x])
                    terms.append((int(q), sparse))
                srow.append((col, terms))
            self.rows_struct.append(srow)

    def matrix_rows(self, chi: Character):
        """Sparse rows {col: value mod p} of d1 at chi."""
        n, prime = self.n, self.prime
        powers = self.root_powers
        na = [int(a * n) for a in chi.angles] + [int(a * n) for a in chi.tors_angles]
        rows = []
        for srow in self.rows_struct:
            row = {}
            for col, terms in srow:
                val = 0
                for coeff, sparse in terms:
                    e = 0
                    for j, x in sparse:
                        e += x * na[j]
                    val += coeff * powers[e % n]
                val %= prime
                if val:
                    row[col] = val
            rows.append(row)
        return rows


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
                inv = pow(row[col], prime - 2, prime)
                del row[col]
                pivots[col] = {c: v * inv % prime for c, v in row.items()}
                rank += 1
                if stop_at is not None and rank >= stop_at:
                    return rank
                row = {}
    return rank


def scan_sigma(p: FinitePresentation, degree, mult, max_order, workers=None):
    """Exact hit list of the degree/mult jump locus over all torsion
    characters of order <= max_order.

    With workers > 1 (default from JUMPLOCI_WORKERS) the character list
    is split into contiguous chunks scanned by a process pool and merged
    back in canonical order, so the result is independent of the worker
    count."""
    import os
    ab, _ = presentation_data(p)
    chars = enumerate_torsion_characters(ab.free_rank, ab.torsion, max_order)
    if degree == 0:
        hits = [(chi, twisted_cohomology_dims(p, chi, include_h2=False))
                for chi in chars if chi.is_trivial and mult <= 1]
        return ScanResult(hits, len(chars), max_order)
    if degree == 2 and not p.aspherical:
        raise DegreeError("H^2 undefined for this input")
    if workers is None:
        workers = int(os.environ.get("JUMPLOCI_WORKERS", "1"))
    if workers > 1 and len(chars) >= 4 * workers and p.relator_count:
        import multiprocessing as mp
        size = (len(chars) + workers - 1) // workers
        chunks = [chars[i:i + size] for i in range(0, len(chars), size)]
        ctx = mp.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_scan_chunk,
                             [(p, degree, mult, max_order, chunk)
                              for chunk in chunks])
        hits = [pair for part in parts for pair in part]
        return ScanResult(hits, len(chars), max_order)
    hits = _scan_chunk((p, degree, mult, max_order, chars))
    return ScanResult(hits, len(chars), max_order)


def _scan_chunk(args):
    p, degree, mult, max_order, chars = args
    g, r = p.generator_count, p.relator_count
    hits = []
    if r == 0:
        # Free groups: d1 is empty, h1 = g - (1 - h0).
        for chi in chars:
            h0 = 1 if chi.is_trivial else 0
            h1 = g - (1 - h0)
            if degree == 1 and h1 >= mult:
                hits.append((chi, (h0, h1)))
        return hits
    evaluator = _modular_evaluator_cached(p, max_order)
    prime = evaluator.prime
    for chi in chars:
        if degree == 1:
            h0 = 1 if chi.is_trivial else 0
            threshold = g - mult - (1 - h0)   # member iff rank d1 <= threshold
        else:
            threshold = r - mult
        if threshold < 0:
            continue
        rows = evaluator.matrix_rows(chi)
        rank_p = _rank_mod_p(rows, prime, stop_at=threshold + 1)
        if rank_p > threshold:
            continue  # exact non-membership certificate
        dims = twisted_cohomology_dims(p, chi, include_h2=p.aspherical)
        value = dims[degree] if degree < len(dims) else 0
        if value >= mult:
            hits.append((chi, dims))
    return hits


@lru_cache(maxsize=8)
def _modular_evaluator_cached(p, max_order):
    return _ModularEvaluator(p, max_order)


def numeric_unitary_scan(p: FinitePresentation, degree, mult, samples, seed,
                         tol=1e-8):
    """Flagged numeric fallback: random unitary characters, SVD rank.

    Returns characters (as angle tuples) whose numeric rank drop suggests
    membership; results are candidates, never certificates.
    """
    import cmath
    import random as _random

    import numpy as np

    ab, fox = presentation_data(p)
    rng = _random.Random(seed)
    g = p.generator_count
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
            rank = int((sv > tol * max(1.0, sv[0])).sum())
        h0 = 0
        h1 = (g - rank) - 1
        value = {0: h0, 1: h1, 2: p.relator_count - rank}.get(degree, 0)
        if value >= mult:
            found.append({"angles": [str(a) for a in angles],
                          "torsion": [str(a) for a in tors],
                          "flag": "numeric"})
    return found


def _numeric_eval(poly, free_vals, tors_vals):
    total = 0j
    for (v, t), c in poly.terms.items():
        val = complex(c.value())
        for x, e in zip(free_vals, v):
            if e:
                val *= x ** e
        for x, e in zip(tors_vals, t):
            if e:
                val *= x ** e
        total += val
    return total
