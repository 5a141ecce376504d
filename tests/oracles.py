"""Reference checks that tests compare the program against.

None of these is on a path the CLI or the library takes; each is an
independent statement of a property the program's results must have.
"""

import cmath
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

import jumploci.alexander as alexander
from jumploci import words
from jumploci.cyclotomic import Cyc, is_root_of_unity
from jumploci.discovery import restrict_subtorus_to_cover, transport_character
from jumploci.intlinalg import identity
from jumploci.laurent import LaurentPoly, rank_generic
from jumploci.linalg import koszul_differential, koszul_dims, rank_exact
from jumploci.presentation import permuted_inverted
from jumploci.twisted import presentation_data, scan_sigma


def fitting_chain_holds(p, k):
    """E_k lies in E_{k+1}: first-column Laplace expansion writes every
    (g-k)-minor as a group-ring combination of its cofactors, so it
    suffices that each nonzero cofactor, content-normalized, is one of
    fitting_generators(p, k + 1)."""
    ab, fox = presentation_data(p)
    g, r = p.generator_count, p.relator_count
    size = g - k
    if size <= 1 or size > min(r, g):
        return True
    smaller = {alexander._poly_key(m)
               for m in alexander.fitting_generators(p, k + 1)}
    for rows in combinations(range(r), size):
        for cols in combinations(range(g), size):
            for i in rows:
                if fox[i][cols[0]].is_zero():
                    continue
                minor = [[fox[rr][cc] for cc in cols[1:]]
                         for rr in rows if rr != i]
                d = alexander._det_laplace(minor, ab.free_rank, ab.torsion)
                if (not d.is_zero()
                        and alexander._poly_key(d.content_normalize())
                        not in smaller):
                    return False
    return True


def translate_root_of_unity_check(sub):
    """Every coordinate value of a subtorus's translate passes the
    root-of-unity test (trivially true for exact unitary data)."""
    tau = sub.translate
    return all(is_root_of_unity(Cyc.from_angle(a))[0]
               for a in tau.angles + tau.tors_angles)


def embeddings(x: Cyc):
    """Numeric values of x under all phi(n) complex embeddings."""
    out = []
    for a in range(1, x.n + 1):
        if gcd(a, x.n) == 1:
            z = cmath.exp(2j * cmath.pi * a / x.n)
            out.append(sum(complex(c) * z ** i for i, c in enumerate(x.coeffs)))
    return out or [complex(x.coeffs[0])]


def tietze_transport(p, perm, signs):
    """(variant presentation, generator words) for a permute/invert
    Tietze move; generator j of the variant equals the returned word in
    the original generators, so subtori and characters transport through
    restrict_subtorus_to_cover / transport_character."""
    variant = permuted_inverted(p, perm, signs)
    gen_words = tuple(words.generator(perm[j], signs[j])
                      for j in range(p.generator_count))
    return variant, gen_words


def reports_agree_after_transport(p, report, variant, variant_report,
                                  gen_words, max_order):
    """Whether two discovery reports describe the same locus after the
    coordinate change induced by generator words."""
    ab, _ = presentation_data(p)
    moved_members = {transport_character(chi, ab, variant, gen_words).sort_key()
                     for chi, _dims in report.members}
    their_members = {chi.sort_key() for chi, _dims in variant_report.members}
    if moved_members != their_members:
        return False
    moved = sorted(_coset_key(restrict_subtorus_to_cover(
        c.subtorus, ab, variant, gen_words), c.status, max_order)
        for c in report.components)
    theirs = sorted(_coset_key(c.subtorus, c.status, max_order)
                    for c in variant_report.components)
    return moved == theirs


def _coset_key(sub, status, max_order):
    """A coset named by its annihilator and its least torsion point of
    order <= max_order (its translate when it has none), with a status."""
    points = sub.torsion_points(max_order)
    least = points[0] if points else sub.translate
    return sub.annihilator, least.sort_key(), status


def lattice_cohomology_dims_bareiss(x, rho):
    """Betti numbers of the lattice Z^(2n) with coefficients in the
    rank-one system rho, from the generic ranks of its Koszul
    differentials.

    Values exp(q_j) zeta live in Q(zeta)[e^(1/D)] with e^(1/D) treated as
    a Laurent variable; transcendence makes generic rank exact: a nonzero
    rational function cannot vanish at a transcendental point."""
    if rho.rank != 2 * x.n:
        raise ValueError("character rank does not match the lattice")
    den = lcm(*(q.denominator for q in rho.log_moduli))
    values = []
    for q, a in zip(rho.log_moduli, rho.angles):
        coeff = Cyc.from_angle(a)
        exp_int = int(q * den)
        values.append(LaurentPoly.monomial(((exp_int,), ()), 1, coeff=coeff))
    one = LaurentPoly.one(1)
    ops = [[[v - one]] for v in values]
    return koszul_dims(ops, 1, LaurentPoly.zero(1), rank_generic)


def higgs_cohomology_dim_koszul(x, h, p, q):
    """dim of the (p, q) cohomology of a Higgs pair from the exact ranks
    of wedging with theta, Lambda^k W* -> Lambda^(k+1) W*: the Koszul
    differentials of the scalars theta_j, tensored with Lambda^q Wbar*.
    A nontrivial flat part gives zero, as every Dolbeault group of a
    nontrivial flat bundle on a torus vanishes."""
    n = x.n
    if not h.flat_is_trivial:
        return 0
    i_unit = Cyc.root_of_unity(4)
    ops = [[[Cyc.rational(re) + i_unit * im]] for re, im in h.theta]
    ranks = [rank_exact(koszul_differential(ops, k, Cyc.zero()))
             for k in range(n)]
    lost = sum(ranks[k] for k in (p - 1, p) if 0 <= k < n)
    return (comb(n, p) - lost) * comb(n, q)


def least_torsion_point(sub, max_order):
    """The least exponent vector among the listed torsion points of order
    at most max_order of a coset, or None when it has none: the
    reference for the translate that discovery gives a component."""
    return min(sub.iter_torsion_points(max_order), default=None)


def cover_module_is_torsion_by_rank(p):
    """The generic-rank test of the cover homology written out: the Fox
    matrix, with its torsion twist specialized at each torsion-dual
    character, has generic rank g - 1 over the free variables.  With no
    relators the rank is 0."""
    ab, fox = presentation_data(p)
    b, g = ab.free_rank, p.generator_count
    if not fox:
        return g - 1 <= 0
    for omega in alexander._all_torsion_duals(ab.torsion):
        tors_vals = [Cyc.from_angle(a) for a in omega]
        rows = [[substitute_by_coordinate(e, identity(b), b, [Cyc.one()] * b,
                                          tors_vals)
                 for e in row] for row in fox]
        if rank_generic(rows) < g - 1:
            return False
    return True


def substitute_by_coordinate(poly, lattice_cols, new_nvars, free_values,
                             torsion_values):
    """LaurentPoly.substitute_monomials written per coordinate: z_j ->
    free_values[j] * t^(lattice_cols[j]) and s_i -> torsion_values[i],
    one value per coordinate, each term's value the product of the
    per-coordinate Cyc powers."""
    out = LaurentPoly(new_nvars)
    for (v, w), c in poly.terms.items():
        for x, e in zip(free_values + torsion_values, v + w):
            c = c * x ** e
        exps = tuple(sum(lattice_cols[j][k] * v[j] for j in range(len(v)))
                     for k in range(new_nvars))
        out = out + LaurentPoly.monomial((exps, ()), new_nvars, coeff=c)
    return out


def evaluate_by_coordinate(poly, chi):
    """LaurentPoly.evaluate at an exact character, written per
    coordinate: modulus times root of unity on each free generator, a
    root of unity on each torsion generator."""
    free = [Cyc.from_angle(a) * m for a, m in zip(chi.angles, chi.moduli)]
    tors = [Cyc.from_angle(a) for a in chi.tors_angles]
    out = substitute_by_coordinate(poly, (), 0, free, tors)
    return out.terms.get(((), ()), Cyc.zero())


def coset_contains_by_rows(sub, chi):
    """TranslatedSubtorus.contains written out: chi has the translate's
    torsion angles, and on every annihilator row u the product of
    (m / m_tau)^u is 1 and the sum of (a - a_tau) u is an integer."""
    tau = sub.translate
    if chi.tors_angles != tau.tors_angles:
        return False
    for u in sub.annihilator:
        mod, ang = Fraction(1), Fraction(0)
        for m, tm, a, ta, e in zip(chi.moduli, tau.moduli, chi.angles,
                                   tau.angles, u):
            if e:
                mod *= (m / tm) ** e
                ang += (a - ta) * e
        if mod != 1 or ang.denominator != 1:
            return False
    return True


def sigma_union_hits_merged(p, degree_bound, max_order):
    """The union of the V^degree_1 hits for degree < degree_bound, one
    scan per degree, merged as exponent vectors of one modulus and
    returned as characters in order."""
    union = set()
    for degree in range(degree_bound):
        vectors = scan_sigma(p, degree, 1, max_order).vectors
        union.update(e for e, _ in vectors.pairs)
    return [vectors.character(e) for e in sorted(union)]


def is_orbit_representative(e, n):
    """Whether the vector e is the least of its orbit under (Z/n)^x: the
    reference membership test for characters.orbit_representatives.

    Zero coordinates stay zero under a unit, so every member of the orbit
    has its first nonzero coordinate where e has it, and the least member
    has the least value there.  Let k be the order of e and c that
    coordinate times k/n.  Over the units u, u.c mod k runs through the
    residues whose gcd with k is gcd(c, k), the least of which is gcd(c, k)
    itself: e can be least only if c divides k.  Then u.c = c (mod k)
    exactly for u = 1 (mod k/c), and only those units can give a smaller
    vector; every other unit gives a larger first nonzero coordinate."""
    k = n // gcd(n, *e)
    if k == 1:
        return True         # the trivial point is its own orbit
    c = next(x for x in e if x) * k // n
    if k % c:
        return False
    step = k // c
    return not any(gcd(u, k) == 1 and tuple(u * x % n for x in e) < e
                   for u in range(1 + step, k, step))
