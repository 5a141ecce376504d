"""Reference checks that tests compare the program against.

None of these is on a path the CLI or the library takes; each is an
independent statement of a property the program's results must have.
"""

import cmath
from itertools import combinations
from math import comb, gcd, lcm

import jumploci.alexander as alexander
from jumploci import words
from jumploci.cyclotomic import Cyc, is_root_of_unity
from jumploci.discovery import restrict_subtorus_to_cover, transport_character
from jumploci.laurent import LaurentPoly, rank_generic
from jumploci.linalg import koszul_differential, koszul_dims, rank_exact
from jumploci.presentation import permuted_inverted
from jumploci.twisted import presentation_data


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
    moved = []
    for c in report.components:
        sub = restrict_subtorus_to_cover(c.subtorus, ab, variant, gen_words)
        sub = sub.canonical_translate(max_order)
        moved.append((sub.annihilator, sub.translate.sort_key(), c.status))
    theirs = []
    for c in variant_report.components:
        sub = c.subtorus.canonical_translate(max_order)
        theirs.append((sub.annihilator, sub.translate.sort_key(), c.status))
    return sorted(moved) == sorted(theirs)


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
    reference for TranslatedSubtorus.canonical_translate."""
    return min(sub._points(max_order), default=None)
