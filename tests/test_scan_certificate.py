"""Differential tests of the bounded-prime scan against exact cyclotomic
elimination: corpus scans, random Fox-like matrices, the large-exponent
fallback, and the once-per-presentation Fox identity check; and of the
Galois-orbit scan against a scan that ranks every character."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumploci.twisted as tw
from jumploci import corpus
from jumploci.characters import (Character, enumerate_torsion_characters,
                                 torsion_modulus)
from jumploci.cyclotomic import Cyc
from jumploci.errors import InvariantError
from jumploci.laurent import LaurentPoly
from jumploci.linalg import rank_exact
from jumploci.numutil import IS_PRIME_LIMIT, first_prime_congruent_one
from jumploci.presentation import FinitePresentation
from jumploci.twisted import (_ModularEvaluator, _rank_mod_p, scan_sigma,
                              twisted_cohomology_dims)

# (group, K) for the corpus differential.
CORPUS_SCANS = ([(name, 4) for name in ("z2", "z3", "z4", "c3xz", "s2xz2",
                                        "square_comm", "trefoil",
                                        "swap_torus", "torus_bundle3", "bs12",
                                        "surface2", "free2", "free3")]
                + [("surface3", 3), ("product23", 2), ("z4", 8)])


def _exponents(chi, n):
    """Exponent vector modulo n of a torsion character."""
    return tuple(a.numerator * (n // a.denominator)
                 for a in chi.angles + chi.tors_angles)


def _exact_hits(p, degree, mult, max_order):
    ab, _ = tw.presentation_data(p)
    n = torsion_modulus(max_order, ab.torsion)
    out = []
    for e in enumerate_torsion_characters(ab.free_rank, ab.torsion,
                                          max_order):
        chi = Character.from_exponents(ab.free_rank, ab.torsion, e, n)
        dims = twisted_cohomology_dims(p, chi)
        if degree < len(dims) and dims[degree] >= mult:
            out.append((chi, dims))
    return out


def _per_character_hits(p, degree, mult, max_order):
    """The scan without orbits: every character ranked at the certifying
    prime, or by exact elimination when the scan has none."""
    ab, _ = tw.presentation_data(p)
    ev = tw._modular_evaluator_cached(p, max_order)
    cert = ev.certifying_prime
    out = []
    for e in enumerate_torsion_characters(ab.free_rank, ab.torsion,
                                          max_order):
        chi = Character.from_exponents(ab.free_rank, ab.torsion, e, ev.n)
        if cert is None:
            dims = twisted_cohomology_dims(p, chi)
        else:
            rank = _rank_mod_p(ev.matrix_rows(e, cert), cert)
            dims = tw.dims_from_rank(p, not any(e), rank)
        if dims[degree] >= mult:
            out.append((chi, dims))
    return out


def _assert_orbit_scan_equals_per_character_scan(p, degree, mult, K):
    res = scan_sigma(p, degree, mult, K)
    assert res.hits == _per_character_hits(p, degree, mult, K)
    assert [e for e, _ in res.vectors.pairs] == [
        _exponents(chi, torsion_modulus(K, chi.torsion)) for chi, _ in res.hits]
    return res


@pytest.mark.parametrize("name,K", [(name, K) for name, K in CORPUS_SCANS
                                    if corpus.get(name).relator_count])
def test_orbit_scan_equals_per_character_scan_on_corpus(name, K):
    p = corpus.get(name)
    for degree in ((1, 2) if p.aspherical else (1,)):
        for mult in (1, 2):
            res = _assert_orbit_scan_equals_per_character_scan(
                p, degree, mult, K)
    if (name, K) == ("z4", 8):
        # 8,400 characters in 2,292 orbits, each ranked once.
        assert (res.scanned, res.ranked) == (8400, 2292)


@st.composite
def presentations(draw):
    """A presentation on 1 to 3 generators with 1 to 3 random relators."""
    g = draw(st.integers(1, 3))
    letter = st.tuples(st.integers(0, g - 1), st.sampled_from((-1, 1)))
    rels = draw(st.lists(st.lists(letter, min_size=1, max_size=8),
                         min_size=1, max_size=3))
    return FinitePresentation(g, tuple(tuple(r) for r in rels))


@settings(max_examples=40, deadline=None)
@given(presentations(), st.integers(1, 6), st.integers(1, 2))
def test_orbit_scan_equals_per_character_scan_on_random_input(p, K, mult):
    if p.relator_count:
        _assert_orbit_scan_equals_per_character_scan(p, 1, mult, K)


@pytest.mark.parametrize("name,K", CORPUS_SCANS)
def test_corpus_scan_dims_equal_exact_dims(name, K):
    p = corpus.get(name)
    for degree in ((1, 2) if p.aspherical else (1,)):
        res = scan_sigma(p, degree, 1, K)
        if not p.relator_count:
            # No Fox matrix: every dim follows from rank 0, no prime.
            assert res.certifying_prime is None
            assert res.filter_prime is None
        else:
            assert res.certifying_prime is not None
            assert res.filter_prime is not None
        for chi, dims in res.hits:
            assert dims == twisted_cohomology_dims(p, chi), (name, chi)
        if res.scanned <= 400:     # small enough to rank every character
            assert res.hits == _exact_hits(p, degree, 1, K)
    # z4 at K = 8 needs a 37-bit certifying prime; every other scan here
    # is certified by the filter prime itself.
    if (name, K) == ("z4", 8):
        assert res.certifying_prime.bit_length() == 37
    elif p.relator_count:
        assert res.certifying_prime == res.filter_prime


def _commutator_power(m):
    """<a, b | [a, b]^m>: Fox row (m(1 - b), m(a - 1)), L1 norms 2m."""
    return FinitePresentation(2, (((0, 1), (1, 1), (0, -1), (1, -1)) * m,))


def test_large_exponents_rerank_at_certifying_prime():
    # H^2 = 8 * 10^6 and phimax = 2 at K = 4: the filter prime is too small.
    p = _commutator_power(1000)
    res = scan_sigma(p, 1, 1, 4)
    assert res.certifying_prime ** 2 > (8 * 10 ** 6) ** 2
    assert res.certifying_prime > res.filter_prime
    assert res.hits == _exact_hits(p, 1, 1, 4)
    assert res.ranked < res.scanned     # through the orbit scan


def test_large_exponents_fall_back_to_exact_elimination():
    # H^2 = 8 * 10^4 and phimax = phi(11) = 10 at K = 12: a certifying
    # prime would exceed (8 * 10^4)^5 > IS_PRIME_LIMIT.
    p = _commutator_power(100)
    assert (8 * 10 ** 4) ** 5 > IS_PRIME_LIMIT
    res = scan_sigma(p, 1, 1, 12)
    assert res.certifying_prime is None
    assert res.filter_prime is not None
    hits = _exact_hits(p, 1, 1, 12)
    assert res.hits == hits
    assert res.ranked < res.scanned     # through the orbit scan
    assert [chi.is_trivial for chi, _ in hits] == [True]


def test_degree_zero_and_free_groups_need_no_prime():
    res = scan_sigma(corpus.get("surface2"), 0, 1, 3)
    assert (res.certifying_prime, res.filter_prime) == (None, None)
    res = scan_sigma(corpus.get("free2"), 1, 1, 3)
    assert (res.certifying_prime, res.filter_prime) == (None, None)
    # free2 is aspherical, so its hits carry h2 like twisted_cohomology_dims.
    assert res.hits[0] == (Character.trivial(2), (1, 2, 0))


@st.composite
def fox_like(draw):
    """An integer Laurent matrix in one or two variables and a character
    of order k <= 12 on it.  Half the time one row is multiplied by the
    filter prime, which makes that row vanish mod p but not exactly."""
    nvars = draw(st.integers(1, 2))
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    k = draw(st.integers(1, 12))
    term = st.tuples(st.tuples(*[st.integers(-3, 3)] * nvars),
                     st.integers(-3, 3))
    scaled = draw(st.sampled_from([None] + list(range(rows))))
    filter_prime = first_prime_congruent_one(math.lcm(*range(1, k + 1)))
    fox = []
    for i in range(rows):
        row = []
        for _ in range(cols):
            terms = {}
            for exps, c in draw(st.lists(term, max_size=2)):
                key = (exps, ())
                terms[key] = terms.get(key, 0) + (
                    c * filter_prime if i == scaled else c)
            row.append(LaurentPoly(nvars, (), terms))
        fox.append(row)
    angles = tuple(Fraction(draw(st.integers(0, k - 1)), k)
                   for _ in range(nvars))
    return fox, Character.unitary(nvars, (), angles), k


def _exact_rank(fox, chi):
    vals = [Cyc.from_angle(a) for a in chi.angles]
    return rank_exact([[e.evaluate(vals, []) for e in row] for row in fox])


@settings(max_examples=150, deadline=None)
@given(fox_like())
def test_certified_prime_rank_equals_exact_rank(case):
    fox, chi, k = case
    ev = _ModularEvaluator(fox, chi.free_rank, (), k)
    exact = _exact_rank(fox, chi)
    # The filter rank is a lower bound at any prime = 1 (mod n).
    e = _exponents(chi, ev.n)
    assert _rank_mod_p(ev.matrix_rows(e, ev.prime), ev.prime) <= exact
    if ev.certifying_prime is not None:
        cert = ev.certifying_prime
        assert _rank_mod_p(ev.matrix_rows(e, cert), cert) == exact


def test_filter_false_positive_is_corrected():
    # The entry 1000003 is zero modulo the filter prime of n = 2.
    fox = [[LaurentPoly.monomial(((0,), ()), 1, coeff=1000003)]]
    e = (1,)       # the character of angle 1/2, with n = 2
    ev = _ModularEvaluator(fox, 1, (), 2)
    assert ev.prime == 1000003
    assert _rank_mod_p(ev.matrix_rows(e, ev.prime), ev.prime) == 0
    assert ev.certifying_prime > 1000003
    cert = ev.certifying_prime
    assert _rank_mod_p(ev.matrix_rows(e, cert), cert) == 1


def test_presentation_data_checks_fox_identity(monkeypatch):
    p = corpus.get("trefoil")
    real = tw.fox_matrix

    def broken(p_, ab):
        fox = real(p_, ab)
        fox[0][0] = fox[0][0] + LaurentPoly.one(ab.free_rank, ab.torsion)
        return fox

    monkeypatch.setattr(tw, "fox_matrix", broken)
    with pytest.raises(InvariantError):
        tw.presentation_data.__wrapped__(p)
    monkeypatch.setattr(tw, "fox_matrix", real)
    ab, fox = tw.presentation_data.__wrapped__(p)
    assert len(fox) == p.relator_count


def test_modular_values_are_images_of_cyc_values():
    # matrix_rows gives the images of the Cyc entries of d1 under
    # zeta_n -> w, for w of order exactly n.
    p = corpus.get("swap_torus")
    ev = tw._modular_evaluator_cached(p, 4)
    chi = Character.unitary(2, (), (Fraction(1, 4), Fraction(1, 2)))
    _, d1 = tw.coboundary_matrices(p, chi)
    q = ev.prime
    w = ev.root_powers[q][1]
    assert [e for e in range(1, ev.n + 1) if pow(w, e, q) == 1] == [ev.n]
    for row, mod_row in zip(d1, ev.matrix_rows(_exponents(chi, ev.n), q)):
        for col, entry in enumerate(row):
            coeffs = entry.lift_coeffs(ev.n) if entry else ()
            image = sum(int(c) * pow(w, i, q) for i, c in enumerate(coeffs))
            assert image % q == mod_row.get(col, 0)
