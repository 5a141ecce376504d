import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumploci.characters import (Character, enumerate_torsion_characters,
                                 rplus_act, torsion_modulus)
from jumploci.errors import Refusal
from jumploci.linalg import rank_exact
from jumploci.subtorus import (TranslatedSubtorus, orbit_closure,
                               point_subtorus, subtorus_from_directions)

from oracles import least_torsion_point, translate_root_of_unity_check


def full_torus(free_rank):
    return TranslatedSubtorus(free_rank, (), (), Character.trivial(free_rank))


def test_orbit_closure_examples():
    chi = Character(2, (), (Fraction(2), Fraction(3)), (Fraction(0),) * 2, ())
    T = orbit_closure(chi, "B")
    assert T.dim == 2 and T.annihilator == ()

    chi2 = Character(2, (), (Fraction(4), Fraction(2)), (Fraction(0),) * 2, ())
    T2 = orbit_closure(chi2, "B")
    assert T2.dim == 1 and T2.annihilator == ((1, -2),)
    assert T2.translate.is_trivial

    chi3 = Character(1, (), (Fraction(1),), (Fraction(1, 4),), ())
    T3 = orbit_closure(chi3, "B")
    assert T3.dim == 0 and T3.contains(chi3)


def test_orbit_closure_contains_orbit_points():
    chi = Character(2, (), (Fraction(4), Fraction(2)),
                    (Fraction(1, 3), Fraction(1, 2)), ())
    T = orbit_closure(chi, "B")
    for t in range(1, 11):
        assert T.contains(rplus_act(Fraction(t), chi, "B"))


def test_orbit_closure_action_stable():
    rng = random.Random(51)
    for _ in range(20):
        moduli = tuple(Fraction(rng.randint(1, 20), rng.randint(1, 20))
                       for _ in range(3))
        angles = tuple(Fraction(rng.randint(0, 5), 6) for _ in range(3))
        chi = Character(3, (), moduli, angles, ())
        T = orbit_closure(chi, "B")
        for t in (2, 3):
            assert T.contains(rplus_act(Fraction(t), chi, "B"))


def test_variant_a_closure_of_positive_real_point_is_not_unitary():
    # Under variant A, chi = (2) is a fixed point whose closure is the
    # single non-unitary point {2}: scaling angles cannot move
    # positive-real characters, so this variant fails the
    # unitary-translate shape and variant B is the default.
    chi = Character(1, (), (Fraction(2),), (Fraction(0),), ())
    T = orbit_closure(chi, "A")
    assert T.dim == 0
    assert not T.is_unitary_translate()
    assert rplus_act(Fraction(5), chi, "A") == chi


def test_variant_b_fixed_point_closures_are_torsion_points():
    chi = Character(2, (), (Fraction(1), Fraction(1)),
                    (Fraction(1, 3), Fraction(1, 2)), ())
    T = orbit_closure(chi, "B")
    assert T.dim == 0 and T.is_unitary_translate()
    assert translate_root_of_unity_check(T)


def test_membership_intersection_containment():
    # The trivial character lies on both lines, so in their intersection;
    # a line contains that point and the point does not contain the line.
    S1 = TranslatedSubtorus(2, (), ((1, -2),), Character.trivial(2))
    S2 = TranslatedSubtorus(2, (), ((0, 1),), Character.trivial(2))
    assert S1.contains(Character.trivial(2))
    assert S2.contains(Character.trivial(2))
    assert S1.contains_subtorus(point_subtorus(Character.trivial(2)))
    assert not point_subtorus(Character.trivial(2)).contains_subtorus(S1)
    assert full_torus(2).contains(Character.trivial(2))


def test_dimension_mismatch_errors():
    S = full_torus(2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        S.contains(Character.trivial(3))


def test_torsion_points_match_order_filter():
    # Brute-force cross-check of the per-order congruence enumeration.
    tau = Character.unitary(2, (), (Fraction(0), Fraction(1, 2)))
    T = subtorus_from_directions([[Fraction(1), Fraction(0)]], tau)
    pts = T.torsion_points(4)
    keys = {p.sort_key() for p in pts}
    brute = set()
    for k1 in range(1, 13):
        for a in range(k1):
            chi = Character.unitary(2, (), (Fraction(a, k1), Fraction(1, 2)))
            if chi.order() <= 4 and T.contains(chi):
                brute.add(chi.sort_key())
    assert keys == brute


def test_canonical_translate_is_lex_least():
    tau = Character.unitary(2, (), (Fraction(1, 2), Fraction(1, 2)))
    T = subtorus_from_directions([[Fraction(1), Fraction(0)]], tau)
    canon = T.canonical_translate(2)
    assert canon.translate.angles == (Fraction(0), Fraction(1, 2))


@st.composite
def torsion_cosets(draw, shape=None):
    """(b, torsion, coset, K): the annihilator is the saturated integer
    kernel of random direction rows, and the translate has rational
    angles whose denominators need not divide K.  shape fixes (b,
    torsion)."""
    b, torsion = shape or (draw(st.integers(1, 3)),
                           draw(st.sampled_from([(), (2,), (3,), (2, 4)])))
    directions = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=b, max_size=b), max_size=b))
    angles = tuple(Fraction(draw(st.integers(0, 11)), draw(st.integers(1, 12)))
                   for _ in range(b))
    tail = tuple(Fraction(draw(st.integers(0, d - 1)), d) for d in torsion)
    tau = Character.unitary(b, torsion, angles, tail)
    return b, torsion, subtorus_from_directions(directions, tau), \
        draw(st.integers(1, 5))


@settings(max_examples=120, deadline=None)
@given(torsion_cosets())
def test_torsion_points_equal_filtered_enumeration(case):
    # The integer coset walk lists exactly the enumerated characters the
    # exact rational membership test accepts, and the canonical translate
    # is the least of them.
    b, torsion, sub, K = case
    n = torsion_modulus(K, torsion)
    expected = [chi for chi in (Character.from_exponents(b, torsion, e, n)
                                for e in enumerate_torsion_characters(
                                    b, torsion, K))
                if sub.contains(chi)]
    assert sub.torsion_points(K) == expected
    canon = sub.canonical_translate(K)
    if expected:
        assert canon.translate == expected[0]
        assert canon.annihilator == sub.annihilator
    else:
        assert canon is sub


@st.composite
def wide_cosets(draw):
    """(b, torsion, coset, K) with b <= 5, K <= 7 and torsion orders in
    {2, 3, 4}; translate denominators are mostly small, and 11 leaves a
    coset with no point of order <= K unless the directions span it."""
    b = draw(st.integers(1, 5))
    torsion = tuple(draw(st.lists(st.sampled_from([2, 3, 4]), max_size=2)))
    directions = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=b, max_size=b), max_size=b))
    angles = tuple(Fraction(draw(st.integers(0, 11)),
                            draw(st.sampled_from([1, 2, 3, 4, 6, 11])))
                   for _ in range(b))
    tail = tuple(Fraction(draw(st.integers(0, d - 1)), d) for d in torsion)
    tau = Character.unitary(b, torsion, angles, tail)
    return b, torsion, subtorus_from_directions(directions, tau), \
        draw(st.integers(1, 7))


_NO_POINT = Character.unitary(2, (3,), (Fraction(1, 11), Fraction(1, 2)),
                              (Fraction(1, 3),))
_POINT = Character.unitary(3, (2, 4), (Fraction(1, 2), Fraction(0),
                                       Fraction(1, 4)),
                           (Fraction(1, 2), Fraction(3, 4)))


@settings(max_examples=150, deadline=None)
@given(wide_cosets())
@example((2, (3,), subtorus_from_directions([[0, 1]], _NO_POINT), 7))
@example((3, (2, 4), point_subtorus(_POINT), 7))
@example((3, (2, 4), point_subtorus(_POINT), 3))
# theta_1 + 2 theta_2 = 1/2 and theta_1 + 3 theta_2 = 1/2 at K = 7: the
# least points (0, 1/4) and (0, 1/6) are of order 4 and 6, so neither
# maximal k (4 or 6) alone finds both.
@example((2, (), subtorus_from_directions(
    [[2, -1]], Character.unitary(2, (), (Fraction(1, 2), Fraction(0)))), 7))
@example((2, (), subtorus_from_directions(
    [[3, -1]], Character.unitary(2, (), (Fraction(1, 2), Fraction(0)))), 7))
def test_canonical_translate_equals_least_listed_point(case):
    # The Hermite reduction finds the least point that the listing finds,
    # and keeps the coset when it has no point of order <= K.
    b, torsion, sub, K = case
    least = least_torsion_point(sub, K)
    canon = sub.canonical_translate(K)
    if least is None:
        assert canon is sub
    else:
        n = torsion_modulus(K, torsion)
        assert canon.translate == Character.from_exponents(b, torsion,
                                                           least, n)
        assert canon.annihilator == sub.annihilator


@st.composite
def coset_pairs(draw):
    """Two cosets on one torus; half the time they share a translate, so
    that containment turns on the direction lattices alone."""
    b, torsion, first, _ = draw(torsion_cosets())
    second = draw(torsion_cosets((b, torsion)))[2]
    if draw(st.booleans()):
        second = TranslatedSubtorus(b, torsion, second.annihilator,
                                    first.translate)
    return first, second


@settings(max_examples=200, deadline=None)
@given(coset_pairs())
def test_contains_subtorus_against_rational_span(pair):
    # other lies in self iff self's annihilator rows lie in the rational
    # row span of other's (both are saturated) and other's translate is
    # a point of self.
    for outer, inner in (pair, pair[::-1]):
        spans = (rank_exact(list(outer.annihilator) + list(inner.annihilator))
                 == len(inner.annihilator))
        assert outer.contains_subtorus(inner) == (
            spans and outer.contains(inner.translate))
    assert pair[0].contains_subtorus(pair[0])


def test_one_smith_form_per_coset(monkeypatch):
    # The annihilator's Smith form is taken once, at construction; the
    # coset walk and the containment test read its transforms.
    import jumploci.subtorus as subtorus
    calls = []
    real = subtorus.smith_normal_form

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(subtorus, "smith_normal_form", counted)
    tau = Character.unitary(3, (2,), (Fraction(1, 3), Fraction(0),
                                      Fraction(1, 2)), (Fraction(1, 2),))
    sub = TranslatedSubtorus(3, (2,), ((1, 1, 0),), tau)
    assert len(calls) == 1
    assert len(sub.torsion_points(6)) > 0
    assert sub.contains_subtorus(sub)
    assert len(calls) == 1


def test_unsaturated_annihilator_is_refused():
    # 2 x_1 = 0 cuts out two components, x_1 = 0 and x_1 = 1/2.
    with pytest.raises(Refusal, match="not saturated"):
        TranslatedSubtorus(2, (), ((2, 0), (0, 1)), Character.trivial(2))
    with pytest.raises(Refusal, match="not saturated"):
        TranslatedSubtorus(2, (), ((2, 4),), Character.trivial(2))
    # A dependent row is dropped, not refused.
    sub = TranslatedSubtorus(2, (), ((1, 2), (2, 4)), Character.trivial(2))
    assert sub.annihilator == ((1, 2),) and sub.dim == 1
