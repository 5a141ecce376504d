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

from oracles import (coset_contains_by_rows, least_torsion_point,
                     translate_root_of_unity_check)


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
    assert not T.translate.is_unitary
    assert rplus_act(Fraction(5), chi, "A") == chi


def test_variant_b_fixed_point_closures_are_torsion_points():
    chi = Character(2, (), (Fraction(1), Fraction(1)),
                    (Fraction(1, 3), Fraction(1, 2)), ())
    T = orbit_closure(chi, "B")
    assert T.dim == 0 and T.translate.is_unitary
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


def test_non_unitary_translate_has_no_torsion_points():
    # The coset {|chi(a)| = 2} holds no point of finite order.
    tau = Character(2, (), (Fraction(2), Fraction(1)), (Fraction(1, 2), 0),
                    ())
    T = subtorus_from_directions([[Fraction(0), Fraction(1)]], tau)
    assert T.dim == 1 and not T.translate.is_unitary
    assert list(T.iter_torsion_points(4)) == []
    assert T.torsion_points(4) == []


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
            if chi.order() <= 4 and coset_contains_by_rows(T, chi):
                brute.add(chi.sort_key())
    assert keys == brute


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
    # exact rational membership test, written out row by row, accepts.
    b, torsion, sub, K = case
    n = torsion_modulus(K, torsion)
    expected = [chi for chi in (Character.from_exponents(b, torsion, e, n)
                                for e in enumerate_torsion_characters(
                                    b, torsion, K))
                if coset_contains_by_rows(sub, chi)]
    assert sub.torsion_points(K) == expected


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
def test_least_listed_point_is_least_enumerated_member(case):
    # The least point the coset walk lists, which discovery takes as a
    # component's translate, is the first enumerated character the exact
    # rational membership test accepts; a coset with no point of order
    # <= K lists none.  Enumeration runs in canonical order, and a member
    # shares the translate's torsion coordinates.
    b, torsion, sub, K = case
    n = torsion_modulus(K, torsion)
    tail = tuple(a.numerator * (n // a.denominator)
                 for a in sub.translate.tors_angles)
    first = next((e for e in enumerate_torsion_characters(b, torsion, K)
                  if e[b:] == tail and coset_contains_by_rows(
                      sub, Character.from_exponents(b, torsion, e, n))), None)
    assert least_torsion_point(sub, K) == first


@settings(max_examples=150, deadline=None)
@given(st.one_of(torsion_cosets(), wide_cosets()))
@example((2, (3,), subtorus_from_directions([[0, 1]], _NO_POINT), 7))
@example((3, (2, 4), point_subtorus(_POINT), 7))
@example((1, (), point_subtorus(
    Character(1, (), (Fraction(2),), (Fraction(0),), ())), 7))
def test_torsion_point_count_is_listing_length(case):
    # The Moebius count of the coset's points of order <= K, which
    # discovery compares with a torsion class's hits, is the length of
    # the listing; a translate that is not unitary has no such point.
    b, torsion, sub, K = case
    assert sub.torsion_point_count(K) == len(sub.torsion_points(K))


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


def test_translate_from_another_torus_is_refused():
    # A translate on another finite dual would list its points one
    # coordinate short, so it is refused like one of another free rank.
    with pytest.raises(Refusal, match="different torus"):
        TranslatedSubtorus(1, (2,), ((1,),), Character.unitary(1, (), (0,)))
    with pytest.raises(Refusal, match="different torus"):
        TranslatedSubtorus(1, (), ((1,),),
                           Character.unitary(1, (2,), (0,), (0,)))


def test_character_torsion_given_as_a_list_is_the_same_torus():
    listed = Character(1, [2], (1,), (0,), (0,))
    tupled = Character(1, (2,), (1,), (0,), (0,))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert TranslatedSubtorus(1, (2,), ((1,),), listed).translate == tupled


def test_contains_subtorus_on_another_torus_raises():
    # Annihilator rows and directions of different lengths are not
    # truncated to a silent answer.
    line = TranslatedSubtorus(2, (), ((1, 0),), Character.trivial(2))
    twisted = TranslatedSubtorus(2, (2,), (), Character.trivial(2, (2,)))
    for outer, inner in ((line, full_torus(3)), (full_torus(3), line),
                         (line, twisted), (twisted, line)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            outer.contains_subtorus(inner)


_MODULI = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2),
                           Fraction(3), Fraction(4, 9)])


@st.composite
def cosets_and_characters(draw):
    """(coset, chi, member): the translate has moduli other than 1 and
    torsion angles; half the time chi is the translate times a point of
    the subtorus, with moduli 2^(B w) and angles B x for the direction
    basis B (member True), otherwise any character (member None)."""
    b = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
    angle = st.builds(Fraction, st.integers(0, 11), st.integers(1, 6))

    def character():
        return Character(
            b, torsion, tuple(draw(_MODULI) for _ in range(b)),
            tuple(draw(angle) for _ in range(b)),
            tuple(Fraction(draw(st.integers(0, d - 1)), d) for d in torsion))
    directions = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=b, max_size=b), max_size=b))
    sub = subtorus_from_directions(directions, character())
    if not draw(st.booleans()):
        return sub, character(), None
    w = [draw(st.integers(-2, 2)) for _ in range(sub.dim)]
    x = [draw(angle) for _ in range(sub.dim)]
    step = Character(
        b, torsion,
        tuple(Fraction(2) ** sum(r * y for r, y in zip(row, w))
              for row in sub.directions),
        tuple(sum((r * y for r, y in zip(row, x)), Fraction(0))
              for row in sub.directions), (0,) * len(torsion))
    return sub, sub.translate * step, True


@settings(max_examples=200, deadline=None)
@given(cosets_and_characters())
def test_contains_against_rows(case):
    # Membership through chi tau^-1 agrees with the row-by-row rational
    # test, also off the unitary characters and with torsion.
    sub, chi, member = case
    assert sub.contains(chi) == coset_contains_by_rows(sub, chi)
    if member:
        assert sub.contains(chi)
