import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumploci.characters import (Character, enumerate_torsion_characters,
                                 rplus_act, torsion_modulus)
from jumploci.cyclotomic import is_root_of_unity
from jumploci.subtorus import (SubtorusError, TranslatedSubtorus, full_torus,
                               orbit_closure, point_subtorus,
                               subtorus_from_directions)


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
    assert T.dim == 0 and T.is_torsion_translate()
    assert all(is_root_of_unity(v)[0] for v in T.translate.unitary_values())


def test_membership_intersection_containment():
    S1 = TranslatedSubtorus(2, (), ((1, -2),), Character.trivial(2))
    S2 = TranslatedSubtorus(2, (), ((0, 1),), Character.trivial(2))
    inter = S1.intersect(S2)
    assert inter is not None and inter.dim == 0
    assert inter.contains(Character.trivial(2))
    assert S1.contains_subtorus(point_subtorus(Character.trivial(2)))
    assert not point_subtorus(Character.trivial(2)).contains_subtorus(S1)
    assert full_torus(2).contains(Character.trivial(2))


def test_empty_intersection():
    A1 = TranslatedSubtorus(1, (), ((1,),), Character.trivial(1))
    A2 = TranslatedSubtorus(1, (), ((1,),),
                            Character.unitary(1, (), (Fraction(1, 2),)))
    assert A1.intersect(A2) is None


def test_intersection_with_moduli_translates():
    # {z1 = 2} meets {z1 = z2} in the point (2, 2).
    S1 = TranslatedSubtorus(
        1 + 1, (), ((1, 0),),
        Character(2, (), (Fraction(2), Fraction(1)), (Fraction(0),) * 2, ()))
    S2 = TranslatedSubtorus(2, (), ((1, -1),), Character.trivial(2))
    inter = S1.intersect(S2)
    assert inter is not None
    pt = Character(2, (), (Fraction(2), Fraction(2)), (Fraction(0),) * 2, ())
    assert inter.contains(pt)


def test_dimension_mismatch_errors():
    S = full_torus(2)
    with pytest.raises(SubtorusError):
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
def torsion_cosets(draw):
    """(b, torsion, coset, K): the annihilator is the saturated integer
    kernel of random direction rows, and the translate has rational
    angles whose denominators need not divide K."""
    b = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
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
