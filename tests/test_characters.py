import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumploci.characters import (Character, NumericCharacter,
                                 count_killed_by, count_torsion_characters,
                                 enumerate_torsion_characters, orbit_members,
                                 orbit_representatives, rplus_act,
                                 torsion_modulus)
from jumploci.cyclotomic import Cyc
from jumploci.errors import Refusal

from oracles import is_orbit_representative


def _characters(b, torsion, K):
    n = torsion_modulus(K, torsion)
    return [Character.from_exponents(b, torsion, e, n)
            for e in enumerate_torsion_characters(b, torsion, K)]


def test_enumeration_examples():
    assert len(enumerate_torsion_characters(2, (), 2)) == 4
    assert len(enumerate_torsion_characters(1, (2,), 2)) == 4
    # orders 1, 2, 3 on (C*)^2: 4 + 9 - 1 distinct
    assert len(enumerate_torsion_characters(2, (), 3)) == 12


def test_enumeration_counting_formula_brute_force():
    for b in (1, 2):
        for torsion in ((), (2,), (3,)):
            for K in range(1, 7):
                chars = _characters(b, torsion, K)
                assert len(chars) == len({c.sort_key() for c in chars})
                for k in range(1, K + 1):
                    killed = [c for c in chars
                              if all((a * k).denominator == 1 for a in c.angles)
                              and all((a * k).denominator == 1 for a in c.tors_angles)]
                    assert len(killed) == count_killed_by(b, torsion, k)


def test_enumeration_is_sorted_and_streams_once():
    chars = _characters(2, (2,), 4)
    keys = [c.sort_key() for c in chars]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def _reference_points(b, torsion, K):
    """(angles, torsion angles) of every unitary character of order <= K,
    from Fraction angle tuples alone, in Character.sort_key order."""
    points = set()
    for k in range(1, K + 1):
        free = [Fraction(c, k) for c in range(k)]
        tors = [[Fraction(c, d) for c in range(d) if (c * k) % d == 0]
                for d in torsion]
        for angles in product(free, repeat=b):
            for tors_angles in product(*tors):
                points.add((angles, tors_angles))
    return sorted(points)


@pytest.mark.parametrize("torsion", [(), (2,), (3,), (2, 4)])
@pytest.mark.parametrize("b", [0, 1, 2, 3])
def test_enumeration_equals_fraction_reference(b, torsion):
    # The vectors, read as characters, are exactly the reference points,
    # and sorted vectors come out in sort_key order.
    for K in range(1, 7):
        chars = _characters(b, torsion, K)
        assert [(c.angles, c.tors_angles) for c in chars] \
            == _reference_points(b, torsion, K), (b, torsion, K)
        assert [c.sort_key() for c in chars] \
            == sorted(c.sort_key() for c in chars)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(2, 6), max_size=2),
       st.integers(1, 6))
def test_galois_orbits_partition_the_enumeration(b, torsion, K):
    torsion = tuple(torsion)
    n = torsion_modulus(K, torsion)
    points = enumerate_torsion_characters(b, torsion, K)
    assert count_torsion_characters(b, torsion, K) == len(points)
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    covered = []
    for e in points:
        orbit = orbit_members(e, n)
        # The orbit under every unit of Z/n, from the definition.
        assert sorted(orbit) == sorted({tuple(u * x % n for x in e)
                                        for u in units})
        if is_orbit_representative(e, n):
            assert e == min(orbit)
            covered.extend(orbit)
        else:
            assert e != min(orbit)
    # Each orbit has one representative, and the orbits cover the points.
    assert sorted(covered) == points


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(2, 6), max_size=3),
       st.integers(1, 8))
def test_orbit_walk_equals_filtered_enumeration(b, torsion, K):
    # The stabilizer-chain walk yields exactly the enumerated points that
    # pass the reference orbit test, each once and no other point, ordered
    # by order, then first nonzero position, then vector.
    torsion = tuple(torsion)
    n = torsion_modulus(K, torsion)

    def key(e):
        return (n // gcd(n, *e), next((j for j, x in enumerate(e) if x), -1),
                e)

    assert list(orbit_representatives(b, torsion, K)) == sorted(
        (e for e in enumerate_torsion_characters(b, torsion, K)
         if is_orbit_representative(e, n)), key=key)


@pytest.mark.parametrize("b,K,orbits", [
    (4, 8, 2292),          # z4, the scan-sparse workload: 8,400 points
    (4, 12, 11976),        # z4 at K = 12: 58,080 points
    (10, 2, 1024),         # product23: every point of order 2 is its orbit
    (10, 3, 30548),        # product23 at K = 3: 60,072 points
])
def test_orbit_walk_examples(b, K, orbits):
    walked = list(orbit_representatives(b, (), K))
    assert len(walked) == len(set(walked)) == orbits


@pytest.mark.parametrize("b,K,count", [
    (4, 8, 8400),          # z4, the scan-sparse workload
    (6, 6, 66312),         # surface3
    (10, 4, 1107624),      # product23
    (9, 4, 281826),        # the Z^9 cover of thm4 square_comm
])
def test_count_torsion_characters_examples(b, K, count):
    assert count_torsion_characters(b, (), K) == count


def test_from_exponents_equals_normalising_constructor():
    n = torsion_modulus(4, (2, 4))
    for e in enumerate_torsion_characters(1, (2, 4), 4):
        chi = Character.from_exponents(1, (2, 4), e, n)
        assert chi == Character.unitary(
            1, (2, 4), (Fraction(e[0], n),),
            (Fraction(e[1], n), Fraction(e[2], n)))
        assert hash(chi) == hash(Character.unitary(
            1, (2, 4), chi.angles, chi.tors_angles))


def test_homomorphism_property_random_pairs():
    rng = random.Random(41)
    chi = Character(2, (3,), (Fraction(4), Fraction(9, 2)),
                    (Fraction(1, 4), Fraction(2, 3)), (Fraction(1, 3),))
    for _ in range(40):
        v1 = [rng.randint(-3, 3) for _ in range(2)]
        t1 = [rng.randint(0, 2)]
        v2 = [rng.randint(-3, 3) for _ in range(2)]
        t2 = [rng.randint(0, 2)]
        prod = chi.value([a + b for a, b in zip(v1, v2)],
                         [a + b for a, b in zip(t1, t2)])
        assert prod == chi.value(v1, t1) * chi.value(v2, t2)


def test_action_group_law_both_variants():
    rng = random.Random(42)
    chi = Character(2, (), (Fraction(4), Fraction(2)),
                    (Fraction(1, 8), Fraction(1, 3)), ())
    for variant in ("A", "B"):
        for _ in range(30):
            s = Fraction(rng.randint(1, 5))
            t = Fraction(rng.randint(1, 5))
            assert rplus_act(s, rplus_act(t, chi, variant), variant) \
                == rplus_act(s * t, chi, variant)


def test_action_examples():
    chi = Character(2, (), (Fraction(4), Fraction(2)), (Fraction(0), Fraction(0)), ())
    assert rplus_act(Fraction(1), chi, "B") == chi
    assert rplus_act(Fraction(1), chi, "A") == chi
    out = rplus_act(Fraction(2), chi, "B")
    assert out.moduli == (Fraction(16), Fraction(4))
    chiA = Character.unitary(2, (), (Fraction(1, 8), Fraction(1, 3)))
    outA = rplus_act(Fraction(3), chiA, "A")
    assert outA.angles == (Fraction(3, 8), Fraction(0))


def test_variant_b_fixed_points_are_exactly_unitary():
    rng = random.Random(43)
    for _ in range(40):
        moduli = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
        chi = Character(2, (), moduli, (Fraction(1, 3), Fraction(0)), ())
        fixed = rplus_act(Fraction(2), chi, "B") == chi
        assert fixed == chi.is_unitary


def test_action_on_numeric_characters():
    # Variant B raises the moduli of a flagged numeric character and keeps
    # its arguments; variant A is refused on it.
    chi = Character(1, (3,), (Fraction(2),), (Fraction(1, 4),),
                    (Fraction(1, 3),))
    numeric = rplus_act(Fraction(1, 2), chi, "B")
    out = rplus_act(Fraction(4), numeric, "B")
    assert isinstance(out, NumericCharacter)
    assert (out.free_rank, out.torsion, out.tors_angles) == (
        1, (3,), (Fraction(1, 3),))
    assert abs(out.values[0] - 4j) < 1e-9
    with pytest.raises(ValueError, match="variant A"):
        rplus_act(Fraction(2), numeric, "A")


def test_variant_b_numeric_forcing_flagged():
    chi = Character(1, (), (Fraction(2),), (Fraction(0),), ())
    res = rplus_act(Fraction(1, 2), chi, "B")
    assert isinstance(res, NumericCharacter) and res.flag == "numeric"
    # perfect powers stay exact
    chi4 = Character(1, (), (Fraction(4),), (Fraction(0),), ())
    res4 = rplus_act(Fraction(1, 2), chi4, "B")
    assert isinstance(res4, Character) and res4.moduli == (Fraction(2),)


def test_character_values_are_cyclotomic():
    chi = Character(1, (2,), (Fraction(3),), (Fraction(1, 4),), (Fraction(1, 2),))
    v = chi.value([1], [1])
    assert v == Cyc.from_angle(Fraction(3, 4)) * 3


def test_order_and_errors():
    chi = Character.unitary(2, (), (Fraction(1, 4), Fraction(1, 6)))
    assert chi.order() == 12
    with pytest.raises(Refusal):
        Character(1, (), (Fraction(-1),), (Fraction(0),), ())
    with pytest.raises(Refusal):
        Character(0, (2,), (), (), (Fraction(1, 3),))
    with pytest.raises(ValueError, match="infinite order"):
        Character(1, (), (Fraction(2),), (Fraction(0),), ()).order()
    # Characters of different tori do not multiply (an explicit error, so
    # it holds under python -O too).
    with pytest.raises(ValueError, match="different tori"):
        chi * Character.trivial(1)
    with pytest.raises(ValueError, match="different tori"):
        Character.trivial(1, (2,)) * Character.trivial(1, (3,))
