import random
from fractions import Fraction
from math import comb

import pytest

from jumploci import cli, higgs
from jumploci.errors import Refusal
from jumploci.higgs import (ComplexTorusModel, HiggsLineBundle,
                            LatticeCharacter, character_to_higgs,
                            higgs_cohomology_dim, higgs_to_character,
                            lattice_cohomology_dims, partition_check,
                            splitting_check)
from jumploci.linalg import inverse

from conftest import within_seconds
from oracles import (higgs_cohomology_dim_koszul,
                     lattice_cohomology_dims_bareiss)


def std(n):
    return ComplexTorusModel.standard(n)


def rand_character(rng, n, stratum):
    b = 2 * n
    if stratum == 0:
        return LatticeCharacter((Fraction(0),) * b, (Fraction(0),) * b)
    if stratum == 1:   # nontrivial flat part
        angles = [Fraction(rng.randint(0, 5), 6) for _ in range(b)]
        if all(a == 0 for a in angles):
            angles[0] = Fraction(1, 2)
        return LatticeCharacter(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(b)), tuple(angles))
    logs = [Fraction(rng.randint(-2, 2)) for _ in range(b)]
    if all(q == 0 for q in logs):
        logs[0] = Fraction(1)
    return LatticeCharacter(tuple(logs), (Fraction(0),) * b)


def test_correspondence_examples():
    X = std(1)
    rho = LatticeCharacter((Fraction(2), Fraction(0)), (Fraction(0),) * 2)
    h = character_to_higgs(X, rho)
    assert h.theta == ((Fraction(1), Fraction(0)),)
    unitary = LatticeCharacter((Fraction(0),) * 2, (Fraction(1, 3), Fraction(0)))
    hu = character_to_higgs(X, unitary)
    assert hu.theta == ((Fraction(0), Fraction(0)),)
    assert hu.angles == unitary.angles


def test_correspondence_round_trip_random():
    rng = random.Random(81)
    for n in (1, 2):
        X = std(n)
        for _ in range(25):
            rho = rand_character(rng, n, rng.randint(0, 2))
            assert higgs_to_character(X, character_to_higgs(X, rho)) == rho


def test_correspondence_is_group_homomorphism():
    rng = random.Random(82)
    X = std(2)
    for _ in range(20):
        r1 = rand_character(rng, 2, rng.randint(0, 2))
        r2 = rand_character(rng, 2, rng.randint(0, 2))
        lhs = character_to_higgs(X, r1 * r2)
        rhs = character_to_higgs(X, r1).add(character_to_higgs(X, r2))
        assert lhs.theta == rhs.theta
        assert lhs.angles == rhs.angles


def test_scaling_equivariance_pins_modulus_variant():
    # t * (L, theta) = (L, t theta): the flat part is fixed and the form
    # scales, matching the angles-fixed moduli-powered action.
    rng = random.Random(83)
    X = std(1)
    for _ in range(20):
        rho = rand_character(rng, 1, 2)
        t = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        lhs = character_to_higgs(X, rho.scale(t))
        h = character_to_higgs(X, rho)
        rhs = HiggsLineBundle(h.angles, tuple((t * re, t * im)
                                              for re, im in h.theta))
        assert lhs.theta == rhs.theta and lhs.angles == rhs.angles


def test_elliptic_curve_hodge_diamond():
    X = std(1)
    triv = HiggsLineBundle((Fraction(0),) * 2, ((Fraction(0), Fraction(0)),))
    for p in (0, 1):
        for q in (0, 1):
            assert higgs_cohomology_dim(X, triv, p, q) == 1
    withform = HiggsLineBundle((Fraction(0),) * 2, ((Fraction(1), Fraction(0)),))
    for p in (0, 1):
        for q in (0, 1):
            assert higgs_cohomology_dim(X, withform, p, q) == 0
    flat = HiggsLineBundle((Fraction(1, 2), Fraction(0)),
                           ((Fraction(0), Fraction(0)),))
    assert higgs_cohomology_dim(X, flat, 0, 0) == 0


def test_rank_two_koszul_middle_vanishes():
    X = std(2)
    h = HiggsLineBundle((Fraction(0),) * 4,
                        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))))
    assert higgs_cohomology_dim(X, h, 1, 0) == 0


def test_out_of_range_errors():
    X = std(1)
    triv = HiggsLineBundle((Fraction(0),) * 2, ((Fraction(0), Fraction(0)),))
    with pytest.raises(ValueError, match="out of range"):
        higgs_cohomology_dim(X, triv, 2, 0)


@pytest.mark.parametrize("n,periods,message", [
    (0, (), "dimension"),
    (1, ((("1", "0"),),), "2n lattice generators"),
    (1, ((("1", "0"), ("0", "0")), (("0", "1"),)), "n entries"),
    (1, ((("1", "0"),), (("2", "0"),)), "does not span"),
])
def test_torus_model_shape_is_refused(n, periods, message):
    with pytest.raises(Refusal, match=message):
        ComplexTorusModel(n, periods)


def test_hodge_symmetry_at_zero_form():
    X = std(2)
    triv = HiggsLineBundle((Fraction(0),) * 4,
                           tuple((Fraction(0), Fraction(0)) for _ in range(2)))
    for p in range(3):
        for q in range(3):
            assert higgs_cohomology_dim(X, triv, p, q) == \
                higgs_cohomology_dim(X, triv, q, p)


def test_lattice_cohomology_binomials_and_vanishing():
    X = std(1)
    assert lattice_cohomology_dims(
        X, LatticeCharacter((Fraction(0),) * 2, (Fraction(0),) * 2)) == (1, 2, 1)
    rho = LatticeCharacter((Fraction(1), Fraction(0)), (Fraction(0),) * 2)
    assert lattice_cohomology_dims(X, rho) == (0, 0, 0)


def _sweep(n, samples, rng):
    X = std(n)
    for idx in range(samples):
        rho = rand_character(rng, n, idx % 3)
        for degree in range(2 * n + 1):
            ok, lhs, rhs = splitting_check(X, rho, degree)
            assert ok, (n, rho, degree, lhs, rhs)


def test_splitting_identity_sweep():
    rng = random.Random(84)
    for n in (1, 2):
        _sweep(n, 12, rng)
    # Generic ranks over the Laurent ring made n = 3 take 54 s.
    within_seconds(5, _sweep, 3, 12, rng)


def rand_exact_character(rng, n, stratum):
    """Stratum 0: trivial in every coordinate but at most one; 1: log
    moduli with denominators 1, 2 and 3 and angles in (1/k)Z for one
    k <= 12; 2: the same moduli with angles 0."""
    b = 2 * n
    order = rng.randint(1, 12)

    def log():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))

    def angle():
        return Fraction(rng.randrange(order), order)

    logs, angles = [Fraction(0)] * b, [Fraction(0)] * b
    if stratum == 0:
        j = rng.randrange(b)
        logs[j] = rng.choice((Fraction(0), log()))
        angles[j] = rng.choice((Fraction(0), angle()))
    else:
        logs = [log() for _ in range(b)]
        if stratum == 1:
            angles = [angle() for _ in range(b)]
    return LatticeCharacter(tuple(logs), tuple(angles))


def test_lattice_dims_match_generic_rank_oracle():
    # The closed form (binomials at the trivial character, zeros
    # elsewhere) against generic ranks of the Koszul differentials over
    # Q(zeta)[T^+-1].
    rng = random.Random(86)
    seen = set()
    for n in (1, 2):
        X = std(n)
        for idx in range(60):
            rho = rand_exact_character(rng, n, idx % 3)
            dims = lattice_cohomology_dims(X, rho)
            assert dims == lattice_cohomology_dims_bareiss(X, rho), rho
            seen.add((n, rho.is_trivial))
    assert seen == {(1, True), (1, False), (2, True), (2, False)}


def test_higgs_dims_match_koszul_rank_oracle():
    # The closed form (binomials when the flat part is trivial and
    # theta = 0, zero otherwise) against exact ranks of wedging with
    # theta, for theta = 0, theta with one nonzero entry and general
    # theta, with trivial and nontrivial flat parts, at every (p, q).
    rng = random.Random(87)
    zero = (Fraction(0), Fraction(0))

    def entry():
        return (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    for n in (1, 2, 3, 4):
        X = std(n)
        one = [zero] * n
        one[rng.randrange(n)] = (Fraction(0), Fraction(rng.choice((-2, 1))))
        thetas = [(zero,) * n, tuple(one),
                  tuple(entry() for _ in range(n))]
        for theta in thetas:
            flat = (Fraction(1, 3),) + (0,) * (2 * n - 1)
            for angles in ((0,) * (2 * n), flat):
                h = HiggsLineBundle(angles, theta)
                for p in range(n + 1):
                    for q in range(n + 1):
                        assert higgs_cohomology_dim(X, h, p, q) == \
                            higgs_cohomology_dim_koszul(X, h, p, q), (h, p, q)


def test_binomial_identity_at_trivial():
    for n in (1, 2):
        X = std(n)
        triv = LatticeCharacter((Fraction(0),) * (2 * n), (Fraction(0),) * (2 * n))
        dims = lattice_cohomology_dims(X, triv)
        for i in range(2 * n + 1):
            assert dims[i] == comb(2 * n, i)
            rhs = sum(comb(n, p) * comb(n, i - p)
                      for p in range(max(0, i - n), min(i, n) + 1))
            assert dims[i] == rhs


def test_partition_check_examples():
    X = std(1)
    triv = LatticeCharacter((Fraction(0),) * 2, (Fraction(0),) * 2)
    ok, lhs, rhs = partition_check(X, triv, 1, 2)
    assert ok and lhs and rhs
    flat = LatticeCharacter((Fraction(0),) * 2, (Fraction(1, 3), Fraction(0)))
    ok, lhs, rhs = partition_check(X, flat, 1, 1)
    assert ok and not lhs and not rhs


def test_locus_structure_degenerates_to_product_shape():
    # On the torus model the (p, q) hit set is {trivial flat part} times
    # {theta strata}: either all theta (p out of range cases aside), or
    # exactly theta = 0.
    rng = random.Random(85)
    X = std(1)
    hits_theta = []
    for _ in range(40):
        angles = (Fraction(rng.randint(0, 3), 4), Fraction(rng.randint(0, 3), 4))
        theta = ((Fraction(rng.randint(-2, 2)), Fraction(0)),)
        h = HiggsLineBundle(angles, theta)
        if higgs_cohomology_dim(X, h, 0, 0) >= 1:
            assert h.flat_is_trivial
            hits_theta.append(theta[0])
    assert all(t == (Fraction(0), Fraction(0)) for t in hits_theta)


def test_verify_thm3_inverts_the_period_matrix_once(monkeypatch, tmp_path):
    # The pair's cohomology is read from whether theta vanishes, so no
    # Koszul matrix is ranked, and theta is the model's one inverse
    # period matrix times the log moduli: at n = 6 with 3 samples (39
    # degree checks) the one elimination is that 12 x 12 inverse.
    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return inverse(matrix)

    monkeypatch.setattr(higgs, "inverse", counted)
    argv = ["higgs", "verify-thm3", "--n", "6", "--samples", "3",
            "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert calls == [12]
