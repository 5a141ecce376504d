import random

import pytest

from jumploci import corpus, presentation, words
from jumploci.errors import InvariantError, Refusal
from jumploci.laurent import LaurentPoly
from jumploci.presfile import parse_presentation
from jumploci.presentation import (MAX_COVER_INDEX, AbelianizationData,
                                   FinitePresentation, _check_accounting,
                                   abelianize, fox_matrix,
                                   fox_row_identity_holds, permuted_inverted,
                                   reidemeister_schreier)

from conftest import within_seconds


def test_abelianize_examples():
    s2 = corpus.get("surface2")
    ab = abelianize(s2)
    assert ab.free_rank == 4 and ab.torsion == ()
    z2 = corpus.get("z2")
    ab2 = abelianize(z2)
    assert ab2.free_rank == 2 and ab2.torsion == ()
    c3 = FinitePresentation(1, (words.generator(0, 3),))
    ab3 = abelianize(c3)
    assert ab3.free_rank == 0 and ab3.torsion == (3,)
    free = FinitePresentation(3, ())
    assert abelianize(free).free_rank == 3


@pytest.mark.parametrize("p", [parse_presentation("generators: []\n"),
                               corpus.get("free2"), corpus.get("free3")],
                         ids=["trivial", "free2", "free3"])
def test_abelianize_free_groups_through_the_smith_form(p, monkeypatch):
    # No relators: the g x 0 exponent matrix has the Smith form u = I, so
    # every generator is its own basis vector, and the accounting runs.
    g = p.generator_count
    checked = []
    real = presentation._check_accounting
    monkeypatch.setattr(presentation, "_check_accounting",
                        lambda p_, data: checked.append(p_) or real(p_, data))
    ab = abelianize(p)
    unit = [tuple(int(i == j) for i in range(g)) for j in range(g)]
    assert (ab.free_rank, ab.torsion, ab.torsion_lifts) == (g, (), ())
    assert ab.gen_images == tuple((u, ()) for u in unit)
    assert ab.basis_lifts == tuple(unit)
    assert checked == [p]


def test_abelianize_kills_relators_and_counts():
    for name in corpus.names():
        p = corpus.get(name)
        ab = abelianize(p)
        for rel in p.relators:
            free, tors = ab.project_word(rel)
            assert all(x == 0 for x in free) and all(x == 0 for x in tors)
        assert ab.free_rank + len([d for d in ab.torsion]) <= p.generator_count


def test_fox_matrix_commutator_row():
    z2 = corpus.get("z2")
    ab = abelianize(z2)
    fm = fox_matrix(z2, ab)
    A = LaurentPoly.monomial(ab.gen_images[0], 2)
    B = LaurentPoly.monomial(ab.gen_images[1], 2)
    one = LaurentPoly.one(2)
    assert fm[0][0] == one - B
    assert fm[0][1] == A - one


def test_fox_matrix_power_row():
    c3 = FinitePresentation(1, (words.generator(0, 3),))
    ab = abelianize(c3)
    fm = fox_matrix(c3, ab)
    e = fm[0][0]
    # 1 + A + A^2 in the group ring of Z/3
    expected = LaurentPoly(0, (3,), {((), (k,)): 1 for k in range(3)})
    assert e == expected


def test_fox_matrix_long_power_is_linear():
    # One term-dict copy per letter made this quadratic: 4.7 s.
    p = FinitePresentation(1, (words.generator(0, 20000),))
    ab = abelianize(p)
    fm = within_seconds(2, fox_matrix, p, ab)
    assert fm == [[LaurentPoly(0, (20000,),
                               {((), (k,)): 1 for k in range(20000)})]]


def test_fox_matrix_free_group_empty():
    free = FinitePresentation(2, ())
    ab = abelianize(free)
    assert fox_matrix(free, ab) == []


def test_fox_fundamental_identity_all_corpus_relators():
    for name in corpus.names():
        p = corpus.get(name)
        ab = abelianize(p)
        for rel, row in zip(p.relators, fox_matrix(p, ab)):
            assert fox_row_identity_holds(row, ab), (name, rel)


def test_reidemeister_schreier_examples():
    z2 = corpus.get("z2")
    cover, _, index = reidemeister_schreier(z2, [(1,), (0,)], 2)
    assert index == 2
    abc = abelianize(cover)
    assert abc.free_rank == 2 and abc.torsion == ()

    s2 = corpus.get("surface2")
    cov2, _, _ = reidemeister_schreier(s2, [(1,), (0,), (0,), (0,)], 2)
    assert cov2.generator_count == 2 * (4 - 1) + 1
    ab2 = abelianize(cov2)
    assert ab2.free_rank == 6 and ab2.torsion == ()   # genus 3

    free2 = corpus.get("free2")
    covf, _, _ = reidemeister_schreier(free2, [(1,), (0,)], 3)
    assert covf.generator_count == 3 * (2 - 1) + 1 == 4
    assert covf.relator_count == 0
    assert abelianize(covf).free_rank == 4            # Nielsen-Schreier


def _image_order(targets, n):
    """Brute-force size of the subgroup of (Z/n)^m the targets generate."""
    m = len(targets[0]) if targets else 0
    seen = {(0,) * m}
    frontier = list(seen)
    while frontier:
        c = frontier.pop()
        for t in targets:
            nc = tuple((a + b) % n for a, b in zip(c, t))
            if nc not in seen:
                seen.add(nc)
                frontier.append(nc)
    return len(seen)


def test_reidemeister_schreier_index_is_the_image_order():
    # The map need not be onto: the index is the order of the image, and
    # a Schreier transversal leaves N(g - 1) + 1 generators at index N.
    rng = random.Random(33)
    names = ("z2", "z3", "free2", "surface2", "trefoil", "c3xz", "swap_torus")
    not_onto = 0
    for _ in range(60):
        p = corpus.get(rng.choice(names))
        g = p.generator_count
        n = rng.randint(1, 6)
        m = rng.randint(0, 3)
        targets = [tuple(rng.randrange(n) * rng.randint(0, 1)
                         for _ in range(m)) for _ in range(g)]
        expected = _image_order(targets, n)
        not_onto += expected < n ** m
        cover, schreier, index = reidemeister_schreier(p, targets, n)
        assert index == expected, (targets, n)
        assert cover.generator_count == len(schreier) == index * (g - 1) + 1
    assert not_onto >= 10


def test_reidemeister_schreier_zero_map_gives_the_group_itself():
    z2 = corpus.get("z2")
    for targets, n in (([(0,), (0,)], 2), ([(), ()], 1), ([(), ()], 5)):
        cover, schreier, index = reidemeister_schreier(z2, targets, n)
        assert index == 1
        assert schreier == (((0, 1),), ((1, 1),))
        assert cover.relators == z2.relators


def test_reidemeister_schreier_refuses_large_index():
    z2 = corpus.get("z2")
    with pytest.raises(Refusal, match="cover of index 513 is above the limit 512"):
        reidemeister_schreier(z2, [(1,), (0,)], MAX_COVER_INDEX + 1)
    with pytest.raises(Refusal, match="cover of index 1024 is above the limit"):
        reidemeister_schreier(z2, [(1, 0), (0, 1)], 32)
    cover, _, index = reidemeister_schreier(z2, [(1,), (0,)], MAX_COVER_INDEX)
    assert index == MAX_COVER_INDEX
    assert cover.generator_count == MAX_COVER_INDEX + 1


def test_thm4_on_s2xz2_refuses_its_index_20736_cover():
    # The weights of s2xz2 at K = 4 ask for the quotient (Z/12)^4; building
    # that cover exhausted memory before the preflight.
    from jumploci.alexander import finite_locus_cover_check
    with pytest.raises(Refusal, match="index 20736"):
        within_seconds(60, finite_locus_cover_check, corpus.get("s2xz2"), 2, 4)


def test_cover_free_rank_matches_euler_characteristic():
    # index-n covers of a genus-g surface have genus n(g-1) + 1; free
    # groups of rank r lift to rank n(r-1) + 1.
    rng = random.Random(31)
    for genus in (2, 3):
        p = corpus.get(f"surface{genus}")
        for n in (2, 3):
            targets = [(1,)] + [(0,)] * (p.generator_count - 1)
            cover, _, _ = reidemeister_schreier(p, targets, n)
            ab = abelianize(cover)
            assert ab.free_rank == 2 * (n * (genus - 1) + 1)
    for rank in (2, 3):
        p = corpus.get(f"free{rank}")
        for n in (2, 4):
            targets = [(1,)] + [(0,)] * (rank - 1)
            cover, _, _ = reidemeister_schreier(p, targets, n)
            assert abelianize(cover).free_rank == n * (rank - 1) + 1


def test_snf_invariants_stable_under_tietze_moves():
    rng = random.Random(32)
    for name in ("surface2", "z3", "c3xz", "trefoil", "torus_bundle3"):
        p = corpus.get(name)
        ab = abelianize(p)
        for _ in range(8):
            perm = list(range(p.generator_count))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(p.generator_count)]
            q = permuted_inverted(p, perm, signs)
            abq = abelianize(q)
            assert (abq.free_rank, abq.torsion) == (ab.free_rank, ab.torsion)


def test_abelianize_large_exponents():
    # Six relators with exponents up to 28: swap-and-repeat Smith steps
    # once ran without end on this input.
    rows = [(27, 13, -12, 9, 7, 28), (-2, -3, 13, -11, -7, 17),
            (-10, -14, -16, -1, -5, 17), (-9, -28, 7, 19, -17, 21),
            (19, 13, -24, 12, 10, -22), (-15, -8, 26, -21, 15, 2)]
    rels = tuple(sum((words.generator(j, e) for j, e in enumerate(row)), ())
                 for row in rows)
    p = FinitePresentation(6, rels)
    ab = within_seconds(10, abelianize, p)
    assert (ab.free_rank, ab.torsion) == (0, (154772358,))


def test_letters_must_have_exponent_one_or_minus_one():
    # A letter (0, -2) once built a presentation whose Fox rows and
    # exponent sums disagreed, so presentation_data raised InvariantError.
    with pytest.raises(ValueError, match="exponent must be 1 or -1"):
        FinitePresentation(1, (((0, -2),),))
    with pytest.raises(ValueError, match="exponent must be 1 or -1"):
        FinitePresentation(2, (((0, 1), (1, 0)),))
    with pytest.raises(ValueError, match="unknown generator"):
        FinitePresentation(1, (((-1, 1),),))
    assert FinitePresentation(1, (words.generator(0, -2),)).relators == (
        ((0, -1), (0, -1)),)


def test_accounting_check_raises_invariant_error():
    # Explicit raises, so the check survives python -O.
    c3 = FinitePresentation(1, (words.generator(0, 3),))
    ab = abelianize(c3)
    with pytest.raises(InvariantError, match="free rank"):
        _check_accounting(c3, AbelianizationData(
            1, ab.torsion, (((1,), (1,)),), ab.basis_lifts, ab.torsion_lifts))
    with pytest.raises(InvariantError, match="relator"):
        _check_accounting(c3, AbelianizationData(
            ab.free_rank, (4,), ab.gen_images, ab.basis_lifts,
            ab.torsion_lifts))
