import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumploci import corpus, discovery
from jumploci.characters import (Character, count_torsion_characters,
                                 enumerate_torsion_characters,
                                 torsion_modulus)
from jumploci.cyclotomic import rank_exact
from jumploci.errors import Refusal
from jumploci.discovery import (Component, _discovery_cached,
                                abelian_cover_certificate,
                                certify_component, count_genus_components,
                                discover_components, kill_cover,
                                transport_character)
from jumploci.numutil import frac_mod1
from jumploci.presfile import parse_presentation
from jumploci.subtorus import (TranslatedSubtorus, point_subtorus,
                              subtorus_from_directions)
from jumploci.twisted import MAX_SCAN_CHARACTERS, presentation_data

from oracles import (evaluate_by_coordinate, least_torsion_point,
                     reports_agree_after_transport, tietze_transport,
                     translate_root_of_unity_check)
from test_scan_certificate import presentations


def test_surface_single_full_torus_component():
    s2 = corpus.get("surface2")
    rep = discover_components(s2, 1, 1, 3)
    certs = rep.certified_components()
    assert len(certs) == 1
    comp = certs[0]
    assert comp.dim == 4 and comp.subtorus.annihilator == ()
    assert comp.contains_trivial and comp.generic_h == 2
    assert rep.residual == []


def test_dense_locus_builds_no_character_per_member(monkeypatch):
    # surface3 at K = 3: all 792 characters are members of one component.
    # Members stay exponent vectors, so the Characters built are the
    # torsion class's and its least point's, not one per member.
    built = []
    from_exponents = Character.from_exponents

    def counted(*args):
        built.append(args)
        return from_exponents(*args)

    monkeypatch.setattr(Character, "from_exponents", staticmethod(counted))
    _discovery_cached.cache_clear()
    rep = discover_components(corpus.get("surface3"), 1, 1, 3)
    assert len(rep.vectors.pairs) == 792 and len(rep.components) == 1
    assert len(built) <= 10


def test_torus_single_point_component():
    z2 = corpus.get("z2")
    rep = discover_components(z2, 1, 1, 4)
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.dim == 0 and comp.subtorus.translate.is_trivial
    assert comp.status == "certified"


def test_certify_examples():
    s2 = corpus.get("surface2")
    torus4 = TranslatedSubtorus(4, (), (), Character.trivial(4))
    assert certify_component(s2, torus4, 1, 2) == ("certified", 2)
    assert certify_component(s2, torus4, 1, 3) == ("refuted", 2)
    z2 = corpus.get("z2")
    torus2 = TranslatedSubtorus(2, (), (), Character.trivial(2))
    assert certify_component(z2, torus2, 1, 1) == ("refuted", 0)
    f2 = corpus.get("free2")
    status, gh = certify_component(f2, point_subtorus(Character.trivial(2)), 1, 2)
    assert (status, gh) == ("certified", 2)


def test_swap_torus_translated_component():
    sw = corpus.get("swap_torus")
    rep = discover_components(sw, 1, 1, 4)
    pos = [c for c in rep.certified_components() if c.dim > 0]
    assert len(pos) == 1
    comp = pos[0]
    assert comp.subtorus.translate.order() == 2
    assert not comp.contains_trivial
    # trivial character is its own zero-dimensional component
    zero = [c for c in rep.certified_components() if c.dim == 0]
    assert any(c.subtorus.translate.is_trivial for c in zero)
    # translate passes the root-of-unity check
    assert translate_root_of_unity_check(comp.subtorus)


def test_certified_components_incomparable_and_semicontinuous():
    for name in ("surface2", "swap_torus", "torus_bundle3"):
        p = corpus.get(name)
        ab, fox = presentation_data(p)
        rep = discover_components(p, 1, 1, 3)
        certs = rep.certified_components()
        for i, c in enumerate(certs):
            for j, d in enumerate(certs):
                if i != j:
                    assert not c.subtorus.contains_subtorus(d.subtorus)
        # rank at sampled torsion points never exceeds the generic rank
        g = p.generator_count
        for c in certs:
            if c.dim == 0:
                continue
            generic_rank = (g - 1) - c.generic_h
            for chi in c.subtorus.torsion_points(3)[:20]:
                mat = [[evaluate_by_coordinate(e, chi) for e in row]
                       for row in fox]
                assert rank_exact(mat) <= generic_rank


def test_every_hit_covered_or_residual():
    for name in ("surface2", "z2", "swap_torus", "c3xz", "torus_bundle3"):
        p = corpus.get(name)
        rep = discover_components(p, 1, 1, 4)
        residual_keys = {c.sort_key() for c in rep.residual}
        for chi, _dims in rep.members:
            covered = any(c.subtorus.contains(chi)
                          for c in rep.certified_components())
            assert covered or chi.sort_key() in residual_keys


def test_translates_are_least_listed_points():
    # Each component is named by its least torsion point of order <= K:
    # growth's covered points for a grown coset, the point itself for an
    # isolated one.  Scans above the limit (product23 at K = 4) are
    # refused, so they are left out.
    for name in corpus.names():
        p = corpus.get(name)
        ab, _ = presentation_data(p)
        for K in (3, 4):
            if count_torsion_characters(ab.free_rank, ab.torsion,
                                        K) > MAX_SCAN_CHARACTERS:
                continue
            for degree in (1, 2) if p.aspherical else (1,):
                rep = discover_components(p, degree, 1, K)
                for c in rep.components:
                    sub = c.subtorus
                    least = least_torsion_point(sub, K)
                    n = torsion_modulus(K, sub.torsion)
                    assert sub.translate == Character.from_exponents(
                        sub.free_rank, sub.torsion, least, n), (name, K)


def test_surface_times_torus_single_component():
    # Kunneth: the only component is (full surface factor) x {1}, of
    # dimension 4 and through the trivial character.
    p = corpus.get("s2xz2")
    rep = discover_components(p, 1, 1, 3)
    certs = rep.certified_components()
    assert len(certs) == 1
    comp = certs[0]
    assert comp.dim == 4 and comp.contains_trivial
    # annihilator pins the Z^2 coordinates
    assert comp.subtorus.annihilator == ((0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    assert count_genus_components(p, 2, 3) == 1


def test_count_genus_components():
    s2 = corpus.get("surface2")
    assert count_genus_components(s2, 2, 3) == 1
    assert count_genus_components(s2, 3, 3) == 0
    z4 = corpus.get("z4")
    assert count_genus_components(z4, 2, 4) == 0
    assert count_genus_components(z4, 3, 4) == 0
    with pytest.raises(Refusal):
        count_genus_components(s2, 1, 3)


def test_insufficient_sampling_flag_and_residuals():
    # At K=2 every order-2 character of <a, b | [a^2, b^2]> hits, so the
    # over-fitted full torus is refuted and flagged, with all hits
    # reported residual; at K=4 the two order-2-translated circles
    # separate and certify, leaving no residual.
    p = corpus.get("square_comm")
    rep2 = discover_components(p, 1, 1, 2)
    refuted = [c for c in rep2.components if c.status == "refuted"]
    assert len(refuted) == 1 and refuted[0].dim == 2
    assert refuted[0].insufficient_sampling
    assert refuted[0].serialize()["insufficient_sampling"] is True
    assert len(rep2.residual) == 4
    assert rep2.certified_components() == []

    rep4 = discover_components(p, 1, 1, 4)
    assert rep4.residual == []
    assert not any("insufficient_sampling" in c.serialize()
                   for c in rep4.components)
    by_dim = sorted((c.dim, tuple(str(a) for a in c.subtorus.translate.angles))
                    for c in rep4.certified_components())
    assert by_dim == [(0, ("0", "0")), (1, ("0", "1/2")), (1, ("1/2", "0"))]
    for c in rep4.certified_components():
        if c.dim == 1:
            assert c.subtorus.translate.order() == 2


def test_maximality_drops_a_certified_coset_inside_another(monkeypatch):
    # No corpus input reaches the maximality filter, so growth is forced:
    # no class counts as complete, the first seed of surface2 at K = 2
    # gets a circle, and the next uncovered seed grows as usual, to the
    # full torus.  Both certify; the report keeps only the torus, and the
    # circle's points stay claimed, neither isolated points nor residual.
    grow, seeds = discovery._grow_candidate, []

    def forced(seed, translate, class_hits, class_keys, max_order):
        seeds.append(seed)
        if len(seeds) > 1:
            return grow(seed, translate, class_hits, class_keys, max_order)
        circle = subtorus_from_directions([[1, 0, 0, 0]], translate)
        return circle, set(circle.iter_torsion_points(max_order))

    monkeypatch.setattr(discovery, "_grow_candidate", forced)
    monkeypatch.setattr(TranslatedSubtorus, "torsion_point_count",
                        lambda self, max_order: -1)
    _discovery_cached.cache_clear()
    try:
        rep = discover_components(corpus.get("surface2"), 1, 1, 2)
    finally:
        _discovery_cached.cache_clear()
    assert len(seeds) == 2 and len(rep.vectors.pairs) == 16
    assert [(c.dim, c.status, c.subtorus.annihilator)
            for c in rep.components] == [(4, "certified", ())]
    assert rep.residual == []


def _discover_uncached(p, K):
    """discover_components(p, 1, 1, K), read past its cache."""
    return _discovery_cached.__wrapped__(p, 1, 1, K)


def _assert_class_count_changes_nothing(p, K):
    counted = _discover_uncached(p, K).serialize()
    with pytest.MonkeyPatch.context() as mp:
        # No class counts as complete, so every class is grown.
        mp.setattr(TranslatedSubtorus, "torsion_point_count",
                   lambda self, max_order: -1)
        assert _discover_uncached(p, K).serialize() == counted


@pytest.mark.parametrize("name,K", [(name, K) for name in corpus.names()
                                    for K in (2, 3, 4)
                                    if name != "product23" or K == 2])
def test_complete_class_count_gives_growths_report(name, K):
    # Taking a complete torsion class as one coset, by its point count,
    # reports what growing it point by point reports (module docstring).
    _assert_class_count_changes_nothing(corpus.get(name), K)


@settings(max_examples=40, deadline=None)
@given(presentations(), st.integers(2, 4))
def test_complete_class_count_gives_growths_report_on_random_input(p, K):
    _assert_class_count_changes_nothing(p, K)


def _grow_seeds(monkeypatch):
    """The seeds _grow_candidate is called with, from now on."""
    grow, seeds = discovery._grow_candidate, []

    def counted(seed, *args):
        seeds.append(seed)
        return grow(seed, *args)

    monkeypatch.setattr(discovery, "_grow_candidate", counted)
    return seeds


@pytest.mark.parametrize("name", ["surface2", "surface3", "free2", "free3"])
def test_curve_groups_grow_no_coset(monkeypatch, name):
    # Every hit of a surface or free group lies in the trivial class, which
    # holds all the torus's points of order <= K, so nothing is grown.
    seeds = _grow_seeds(monkeypatch)
    for K in (2, 3, 4):
        rep = _discover_uncached(corpus.get(name), K)
        assert [c.dim for c in rep.components] == [rep.vectors.free_rank]
    assert seeds == []


# The orbifold group Gamma(1; m, m) = <a, b, c, d | [a,b] c d, c^m, d^m>,
# whose H1 is Z^2 + Z/m: each nontrivial torsion class is a translated
# 2-dimensional component with generic h1 = 2g - 2 + 2 = 2.
def _orbifold_curve(m):
    return parse_presentation(f'generators: [a, b, c, d]\nrelators: '
                              f'["[a,b] c d", "c^{m}", "d^{m}"]')


@pytest.mark.parametrize("m,K,angles", [(2, 2, ["1/2"]), (2, 3, ["1/2"]),
                                        (2, 4, ["1/2"]),
                                        (4, 4, ["1/4", "1/2", "3/4"])])
def test_translated_classes_are_taken_whole(monkeypatch, m, K, angles):
    seeds = _grow_seeds(monkeypatch)
    rep = _discover_uncached(_orbifold_curve(m), K)
    assert rep.vectors.torsion == (m,)
    planes = [c for c in rep.components if c.dim == 2]
    assert [(c.status, c.subtorus.annihilator, c.generic_h,
             c.subtorus.translate.serialize()) for c in planes] == [
        ("certified", (), 2, {"moduli": ["1", "1"], "angles": ["0", "0"],
                              "torsion": [a]}) for a in angles]
    # Only the trivial character, alone in its class, reaches growth.
    assert seeds == [(0, 0, 0)] and rep.residual == []


# Coset-growth reproducers: F2 x Z with H1 written in a skewed basis (a),
# the same group in a basis growth handles (b), and a one-relator group
# whose locus is non-reduced (c).
REPRODUCERS = {
    "a": 'generators: [a, b, d]\nrelators: ["[a, d a]", "[b, d a]"]',
    "b": 'generators: [a, b, d]\nrelators: ["[a, d a^-1]", "[b, d a^-1]"]',
    "c": 'generators: [x, y]\nrelators: ["x^2 [x,y] x^-2 x y x y^-1 x^-1 '
         'x^-1 x y x y^-1 x^-1 x^-1 [x,y]"]',
}
REPRODUCER_DISCOVERY = {
    # (a) pins a known defect: greedy growth from lifted differences never
    # finds the true plane H = [[1, 0, 1]].  Growth from the tangent space
    # at a hit (ROADMAP.md, "Coset growth from the tangent space") fixes
    # it and changes these lists.
    ("a", 2): ([(((1, 0, -1),), "refuted", 0)], 4),
    ("a", 3): ([(((1, 6, -5),), "refuted", 0),
                (((1, 0, -2), (0, 1, -2)), "refuted", 0),
                (((1, 0, -2), (0, 1, -1)), "refuted", 0),
                (((1, 0, -2), (0, 1, 0)), "refuted", 0),
                (((1, 0, 0), (0, 0, 1)), "certified", 1)], 8),
    ("a", 4): ([(((1, 12, -11),), "refuted", 0),
                (((1, 0, -3), (0, 1, -3)), "refuted", 0),
                (((1, 0, -3), (0, 1, -2)), "refuted", 0),
                (((1, 0, -3), (0, 1, -1)), "refuted", 0),
                (((1, 0, -3), (0, 1, 0)), "refuted", 0),
                (((1, 0, 0), (0, 0, 1)), "certified", 1)], 18),
    **{("b", K): ([(((1, 0, -1),), "certified", 1)], 0) for K in (2, 3, 4)},
    **{("c", K): ([(((1, 0),), "certified", 1)], 0) for K in (2, 3, 4)},
}


@pytest.mark.parametrize("name,K", sorted(REPRODUCER_DISCOVERY))
def test_discovery_on_growth_reproducers(name, K):
    rep = discover_components(parse_presentation(REPRODUCERS[name]), 1, 1, K)
    found = [(c.subtorus.annihilator, c.status, c.generic_h)
             for c in rep.components]
    assert (found, len(rep.residual)) == REPRODUCER_DISCOVERY[name, K]


def test_cover_certificate_on_square_commutator():
    cert = abelian_cover_certificate(corpus.get("square_comm"), 4)
    assert not cert.trivial_cover
    assert cert.base_component.subtorus.translate.order() == 2
    assert cert.component.contains_trivial
    assert cert.component.status == "certified"


def test_degree_two_discovery_on_aspherical_input():
    # The degree-2 locus of the genus-2 group is the trivial character
    # alone (h2 = 1 there, 0 elsewhere).
    s2 = corpus.get("surface2")
    rep = discover_components(s2, 2, 1, 3)
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.dim == 0 and comp.subtorus.translate.is_trivial
    assert comp.status == "certified" and comp.generic_h == 1
    with pytest.raises(Exception):
        discover_components(corpus.get("torus_bundle3"), 2, 1, 3)


def test_abelian_cover_certificates():
    s2 = corpus.get("surface2")
    cert = abelian_cover_certificate(s2, 3)
    assert cert.trivial_cover and cert.component.contains_trivial
    assert abelian_cover_certificate(corpus.get("z2"), 4) is None
    sw = corpus.get("swap_torus")
    cert2 = abelian_cover_certificate(sw, 4)
    assert not cert2.trivial_cover
    assert cert2.cover.generator_count == 2 * (3 - 1) + 1
    assert cert2.component.status == "certified"
    assert cert2.component.contains_trivial
    assert cert2.component.dim == cert2.base_component.dim


def test_trivial_translate_cover_certificate_is_discoverys_component(
        monkeypatch):
    # Discovery already certified the component through 1 at degree 1,
    # mult 1, so the certificate reuses it and certifies nothing again.
    s2 = corpus.get("surface2")
    discover_components(s2, 1, 1, 3)
    calls = []
    monkeypatch.setattr(discovery, "certify_component",
                        lambda *args: calls.append(args))
    cert = abelian_cover_certificate(s2, 3)
    assert calls == []
    assert cert.trivial_cover and cert.component is cert.base_component
    # The same bytes as certifying the base component again.
    sub = cert.base_component.subtorus
    again = Component(sub, *certify_component(s2, sub, 1, 1))
    assert cert.serialize()["component"] == again.serialize()


# The corpus groups that are fundamental groups of compact Kaehler
# manifolds: curves of genus 2 and 3, complex tori of dimension 1 and 2,
# and the products of a genus-2 curve with a genus-3 curve and with an
# elliptic curve.  Their jump loci have the shape checked below
# (Beauville; Arapura); the other corpus groups need not.
KAEHLER = {"surface2", "surface3", "z2", "z4", "product23", "s2xz2"}


def test_component_shape_on_kaehler_corpus():
    # For Kaehler corpus groups, every certified positive-dimensional
    # component through 1 has even dimension >= 4 and trivial translate,
    # and every positive-dimensional translate passes the root-of-unity
    # check.
    plans = {"surface2": 3, "z2": 4, "z4": 3, "product23": 2}
    for name, K in plans.items():
        p = corpus.get(name)
        assert name in KAEHLER
        rep = discover_components(p, 1, 1, K)
        for c in rep.certified_components():
            if c.dim == 0:
                continue
            assert translate_root_of_unity_check(c.subtorus)
            if c.contains_trivial:
                assert c.dim % 2 == 0 and c.dim >= 4, (name, c.dim)
                assert c.subtorus.translate.is_trivial


def test_tietze_invariance_small_groups():
    rng = random.Random(61)
    for name in ("z2", "surface2", "swap_torus", "c3xz"):
        p = corpus.get(name)
        rep = discover_components(p, 1, 1, 3)
        for _ in range(3):
            perm = list(range(p.generator_count))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(p.generator_count)]
            variant, gen_words = tietze_transport(p, perm, signs)
            vrep = discover_components(variant, 1, 1, 3)
            assert reports_agree_after_transport(p, rep, variant, vrep,
                                                 gen_words, 3), (name, perm, signs)


def _subgroup_order(characters):
    """Brute-force order of the subgroup of the character group that the
    characters generate, each read as its angle vector modulo 1."""
    vecs = [chi.angles + chi.tors_angles for chi in characters]
    zero = tuple(Fraction(0) for _ in vecs[0])
    seen = {zero}
    frontier = [zero]
    while frontier:
        c = frontier.pop()
        for v in vecs:
            nc = tuple(frac_mod1(a + b) for a, b in zip(c, v))
            if nc not in seen:
                seen.add(nc)
                frontier.append(nc)
    return len(seen)


def test_kill_cover_index_and_kills():
    # The index of the joint kernel is the order of the subgroup the kill
    # characters generate, and every kill character is trivial on the
    # cover once restricted along the Schreier words.
    rng = random.Random(34)
    names = ("z2", "z3", "c3xz", "trefoil", "swap_torus", "surface2",
             "torus_bundle3", "square_comm", "free2")
    for _ in range(30):
        p = corpus.get(rng.choice(names))
        ab, _ = presentation_data(p)
        kill = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            kill.append(Character.unitary(
                ab.free_rank, ab.torsion,
                [Fraction(rng.randrange(k), k) for _ in range(ab.free_rank)],
                [Fraction(rng.randrange(d), d) for d in ab.torsion]))
        cover, schreier, index = kill_cover(p, kill)
        assert index == _subgroup_order(kill)
        for chi in kill:
            assert transport_character(chi, ab, cover, schreier).is_trivial


def _transport_targets(p, rng):
    """(target, generator words) pairs: three permute/invert Tietze
    variants of p, and for c3xz and torus_bundle3, the corpus groups
    with torsion (H1 = Z + Z/3), the covers that kill_cover builds for a
    free, a torsion and a mixed character of order dividing 6."""
    g = p.generator_count
    targets = [tietze_transport(p, rng.sample(range(g), g),
                                [rng.choice([1, -1]) for _ in range(g)])
               for _ in range(3)]
    ab, _ = presentation_data(p)
    if ab.torsion == (3,) and ab.free_rank == 1:
        for free, tors in ((Fraction(1, 2), 0), (0, Fraction(1, 3)),
                           (Fraction(1, 2), Fraction(2, 3))):
            chi = Character.unitary(1, ab.torsion, (free,), (tors,))
            cover, schreier, _ = kill_cover(p, [chi])
            targets.append((cover, schreier))
    return targets


def test_transport_matches_generator_values():
    # transport_character gives chi' with chi'(x'_j) = chi(word_j) for
    # every target generator j: chi'(x'_j) read through the target's
    # gen_images, chi(word_j) through the base's project_word, so no lift
    # is involved.  Characters: the torsion points of order <= 4 (200 of
    # them drawn at random on the tori of rank 6 and 10, which have
    # thousands), and bs12 at moduli 2 and 1/2.
    rng = random.Random(24)
    for name in corpus.names():
        p = corpus.get(name)
        ab, _ = presentation_data(p)
        b, torsion = ab.free_rank, ab.torsion
        if count_torsion_characters(b, torsion, 4) <= 1000:
            n = torsion_modulus(4, torsion)
            chars = [Character.from_exponents(b, torsion, e, n) for e in
                     enumerate_torsion_characters(b, torsion, 4)]
        else:
            chars = [Character.unitary(
                b, torsion, [Fraction(rng.randrange(k), k) for _ in range(b)])
                for k in (rng.randint(1, 4) for _ in range(200))]
        if name == "bs12":
            chars += [Character(1, (), (m,), (0,), ())
                      for m in (Fraction(2), Fraction(1, 2))]
        for target, gen_words in _transport_targets(p, rng):
            target_ab, _ = presentation_data(target)
            expected = [ab.project_word(w) for w in gen_words]
            for chi in chars:
                moved = transport_character(chi, ab, target, gen_words)
                assert all(moved.value_parts(*image) == chi.value_parts(*h)
                           for image, h in zip(target_ab.gen_images,
                                               expected)), (name, chi)
