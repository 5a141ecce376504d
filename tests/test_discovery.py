import random
from fractions import Fraction

import pytest

from jumploci import corpus
from jumploci.characters import Character
from jumploci.cyclotomic import rank_exact
from jumploci.errors import Refusal
from jumploci.discovery import (_discovery_cached, abelian_cover_certificate,
                                certify_component, count_genus_components,
                                discover_components, kill_cover,
                                transport_character)
from jumploci.numutil import frac_mod1
from jumploci.subtorus import TranslatedSubtorus, point_subtorus
from jumploci.twisted import presentation_data

from oracles import (reports_agree_after_transport, tietze_transport,
                     translate_root_of_unity_check)


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
    # Members stay exponent vectors, so the Characters built are the grow
    # seed's and the canonical translate's, not one per member.
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
                from jumploci.cyclotomic import Cyc
                free_vals = [Cyc.from_angle(a) for a in chi.angles]
                tors_vals = chi.torsion_values()
                mat = [[e.evaluate(free_vals, tors_vals) for e in row]
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
    assert len(rep2.residual) == 4
    assert rep2.certified_components() == []

    rep4 = discover_components(p, 1, 1, 4)
    assert rep4.residual == []
    by_dim = sorted((c.dim, tuple(str(a) for a in c.subtorus.translate.angles))
                    for c in rep4.certified_components())
    assert by_dim == [(0, ("0", "0")), (1, ("0", "1/2")), (1, ("1/2", "0"))]
    for c in rep4.certified_components():
        if c.dim == 1:
            assert c.subtorus.translate.order() == 2


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
