from fractions import Fraction

import pytest

from jumploci import corpus
from jumploci.characters import (Character, enumerate_torsion_characters,
                                 torsion_modulus)
from jumploci.discovery import discover_components
from jumploci.twisted import (DegreeError, InvariantError, coboundary_matrices,
                              numeric_unitary_scan, scan_sigma,
                              sigma_membership, twisted_cohomology_dims)


def _characters(ab, K):
    n = torsion_modulus(K, ab.torsion)
    return [Character.from_exponents(ab.free_rank, ab.torsion, e, n)
            for e in enumerate_torsion_characters(ab.free_rank, ab.torsion, K)]


def test_surface_dims_at_trivial_and_torsion():
    s2 = corpus.get("surface2")
    assert twisted_cohomology_dims(s2, Character.trivial(4)) == (1, 4, 1)
    chi = Character.unitary(4, (), (Fraction(1, 2), 0, 0, 0))
    assert twisted_cohomology_dims(s2, chi) == (0, 2, 0)


def test_torus_dims():
    z2 = corpus.get("z2")
    chi = Character.unitary(2, (), (Fraction(1, 2), Fraction(0)))
    assert twisted_cohomology_dims(z2, chi) == (0, 0, 0)
    assert twisted_cohomology_dims(z2, Character.trivial(2)) == (1, 2, 1)


def test_free_group_memberships():
    f2 = corpus.get("free2")
    chi = Character.unitary(2, (), (Fraction(1, 3), Fraction(0)))
    assert sigma_membership(f2, chi, 1, 1)
    assert sigma_membership(f2, Character.trivial(2), 1, 2)
    assert not sigma_membership(f2, Character.trivial(2), 1, 3)


def test_torus_nontrivial_not_member():
    z2 = corpus.get("z2")
    chi = Character.unitary(2, (), (Fraction(1, 2), Fraction(1, 3)))
    assert not sigma_membership(z2, chi, 1, 1)


def test_degree_two_requires_asphericity():
    tb = corpus.get("torus_bundle3")   # not flagged aspherical
    chi = Character.trivial(1, (3,))
    with pytest.raises(DegreeError):
        twisted_cohomology_dims(tb, chi, include_h2=True)
    with pytest.raises(DegreeError):
        sigma_membership(tb, chi, 2, 1)


def test_degree_above_two_is_refused():
    z2 = corpus.get("z2")
    with pytest.raises(DegreeError):
        sigma_membership(z2, Character.trivial(2), 3, 1)
    with pytest.raises(DegreeError):
        scan_sigma(z2, 3, 1, 3)
    with pytest.raises(DegreeError):
        discover_components(z2, 3, 1, 3)


def test_dims_check_fox_identity_on_corpus():
    # twisted_cohomology_dims raises unless d1 composed with d0 vanishes
    # (Fox fundamental identity) and h1 >= 0, at sampled characters.
    for name in ("surface2", "z2", "c3xz", "trefoil", "swap_torus"):
        p = corpus.get(name)
        from jumploci.twisted import presentation_data
        ab, _ = presentation_data(p)
        for chi in _characters(ab, 3)[:10]:
            dims = twisted_cohomology_dims(p, chi)
            assert len(dims) == (3 if p.aspherical else 2)
            assert min(dims) >= 0


def test_dims_raise_invariant_error_on_broken_complex(monkeypatch):
    import jumploci.twisted as tw
    p = corpus.get("z2")
    chi = Character.unitary(2, (), (Fraction(1, 2), Fraction(0)))
    d0, d1 = coboundary_matrices(p, chi)
    monkeypatch.setattr(tw, "coboundary_matrices",
                        lambda p_, chi_: ([x + 1 for x in d0], d1))
    with pytest.raises(InvariantError) as info:
        twisted_cohomology_dims(p, chi)
    assert not isinstance(info.value, ValueError)


def test_scan_conjugation_and_inversion_symmetry():
    for name in ("surface2", "z2", "c3xz", "swap_torus", "trefoil"):
        p = corpus.get(name)
        res = scan_sigma(p, 1, 1, 4)
        keys = {chi.sort_key() for chi, _ in res.hits}
        for chi, _dims in res.hits:
            assert chi.conjugate().sort_key() in keys
        # inversion symmetry observed on all these fixtures (flagged, not
        # assumed in general)
        for chi, _dims in res.hits:
            assert chi.inverse().sort_key() in keys


def test_locus_nesting():
    s2 = corpus.get("surface2")
    hits_m2 = {c.sort_key() for c, _ in scan_sigma(s2, 1, 2, 3).hits}
    hits_m1 = {c.sort_key() for c, _ in scan_sigma(s2, 1, 1, 3).hits}
    assert hits_m2 <= hits_m1
    hits_m3 = {c.sort_key() for c, _ in scan_sigma(s2, 1, 3, 3).hits}
    assert hits_m3 <= hits_m2
    # multiplicity 3 only at the trivial character (h1 = 4 there, 2 off it)
    assert hits_m3 == {Character.trivial(4).sort_key()}


def test_scan_matches_pointwise_membership():
    for name in ("z2", "c3xz", "swap_torus"):
        p = corpus.get(name)
        from jumploci.twisted import presentation_data
        ab, _ = presentation_data(p)
        res = scan_sigma(p, 1, 1, 3)
        keys = {chi.sort_key() for chi, _ in res.hits}
        for chi in _characters(ab, 3):
            assert (chi.sort_key() in keys) == sigma_membership(p, chi, 1, 1)


def test_numeric_fallback_runs_and_is_flagged():
    s2 = corpus.get("surface2")
    found = numeric_unitary_scan(s2, 1, 1, samples=5, seed=0)
    assert len(found) == 5           # every character of a surface group hits
    assert all(item["flag"] == "numeric" for item in found)
    z2 = corpus.get("z2")
    assert numeric_unitary_scan(z2, 1, 1, samples=5, seed=0) == []


def test_dims_at_trivial_characters():
    s2 = corpus.get("surface2")
    assert s2.aspherical
    assert twisted_cohomology_dims(s2, Character.trivial(4)) == (1, 4, 1)
    d0, _ = coboundary_matrices(s2, Character.trivial(4))
    assert all(v.is_zero() for v in d0)       # trivial character
    tb = corpus.get("torus_bundle3")
    assert not tb.aspherical
    assert twisted_cohomology_dims(tb, Character.trivial(1, (3,))) == (1, 1)
