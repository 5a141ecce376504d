"""Value semantics of the records: every record is a frozen ``Value``.

Sets and dicts of these records decide the order of what reports list,
so equality and hash must follow the compared fields as declared: the
hash is the hash of the tuple of compared fields in declaration order,
equality needs the same class and equal compared fields, fields kept out
of comparison are ignored, and no attribute can be set or deleted once
the record is built.
"""

from fractions import Fraction

import pytest

from jumploci import corpus
from jumploci.alexander import (ModuleAction, _dual_torus,
                                finite_locus_cover_check, smith_invariants,
                                vanishing_check, weights_and_inverses)
from jumploci.characters import Character, rplus_act
from jumploci.cyclotomic import Cyc
from jumploci.discovery import (Component, abelian_cover_certificate,
                                discover_components)
from jumploci.higgs import (ComplexTorusModel, LatticeCharacter,
                            character_to_higgs)
from jumploci.presentation import (AbelianizationData, FinitePresentation,
                                   abelianize)
from jumploci.subtorus import TranslatedSubtorus
from jumploci.twisted import fox_on_coset, scan_sigma


def _companion(poly):
    """Companion matrix of a monic one-variable LaurentPoly with a
    nonzero constant term."""
    d = poly.span
    return [[int(i == j + 1) for j in range(d - 1)]
            + [-poly.terms.get(((i,), ()), 0)] for i in range(d)]


def _cases():
    """(class, constructor args, index of an arg to change, its new value,
    compared field names) per record, built from corpus data."""
    trefoil = corpus.get("trefoil")
    ab = abelianize(corpus.get("c3xz"))
    chi = Character(ab.free_rank, ab.torsion, (2,), ("1/4",), ("1/3",))
    numeric = rplus_act(Fraction(1, 2), chi)
    swap_torus = corpus.get("swap_torus")
    discovery = discover_components(swap_torus, 1, 1, 4)
    comp = discovery.components[0]
    sub = comp.subtorus
    alexander_poly = next(f for f in smith_invariants(fox_on_coset(
        trefoil, *_dual_torus(abelianize(trefoil), ()))) if f.span > 0)
    model = ComplexTorusModel.standard(2)
    rho = LatticeCharacter((1, 0, -1, 2), ("1/6", 0, 0, "1/2"))
    h = character_to_higgs(model, LatticeCharacter((1, 0, -1, 2), (0,) * 4))
    action = ModuleAction((_companion(alexander_poly),))
    scan = scan_sigma(swap_torus, 1, 1, 4)
    stored = [
        (scan.vectors, 3, []),
        (scan, 1, scan.scanned + 1),
        (discovery, 1, 2),
        (weights_and_inverses(trefoil, 2, 3), 5, "changed"),
        (finite_locus_cover_check(trefoil, 2, 3), 1, 1),
        (abelian_cover_certificate(swap_torus, 4), 1, ()),
        (vanishing_check(action, [Cyc.one()]), 2, False),
    ]
    return [(type(x), tuple(getattr(x, name) for name in x._fields),
             index, value, x._fields) for x, index, value in stored] + [
        (FinitePresentation,
         (trefoil.generator_count, trefoil.relators, True, trefoil.names),
         2, False, ("generator_count", "relators", "aspherical", "names")),
        (AbelianizationData,
         (ab.free_rank, ab.torsion, ab.gen_images, ab.basis_lifts,
          ab.torsion_lifts),
         1, (9,), ("free_rank", "torsion", "gen_images")),
        (Character,
         (chi.free_rank, chi.torsion, chi.moduli, chi.angles, chi.tors_angles),
         3, ("1/3",), ("free_rank", "torsion", "moduli", "angles",
                       "tors_angles")),
        (type(numeric),
         (numeric.free_rank, numeric.torsion, numeric.values,
          numeric.tors_angles),
         2, (0j,), ("free_rank", "torsion", "values", "tors_angles")),
        (TranslatedSubtorus,
         (sub.free_rank, sub.torsion, sub.annihilator, sub.translate),
         3, Character.trivial(sub.free_rank),
         ("free_rank", "torsion", "annihilator", "translate")),
        (Component,
         (sub, comp.status, comp.generic_h),
         1, "refuted", ("subtorus", "status", "generic_h")),
        (ModuleAction, ((_companion(alexander_poly),),),
         0, (((1, 0), (0, 1)),), ("matrices",)),
        (ComplexTorusModel, (model.n, model.periods),
         1, model.periods[::-1], ("n", "periods")),
        (LatticeCharacter, (rho.log_moduli, rho.angles),
         1, (0,) * 4, ("log_moduli", "angles")),
        (type(h), (h.angles, h.theta),
         1, ((1, 0), (0, 0)), ("angles", "theta")),
    ]


CASES = _cases()


def _hash(value):
    """hash(value), or TypeError for a value with an unhashable part
    (Cyc entries make a ModuleAction unhashable)."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, args, index, value, compared", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_frozen_record_value_semantics(cls, args, index, value, compared):
    x = cls(*args)
    key = tuple(getattr(x, name) for name in compared)
    assert _hash(x) == _hash(key)
    twin = cls(*args)
    assert twin == x and _hash(twin) == _hash(x) and twin is not x
    changed = list(args)
    changed[index] = value
    assert cls(*changed) != x
    assert type(cls.__name__, (cls,), {})(*args) != x
    with pytest.raises(TypeError):
        cls(*args, None)
    if "__init__" not in vars(cls):
        with pytest.raises(TypeError):
            cls(*args[:-1])
    assert x != key and x != object()
    with pytest.raises(AttributeError):
        x.unknown_name = 1
    for name in compared:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in compared) == key


def test_fields_out_of_comparison_are_ignored():
    ab = abelianize(corpus.get("c3xz"))
    bare = AbelianizationData(ab.free_rank, ab.torsion, ab.gen_images)
    assert ab.basis_lifts and bare.basis_lifts == ()
    assert bare == ab and hash(bare) == hash(ab)
    sub = discover_components(corpus.get("swap_torus"), 1, 1,
                              4).components[0].subtorus
    twin = TranslatedSubtorus(sub.free_rank, sub.torsion, sub.annihilator,
                              sub.translate)
    object.__setattr__(twin, "directions", ())
    object.__setattr__(twin, "right_inverse", ())
    assert twin == sub and hash(twin) == hash(sub)
