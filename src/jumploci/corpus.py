"""Named desk-scale presentations used by the regression suite and CLI.

CORPUS maps each name to a builder of its presentation.  Which of these
groups are Kaehler is a fact about the groups, not about the program, so
the one test that relies on it keeps its own list.
"""

from __future__ import annotations

from . import words
from .presentation import FinitePresentation


def surface_relator(offset, genus):
    rel = ()
    for i in range(genus):
        rel = words.concat(rel, words.commutator(
            words.generator(offset + 2 * i), words.generator(offset + 2 * i + 1)))
    return rel


def surface_group(genus):
    """pi1 of the closed orientable genus-g surface."""
    names = tuple(f"{x}{i+1}" for i in range(genus) for x in ("a", "b"))
    return FinitePresentation(2 * genus, (surface_relator(0, genus),),
                              aspherical=True, names=names)


def free_group(rank):
    return FinitePresentation(rank, (), aspherical=True)


def free_abelian(rank):
    """Z^rank with all pairwise commutators."""
    rels = tuple(words.commutator(words.generator(i), words.generator(j))
                 for i in range(rank) for j in range(i + 1, rank))
    # The presentation 2-complex is aspherical only for rank <= 2.
    return FinitePresentation(rank, rels, aspherical=(rank <= 2))


def cyclic_times_z(order=3):
    """Z/order + Z as <a, b | a^order, [a, b]>."""
    rels = (words.generator(0, order),
            words.commutator(words.generator(0), words.generator(1)))
    return FinitePresentation(2, rels)


def surface_product(genus1, genus2):
    """pi1(S_g1) x pi1(S_g2): two surface relators plus commutators
    between the factors."""
    n1, n2 = 2 * genus1, 2 * genus2
    rels = [surface_relator(0, genus1), surface_relator(n1, genus2)]
    for i in range(n1):
        for j in range(n2):
            rels.append(words.commutator(words.generator(i), words.generator(n1 + j)))
    return FinitePresentation(n1 + n2, tuple(rels))


def surface_times_z2(genus=2):
    """pi1(S_g) x Z^2; its first jump locus is the single component
    (full surface factor) x {1} through the trivial character."""
    n1 = 2 * genus
    rels = [surface_relator(0, genus),
            words.commutator(words.generator(n1), words.generator(n1 + 1))]
    for i in range(n1):
        for j in range(2):
            rels.append(words.commutator(words.generator(i), words.generator(n1 + j)))
    return FinitePresentation(n1 + 2, tuple(rels))


def square_commutator_group():
    """<a, b | [a^2, b^2]>.  The Fox row factors as
    (1+A)(1+B) (1-B, A-1), so the first jump locus is the two circles
    {A = -1}, {B = -1} plus the trivial character.  An order-2 scan sees
    every order-2 point hit and must refute the over-fitted full torus,
    which exercises the insufficient-sampling flag; order-4 scans
    separate the true components."""
    a2 = words.generator(0, 2)
    b2 = words.generator(1, 2)
    return FinitePresentation(2, (words.commutator(a2, b2),))


def trefoil_group():
    """<a, b | a b a b^-1 a^-1 b^-1>, H1 = Z; the Fox row is the classic
    degree-2 Alexander polynomial."""
    a, b = words.generator(0), words.generator(1)
    rel = words.concat(a, b, a, words.inverse(b), words.inverse(a), words.inverse(b))
    return FinitePresentation(2, (rel,), aspherical=True)


def swap_mapping_torus():
    """Mapping torus of the swap automorphism of F2:
    <a, b, t | t a t^-1 b^-1, t b t^-1 a^-1>.  H1 = Z^2 and the first jump
    locus is {order-2 translate of a 1-dim subtorus} plus the trivial
    character, so it carries a genuinely nontrivial torsion translate."""
    a, b, t = words.generator(0), words.generator(1), words.generator(2)
    r1 = words.concat(t, a, words.inverse(t), words.inverse(b))
    r2 = words.concat(t, b, words.inverse(t), words.inverse(a))
    return FinitePresentation(3, (r1, r2), aspherical=True,
                              names=("a", "b", "t"))


def torus_bundle_order3():
    """Z^2 semidirect Z with monodromy [[0,-1],[1,-1]] of order three:
    <a, b, t | [a,b], t a t^-1 b^-1, t b t^-1 b a>.  H1 = Z + Z/3; the
    first jump locus is the three characters with t-value a cube root of
    unity, and the cover killing them is Z^3 (jump locus {1})."""
    a, b, t = words.generator(0), words.generator(1), words.generator(2)
    r1 = words.commutator(a, b)
    r2 = words.concat(t, a, words.inverse(t), words.inverse(b))
    r3 = words.concat(t, b, words.inverse(t), b, a)
    return FinitePresentation(3, (r1, r2, r3), names=("a", "b", "t"))


def baumslag_solitar_1_2():
    """<a, t | t a t^-1 a^-2>; asymmetric Alexander module (eigenvalue 2),
    used to pin the homology-versus-cohomology weight convention."""
    a, t = words.generator(0), words.generator(1)
    rel = words.concat(t, a, words.inverse(t), words.generator(0, -2))
    return FinitePresentation(2, (rel,), names=("a", "t"))


CORPUS = {
    "surface2": lambda: surface_group(2),
    "surface3": lambda: surface_group(3),
    "free2": lambda: free_group(2),
    "free3": lambda: free_group(3),
    "z2": lambda: free_abelian(2),
    "z3": lambda: free_abelian(3),
    "z4": lambda: free_abelian(4),
    "c3xz": lambda: cyclic_times_z(3),
    "product23": lambda: surface_product(2, 3),
    "s2xz2": lambda: surface_times_z2(2),
    "square_comm": square_commutator_group,
    "trefoil": trefoil_group,
    "swap_torus": swap_mapping_torus,
    "torus_bundle3": torus_bundle_order3,
    "bs12": baumslag_solitar_1_2,
}


def get(name):
    try:
        build = CORPUS[name]
    except KeyError:
        raise KeyError(f"unknown corpus group {name!r}") from None
    return build()

