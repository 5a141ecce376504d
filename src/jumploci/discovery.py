"""Discovery and exact certification of jump-locus components as torsion
translates of affine subtori, the genus-component count, and abelian
cover certificates.

Discovery scans torsion characters up to a cutoff order, then grows
candidate cosets greedily: starting from a hit, a direction (lifted
difference to another hit) is accepted only while every scanned torsion
point of the enlarged coset is itself a hit.  Candidates are certified by
generic rank along a monomial parametrization of the coset; semicontinuity
then gives membership on the whole coset, not just generically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .characters import Character, torsion_modulus
from .errors import InvariantError, Refusal
from .laurent import rank_generic
from .numutil import frac_mod1
from .presentation import FinitePresentation, reidemeister_schreier
from .subtorus import (TranslatedSubtorus, point_subtorus,
                       subtorus_from_directions)
from .twisted import (check_query, dims_from_rank, presentation_data,
                      scan_sigma, twisted_cohomology_dims)
from .value import Value


class Component(Value):
    """A translated subtorus with its status: "certified", "refuted" or
    "candidate"."""

    _fields = ("subtorus", "status", "generic_h", "contains_trivial",
               "insufficient_sampling")

    def __init__(self, subtorus: TranslatedSubtorus, status: str,
                 generic_h: int, contains_trivial: bool,
                 insufficient_sampling: bool = False):
        self.__dict__.update(subtorus=subtorus, status=status,
                             generic_h=generic_h,
                             contains_trivial=contains_trivial,
                             insufficient_sampling=insufficient_sampling)

    @property
    def dim(self):
        return self.subtorus.dim

    def serialize(self):
        out = self.subtorus.serialize()
        out.update({
            "certified": self.status == "certified",
            "status": self.status,
            "generic_h1": self.generic_h,
            "contains_trivial": self.contains_trivial,
        })
        if self.insufficient_sampling:
            out["insufficient_sampling"] = True
        return out


class JumpLocusReport:
    def __init__(self, degree, mult, max_order, vectors, components,
                 residual, scanned):
        self.degree = degree
        self.mult = mult
        self.max_order = max_order
        self.vectors = vectors          # ExponentMembers of the scan's hits
        self.components = components    # Component, canonical order
        self.residual = residual        # Characters no component explains
        self.scanned = scanned

    @property
    def members(self):
        """(Character, dims) pairs in canonical order, built on each read."""
        return self.vectors.characters()

    def certified_components(self):
        return [c for c in self.components if c.status == "certified"]

    def serialize(self):
        # The member list stays vectors; report.dumps_canonical writes it.
        return {
            "degree": self.degree,
            "multiplicity": self.mult,
            "K": self.max_order,
            "scanned": self.scanned,
            "members": self.vectors,
            "components": [c.serialize() | {"K": self.max_order}
                           for c in self.components],
            "residual": [chi.serialize() for chi in self.residual],
        }


# Largest conductor (lcm of angle denominators) of a translate that
# certify_component evaluates: certify surface2 with one angle 1/10080
# took 3.6 s, 1/27720 took 37 s and 1/2^55 overran a 1 GB address space
# (Python 3.11, one core of a 2-core x86-64 host).
MAX_CERTIFY_CONDUCTOR = 10_000


def certify_component(p: FinitePresentation, sub: TranslatedSubtorus,
                      degree, mult):
    """("certified" | "refuted", generic h^degree on the coset).

    Positive-dimensional cosets are certified by substituting the monomial
    parametrization z_j = tau_j * prod_k s_k^(B_jk) into the Fox matrix
    and computing generic rank; at a generic point of a positive
    dimensional coset the character is nontrivial.  Refuses a translate
    whose conductor exceeds MAX_CERTIFY_CONDUCTOR, before evaluating it.
    """
    ab, fox = presentation_data(p)
    if sub.free_rank != ab.free_rank or sub.torsion != ab.torsion:
        raise ValueError("subtorus lives on a different character torus")
    check_query(p, degree, mult)
    tau = sub.translate
    conductor = lcm(*(a.denominator for a in tau.angles + tau.tors_angles))
    if conductor > MAX_CERTIFY_CONDUCTOR:
        raise Refusal(f"translate of conductor {conductor} is above the "
                      f"limit {MAX_CERTIFY_CONDUCTOR}")
    if sub.dim == 0:
        generic_h = twisted_cohomology_dims(p, tau)[degree]
    else:
        free_vals, tors_vals = tau.free_values(), tau.torsion_values()
        param_rows = [
            [e.substitute_monomials(sub.directions, free_vals, sub.dim,
                                    tors_vals)
             for e in row]
            for row in fox
        ]
        rank = rank_generic(param_rows) if p.relator_count else 0
        generic_h = dims_from_rank(p, False, rank)[degree]
    return ("certified" if generic_h >= mult else "refuted"), generic_h


def _lift_difference(e, base, n, b):
    """Free part of the difference of two exponent vectors, lifted to
    [0, n)^b: n times the angle difference lifted to [0, 1)^b, so it
    spans the same direction."""
    return [(x - y) % n for x, y in zip(e[:b], base[:b])]


def _grow_candidate(seed, translate, class_hits, hit_keys, max_order):
    """(largest coset through seed whose scanned points are all hits,
    the exponent vectors of those points), or (None, None).

    seed and class_hits are exponent vectors and translate is seed's
    character.  The subset check iterates lazily so rejected directions
    fail on the first non-hit point of the enlarged coset.  A hit whose
    direction lies in the current span is a point of the current coset of
    order at most max_order, so it is in covered and skipped, and every
    candidate has one dimension more than the current coset."""
    n = torsion_modulus(max_order, translate.torsion)
    b = translate.free_rank
    directions = []
    current = covered = None
    for other in class_hits:
        if other == seed or (covered is not None and other in covered):
            continue
        cand_dirs = directions + [_lift_difference(other, seed, n, b)]
        cand = subtorus_from_directions(cand_dirs, translate)
        points = set()
        for pt in cand.iter_torsion_points(max_order):
            if pt not in hit_keys:
                break
            points.add(pt)
        else:
            directions, current, covered = cand_dirs, cand, points
    return current, covered


def discover_components(p: FinitePresentation, degree=1, mult=1, max_order=6):
    """Scan, fit, certify; returns a JumpLocusReport (cached per input).

    Certified components are pairwise incomparable; hits of refuted
    positive-dimensional candidates are reported as residual points, and
    remaining isolated hits become certified zero-dimensional components.
    """
    return _discovery_cached(p, degree, mult, max_order)


def _discover_components_impl(p: FinitePresentation, degree, mult, max_order):
    if max_order < 2:
        raise Refusal("scan order must be at least 2")
    result = scan_sigma(p, degree, mult, max_order)
    # Hits travel as exponent vectors, with a Character only for a grow
    # seed, a component or a residual point.
    vectors = result.vectors
    hit_keys = {e for e, _ in vectors.pairs}
    b = vectors.free_rank
    by_class = {}
    for e, _ in vectors.pairs:
        by_class.setdefault(e[b:], []).append(e)

    candidates = {}
    for tors_class, class_hits in sorted(by_class.items()):
        covered = set()
        for seed in class_hits:
            if seed in covered:
                continue
            grown, points = _grow_candidate(seed, vectors.character(seed),
                                            class_hits, hit_keys, max_order)
            if grown is None or grown.dim == 0:
                continue
            grown = grown.canonical_translate(max_order)
            key = (grown.annihilator, grown.translate.sort_key())
            if key not in candidates:
                candidates[key] = grown, points
            covered |= points

    components = []
    residual_keys = set()
    covered_keys = set()
    for key in sorted(candidates):
        sub, pts = candidates[key]
        status, generic_h = certify_component(p, sub, degree, mult)
        if status == "certified":
            components.append(Component(
                sub, status, generic_h,
                contains_trivial=sub.contains(Character.trivial(
                    sub.free_rank, sub.torsion))))
            covered_keys |= pts
        else:
            components.append(Component(
                sub, "refuted", generic_h, contains_trivial=False,
                insufficient_sampling=True))
            residual_keys |= pts & hit_keys

    # Maximality among certified components.
    certified = [c for c in components if c.status == "certified"]
    keep = []
    for c in certified:
        if any(o is not c and o.subtorus.contains_subtorus(c.subtorus)
               for o in certified):
            continue
        keep.append(c)
    components = keep + [c for c in components if c.status != "certified"]

    # Leftover hits: isolated certified points unless already residual.
    for e, dims in vectors.pairs:
        if e in covered_keys or e in residual_keys:
            continue
        chi = vectors.character(e)
        components.append(Component(point_subtorus(chi), "certified",
                                    dims[degree],
                                    contains_trivial=chi.is_trivial))
        covered_keys.add(e)

    components.sort(key=lambda c: c.subtorus.sort_key())
    residual = [vectors.character(e) for e, _ in vectors.pairs
                if e in residual_keys and e not in covered_keys]
    return JumpLocusReport(degree, mult, max_order, vectors,
                           components, residual, result.scanned)


@lru_cache(maxsize=32)
def _discovery_cached(p: FinitePresentation, degree, mult, max_order):
    return _discover_components_impl(p, degree, mult, max_order)


def count_genus_components(p: FinitePresentation, genus, max_order=6):
    """Number of certified 2g-dimensional components of the first jump
    locus through the trivial character.  Refuses genus < 2."""
    if genus < 2:
        raise Refusal("genus at least two required")
    report = _discovery_cached(p, 1, 1, max_order)
    return sum(1 for c in report.certified_components()
               if c.dim == 2 * genus and c.contains_trivial)


def kill_cover(p: FinitePresentation, characters):
    """reidemeister_schreier for the joint kernel of finite-order
    characters, whose cosets the characters label themselves: with n the
    lcm of their orders and a_i(x) the angle of chi_i(x), x -> (n a_i(x))_i
    in (Z/n)^m has kernel the intersection of the ker chi_i, so no normal
    form of the quotient is needed."""
    ab, _ = presentation_data(p)
    n = lcm(*(chi.order() for chi in characters))
    targets = [tuple((n * chi.value_parts(*image)[1]).numerator
                     for chi in characters)
               for image in ab.gen_images]
    return reidemeister_schreier(p, targets, n)


class CoverCertificate:
    def __init__(self, cover: FinitePresentation, schreier_words: tuple,
                 component: Component, base_component: Component,
                 trivial_cover: bool):
        self.cover = cover
        self.schreier_words = schreier_words
        self.component = component
        self.base_component = base_component
        self.trivial_cover = trivial_cover

    def serialize(self):
        return {
            "cover_generators": self.cover.generator_count,
            "cover_relators": self.cover.relator_count,
            "trivial_cover": self.trivial_cover,
            "component": self.component.serialize(),
            "base_component": self.base_component.serialize(),
        }


def restrict_subtorus_to_cover(sub: TranslatedSubtorus, base_ab, cover_p,
                               schreier_words):
    """Image of a translated subtorus under restriction of characters to
    a finite-index subgroup presented by Schreier words."""
    cover_ab, _ = presentation_data(cover_p)
    # H1(base) image of each Schreier generator.
    images = [base_ab.project_word(w) for w in schreier_words]
    # Direction transport: base angle direction v -> angles on cover gens
    # -> coordinates on the cover's free H1 basis via basis lifts.
    new_dirs = []
    for col in zip(*sub.directions):
        v = [Fraction(x) for x in col]
        gen_angles = [sum(Fraction(fi) * vi for fi, vi in zip(img[0], v))
                      for img in images]
        coord = []
        for lift in cover_ab.basis_lifts:
            coord.append(sum(Fraction(l) * a for l, a in zip(lift, gen_angles)))
        new_dirs.append(coord)
    translate = transport_character(sub.translate, base_ab, cover_p,
                                    schreier_words)
    return subtorus_from_directions(new_dirs, translate)


def transport_character(chi: Character, base_ab, target_p, gen_words):
    """Character on the target presentation whose generator values match
    chi on the given words."""
    target_ab, _ = presentation_data(target_p)
    images = [base_ab.project_word(w) for w in gen_words]
    vals = [chi.value_parts(f, t) for f, t in images]
    angles = [frac_mod1(sum(Fraction(l) * vals[i][1] for i, l in enumerate(lift)))
              for lift in target_ab.basis_lifts]
    tors = [frac_mod1(sum(Fraction(l) * vals[i][1] for i, l in enumerate(lift)))
            for lift in target_ab.torsion_lifts]
    moduli = []
    for lift in target_ab.basis_lifts:
        m = Fraction(1)
        for i, l in enumerate(lift):
            if l:
                m *= vals[i][0] ** l
        moduli.append(m)
    return Character(target_ab.free_rank, target_ab.torsion,
                     tuple(moduli), tuple(angles), tuple(tors))


def abelian_cover_certificate(p: FinitePresentation, max_order=6):
    """For a positive-dimensional component tau*T of the first jump locus,
    build the finite abelian cover killing tau, pull the component back,
    and verify it lies in the cover's jump locus through the trivial
    character.  Returns None when no positive-dimensional component
    exists."""
    report = _discovery_cached(p, 1, 1, max_order)
    positive = [c for c in report.certified_components() if c.dim > 0]
    if not positive:
        return None
    base = positive[0]
    sub = base.subtorus
    if not sub.is_unitary_translate():
        raise InvariantError("certificate requires a torsion translate")
    ab, _ = presentation_data(p)
    tau = sub.translate
    if tau.is_trivial:
        status, gh = certify_component(p, sub, 1, 1)
        comp = Component(sub, status, gh, contains_trivial=True)
        return CoverCertificate(p, tuple(), comp, base, trivial_cover=True)
    cover, schreier, _ = kill_cover(p, [tau])
    pulled = restrict_subtorus_to_cover(sub, ab, cover, schreier)
    if not pulled.translate.is_trivial:
        raise InvariantError("pulled-back translate is not trivial")
    status, gh = certify_component(cover, pulled, 1, 1)
    if status != "certified":
        raise InvariantError("pulled-back component failed certification")
    comp = Component(pulled, status, gh, contains_trivial=True)
    return CoverCertificate(cover, schreier, comp, base, trivial_cover=False)
