"""Discovery and exact certification of jump-locus components as torsion
translates of affine subtori, the genus-component count, and abelian
cover certificates.

Discovery scans torsion characters up to a cutoff order and groups the
hits by torsion class, the coset C of the free torus through them.  A
class of more than one hit that holds every point of C of order <= K,
as TranslatedSubtorus.torsion_point_count counts them, is taken as the
coset C at once.  In any other class, from each hit that no earlier
coset covers (a seed) it grows a coset greedily, accepting a direction
(lifted difference to another hit) only while every scanned torsion
point of the enlarged coset is a hit.  Each coset is certified at once
by generic rank along a monomial parametrization; semicontinuity gives
membership on the whole coset.

Taking a complete class at once gives what growth gives.  The class's
hits are distinct points of C of order <= K, so equal counts mean every
such point is a hit.  Growth from the class's first seed then accepts
every candidate, as each is a coset through the seed inside C, and each
hit it visits, which is every hit of the class, ends up in its coset.
Let q be the least order killing a point of C, or 2 for the trivial
class; q <= K, as C has hits and K >= 2.  C has q^b points killed by q,
all hits, and a coset of dimension d holding one of them has q^d
(TranslatedSubtorus.iter_torsion_points), so the grown coset holds them
all only at d = b: it is C.  Its covered points are then exactly the
class's hits, the least of them is the translate, and the component,
its status, generic_h1 and the claimed and refuted sets are growth's.
A one-hit class is left to growth, so at b = 0 its hit stays an
isolated point.  Seed order cannot change the report:
certification reads only the coset; no two grown cosets are equal, as a
seed is never a covered point, so the final sort has no ties; the claimed
and refuted point sets and the maximality filter are order-free; and no
refusal fires in certification, as a translate has order <= K and the scan
refuses K >= 53 (numutil.IS_PRIME_LIMIT), far below MAX_CERTIFY_CONDUCTOR.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .characters import Character, torsion_modulus
from .errors import InvariantError, Refusal
from .presentation import FinitePresentation, reidemeister_schreier
from .subtorus import (TranslatedSubtorus, point_subtorus,
                       subtorus_from_directions)
from .twisted import check_query, coset_dims, presentation_data, scan_sigma
from .value import Value
from .words import exponent_sums


class Component(Value):
    """A translated subtorus with its status, "certified" or "refuted",
    and the generic h^degree along it."""

    _fields = ("subtorus", "status", "generic_h")

    @property
    def dim(self):
        return self.subtorus.dim

    @property
    def contains_trivial(self):
        """Whether the component is certified and passes through 1: a
        refuted candidate claims no point, so it contains none."""
        return self.status == "certified" and self.subtorus.contains(
            Character.trivial(self.subtorus.free_rank, self.subtorus.torsion))

    @property
    def insufficient_sampling(self):
        """Whether the component is a refuted candidate: every scanned
        point of it was a hit, yet its generic h^degree is below mult, so
        the scan order was too low to tell its true components apart."""
        return self.status == "refuted"

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


class JumpLocusReport(Value):
    """vectors holds the scan's hits as ExponentMembers, components the
    Components in canonical order, and residual the Characters no
    component explains."""

    _fields = ("degree", "mult", "max_order", "vectors", "components",
               "residual", "scanned")

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
    """("certified" | "refuted", generic h^degree on the coset), from
    twisted.coset_dims along the coset's direction basis.  Refuses a
    translate whose conductor exceeds MAX_CERTIFY_CONDUCTOR, before
    evaluating it."""
    ab, _ = presentation_data(p)
    if sub.free_rank != ab.free_rank or sub.torsion != ab.torsion:
        raise ValueError("subtorus lives on a different character torus")
    check_query(p, degree, mult)
    tau = sub.translate
    conductor = lcm(*(a.denominator for a in tau.angles + tau.tors_angles))
    if conductor > MAX_CERTIFY_CONDUCTOR:
        raise Refusal(f"translate of conductor {conductor} is above the "
                      f"limit {MAX_CERTIFY_CONDUCTOR}")
    generic_h = coset_dims(p, sub.directions, tau)[degree]
    return ("certified" if generic_h >= mult else "refuted"), generic_h


def _lift_difference(e, base, n, b):
    """Free part of the difference of two exponent vectors, lifted to
    [0, n)^b: n times the angle difference lifted to [0, 1)^b, so it
    spans the same direction."""
    return [(x - y) % n for x, y in zip(e[:b], base[:b])]


def _grow_candidate(seed, translate, class_hits, class_keys, max_order):
    """(largest coset through seed whose scanned points are all hits,
    the exponent vectors of those points), or (None, None).

    seed and class_hits are exponent vectors, class_keys is the set of
    class_hits, and translate is seed's character; a coset through seed
    keeps its torsion coordinates, so its hits are in class_keys.  The
    subset check iterates lazily so rejected directions fail on the
    first non-hit point of the enlarged coset.  A hit whose direction
    lies in the current span is a point of the current coset of order at
    most max_order, so it is in covered and skipped, and every candidate
    has one dimension more than the current coset."""
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
            if pt not in class_keys:
                break
            points.add(pt)
        else:
            directions, current, covered = cand_dirs, cand, points
    return current, covered


def discover_components(p: FinitePresentation, degree=1, mult=1, max_order=6):
    """Scan, then grow and certify each coset; a JumpLocusReport, cached.

    Certified components are pairwise incomparable; hits of refuted
    positive-dimensional candidates are reported as residual points, and
    remaining isolated hits become certified zero-dimensional components.
    """
    return _discovery_cached(p, degree, mult, max_order)


@lru_cache(maxsize=32)
def _discovery_cached(p: FinitePresentation, degree, mult, max_order):
    if max_order < 2:
        raise Refusal("scan order must be at least 2")
    result = scan_sigma(p, degree, mult, max_order)
    # Hits travel as exponent vectors, with a Character only for a class,
    # a grow seed, a component or a residual point.
    vectors = result.vectors
    b = vectors.free_rank
    by_class = {}
    for e, _ in vectors.pairs:
        by_class.setdefault(e[b:], []).append(e)

    components, claimed, refuted = [], set(), set()

    def settle(annihilator, points):
        # Exponent vectors sort as their characters do, so the least
        # covered point is the coset's least point of order <= K.
        coset = TranslatedSubtorus(b, vectors.torsion, annihilator,
                                   vectors.character(min(points)))
        status, generic_h = certify_component(p, coset, degree, mult)
        (claimed if status == "certified" else refuted).update(points)
        components.append(Component(coset, status, generic_h))

    for class_hits in by_class.values():
        # A class holding every point of its coset of order <= K is that
        # coset (module docstring); any of its hits names the coset.
        if len(class_hits) > 1 and len(class_hits) == TranslatedSubtorus(
                b, vectors.torsion, (), vectors.character(class_hits[0])
        ).torsion_point_count(max_order):
            settle((), class_hits)
            continue
        class_keys = set(class_hits)
        for seed in class_hits:
            if seed in claimed or seed in refuted:
                continue
            grown, points = _grow_candidate(seed, vectors.character(seed),
                                            class_hits, class_keys, max_order)
            if grown is not None:
                settle(grown.annihilator, points)

    # Maximality; a dropped coset's points stay claimed.
    certified = [c.subtorus for c in components if c.status == "certified"]
    components = [c for c in components if c.status != "certified" or not any(
        o is not c.subtorus and o.contains_subtorus(c.subtorus)
        for o in certified)]

    residual = []
    for e, dims in vectors.pairs:
        if e not in claimed and e in refuted:
            residual.append(vectors.character(e))
        elif e not in claimed:
            components.append(Component(point_subtorus(vectors.character(e)),
                                        "certified", dims[degree]))
    components.sort(key=lambda c: c.subtorus.sort_key())
    return JumpLocusReport(degree, mult, max_order, vectors,
                           components, residual, result.scanned)


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


class CoverCertificate(Value):
    """What abelian_cover_certificate returns."""

    _fields = ("cover", "schreier_words", "component", "base_component")

    @property
    def trivial_cover(self):
        """Whether the cover is the group itself: a cover of index N >= 2
        has N(g - 1) + 1 >= 1 Schreier generators, as g >= b >= 1 on a
        positive-dimensional component, so only the trivial cover has
        none."""
        return not self.schreier_words

    def serialize(self):
        return {
            "cover_generators": self.cover.generator_count,
            "cover_relators": self.cover.relator_count,
            "trivial_cover": self.trivial_cover,
            "component": self.component.serialize(),
            "base_component": self.base_component.serialize(),
        }


def _lift_images(base_ab, lifts, gen_words):
    """Images in H1(base) of lifts, exponent vectors in the generators of
    a target whose generator j is gen_words[j]: a lift l has the exponent
    sums sum_j l_j exponent_sums(gen_words[j])."""
    sums = [exponent_sums(w, base_ab.generator_count) for w in gen_words]
    return [base_ab.project_vector([sum(x * y for x, y in zip(lift, col))
                                    for col in zip(*sums)]) for lift in lifts]


def restrict_subtorus_to_cover(sub: TranslatedSubtorus, base_ab, cover_p,
                               schreier_words):
    """Image of a translated subtorus under restriction of characters to
    a finite-index subgroup presented by Schreier words: a direction v
    moves to (f . v) over the free parts f of the basis lifts' images."""
    cover_ab, _ = presentation_data(cover_p)
    images = _lift_images(base_ab, cover_ab.basis_lifts, schreier_words)
    new_dirs = [[sum(x * y for x, y in zip(f, col)) for f, _ in images]
                for col in zip(*sub.directions)]
    translate = transport_character(sub.translate, base_ab, cover_p,
                                    schreier_words)
    return subtorus_from_directions(new_dirs, translate)


def transport_character(chi: Character, base_ab, target_p, gen_words):
    """Character on the target presentation whose generator values match
    chi on the given words: chi read at the images of its lifts."""
    target_ab, _ = presentation_data(target_p)
    free = [chi.value_parts(*h) for h in _lift_images(
        base_ab, target_ab.basis_lifts, gen_words)]
    tors = [chi.value_parts(*h)[1] for h in _lift_images(
        base_ab, target_ab.torsion_lifts, gen_words)]
    return Character(target_ab.free_rank, target_ab.torsion,
                     tuple(m for m, _ in free), tuple(a for _, a in free),
                     tuple(tors))


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
    if not sub.translate.is_unitary:
        raise InvariantError("certificate requires a torsion translate")
    ab, _ = presentation_data(p)
    tau = sub.translate
    if tau.is_trivial:      # discovery certified base at degree 1, mult 1
        return CoverCertificate(p, tuple(), base, base)
    cover, schreier, _ = kill_cover(p, [tau])
    pulled = restrict_subtorus_to_cover(sub, ab, cover, schreier)
    if not pulled.translate.is_trivial:
        raise InvariantError("pulled-back translate is not trivial")
    status, gh = certify_component(cover, pulled, 1, 1)
    if status != "certified":
        raise InvariantError("pulled-back component failed certification")
    return CoverCertificate(cover, schreier, Component(pulled, status, gh),
                            base)
