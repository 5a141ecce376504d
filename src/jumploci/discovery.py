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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .characters import Character, torsion_modulus
from .cyclotomic import Cyc
from .laurent import rank_generic
from .numutil import frac_mod1
from .presentation import FinitePresentation, reidemeister_schreier
from .subtorus import (TranslatedSubtorus, point_subtorus,
                       subtorus_from_directions)
from .twisted import (DegreeError, presentation_data, scan_sigma,
                      twisted_cohomology_dims)


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class Component:
    subtorus: TranslatedSubtorus
    status: str                  # "certified" | "refuted" | "candidate"
    generic_h: int
    contains_trivial: bool
    insufficient_sampling: bool = False

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


@dataclass
class JumpLocusReport:
    degree: int
    mult: int
    max_order: int
    members: list                # (Character, dims) canonical order
    components: list             # Component, canonical order
    residual: list               # Characters not explained by components
    scanned: int

    def certified_components(self):
        return [c for c in self.components if c.status == "certified"]

    def serialize(self):
        return {
            "degree": self.degree,
            "multiplicity": self.mult,
            "K": self.max_order,
            "scanned": self.scanned,
            "members": [chi.serialize() | {"dims": list(d)}
                        for chi, d in self.members],
            "components": [c.serialize() | {"K": self.max_order}
                           for c in self.components],
            "residual": [chi.serialize() for chi in self.residual],
        }


def certify_component(p: FinitePresentation, sub: TranslatedSubtorus,
                      degree, mult):
    """("certified" | "refuted", generic h^degree on the coset).

    Positive-dimensional cosets are certified by substituting the monomial
    parametrization z_j = tau_j * prod_k s_k^(B_jk) into the Fox matrix
    and computing generic rank; at a generic point of a positive
    dimensional coset the character is nontrivial, so h0 = 0 there.
    """
    ab, fox = presentation_data(p)
    if sub.free_rank != ab.free_rank or sub.torsion != ab.torsion:
        raise CertificateError("subtorus lives on a different character torus")
    if degree == 2 and not p.aspherical:
        raise DegreeError("H^2 undefined for this input")
    if degree not in (0, 1, 2):
        raise DegreeError(f"degree {degree} out of range")
    g, r = p.generator_count, p.relator_count
    if sub.dim == 0:
        chi = sub.translate
        dims = twisted_cohomology_dims(p, chi, include_h2=p.aspherical)
        val = dims[degree] if degree < len(dims) else 0
        return ("certified" if val >= mult else "refuted"), val
    if degree == 0:
        return "refuted", 0   # h0 vanishes at nontrivial generic points
    cols = sub.lattice_columns()         # b x d
    d = sub.dim
    tau = sub.translate
    translate_vals = [Cyc.from_angle(a) * m
                      for a, m in zip(tau.angles, tau.moduli)]
    tors_vals = tau.torsion_values()
    param_rows = [
        [e.substitute_monomials(cols, translate_vals, d, tors_vals)
         for e in row]
        for row in fox
    ]
    rank = rank_generic(param_rows) if r else 0
    if degree == 1:
        generic_h = (g - rank) - 1
    else:
        generic_h = r - rank
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
    fail on the first non-hit point of the enlarged coset."""
    n = torsion_modulus(max_order, translate.torsion)
    b = translate.free_rank
    directions = []
    current = covered = None
    for other in class_hits:
        if other == seed or (covered is not None and other in covered):
            continue
        cand_dirs = directions + [_lift_difference(other, seed, n, b)]
        cand = subtorus_from_directions(cand_dirs, translate)
        if current is not None and cand.dim == current.dim:
            continue
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
        raise ValueError("scan order must be at least 2")
    result = scan_sigma(p, degree, mult, max_order)
    # Hits travel as exponent vectors; their characters come from the scan.
    member = dict(zip(result.points, result.hits))
    hit_keys = set(member)
    b = presentation_data(p)[0].free_rank
    by_class = {}
    for e in result.points:
        by_class.setdefault(e[b:], []).append(e)

    candidates = {}
    for tors_class, class_hits in sorted(by_class.items()):
        covered = set()
        for seed in class_hits:
            if seed in covered:
                continue
            grown, points = _grow_candidate(seed, member[seed][0], class_hits,
                                            hit_keys, max_order)
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
    for e in result.points:
        if e in covered_keys or e in residual_keys:
            continue
        chi, dims = member[e]
        components.append(Component(point_subtorus(chi), "certified",
                                    dims[degree],
                                    contains_trivial=chi.is_trivial))
        covered_keys.add(e)

    components.sort(key=lambda c: c.subtorus.sort_key())
    residual = [member[e][0] for e in result.points
                if e in residual_keys and e not in covered_keys]
    return JumpLocusReport(degree, mult, max_order, result.hits,
                           components, residual, result.scanned)


@lru_cache(maxsize=32)
def _discovery_cached(p: FinitePresentation, degree, mult, max_order):
    return _discover_components_impl(p, degree, mult, max_order)


def count_genus_components(p: FinitePresentation, genus, max_order=6):
    """Number of certified 2g-dimensional components of the first jump
    locus through the trivial character.  Refuses genus < 2."""
    if genus < 2:
        raise ValueError("genus at least two required")
    report = _discovery_cached(p, 1, 1, max_order)
    return sum(1 for c in report.certified_components()
               if c.dim == 2 * genus and c.contains_trivial)


def finite_quotient_from_characters(characters, ab):
    """Present Q = H1 / (joint kernel of finite-order characters):
    returns (orders, presentation-generator targets) for
    Reidemeister-Schreier."""
    from .intlinalg import kernel_columns, smith_normal_form, transpose

    free_rank, torsion = ab.free_rank, ab.torsion
    gens = free_rank + len(torsion)
    rows = []
    mods = []
    for chi in characters:
        k = chi.order()
        if k == 1:
            continue
        row = [int(a * k) for a in chi.angles] + [int(a * k) for a in chi.tors_angles]
        rows.append(row)
        mods.append(k)
    # Torsion relations of H1 itself also hold in the quotient.
    lattice_rows = []
    for i, d in enumerate(torsion):
        lattice_rows.append([0] * free_rank
                            + [d if j == i else 0 for j in range(len(torsion))])
    if not rows:
        return (), tuple(() for _ in range(ab.generator_count))
    # Kernel lattice: x with rows . x = 0 mod the respective orders.
    aug = [row + [-mods[i] if t == i else 0 for t in range(len(rows))]
           for i, row in enumerate(rows)]
    ker = kernel_columns(aug, ncols=gens + len(rows))
    klat = [[ker[i][t] for t in range(len(ker[0]))] for i in range(gens)] \
        if ker and ker[0] else [[] for _ in range(gens)]
    basis = transpose(klat)
    basis.extend(lattice_rows)
    # Q = Z^gens / row span(basis): Smith form gives canonical orders.
    a = transpose(basis)  # columns are relations
    u, dmat, _ = smith_normal_form(a)
    n = min(len(a), len(a[0]) if a else 0)
    diag = [dmat[i][i] for i in range(n)]
    if len(diag) < gens or any(dv == 0 for dv in diag):
        raise CertificateError("quotient is not finite")
    orders = []
    pos = []
    for i, dv in enumerate(diag):
        if dv >= 2:
            orders.append(dv)
            pos.append(i)
    h1_targets = []
    for j in range(gens):
        col = [u[i][j] for i in range(len(u))]
        h1_targets.append(tuple(col[pos[k]] % orders[k] for k in range(len(pos))))
    # Push from H1 coordinates to presentation generators.
    targets = []
    for free_img, tors_img in ab.gen_images:
        acc = [0] * len(orders)
        for k, e in enumerate(free_img):
            if e:
                for t in range(len(orders)):
                    acc[t] += e * h1_targets[k][t]
        for i, e in enumerate(tors_img):
            if e:
                for t in range(len(orders)):
                    acc[t] += e * h1_targets[free_rank + i][t]
        targets.append(tuple(a % o for a, o in zip(acc, orders)))
    return tuple(orders), tuple(targets)


@dataclass
class CoverCertificate:
    cover: FinitePresentation
    schreier_words: tuple
    component: Component
    base_component: Component
    trivial_cover: bool

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
    cols = sub.lattice_columns()
    d = len(cols[0]) if cols and cols[0] else 0
    new_dirs = []
    for t in range(d):
        v = [Fraction(cols[j][t]) for j in range(sub.free_rank)]
        gen_angles = [sum(Fraction(fi) * vi for fi, vi in zip(img[0], v))
                      for img in images]
        coord = []
        for lift in cover_ab.basis_lifts:
            coord.append(sum(Fraction(l) * a for l, a in zip(lift, gen_angles)))
        new_dirs.append(coord)
    translate = transport_character(sub.translate, base_ab, cover_p,
                                    schreier_words)
    return subtorus_from_directions(new_dirs, translate)


def tietze_transport(p: FinitePresentation, perm, signs):
    """(variant presentation, generator words) for a permute/invert
    Tietze move; generator j of the variant equals the returned word in
    the original generators, so subtori and characters transport through
    restrict_subtorus_to_cover / transport_character."""
    from . import words as W
    from .presentation import permuted_inverted
    variant = permuted_inverted(p, perm, signs)
    gen_words = tuple(W.generator(perm[j], signs[j])
                      for j in range(p.generator_count))
    return variant, gen_words


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


def reports_agree_after_transport(p: FinitePresentation, report,
                                  variant: FinitePresentation, variant_report,
                                  gen_words, max_order):
    """Whether two discovery reports describe the same locus after the
    coordinate change induced by generator words."""
    ab, _ = presentation_data(p)
    moved_members = {transport_character(chi, ab, variant, gen_words).sort_key()
                     for chi, _dims in report.members}
    their_members = {chi.sort_key() for chi, _dims in variant_report.members}
    if moved_members != their_members:
        return False
    moved = []
    for c in report.components:
        sub = restrict_subtorus_to_cover(c.subtorus, ab, variant, gen_words)
        sub = sub.canonical_translate(max_order)
        moved.append((sub.annihilator, sub.translate.sort_key(), c.status))
    theirs = []
    for c in variant_report.components:
        sub = c.subtorus.canonical_translate(max_order)
        theirs.append((sub.annihilator, sub.translate.sort_key(), c.status))
    return sorted(moved) == sorted(theirs)


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
    if not sub.is_torsion_translate():
        raise CertificateError(
            "certificate requires a torsion translate")
    ab, _ = presentation_data(p)
    tau = sub.translate
    if tau.is_trivial:
        status, gh = certify_component(p, sub, 1, 1)
        comp = Component(sub, status, gh, contains_trivial=True)
        return CoverCertificate(p, tuple(), comp, base, trivial_cover=True)
    orders, targets = finite_quotient_from_characters([tau], ab)
    cover, schreier = reidemeister_schreier(p, targets, orders)
    pulled = restrict_subtorus_to_cover(sub, ab, cover, schreier)
    if not pulled.translate.is_trivial:
        raise CertificateError("pulled-back translate is not trivial")
    status, gh = certify_component(cover, pulled, 1, 1)
    if status != "certified":
        raise CertificateError("pulled-back component failed certification")
    comp = Component(pulled, status, gh, contains_trivial=True)
    return CoverCertificate(cover, schreier, comp, base, trivial_cover=False)
