"""Finite group presentations: abelianization, Fox calculus, and
Reidemeister-Schreier subgroup presentations.

The abelianization H1 = Z^b + Z/d_1 + ... + Z/d_t is computed once per
presentation by Smith normal form of the relator exponent matrix; every
generator gets explicit (free, torsion) coordinates in that decomposition.
Fox derivative rows are recorded in the integral group ring of H1, as
laurent.LaurentPoly values with a torsion twist.
"""

from __future__ import annotations

from math import gcd

from . import words
from .errors import InvariantError, Refusal
from .intlinalg import smith_normal_form
from .laurent import LaurentPoly
from .linalg import inverse, rank_exact
from .value import Value


class FinitePresentation(Value):
    """Generators x_0 .. x_{g-1} and cyclically reduced relator words."""

    _fields = ("generator_count", "relators", "aspherical", "names")

    def __init__(self, generator_count: int, relators: tuple,
                 aspherical: bool = False, names: tuple = ()):
        if generator_count < 0:
            raise ValueError("generator count must be nonnegative")
        reduced = []
        for rel in relators:
            for idx, exp in rel:
                if exp not in (1, -1):
                    raise ValueError("a letter's exponent must be 1 or -1")
                if not 0 <= idx < generator_count:
                    raise ValueError("relator uses an unknown generator")
            rel = words.cyclic_reduce(words.free_reduce(rel))
            if rel:
                reduced.append(rel)
        self.__dict__.update(
            generator_count=generator_count, relators=tuple(reduced),
            aspherical=aspherical, names=names or tuple(
                _default_name(i) for i in range(generator_count)))

    @property
    def relator_count(self):
        return len(self.relators)

    def exponent_matrix(self):
        """Relator exponent sums, one row per relator."""
        return [words.exponent_sums(r, self.generator_count) for r in self.relators]


def _default_name(i):
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    if i < len(alphabet):
        return alphabet[i]
    return f"x{i}"


class AbelianizationData(Value):
    """H1 of a presentation as Z^b + Z/d_1 + ... + Z/d_t with projection.

    gen_images[j] = (free coords in Z^b, torsion coords mod d_i) of the
    j-th generator.  basis_lifts[k] is an exponent vector in Z^g mapping to
    the k-th free basis vector (torsion coords zero), used to transport
    characters between Tietze-equivalent presentations.
    """

    _fields = ("free_rank", "torsion", "gen_images")

    def __init__(self, free_rank: int, torsion: tuple, gen_images: tuple,
                 basis_lifts: tuple = (), torsion_lifts: tuple = ()):
        self.__dict__.update(free_rank=free_rank, torsion=torsion,
                             gen_images=gen_images, basis_lifts=basis_lifts,
                             torsion_lifts=torsion_lifts)

    @property
    def generator_count(self):
        return len(self.gen_images)

    def project_vector(self, exps):
        """Image in H1 of a generator exponent vector."""
        b, t = self.free_rank, len(self.torsion)
        free = [0] * b
        tors = [0] * t
        for j, e in enumerate(exps):
            if not e:
                continue
            gf, gt = self.gen_images[j]
            for k in range(b):
                free[k] += e * gf[k]
            for k in range(t):
                tors[k] = (tors[k] + e * gt[k]) % self.torsion[k]
        return tuple(free), tuple(tors)

    def project_word(self, letters):
        exps = words.exponent_sums(letters, self.generator_count)
        return self.project_vector(exps)


def abelianize(p: FinitePresentation) -> AbelianizationData:
    """Smith-normal-form invariants of the relator exponent matrix; with
    no relators, of the g x 0 matrix, whose u = I gives Z^g."""
    g = p.generator_count
    e = p.exponent_matrix()
    # Relator images are columns of e^T; H1 = Z^g / column span.
    a = [[e[i][j] for i in range(len(e))] for j in range(g)]
    u, d, v = smith_normal_form(a)
    n = min(g, len(e))
    diag = [d[i][i] for i in range(n)]
    rank = sum(1 for x in diag if x)
    torsion_pos = [i for i in range(rank) if diag[i] >= 2]
    free_pos = list(range(rank, g))
    torsion = tuple(diag[i] for i in torsion_pos)
    b = len(free_pos)
    # Coordinates of generator j: reorder u @ e_j into (free, torsion).
    gen_images = []
    for j in range(g):
        col = [u[i][j] for i in range(g)]
        free = tuple(col[i] for i in free_pos)
        tors = tuple(col[torsion_pos[k]] % torsion[k] for k in range(len(torsion_pos)))
        gen_images.append((free, tors))
    # Lift basis vectors through u^{-1}: solve u @ x = e_pos.
    uinv = [[int(x) for x in row] for row in inverse(u)]
    basis_lifts = tuple(tuple(uinv[r][pos] for r in range(g)) for pos in free_pos)
    torsion_lifts = tuple(tuple(uinv[r][pos] for r in range(g)) for pos in torsion_pos)
    data = AbelianizationData(b, torsion, tuple(gen_images), basis_lifts, torsion_lifts)
    _check_accounting(p, data)
    return data


def _check_accounting(p, data):
    """Guard the Smith form: b = g - rank(exponent matrix), and every
    relator projects to zero in H1."""
    g = p.generator_count
    if data.free_rank != g - rank_exact(p.exponent_matrix()):
        raise InvariantError("free rank accounting failed")
    for rel in p.relators:
        free, tors = data.project_word(rel)
        if any(free) or any(tors):
            raise InvariantError("projection does not kill a relator")


def fox_derivative(rel, j, ab: AbelianizationData):
    """Fox derivative of a relator w.r.t. generator j, abelianized.

    Rules: d(uv) = du + u dv, dx/dx = 1, d(x^-1)/dx = -x^-1.  Prefix
    images are taken in H1, so the result lives in Z[H1].
    """
    coeffs = {}
    prefix = [0] * ab.generator_count
    for idx, exp in rel:
        if idx == j:
            if exp == 1:
                key = ab.project_vector(prefix)
            else:
                step = list(prefix)
                step[idx] -= 1
                key = ab.project_vector(step)
            coeffs[key] = coeffs.get(key, 0) + exp
        prefix[idx] += exp
    return LaurentPoly(ab.free_rank, ab.torsion, coeffs)


def fox_matrix(p: FinitePresentation, ab: AbelianizationData):
    """r x g matrix over Z[H1] whose rows are Fox derivative vectors."""
    return [
        [fox_derivative(rel, j, ab) for j in range(p.generator_count)]
        for rel in p.relators
    ]


def fox_row_identity_holds(row, ab: AbelianizationData):
    """The fundamental identity sum_j row[j] (x_j - 1) == 0 in Z[H1] for
    an already built Fox row."""
    b, torsion = ab.free_rank, ab.torsion
    total = LaurentPoly.zero(b, torsion)
    for d, image in zip(row, ab.gen_images):
        if not d.is_zero():
            total = total + d * LaurentPoly.monomial(image, b, torsion) - d
    return total.is_zero()


def permuted_inverted(p: FinitePresentation, perm, signs):
    """Tietze variant: new generator j is old generator perm[j]^signs[j].

    Words are rewritten through the inverse substitution, so the variant
    presents the same group.
    """
    g = p.generator_count
    inv_perm = [0] * g
    for j, t in enumerate(perm):
        inv_perm[t] = j
    new_rels = []
    for rel in p.relators:
        letters = []
        for idx, exp in rel:
            nj = inv_perm[idx]
            letters.append((nj, exp * signs[nj]))
        new_rels.append(tuple(letters))
    names = tuple(p.names[perm[j]] for j in range(g))
    return FinitePresentation(g, tuple(new_rels), p.aspherical, names)


# Largest cover index reidemeister_schreier builds.  The cover of a
# g-generator, r-relator presentation at index N has N(g - 1) + 1
# generators and N r relators, and its abelianization ranks a dense
# exponent matrix of that size, so the cost grows as N^2.  thm4 on s2xz2
# asks for index 1,296 at K = 3 and 20,736 at K = 4; the latter exhausted
# memory before this limit.
MAX_COVER_INDEX = 512


def reidemeister_schreier(p: FinitePresentation, gen_targets, modulus):
    """(cover, Schreier words, index) for the kernel of pi1 -> (Z/n)^m,
    x_j -> gen_targets[j], n = modulus.

    The map need not be onto: the index is the order of the image, the
    span mod n of the columns of T^t for the g x m target matrix T.  With
    T^t = U.D.V (U, V unimodular) that span is U(+ d_i.Z/nZ), so the
    index is the product of n / gcd(d_i, n); a zero invariant counts 1.
    Refuses an index above MAX_COVER_INDEX before any coset is built.
    Schreier generators come from a BFS transversal; the output is
    simplified only by free reduction and dropping empty relators.
    """
    g = p.generator_count
    m = len(gen_targets[0]) if g else 0
    index = 1
    if m:
        _, d, _ = smith_normal_form(gen_targets)
        for i in range(min(g, m)):
            index *= modulus // gcd(d[i][i], modulus)
    if index > MAX_COVER_INDEX:
        raise Refusal(f"cover of index {index} is above the limit "
                      f"{MAX_COVER_INDEX}")

    def add(c, t):
        return tuple((a + b) % modulus for a, b in zip(c, t))

    def neg(t):
        return tuple(-a % modulus for a in t)

    zero = (0,) * m
    # BFS over the coset graph; transversal words are Schreier (prefix closed).
    transversal = {zero: ()}
    queue = [zero]
    while queue:
        c = queue.pop(0)
        for j in range(g):
            for exp in (1, -1):
                t = gen_targets[j] if exp == 1 else neg(gen_targets[j])
                nc = add(c, t)
                if nc not in transversal:
                    transversal[nc] = transversal[c] + ((j, exp),)
                    queue.append(nc)
    if len(transversal) != index:
        raise InvariantError("coset count differs from the image order")

    cosets = sorted(transversal)

    # Schreier generator for (coset c, generator j); tree edges are trivial.
    sgen_index = {}
    sgen_words = []
    names = []
    for i, c in enumerate(cosets):
        for j in range(g):
            target = add(c, gen_targets[j])
            word = words.concat(transversal[c], words.generator(j),
                                words.inverse(transversal[target]))
            if not word:
                sgen_index[(c, j)] = None
                continue
            sgen_index[(c, j)] = len(sgen_words)
            sgen_words.append(word)
            names.append(f"{p.names[j]}_{i}")

    def rewrite(cur, rel):
        out = []
        for idx, exp in rel:
            # x^-1 leaves a coset along the edge that x enters it by.
            if exp == -1:
                cur = add(cur, neg(gen_targets[idx]))
            s = sgen_index[(cur, idx)]
            if s is not None:
                out.append((s, exp))
            if exp == 1:
                cur = add(cur, gen_targets[idx])
        return words.free_reduce(out)

    new_rels = []
    for c in cosets:
        for rel in p.relators:
            w = rewrite(c, rel)
            if w:
                new_rels.append(w)

    cover = FinitePresentation(len(sgen_words), tuple(new_rels),
                               p.aspherical, tuple(names))
    return cover, tuple(sgen_words), index
