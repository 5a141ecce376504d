import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from jumploci import corpus
import jumploci.alexander as alexander
import jumploci.twisted as twisted
from jumploci.alexander import (MAX_TORSION_DUALS, ModuleAction,
                                _all_torsion_duals,
                                _candidate_points_rank_two, _dual_torus,
                                _minors, _poly_key, _sigma_union_hits,
                                cyclotomic_roots, finite_locus_cover_check,
                                fitting_generators, is_weight,
                                koszul_cohomology, smith_invariants,
                                vanishing_check, weights_and_inverses)
from jumploci.characters import Character
from jumploci.cyclotomic import Cyc, is_root_of_unity
from jumploci.errors import Refusal
from jumploci.laurent import LaurentPoly, det_bareiss
from jumploci.linalg import inverse
from jumploci.presentation import FinitePresentation
from jumploci.presfile import parse_presentation
from jumploci.twisted import (fox_on_coset, presentation_data,
                              twisted_cohomology_dims)

from oracles import (cover_module_is_torsion_by_rank, fitting_chain_holds,
                     sigma_union_hits_merged)


def dual(action):
    """Contragredient action (inverse transpose)."""
    return ModuleAction([[list(col) for col in zip(*inverse(m))]
                         for m in action.matrices])


def test_fitting_examples():
    z2 = corpus.get("z2")
    assert fitting_generators(z2, 0) == []      # no 2x2 minors of a 1x2 matrix
    e1 = fitting_generators(z2, 1)
    assert len(e1) == 2                          # {1 - B, A - 1} normalized
    tre = corpus.get("trefoil")
    et = fitting_generators(tre, 1)
    assert len(et) == 1
    poly = et[0]
    t = LaurentPoly.monomial(((1,), ()), 1)
    one = LaurentPoly.one(1)
    assert poly == t * t - t + one               # classic degree-2 row


@pytest.mark.parametrize("name,k", [("z3", 1), ("z4", 1), ("z4", 2)])
def test_fitting_minors_past_size_one_equal_bareiss_minors(name, k):
    # Minors of size 2 and 3 run the first-column expansion; on a
    # torsion-free group the Fox matrix lies in a domain, where Bareiss
    # gives the same determinants.
    p = corpus.get(name)
    _, fox = presentation_data(p)
    size = p.generator_count - k
    bareiss = set()
    for rows in combinations(range(p.relator_count), size):
        for cols in combinations(range(p.generator_count), size):
            d = det_bareiss([[fox[i][j] for j in cols] for i in rows])
            if not d.is_zero():
                bareiss.add(_poly_key(d.content_normalize()))
    assert bareiss
    assert [_poly_key(f) for f in fitting_generators(p, k)] == sorted(bareiss)


def test_fitting_chain():
    for name in ("z2", "trefoil", "swap_torus"):
        p = corpus.get(name)
        for k in range(p.generator_count):
            assert fitting_chain_holds(p, k)


def test_fitting_chain_fails_on_tampered_generators(monkeypatch):
    # The check compares cofactors with the listed E_{k+1} generators, so
    # a list missing one of them must fail it.
    p = corpus.get("swap_torus")
    real = alexander.fitting_generators
    monkeypatch.setattr(alexander, "fitting_generators",
                        lambda q, k: real(q, k)[1:])
    assert not fitting_chain_holds(p, 1)


def test_module_action_validation():
    with pytest.raises(ValueError):
        ModuleAction([[[1, 0], [0, 1]], [[0, 1], [1, 1]],
                      [[1, 1], [0, 1]]])  # last two do not commute
    with pytest.raises(ValueError):
        ModuleAction([[[0, 0], [0, 0]]])  # singular


def test_is_weight_examples():
    one_dim = ModuleAction([[[2]]])
    assert is_weight([Cyc.rational(2)], one_dim)
    assert not is_weight([Cyc.one()], one_dim)
    two = ModuleAction([[[1, 0], [0, -1]], [[-1, 0], [0, -1]]])
    assert is_weight([Cyc.one(), Cyc.rational(-1)], two)
    assert not is_weight([Cyc.rational(-1), Cyc.one()], two)


def test_koszul_examples_and_identities():
    triv2 = ModuleAction([[[1]], [[1]]])
    assert koszul_cohomology(triv2, [Cyc.one(), Cyc.one()]) == (1, 2, 1)
    m2 = ModuleAction([[[2]]])
    assert koszul_cohomology(m2, [Cyc.one()]) == (0, 0)
    assert koszul_cohomology(m2, [Cyc.rational(Fraction(1, 2))]) == (1, 1)
    # binomial coefficients for the trivial module at the trivial character
    triv3 = ModuleAction([[[1]], [[1]], [[1]]])
    assert koszul_cohomology(triv3, [Cyc.one()] * 3) == (1, 3, 3, 1)
    # Euler characteristic vanishes whenever b >= 1
    rng = random.Random(71)
    for _ in range(10):
        d = rng.choice([1, 2])
        vals = [Cyc.rational(rng.choice([1, 2, -1]))]
        diag = [[Cyc.rational(rng.choice([1, 2, 3])) if i == j else Cyc.zero()
                 for j in range(d)] for i in range(d)]
        act = ModuleAction([diag])
        dims = koszul_cohomology(act, vals)
        assert sum((-1) ** p * h for p, h in enumerate(dims)) == 0


def test_koszul_duality_on_random_two_by_two():
    # h^p(V, chi) = h^(b-p)(V*, chi^-1) for invertible commuting actions.
    rng = random.Random(72)
    for _ in range(10):
        d1 = [[Cyc.rational(rng.choice([1, -1, 2])), Cyc.zero()],
              [Cyc.zero(), Cyc.rational(rng.choice([1, -1, 3]))]]
        d2 = [[Cyc.rational(rng.choice([1, -1, 2])), Cyc.zero()],
              [Cyc.zero(), Cyc.rational(rng.choice([1, -1, 2]))]]
        act = ModuleAction([d1, d2])
        chi = [Cyc.rational(rng.choice([1, -1, 2])),
               Cyc.rational(rng.choice([1, -1]))]
        lhs = koszul_cohomology(act, chi)
        rhs = koszul_cohomology(dual(act), [v.inverse() for v in chi])
        assert lhs == tuple(reversed(rhs))


def test_vanishing_examples():
    m2 = ModuleAction([[[2]]])
    v = vanishing_check(m2, [Cyc.rational(Fraction(1, 2))])
    assert v.inverse_is_weight and v.h_dims[0] >= 1 and v.consistent
    v2 = vanishing_check(m2, [Cyc.rational(3)])
    assert not v2.inverse_is_weight and all(d == 0 for d in v2.h_dims)
    assert v2.consistent
    triv = ModuleAction([[[1]]])
    v3 = vanishing_check(triv, [Cyc.one()])
    assert v3.inverse_is_weight and v3.consistent


def test_vanishing_against_brute_force_search():
    # Commuting conjugated-diagonal actions; brute force enumerates the
    # full grid of per-generator eigenvalues and tests each candidate by
    # exact simultaneous-eigenvector search.
    rng = random.Random(73)
    pool = [Cyc.one(), Cyc.rational(-1), Cyc.rational(2),
            Cyc.root_of_unity(3), Cyc.root_of_unity(4)]
    for trial in range(12):
        dim = rng.randint(1, 3)
        b = rng.randint(1, 3)
        diags = [[rng.choice(pool) for _ in range(dim)] for _ in range(b)]
        s = None
        while s is None:
            cand = [[Cyc.rational(rng.randint(-2, 2)) for _ in range(dim)]
                    for _ in range(dim)]
            from jumploci.cyclotomic import rank_exact
            if rank_exact(cand) == dim:
                s = cand
        from jumploci.intlinalg import mat_mul
        from jumploci.linalg import inverse as _mat_inverse
        sinv = _mat_inverse(s)
        mats = []
        for dcol in diags:
            d = [[dcol[i] if i == j else Cyc.zero() for j in range(dim)]
                 for i in range(dim)]
            mats.append(mat_mul(mat_mul(s, d), sinv))
        act = ModuleAction(mats)

        def key_of(v):
            return (v.n, v.coeffs)

        eigen_sets = [list({key_of(x): x for x in dcol}.values())
                      for dcol in diags]
        brute_weights = set()
        for combo in product(*[range(len(es)) for es in eigen_sets]):
            vals = [eigen_sets[j][combo[j]] for j in range(b)]
            if is_weight(vals, act):
                brute_weights.add(tuple(key_of(v) for v in vals))
        # the diagonal tuples are weights by construction
        for pos in range(dim):
            vals = [diags[j][pos] for j in range(b)]
            assert tuple(key_of(v) for v in vals) in brute_weights
        # vanishing verdicts agree with the brute-force weight set
        for combo in product(*[range(len(es)) for es in eigen_sets]):
            vals = [eigen_sets[j][combo[j]] for j in range(b)]
            chi = [v.inverse() for v in vals]
            verdict = vanishing_check(act, chi)
            key = tuple(key_of(v) for v in vals)
            assert verdict.inverse_is_weight == (key in brute_weights)
            assert verdict.consistent


def _dual_invariants(p):
    """(omega, Smith invariant factors of the Fox matrix specialized at
    omega) for every torsion-dual character omega of a free-rank-one
    presentation."""
    ab, _ = presentation_data(p)
    return [(omega, smith_invariants(fox_on_coset(p, *_dual_torus(ab, omega))))
            for omega in _all_torsion_duals(ab.torsion)]


def _homology_factors(p):
    """The invariant factors of the finite-dimensional cover homology:
    the non-unit factors over every torsion-dual character, after
    checking that each dual has the g - 1 factors that make it finite."""
    duals = _dual_invariants(p)
    assert all(len(fs) == p.generator_count - 1 for _, fs in duals)
    return [f for _, fs in duals for f in fs if f.span > 0]


def test_cover_homology_examples():
    tre = corpus.get("trefoil")
    assert sum(f.span for f in _homology_factors(tre)) == 2
    assert [str(c.angles[0]) for c in
            weights_and_inverses(tre, 2, 6).inverse_weights] == ["0", "1/6",
                                                                  "5/6"]
    bs = corpus.get("bs12")
    assert sum(f.span for f in _homology_factors(bs)) == 1
    rep = weights_and_inverses(bs, 2, 6)
    assert rep.inverse_weights == [Character.trivial(1)]
    assert len(rep.numeric_weights) == 1
    assert abs(rep.numeric_weights[0] - 0.5) < 1e-9
    assert _homology_factors(FinitePresentation(1, ())) == []


def test_cover_homology_drops_unit_factors():
    # <a, b, c | b^-1, c^-1 b^-1 a^-1> presents Z, whose maximal abelian
    # cover has H1 = 0.  Its Fox entries need a shift by T, and the power
    # of T this leaves in an invariant factor is a unit of the Laurent
    # ring, not homology.
    p = FinitePresentation(3, (((1, -1),), ((2, -1), (1, -1), (0, -1))))
    assert _homology_factors(p) == []
    assert weights_and_inverses(p, 2, 6).numeric_weights == []


def test_cyclotomic_roots_of_cyclotomic_products():
    # T^k times a product of cyclotomic polynomials Phi_d: the roots are
    # the primitive d-th roots of unity, each as often as Phi_d occurs,
    # and a factor with no root of unity is left as the residual.
    t = LaurentPoly.monomial(((1,), ()), 1)
    one = LaurentPoly.one(1)
    phi = {1: t - one, 2: t + one, 3: t * t + t + one, 4: t * t + one,
           6: t * t - t + one}
    rng = random.Random(31)
    for _ in range(12):
        ds = [rng.choice(sorted(phi)) for _ in range(rng.randint(1, 3))]
        k = rng.randint(-3, 3)
        poly = LaurentPoly.monomial(((k,), ()), 1)
        for d in ds:
            poly = poly * phi[d]
        want = sorted(Fraction(a, d) for d in ds for a in range(d)
                      if math.gcd(a, d) == 1)
        angles, residual = cyclotomic_roots(poly)
        assert angles == want and residual.span == 0
        angles, residual = cyclotomic_roots(poly * (t - one * 2))
        assert angles == want
        assert residual.monic() == t - one * 2


def test_cyclotomic_roots_stop_at_the_bound_of_the_residual(monkeypatch):
    # Once an order is cleared, the orders left are bounded by the span of
    # the residual: the search ends when the residual is a constant, or
    # when phi(q) <= span(residual) * phi(conductor) admits no more q.
    orders = []
    root = Cyc.root_of_unity
    monkeypatch.setattr(Cyc, "root_of_unity",
                        staticmethod(lambda q, a: orders.append(q)
                                     or root(q, a)))
    t = LaurentPoly.monomial(((1,), ()), 1)
    one = LaurentPoly.one(1)
    phi7 = sum((LaurentPoly.monomial(((k,), ()), 1) for k in range(1, 7)),
               one)
    golden = t * t - t * 3 + one    # roots (3 +- sqrt 5) / 2
    for poly, want, residual_span, last_order in [
            ((t - one) * (t + one), ["0", "1/2"], 0, 2),
            ((t - one) * (t + one) * (t - one * 2), ["0", "1/2"], 1, 2),
            (phi7, [f"{a}/7" for a in range(1, 7)], 0, 7),
            (phi7 * golden, [f"{a}/7" for a in range(1, 7)], 2, 7)]:
        orders.clear()
        angles, residual = cyclotomic_roots(poly)
        assert angles == [Fraction(a) for a in want]
        assert residual.span == residual_span
        assert residual.monic() == (golden if residual_span == 2 else
                                    t - one * 2 if residual_span else one)
        assert max(orders) == last_order


def test_weight_convention_pinned_by_asymmetric_fixture():
    # For the eigenvalue-2 fixture the jump locus is {1, chi(t) = 2}, so
    # W must be {1, 1/2}: cohomology weights invert homology eigenvalues.
    bs = corpus.get("bs12")
    chi2 = Character(1, (), (Fraction(2),), (Fraction(0),), ())
    assert twisted_cohomology_dims(bs, chi2)[1] == 1
    chi_half = Character(1, (), (Fraction(1, 2),), (Fraction(0),), ())
    assert twisted_cohomology_dims(bs, chi_half)[1] == 0


def test_weights_and_identity_corpus():
    expectations = {
        "trefoil": 3,        # 1 and the two order-6 characters
        "c3xz": 1,
        "z2": 1,
        "torus_bundle3": 3,
    }
    for name, count in expectations.items():
        p = corpus.get(name)
        rep = weights_and_inverses(p, 2, 6)
        assert rep.finite_dim == "exact"
        assert rep.identity_holds, name
        assert len(rep.weights) == count, (name, rep.serialize())
        # Kronecker pipeline: every exact weight is a root of unity.
        for w in rep.weights:
            for a in w.angles + w.tors_angles:
                assert is_root_of_unity(Cyc.from_angle(a))[0]


RANK_TWO_WEIGHTS = [
    # H1 = Z^2 + Z/3.  At the torsion dual 1/3 two corank-1 minors are
    # free of the second variable and share their zeros, so the
    # eliminant of that pair must be a minor, not 1: (1/3, 0; 1/3) and
    # (2/3, 0; 2/3) are jump points (h1 = 1) and so weights.
    ('generators: [a, b, c, d]\nrelators: ["[a,b]", "a c a^-1 d^-1", '
     '"a d a^-1 c d", "[b,c]", "[b,d]"]\n',
     {("0", "0", "0"), ("1/3", "0", "0"), ("1/3", "0", "1/3"),
      ("2/3", "0", "0"), ("2/3", "0", "2/3")}),
    # H1 = Z^2 + Z/2, each with one nontrivial weight.
    ('generators: [a, b, c]\nrelators: ["[a,b]", "a c a^-1 c", '
     '"b c b^-1 c"]\n', {("0", "0", "0"), ("1/2", "1/2", "0")}),
    ('generators: [a, b, c]\nrelators: ["[a,b]", "a c a^-1 c", '
     '"b c b^-1 c^-1"]\n', {("0", "0", "0"), ("0", "1/2", "0")}),
]


@pytest.mark.parametrize("text,expected", RANK_TWO_WEIGHTS,
                         ids=["shared_minors", "diagonal", "axis"])
def test_rank_two_weights_are_exact(text, expected):
    rep = weights_and_inverses(parse_presentation(text), 2, 6)
    assert rep.finite_dim == "exact" and rep.identity_holds
    assert {tuple(map(str, w.angles + w.tors_angles))
            for w in rep.weights} == expected


def test_rank_two_weights_drop_non_cyclotomic_candidates_undecided():
    # Pins a known gap.  H1 = Z^2 (c dies; b is the first coordinate, a the
    # second), and the first-coordinate eliminant is (x - 1)(x + 2).  At
    # free rank 1 a root such as -2 becomes a numeric weight and thm4
    # refuses; at free rank 2 it only sets detail, and the report still
    # says "exact".  Nothing is missed here: h1 = 0 at the dropped point
    # b -> -2, a -> 1 and at its inverse.
    p = parse_presentation(
        'generators: [a, b, c]\nrelators: ["a^-1 b^-1 a b", '
        '"c^-1 c^-1 b c^-1 b^-1", "b c c b^-1 c^-1"]\n')
    fox_w = fox_on_coset(p, *_dual_torus(presentation_data(p)[0], ()))
    minors = list(_minors(fox_w, 2, det_bareiss))
    assert _candidate_points_rank_two(minors) == ([(0, 0)], True)
    # With fewer than two minors no eliminant exists.
    assert _candidate_points_rank_two(minors[:1]) is None
    assert _candidate_points_rank_two([]) is None
    rep = weights_and_inverses(p, 2, 3)
    assert rep.finite_dim == "exact" and rep.identity_holds
    assert rep.detail == "non-cyclotomic eliminant factors ignored (flagged)"
    assert rep.inverse_weights == [Character.trivial(2)]
    assert rep.numeric_weights == []
    dropped = Character(2, (), (2, 1), ("1/2", "0"), ())
    for chi in (dropped, dropped.inverse()):
        assert twisted_cohomology_dims(p, chi)[1] == 0
    check = finite_locus_cover_check(p, 2, 3)
    assert check.passed and check.trivial_cover


def test_weights_refusals():
    for name in ("surface2", "free2"):
        with pytest.raises(Refusal):
            weights_and_inverses(corpus.get(name), 2, 3)
    with pytest.raises(Refusal):
        weights_and_inverses(corpus.get("z2"), 3, 3)


# H1 = Z + Z/4.  Over the torsion dual 0 the cover homology has a
# non-unit invariant factor, and over 1/2 it is infinite-dimensional.
LATE_INFINITE_DUAL = 'generators: [x, y]\nrelators: ["y x x y^-1 x x"]\n'


def _refuses_as_infinite(p):
    """Whether weights refuses p for infinite-dimensional cover homology;
    any other refusal propagates."""
    try:
        weights_and_inverses(p, 2, 2)
    except Refusal as exc:
        if "infinite-dimensional" not in str(exc):
            raise
        return True
    return False


def test_rank_one_weights_refuse_from_the_module_itself():
    # <x, y | y^2>: H1 = Z + Z/2, and over the nontrivial torsion-dual
    # character y -> -1 the Fox row vanishes, so the cover homology has
    # positive rank: that dual has fewer than g - 1 invariant factors,
    # and the generic-rank test agrees.
    p = FinitePresentation(2, (((1, 1), (1, 1)),))
    ab, _ = presentation_data(p)
    assert (ab.free_rank, ab.torsion) == (1, (2,))
    assert any(len(fs) < p.generator_count - 1
               for _, fs in _dual_invariants(p))
    assert not cover_module_is_torsion_by_rank(p)
    with pytest.raises(Refusal, match="infinite-dimensional"):
        weights_and_inverses(p, 2, 3)


def test_cover_module_test_equals_generic_rank_oracle():
    # The cover homology over each torsion dual is finite-dimensional iff
    # the Fox matrix specialized there has generic rank g - 1, whichever
    # elimination weights uses at that free rank, so weights refuses
    # exactly where the oracle says.  <x, y | y^2> has H1 = Z + Z/2, and
    # over y -> -1 its Fox row vanishes.  product23 is left out: each
    # side spends about 30 s in one generic rank of its 26 x 10 Fox
    # matrix over ten Laurent variables.
    extra = [FinitePresentation(2, (((1, 1), (1, 1)),)),
             parse_presentation(LATE_INFINITE_DUAL)]
    assert [presentation_data(p)[0].torsion for p in extra] == [(2,), (4,)]
    checked = 0
    for p in [corpus.get(name) for name in corpus.names()
              if name != "product23"] + extra:
        if presentation_data(p)[0].free_rank == 0:
            continue
        assert (_refuses_as_infinite(p)
                == (not cover_module_is_torsion_by_rank(p))), p.names
        checked += 1
    assert checked == 16
    for p in extra:
        assert _refuses_as_infinite(p)


def _count_calls(monkeypatch, module, name, counts):
    """Count the calls made through module.name under counts[name]."""
    real = getattr(module, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return real(*args)
    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("name,free_rank", [
    ("torus_bundle3", 1), ("shared_minors", 2), ("z3", 3)])
def test_weights_specialize_each_torsion_dual_once(monkeypatch, name,
                                                   free_rank):
    p = (parse_presentation(RANK_TWO_WEIGHTS[0][0])
         if name == "shared_minors" else corpus.get(name))
    ab, _ = presentation_data(p)
    assert ab.free_rank == free_rank
    counts = {}
    _count_calls(monkeypatch, alexander, "fox_on_coset", counts)
    _count_calls(monkeypatch, twisted, "fox_on_coset", counts)
    weights_and_inverses(p, 2, 3)
    assert counts["fox_on_coset"] == len(_all_torsion_duals(ab.torsion))


def test_weights_refuse_before_any_root_search(monkeypatch):
    counts = {}
    _count_calls(monkeypatch, alexander, "cyclotomic_roots", counts)
    p = parse_presentation(LATE_INFINITE_DUAL)
    with pytest.raises(Refusal) as exc:
        weights_and_inverses(p, 2, 3)
    assert str(exc.value) == ("cover homology is infinite-dimensional "
                              "(positive-dimensional jump locus expected "
                              "instead)")
    assert counts == {}
    # Over the dual 0 there is a factor whose roots would be searched.
    assert any(f.span > 0 for f in _dual_invariants(p)[0][1])


def test_sigma_union_is_one_scan():
    # V^0_1 = {1} lies in V^1_1 whenever b >= 1, so one scan gives the
    # union that a scan per degree merges.
    for name in corpus.names():
        p = corpus.get(name)
        if presentation_data(p)[0].free_rank == 0:
            continue
        K = 2 if name == "product23" else 3
        for bound in (1, 2):
            assert (_sigma_union_hits(p, bound, K)
                    == sigma_union_hits_merged(p, bound, K)), (name, bound)


def _companion_action(factors):
    """The generator's action on a finite-dimensional cover homology:
    one companion block per invariant factor (monic with a nonzero
    constant term, so each block is invertible)."""
    blocks = []
    for f in factors:
        d = f.span
        blocks.append([[-f.terms.get(((i,), ()), Cyc.zero()) if j == d - 1
                        else (Cyc.one() if i == j + 1 else Cyc.zero())
                        for j in range(d)] for i in range(d)])
    dim = sum(len(b) for b in blocks)
    big = [[Cyc.zero()] * dim for _ in range(dim)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                big[offset + i][offset + j] = v
        offset += len(b)
    return ModuleAction([big])


def test_five_term_inequality_rank_one():
    # h1(X, chi) <= h1(Z, chi) + h0(Z, H1(cover) (x) chi) when the cover
    # module is finite-dimensional.
    for name in ("trefoil", "bs12"):
        p = corpus.get(name)
        factors = _homology_factors(p)
        assert factors
        action_dual = dual(_companion_action(factors))
        for denom, num in ((6, 1), (6, 5), (1, 0), (4, 1), (3, 1)):
            chi = Character.unitary(1, (), (Fraction(num, denom),))
            lhs = twisted_cohomology_dims(p, chi)[1]
            val = Cyc.from_angle(Fraction(num, denom))
            koszul_line = koszul_cohomology(
                ModuleAction([[[1]]]), [val])[1]
            h0_mod = koszul_cohomology(action_dual, [val])[0]
            assert lhs <= koszul_line + h0_mod, (name, num, denom)


def test_finite_locus_cover_checks():
    r = finite_locus_cover_check(corpus.get("c3xz"), 2, 6)
    assert r.trivial_cover and r.passed
    r2 = finite_locus_cover_check(corpus.get("z2"), 2, 6)
    assert r2.trivial_cover and r2.passed
    r3 = finite_locus_cover_check(corpus.get("torus_bundle3"), 2, 6)
    assert not r3.trivial_cover and r3.cover_index == 3 and r3.passed
    # Non-Kaehler negative control: the trefoil's kill cover genuinely
    # fails the conditional prediction, and the tool reports that.
    r4 = finite_locus_cover_check(corpus.get("trefoil"), 2, 6)
    assert not r4.trivial_cover and r4.cover_index == 6 and not r4.passed
    with pytest.raises(Refusal):
        finite_locus_cover_check(corpus.get("free2"), 2, 4)


def test_torsion_dual_limit_counts_characters():
    # The limit is on the number of torsion-dual characters, the product
    # of the torsion orders: (Z/2)^7 lists its 128, (Z/2)^8 is refused.
    assert len(_all_torsion_duals((2,) * 7)) == MAX_TORSION_DUALS
    for torsion in ((2,) * 8, (MAX_TORSION_DUALS + 1,), (3, 43)):
        with pytest.raises(Refusal, match="above the limit"):
            _all_torsion_duals(torsion)
