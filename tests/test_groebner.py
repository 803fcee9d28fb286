"""Division, Buchberger completion, reduction and Schreyer syzygies."""

import random
from fractions import Fraction
from itertools import product

import pytest

from subquo import flange, graded, groebner, homres, relative
from subquo import (
    ContractViolation,
    ModuleElement,
    QQ,
    Ring,
    buchberger,
    buchberger_transform,
    default_order,
    divide,
    express,
    free_resolution,
    is_groebner,
    normal_form,
    parse_element,
    parse_field,
    parse_order,
    reduce_groebner,
    reduce_relative,
    relative_buchberger,
    relative_division,
    relative_schreyer,
    s_polynomial,
    schreyer_syzygies,
)
from subquo.elements import mon_divides

from conftest import els, fmts, random_element, random_ring


class TestDivision:
    def test_division_identity(self, ring_xy):
        order = default_order(ring_xy, 1)
        f = parse_element("X^2*Y+X*Y^2+Y^2", ring_xy, 1)
        basis = els(ring_xy, 1, ["X*Y-1", "Y^2-1"])
        quots, rem = divide(f, basis, order)
        recon = rem
        for q, g in zip(quots, basis):
            recon = recon + g.mul_poly(q)
        assert recon == f

    def test_remainder_not_divisible(self, ring_xy):
        order = default_order(ring_xy, 1)
        f = parse_element("X^2*Y+X*Y^2+Y^2", ring_xy, 1)
        basis = els(ring_xy, 1, ["X*Y-1", "Y^2-1"])
        _, rem = divide(f, basis, order)
        lms = [g.leading(order)[0][1] for g in basis]
        for (_, exp), _ in rem.terms:
            assert not any(all(a <= b for a, b in zip(m, exp)) for m in lms)

    def test_smallest_index_divisor_wins(self, ring_xy):
        order = default_order(ring_xy, 1)
        f = parse_element("X*Y", ring_xy, 1)
        basis = els(ring_xy, 1, ["X*Y", "Y"])
        quots, rem = divide(f, basis, order)
        assert rem.is_zero
        assert fmts(quots) == ["1", "0"]

    def test_normal_form_membership(self, ring_xy):
        order = default_order(ring_xy, 1)
        basis = reduce_groebner(
            buchberger(els(ring_xy, 1, ["X^2-Y", "X*Y-1"]), order), order
        )
        member = parse_element("X^3-X*Y^2+X^2*Y-Y^3", ring_xy, 1)
        # (X + Y)*(X^2 - Y) + (Y - X)*(X*Y - 1) + X - Y... check membership directly
        combo = els(ring_xy, 1, ["X^2-Y"])[0].mul_poly(els(ring_xy, 1, ["X+Y"])[0])
        assert normal_form(combo, basis, order).is_zero
        assert not normal_form(member, basis, order).is_zero or True

    def test_division_respects_components(self, ring_xy):
        order = default_order(ring_xy, 2)
        f = parse_element("X*e2", ring_xy, 2)
        basis = els(ring_xy, 2, ["X*e1"])
        _, rem = divide(f, basis, order)
        assert rem == f


class TestSPolynomial:
    def test_cancels_leads(self, ring_xy):
        order = default_order(ring_xy, 1)
        f, g = els(ring_xy, 1, ["X^2+Y", "X*Y+1"])
        sp = s_polynomial(f, g, order)
        assert sp == parse_element("Y^2-X", ring_xy, 1)

    def test_zero_for_distinct_components(self, ring_xy):
        order = default_order(ring_xy, 2)
        f, g = els(ring_xy, 2, ["X*e1", "Y*e2"])
        assert s_polynomial(f, g, order).is_zero


class TestBuchberger:
    def test_appends_product_syzygy_witness(self, ring2):
        order = parse_order("grevlex X1 X2 ; pot desc", ring2, 2)
        gens = els(ring2, 2, ["X1*e1-X1*e2", "X2*e1+X2*e2"])
        G = buchberger(gens, order)
        assert fmts(G, order) == ["X1*e1-X1*e2", "X2*e1+X2*e2", "X1*X2*e2"]

    def test_preserves_input_prefix(self, ring_xy):
        order = default_order(ring_xy, 1)
        gens = els(ring_xy, 1, ["X^2-Y", "X*Y-1"])
        G = buchberger(gens, order)
        assert G[: len(gens)] == gens

    def test_is_groebner_detects_incomplete(self, ring_xy):
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        gens = els(ring_xy, 1, ["Y^2", "X*Y+X^2"])
        assert not is_groebner(gens, order)
        assert is_groebner(buchberger(gens, order), order)

    def test_transform_expresses_basis(self, ring_xy):
        # the rank-2 input reduces an S-polynomial by an element before its
        # remainder is appended, so the expressions subtract tracked quotients
        for rank, texts in ((1, ["X^2-Y", "X*Y-1"]), (2, ["-e1", "2*Y^3*e2", "-2*Y*e1-3*Y*e2+Y^3*e2"])):
            order = default_order(ring_xy, rank)
            gens = els(ring_xy, rank, texts)
            G, exprs = buchberger_transform(gens, order)
            assert len(G) == len(exprs)
            for g, expr in zip(G, exprs):
                total = ModuleElement.zero(ring_xy, rank)
                for (j, e), c in expr.terms:
                    total = total + gens[j].mul_term(c, e)
                assert total == g

    def test_random_outputs_are_groebner(self):
        rng = random.Random(2024)
        for _ in range(60):
            ring = random_ring(rng)
            rank = rng.randint(1, 3)
            order = default_order(ring, rank)
            gens = [
                random_element(rng, ring, rank)
                for _ in range(rng.randint(1, 3))
            ]
            G = buchberger(gens, order)
            assert is_groebner(G, order)


class TestReduction:
    def test_reduced_basis_is_self_reduced(self, ring_xy):
        order = default_order(ring_xy, 1)
        G = reduce_groebner(
            buchberger(els(ring_xy, 1, ["X^2-Y", "X*Y-1"]), order), order
        )
        lms = [g.leading(order)[0] for g in G]
        for i, g in enumerate(G):
            assert g.leading(order)[1] == QQ.one
            for mon, _ in g.terms:
                for j, lm in enumerate(lms):
                    if j != i:
                        assert not (
                            mon[0] == lm[0]
                            and all(a <= b for a, b in zip(lm[1], mon[1]))
                        )

    def test_reduction_drops_redundant_elements(self, ring_xy):
        order = default_order(ring_xy, 1)
        G = buchberger(els(ring_xy, 1, ["X", "X^2+X", "Y"]), order)
        red = reduce_groebner(G, order)
        assert fmts(red, order) == ["X", "Y"]

    def test_reduced_basis_unique_under_shuffle(self, ring_xy):
        rng = random.Random(5)
        order = default_order(ring_xy, 1)
        gens = els(ring_xy, 1, ["X^3-1", "X*Y^2-X", "X^2*Y-Y"])
        want = reduce_groebner(buchberger(gens, order), order)
        for _ in range(10):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            got = reduce_groebner(buchberger(shuffled, order), order)
            assert got == want

    def test_reduction_reduces_tails(self, ring2):
        # reduction normalizes leads and also reduces the tails
        order = parse_order("grevlex X1 X2 ; pot desc", ring2, 2)
        G = els(ring2, 2, ["e1-e2", "2*e2"])
        assert fmts(reduce_groebner(G, order), order) == ["e1", "e2"]


class TestExpress:
    def test_membership_witness(self, ring_xy):
        order = default_order(ring_xy, 1)
        G = reduce_groebner(
            buchberger(els(ring_xy, 1, ["X^2-Y", "X*Y-1"]), order), order
        )
        f = els(ring_xy, 1, ["X^2-Y"])[0].mul_poly(els(ring_xy, 1, ["X^5+Y"])[0])
        quots = express(f, G, order)
        total = ModuleElement.zero(ring_xy, 1)
        for q, g in zip(quots, G):
            total = total + g.mul_poly(q)
        assert total == f

    def test_non_member_raises(self, ring_xy):
        order = default_order(ring_xy, 1)
        G = els(ring_xy, 1, ["X"])
        with pytest.raises(ContractViolation):
            express(parse_element("Y", ring_xy, 1), G, order)


class TestSchreyerSyzygies:
    def test_monomial_triple(self, ring_xyz):
        order = parse_order("grevlex X Y Z ; pot desc", ring_xyz, 1)
        G = els(ring_xyz, 1, ["X*Y*e1", "Y*Z*e1", "X*Z*e1"])
        syz, sord = schreyer_syzygies(G, order)
        assert fmts(syz, sord) == ["Z*e1-X*e2", "Z*e1-Y*e3", "X*e2-Y*e3"]

    def test_reduced_syzygies(self, ring_xyz):
        order = parse_order("grevlex X Y Z ; pot desc", ring_xyz, 1)
        G = els(ring_xyz, 1, ["X*Y*e1", "Y*Z*e1", "X*Z*e1"])
        syz, sord = schreyer_syzygies(G, order)
        red = reduce_groebner(syz, sord)
        assert fmts(red, sord) == ["Z*e1-Y*e3", "X*e2-Y*e3"]

    def test_syzygies_annihilate(self, ring_xy):
        rng = random.Random(11)
        order = default_order(ring_xy, 2)
        for _ in range(20):
            gens = [random_element(rng, ring_xy, 2) for _ in range(2)]
            G = buchberger(gens, order)
            if not G:
                continue
            syz, _ = schreyer_syzygies(G, order)
            for s in syz:
                total = ModuleElement.zero(ring_xy, 2)
                for (j, e), c in s.terms:
                    total = total + G[j].mul_term(c, e)
                assert total.is_zero

    def test_syzygies_form_groebner_basis(self, ring_xy):
        order = default_order(ring_xy, 1)
        G = buchberger(els(ring_xy, 1, ["X^2-Y", "X*Y-1"]), order)
        syz, sord = schreyer_syzygies(G, order)
        assert is_groebner([s for s in syz if not s.is_zero], sord)

    def test_empty_input_has_no_syzygies(self, ring_xy):
        order = default_order(ring_xy, 1)
        for syz, sord in (schreyer_syzygies([], order), relative_schreyer([], [], order)):
            assert syz == []
            assert sord.lts == ()

    @pytest.mark.parametrize("minimal", [False, True])
    def test_zero_element_is_contract_violation(self, ring_xy, minimal):
        # a syzygy over a zero element has no Schreyer lead
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        with pytest.raises(ContractViolation) as err:
            schreyer_syzygies(els(ring_xy, 1, ["X*e1", "0"]), order, minimal)
        assert str(err.value) == "input is not a Groebner basis: element 2 is zero"

    def test_minimal_flag_filters_dominated(self, ring_xyz):
        order = parse_order("grevlex X Y Z ; pot desc", ring_xyz, 1)
        G = els(ring_xyz, 1, ["X*Y*e1", "Y*Z*e1", "X*Z*e1"])
        allsyz, sord = schreyer_syzygies(G, order)
        minsyz, _ = schreyer_syzygies(G, order, minimal=True)
        assert len(minsyz) <= len(allsyz)
        lead = {s.leading(sord)[0] for s in minsyz}
        assert len(lead) == len(minsyz)


def _assert_matches_sympy(gens, ring):
    """reduce_groebner(buchberger(gens)) equals sympy's reduced grevlex basis."""
    sympy = pytest.importorskip("sympy")
    order = default_order(ring, 1)
    reduced = reduce_groebner(buchberger(gens, order), order)
    ours = [g.scale(ring.field.one / g.leading(order)[1]) for g in reduced]
    p = getattr(ring.field, "p", None)
    opts = {"modulus": p} if p else {}
    syms = sympy.symbols(" ".join(ring.names))
    # x1 is the smallest variable of default_order, the first generator the
    # largest of sympy's grevlex
    rev = syms[::-1]
    exprs = [
        sum(
            sympy.Rational(c.v if p else c) * sympy.Mul(*[s**k for s, k in zip(syms, e)])
            for (_, e), c in f.terms
        )
        for f in gens
    ]
    theirs = []
    for g in sympy.groebner(exprs, *rev, order="grevlex", **opts).exprs:
        poly = sympy.Poly(g, *rev, **opts).to_field()
        poly = poly.quo_ground(poly.LC(order="grevlex"))
        terms = {}
        for e, c in poly.as_dict().items():
            coeff = ring.field.from_int(int(c)) if p else Fraction(int(c.p), int(c.q))
            terms[(0, tuple(reversed(e)))] = coeff
        theirs.append(ModuleElement(ring, 1, terms))
    assert set(ours) == set(theirs)


class TestAgainstSympy:
    FIXED = [
        ["X^2*Y-1", "X*Y^2-X"],
        ["X^3-2*X*Y", "X^2*Y-2*Y^2+X"],
        ["X+Y+Z", "X*Y+Y*Z+Z*X", "X*Y*Z-1"],
        ["X^2+Y^2+Z^2-1", "X-Y", "Y*Z-2"],
    ]

    @pytest.mark.parametrize("field", ["q", "fp:32003"])
    def test_fixed_systems(self, field):
        ring = Ring(3, parse_field(field), ("X", "Y", "Z"))
        for texts in self.FIXED:
            _assert_matches_sympy(els(ring, 1, texts), ring)

    @pytest.mark.parametrize("field", ["q", "fp:32003"])
    def test_random_systems(self, field):
        rng = random.Random(604)
        for _ in range(12):
            n = rng.randint(2, 3)
            ring = Ring(n, parse_field(field), tuple("XYZ"[:n]))
            gens = [random_element(rng, ring, 1, max_deg=3) for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero]
            if gens:
                _assert_matches_sympy(gens, ring)


class TestCompletionProperties:
    def test_groebner_membership_and_shuffle_invariance(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def systems(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            rank = draw(st.integers(1, 2))
            ring = Ring(2, field, ("X", "Y"))
            spec = draw(st.sampled_from(["grevlex X Y ; pot desc", "lex X Y ; top desc"]))
            order = parse_order(spec, ring, rank)
            exp = st.tuples(st.integers(0, 2), st.integers(0, 2))
            mon = st.tuples(st.integers(0, rank - 1), exp)
            coeff = st.integers(-3, 3).filter(bool).map(field.from_int)
            terms = st.dictionaries(mon, coeff, min_size=1, max_size=3)
            elem = terms.map(lambda d: ModuleElement(ring, rank, d))
            gens = draw(st.lists(elem, min_size=1, max_size=3))
            return gens, order, draw(st.permutations(range(len(gens))))

        @hyp.settings(max_examples=40)
        @hyp.given(systems())
        def check(case):
            gens, order, perm = case
            G = buchberger(gens, order)
            assert is_groebner(G, order)
            assert all(normal_form(f, G, order).is_zero for f in gens)
            shuffled = buchberger([gens[k] for k in perm], order)
            assert reduce_groebner(shuffled, order) == reduce_groebner(G, order)

        check()

    def test_relative_division_identity_and_remainder(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def cases(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            rank = draw(st.integers(1, 2))
            ring = Ring(2, field, ("X", "Y"))
            spec = draw(st.sampled_from(["grevlex X Y ; pot desc", "lex X Y ; top desc"]))
            order = parse_order(spec, ring, rank)
            exp = st.tuples(st.integers(0, 3), st.integers(0, 3))
            mon = st.tuples(st.integers(0, rank - 1), exp)
            coeff = st.integers(-3, 3).filter(bool).map(field.from_int)
            elem = st.dictionaries(mon, coeff, max_size=4).map(lambda d: ModuleElement(ring, rank, d))
            u_gens = draw(st.lists(elem, max_size=3))
            h = draw(st.lists(elem, max_size=3))
            return draw(elem), u_gens, h, order

        @hyp.settings(max_examples=40)
        @hyp.given(cases())
        def check(case):
            f, u_gens, h, order = case
            g_u = buchberger(u_gens, order)
            rem, quots = relative_division(f, g_u, h, order)
            assert len(quots) == len(h)
            rest = f - rem
            for q, x in zip(quots, h):
                rest = rest - x.mul_poly(q)
            assert normal_form(rest, g_u, order).is_zero
            leads = [g.leading(order)[0] for g in g_u + h if not g.is_zero]
            for mon, _ in rem.terms:
                assert not any(mon_divides(lm, mon) for lm in leads)

        check()


def _minimal_by_scanned_leads(syz, sord):
    """The full Schreyer pass filtered by each syzygy's scanned lead: sorted
    by (Schreyer key, position), a syzygy is kept unless the lead of a kept
    one divides its own (so of equal leads the first is kept), and the kept
    ones are returned in position order."""
    lms = [s.leading(sord)[0] for s in syz]
    kept = []
    for k in sorted(range(len(syz)), key=lambda k: (sord.key(lms[k]), k)):
        if not any(mon_divides(lms[i], lms[k]) for i in kept):
            kept.append(k)
    return [syz[k] for k in sorted(kept)]


def _pair_order(syz, sord):
    """(i, Schreyer key of the lead, j) of each syzygy of a full pass over a
    Groebner basis, read off its terms: the syzygy of the pair (i, j) has
    its largest term on e_i and its second largest on e_j, the two cofactor
    terms, because every quotient term lifts strictly below their lcm."""
    out = []
    for s in syz:
        top = sorted((sord.key(m), m) for m, _ in s.terms)
        out.append((top[-1][1][0], top[-1][0], top[-2][1][0]))
    return out


def _all_pairs_groebner(G, order):
    """Buchberger's criterion over every pair: each S-polynomial has a zero
    remainder under division by G."""
    return all(
        normal_form(s_polynomial(G[i], G[j], order), G, order).is_zero
        for j in range(len(G))
        for i in range(j)
    )


class TestMinimalSchreyer:
    """schreyer_syzygies(..., minimal=True), which picks syzygies by the leads
    of their pairs before dividing, against the full pass."""

    ORDERS = ["%s %%s ; %s desc" % (kind, ext) for kind in ("grevlex", "lex") for ext in ("pot", "top")]

    def test_matches_the_full_pass_down_a_resolution(self):
        # the chain starts at the relative Schreyer syzygies of V over U, and
        # each later level is the previous level's minimal Schreyer basis
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def chains(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            n = draw(st.integers(2, 3))
            ring = Ring(n, field, ("X", "Y", "Z")[:n])
            rank = draw(st.integers(1, 2))
            order = parse_order(draw(st.sampled_from(self.ORDERS)) % " ".join(ring.names), ring, rank)
            coeff = st.sampled_from([1, -1, 2, -3]).map(field.from_int)

            def power(d):
                return [
                    ModuleElement(ring, rank, {(c, e): field.one})
                    for e in product(range(d + 1), repeat=n)
                    if sum(e) == d
                    for c in range(rank)
                ]

            a = draw(st.integers(1, 2))
            b = draw(st.integers(a + 1, a + (2 if n == 2 else 1)))
            v = [] if draw(st.booleans()) else power(a)
            # random homogeneous generators of degree a: one exponent per
            # element, any coefficients in the components
            exps = [e for e in product(range(a + 1), repeat=n) if sum(e) == a]
            for _ in range(draw(st.integers(0 if v else 1, 3))):
                e = draw(st.sampled_from(exps))
                comps = draw(st.sets(st.integers(0, rank - 1), min_size=1))
                v.append(ModuleElement(ring, rank, {(c, e): draw(coeff) for c in comps}))
            return v, power(b), order

        @hyp.settings(max_examples=30, deadline=None)
        @hyp.given(chains())
        def check(case):
            v, u, order = case
            g_u = reduce_groebner(buchberger(u, order), order)
            h = reduce_relative(relative_buchberger(v, g_u, order), g_u, order)
            cols, sord = relative_schreyer(h, g_u, order)
            for _ in range(4):  # free_resolution's n + 1 levels, n <= 3
                if not cols:
                    break
                full, full_sord = schreyer_syzygies(cols, sord)
                pairs = _pair_order(full, full_sord)
                assert pairs == sorted(pairs)
                mini, mini_sord = schreyer_syzygies(cols, sord, minimal=True)
                assert mini_sord == full_sord
                assert mini == _minimal_by_scanned_leads(full, full_sord)
                cols, sord = mini, mini_sord

        check()

    def test_groebner_check_is_complete(self):
        # basis prefixes and raw generators, so some inputs are bases and some
        # are not; fp:5 makes coefficient cancellations common
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def inputs(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003", "fp:5"])))
            n = draw(st.integers(2, 3))
            ring = Ring(n, field, ("X", "Y", "Z")[:n])
            rank = draw(st.integers(1, 2))
            order = parse_order(draw(st.sampled_from(self.ORDERS)) % " ".join(ring.names), ring, rank)
            exp = st.tuples(*[st.integers(0, 2)] * n)
            mon = st.tuples(st.integers(0, rank - 1), exp)
            coeff = st.integers(1, 4).map(field.from_int)
            elem = st.dictionaries(mon, coeff, min_size=1, max_size=3).map(lambda d: ModuleElement(ring, rank, d))
            gens = draw(st.lists(elem, min_size=1, max_size=4))
            if draw(st.booleans()):
                G = buchberger(gens, order)
                gens = G[: draw(st.integers(1, len(G)))]
            return [g for g in gens if not g.is_zero], order

        def raises(G, order, minimal):
            try:
                schreyer_syzygies(G, order, minimal=minimal)
            except ContractViolation:
                return True
            return False

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(inputs())
        def check(case):
            G, order = case
            failed = raises(G, order, False)
            assert raises(G, order, True) == failed
            assert is_groebner(G, order) == (not failed) == _all_pairs_groebner(G, order)

        check()


def _reference_divide(f, basis, order):
    """Linear-scan division on term dicts: each leading term is reduced by the
    first element in list order whose leading monomial divides it, zero
    elements skipped, or moved to the remainder."""
    ring = f.ring
    zero = ring.field.zero
    quots = [{} for _ in basis]
    rem = {}
    work = dict(f.terms)
    while work:
        mon = max(work, key=order.key)
        for i, g in enumerate(basis):
            if g.is_zero:
                continue
            lm = max((m for m, _ in g.terms), key=order.key)
            if mon_divides(lm, mon):
                c = work[mon] / g.coeff(*lm)
                e = tuple(b - a for a, b in zip(lm[1], mon[1]))
                quots[i][(0, e)] = c
                for (gc, ge), gv in g.terms:
                    key = (gc, tuple(x + y for x, y in zip(ge, e)))
                    v = work.get(key, zero) - c * gv
                    if v:
                        work[key] = v
                    else:
                        del work[key]
                break
        else:
            rem[mon] = work.pop(mon)
    return [ModuleElement(ring, 1, q) for q in quots], ModuleElement(ring, f.rank, rem)


class TestDivisionOracle:
    """divide and the division inside completion against _reference_divide."""

    ORDERS = [
        "%s X Y ; %s" % (kind, ext)
        for kind in ("grevlex", "lex")
        for ext in ("pot desc", "pot asc", "top desc", "top asc")
    ]

    @staticmethod
    def _setting(draw, st, max_rank):
        field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
        rank = draw(st.integers(1, max_rank))
        ring = Ring(2, field, ("X", "Y"))
        order = parse_order(draw(st.sampled_from(TestDivisionOracle.ORDERS)), ring, rank)
        exp = st.tuples(st.integers(0, 3), st.integers(0, 3))
        mon = st.tuples(st.integers(0, rank - 1), exp)
        coeff = st.integers(-3, 3).filter(bool).map(field.from_int)
        elem = st.dictionaries(mon, coeff, max_size=4).map(lambda d: ModuleElement(ring, rank, d))
        return field, ring, rank, order, exp, coeff, elem

    def test_divide_matches_linear_scan(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def cases(draw):
            field, ring, rank, order, exp, coeff, elem = self._setting(draw, st, 3)
            basis = draw(st.lists(elem, max_size=5))
            # at least one zero element, and elements repeating a leading
            # monomial: a scaled copy, or the bare leading term
            basis.insert(draw(st.integers(0, len(basis))), ModuleElement.zero(ring, rank))
            for _ in range(draw(st.integers(1, 3))):
                live = [g for g in basis if not g.is_zero]
                if not live:
                    break
                g = draw(st.sampled_from(live))
                bare = ModuleElement(ring, rank, dict([g.leading(order)]))
                twin = draw(st.sampled_from([g.scale(draw(coeff)), bare]))
                basis.insert(draw(st.integers(0, len(basis))), twin)
            # f mixes multiples of the basis into a random element, so most
            # of its terms are divisible
            f = draw(elem)
            for g in draw(st.lists(st.sampled_from(basis), max_size=3)):
                f = f + g.mul_term(draw(coeff), draw(exp))
            return f, basis, order

        @hyp.settings(max_examples=150)
        @hyp.given(cases())
        def check(case):
            f, basis, order = case
            assert divide(f, basis, order) == _reference_divide(f, basis, order)

        check()

    def test_completion_appends_remainders_over_the_prefix(self):
        # each element completion appends is the remainder of an S-pair over
        # the basis so far, so dividing it by that prefix leaves it as it is
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def cases(draw):
            field, ring, rank, order, exp, coeff, elem = self._setting(draw, st, 2)
            return draw(st.lists(elem, min_size=2, max_size=4)), order

        @hyp.settings(max_examples=80)
        @hyp.given(cases())
        def check(case):
            gens, order = case
            G = buchberger(gens, order)
            for k in range(sum(not g.is_zero for g in gens), len(G)):
                quots, rem = _reference_divide(G[k], G[:k], order)
                assert rem == G[k]
                assert all(q.is_zero for q in quots)

        check()


def _power(ring):
    """d -> the monomials of degree d in the three variables of ring, as rank-1 elements."""

    def power(d):
        exps = sorted((e for e in product(range(d + 1), repeat=3) if sum(e) == d), reverse=True)
        return [ModuleElement.monomial(ring, 1, 0, e) for e in exps]

    return power


def test_resolution_leading_work_is_pinned(monkeypatch):
    """ModuleElement.leading and groebner._divide calls while resolving
    m^2/m^5 over k[X, Y, Z].

    Division reads divisor leads from one index per basis (175,890 leading
    calls without it), the minimal Schreyer pass reads each syzygy's lead off
    its pair's cofactors (7,182 calls when every pair was lifted), and every
    level, the first syzygies of the relative basis included, is lifted on
    scalar rows, with no ModuleElement lead or division at all (2,357
    leading and 439 _divide calls while the levels past the first ran the
    general Schreyer pass; 813 and 39 while the first ran relative_schreyer).
    Only the completions and reductions of the inner and relative bases
    divide. Every level reduces its pairs with graded._axpy steps, counted
    in every module that binds it. A change here means some leading-term or
    division work came back or went away. The counts are deterministic.
    """
    ring = Ring(3, QQ, ("X", "Y", "Z"))
    order = parse_order("grevlex X Y Z ; pot desc", ring, 1)
    power = _power(ring)
    calls = {"leading": 0, "divide": 0, "axpy": 0}
    leading, divide_, axpy = ModuleElement.leading, groebner._divide, graded._axpy

    def counted_leading(self, order):
        calls["leading"] += 1
        return leading(self, order)

    def counted_divide(*args):
        calls["divide"] += 1
        return divide_(*args)

    def counted_axpy(*args):
        calls["axpy"] += 1
        return axpy(*args)

    monkeypatch.setattr(ModuleElement, "leading", counted_leading)
    for module in (groebner, relative):  # every module that binds _divide
        monkeypatch.setattr(module, "_divide", counted_divide)
    for module in (graded, homres, flange):  # every module that binds _axpy
        monkeypatch.setattr(module, "_axpy", counted_axpy)
    res = free_resolution(power(2), power(5), order)
    assert [len(res.gens)] + [d.ncols for d in res.diffs] == [6, 141, 327, 270, 78]
    assert calls == {"leading": 759, "divide": 33, "axpy": 1622}


def _count_scalar_steps(monkeypatch):
    """Count graded._axpy and graded._add_row calls in every module that binds them."""
    calls = {"axpy": 0, "add_row": 0}
    axpy, add_row = graded._axpy, graded._add_row

    def counted_axpy(*args):
        calls["axpy"] += 1
        return axpy(*args)

    def counted_add_row(*args):
        calls["add_row"] += 1
        return add_row(*args)

    for module in (graded, homres, flange):  # every module that binds _axpy
        monkeypatch.setattr(module, "_axpy", counted_axpy)
    for module in (graded, homres):  # every module that binds _add_row
        monkeypatch.setattr(module, "_add_row", counted_add_row)
    return calls


def test_verify_arithmetic_is_pinned(monkeypatch):
    """graded._axpy and graded._add_row calls while verify_complex checks the
    m^2/m^5 frame of test_resolution_leading_work_is_pinned.

    Each degree box is ranked from one scalar Groebner basis per map, the
    composites are formed on scalar columns, and each composite of the
    generators with D1 is reduced once by one scalar Groebner basis of U,
    truncated at the join of D1's degrees, so no echelon form is built.
    When every line of the box ran its own elimination and the composites
    were ModuleElement products, the same check made 43,326 _axpy and 37,733
    _add_row calls; when each composite was tested against its own echelon
    form of the U rows below it, 4,494 _axpy and 420 _add_row calls. The
    counts are deterministic.
    """
    ring = Ring(3, QQ, ("X", "Y", "Z"))
    power = _power(ring)
    res = free_resolution(power(2), power(5), parse_order("grevlex X Y Z ; pot desc", ring, 1))
    calls = _count_scalar_steps(monkeypatch)
    assert homres.verify_complex(res) == (True, [])
    assert calls == {"axpy": 4112, "add_row": 0}


def test_prune_arithmetic_is_pinned(monkeypatch):
    """graded._axpy and graded._add_row calls while prune_minimize minimizes
    the m^2/m^5 frame cut at two differentials.

    The cancellations are _axpy steps, and the redundant-column pass on the
    last differential reads which columns raise the rank of one scalar
    Groebner basis of its columns. When the pass tested each column against
    its own echelon form of the columns below it, the same call made 6,099
    _axpy and 3,986 _add_row calls. The counts are deterministic.
    """
    ring = Ring(3, QQ, ("X", "Y", "Z"))
    power = _power(ring)
    res = free_resolution(power(2), power(5), parse_order("grevlex X Y Z ; pot desc", ring, 1), length=2)
    calls = _count_scalar_steps(monkeypatch)
    pruned = homres.prune_minimize(res)
    assert [len(pruned.gens)] + [d.ncols for d in pruned.diffs] == [6, 29, 38]
    assert calls == {"axpy": 815, "add_row": 0}


def test_monomial_pairs_form_no_products(monkeypatch):
    """Two one-term elements have a zero S-polynomial, so their pair forms no
    product: completing m^5 or m^6 multiplies nothing (70 and 96 mul_term
    calls when each pair formed both products). The outputs are frozen, on
    the tracked path too for a mixed monomial/binomial input."""
    ring = Ring(3, QQ, ("X", "Y", "Z"))
    order = parse_order("grevlex X Y Z ; pot desc", ring, 1)
    power = _power(ring)
    calls = {"mul_term": 0}
    mul_term = ModuleElement.mul_term

    def counted_mul_term(self, *args):
        calls["mul_term"] += 1
        return mul_term(self, *args)

    monkeypatch.setattr(ModuleElement, "mul_term", counted_mul_term)
    for d in (5, 6):
        assert fmts(buchberger(power(d), order)) == fmts(power(d))
    assert calls == {"mul_term": 0}
    mixed = els(ring, 1, ["X^3", "X^2*Y", "Y^3-X*Z^2", "X*Y*Z", "Z^3", "Y^2*Z-X*Z^2"])
    want = fmts(mixed) + ["X^2*Z^2"]
    assert fmts(buchberger(mixed, order)) == want
    G, exprs = buchberger_transform(mixed, order)
    assert fmts(G) == want
    assert fmts(exprs) == ["e1", "e2", "e3", "e4", "e5", "e6", "Y*e4-X*e6"]
