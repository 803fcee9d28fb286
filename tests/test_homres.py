"""Tests for homology presentations, resolutions, pruning, and diagrams."""

import hashlib
from itertools import product

import pytest

from subquo import groebner, homres, relative
from subquo.elements import ModuleElement, QQ, Ring, parse_element, parse_field
from subquo.errors import ContractViolation, InputError
from subquo.files import emit_resolution_file
from subquo.graded import (
    GradedMatrix,
    deg_leq,
    degrees_in_box,
    element_degree,
    graded_dimensions,
    matrix_rank,
    nullspace_basis,
)
from subquo.homres import (
    Resolution,
    VectorDiagram,
    betti_numbers,
    free_resolution,
    homology_presentation,
    kernel_of_free_map,
    module_from_diagram,
    prune_minimize,
    verify_complex,
)
from subquo.orders import parse_order
from subquo.relative import reduce_relative, relative_buchberger, relative_schreyer

from conftest import (
    R2_U,
    R2_V,
    R6_U,
    R6_V,
    conjugated_diagram,
    cube_resolution,
    els,
    fmts,
    middle_complex,
    qgrid,
    scalar_grid,
    staircase_diagram,
)


@pytest.fixture
def order2(ring2):
    return parse_order("grevlex X1 X2 ; pot desc", ring2, 1)


def subquotients(st):
    """Strategy of finite-length subquotients (v, u, order) over q and fp:32003."""

    @st.composite
    def draw_case(draw):
        # monomials, and binomials c1*x^a*e1 + c2*x^a*e2, are homogeneous
        field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
        n, rank = draw(st.integers(2, 3)), draw(st.integers(1, 2))
        ring = Ring(n, field, ("X", "Y", "Z")[:n])
        support = st.sampled_from([(0,), (1,), (0, 1)] if rank == 2 else [(0,)])
        coeff = st.sampled_from([1, -1, 2, -3]).map(field.from_int)
        # U holds m^d in every component, so V/U has finite length
        d = draw(st.sampled_from([2, 3] if n == 2 else [2]))

        def element(top):
            exp = draw(st.tuples(*[st.integers(0, top)] * n).filter(lambda e: sum(e) <= top))
            return ModuleElement(ring, rank, {(c, exp): draw(coeff) for c in draw(support)})

        power = [e for e in product(range(d + 1), repeat=n) if sum(e) == d]
        u = [ModuleElement(ring, rank, {(c, e): field.one}) for e in power for c in range(rank)]
        u += [element(d) for _ in range(draw(st.integers(0, 2)))]
        v = [element(d - 1) for _ in range(draw(st.integers(1, 3)))]
        return v, u, parse_order("grevlex %s ; pot desc" % " ".join(ring.names), ring, rank)

    return draw_case()


def monomial_subquotients(st):
    """Strategy of monomial subquotients (v, u, order) of rank 1 in 2-3
    variables over q and fp:32003: two or three monomials of degree 1-2 in V
    and one to three of degree 2-3 in U, so that the frame often holds
    redundant columns."""

    @st.composite
    def draw_case(draw):
        field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
        n = draw(st.integers(2, 3))
        ring = Ring(n, field, ("X", "Y", "Z")[:n])

        def monomials(lo, hi, least):
            exp = st.tuples(*[st.integers(0, hi)] * n).filter(lambda e: lo <= sum(e) <= hi)
            return [ModuleElement.monomial(ring, 1, 0, e) for e in draw(st.lists(exp, min_size=least, max_size=3, unique=True))]

        v, u = monomials(1, 2, 2), monomials(2, 3, 1)
        return v, u, parse_order("grevlex %s ; pot desc" % " ".join(ring.names), ring, 1)

    return draw_case()


def graded_subquotients(st):
    """Strategy of subquotients (v, u, order, shifts), of finite length
    unless U is 0, which it sometimes is, for the fine grading of nonzero
    ambient shifts, over q, fp:32003 and fp:5, with ranks 1-3 and every base
    order, extension and component direction. With deep, V holds all of m^a
    in some components, so most resolutions of finite length reach three or
    more differentials."""

    @st.composite
    def draw_case(draw, deep):
        field = parse_field(draw(st.sampled_from(["q", "fp:32003", "fp:5"])))
        n, rank = draw(st.integers(2, 3)), draw(st.integers(1, 3 if deep else 2))
        ring = Ring(n, field, ("X", "Y", "Z")[:n])
        shifts = tuple(draw(st.tuples(*[st.integers(0, 2)] * n)) for _ in range(rank))
        coeff = st.sampled_from([1, -1, 2, -3, 4]).map(field.from_int)
        top = 2 if n == 2 else 1
        a = draw(st.integers(1, top))
        b = a + draw(st.integers(1, 2))

        def exps(d):
            return [e for e in product(range(d + 1), repeat=n) if sum(e) == d]

        def element(d):
            # x^(D - s_c) e_c for each drawn component c with s_c <= D, for
            # D = e + s_c0: homogeneous of degree D
            c0 = draw(st.integers(0, rank - 1))
            deg = tuple(map(sum, zip(draw(st.sampled_from(exps(d))), shifts[c0])))
            comps = [c0] + [c for c in range(rank) if c != c0 and deg_leq(shifts[c], deg) and draw(st.booleans())]
            return ModuleElement(ring, rank, {(c, tuple(x - y for x, y in zip(deg, shifts[c]))): draw(coeff) for c in comps})

        # U holds m^b in every component, so V/U has finite length; or U is
        # 0, over which level 0 still keeps every pair
        u = [ModuleElement(ring, rank, {(c, e): field.one}) for e in exps(b) for c in range(rank)]
        u += [element(b - 1) for _ in range(draw(st.integers(0, 2)))]
        if not draw(st.integers(0, 4)):
            u = []
        if deep:
            comps = draw(st.sets(st.integers(0, rank - 1), min_size=1))
            v = [ModuleElement(ring, rank, {(c, e): field.one}) for e in exps(a) for c in sorted(comps)]
        else:
            v = [element(draw(st.integers(0, a))) for _ in range(draw(st.integers(1, 3)))]
        names = " ".join(draw(st.permutations(ring.names)))
        kind = draw(st.sampled_from(["lex", "grlex", "grevlex"]))
        ext = "%s %s" % (draw(st.sampled_from(["pot", "top"])), draw(st.sampled_from(["asc", "desc"])))
        return v, u, parse_order("%s %s ; %s" % (kind, names, ext), ring, rank), shifts

    return draw_case


def general_schreyer_resolution(v, u, order, shifts):
    """free_resolution with every level past the first lifted by the general
    schreyer_syzygies(cols, sord, minimal=True) pass, the reference for the
    scalar levels of homres._level_syzygies."""
    ring, rank = v[0].ring, v[0].rank
    aorder = order.for_rank(rank)
    g_u = homres._graded_inner_basis(u, aorder, shifts)
    h = reduce_relative(relative_buchberger(v, g_u, aorder), g_u, aorder)
    res = Resolution(ring, order, shifts, g_u, h, [])
    if not h:
        return res
    cols, sord = relative_schreyer(h, g_u, aorder)
    cur_shifts = [element_degree(x, shifts) for x in h]
    while cols:
        cdeg = [element_degree(c, cur_shifts) for c in cols]
        res.diffs.append(GradedMatrix(ring, cur_shifts, cdeg, cols))
        cur_shifts = cdeg
        if len(res.diffs) == ring.n + 1:
            break
        cols, sord = groebner.schreyer_syzygies(cols, sord, minimal=True)
    return res


def staircase_resolution(ring2, order2):
    return free_resolution(els(ring2, 2, R2_V), els(ring2, 2, R2_U), order2)


class TestKernelOfFreeMap:
    def test_middle_map_kernel_frozen(self, ring2):
        d1, _, _, order = middle_complex(ring2)
        ker = kernel_of_free_map(d1, order)
        assert fmts(ker) == [
            "X1*e1-X1*e2+e5",
            "X2*e1-X2*e2+e4+e6",
            "X2*e3-X2*e5+X1*e6",
            "X1*e4-X2*e5+X1*e6",
        ]

    def test_kernel_annihilated(self, ring2):
        d1, _, _, order = middle_complex(ring2)
        for k in kernel_of_free_map(d1, order):
            assert d1.apply(k).is_zero

    @staticmethod
    def _check_kernel_dimensions(d1, order):
        # F_a has one basis monomial per column j with shift <= a, so the
        # kernel at degree a has dimension #{j : shift_j <= a} - rank(D1_a)
        ker = kernel_of_free_map(d1, order)
        for k in ker:
            assert d1.apply(k).is_zero
            assert element_degree(k, d1.col_shifts) is not None
        # and it is the reduced Groebner basis in the order on R^m
        korder = order.for_rank(len(d1.cols))
        assert groebner.is_groebner(ker, korder)
        leads = [k.leading(korder) for k in ker]
        assert all(lc == d1.ring.field.one for _, lc in leads)
        for i, k in enumerate(ker):
            for (comp, exp), _ in k.terms:
                assert not any(
                    j != i and c == comp and all(a <= b for a, b in zip(e, exp)) for j, ((c, e), _) in enumerate(leads)
                )
        lo, hi = (0, 0), (4, 4)
        want = [
            sum(deg_leq(s, a) for s in d1.col_shifts) - r
            for a, r in zip(degrees_in_box(lo, hi), d1.degree_ranks(lo, hi))
        ]
        assert list(graded_dimensions(ker, [], d1.col_shifts, lo, hi)) == want

    def test_kernel_graded_dimensions_middle_complex(self, ring2):
        d1, _, _, order = middle_complex(ring2)
        self._check_kernel_dimensions(d1, order)

    def test_kernel_completed_again_in_its_order(self, ring2):
        # the graph module's kernel block, (1/3*e1+X2*e3, -1/2*e2+X1*e3), is a
        # Groebner basis in POT desc but not in TOP asc, where their S-pair
        # adds the first element
        mat = GradedMatrix.from_entries(
            ring2, ((0, 1),), ((1, 2), (2, 1), (1, 1)), scalar_grid(ring2, [["-3*X1*X2", "2*X1^2", "X1"]])
        )
        order = parse_order("grevlex X2 X1 ; top asc", ring2, 1)
        assert fmts(kernel_of_free_map(mat, order)) == ["X1*e1+3/2*X2*e2", "1/3*e1+X2*e3", "-1/2*e2+X1*e3"]
        self._check_kernel_dimensions(mat, order)

    def test_kernel_graded_dimensions_random(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def maps(draw):
            # entry (i, j) is c * x^(col_j - row_i) when row_i <= col_j, else
            # 0, with c nonzero: dense maps, whose graph-module kernel block
            # is often not yet a Groebner basis in a TOP, asc or permuted order
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            ring = Ring(2, field, ("X1", "X2"))
            deg = st.tuples(st.integers(0, 2), st.integers(0, 2))
            rows = draw(st.lists(deg, min_size=1, max_size=3))
            cols = draw(st.lists(deg, min_size=3, max_size=5))
            coeff = st.sampled_from([1, -1, 2, -3]).map(field.from_int)
            entries = [
                ModuleElement(ring, len(rows), {
                    (i, tuple(b - a for a, b in zip(r, c))): draw(coeff) for i, r in enumerate(rows) if deg_leq(r, c)
                })
                for c in cols
            ]
            spec = draw(st.sampled_from([
                "grevlex X1 X2 ; pot desc", "grevlex X1 X2 ; pot asc", "lex X1 X2 ; top desc", "grevlex X2 X1 ; top asc",
            ]))
            return GradedMatrix(ring, rows, cols, entries), parse_order(spec, ring, 1)

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(maps())
        def check(case):
            self._check_kernel_dimensions(*case)

        check()

    def test_injective_map_has_no_kernel(self, ring2, order2):
        mat = GradedMatrix.from_entries(
            ring2, ((0, 0),), ((1, 0),), scalar_grid(ring2, [["X1"]])
        )
        assert kernel_of_free_map(mat, order2) == []

    def test_zero_map_kernel_is_identity(self, ring2, order2):
        mat = GradedMatrix(
            ring2, ((0, 0),), ((1, 0),), [ModuleElement.zero(ring2, 1)]
        )
        assert fmts(kernel_of_free_map(mat, order2)) == ["1"]


class TestHomologyPresentation:
    def test_generators_frozen(self, ring2):
        d1, p, d2, order = middle_complex(ring2)
        res = homology_presentation(d1, p, d2, order)
        sord = res.order.for_rank(5)
        assert [
            (t, d) for t, d in zip(fmts(res.gens, sord), res.gen_degrees)
        ] == [
            ("X1*e1-X1*e2+e4", (1, 0)),
            ("X2*e1-X2*e2+X2*e3+e5", (0, 1)),
            ("X1*X2*e3-X2*e4+X1*e5", (1, 1)),
        ]

    def test_syzygies_frozen(self, ring2):
        d1, p, d2, order = middle_complex(ring2)
        res = homology_presentation(d1, p, d2, order)
        (s,) = res.diffs
        assert s.col_shifts == ((1, 1), (2, 1))
        grid = [["X2", "0"], ["-X1", "0"], ["1", "X1"]]
        assert [
            fmts([s.entry(i, j) for j in range(s.ncols)]) for i in range(s.nrows)
        ] == grid

    def test_minimized_presentation_frozen(self, ring2):
        d1, p, d2, order = middle_complex(ring2)
        res = prune_minimize(homology_presentation(d1, p, d2, order))
        sord = res.order.for_rank(5)
        assert fmts(res.gens, sord) == [
            "X1*e1-X1*e2+e4",
            "X2*e1-X2*e2+X2*e3+e5",
        ]
        (m,) = res.diffs
        assert m.col_shifts == ((2, 1),)
        assert [fmts([m.entry(i, 0)]) for i in range(m.nrows)] == [
            ["X1*X2"],
            ["-X1^2"],
        ]
        assert betti_numbers(res) == (2, 1)

    def test_verifies_as_complex(self, ring2):
        d1, p, d2, order = middle_complex(ring2)
        ok, report = verify_complex(homology_presentation(d1, p, d2, order))
        assert ok and report == []

    def test_shape_validation(self, ring2):
        d1, p, d2, order = middle_complex(ring2)
        with pytest.raises(InputError):
            homology_presentation(d2, p, d2, order)
        with pytest.raises(InputError):
            homology_presentation(d1, p, d1, order)

    def test_zero_kernel_and_boundary_give_empty_resolution(self, ring2, order2):
        one = ModuleElement.monomial(ring2, 1, 0, (0, 0))
        ident = GradedMatrix(ring2, [(0, 0)], [(0, 0)], [one])
        d2 = GradedMatrix(ring2, [(0, 0)], [(1, 0)], [ModuleElement.zero(ring2, 1)])
        res = homology_presentation(ident, ident, d2, order2)
        assert (res.gens, res.u_gens, res.diffs, res.ambient_shifts) == ([], [], [], ((0, 0),))

    def test_cokernel_matches_dense_homology(self):
        """Per degree a, the cokernel of the presentation has dimension
        rank(P(ker D1_a) + im D2_a) - rank(im D2_a), counted on the scalar
        blocks of random homogeneous maps with monomial entries."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def cases(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            n = draw(st.integers(1, 2))
            ring = Ring(n, field)

            def shifts(lo, hi):
                return draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=lo, max_size=hi))

            f1, f0, amb, f2 = shifts(2, 4), shifts(1, 3), shifts(1, 3), shifts(1, 3)
            coeff = st.integers(-2, 2).map(field.from_int)

            def matrix(rows, cols):
                # entry (i, j) is c * x^(b_j - s_i), zero unless s_i <= b_j
                vecs, elems = [], []
                for b in cols:
                    vec = {i: draw(coeff) for i, s in enumerate(rows) if deg_leq(s, b)}
                    vecs.append({i: c for i, c in vec.items() if c})
                    terms = {(i, tuple(x - y for x, y in zip(b, rows[i]))): c for i, c in vecs[-1].items()}
                    elems.append(ModuleElement(ring, len(rows), terms))
                return GradedMatrix(ring, rows, cols, elems), vecs

            kind = draw(st.sampled_from(["lex", "grlex", "grevlex"]))
            ext = "%s %s" % (draw(st.sampled_from(["pot", "top"])), draw(st.sampled_from(["asc", "desc"])))
            order = parse_order("%s ; %s" % (kind, ext), ring, len(amb))
            return matrix(f0, f1), matrix(amb, f1), matrix(amb, f2), order

        @hyp.settings(max_examples=100, deadline=None)
        @hyp.given(cases())
        def check(case):
            (d1, v1), (p, vp), (d2, v2), order = case
            res = homology_presentation(d1, p, d2, order)
            field, zero = d1.ring.field, d1.ring.field.zero
            shifts = d1.row_shifts + d1.col_shifts + p.row_shifts + d2.col_shifts
            top = tuple(max(x) + 1 for x in zip(*shifts))
            for a in degrees_in_box((0,) * len(top), top):
                live = [j for j, b in enumerate(d1.col_shifts) if deg_leq(b, a)]
                block = [[v1[j].get(i, zero) for j in live] for i, s in enumerate(d1.row_shifts) if deg_leq(s, a)]
                amb = [i for i, s in enumerate(p.row_shifts) if deg_leq(s, a)]
                image = [[sum((vp[j].get(i, zero) * x for j, x in zip(live, w)), zero) for i in amb]
                         for w in nullspace_basis(block, len(live), field)]
                bound = [[v.get(i, zero) for i in amb] for v, b in zip(v2, d2.col_shifts) if deg_leq(b, a)]
                want = matrix_rank(image + bound) - matrix_rank(bound)
                got = sum(deg_leq(g, a) for g in res.gen_degrees) - (res.diffs[0].degree_rank(a) if res.diffs else 0)
                assert got == want

        check()


class TestFreeResolution:
    def test_free_cover(self, ring_x):
        order = parse_order("grevlex X ; pot desc", ring_x, 1)
        res = free_resolution(
            els(ring_x, 1, ["X*e1"]), els(ring_x, 1, ["X^2*e1"]), order
        )
        assert fmts(res.gens) == ["X"]
        (d,) = res.diffs
        assert (d.row_shifts, d.col_shifts) == (((1,),), ((2,),))
        assert fmts([d.entry(0, 0)]) == ["X"]
        assert verify_complex(res)[0]

    def test_staircase_rank2_frozen(self, ring2, order2):
        res = staircase_resolution(ring2, order2)
        assert fmts(res.gens, res.order.for_rank(2)) == ["X1*e1", "X2*e2"]
        d1, d2 = res.diffs
        assert d1.col_shifts == ((3, 0), (2, 1), (1, 2), (0, 2), (3, 1))
        assert [
            fmts([d1.entry(i, j) for j in range(d1.ncols)]) for i in range(d1.nrows)
        ] == [
            ["X1^2", "X1*X2", "X2^2", "0", "0"],
            ["0", "-X1^2", "0", "X2", "X1^3"],
        ]
        assert d2.col_shifts == ((3, 1), (2, 2), (3, 2))
        assert [
            fmts([d2.entry(i, j) for j in range(d2.ncols)]) for i in range(d2.nrows)
        ] == [
            ["X2", "0", "0"],
            ["-X1", "X2", "0"],
            ["0", "-X1", "0"],
            ["0", "X1^2", "X1^3"],
            ["-1", "0", "-X2"],
        ]

    def test_staircase_rank6_shape(self, ring2, order2):
        res = free_resolution(els(ring2, 6, R6_V), els(ring2, 6, R6_U), order2)
        assert [len(res.gens)] + [d.ncols for d in res.diffs] == [6, 12, 6]
        assert verify_complex(res)[0]

    def test_length_cap(self, ring2, order2):
        res = free_resolution(
            els(ring2, 2, R2_V), els(ring2, 2, R2_U), order2, length=1
        )
        assert len(res.diffs) == 1

    def test_no_generators_rejected(self, ring2, order2):
        with pytest.raises(InputError):
            free_resolution([], [], order2)

    @pytest.mark.parametrize("u", [[], ["0"]], ids=["empty", "zero"])
    def test_zero_inner_module_keeps_every_first_pair(self, ring_xy, u):
        # level 0 is the relative pass over U = 0 too: all three pairs of
        # X^2, X*Y, Y^2 give D1, whose one relation D2 lifts (not the
        # minimal frame 3 2)
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        res = free_resolution(els(ring_xy, 1, ["X^2*e1", "X*Y*e1", "Y^2*e1"]), els(ring_xy, 1, u), order)
        assert [len(res.gens)] + [d.ncols for d in res.diffs] == [3, 3, 1]
        d1, d2 = res.diffs
        assert d1.col_shifts == ((2, 1), (2, 2), (1, 2))
        assert [fmts([d.entry(i, j) for j in range(d.ncols)]) for d in res.diffs for i in range(d.nrows)] == [
            ["Y", "Y^2", "0"], ["-X", "0", "Y"], ["0", "-X^2", "-X"], ["Y"], ["-1"], ["X"],
        ]
        assert verify_complex(res)[0]

    @pytest.mark.parametrize(
        "v_rank, u_rank, shifts, match",
        [
            (2, 2, [(0, 0)], "need 2 ambient shifts of 2 entries"),
            (1, 1, [(0,)], "need 1 ambient shifts of 2 entries"),
            (2, 1, None, "must all have rank 2"),
            (2, 2, [(0, 0)] * 3, "need 2 ambient shifts of 2 entries"),
        ],
        ids=["too-few-shifts", "short-shift", "mixed-ranks", "too-many-shifts"],
    )
    def test_bad_shapes_rejected_before_groebner_work(self, ring_xy, monkeypatch, v_rank, u_rank, shifts, match):
        def never(*args):
            raise AssertionError("Groebner work started")

        monkeypatch.setattr(groebner, "buchberger", never)
        monkeypatch.setattr(relative, "relative_buchberger", never)
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        v, u = els(ring_xy, v_rank, ["X*e1"]), els(ring_xy, u_rank, ["X^2*e1"])
        with pytest.raises(InputError, match=match):
            free_resolution(v, u, order, shifts)

    def test_inhomogeneous_inner_module_rejected_first(self, ring_xy, monkeypatch):
        def never(*args):
            raise AssertionError("relative completion started")

        monkeypatch.setattr(relative, "relative_buchberger", never)
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        u = els(ring_xy, 1, ["X^2*e1+Y^3*e1"])
        with pytest.raises(InputError, match=r"inner module element <Y\^3\+X\^2> is not homogeneous"):
            free_resolution(els(ring_xy, 1, ["Y*e1"]), u, order)

    def test_inhomogeneous_generators_of_a_graded_span(self, ring_xy):
        # only the span must be graded: a check on each generator would
        # reject this input, whose relative basis is X^2, X*Y
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        u = els(ring_xy, 1, ["X^3*e1", "Y^3*e1"])
        mixed = free_resolution(els(ring_xy, 1, ["X^2*e1+X*Y*e1", "X*Y*e1"]), u, order)
        plain = free_resolution(els(ring_xy, 1, ["X^2*e1", "X*Y*e1"]), u, order)
        assert (mixed.gens, mixed.diffs) == (plain.gens, plain.diffs)
        assert verify_complex(mixed)[0]


class TestScalarLevels:
    @pytest.mark.parametrize("deep", [False, True], ids=["random", "deep"])
    def test_levels_match_the_general_schreyer_pass(self, deep):
        hyp = pytest.importorskip("hypothesis")
        depths = []

        @hyp.settings(max_examples=60 if deep else 200)
        @hyp.given(graded_subquotients(hyp.strategies)(deep))
        def check(case):
            v, u, order, shifts = case
            res = free_resolution(v, u, order, shifts)
            assert emit_resolution_file(res) == emit_resolution_file(general_schreyer_resolution(v, u, order, shifts))
            if u:  # a finite-length case, which the deep strategy resolves deeply
                depths.append(len(res.diffs))

        check()
        if deep:
            assert sum(k >= 3 for k in depths) * 4 >= len(depths) * 3

    def test_inhomogeneous_relative_basis_rejected_before_syzygies(self, ring_xy, monkeypatch):
        def never(*args):
            raise AssertionError("syzygy work started")

        monkeypatch.setattr(homres, "_level_syzygies", never)
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        u = els(ring_xy, 1, ["X^3*e1", "Y^3*e1"])
        with pytest.raises(InputError, match=r"element <Y\^2\+X> is not homogeneous"):
            free_resolution(els(ring_xy, 1, ["X*e1+Y^2*e1"]), u, order)


class TestPruneMinimize:
    def test_staircase_rank2_minimized_frozen(self, ring2, order2):
        res = prune_minimize(staircase_resolution(ring2, order2))
        assert res.minimized
        assert betti_numbers(res) == (2, 4, 2)
        d1, d2 = res.diffs
        assert d1.col_shifts == ((3, 0), (2, 1), (1, 2), (0, 2))
        assert [
            fmts([d1.entry(i, j) for j in range(d1.ncols)]) for i in range(d1.nrows)
        ] == [
            ["X1^2", "X1*X2", "X2^2", "0"],
            ["0", "-X1^2", "0", "X2"],
        ]
        assert d2.col_shifts == ((2, 2), (3, 2))
        assert [
            fmts([d2.entry(i, j) for j in range(d2.ncols)]) for i in range(d2.nrows)
        ] == [
            ["0", "X2^2"],
            ["X2", "-X1*X2"],
            ["-X1", "0"],
            ["X1^2", "-X1^3"],
        ]
        assert verify_complex(res)[0]

    def test_pivot_lowest_row_then_lowest_column(self):
        # on m/m^3 a pivot at a later column of the same row leaves the
        # columns of the last differential in another order
        res = prune_minimize(cube_resolution(QQ))
        assert betti_numbers(res) == (3, 13, 16, 6)
        assert res.diffs[-1].col_shifts == (
            (3, 1, 1), (2, 2, 1), (1, 3, 1), (2, 1, 2), (1, 1, 3), (1, 2, 2)
        )

    @pytest.mark.parametrize(
        "field, digest",
        [
            ("q", "a0e804b5ba0db9e9a39ead7b06372688301e9a33722e419df28df2ef234a7d32"),
            ("fp:32003", "96c21765337337107f5566584a944b50e22ca78b00deb7b94795d49d369e9465"),
        ],
        ids=["q", "fp:32003"],
    )
    def test_minimized_cube_bytes_frozen(self, field, digest):
        text = emit_resolution_file(prune_minimize(cube_resolution(parse_field(field))))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_pruned_resolutions_are_minimal_and_stable(self):
        hyp = pytest.importorskip("hypothesis")

        @hyp.settings(max_examples=40)
        @hyp.given(subquotients(hyp.strategies))
        def check(case):
            v, u, order = case
            res = prune_minimize(free_resolution(v, u, order))
            zero = (0,) * res.ring.n
            assert not any(e == zero for d in res.diffs for col in d.cols for (_, e), _ in col.terms)
            assert verify_complex(res) == (True, [])
            text = emit_resolution_file(res)
            assert emit_resolution_file(prune_minimize(res)) == text

        check()

    def test_truncated_pruning_keeps_the_minimal_levels(self, ring_xy, monkeypatch):
        # the last differential of a truncated resolution is pruned by the
        # redundant-column pass alone, and must still come out minimal; it
        # keeps the columns outside the span of those of lower degree and the
        # earlier ones of their degree, so at one degree the S-vectors of the
        # columns below must be reduced before the next column: here X^2*e2
        # at (2, 1) is Y times X*e1 minus X times Y*e1-X*e2
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        frame = free_resolution(els(ring_xy, 1, ["X", "Y"]), els(ring_xy, 1, ["X^2"]), order, length=1)
        assert frame.diffs[0].col_shifts == ((2, 0), (1, 1), (2, 1))
        assert prune_minimize(frame).diffs[0].col_shifts == ((2, 0), (1, 1))
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        def kept(d):
            # the rule above, column by column, on exact ranks of the columns'
            # scalar vectors (a homogeneous column has one term per row)
            coords = [{i: c for (i, _), c in col.terms} for col in d.cols]
            vecs = [[w.get(i, d.ring.field.zero) for i in range(d.nrows)] for w in coords]
            out = []
            for j, b in enumerate(d.col_shifts):
                below = [vecs[l] for l, c in enumerate(d.col_shifts) if deg_leq(c, b) and (c != b or l < j)]
                if matrix_rank(below + [vecs[j]]) > matrix_rank(below):
                    out.append(j)
            return out or [0]

        def check(case, length):
            v, u, order = case

            def levels(res):
                return [sorted(res.level_degrees(k)) for k in range(min(length, len(res.diffs)) + 1)]

            frame = free_resolution(v, u, order, length=length)
            cut = prune_minimize(frame)
            assert levels(cut) == levels(prune_minimize(free_resolution(v, u, order)))
            with monkeypatch.context() as m:  # the same pruning, keeping every column the pass sees
                m.setattr(homres, "_scalar_basis", lambda rows, hi: (None, None, None, range(len(rows))))
                every = prune_minimize(frame)
            if every.diffs:
                last, keep = every.diffs[-1], kept(every.diffs[-1])
                assert cut.diffs[:-1] == every.diffs[:-1]
                assert cut.diffs[-1].col_shifts == tuple(last.col_shifts[j] for j in keep)
                assert cut.diffs[-1].cols == [last.cols[j] for j in keep]

        for cases, examples in ((subquotients(st), 60), (monomial_subquotients(st), 100)):
            hyp.settings(max_examples=examples)(hyp.given(cases, st.integers(1, 3))(check))()

    def test_prune_and_verify_need_no_groebner_basis(self, ring2, order2, monkeypatch):
        # both are scalar linear algebra on fine degrees: no completion, no division
        cut = free_resolution(els(ring2, 2, R2_V), els(ring2, 2, R2_U), order2, length=1)
        full = staircase_resolution(ring2, order2)

        def never(*args, **kwargs):
            raise AssertionError("Groebner machinery called")

        monkeypatch.setattr(groebner, "buchberger", never)
        monkeypatch.setattr(groebner, "divide", never)
        assert len(cut.diffs[0].cols) == 5
        pruned = prune_minimize(cut)  # nothing cancels in D1, so the pass drops the fifth column
        assert pruned.diffs[0].col_shifts == ((3, 0), (2, 1), (1, 2), (0, 2))
        assert full.u_gens
        assert verify_complex(full) == (True, [])
        short = Resolution(ring2, order2, full.ambient_shifts, full.u_gens[1:], full.gens, full.diffs)
        ok, report = verify_complex(short)
        assert not ok and any("misses the inner module" in msg for msg in report)

    def test_staircase_rank6_betti(self, ring2, order2):
        res = free_resolution(els(ring2, 6, R6_V), els(ring2, 6, R6_U), order2)
        min6 = prune_minimize(res)
        assert betti_numbers(min6) == (2, 4, 2)
        assert verify_complex(min6)[0]

    def test_idempotent_on_minimal(self, ring2, order2):
        once = prune_minimize(staircase_resolution(ring2, order2))
        twice = prune_minimize(once)
        assert betti_numbers(twice) == betti_numbers(once)
        assert twice.diffs[0].cols == once.diffs[0].cols

    def test_betti_requires_minimized(self, ring2, order2):
        with pytest.raises(ContractViolation):
            betti_numbers(staircase_resolution(ring2, order2))


class TestVerifyComplex:
    def test_accepts_box(self, ring2, order2):
        res = prune_minimize(staircase_resolution(ring2, order2))
        ok, report = verify_complex(res, box=((0, 0), (4, 3)))
        assert ok and report == []

    def test_detects_wrong_cokernel(self, ring2, order2):
        gens = els(ring2, 1, ["e1"])
        diff = GradedMatrix.from_entries(
            ring2, ((0, 0),), ((1, 0),), scalar_grid(ring2, [["X1"]])
        )
        res = Resolution(
            ring2,
            order2,
            ((0, 0),),
            els(ring2, 1, ["X1*e1", "X2*e1"]),
            gens,
            [diff],
        )
        ok, report = verify_complex(res, box=((0, 0), (2, 2)))
        assert not ok
        assert any("dimension" in msg for msg in report)

    def test_detects_nonzero_composition(self, ring2, order2):
        gens = els(ring2, 1, ["e1"])
        d1 = GradedMatrix.from_entries(
            ring2, ((0, 0),), ((1, 0),), scalar_grid(ring2, [["X1"]])
        )
        d2 = GradedMatrix.from_entries(
            ring2, ((1, 0),), ((2, 0),), scalar_grid(ring2, [["X1"]])
        )
        res = Resolution(
            ring2, order2, ((0, 0),), els(ring2, 1, ["X1*e1"]), gens, [d1, d2]
        )
        ok, report = verify_complex(res)
        assert not ok
        assert any("compose" in msg for msg in report)

    def test_detects_inhomogeneous_differential(self, ring2, order2):
        gens = els(ring2, 1, ["e1"])
        diff = GradedMatrix.from_entries(
            ring2, ((0, 0),), ((1, 0),), scalar_grid(ring2, [["X1+X2^2"]])
        )
        res = Resolution(ring2, order2, ((0, 0),), [], gens, [diff])
        ok, report = verify_complex(res)
        assert not ok
        assert any("homogeneous" in msg for msg in report)

    def test_zero_inner_generator_is_ignored(self, ring2, order2):
        res = prune_minimize(staircase_resolution(ring2, order2))
        zero = ModuleElement.zero(ring2, len(res.ambient_shifts))
        padded = Resolution(ring2, order2, res.ambient_shifts, [zero] + res.u_gens, res.gens, res.diffs)
        assert verify_complex(padded) == (True, [])

    def test_detects_inhomogeneous_generators(self, ring2, order2):
        gens = els(ring2, 1, ["e1+X1*e1"])
        res = Resolution(ring2, order2, ((0, 0),), [], gens, [])
        ok, report = verify_complex(res)
        assert not ok


class TestResolutionAccessors:
    def test_levels_and_repr(self, ring2, order2):
        res = staircase_resolution(ring2, order2)
        assert res.level_degrees(0) == res.gen_degrees
        assert res.level_degrees(1) == res.diffs[0].col_shifts
        assert repr(res) == "Resolution(levels=2,5,3, minimized=False)"

    def test_gens_matrix(self, ring2, order2):
        res = staircase_resolution(ring2, order2)
        mat = res.gens_matrix()
        assert mat.cols == res.gens
        assert mat.col_shifts == res.gen_degrees


class TestVectorDiagram:
    def test_dims_and_default_maps(self, ring2):
        diag = staircase_diagram(ring2)
        assert diag.dim((1, 1)) == 2
        assert diag.dim((9, 9)) == 0
        assert diag.support_join() == (2, 1)
        assert diag.map(0, (2, 1)) == []

    def test_zero_fibers_dropped(self, ring2):
        diag = VectorDiagram(ring2, {(0, 0): 1, (1, 0): 0}, {})
        assert (0, 0) in diag.dims and (1, 0) not in diag.dims

    def test_map_shape_validated(self, ring2):
        with pytest.raises(InputError):
            VectorDiagram(
                ring2,
                {(0, 0): 1, (1, 0): 2},
                {(0, (0, 0)): qgrid(QQ, [[1]])},
            )

    def test_negative_degree_rejected(self, ring2):
        with pytest.raises(InputError):
            VectorDiagram(ring2, {(-1, 0): 1}, {})

    def test_commuting_enforced(self, ring2):
        dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        maps = {
            (0, (0, 0)): qgrid(QQ, [[1]]),
            (1, (1, 0)): qgrid(QQ, [[1]]),
            (1, (0, 0)): qgrid(QQ, [[1]]),
            (0, (0, 1)): qgrid(QQ, [[0]]),
        }
        with pytest.raises(InputError):
            VectorDiagram(ring2, dims, maps)

    def test_composite_through_zero_fiber_is_zero(self, ring_xy):
        # X then Y is 1 then 0; Y then X passes the zero fiber at (0,1)
        dims = {(0, 0): 1, (1, 0): 1, (1, 1): 1}
        maps = {(0, (0, 0)): qgrid(QQ, [[1]]), (1, (1, 0)): qgrid(QQ, [[0]])}
        diag = VectorDiagram(ring_xy, dims, maps)
        assert diag.map(1, (0, 0)) == [] and diag.map(0, (0, 1)) == [[]]

    def test_zero_fiber_path_against_nonzero_rejected(self, ring_xy):
        dims = {(0, 0): 1, (1, 0): 1, (1, 1): 1}
        maps = {(0, (0, 0)): qgrid(QQ, [[1]]), (1, (1, 0)): qgrid(QQ, [[1]])}
        with pytest.raises(InputError) as err:
            VectorDiagram(ring_xy, dims, maps)
        assert str(err.value) == "diagram does not commute at degree ((0, 0),) on X, Y"


class TestModuleFromDiagram:
    def test_staircase_realization_frozen(self, ring2):
        v, u = module_from_diagram(staircase_diagram(ring2))
        assert fmts(v) == ["X1*e1", "X2*e2"]
        assert sorted(fmts(u)) == sorted(R2_U)

    def test_single_point(self, ring2):
        diag = VectorDiagram(ring2, {(0, 0): 1}, {})
        v, u = module_from_diagram(diag)
        assert fmts(v) == ["1"]
        assert sorted(fmts(u)) == ["X1", "X2"]

    def test_empty_diagram_rejected(self, ring2):
        with pytest.raises(InputError):
            module_from_diagram(VectorDiagram(ring2, {}, {}))


class TestDiagramOracle:
    """module_from_diagram against dense recounts on conjugated monomial
    diagrams (conftest.conjugated_diagram), over q and fp:32003."""

    @staticmethod
    def diagrams(st):
        @st.composite
        def draw_diagram(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            n = draw(st.integers(2, 3))
            ring = Ring(n, field, ("X", "Y", "Z")[:n])
            comps = []
            for _ in range(draw(st.integers(1, 3))):
                vs = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=2))
                top = [max(c[k] for c in vs) + draw(st.integers(1, 2)) for k in range(n)]
                us = [tuple(top[k] if v == k else 0 for v in range(n)) for k in range(n)]
                us += draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=2))
                comps.append((vs, us))
            return conjugated_diagram(ring, comps, lambda: draw(st.integers(-2, 2)))

        return draw_diagram().filter(lambda diag: diag.dims)

    @staticmethod
    def push(diag, vec, b, a):
        """Dense image at a of the fiber vector vec at b <= a, one variable
        at a time; a zero fiber on the way gives the zero vector."""
        zero = diag.ring.field.zero
        for k in range(diag.ring.n):
            while b[k] < a[k]:
                vec = [sum((r[i] * x for i, x in enumerate(vec)), zero) for r in diag.map(k, b)]
                b = tuple(x + (v == k) for v, x in enumerate(b))
        return vec

    def recount(self, diag, box):
        """Per degree a: the generators (a, coordinate) outside the dense
        image of sum_k x_k M_(a-e_k), and dim U_a - dim sum_k x_k U_(a-e_k)
        for the kernel U of the free cover they give."""
        field = diag.ring.field
        gens, kernels, new = [], {}, {}
        for a in box:
            da = diag.dim(a)
            units = [[field.one if c == idx else field.zero for c in range(da)] for idx in range(da)]
            below = [(k, tuple(x - (v == k) for v, x in enumerate(a))) for k in range(len(a)) if a[k]]
            image = [[m[r][c] for r in range(da)] for k, b in below for m in [diag.map(k, b)] for c in range(diag.dim(b))]
            for idx in range(da):
                if matrix_rank(image + units[: idx + 1]) > matrix_rank(image + units[:idx]):
                    gens.append((a, idx))
            live = [i for i, (b, _) in enumerate(gens) if deg_leq(b, a)]
            cols = [self.push(diag, [field.one if c == idx else field.zero for c in range(diag.dim(b))], b, a)
                    for b, idx in (gens[i] for i in live)]
            kernels[a] = []
            for w in nullspace_basis([[col[r] for col in cols] for r in range(da)], len(live), field):
                full = [field.zero] * len(gens)
                for i, x in zip(live, w):
                    full[i] = x
                kernels[a].append(full)
            lower = [w + [field.zero] * (len(gens) - len(w)) for _, b in below for w in kernels[b]]
            new[a] = len(kernels[a]) - matrix_rank(lower)
        return gens, new

    def test_realization_matches_dense_recounts(self, monkeypatch):
        hyp = pytest.importorskip("hypothesis")
        seen = []
        inner = homres._inner_basis
        monkeypatch.setattr(homres, "_inner_basis", lambda u, order: seen.append(list(u)) or inner(u, order))

        @hyp.settings(max_examples=60)
        @hyp.given(self.diagrams(hyp.strategies))
        def check(diag):
            seen.clear()
            v, u = module_from_diagram(diag)
            n = diag.ring.n
            box = list(degrees_in_box((0,) * n, tuple(x + 1 for x in diag.support_join())))
            shifts = [(0,) * n] * len(v)
            assert list(graded_dimensions(v, u, shifts, box[0], box[-1])) == [diag.dim(a) for a in box]
            gens, new = self.recount(diag, box)
            bdegs = [element_degree(g) for g in v]
            assert sorted(bdegs, key=lambda b: (sum(b), b[::-1])) == bdegs
            assert sorted(bdegs) == sorted(b for b, _ in gens)
            (handed,) = seen
            got = [element_degree(w, bdegs) for w in handed]
            assert {a: got.count(a) for a in box} == new

        check()


class TestResolutionLength:
    @pytest.mark.parametrize("length", [-1, -3])
    def test_negative_length_rejected_first(self, length, ring2, order2, monkeypatch):
        def never(*args):
            raise AssertionError("Groebner work started")

        monkeypatch.setattr(homres, "_graded_inner_basis", never)
        monkeypatch.setattr(relative, "relative_buchberger", never)
        with pytest.raises(InputError, match="length must be >= 0, got %d" % length):
            free_resolution(els(ring2, 2, R2_V), els(ring2, 2, R2_U), order2, length=length)
