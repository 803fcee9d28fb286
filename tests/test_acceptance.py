"""Acceptance suite: frozen end-to-end results and counted property checks."""

import random

from subquo.elements import ModuleElement, QQ, Ring
from subquo.flange import buchberger_flange, free_presentation, is_groebner_form
from subquo.graded import (
    degrees_in_box,
    element_degree,
    graded_dimension,
    monomialize,
    presentation_dimension,
)
from subquo.groebner import buchberger, is_groebner, reduce_groebner, schreyer_syzygies
from subquo.homres import (
    Resolution,
    betti_numbers,
    free_resolution,
    homology_presentation,
    kernel_of_free_map,
    module_from_diagram,
    prune_minimize,
    verify_complex,
)
from subquo.orders import default_order, parse_order
from subquo.relative import is_relative_gb, reduce_relative, relative_buchberger

from conftest import (
    DEG5_U,
    DEG5_V,
    R2_U,
    R2_V,
    R6_U,
    R6_V,
    els,
    fim_big,
    fim_small,
    fim_small_completed,
    fmts,
    middle_complex,
    random_element,
    random_exponent,
    random_ring,
    staircase_diagram,
)

BOX32 = list(degrees_in_box((0, 0), (3, 2)))
DIMS32 = [0, 1, 1, 0, 1, 2, 1, 0, 0, 0, 0, 0]


def deg5_setup(ring_xy):
    order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
    g_u = reduce_groebner(buchberger(els(ring_xy, 1, DEG5_U), order), order)
    return order, g_u


def grlex_asc(ring2):
    return parse_order("grlex X1 X2 ; pot asc", ring2, 1)


def flange_presentation_resolution(ring2):
    """The nine-relation cokernel presentation wrapped for minimization."""
    order = grlex_asc(ring2)
    pres = free_presentation(fim_small_completed(ring2), order)
    gens = [ModuleElement.monomial(ring2, 3, i, (0, 0)) for i in range(3)]
    return Resolution(ring2, order, pres.row_shifts, [], gens, [pres])


def presentation_dims(res, box):
    """Cokernel dimensions of the first differential over a degree box."""
    if res.diffs:
        return [presentation_dimension(res.diffs[0], a) for a in box]
    degs = res.gen_degrees
    return [sum(1 for s in degs if all(x <= y for x, y in zip(s, a))) for a in box]


class TestRelativeBasis:
    def test_truncation_relative_basis(self, ring_xy):
        order, g_u = deg5_setup(ring_xy)
        h = relative_buchberger(els(ring_xy, 1, DEG5_V), g_u, order)
        h = reduce_relative(h, g_u, order)
        assert fmts(h, order) == ["X*Y^2+X^3", "Y^3", "X^3*Y"]


class TestMonomialSyzygies:
    def test_monomial_cycle_syzygies(self, ring_xyz):
        order = parse_order("grevlex X Y Z ; pot desc", ring_xyz, 1)
        g = els(ring_xyz, 1, ["X*Y*e1", "Y*Z*e1", "X*Z*e1"])
        cols, sord = schreyer_syzygies(g, order)
        assert fmts(cols, sord) == ["Z*e1-X*e2", "Z*e1-Y*e3", "X*e2-Y*e3"]
        reduced = reduce_groebner(cols, sord)
        assert fmts(reduced, sord) == ["Z*e1-Y*e3", "X*e2-Y*e3"]


class TestMiddleHomology:
    def test_middle_homology_kernel(self, ring2):
        d1, _, _, order = middle_complex(ring2)
        assert fmts(kernel_of_free_map(d1, order)) == [
            "X1*e1-X1*e2+e5",
            "X2*e1-X2*e2+e4+e6",
            "X2*e3-X2*e5+X1*e6",
            "X1*e4-X2*e5+X1*e6",
        ]

    def test_middle_homology_generators(self, ring2):
        d1, p, d2, order = middle_complex(ring2)
        res = homology_presentation(d1, p, d2, order)
        sord = res.order.for_rank(5)
        assert fmts(res.gens, sord) == [
            "X1*e1-X1*e2+e4",
            "X2*e1-X2*e2+X2*e3+e5",
            "X1*X2*e3-X2*e4+X1*e5",
        ]
        assert res.gen_degrees == ((1, 0), (0, 1), (1, 1))

    def test_middle_homology_syzygies(self, ring2):
        d1, p, d2, order = middle_complex(ring2)
        res = homology_presentation(d1, p, d2, order)
        (s,) = res.diffs
        assert s.col_shifts == ((1, 1), (2, 1))
        assert [
            fmts([s.entry(i, j) for j in range(s.ncols)]) for i in range(s.nrows)
        ] == [["X2", "0"], ["-X1", "0"], ["1", "X1"]]

    def test_middle_homology_minimal_generators(self, ring2):
        d1, p, d2, order = middle_complex(ring2)
        full = homology_presentation(d1, p, d2, order)
        res = prune_minimize(full)
        sord = res.order.for_rank(5)
        assert res.gens == full.gens[:2]
        assert fmts(res.gens, sord) == [
            "X1*e1-X1*e2+e4",
            "X2*e1-X2*e2+X2*e3+e5",
        ]
        (m,) = res.diffs
        assert m.col_shifts == ((2, 1),)
        assert [fmts([m.entry(i, 0)]) for i in range(2)] == [["X1*X2"], ["-X1^2"]]


class TestScalarCompletion:
    def test_six_cogenerator_completion_adds_one_column(self, ring2):
        order = grlex_asc(ring2)
        big = fim_big(ring2)
        done = buchberger_flange(big, order)
        assert done.ncols == big.ncols + 1
        assert done.beta[6] == (1, 1)
        assert [done.entries[i][6] for i in range(6)] == [
            QQ.from_int(v) for v in [0, 0, 0, 1, -1, 0]
        ]

    def test_two_cogenerator_completion_adds_one_column(self, ring2):
        order = grlex_asc(ring2)
        done = buchberger_flange(fim_small(ring2), order)
        assert done == fim_small_completed(ring2)
        assert done.beta[2] == (1, 1)
        assert [done.entries[i][2] for i in range(2)] == [QQ.one, QQ.zero]


class TestCokernelPresentation:
    def test_cokernel_presentation_matrix(self, ring2):
        pres = free_presentation(fim_small_completed(ring2), grlex_asc(ring2))
        assert pres.row_shifts == ((1, 0), (0, 1), (1, 1))
        assert pres.col_shifts == (
            (1, 1), (1, 2), (2, 1), (0, 2), (2, 1), (1, 2), (3, 0), (3, 1), (3, 1),
        )
        assert [
            fmts([pres.entry(i, j) for j in range(9)]) for i in range(3)
        ] == [
            ["X2", "X2^2", "-X1*X2", "0", "0", "0", "X1^2", "0", "0"],
            ["-X1", "0", "X1^2", "X2", "0", "0", "0", "X1^3", "0"],
            ["-1", "0", "0", "0", "X1", "X2", "0", "0", "X1^2"],
        ]


class TestMinimalData:
    def test_presentation_minimal_generators_and_relations(self, ring2):
        res = prune_minimize(flange_presentation_resolution(ring2))
        assert res.gen_degrees == ((1, 0), (0, 1))
        (d,) = res.diffs
        assert d.col_shifts == ((1, 2), (2, 1), (0, 2), (3, 0))
        assert [
            fmts([d.entry(i, j) for j in range(4)]) for i in range(2)
        ] == [
            ["X2^2", "-X1*X2", "0", "X1^2"],
            ["0", "X1^2", "X2", "0"],
        ]

    def test_total_betti_rank_six(self, ring2):
        order = parse_order("grevlex X1 X2 ; pot desc", ring2, 1)
        res = free_resolution(els(ring2, 6, R6_V), els(ring2, 6, R6_U), order)
        assert betti_numbers(prune_minimize(res)) == (2, 4, 2)

    def test_total_betti_rank_two(self, ring2):
        order = parse_order("grevlex X1 X2 ; pot desc", ring2, 1)
        res = free_resolution(els(ring2, 2, R2_V), els(ring2, 2, R2_U), order)
        assert betti_numbers(prune_minimize(res)) == (2, 4, 2)


class TestRandomPostChecks:
    def test_buchberger_random_postchecks(self):
        rng = random.Random(2024)
        for _ in range(120):
            ring = random_ring(rng)
            rank = rng.randint(1, 3)
            order = default_order(ring, rank)
            gens = [
                random_element(rng, ring, rank, max_deg=4)
                for _ in range(rng.randint(2, 3))
            ]
            basis = buchberger(gens, order)
            assert is_groebner(basis, order)

    def test_relative_buchberger_random_postchecks(self):
        rng = random.Random(2025)
        for _ in range(120):
            ring = random_ring(rng)
            rank = rng.randint(1, 3)
            order = default_order(ring, rank)
            u = [
                random_element(rng, ring, rank, max_deg=3)
                for _ in range(rng.randint(1, 2))
            ]
            v = [
                random_element(rng, ring, rank, max_deg=3)
                for _ in range(rng.randint(1, 2))
            ]
            g_u = reduce_groebner(buchberger(u, order), order)
            h = relative_buchberger(v, g_u, order)
            assert is_relative_gb(h, g_u, order)


class TestShuffleInvariance:
    def test_reduced_relative_basis_shuffle_invariance(self, ring_xy):
        rng = random.Random(50)
        order, g_u = deg5_setup(ring_xy)
        gens = els(
            ring_xy,
            1,
            DEG5_V + ["Y^4*e1", "X*Y^2*e1+X^3*e1+Y^3*e1"],
        )
        want = ["X*Y^2+X^3", "Y^3", "X^3*Y"]
        for _ in range(50):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            h = relative_buchberger(shuffled, g_u, order)
            h = reduce_relative(h, g_u, order)
            assert fmts(h, order) == want


class TestMinimizationPreservesDimensions:
    def test_minimization_preserves_staircase_dimensions(self, ring2):
        order = parse_order("grevlex X1 X2 ; pot desc", ring2, 1)
        for rank, v_texts, u_texts in ((2, R2_V, R2_U), (6, R6_V, R6_U)):
            res = free_resolution(
                els(ring2, rank, v_texts), els(ring2, rank, u_texts), order
            )
            before = presentation_dims(res, BOX32)
            after = presentation_dims(prune_minimize(res), BOX32)
            assert before == after == DIMS32

    def test_minimization_preserves_homology_dimensions(self, ring2):
        d1, p, d2, order = middle_complex(ring2)
        res = homology_presentation(d1, p, d2, order)
        box = list(degrees_in_box((0, 0), (4, 3)))
        assert presentation_dims(res, box) == presentation_dims(
            prune_minimize(res), box
        )

    def test_minimization_preserves_flange_dimensions(self, ring2):
        res = flange_presentation_resolution(ring2)
        assert presentation_dims(res, BOX32) == presentation_dims(
            prune_minimize(res), BOX32
        )

    def test_minimization_preserves_random_dimensions(self):
        rng = random.Random(77)
        ring = Ring(2, QQ, ("x", "y"))
        box = list(degrees_in_box((0, 0), (5, 5)))
        for _ in range(100):
            rank = rng.randint(1, 2)
            order = default_order(ring, rank)
            v = [
                ModuleElement.monomial(
                    ring, rank, rng.randrange(rank), random_exponent(rng, 2, 3)
                )
                for _ in range(rng.randint(1, 3))
            ]
            u = [
                g.mul_term(ring.field.one, random_exponent(rng, 2, 2))
                for g in v
                for _ in range(rng.randint(0, 2))
            ]
            res = free_resolution(v, u, order)
            module_dims = [
                graded_dimension(v, u, ((0, 0),) * rank, a) for a in box
            ]
            assert presentation_dims(res, box) == module_dims
            assert presentation_dims(prune_minimize(res), box) == module_dims


class TestComplexVerification:
    def test_resolutions_verify_exact(self, ring_x, ring2):
        order1 = parse_order("grevlex X ; pot desc", ring_x, 1)
        cover = free_resolution(
            els(ring_x, 1, ["X*e1"]), els(ring_x, 1, ["X^2*e1"]), order1
        )
        order = parse_order("grevlex X1 X2 ; pot desc", ring2, 1)
        rank2 = free_resolution(els(ring2, 2, R2_V), els(ring2, 2, R2_U), order)
        rank6 = free_resolution(els(ring2, 6, R6_V), els(ring2, 6, R6_U), order)
        d1, p, d2, morder = middle_complex(ring2)
        homology = homology_presentation(d1, p, d2, morder)
        for res in (cover, rank2, rank6, homology):
            ok, report = verify_complex(res)
            assert ok and report == []
            ok, report = verify_complex(prune_minimize(res))
            assert ok and report == []


class TestMonomialization:
    def test_monomialization_preserves_degrees_and_injectivity(self):
        rng = random.Random(404)
        for _ in range(500):
            ring = random_ring(rng)
            rank = rng.randint(1, 3)
            shifts = [random_exponent(rng, ring.n, 2) for _ in range(rank)]
            a = tuple(
                max(s[k] for s in shifts) + rng.randint(0, 2)
                for k in range(ring.n)
            )
            def sample():
                d = {}
                for i in range(rank):
                    c = rng.randint(-2, 2)
                    if c and all(x <= y for x, y in zip(shifts[i], a)):
                        exp = tuple(x - y for x, y in zip(a, shifts[i]))
                        d[(i, exp)] = ring.field.from_int(c)
                return ModuleElement(ring, rank, d)
            f, g = sample(), sample()
            mf, mg = monomialize(f, shifts), monomialize(g, shifts)
            if not f.is_zero:
                assert element_degree(f, shifts) == a
                assert element_degree(mf) == a
            assert mf - mg == monomialize(f - g, shifts)
            assert (mf == mg) == (f == g)


class TestDiagramRealization:
    def test_staircase_dimensions_agree_three_ways(self, ring2):
        diag = staircase_diagram(ring2)
        diagram_dims = [diag.dim(a) for a in BOX32]

        ambient_dims = [
            graded_dimension(
                els(ring2, 6, R6_V), els(ring2, 6, R6_U), ((0, 0),) * 6, a
            )
            for a in BOX32
        ]

        v, u = module_from_diagram(diag)
        order = default_order(ring2, v[0].rank)
        pres = prune_minimize(free_resolution(v, u, order, length=1))
        presentation = presentation_dims(pres, BOX32)

        assert diagram_dims == ambient_dims == presentation == DIMS32
        displayed = [(1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        assert [diag.dim(a) for a in displayed] == [1, 1, 1, 2, 1]
