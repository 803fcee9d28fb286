"""Tests for fine degrees, graded matrices, and exact graded dimensions."""

import random
from fractions import Fraction

import pytest

from subquo.elements import (
    ModuleElement, PrimeField, QQ, Ring, exp_sub, format_degree, mon_divides, parse_degree, parse_element, parse_field,
)
from subquo.errors import ContractViolation, InputError
from subquo.graded import (
    GradedMatrix,
    deg_join,
    deg_leq,
    deg_meet,
    degrees_in_box,
    element_degree,
    graded_dimension,
    graded_dimensions,
    is_homogeneous,
    matrix_rank,
    monomialize,
    nullspace_basis,
    presentation_dimension,
    rref,
)
from subquo.groebner import buchberger, reduce_groebner
from subquo.orders import default_order
from subquo.relative import reduce_relative, relative_buchberger

from conftest import R6_U, R6_V, els, fmts, qgrid, scalar_grid

BOX32 = [
    (0, 0), (1, 0), (2, 0), (3, 0),
    (0, 1), (1, 1), (2, 1), (3, 1),
    (0, 2), (1, 2), (2, 2), (3, 2),
]
DIMS32 = [0, 1, 1, 0, 1, 2, 1, 0, 0, 0, 0, 0]


def pruned_presentation(ring):
    """Two-generator presentation of the staircase module."""
    grid = [["X2^2", "-X1*X2", "0", "X1^2"], ["0", "X1^2", "X2", "0"]]
    return GradedMatrix.from_entries(
        ring,
        ((1, 0), (0, 1)),
        ((1, 2), (2, 1), (0, 2), (3, 0)),
        scalar_grid(ring, grid),
    )


class TestDegrees:
    def test_parse_format_round_trip(self):
        for a in [(0,), (1, 2), (-3, 0, 7)]:
            assert parse_degree(format_degree(a), len(a)) == a

    def test_parse_errors(self):
        for bad in ["1,2", "(1;2)", "(1,2)", "(x,2)"]:
            with pytest.raises(InputError):
                parse_degree(bad, 3)

    def test_lattice_ops(self):
        assert deg_join((1, 0), (0, 2)) == (1, 2)
        assert deg_meet((1, 0), (0, 2)) == (0, 0)
        assert deg_leq((1, 0), (1, 2))
        assert not deg_leq((2, 0), (1, 2))


class TestElementDegree:
    def test_plain_degree(self, ring2):
        f = parse_element("3*X1^2*X2*e1", ring2, 2)
        assert element_degree(f) == (2, 1)

    def test_shifted_degree(self, ring2):
        f = parse_element("X1*e1", ring2, 2)
        assert element_degree(f, ((1, 0), (0, 1))) == (2, 0)

    def test_zero_has_no_degree(self, ring2):
        assert element_degree(ModuleElement.zero(ring2, 1)) is None

    def test_inhomogeneous_raises(self, ring2):
        f = parse_element("X1*e1+X2*e1", ring2, 1)
        with pytest.raises(InputError):
            element_degree(f)
        assert not is_homogeneous(f)

    def test_shifts_can_fix_homogeneity(self, ring2):
        f = parse_element("X1*e1+X2*e2", ring2, 2)
        assert not is_homogeneous(f)
        assert is_homogeneous(f, ((0, 1), (1, 0)))


class TestMonomialize:
    def test_component_scaling(self, ring2):
        shifts = ((1, 0), (0, 1), (2, 0), (1, 1), (1, 1), (2, 1))
        f = parse_element("e6", ring2, 6)
        assert fmts([monomialize(f, shifts)]) == ["X1^2*X2*e6"]

    def test_degree_preserved(self, ring2):
        shifts = ((1, 0), (0, 1))
        f = parse_element("X2*e1+X1*e2", ring2, 2)
        assert element_degree(f, shifts) == (1, 1)
        assert element_degree(monomialize(f, shifts)) == (1, 1)

    def test_negative_shift_rejected(self, ring2):
        f = parse_element("e1", ring2, 1)
        with pytest.raises(InputError):
            monomialize(f, ((-1, 0),))


class TestShiftsAndBoxes:
    def test_box_order_first_coordinate_fastest(self):
        assert list(degrees_in_box((0, 0), (3, 2))) == BOX32

    def test_empty_box(self):
        assert list(degrees_in_box((1, 1), (0, 3))) == []

    def test_single_axis(self):
        assert list(degrees_in_box((2,), (4,))) == [(2,), (3,), (4,)]


class TestLinearAlgebra:
    def test_rref_frozen(self):
        red, piv = rref(qgrid(QQ, [[1, 2, 3], [2, 4, 6], [1, 1, 1]]))
        assert piv == [0, 1]
        assert red == qgrid(QQ, [[1, 0, -1], [0, 1, 2], [0, 0, 0]])

    def test_rank(self):
        assert matrix_rank(qgrid(QQ, [[1, 2, 3], [2, 4, 6], [1, 1, 1]])) == 2
        assert matrix_rank([]) == 0

    def test_nullspace_frozen(self):
        rows = qgrid(QQ, [[1, 2, 3], [2, 4, 6], [1, 1, 1]])
        basis = nullspace_basis(rows, 3, QQ)
        assert basis == [[QQ.one, QQ.from_int(-2), QQ.one]]

    def test_nullspace_annihilates(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = qgrid(
                QQ, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            )
            work = [list(r) for r in rows]
            for v in nullspace_basis(work, 4, QQ):
                for r in rows:
                    assert sum((a * b for a, b in zip(r, v)), QQ.zero) == QQ.zero

    def test_prime_field(self):
        f5 = PrimeField(5)
        rows = qgrid(f5, [[1, 2], [2, 4]])
        assert matrix_rank([list(r) for r in rows]) == 1
        basis = nullspace_basis(rows, 2, f5)
        assert basis == [[f5.from_int(3), f5.one]]


class TestEdgeShapes:
    """Values the dense Gauss-Jordan rref returned, frozen for the sparse kernel."""

    def test_no_columns(self):
        assert rref([[], []]) == ([[], []], [])
        assert rref([]) == ([], [])
        assert matrix_rank([[], []]) == 0

    def test_all_zero(self):
        rows = qgrid(QQ, [[0, 0], [0, 0], [0, 0]])
        assert rref(rows) == (qgrid(QQ, [[0, 0], [0, 0], [0, 0]]), [])
        assert matrix_rank(rows) == 0
        assert nullspace_basis(rows, 2, QQ) == qgrid(QQ, [[1, 0], [0, 1]])

    def test_single_row(self):
        assert rref(qgrid(QQ, [[0, 2, 4]])) == (qgrid(QQ, [[0, 1, 2]]), [1])

    def test_pivot_rows_first(self):
        rows = qgrid(QQ, [[0, 0], [0, 3], [2, 0]])
        assert rref(rows) == (qgrid(QQ, [[1, 0], [0, 1], [0, 0]]), [0, 1])

    def test_prime_field_rows_reduce_to_zero(self):
        f5 = PrimeField(5)
        red, piv = rref(qgrid(f5, [[2, 4, 1], [1, 2, 3], [3, 1, 4]]))
        # FpValue equality also checks the type of every zero
        assert (red, piv) == (qgrid(f5, [[1, 2, 3], [0, 0, 0], [0, 0, 0]]), [0])
        red, piv = rref(qgrid(f5, [[0, 0], [2, 4]]))
        assert (red, piv) == (qgrid(f5, [[1, 2], [0, 0]]), [0])


def _dense_rank(rows):
    """Reference rank: textbook dense Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestEliminationProperties:
    @staticmethod
    def matrices(st):
        """Small sparse matrices, tall or wide, with zero and dependent rows."""

        @st.composite
        def draw_matrix(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
            zeros = draw(st.integers(0, 6))
            entry = st.sampled_from([0] * zeros + [1, -1, 2, -3, 7])
            dead = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2))
            rows = []
            for _ in range(nrows):
                kind = draw(st.sampled_from(["free", "combination", "zero"]))
                if kind == "combination" and len(rows) >= 2:
                    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
                    a, b = draw(entry), draw(entry)
                    rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
                elif kind == "zero":
                    rows.append([0] * ncols)
                else:
                    rows.append([0 if c in dead else draw(entry) for c in range(ncols)])
            return field, ncols, qgrid(field, rows)

        return draw_matrix()

    def check(self, prop):
        hyp = pytest.importorskip("hypothesis")
        hyp.settings(max_examples=60)(hyp.given(self.matrices(hyp.strategies))(prop))()

    def test_rank_and_rref_against_references(self):
        sympy = pytest.importorskip("sympy")

        def prop(case):
            field, ncols, rows = case
            rank = matrix_rank(rows)
            red, piv = rref(rows)
            assert rank == len(piv) == _dense_rank(rows)
            if field == QQ:
                flat = [sympy.Rational(a.numerator, a.denominator) for r in rows for a in r]
                mat = sympy.Matrix(len(rows), ncols, flat)
                assert rank == mat.rank()
                sred, spiv = mat.rref()
                assert piv == list(spiv)
                assert red == [[Fraction(int(a.p), int(a.q)) for a in r] for r in sred.tolist()]
            else:
                for k, c in enumerate(piv):
                    assert not any(red[k][:c])
                    unit = [field.zero] * len(red)
                    unit[k] = field.one
                    assert [r[c] for r in red] == unit
                assert _dense_rank(rows + red) == rank

        self.check(prop)

    def test_nullspace_annihilates_rows(self):
        def prop(case):
            field, ncols, rows = case
            basis = nullspace_basis(rows, ncols, field)
            assert len(basis) == ncols - matrix_rank(rows)
            assert _dense_rank(basis) == len(basis)
            for v in basis:
                for r in rows:
                    assert sum((a * b for a, b in zip(r, v)), field.zero) == field.zero

        self.check(prop)

    @pytest.mark.parametrize("field", ["q", "fp:32003"])
    def test_graded_dimension_two_rank_recount(self, field):
        ring = Ring(2, parse_field(field), ("X1", "X2"))
        v, u = els(ring, 6, R6_V), els(ring, 6, R6_U)
        shifts = ((0, 0),) * 6

        def dense_rows(gens, a):
            rows = []
            for g in gens:
                b = element_degree(g)
                if deg_leq(b, a):
                    shifted = g.mul_term(ring.field.one, exp_sub(a, b))
                    rows.append([shifted.coeff(i, a) for i in range(6)])
            return rows

        recount = [_dense_rank(dense_rows(v + u, a)) - _dense_rank(dense_rows(u, a)) for a in BOX32]
        assert recount == DIMS32
        assert [graded_dimension(v, u, shifts, a) for a in BOX32] == recount


class TestGradedMatrix:
    def test_from_entries_round_trip(self, ring2):
        mat = pruned_presentation(ring2)
        assert (mat.nrows, mat.ncols) == (2, 4)
        assert fmts([mat.entry(0, 1)]) == ["-X1*X2"]
        assert fmts([mat.entry(1, 2)]) == ["X2"]
        assert mat.entry(1, 0).is_zero

    def test_shape_validation(self, ring2):
        grid = scalar_grid(ring2, [["X1", "X2"]])
        with pytest.raises(InputError):
            GradedMatrix.from_entries(ring2, ((0, 0),), ((1, 0),), grid)
        with pytest.raises(InputError):
            GradedMatrix(ring2, ((0, 0),), ((1, 0), (0, 1)), els(ring2, 1, ["X1*e1"]))

    def test_apply_is_linear_combination(self, ring2):
        mat = pruned_presentation(ring2)
        vec = parse_element("X1*e1+e2", ring2, 4)
        want = mat.cols[0].mul_poly(parse_element("X1", ring2, 1)) + mat.cols[1]
        assert mat.apply(vec) == want

    def test_apply_checks_rank(self, ring2):
        mat = pruned_presentation(ring2)
        with pytest.raises(InputError):
            mat.apply(parse_element("e5", ring2, 5))

    def test_homogeneity_check(self, ring2):
        mat = pruned_presentation(ring2)
        assert mat.is_homogeneous()
        bad = GradedMatrix.from_entries(
            ring2, ((0, 0),), ((1, 0),), scalar_grid(ring2, [["X2"]])
        )
        assert not bad.is_homogeneous()

    def test_degree_rank_frozen(self, ring2):
        mat = pruned_presentation(ring2)
        assert mat.degree_rank((1, 1)) == 0
        assert mat.degree_rank((2, 1)) == 1

    def test_equality(self, ring2):
        assert pruned_presentation(ring2) == pruned_presentation(ring2)
        assert pruned_presentation(ring2) != "x"


class TestGradedDimension:
    def test_staircase_dims_frozen(self, ring2):
        shifts = ((0, 0),) * 6
        v = els(ring2, 6, R6_V)
        u = els(ring2, 6, R6_U)
        assert [graded_dimension(v, u, shifts, a) for a in BOX32] == DIMS32

    def test_presentation_dims_agree(self, ring2):
        mat = pruned_presentation(ring2)
        assert [presentation_dimension(mat, a) for a in BOX32] == DIMS32

    def test_no_generators(self, ring2):
        assert graded_dimension([], [], ((0, 0),), (1, 1)) == 0

    def test_degree_below_all_shifts(self, ring2):
        v = els(ring2, 1, ["X1*e1"])
        assert graded_dimension(v, [], ((2, 2),), (1, 1)) == 0

    def test_quotient_drops_dimension(self, ring2):
        shifts = ((0, 0),)
        v = els(ring2, 1, ["e1"])
        u = els(ring2, 1, ["X1*e1"])
        assert graded_dimension(v, [], shifts, (1, 0)) == 1
        assert graded_dimension(v, u, shifts, (1, 0)) == 0


class TestLeadingTermOracle:
    """dim (V+U)/U at a from standard monomials, against the rank routes.

    A free component with shift s holds one monomial in degree a >= s, so
    dim (V+U)_a counts the components whose monomial x^(a - s) e_j lies in
    <LT(H u G_U)> (H the reduced relative basis, G_U a basis of U), and
    dim U_a those in <LT(G_U)>. The count needs no elimination.
    """

    @staticmethod
    def subquotients(st):
        """Monomial and binomial subquotients in 1-3 variables, with a box."""

        @st.composite
        def draw_case(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            n, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            ring = Ring(n, field, tuple("xyz"[:n]))
            small = st.integers(-1, 1)
            shifts = tuple(tuple(draw(small) for _ in range(n)) for _ in range(rank))

            def element():
                j = draw(st.integers(0, rank - 1))
                e = tuple(draw(st.integers(0, 2)) for _ in range(n))
                terms = {(j, e): field.one}
                k = draw(st.integers(0, rank - 1))
                f = tuple(x + s - t for x, s, t in zip(e, shifts[j], shifts[k]))
                c = draw(st.sampled_from([0, 1, -1, 2]))
                if k != j and c and min(f) >= 0:
                    terms[(k, f)] = field.from_int(c)
                return ModuleElement(ring, rank, terms)

            v = [element() for _ in range(draw(st.integers(1, 3)))]
            u = [element() for _ in range(draw(st.integers(0, 3)))]
            lo = tuple(draw(st.integers(-1, 2)) for _ in range(n))
            hi = tuple(x + draw(st.integers(0, 3)) for x in lo)
            return ring, shifts, v, u, lo, hi

        return draw_case()

    @staticmethod
    def oracle(ring, shifts, v, u):
        """Degree -> dim (V+U)/U, by counting leading-term monomials."""
        order = default_order(ring, len(shifts))
        g_u = buchberger([g for g in u if not g.is_zero], order)
        g_u = reduce_groebner(g_u, order) if g_u else []
        h = reduce_relative(relative_buchberger(v, g_u, order), g_u, order)

        def in_lt(basis, mon):
            return any(mon_divides(g.leading(order)[0], mon) for g in basis)

        def dim(a):
            mons = [(j, exp_sub(a, s)) for j, s in enumerate(shifts) if deg_leq(s, a)]
            return sum(in_lt(h + g_u, m) and not in_lt(g_u, m) for m in mons)

        return dim

    @staticmethod
    def dense_recount(ring, shifts, v, u, a):
        """rank(V+U) - rank(U) of dense degree-a coordinate rows."""
        zero = ring.field.zero

        def rows(gens):
            out = []
            for g in gens:
                b = element_degree(g, shifts)
                if b is not None and deg_leq(b, a):
                    shifted = g.mul_term(ring.field.one, exp_sub(a, b))
                    out.append([
                        shifted.coeff(j, exp_sub(a, s)) if deg_leq(s, a) else zero
                        for j, s in enumerate(shifts)
                    ])
            return out

        return _dense_rank(rows(v + u)) - _dense_rank(rows(u))

    def test_box_stream_matches_recount_and_leading_terms(self):
        hyp = pytest.importorskip("hypothesis")

        @hyp.settings(max_examples=80)
        @hyp.given(self.subquotients(hyp.strategies))
        def prop(case):
            ring, shifts, v, u, lo, hi = case
            box = list(degrees_in_box(lo, hi))
            stream = list(graded_dimensions(v, u, shifts, lo, hi))
            assert len(stream) == len(box)
            assert stream == [graded_dimension(v, u, shifts, a) for a in box]
            assert stream == [self.dense_recount(ring, shifts, v, u, a) for a in box]
            oracle = self.oracle(ring, shifts, v, u)
            assert stream == [oracle(a) for a in box]

        prop()


class TestBoxRankOracle:
    """GradedMatrix.degree_ranks against matrix_rank of each dense degree-a block.

    Twin columns share their rows at the incomparable degrees c + e_k and
    c + e_l, so their leads meet in an S-vector at c + e_k + e_l, and the
    box often stops below that join or below a column degree.
    """

    @staticmethod
    def matrices(st):
        @st.composite
        def draw_case(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            n, nrows = draw(st.integers(2, 3)), draw(st.integers(1, 4))
            ring = Ring(n, field, tuple("xyz"[:n]))
            row_shifts = [tuple(draw(st.sampled_from([0, 0, 1])) for _ in range(n)) for _ in range(nrows)]
            cols = []  # (degree, {row: coefficient})
            for _ in range(draw(st.integers(1, 4))):
                c = tuple(draw(st.integers(0, 2)) for _ in range(n))
                rows = [i for i in range(nrows) if deg_leq(row_shifts[i], c)]
                if draw(st.booleans()):  # twins at c + e_k and c + e_l, one support
                    k, l = draw(st.permutations(range(n)))[:2]
                    coeff = st.sampled_from([1, -1, 2, 5])
                    degs = [tuple(x + (i == m) for i, x in enumerate(c)) for m in (k, l)]
                else:
                    coeff, degs = st.sampled_from([0, 1, -1, 2, 5]), [c]
                for b in degs:
                    vec = {i: field.from_int(draw(coeff)) for i in rows}
                    cols.append((b, {i: v for i, v in vec.items() if v}))
            mat = GradedMatrix(
                ring,
                row_shifts,
                [b for b, _ in cols],
                [ModuleElement(ring, nrows, {(i, exp_sub(b, row_shifts[i])): c for i, c in vec.items()}) for b, vec in cols],
            )
            lo = tuple(draw(st.integers(-1, 1)) for _ in range(n))
            hi = tuple(x + draw(st.integers(1, 4)) for x in lo)
            return mat, lo, hi

        return draw_case()

    @staticmethod
    def dense_block(mat, a):
        """The degree-a piece of mat as dense rows over its degree-a columns."""
        one, zero = mat.ring.field.one, mat.ring.field.zero
        block = []
        for b, col in zip(mat.col_shifts, mat.cols):
            if deg_leq(b, a):
                shifted = col.mul_term(one, exp_sub(a, b))
                block.append([
                    shifted.coeff(i, exp_sub(a, s)) if deg_leq(s, a) else zero
                    for i, s in enumerate(mat.row_shifts)
                ])
        return block

    def test_degree_ranks_match_dense_blocks(self):
        hyp = pytest.importorskip("hypothesis")

        @hyp.settings(max_examples=200)
        @hyp.given(self.matrices(hyp.strategies))
        def prop(case):
            mat, lo, hi = case
            box = list(degrees_in_box(lo, hi))
            assert list(mat.degree_ranks(lo, hi)) == [matrix_rank(self.dense_block(mat, a)) for a in box]

        prop()
