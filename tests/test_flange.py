"""Tests for free-injective matrices and their Groebner-form calculus."""

import hashlib

import pytest

from subquo import flange, graded, groebner, homres, relative
from subquo.elements import QQ, ModuleElement, Ring, parse_element, parse_field
from subquo.errors import ContractViolation, InputError
from subquo.flange import (
    FreeInjectiveMatrix,
    buchberger_flange,
    free_presentation,
    is_groebner_form,
    monomial_division,
)
from subquo.graded import deg_leq, degrees_in_box, matrix_rank, presentation_dimension
from subquo.groebner import normal_form, s_polynomial
from subquo.orders import parse_order

from conftest import fim_big, fim_small, fim_small_completed, fmts, qgrid


@pytest.fixture
def order(ring2):
    return parse_order("grlex X1 X2 ; pot asc", ring2, 1)


class TestFreeInjectiveMatrix:
    def test_shape(self, ring2):
        mat = fim_small(ring2)
        assert (mat.nrows, mat.ncols) == (2, 2)
        assert mat.alpha == ((1, 1), (2, 1))
        assert mat.beta == ((1, 0), (0, 1))

    def test_validation(self, ring2):
        with pytest.raises(InputError):
            FreeInjectiveMatrix(ring2, [(1,)], [(0, 0)], qgrid(QQ, [[1]]))
        with pytest.raises(InputError):
            FreeInjectiveMatrix(ring2, [(1, -1)], [(0, 0)], qgrid(QQ, [[1]]))
        with pytest.raises(InputError):
            FreeInjectiveMatrix(ring2, [(1, 1)], [(0, 0)], qgrid(QQ, [[1, 0]]))

    def test_column_elements(self, ring2):
        mat = fim_small(ring2)
        assert fmts(mat.columns()) == ["X1*e1+X1*e2", "X2*e2"]

    def test_cofree_relations(self, ring2):
        rels = fim_small(ring2).cofree_relations()
        assert [(i, k) for i, k, _ in rels] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert fmts([u for _, _, u in rels]) == [
            "X1^2*e1",
            "X2^2*e1",
            "X1^3*e2",
            "X2^2*e2",
        ]

    def test_equality(self, ring2):
        assert fim_small(ring2) == fim_small(ring2)
        assert fim_small(ring2) != fim_small_completed(ring2)


class TestSupport:
    def test_violations_found(self, ring2):
        bad = FreeInjectiveMatrix(ring2, [(1, 0)], [(0, 1)], qgrid(QQ, [[1]]))
        assert bad.support_violations() == [(0, 0)]

    def test_unsupported_matrix_rejected(self, ring2, order):
        bad = FreeInjectiveMatrix(ring2, [(1, 0)], [(0, 1)], qgrid(QQ, [[1]]))
        with pytest.raises(ContractViolation):
            buchberger_flange(bad, order)
        with pytest.raises(ContractViolation):
            is_groebner_form(bad, order)


class TestGroebnerForm:
    def test_incomplete_matrix_detected(self, ring2, order):
        ok, witness = is_groebner_form(fim_small(ring2), order)
        assert not ok
        assert witness == "S-polynomial of columns 1 and 2"

    def test_completed_matrix_passes(self, ring2, order):
        ok, witness = is_groebner_form(fim_small_completed(ring2), order)
        assert ok
        assert witness is None


class TestBuchbergerFlange:
    def test_small_completion_frozen(self, ring2, order):
        done = buchberger_flange(fim_small(ring2), order)
        assert done == fim_small_completed(ring2)

    def test_big_completion_appends_one_column(self, ring2, order):
        big = fim_big(ring2)
        done = buchberger_flange(big, order)
        assert done.ncols == big.ncols + 1
        assert done.beta == big.beta + ((1, 1),)
        new = [done.entries[i][6] for i in range(6)]
        assert new == [QQ.from_int(v) for v in [0, 0, 0, 1, -1, 0]]
        assert is_groebner_form(done, order) == (True, None)

    def test_input_preserved_as_prefix(self, ring2, order):
        big = fim_big(ring2)
        done = buchberger_flange(big, order)
        assert done.alpha == big.alpha
        assert done.beta[: big.ncols] == big.beta
        for i in range(big.nrows):
            assert done.entries[i][: big.ncols] == big.entries[i]

    def test_zero_column_completes(self, ring2, order):
        mat = FreeInjectiveMatrix(
            ring2, [(1, 1), (2, 1)], [(1, 0), (0, 1), (2, 2)], qgrid(QQ, [[1, 0, 0], [1, 1, 0]])
        )
        done = buchberger_flange(mat, order)
        assert done.beta[: mat.ncols] == mat.beta
        for i in range(mat.nrows):
            assert done.entries[i][: mat.ncols] == mat.entries[i]
        assert is_groebner_form(done, order) == (True, None)


class TestFreePresentation:
    def test_frozen_presentation(self, ring2, order):
        pres = free_presentation(fim_small_completed(ring2), order)
        assert pres.row_shifts == ((1, 0), (0, 1), (1, 1))
        assert pres.col_shifts == (
            (1, 1), (1, 2), (2, 1), (0, 2), (2, 1), (1, 2), (3, 0), (3, 1), (3, 1),
        )
        grid = [
            ["X2", "X2^2", "-X1*X2", "0", "0", "0", "X1^2", "0", "0"],
            ["-X1", "0", "X1^2", "X2", "0", "0", "0", "X1^3", "0"],
            ["-1", "0", "0", "0", "X1", "X2", "0", "0", "X1^2"],
        ]
        got = [
            fmts([pres.entry(i, j) for j in range(pres.ncols)])
            for i in range(pres.nrows)
        ]
        assert got == grid

    def test_requires_groebner_form(self, ring2, order):
        with pytest.raises(ContractViolation) as err:
            free_presentation(fim_small(ring2), order)
        assert "S-polynomial of columns 1 and 2" in str(err.value)

    def test_presentation_is_homogeneous(self, ring2, order):
        assert free_presentation(fim_small_completed(ring2), order).is_homogeneous()


class TestMonomialDivision:
    def test_column_multiple_reduces_to_zero(self, ring2, order):
        done = fim_small_completed(ring2)
        f = done.column(0).mul_term(QQ.one, (0, 1))
        rem, quots = monomial_division(f, done, order)
        assert rem.is_zero
        assert fmts(quots) == ["X2", "0", "0"]

    def test_cofree_relations_absorb(self, ring2, order):
        done = fim_small_completed(ring2)
        f = parse_element("X1^2*X2^2*e1", ring2, 2)
        rem, _ = monomial_division(f, done, order)
        assert rem.is_zero


def _reference_groebner_form(mat, order):
    """Buchberger's criterion on the cofree relations and the columns, by
    general division: every column/column and column/relation S-polynomial
    has zero remainder under monomial_division."""
    order = order.for_rank(mat.nrows)
    cols = [c for c in mat.columns() if not c.is_zero]
    rels = [u for _, _, u in mat.cofree_relations()]
    pairs = [(f, g) for b, g in enumerate(cols) for f in cols[:b]] + [(f, u) for f in cols for u in rels]
    return all(monomial_division(s_polynomial(f, g, order), mat, order)[0].is_zero for f, g in pairs)


class TestScalarColumns:
    def test_flange_layer_against_general_division(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def cases(draw):
            n = draw(st.integers(1, 3))
            ring = Ring(n, parse_field(draw(st.sampled_from(["q", "fp:32003"]))))
            deg = st.tuples(*[st.integers(0, 2)] * n)
            alpha = draw(st.lists(deg, min_size=1, max_size=4))
            beta = draw(st.lists(deg, min_size=1, max_size=4))
            entry = st.integers(-2, 2).map(ring.field.from_int)
            rows = [[draw(entry) if deg_leq(b, a) else ring.field.zero for b in beta] for a in alpha]
            mat = FreeInjectiveMatrix(ring, alpha, beta, rows)
            comps = draw(st.sampled_from(["asc", "desc", "permutation"]))
            if comps == "permutation":
                comps = " ".join(str(c + 1) for c in draw(st.permutations(range(len(alpha)))))
            spec = "%s ; %s %s" % (
                draw(st.sampled_from(["lex", "grlex", "grevlex"])), draw(st.sampled_from(["pot", "top"])), comps
            )
            return mat, parse_order(spec, ring, len(alpha))

        def fixed(n, field, alpha, beta, ints, spec):
            ring = Ring(n, parse_field(field))
            mat = FreeInjectiveMatrix(ring, alpha, beta, qgrid(ring.field, ints))
            return mat, parse_order(spec, ring, len(alpha))

        # Random draws rarely need the pairs of an appended column; these two
        # completions are wrong without its column pairs, or its cofree pairs.
        # The third has a zero column, whose unit relation the presentation needs.
        @hyp.settings(max_examples=60)
        @hyp.example(fixed(1, "fp:32003", [(0,), (2,), (2,)], [(0,), (2,)], [[-1, 0], [-1, -1], [-1, 0]], "grlex ; pot desc"))
        @hyp.example(fixed(2, "q", [(2, 1), (2, 0), (0, 2)], [(0, 0)], [[-1], [2], [-1]], "lex ; pot asc"))
        @hyp.example(fixed(2, "q", [(1, 1)], [(0, 0), (0, 0)], [[1, 0]], "grlex ; pot asc"))
        @hyp.given(cases())
        def check(case):
            mat, order = case
            assert is_groebner_form(mat, order)[0] == _reference_groebner_form(mat, order)
            done = buchberger_flange(mat, order)
            assert done.alpha == mat.alpha and done.beta[: mat.ncols] == mat.beta
            assert all(done.entries[i][: mat.ncols] == mat.entries[i] for i in range(mat.nrows))
            assert is_groebner_form(done, order) == (True, None)
            assert _reference_groebner_form(done, order)
            cols, rels = done.columns(), [u for _, _, u in done.cofree_relations()]
            rorder = order.for_rank(done.nrows)
            pres = free_presentation(done, order)
            for sigma in pres.cols:
                image = ModuleElement.zero(done.ring, done.nrows)
                for (j, e), c in sigma.terms:
                    image = image + cols[j].mul_term(c, e)
                assert normal_form(image, rels, rorder).is_zero
            # the cokernel is the image M of F -> E: in degree a, M_a is the
            # span of the columns with beta_j <= a in the rows with a <= alpha_i
            top = tuple(max(x) + 1 for x in zip(*done.alpha))
            for a in degrees_in_box((0,) * done.ring.n, top):
                block = [[row[j] for j, b in enumerate(done.beta) if deg_leq(b, a)]
                         for i, row in enumerate(done.entries) if deg_leq(a, done.alpha[i])]
                assert presentation_dimension(pres, a) == matrix_rank(block)

        check()

    @pytest.mark.parametrize(
        "spec, counts", [("grlex X1 X2 ; pot asc", (34, 35)), ("grevlex X1 X2 ; pot desc", (13, 13))]
    )
    def test_flange_work_is_pinned(self, ring2, monkeypatch, spec, counts):
        # graded._axpy steps of buchberger_flange, then of free_presentation,
        # on fim_big; under pot asc the completion appends one column. The
        # counts are deterministic, and a change means flange work came or went.
        calls, axpy = [0], graded._axpy

        def counted_axpy(*args):
            calls[0] += 1
            return axpy(*args)

        for module in (graded, homres, flange):  # every module that binds _axpy
            monkeypatch.setattr(module, "_axpy", counted_axpy)
        order = parse_order(spec, ring2, 1)
        done = buchberger_flange(fim_big(ring2), order)
        first = calls[0]
        free_presentation(done, order)
        assert (first, calls[0] - first) == counts

    def test_flange_layer_needs_no_general_division(self, ring2, order, monkeypatch):
        # every flange pair is a scalar column at one degree: no module division
        def never(*args, **kwargs):
            raise AssertionError("general division called")

        monkeypatch.setattr(groebner, "divide", never)
        monkeypatch.setattr(relative, "relative_division", never)
        assert buchberger_flange(fim_small(ring2), order) == fim_small_completed(ring2)
        assert is_groebner_form(fim_small(ring2), order) == (False, "S-polynomial of columns 1 and 2")
        pres = free_presentation(fim_small_completed(ring2), order)
        assert pres.col_shifts == ((1, 1), (1, 2), (2, 1), (0, 2), (2, 1), (1, 2), (3, 0), (3, 1), (3, 1))
        assert [fmts([pres.entry(i, j) for j in range(pres.ncols)]) for i in range(pres.nrows)] == [
            ["X2", "X2^2", "-X1*X2", "0", "0", "0", "X1^2", "0", "0"],
            ["-X1", "0", "X1^2", "X2", "0", "0", "0", "X1^3", "0"],
            ["-1", "0", "0", "0", "X1", "X2", "0", "0", "X1^2"],
        ]
        big = buchberger_flange(fim_big(ring2), order)
        assert big.beta == fim_big(ring2).beta + ((1, 1),)
        assert [big.entries[i][6] for i in range(6)] == [QQ.from_int(v) for v in [0, 0, 0, 1, -1, 0]]
        assert is_groebner_form(big, order) == (True, None)
        pres = free_presentation(big, order)  # frozen digest of its shifts and entries
        grid = [fmts([pres.entry(i, j) for j in range(pres.ncols)]) for i in range(pres.nrows)]
        assert (pres.ncols, hashlib.sha256(repr((pres.col_shifts, grid)).encode()).hexdigest()[:16]) == (39, "509bf17fc60a3704")
