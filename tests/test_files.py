"""Tests for the plain-text module, complex, resolution, matrix and diagram files."""

import pytest

import subquo.files
from subquo.elements import QQ, ModuleElement, Ring, parse_element, parse_field
from subquo.errors import InputError
from subquo.files import (
    emit_fim_file,
    emit_matrix_file,
    emit_module_file,
    emit_module_pair_file,
    emit_resolution_file,
    parse_complex_file,
    parse_diagram_file,
    parse_fim_file,
    parse_module_file,
    parse_resolution_file,
)
from subquo.flange import FreeInjectiveMatrix
from subquo.graded import GradedMatrix
from subquo.homres import Resolution, free_resolution, prune_minimize
from subquo.orders import format_order, parse_order

from conftest import (
    R2_U,
    R2_V,
    cube_resolution,
    els,
    fim_small,
    middle_complex,
    staircase_diagram,
)

MODULE_TEXT = """\
# staircase generators
n: 2
vars: X1 X2
field: q
rank: 2
order: grevlex X1 X2 ; pot desc

elements:
X1*e1
X2*e2
"""

COMPLEX_TEXT = """\
n: 2
vars: X1 X2
field: q
order: grevlex X1 X2 ; pot desc
D1:
rows: (0,0) (0,0) (0,0) (0,0)
cols: (0,0) (0,0) (1,0) (0,1) (1,0) (0,1)
-1 -1 0 0 0 0
1 0 -X1 -X2 -X1 0
0 0 X1 X2 0 -X2
0 1 0 0 X1 X2
P:
rows: (0,0) (0,0) (0,0) (1,0) (0,1)
cols: (0,0) (0,0) (1,0) (0,1) (1,0) (0,1)
1 0 0 0 0 0
0 1 0 0 0 0
0 0 X1 X2 0 0
0 0 0 0 1 0
0 0 0 0 0 1
D2:
rows: (0,0) (0,0) (0,0) (1,0) (0,1)
cols: (2,1)
0
0
X1^2*X2
-X1*X2
X1^2
"""

DIAGRAM_TEXT = """\
n: 2
vars: X1 X2
field: q
box: (2,1)
dim (1,0): 1
dim (2,0): 1
dim (0,1): 1
dim (1,1): 2
dim (2,1): 1
map 1 (1,0): 1
map 1 (0,1): 0 ; 1
map 1 (1,1): 1 1
map 2 (1,0): 1 ; 0
map 2 (2,0): 1
"""


def staircase_resolution(ring2):
    order = parse_order("grevlex X1 X2 ; pot desc", ring2, 1)
    return prune_minimize(
        free_resolution(els(ring2, 2, R2_V), els(ring2, 2, R2_U), order)
    )


class TestModuleFile:
    def test_parse(self, ring2):
        ring, rank, order, elements, shifts = parse_module_file(MODULE_TEXT)
        assert (ring.n, ring.names, rank) == (2, ("X1", "X2"), 2)
        assert elements == els(ring2, 2, R2_V)
        assert shifts == [(0, 0), (0, 0)]
        assert format_order(order, ring) == "grevlex X1 X2 ; pot desc"

    def test_round_trip(self, ring2):
        order = parse_order("grevlex X1 X2 ; pot desc", ring2, 2)
        elements = els(ring2, 2, R2_V)
        text = emit_module_file(
            ring2, 2, elements, order=order, shifts=[(1, 0), (0, 1)]
        )
        ring, rank, order2, back, shifts = parse_module_file(text)
        assert back == elements
        assert shifts == [(1, 0), (0, 1)]
        assert format_order(order2, ring) == format_order(order, ring2)

    def test_empty_basis_emits_zero(self, ring2):
        text = emit_module_file(ring2, 1, [])
        assert text.splitlines()[-1] == "0"
        _, _, _, back, _ = parse_module_file(text)
        assert all(e.is_zero for e in back)

    def test_rank_inferred_and_padded(self):
        text = "n: 2\nvars: X1 X2\nelements:\nX1*e1\ne3\n"
        _, rank, _, back, _ = parse_module_file(text)
        assert rank == 3
        assert all(e.rank == 3 for e in back)

    def test_order_and_field_overrides(self):
        ring, _, order, back, _ = parse_module_file(
            MODULE_TEXT, order_text="lex X2 X1 ; top", field_text="fp:5"
        )
        assert ring.field.name == "fp:5"
        assert format_order(order, ring) == "lex X2 X1 ; top desc"
        assert back[0].leading(order)[1] == ring.field.one

    def test_header_errors(self):
        with pytest.raises(InputError):
            parse_module_file("vars: X\nelements:\n")
        with pytest.raises(InputError):
            parse_module_file("n: 1\nn: 2\nelements:\n")
        with pytest.raises(InputError):
            parse_module_file("n: two\nelements:\n")
        with pytest.raises(InputError):
            parse_module_file("n: 1\nrank: x\nelements:\n")
        with pytest.raises(InputError):
            parse_module_file("n: 1\nrank: 2\nambient: (0)\nelements:\n")

    def test_missing_elements_section(self):
        with pytest.raises(InputError):
            parse_module_file("n: 1\nvars: X\n")

    def test_bad_element_reported(self):
        with pytest.raises(InputError):
            parse_module_file("n: 1\nvars: X\nelements:\nX**2\n")


class TestComplexFile:
    def test_parse_matches_fixture(self, ring2):
        ring, order, d1, p, d2 = parse_complex_file(COMPLEX_TEXT)
        want_d1, want_p, want_d2, _ = middle_complex(ring2)
        assert d1 == want_d1
        assert p == want_p
        assert d2 == want_d2

    def test_trailing_content_rejected(self):
        with pytest.raises(InputError):
            parse_complex_file(COMPLEX_TEXT + "stray\n")

    def test_missing_block_rejected(self):
        head = COMPLEX_TEXT.split("D2:")[0]
        with pytest.raises(InputError):
            parse_complex_file(head)

    def test_row_width_checked(self):
        bad = COMPLEX_TEXT.replace("1 0 0 0 0 0", "1 0 0 0 0", 1)
        with pytest.raises(InputError):
            parse_complex_file(bad)


class TestResolutionFile:
    def test_round_trip(self, ring2):
        res = staircase_resolution(ring2)
        back = parse_resolution_file(emit_resolution_file(res))
        assert back.gens == res.gens
        assert back.u_gens == res.u_gens
        assert back.diffs == res.diffs
        assert back.ambient_shifts == res.ambient_shifts
        assert back.minimized == res.minimized

    def test_dense_round_trip_fp(self):
        # non-minimal m/m^3: a dense grid of zeros, constants and monomials
        res = cube_resolution(parse_field("fp:32003"))
        text = emit_resolution_file(res)
        back = parse_resolution_file(text)
        assert emit_resolution_file(back) == text
        assert back.gens == res.gens
        assert back.diffs == res.diffs

    def test_missing_ambient_rejected(self, ring2):
        text = emit_resolution_file(staircase_resolution(ring2))
        bad = "\n".join(
            l for l in text.splitlines() if not l.startswith("ambient:")
        )
        with pytest.raises(InputError):
            parse_resolution_file(bad)

    def test_shift_chain_checked(self, ring2):
        text = emit_resolution_file(staircase_resolution(ring2))
        bad = text.replace("rows: (3,0) (2,1) (1,2) (0,2)", "rows: (3,0) (2,1) (1,2) (9,9)")
        with pytest.raises(InputError):
            parse_resolution_file(bad)


class TestResolutionFileProperties:
    def test_random_files_round_trip(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def resolutions(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            n, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            ring = Ring(n, field, ("X", "Y", "Z")[:n])
            exp = st.tuples(*[st.integers(0, 2)] * n)
            shift = st.tuples(*[st.integers(-1, 2)] * n)
            coeff = st.builds(field.from_fraction, st.integers(-3, 3), st.integers(1, 3)).filter(bool)
            ambient = draw(st.lists(shift, min_size=rank, max_size=rank))
            # generators of V are nonzero and homogeneous, and their degrees
            # are D0's column shifts
            gens, rows = [], []
            for comp, e in draw(st.lists(st.tuples(st.integers(0, rank - 1), exp), max_size=3)):
                deg = tuple(x + a for x, a in zip(e, ambient[comp]))
                terms = {(comp, e): draw(coeff)}
                for c, a in enumerate(ambient):
                    rest = tuple(d - x for d, x in zip(deg, a))
                    if c != comp and min(rest) >= 0 and draw(st.booleans()):
                        terms[(c, rest)] = draw(coeff)
                gens.append(ModuleElement(ring, rank, terms))
                rows.append(deg)
            elem = st.dictionaries(st.tuples(st.integers(0, rank - 1), exp), coeff, max_size=3)
            u_gens = [ModuleElement(ring, rank, terms) for terms in draw(st.lists(elem, max_size=2))]
            # later columns may be zero or inhomogeneous, their entries
            # multi-term, and a block may have no columns at all
            diffs = []
            for _ in range(draw(st.integers(0, 3))):
                cols = draw(st.lists(shift, max_size=3))
                cell = st.tuples(st.integers(0, max(len(rows) - 1, 0)), exp)
                col = st.dictionaries(cell, coeff, max_size=4 if rows else 0)
                entries = draw(st.lists(col, min_size=len(cols), max_size=len(cols)))
                diffs.append(GradedMatrix(ring, rows, cols, [ModuleElement(ring, len(rows), d) for d in entries]))
                rows = cols
            base = draw(st.sampled_from(["grevlex", "lex", "grlex"]))
            position = draw(st.sampled_from(["pot desc", "top asc"]))
            order = parse_order("%s %s ; %s" % (base, " ".join(ring.names), position), ring, rank)
            return Resolution(ring, order, ambient, u_gens, gens, diffs, draw(st.booleans()))

        @hyp.settings(max_examples=120)
        @hyp.given(resolutions())
        def check(res):
            text = emit_resolution_file(res)
            back = parse_resolution_file(text)
            assert emit_resolution_file(back) == text
            assert back.order == res.order
            assert (back.ring, back.ambient_shifts, back.minimized) == (res.ring, res.ambient_shifts, res.minimized)
            assert (back.u_gens, back.gens, back.diffs) == (res.u_gens, res.gens, res.diffs)

        check()


class TestMatrixBlockErrors:
    # D1 over k[X] with three rows of two entries, then empty P and D2
    TEXT = "n: 1\nvars: X\nD1:\nrows: (0) (0) (0)\ncols: (0) (0)\n%s\n%s\n%s\nP:\nrows:\ncols:\nD2:\nrows:\ncols:\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a bad entry in an earlier row than a width error
            (("X X**2", "1 0 1", "0 1"), "parse error at position 2: expected a variable or basis factor"),
            (("0 e3", "1 0 1", "0 X**2"), "basis index e3 exceeds rank 1"),
            # a width error in an earlier row than any bad entry
            (("1 1", "Q 0 1", "X**2 0"), "matrix D1 row has 3 entries, expected 2"),
            # the first bad entry raises, wherever another one repeats
            (("X**2 e3", "1 0", "e3 X**2"), "parse error at position 2: expected a variable or basis factor"),
            (("e3 X", "1 X**2", "X**2 e3"), "basis index e3 exceeds rank 1"),
            (("0 Q", "1 e3", "Q 1"), "parse error at position 0: unknown variable 'Q'"),
        ],
    )
    def test_first_error_in_reading_order(self, rows, message):
        with pytest.raises(InputError) as err:
            parse_complex_file(self.TEXT % rows)
        assert str(err.value) == message

    def test_each_distinct_entry_parsed_once_per_block(self, monkeypatch):
        text = emit_resolution_file(cube_resolution(QQ))
        lines = text.splitlines()
        bound = lines.index("D0:") - lines.index("U:") - 1
        block = set()
        for line in lines[lines.index("D0:"):]:
            if line.startswith("D") and line.endswith(":"):
                bound += len(block)
                block = set()
            elif not line.startswith(("rows:", "cols:")):
                block.update(t for t in line.split() if t != "0")
        bound += len(block)
        calls = []
        parse = subquo.files.parse_element

        def counted(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(subquo.files, "parse_element", counted)
        back = parse_resolution_file(text)
        assert emit_resolution_file(back) == text
        assert len(calls) <= bound


class TestFimFile:
    def test_round_trip_with_fractions(self, ring2):
        order = parse_order("grlex X1 X2 ; pot asc", ring2, 1)
        base = fim_small(ring2)
        mat = FreeInjectiveMatrix(
            ring2,
            base.alpha,
            base.beta,
            [[QQ.from_fraction(1, 2), QQ.zero], [QQ.from_int(-2), QQ.one]],
        )
        text = emit_fim_file(mat, order=order)
        back, order2 = parse_fim_file(text)
        assert back == mat
        assert format_order(order2, ring2) == format_order(order, ring2)

    def test_bad_scalar_rejected(self, ring2):
        text = emit_fim_file(fim_small(ring2)).replace("1 0", "X 0", 1)
        with pytest.raises(InputError):
            parse_fim_file(text)

    def test_missing_degree_headers(self):
        with pytest.raises(InputError):
            parse_fim_file("n: 2\nvars: X1 X2\nrows:\n")

    def test_trailing_content_rejected(self, ring2):
        with pytest.raises(InputError):
            parse_fim_file(emit_fim_file(fim_small(ring2)) + "stray\n")


class TestMatrixFile:
    def test_emit_block(self, ring2):
        res = staircase_resolution(ring2)
        lines = emit_matrix_file(ring2, res.diffs[0]).splitlines()
        assert "D1:" in lines
        assert lines[lines.index("D1:") + 1].startswith("rows: ")
        assert "X1^2 X1*X2 X2^2 0" in lines


class TestDiagramFile:
    def test_parse_matches_fixture(self, ring2):
        diag = parse_diagram_file(DIAGRAM_TEXT)
        want = staircase_diagram(ring2)
        assert diag.dims == want.dims
        assert diag.maps == want.maps

    def test_box_bound_checked(self):
        bad = DIAGRAM_TEXT.replace("box: (2,1)", "box: (1,1)")
        with pytest.raises(InputError):
            parse_diagram_file(bad)

    def test_bad_variable_index(self):
        bad = DIAGRAM_TEXT.replace("map 1 (1,0):", "map 3 (1,0):")
        with pytest.raises(InputError):
            parse_diagram_file(bad)

    def test_unrecognized_line(self):
        with pytest.raises(InputError):
            parse_diagram_file("n: 2\nvars: X1 X2\nwhat (1,0): 1\n")

    def test_field_override(self):
        diag = parse_diagram_file(DIAGRAM_TEXT, field_text="fp:7")
        assert diag.ring.field.name == "fp:7"


class TestModulePairFile:
    def test_sections_present(self, ring2):
        order = parse_order("grevlex X1 X2 ; pot desc", ring2, 2)
        text = emit_module_pair_file(
            ring2, 2, els(ring2, 2, R2_V), els(ring2, 2, R2_U[:1]), order
        )
        lines = text.splitlines()
        assert "V:" in lines and "U:" in lines
        assert lines[lines.index("V:") + 1] == "X1*e1"
        assert lines[lines.index("U:") + 1] == "X1^3*e1"


class TestScalarEntries:
    @pytest.mark.parametrize("entry", ["3/", "-3/"])
    def test_missing_denominator_rejected(self, entry, ring2):
        text = emit_fim_file(fim_small(ring2)).replace("1 0", entry + " 0", 1)
        with pytest.raises(InputError, match="bad scalar entry '%s'" % entry):
            parse_fim_file(text)
