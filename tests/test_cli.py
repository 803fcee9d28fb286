"""End-to-end tests for the subquo command line."""

import ast
import importlib
import io
import itertools
import os
import re
import subprocess
import sys

import pytest

from subquo import QQ, GradedMatrix, ModuleElement, Ring, free_resolution, homres, parse_order
from subquo.cli import main
from subquo.files import emit_resolution_file
from subquo.homres import Resolution

from conftest import cube_resolution, els

U5_MOD = """\
n: 2
vars: X Y
field: q
rank: 1
order: grevlex X Y ; pot desc
elements:
X^5*e1
X^4*Y*e1
X^3*Y^2*e1
X^2*Y^3*e1
X*Y^4*e1
Y^5*e1
"""

V5_MOD = """\
n: 2
vars: X Y
field: q
rank: 1
order: grevlex X Y ; pot desc
elements:
Y^3*e1
X*Y^2*e1+X^3*e1
"""

G3_MOD = """\
n: 3
vars: X Y Z
field: q
rank: 1
order: grevlex X Y Z ; pot desc
elements:
X*Y*e1
Y*Z*e1
X*Z*e1
"""

NOT_GB_MOD = """\
n: 2
vars: X Y
field: q
rank: 1
order: grevlex X Y ; pot desc
elements:
Y^2*e1
X*Y*e1+X^2*e1
"""

U2_MOD = """\
n: 2
vars: X1 X2
field: q
rank: 2
order: grevlex X1 X2 ; pot desc
elements:
X1^3*e1
X1^2*X2*e1-X1^2*X2*e2
X2^2*e2
X1*X2^2*e1
X1^3*X2*e2
"""

V2_MOD = """\
n: 2
vars: X1 X2
field: q
rank: 2
order: grevlex X1 X2 ; pot desc
elements:
X1*e1
X2*e2
"""

ATILDE_FIM = """\
n: 2
vars: X1 X2
field: q
order: grlex X1 X2 ; pot asc
cogens: (1,1) (2,1)
gens: (1,0) (0,1)
rows:
1 0
1 1
"""

ATILDE_DONE_FIM = """\
n: 2
vars: X1 X2
field: q
order: grlex X1 X2 ; pot asc
cogens: (1,1) (2,1)
gens: (1,0) (0,1) (1,1)
rows:
1 0 1
1 1 0
"""

M_DIAG = """\
n: 2
vars: X1 X2
field: q
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

C42_CPX = """\
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

RELGB5_OUT = """\
n: 2
vars: X Y
field: q
rank: 1
order: grevlex X Y ; pot desc
elements:
X*Y^2+X^3
Y^3
X^3*Y
"""

GB5_OUT = """\
n: 2
vars: X Y
field: q
rank: 1
order: grevlex X Y ; pot desc
elements:
X^5
X^4*Y
X^3*Y^2
X^2*Y^3
X*Y^4
Y^5
"""

SYZ3_OUT = """\
n: 3
vars: X Y Z
field: q
rank: 3
elements:
Z*e1-X*e2
Z*e1-Y*e3
X*e2-Y*e3
"""

RES2_OUT = """\
n: 2
vars: X1 X2
field: q
order: grevlex X1 X2 ; pot desc
ambient: (0,0) (0,0)
minimized: false
U:
X1^3*e1
X1^2*X2*e1-X1^2*X2*e2
X1*X2^2*e1
X2^2*e2
X1^3*X2*e2
D0:
rows: (0,0) (0,0)
cols: (1,0) (0,1)
X1 0
0 X2
D1:
rows: (1,0) (0,1)
cols: (3,0) (2,1) (1,2) (0,2) (3,1)
X1^2 X1*X2 X2^2 0 0
0 -X1^2 0 X2 X1^3
D2:
rows: (3,0) (2,1) (1,2) (0,2) (3,1)
cols: (3,1) (2,2) (3,2)
X2 0 0
-X1 X2 0
0 -X1 0
0 X1^2 X1^3
-1 0 -X2
"""

MIN2_OUT = """\
n: 2
vars: X1 X2
field: q
order: grevlex X1 X2 ; pot desc
ambient: (0,0) (0,0)
minimized: true
U:
X1^3*e1
X1^2*X2*e1-X1^2*X2*e2
X1*X2^2*e1
X2^2*e2
X1^3*X2*e2
D0:
rows: (0,0) (0,0)
cols: (1,0) (0,1)
X1 0
0 X2
D1:
rows: (1,0) (0,1)
cols: (3,0) (2,1) (1,2) (0,2)
X1^2 X1*X2 X2^2 0
0 -X1^2 0 X2
D2:
rows: (3,0) (2,1) (1,2) (0,2)
cols: (2,2) (3,2)
0 X2^2
X2 -X1*X2
-X1 0
X1^2 -X1^3
"""

FPRES_OUT = """\
n: 2
vars: X1 X2
field: q
order: grlex X1 X2 ; pot asc
D1:
rows: (1,0) (0,1) (1,1)
cols: (1,1) (1,2) (2,1) (0,2) (2,1) (1,2) (3,0) (3,1) (3,1)
X2 X2^2 -X1*X2 0 0 0 X1^2 0 0
-X1 0 X1^2 X2 0 0 0 X1^3 0
-1 0 0 0 X1 X2 0 0 X1^2
"""

DIAG_OUT = """\
n: 2
vars: X1 X2
field: q
rank: 2
V:
X1*e1
X2*e2
U:
X1^3*e1
X1^2*X2*e1-X1^2*X2*e2
X1*X2^2*e1
X2^2*e2
X1^3*X2*e2
"""

# Conjugated monomial diagrams (every fiber in a random basis) and their
# realizations. Their generators sit in different degrees, so they pin the
# numbering by (total degree, reversed degree, coordinate).
CONJ_Q2_DIAG = """\
n: 2
vars: X Y
field: q
dim (0,0): 2
dim (1,0): 2
dim (0,1): 3
dim (1,1): 1
map 1 (0,0): 2 -1 ; -3 2
map 1 (0,1): 1 -6 -2
map 2 (0,0): -2 3 ; 0 0 ; -1 1
map 2 (1,0): 3 2
"""

CONJ_Q2_OUT = """\
n: 2
vars: X Y
field: q
rank: 3
V:
e1
e2
Y*e3
U:
X^2*e1
X*Y*e1
Y^2*e1
X^2*e2
X*Y*e2+1/6*X*Y*e3
Y^2*e2
Y^2*e3
X^2*Y*e3
"""

CONJ_Q3_DIAG = """\
n: 3
vars: X Y Z
field: q
dim (0,2,0): 2
dim (1,2,0): 1
dim (0,2,1): 1
dim (1,2,1): 1
map 1 (0,2,0): 2 1
map 1 (0,2,1): 1
map 3 (0,2,0): 2 1
map 3 (1,2,0): 1
"""

CONJ_Q3_OUT = """\
n: 3
vars: X Y Z
field: q
rank: 2
V:
Y^2*e1
Y^2*e2
U:
X*Y^2*e1-2*X*Y^2*e2
Y^3*e1
Y^2*Z*e1-2*Y^2*Z*e2
Y^3*e2
X^2*Y^2*e2
Y^2*Z^2*e2
"""

CONJ_FP2_DIAG = """\
n: 2
vars: X Y
field: fp:32003
dim (0,1): 1
dim (2,0): 3
dim (1,1): 1
dim (3,0): 1
dim (2,1): 3
dim (3,1): 1
map 1 (0,1): 1
map 1 (2,0): 32002 0 2
map 1 (1,1): 2 ; 3 ; 4
map 1 (2,1): 4 31999 1
map 2 (2,0): 1 32000 32000 ; 2 31999 31998 ; 3 31999 31997
map 2 (3,0): 1
"""

CONJ_FP2_OUT = """\
n: 2
vars: X Y
field: fp:32003
rank: 4
V:
Y*e1
X^2*e2
X^2*e3
X^2*e4
U:
Y^2*e1
X^2*Y*e1+32001*X^2*Y*e2+X^2*Y*e3+32002*X^2*Y*e4
X^3*e2+16002*X^3*e4
X^2*Y^2*e2
X^3*e3
X^2*Y^2*e3
X^4*e4
X^2*Y^2*e4
"""

CONJ_FP3_DIAG = """\
n: 3
vars: X Y Z
field: fp:32003
dim (2,0,0): 1
dim (0,1,1): 2
dim (2,1,0): 1
dim (2,0,1): 1
dim (1,1,1): 1
dim (0,2,1): 1
dim (2,1,1): 1
map 1 (0,1,1): 32001 1
map 1 (1,1,1): 1
map 2 (2,0,0): 1
map 2 (0,1,1): 32001 1
map 2 (2,0,1): 1
map 3 (2,0,0): 1
map 3 (2,1,0): 1
"""

CONJ_FP3_OUT = """\
n: 3
vars: X Y Z
field: fp:32003
rank: 3
V:
X^2*e1
Y*Z*e2
Y*Z*e3
U:
X^3*e1
X^2*Y^2*e1
X^2*Y*Z*e1+32002*X^2*Y*Z*e3
X^2*Z^2*e1
X*Y*Z*e2+2*X*Y*Z*e3
Y^2*Z*e2+2*Y^2*Z*e3
Y*Z^2*e2
Y*Z^2*e3
X*Y^2*Z*e3
Y^3*Z*e3
X^3*Y*Z*e3
"""

# The middle fiber (0,1) of the path Y then X is zero, so that composite is
# the zero map, as is X then Y.
ZERO_FIBER_DIAG = """\
n: 2
vars: X Y
field: q
dim (0,0): 1
dim (1,0): 1
dim (1,1): 1
map 1 (0,0): 1
map 2 (1,0): 0
"""

ZERO_FIBER_OUT = """\
n: 2
vars: X Y
field: q
rank: 2
V:
e1
X*Y*e2
U:
Y*e1
X^2*e1
X^2*Y*e2
X*Y^2*e2
"""

HOM_OUT = """\
n: 2
vars: X1 X2
field: q
order: grevlex X1 X2 ; pot desc
ambient: (0,0) (0,0) (0,0) (1,0) (0,1)
minimized: false
U:
X1^2*X2*e3-X1*X2*e4+X1^2*e5
D0:
rows: (0,0) (0,0) (0,0) (1,0) (0,1)
cols: (1,0) (0,1) (1,1)
X1 X2 0
-X1 -X2 0
0 X2 X1*X2
1 0 -X2
0 1 X1
D1:
rows: (1,0) (0,1) (1,1)
cols: (1,1) (2,1)
X2 0
-X1 0
1 X1
"""

HOMMIN_OUT = """\
n: 2
vars: X1 X2
field: q
order: grevlex X1 X2 ; pot desc
ambient: (0,0) (0,0) (0,0) (1,0) (0,1)
minimized: true
U:
X1^2*X2*e3-X1*X2*e4+X1^2*e5
D0:
rows: (0,0) (0,0) (0,0) (1,0) (0,1)
cols: (1,0) (0,1)
X1 X2
-X1 -X2
0 X2
1 0
0 1
D1:
rows: (1,0) (0,1)
cols: (2,1)
X1*X2
-X1^2
"""

# Not a resolution (verify rejects it), but D1 has a zero column that the
# lead normalization of minimize must pass over.
ZERO_COL_RES = """\
n: 1
vars: X
field: q
order: grevlex X ; pot desc
ambient: (0)
minimized: false
U:
D0:
rows: (0)
cols: (0)
1
D1:
rows: (0)
cols: (1) (1)
X 0
D2:
rows: (1) (1)
cols: (2)
0
X
"""


# The resolution of R^3/U with U = (X*e1+X*e2, Y*e1+Y*e3), whose U section
# holds only those two generators, of incomparable degrees (1,0) and (0,1).
# The generators after D1's third column give X*Y*e2-X*Y*e3 = Y*u1 - X*u2,
# which lies in U only through the S-vector of u1 and u2 at (1,1).
SVEC_RES = """\
n: 2
vars: X Y
field: q
order: grevlex X Y ; pot desc
ambient: (0,0) (0,0) (0,0)
minimized: false
U:
X*e1+X*e2
Y*e1+Y*e3
D0:
rows: (0,0) (0,0) (0,0)
cols: (0,0) (0,0) (0,0)
1 0 0
0 1 0
0 0 1
D1:
rows: (0,0) (0,0) (0,0)
cols: (1,0) (0,1) (1,1)
X Y 0
X 0 X*Y
0 Y -X*Y
D2:
rows: (1,0) (0,1) (1,1)
cols: (1,1)
Y
-X
-1
"""

# D1 is not homogeneous: X+X^2 mixes degrees, and the constant 1 sits in a
# column of degree (1), so cancelling on it would drop both generators.
INHOMOGENEOUS_RES = """\
n: 1
vars: X
field: q
order: grevlex X ; pot desc
ambient: (0) (0)
minimized: false
U:
D0:
rows: (0) (0)
cols: (0) (0)
1 0
0 1
D1:
rows: (0) (0)
cols: (0) (1)
1 X
X+X^2 1
"""


def drop_column(res, level, j):
    """res without column j of differential `level`, nor any later column
    that uses a dropped one, so the differentials still compose to zero and
    verify reaches its per-degree checks."""
    diffs = list(res.diffs[: level - 1])
    gone_rows, gone_cols = set(), {j}
    for d in res.diffs[level - 1 :]:
        keep = [
            k
            for k, col in enumerate(d.cols)
            if k not in gone_cols and not any(r in gone_rows for (r, _), _ in col.terms)
        ]
        rows = [r for r in range(d.nrows) if r not in gone_rows]
        pos = {r: i for i, r in enumerate(rows)}
        cols = [
            ModuleElement(d.ring, len(rows), {(pos[r], e): c for (r, e), c in d.cols[k].terms})
            for k in keep
        ]
        diffs.append(
            GradedMatrix(d.ring, [d.row_shifts[r] for r in rows], [d.col_shifts[k] for k in keep], cols)
        )
        gone_rows, gone_cols = set(range(d.ncols)) - set(keep), set()
    return Resolution(res.ring, res.order, res.ambient_shifts, res.u_gens, res.gens, diffs)


def negate_entry(res, level, i, j):
    """res with the entry at row i, column j of differential `level` negated."""
    diffs = list(res.diffs)
    d = diffs[level - 1]
    cols = list(d.cols)
    cols[j] = ModuleElement(d.ring, d.nrows, {(r, e): -c if r == i else c for (r, e), c in cols[j].terms})
    diffs[level - 1] = GradedMatrix(d.ring, d.row_shifts, d.col_shifts, cols)
    return Resolution(res.ring, res.order, res.ambient_shifts, res.u_gens, res.gens, diffs)


def line_resolution():
    """Resolution of <e1, e2> over <X^3 e1, X^2 e1 - X^2 e2> in k[X]."""
    ring = Ring(1, QQ, ("X",))
    order = parse_order("grevlex X ; pot desc", ring, 2)
    return free_resolution(
        els(ring, 2, ["e1", "e2"]), els(ring, 2, ["X^3*e1", "X^2*e1-X^2*e2"]), order
    )


# verify's exact reports (exit code 2) on those mutants, over the default
# box and over boxes whose low corner is not the origin.
CUBE_D2_BAD_REPORT = """\
degree ((1, 1, 1),): level 1 kernel has dimension 3, level 2 image 2
degree ((1, 2, 2),): level 2 kernel has dimension 7, level 3 image 6
degree ((1, 3, 2),): level 2 kernel has dimension 11, level 3 image 10
degree ((1, 4, 2),): level 2 kernel has dimension 11, level 3 image 10
degree ((1, 2, 3),): level 2 kernel has dimension 11, level 3 image 10
degree ((1, 3, 3),): level 2 kernel has dimension 16, level 3 image 15
degree ((1, 4, 3),): level 2 kernel has dimension 16, level 3 image 15
degree ((1, 2, 4),): level 2 kernel has dimension 11, level 3 image 10
degree ((1, 3, 4),): level 2 kernel has dimension 16, level 3 image 15
degree ((1, 4, 4),): level 2 kernel has dimension 16, level 3 image 15
"""
CUBE_D2_BAD_BOX = "(-1,1,1)..(2,3,2)"
CUBE_D2_BAD_BOX_REPORT = """\
degree ((1, 1, 1),): level 1 kernel has dimension 3, level 2 image 2
degree ((1, 2, 2),): level 2 kernel has dimension 7, level 3 image 6
degree ((1, 3, 2),): level 2 kernel has dimension 11, level 3 image 10
"""
LINE_D1_BAD_REPORT = """\
degree ((2,),): presentation gives dimension 2, module has 1
degree ((3,),): presentation gives dimension 1, module has 0
degree ((4,),): presentation gives dimension 1, module has 0
"""
LINE_D1_BAD_BOX = "(1)..(5)"
LINE_D1_BAD_BOX_REPORT = LINE_D1_BAD_REPORT + """\
degree ((5,),): presentation gives dimension 1, module has 0
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    named = {
        "u5.mod": U5_MOD,
        "v5.mod": V5_MOD,
        "g3.mod": G3_MOD,
        "notgb.mod": NOT_GB_MOD,
        "u2.mod": U2_MOD,
        "v2.mod": V2_MOD,
        "atilde.fim": ATILDE_FIM,
        "done.fim": ATILDE_DONE_FIM,
        "m.diag": M_DIAG,
        "c42.cpx": C42_CPX,
        "res2.res": RES2_OUT,
        "min2.res": MIN2_OUT,
        "bad.mod": "n: 2\nvars: X Y\nelements:\nX**2\n",
    }
    paths = {}
    for name, text in named.items():
        p = base / name
        p.write_text(text)
        paths[name] = str(p)
    paths["_dir"] = str(base)
    return paths


def run_cli(monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", ["subquo"] + list(args))
    code = 0
    try:
        main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


class TestBases:
    def test_gb(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "gb", files["u5.mod"])
        assert (code, out) == (0, GB5_OUT)

    def test_relgb(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "relgb", files["u5.mod"], files["v5.mod"]
        )
        assert (code, out) == (0, RELGB5_OUT)

    def test_syz(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "syz", files["g3.mod"])
        assert (code, out) == (0, SYZ3_OUT)

    def test_syz_rejects_non_basis(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "syz", files["notgb.mod"])
        assert code == 2
        assert "not a Groebner basis" in err

    def test_relsyz_rejects_non_basis(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "relsyz", files["u5.mod"], files["v5.mod"]
        )
        assert code == 2
        assert "not a relative Groebner basis" in err

    # Rank 2 over k[X, Y]: the S-pairs (2, 4) and (3, 4) in e2 and (1, 5)
    # in e1 fail. Pairs are taken by j, then i, so (2, 4) is named: not the
    # (1, 5) of a walk by i or by component, nor the (3, 4) of a walk with i
    # descending.
    NON_BASIS_2 = [
        "X*Y^2*e1+X*e1", "X^2*Y*e2+Y^2*e2", "Y^2*e2", "Y^3*e2+X^2*e2", "Y^2*e1",
    ]

    @staticmethod
    def _module(tmp_path, name, elements, rank=1):
        path = tmp_path / name
        path.write_text(
            "n: 2\nvars: X Y\nfield: q\nrank: %d\norder: grevlex X Y ; pot desc\nelements:\n%s\n"
            % (rank, "\n".join(elements))
        )
        return str(path)

    def test_syz_names_first_failing_pair(self, tmp_path, monkeypatch, capsys):
        g = self._module(tmp_path, "g.mod", self.NON_BASIS_2, rank=2)
        code, out, err = run_cli(monkeypatch, capsys, "syz", g)
        assert (code, out) == (2, "")
        assert err == (
            "Error: input is not a Groebner basis: S-polynomial of elements 2 and 4 "
            "does not reduce to zero\n"
        )

    def test_relsyz_names_first_failing_pair(self, tmp_path, monkeypatch, capsys):
        u = self._module(tmp_path, "u.mod", ["X^6*e1", "X^6*e2"], rank=2)
        h = self._module(tmp_path, "h.mod", self.NON_BASIS_2, rank=2)
        code, out, err = run_cli(monkeypatch, capsys, "relsyz", u, h)
        assert (code, out) == (2, "")
        assert err == (
            "Error: input is not a relative Groebner basis: S-polynomial of elements 2 and 4 "
            "does not reduce to zero\n"
        )

    def test_relsyz_rejects_reducible_element(self, tmp_path, monkeypatch, capsys):
        # X^3 + Y has its lead X^3 in U = (X^2): H is not reduced modulo U
        u = self._module(tmp_path, "u.mod", ["X^2"])
        h = self._module(tmp_path, "h.mod", ["X^3+Y", "Y^2"])
        assert run_cli(monkeypatch, capsys, "relsyz", u, h) == (
            2,
            "",
            "Error: input is not a relative Groebner basis: element 1 is zero or reducible "
            "modulo the inner submodule\n",
        )

    def test_syz_of_empty_module(self, tmp_path, monkeypatch, capsys):
        # README: an empty module is written as the single line 0
        empty = self._module(tmp_path, "empty.mod", ["0"])
        want = "n: 2\nvars: X Y\nfield: q\nrank: 0\nelements:\n0\n"
        assert run_cli(monkeypatch, capsys, "syz", empty) == (0, want, "")
        assert run_cli(monkeypatch, capsys, "relsyz", empty, empty) == (0, want, "")
        # the output the empty module now matches: H empty over a nonempty U
        one = self._module(tmp_path, "one.mod", ["X^2*e1"])
        assert run_cli(monkeypatch, capsys, "relsyz", one, empty) == (0, want, "")

    @pytest.mark.parametrize(
        "rank, element, err",
        [
            (0, "X", "Error: basis index e1 exceeds rank 0\n"),
            (-1, "X", "Error: bad 'rank:' header '-1'\n"),
            (-2, "0", "Error: bad 'rank:' header '-2'\n"),
        ],
        ids=["zero", "negative", "negative-empty"],
    )
    def test_rank_header_below_the_elements_is_input_error(self, rank, element, err, tmp_path, monkeypatch, capsys):
        bad = self._module(tmp_path, "bad.mod", [element], rank=rank)
        assert run_cli(monkeypatch, capsys, "gb", bad) == (1, "", err)

    def test_gb_reads_the_empty_syzygy_module(self, tmp_path, monkeypatch, capsys):
        # syz prints rank 0 for an empty basis, and that file is valid input
        syz = tmp_path / "syz.mod"
        syz.write_text(run_cli(monkeypatch, capsys, "syz", self._module(tmp_path, "empty.mod", ["0"]))[1])
        want = "n: 2\nvars: X Y\nfield: q\nrank: 0\norder: grevlex X Y ; pot desc\nelements:\n0\n"
        assert run_cli(monkeypatch, capsys, "gb", str(syz)) == (0, want, "")

    def test_relsyz_accepts_relative_basis(self, files, tmp_path, monkeypatch, capsys):
        h = tmp_path / "h.mod"
        h.write_text(
            U5_MOD.split("elements:")[0]
            + "elements:\nX*Y^2*e1+X^3*e1\nY^3*e1\nX^3*Y*e1\n"
        )
        code, out, err = run_cli(
            monkeypatch, capsys, "relsyz", files["u5.mod"], str(h)
        )
        assert code == 0
        lines = out.splitlines()
        start = lines.index("elements:") + 1
        assert lines[start : start + 3] == [
            "Y*e1-X*e2-e3",
            "X^2*e1-Y*e3",
            "X^2*e1",
        ]
        assert len(lines) - start == 21


    # rank 2 over k[X, Y] with ambient shifts (1,0) and (0,1); every element
    # is homogeneous for them
    SHIFTED_HEAD = "n: 2\nvars: X Y\nfield: q\nrank: 2\nambient: (1,0) (0,1)\norder: grevlex X Y ; pot desc\n"

    def _shifted(self, tmp_path):
        u, v = tmp_path / "u.mod", tmp_path / "v.mod"
        u.write_text(self.SHIFTED_HEAD + "elements:\nX^2*e1\nX*Y*e2\nY*e1-X*e2\n")
        v.write_text(self.SHIFTED_HEAD + "elements:\ne1\ne2\n")
        return str(u), str(v)

    def test_gb_and_relgb_keep_the_ambient_header(self, tmp_path, monkeypatch, capsys):
        u, v = self._shifted(tmp_path)
        for args in (["gb", u], ["relgb", u, v]):
            code, out, err = run_cli(monkeypatch, capsys, *args)
            assert (code, err) == (0, "")
            assert out.startswith(self.SHIFTED_HEAD + "elements:\n")

    def test_outputs_compose_through_files(self, tmp_path, monkeypatch, capsys):
        # README: outputs compose through files, so resolving over the gb
        # output of U gives the bytes of resolving over U itself
        u, v = self._shifted(tmp_path)
        g = str(tmp_path / "g.mod")
        assert run_cli(monkeypatch, capsys, "gb", u, "-o", g) == (0, "", "")
        code, want, err = run_cli(monkeypatch, capsys, "resolution", u, v)
        assert (code, err) == (0, "")
        assert "ambient: (1,0) (0,1)" in want
        assert run_cli(monkeypatch, capsys, "resolution", g, v) == (0, want, "")
        assert run_cli(monkeypatch, capsys, "hilbert", g, v, "--box", "(0,0)..(2,2)") == run_cli(
            monkeypatch, capsys, "hilbert", u, v, "--box", "(0,0)..(2,2)"
        )


class TestResolutions:
    def test_respres_is_resolution_prefix(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "respres", files["u2.mod"], files["v2.mod"]
        )
        assert code == 0
        assert out == RES2_OUT.split("D2:")[0]

    def test_resolution(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "resolution", files["u2.mod"], files["v2.mod"]
        )
        assert (code, out) == (0, RES2_OUT)

    # over a U file holding only 0, level 0 is still the relative pass: all
    # three pairs of X^2, X*Y, Y^2 give D1, whose one relation D2 lifts
    ZERO_U_RES = (
        "n: 2\nvars: X Y\nfield: q\norder: grevlex X Y ; pot desc\nambient: (0,0)\nminimized: false\nU:\n"
        "D0:\nrows: (0,0)\ncols: (2,0) (1,1) (0,2)\nX^2 X*Y Y^2\n"
        "D1:\nrows: (2,0) (1,1) (0,2)\ncols: (2,1) (2,2) (1,2)\nY Y^2 0\n-X 0 Y\n0 -X^2 -X\n"
        "D2:\nrows: (2,1) (2,2) (1,2)\ncols: (2,2)\nY\n-1\nX\n"
    )

    def test_resolution_over_zero_inner_module(self, tmp_path, monkeypatch, capsys):
        head = "n: 2\nvars: X Y\nfield: q\nrank: 1\norder: grevlex X Y ; pot desc\nelements:\n"
        u, v = tmp_path / "u.mod", tmp_path / "v.mod"
        u.write_text(head + "0\n")
        v.write_text(head + "X^2*e1\nX*Y*e1\nY^2*e1\n")
        assert run_cli(monkeypatch, capsys, "resolution", str(u), str(v)) == (0, self.ZERO_U_RES, "")

    def test_minimize(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "minimize", files["res2.res"])
        assert (code, out) == (0, MIN2_OUT)

    def test_minimize_is_idempotent(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "minimize", files["min2.res"])
        assert (code, out) == (0, MIN2_OUT)

    def test_betti(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "betti", files["res2.res"])
        assert (code, out) == (0, "2 4 2\n")

    def test_betti_of_minimized(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "betti", files["min2.res"])
        assert (code, out) == (0, "2 4 2\n")

    def test_zero_column_minimize_and_betti(self, tmp_path, monkeypatch, capsys):
        res, mini = tmp_path / "zero.res", tmp_path / "mini.res"
        res.write_text(ZERO_COL_RES)
        code, out, err = run_cli(monkeypatch, capsys, "minimize", str(res))
        assert (code, out) == (0, ZERO_COL_RES.replace("minimized: false", "minimized: true"))
        mini.write_text(out)
        code, out, err = run_cli(monkeypatch, capsys, "betti", str(res))
        assert (code, out) == (0, "1 2 1\n")
        code, out, err = run_cli(monkeypatch, capsys, "verify", str(mini))
        assert code == 2 and "exact" not in out

    @pytest.mark.parametrize("command", ["minimize", "betti"])
    def test_inhomogeneous_differential_is_contract_violation(self, command, tmp_path, monkeypatch, capsys):
        res = tmp_path / "inhomogeneous.res"
        res.write_text(INHOMOGENEOUS_RES)
        code, out, err = run_cli(monkeypatch, capsys, command, str(res))
        assert (code, out, err) == (2, "", "Error: differential 1 is not homogeneous\n")

    # D0's generator X+Y is not homogeneous: minimize and betti reject it before
    # pruning anything, and verify reports it
    INHOMOGENEOUS_GEN_RES = (
        "n: 2\nvars: X Y\nfield: q\norder: grevlex X Y ; pot desc\nambient: (0,0)\nminimized: false\nU:\n"
        "D0:\nrows: (0,0)\ncols: (1,0) (0,1)\nX+Y Y\n"
    )

    @pytest.mark.parametrize(
        "command, want",
        [
            ("minimize", (2, "", "Error: generator 1 is not homogeneous\n")),
            ("betti", (2, "", "Error: generator 1 is not homogeneous\n")),
            ("verify", (2, "element <Y+X> is not homogeneous\n", "")),
        ],
    )
    def test_inhomogeneous_generator_is_contract_violation(self, command, want, tmp_path, monkeypatch, capsys):
        res = tmp_path / "inhomogeneous-gen.res"
        res.write_text(self.INHOMOGENEOUS_GEN_RES)
        assert run_cli(monkeypatch, capsys, command, str(res)) == want

    @pytest.mark.parametrize("command", ["verify", "minimize", "betti"])
    def test_zero_generator_is_input_error(self, command, tmp_path, monkeypatch, capsys):
        res = tmp_path / "zero-gen.res"
        res.write_text(ZERO_COL_RES.split("U:")[0] + "U:\nX^2*e1\nD0:\nrows: (0)\ncols: (0) (1)\n1 0\n")
        code, out, err = run_cli(monkeypatch, capsys, command, str(res))
        assert (code, out) == (1, "")
        assert "Error: D0 column 2 is zero" in err

    # D0's generators X and Y have degrees (1,0) and (0,1), but its cols:
    # line says (2,0) (0,1); D1 repeats those shifts as its rows
    D0_SHIFT_RES = (
        "n: 2\nvars: X Y\nfield: q\norder: grevlex X Y ; pot desc\nambient: (0,0)\nminimized: false\nU:\n"
        "D0:\nrows: (0,0)\ncols: (2,0) (0,1)\nX Y\nD1:\nrows: (2,0) (0,1)\ncols: (2,1)\nY\n-X^2\n"
    )

    @pytest.mark.parametrize("command", ["verify", "minimize", "betti"])
    def test_generator_off_its_d0_shift_is_input_error(self, command, tmp_path, monkeypatch, capsys):
        res = tmp_path / "d0-shift.res"
        res.write_text(self.D0_SHIFT_RES)
        assert run_cli(monkeypatch, capsys, command, str(res)) == (
            1, "", "Error: D0 column 1 has degree (1,0), but its 'cols:' shift is (2,0)\n"
        )

    def test_inhomogeneous_resolution_is_input_error(self, tmp_path, monkeypatch, capsys):
        head = "n: 3\nvars: X Y Z\nfield: q\nrank: 1\norder: grevlex X Y Z ; pot desc\nelements:\n"
        u, v = tmp_path / "u.mod", tmp_path / "v.mod"
        u.write_text(head + "X^5*e1\nY^5*e1\nZ^5*e1\n")
        v.write_text(head + "X^2*e1+Y*e1\nY^2*e1+Z^3*e1\nX*Z*e1\n")
        code, out, err = run_cli(monkeypatch, capsys, "resolution", str(u), str(v))
        assert (code, out) == (1, "")
        assert "element <Y+X^2> is not homogeneous" in err

    def test_inhomogeneous_inner_module_is_input_error(self, tmp_path, monkeypatch, capsys):
        head = "n: 2\nvars: X Y\nfield: q\nrank: 1\norder: grevlex X Y ; pot desc\nelements:\n"
        u, v = tmp_path / "u.mod", tmp_path / "v.mod"
        u.write_text(head + "X^2*e1+Y^3*e1\n")
        v.write_text(head + "Y*e1\n")
        code, out, err = run_cli(monkeypatch, capsys, "resolution", str(u), str(v))
        assert (code, out) == (1, "")
        assert "inner module element <Y^3+X^2> is not homogeneous" in err


class TestVerify:
    def test_exact(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "verify", files["res2.res"])
        assert (code, out) == (0, "exact\n")

    def test_exact_with_box(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "verify", files["res2.res"], "--box", "(0,0)..(4,3)"
        )
        assert (code, out) == (0, "exact\n")

    def test_failure_reported(self, files, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.res"
        bad.write_text(RES2_OUT.split("D2:")[0])
        code, out, err = run_cli(monkeypatch, capsys, "verify", str(bad))
        assert code == 2
        assert "kernel" in out and "exact" not in out

    @pytest.mark.parametrize(
        "mutant, box, report",
        [
            ("cube", None, CUBE_D2_BAD_REPORT),
            ("cube", CUBE_D2_BAD_BOX, CUBE_D2_BAD_BOX_REPORT),
            ("line", None, LINE_D1_BAD_REPORT),
            ("line", LINE_D1_BAD_BOX, LINE_D1_BAD_BOX_REPORT),
        ],
    )
    def test_failure_report_frozen(self, mutant, box, report, tmp_path, monkeypatch, capsys):
        if mutant == "cube":
            res = drop_column(cube_resolution(QQ), 2, 4)
        else:
            res = drop_column(line_resolution(), 1, 0)
        bad = tmp_path / "bad.res"
        bad.write_text(emit_resolution_file(res))
        args = ["verify", str(bad)] + (["--box", box] if box else [])
        assert run_cli(monkeypatch, capsys, *args)[:2] == (2, report)

    # Sign flips of one entry Y of m/m^3: in D2's first row the composites
    # D1 D2 and D2 D3 no longer vanish; in D1's first row the generators
    # composed with D1 leave U, and D1 D2 no longer vanishes.
    @pytest.mark.parametrize(
        "level, j, report",
        [
            (2, 1, "differentials 1 and 2 do not compose to zero\ndifferentials 2 and 3 do not compose to zero\n"),
            (
                1,
                0,
                "composite of generators with differential 1 misses the inner module in column 1\n"
                "differentials 1 and 2 do not compose to zero\n",
            ),
        ],
    )
    def test_composite_report_frozen(self, level, j, report, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.res"
        bad.write_text(emit_resolution_file(negate_entry(cube_resolution(QQ), level, 0, j)))
        assert run_cli(monkeypatch, capsys, "verify", str(bad))[:2] == (2, report)

    def test_composite_in_u_through_an_s_vector(self, tmp_path, monkeypatch, capsys):
        # U's basis must reach (1,1), the join of D1's degrees, to hold the
        # S-vector; with -2*X*Y in D1's third column the composite leaves U
        good, bad = tmp_path / "good.res", tmp_path / "bad.res"
        good.write_text(SVEC_RES)
        bad.write_text(SVEC_RES.replace("0 Y -X*Y\n", "0 Y -2*X*Y\n"))
        assert run_cli(monkeypatch, capsys, "verify", str(good))[:2] == (0, "exact\n")
        assert run_cli(monkeypatch, capsys, "verify", str(bad))[:2] == (
            2,
            "composite of generators with differential 1 misses the inner module in column 3\n"
            "differentials 1 and 2 do not compose to zero\n",
        )

    def test_bad_box_is_input_error(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "verify", files["res2.res"], "--box", "(0,0)-(4,3)"
        )
        assert code == 1
        assert "LO..HI" in err

    def test_empty_box_is_input_error(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "verify", files["res2.res"], "--box", "(3,3)..(0,0)"
        )
        assert (code, out) == (1, "")
        assert "is empty" in err


class TestFlange:
    def test_flange_gb(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "flange-gb", files["atilde.fim"])
        assert (code, out) == (0, ATILDE_DONE_FIM)

    def test_flange_pres(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "flange-pres", files["done.fim"])
        assert (code, out) == (0, FPRES_OUT)

    def test_flange_pres_requires_groebner_form(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "flange-pres", files["atilde.fim"]
        )
        assert code == 2
        assert "S-polynomial of columns 1 and 2" in err

    def test_flange_gb_unsupported_is_contract_violation(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.fim"
        bad.write_text(
            ATILDE_FIM.split("cogens:")[0] + "cogens: (1,0)\ngens: (0,1)\nrows:\n1\n"
        )
        code, out, err = run_cli(monkeypatch, capsys, "flange-gb", str(bad))
        assert code == 2
        assert "support condition" in err

    ZERO_COLUMN_FIM = "n: 2\nvars: X1 X2\ncogens: (1,1)\ngens: (0,0) (0,0)\nrows:\n1 0\n"

    def test_flange_pres_keeps_zero_column_relation(self, tmp_path, monkeypatch, capsys):
        # column 2 is zero, so e2 itself is a relation: M = k[X1, X2]/(X1^2, X2^2);
        # X1^2 e2 and X2^2 e2 are multiples of it and are left out
        path = tmp_path / "zero.fim"
        path.write_text(self.ZERO_COLUMN_FIM)
        code, out, err = run_cli(monkeypatch, capsys, "flange-pres", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[4:] == [
            "D1:",
            "rows: (0,0) (0,0)",
            "cols: (0,0) (2,0) (0,2)",
            "0 X1^2 X2^2",
            "1 0 0",
        ]

    @pytest.mark.parametrize("header", ["cogens", "gens"])
    def test_empty_degree_header_is_named(self, header, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "empty.fim"
        bad.write_text(self.ZERO_COLUMN_FIM.replace("\n%s: " % header, "\n%s: # none\n# " % header))
        code, out, err = run_cli(monkeypatch, capsys, "flange-pres", str(bad))
        assert (code, out, err) == (1, "", "Error: empty '%s:' header\n" % header)


class TestHomologyAndDiagrams:
    def test_homology(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "homology", files["c42.cpx"])
        assert (code, out) == (0, HOM_OUT)

    def test_homology_minimized(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "homology", files["c42.cpx"], "--minimize"
        )
        assert (code, out) == (0, HOMMIN_OUT)

    def test_from_diagram(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "from-diagram", files["m.diag"])
        assert (code, out) == (0, DIAG_OUT)

    @pytest.mark.parametrize(
        "diagram, want",
        [
            (CONJ_Q2_DIAG, CONJ_Q2_OUT),
            (CONJ_Q3_DIAG, CONJ_Q3_OUT),
            (CONJ_FP2_DIAG, CONJ_FP2_OUT),
            (CONJ_FP3_DIAG, CONJ_FP3_OUT),
            (ZERO_FIBER_DIAG, ZERO_FIBER_OUT),
        ],
        ids=["q2", "q3", "fp2", "fp3", "zero-fiber"],
    )
    def test_from_diagram_frozen(self, diagram, want, tmp_path, monkeypatch, capsys):
        path = tmp_path / "d.diag"
        path.write_text(diagram)
        assert run_cli(monkeypatch, capsys, "from-diagram", str(path)) == (0, want, "")

    def test_homology_rejects_inhomogeneous_d1(self, tmp_path, monkeypatch, capsys):
        # the entry -1 + X1 of D1 mixes degrees (0,0) and (1,0)
        path = tmp_path / "bad.cpx"
        path.write_text(C42_CPX.replace("-1 -1 0 0 0 0", "-1+X1 -1 0 0 0 0", 1))
        code, out, err = run_cli(monkeypatch, capsys, "homology", str(path))
        assert (code, out, err) == (1, "", "Error: matrix D1 is not homogeneous\n")

    def test_homology_inner_module_must_be_homogeneous_for_p(self, tmp_path, monkeypatch, capsys):
        # D2 is homogeneous for its own rows, but under P's rows (1,0), (0,1)
        # its column X1*X2*e4 + X1*X2*e5 has degrees (2,1) and (1,2); that is
        # rejected before the kernel of D1 is computed
        def never(*args):
            raise AssertionError("kernel computed")

        monkeypatch.setattr(homres, "kernel_of_free_map", never)
        path = tmp_path / "bad.cpx"
        d2 = "D2:\nrows: (0,0) (0,0) (0,0) (1,0) (1,0)\ncols: (2,1)\n0\n0\n0\nX1*X2\nX1*X2\n"
        path.write_text(C42_CPX.split("D2:")[0] + d2)
        code, out, err = run_cli(monkeypatch, capsys, "homology", str(path))
        assert (code, out) == (1, "")
        assert err == "Error: inner module element <X1*X2*e4+X1*X2*e5> is not homogeneous\n"


class TestHilbert:
    def test_box(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch,
            capsys,
            "hilbert",
            files["u2.mod"],
            files["v2.mod"],
            "--box",
            "(0,0)..(1,1)",
        )
        assert (code, out) == (0, "(0,0) 0\n(1,0) 1\n(0,1) 1\n(1,1) 2\n")

    def test_single_degree(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch,
            capsys,
            "hilbert",
            files["u2.mod"],
            files["v2.mod"],
            "--degree",
            "(1,1)",
        )
        assert (code, out) == (0, "(1,1) 2\n")

    @pytest.mark.parametrize("degree", ["(0,0)", "(1,1)", "(2,1)", "(-1,3)"])
    def test_degree_is_one_degree_box(self, degree, files, monkeypatch, capsys):
        pair = [files["u2.mod"], files["v2.mod"]]
        one = run_cli(monkeypatch, capsys, "hilbert", *pair, "--degree", degree)
        box = run_cli(monkeypatch, capsys, "hilbert", *pair, "--box", "%s..%s" % (degree, degree))
        assert one == box
        assert one[0] == 0 and one[1].startswith(degree + " ")

    @pytest.mark.parametrize("where", [["--degree", "(1,1)"], ["--box", "(-1,-1)..(2,2)"]])
    def test_inhomogeneous_v_is_input_error(self, where, files, tmp_path, monkeypatch, capsys):
        v = tmp_path / "v.mod"
        v.write_text(V2_MOD.split("elements:")[0] + "elements:\nX1*e1+X2^2*e2\n")
        code, out, err = run_cli(monkeypatch, capsys, "hilbert", files["u2.mod"], str(v), *where)
        assert (code, out) == (1, "")
        assert "is not homogeneous" in err and "X2^2" in err

    def test_requires_degree_or_box(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "hilbert", files["u2.mod"], files["v2.mod"]
        )
        assert code == 1
        assert "--degree or --box" in err

    def test_degree_and_box_together_rejected(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "hilbert", files["u2.mod"], files["v2.mod"],
            "--degree", "(1,1)", "--box", "(0,0)..(1,1)",
        )
        assert (code, out) == (1, "")
        assert "--degree or --box, not both" in err

    def test_empty_box_is_input_error(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "hilbert", files["u2.mod"], files["v2.mod"],
            "--box", "(1,0)..(0,1)",
        )
        assert (code, out) == (1, "")
        assert "is empty" in err


class TestPairShifts:
    """U and V files of different ranks must agree on the shifts of the
    components both have; a file without 'ambient:' has zero shifts."""

    WIDE = "n: 2\nvars: X Y\nfield: q\nrank: 2\nambient: (1,0) (0,1)\norder: grevlex X Y ; pot desc\nelements:\n%s\n"
    NARROW = "n: 2\nvars: X Y\nfield: q\nrank: 1\n%sorder: grevlex X Y ; pot desc\nelements:\n%s\n"
    COMMANDS = [["hilbert", "--box", "(0,0)..(2,2)"], ["resolution"]]

    def _pair(self, tmp_path, ambient, swap):
        """The rank-1 file as U under a rank-2 V, or as V over a rank-2 U."""
        narrow, wide = tmp_path / "narrow.mod", tmp_path / "wide.mod"
        narrow.write_text(self.NARROW % (ambient, "e1" if swap else "X^2*e1"))
        wide.write_text(self.WIDE % ("X^2*e1\nX*Y*e2" if swap else "e1\ne2"))
        return [str(wide), str(narrow)] if swap else [str(narrow), str(wide)]

    @pytest.mark.parametrize("command", COMMANDS, ids=["hilbert", "resolution"])
    @pytest.mark.parametrize("swap", [False, True], ids=["narrow-u", "narrow-v"])
    @pytest.mark.parametrize("ambient", ["ambient: (5,5)\n", ""], ids=["other-shift", "no-header"])
    def test_different_shared_shift_rejected(self, command, swap, ambient, tmp_path, monkeypatch, capsys):
        u, v = self._pair(tmp_path, ambient, swap)
        assert run_cli(monkeypatch, capsys, command[0], u, v, *command[1:]) == (
            1, "", "Error: U and V files declare different ambient shifts\n"
        )

    @pytest.mark.parametrize("command", COMMANDS, ids=["hilbert", "resolution"])
    @pytest.mark.parametrize("swap", [False, True], ids=["narrow-u", "narrow-v"])
    def test_same_shared_shift_is_the_padded_file(self, command, swap, tmp_path, monkeypatch, capsys):
        u, v = self._pair(tmp_path, "ambient: (1,0)\n", swap)
        code, out, err = run_cli(monkeypatch, capsys, command[0], u, v, *command[1:])
        assert (code, err) == (0, "")
        padded = tmp_path / "padded.mod"
        padded.write_text(self.WIDE % ("e1" if swap else "X^2*e1"))
        u, v = (u, str(padded)) if swap else (str(padded), v)
        assert run_cli(monkeypatch, capsys, command[0], u, v, *command[1:]) == (0, out, "")


class TestPlumbing:
    def test_parse_failure_is_input_error(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "gb", files["bad.mod"])
        assert code == 1

    def test_mismatched_rings_rejected(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, "relgb", files["u5.mod"], files["v2.mod"]
        )
        assert code == 1
        assert "different rings" in err

    def test_help_exits_zero(self, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, "--help")
        assert code == 0
        assert "relgb" in out

    def test_reruns_are_byte_identical(self, files, monkeypatch, capsys):
        first = run_cli(
            monkeypatch, capsys, "resolution", files["u2.mod"], files["v2.mod"]
        )
        second = run_cli(
            monkeypatch, capsys, "resolution", files["u2.mod"], files["v2.mod"]
        )
        assert first == second

    def test_output_file_matches_stdout(self, files, tmp_path, monkeypatch, capsys):
        target = tmp_path / "out.mod"
        code, out, err = run_cli(
            monkeypatch,
            capsys,
            "relgb",
            files["u5.mod"],
            files["v5.mod"],
            "-o",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == RELGB5_OUT
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".subquo-")]
        assert leftovers == []

    def test_failed_replace_leaves_no_temp_file(self, files, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        target = tmp_path / "out.mod"
        with pytest.raises(OSError):
            run_cli(monkeypatch, capsys, "gb", files["u5.mod"], "-o", str(target))
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_version(self, files, monkeypatch, capsys):
        assert run_cli(monkeypatch, capsys, "--version")[:2] == (0, "subquo, version 1.0.0\n")

    def test_field_override(self, files, tmp_path, monkeypatch, capsys):
        mod = tmp_path / "f5.mod"
        mod.write_text(
            "n: 2\nvars: X Y\nrank: 1\nelements:\n5*X*e1\n2*X^2*e1\n"
        )
        code, out, err = run_cli(
            monkeypatch, capsys, "gb", str(mod), "--field", "fp:5"
        )
        assert code == 0
        assert "field: fp:5" in out
        assert out.endswith("elements:\nX^2\n")

    def test_order_override(self, files, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch,
            capsys,
            "gb",
            files["u5.mod"],
            "--order",
            "lex Y X ; pot desc",
        )
        assert code == 0
        assert "order: lex Y X ; pot desc" in out


class TestStreamedOutput:
    """Resolution and matrix files are written a line at a time; -o stays atomic."""

    def test_resolution_writes_one_line_at_a_time(self, files, monkeypatch):
        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        writes = []
        monkeypatch.setattr(sys, "stdout", Recorder())
        monkeypatch.setattr(sys, "argv", ["subquo", "resolution", files["u2.mod"], files["v2.mod"]])
        main()
        assert writes == RES2_OUT.splitlines(keepends=True)

    def test_closed_pipe_exits_1_with_empty_stderr(self, tmp_path):
        # m^2 over m^5 in k[X, Y, Z]: about 330 kB of output, far more than a pipe holds
        for name, d in (("u.mod", 5), ("v.mod", 2)):
            mons = ("*".join(c) for c in itertools.combinations_with_replacement("XYZ", d))
            (tmp_path / name).write_text("n: 3\nvars: X Y Z\nrank: 1\nelements:\n" + "\n".join(mons) + "\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        argv = [sys.executable, "-m", "subquo.cli", "resolution", str(tmp_path / "u.mod"), str(tmp_path / "v.mod")]
        proc = subprocess.Popen(
            argv, env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert proc.stdout.readline() == b"n: 3\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"")

    def test_minimize_in_place(self, tmp_path, monkeypatch, capsys):
        res = tmp_path / "r.res"
        res.write_text(RES2_OUT)
        code, want, _ = run_cli(monkeypatch, capsys, "minimize", str(res))
        assert code == 0
        assert run_cli(monkeypatch, capsys, "minimize", str(res), "-o", str(res)) == (0, "", "")
        assert res.read_text() == want
        assert [p.name for p in tmp_path.iterdir()] == ["r.res"]

    def test_failure_mid_stream_leaves_target(self, files, tmp_path, monkeypatch, capsys):
        import subquo.files

        block = subquo.files._emit_matrix_block

        def failing(mat, name):
            if name == "D2":  # after the headers, D0 and D1 went to the temporary file
                raise RuntimeError("formatting failed")
            yield from block(mat, name)

        monkeypatch.setattr(subquo.files, "_emit_matrix_block", failing)
        target = tmp_path / "out.res"
        target.write_text("old\n")
        with pytest.raises(RuntimeError, match="formatting failed"):
            run_cli(monkeypatch, capsys, "resolution", files["u2.mod"], files["v2.mod"], "-o", str(target))
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.res"]


class TestUsageContract:
    """Usage errors exit 1 with nothing on stdout and an `Error:` line on stderr."""

    @pytest.mark.parametrize(
        "args",
        [
            lambda f: [],
            lambda f: ["frobnicate"],
            lambda f: ["gb"],
            lambda f: ["gb", os.path.join(f["_dir"], "no.mod")],
            lambda f: ["gb", f["_dir"]],
            lambda f: ["resolution", f["u2.mod"], f["v2.mod"], "--length", "x"],
            lambda f: ["gb", f["u5.mod"], "--frobnicate"],
            lambda f: ["resolution", f["u2.mod"], f["v2.mod"], "--len", "2"],
        ],
        ids=["no-command", "unknown-command", "missing-argument", "missing-file",
             "directory", "bad-int", "unknown-option", "abbreviated-option"],
    )
    def test_usage_error(self, args, files, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, *args(files))
        assert (code, out) == (1, "")
        assert "Error:" in err

    def test_negative_length_is_usage_error(self, files, monkeypatch, capsys):
        # free_resolution would run no loop and print a D0-only resolution
        import subquo.cli

        def never(path):
            raise AssertionError("input read before the arguments were checked")

        monkeypatch.setattr(subquo.cli, "_read", never)
        code, out, err = run_cli(monkeypatch, capsys, "resolution", files["u2.mod"], files["v2.mod"], "--length", "-1")
        assert (code, out) == (1, "")
        assert "Error: argument --length: length must be >= 0, got -1" in err

    def test_output_in_missing_directory_is_usage_error(self, files, tmp_path, monkeypatch, capsys):
        import subquo.groebner

        def never(*args, **kwargs):
            raise AssertionError("computed before the output path was checked")

        monkeypatch.setattr(subquo.groebner, "buchberger", never)
        target = str(tmp_path / "missing" / "out.mod")
        code, out, err = run_cli(monkeypatch, capsys, "gb", files["u5.mod"], "-o", target)
        assert (code, out) == (1, "")
        assert "Error: argument -o/--output: directory of %r does not exist" % target in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, options",
        [
            ("gb", ["--order", "--field", "--output"]),
            ("resolution", ["--length", "--order", "--field", "--output"]),
            ("betti", ["--field"]),
            ("hilbert", ["--degree", "--box", "--order", "--field"]),
            ("homology", ["--minimize", "--order", "--field", "--output"]),
            ("verify", ["--box", "--field"]),
        ],
    )
    def test_command_help(self, command, options, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, command, "--help")
        assert code == 0
        assert all(opt in out for opt in options)


def _fresh_import(code):
    """stdout of `code` run in a new interpreter with this checkout's src on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


LIBRARY = {"elements", "orders", "groebner", "relative", "graded", "homres", "flange", "files"}

# Run by _fresh_import with ARGV bound: the subquo modules loaded (executed)
# when argparse is first imported, then the exit code, the loaded modules and
# the registered modules not yet executed (LazyLoader's stand-ins) at the end.
_PROBE = """
import contextlib, io, sys, types
import subquo.cli as cli

def modules(pending):
    return " ".join(sorted(
        name[len("subquo."):] for name, mod in sys.modules.items()
        if name.startswith("subquo.") and (type(mod) is not types.ModuleType) == pending
    ))

first = []

class ArgparseImport:
    def find_spec(self, name, path=None, target=None):
        if name == "argparse" and not first:
            first.append(modules(False))

sys.meta_path.insert(0, ArgparseImport())
sys.argv = ["subquo"] + ARGV
code = 0
try:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main()
except SystemExit as exc:
    code = exc.code
print(first[0] if first else "-")
print(code)
print(modules(False))
print(modules(True))
"""


def _probe(*argv):
    """(loaded when argparse is imported, exit code, loaded at exit, still
    lazy at exit) for one command run in a new interpreter; module names
    without 'subquo.'."""
    out = _fresh_import("ARGV = %r\n" % list(argv) + _PROBE).split("\n")
    return out[0], int(out[1]), set(out[2].split()), set(out[3].split())


class TestTracerContract:
    """What an outside tracer relies on: `import subquo.cli` registers every
    library module, and dispatch looks callbacks up in `cli.commands`."""

    def test_library_modules_loaded(self):
        # registered in sys.modules (the tracer looks them up there), none run yet
        code = "import subquo.cli, sys, types; print(*(n for n, m in sys.modules.items() if type(m) is not types.ModuleType))"
        pending = _fresh_import(code).split()
        for name in ("groebner", "relative", "homres", "graded", "flange"):
            assert "subquo." + name in pending

    def test_dispatch_calls_current_callback(self, files, monkeypatch, capsys):
        import subquo.cli

        seen = []
        cmd = subquo.cli.cli.commands["gb"]
        monkeypatch.setattr(cmd, "callback", lambda **kwargs: seen.append(kwargs))
        code, out, err = run_cli(monkeypatch, capsys, "gb", files["u5.mod"], "--field", "fp:7")
        assert (code, out) == (0, "")
        assert seen == [
            {"module_file": files["u5.mod"], "order_text": None, "field_text": "fp:7", "output": None}
        ]

    def test_traced_names_resolve(self):
        # the benchmark's tracer wraps these by name, from outside src/
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "perfbench", "layers.py")) as fh:
            tree = ast.parse(fh.read())
        spans = next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPANS"
        )
        names = [(mod, name) for mod, fns in spans.items() for name in fns] + [("homres", "_verify_degree")]
        assert len(names) > 20
        for mod, name in names:
            obj = importlib.import_module("subquo." + mod)
            for part in name.split("."):
                obj = getattr(obj, part, None)
            assert callable(obj), "subquo.%s.%s" % (mod, name)


def _subquo(*args):
    """(exit code, stdout, stderr) of `python -m subquo.cli ARGS` in a new
    interpreter with this checkout's src on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "subquo.cli", *args], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestProcessExit:
    """A process runs main() through cli.run, which freezes the heap in a
    finally; exit codes, stdout and -o writes must be those of main()."""

    def test_gb_to_stdout(self, files):
        assert _subquo("gb", files["u5.mod"]) == (0, GB5_OUT, "")

    def test_gb_to_file(self, files, tmp_path):
        target = tmp_path / "gb.mod"
        assert _subquo("gb", files["u5.mod"], "-o", str(target)) == (0, "", "")
        assert target.read_text() == GB5_OUT

    def test_unknown_option_exits_1_with_usage(self, files):
        code, out, err = _subquo("gb", files["u5.mod"], "--frobnicate")
        assert (code, out) == (1, "")
        assert err.startswith("usage: subquo gb ")
        assert "Error: unrecognized arguments: --frobnicate" in err

    def test_contract_violation_exits_2(self, files):
        code, out, err = _subquo("syz", files["notgb.mod"])
        assert (code, out) == (2, "")
        assert "not a Groebner basis" in err

    def test_help_exits_0(self):
        code, out, err = _subquo("--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: subquo ")

    def test_run_freezes_the_heap(self):
        code = (
            "import contextlib, gc, io, sys\nimport subquo.cli as cli\nsys.argv = ['subquo', '--help']\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n    cli.run()\n"
            "print(gc.get_freeze_count() > 0)"
        )
        assert _fresh_import(code) == "True\n"

    def test_console_script_is_run(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as fh:
            assert '[project.scripts]\nsubquo = "subquo.cli:run"\n' in fh.read()


class TestLazyLoading:
    """Each command loads only the library modules it runs, all of them
    before argparse is imported, and so before it reads any input: modules
    compiled after argparse, or while a parsed file is alive, raised the
    peak memory of a verify job."""

    @pytest.mark.parametrize(
        "argv, lazy",
        [
            (["gb", "u5.mod"], {"homres", "graded", "flange", "relative"}),
            (["relgb", "u5.mod", "v5.mod"], {"homres", "graded", "flange"}),
            (["verify", "min2.res"], {"groebner", "relative", "flange"}),
            (["flange-pres", "done.fim"], {"groebner", "relative", "homres"}),
            (["--help"], LIBRARY),
        ],
        ids=["gb", "relgb", "verify", "flange-pres", "help"],
    )
    def test_command_leaves_modules_lazy(self, argv, lazy, files):
        _, code, _, pending = _probe(*[files.get(a, a) for a in argv])
        assert (code, pending) == (0, lazy)

    BASE = {"cli", "errors", "elements", "orders", "files"}
    SCALAR = BASE | {"graded", "homres"}
    ALL_BUT_FLANGE = SCALAR | {"groebner", "relative"}
    COMMAND_MODULES = [
        (["gb", "u5.mod"], BASE | {"groebner"}),
        (["relgb", "u5.mod", "v5.mod"], BASE | {"groebner", "relative"}),
        (["syz", "g3.mod"], BASE | {"groebner"}),
        (["relsyz", "u2.mod", "v2.mod"], BASE | {"groebner", "relative"}),
        (["respres", "u2.mod", "v2.mod"], ALL_BUT_FLANGE),
        (["resolution", "u2.mod", "v2.mod"], ALL_BUT_FLANGE),
        (["minimize", "res2.res"], SCALAR),
        (["betti", "res2.res"], SCALAR),
        (["hilbert", "u2.mod", "v2.mod", "--box", "(0,0)..(2,2)"], BASE | {"graded"}),
        (["flange-gb", "atilde.fim"], BASE | {"graded", "flange"}),
        (["flange-pres", "done.fim"], BASE | {"graded", "flange"}),
        (["homology", "c42.cpx"], ALL_BUT_FLANGE),
        (["from-diagram", "m.diag"], SCALAR | {"groebner"}),
        (["verify", "min2.res"], SCALAR),
    ]

    @pytest.mark.parametrize("argv, loaded", COMMAND_MODULES, ids=[argv[0] for argv, _ in COMMAND_MODULES])
    def test_modules_load_before_argparse(self, argv, loaded, files):
        at_argparse, code, at_exit, _ = _probe(*[files.get(a, a) for a in argv])
        assert code == 0
        assert set(at_argparse.split()) == at_exit == loaded

    def test_fp_run_never_imports_fractions(self, files):
        # RationalField imports fractions (and with it decimal) on first use
        code = (
            "import contextlib, io, sys\nimport subquo.cli as cli\n"
            "sys.argv = ['subquo', 'gb', %r, '--field', 'fp:32003']\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n    cli.main()\n"
            "print(out.getvalue() == %r, 'fractions' in sys.modules, 'decimal' in sys.modules)"
        ) % (files["u5.mod"], GB5_OUT.replace("field: q", "field: fp:32003"))
        assert _fresh_import(code) == "True False False\n"

    def test_every_command_is_probed(self):
        import subquo.cli

        assert sorted(argv[0] for argv, _ in self.COMMAND_MODULES) == sorted(subquo.cli.cli.commands)

    def test_library_surface(self):
        import subquo

        assert len(subquo.__all__) == 56
        for name in subquo.__all__:
            assert getattr(subquo, name) is not None
            assert name in dir(subquo)
        scope = {}
        exec("from subquo import *", scope)
        assert set(subquo.__all__) <= set(scope)
        with pytest.raises(AttributeError, match="no_such_name"):
            subquo.no_such_name

    def test_degree_helpers_live_in_elements(self):
        import subquo
        from subquo import elements

        for name in ("parse_degree", "format_degree"):
            assert getattr(subquo, name) is getattr(elements, name)
            assert getattr(elements, name).__module__ == "subquo.elements"


class TestDeadCode:
    """Every top-level function and class of src/subquo, and every method that
    is not a dunder, is named on another src line, in README.md or in the
    tracer's SPANS. The reference implementations that tests compare against
    are kept without such a use, and listed here, and so are the names that
    only SPANS keeps: perfbench/layers.py looks each one up by name, so they
    can go only after SPANS drops them."""

    ORACLES = {"mon_divides", "matrix_rank", "from_entries", "s_polynomial"}
    TRACER_ONLY = {"buchberger_transform", "express", "is_relative_gb", "nullspace_basis"}
    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def _unnamed(self, extra):
        """Names of src definitions used on no other src line, in README.md or in extra."""
        src = os.path.join(self.ROOT, "src", "subquo")
        defs, seen = [], {}  # seen: word -> {(file, line number)}
        for fname in sorted(f for f in os.listdir(src) if f.endswith(".py") and f != "__init__.py"):
            with open(os.path.join(src, fname)) as fh:
                text = fh.read()
            for no, line in enumerate(text.splitlines(), 1):
                for word in re.findall(r"\w+", line):
                    seen.setdefault(word, set()).add((fname, no))
            for node in ast.parse(text).body:
                if isinstance(node, ast.ClassDef):
                    defs += [
                        (fname, f) for f in node.body
                        if isinstance(f, ast.FunctionDef) and not (f.name.startswith("__") and f.name.endswith("__"))
                    ]
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    defs.append((fname, node))
        with open(os.path.join(self.ROOT, "README.md")) as fh:
            named = set(re.findall(r"\w+", fh.read())) | set(extra)
        return [
            "%s:%d %s" % (fname, node.lineno, node.name)
            for fname, node in defs
            if node.name not in named and not seen[node.name] - {(fname, node.lineno)}
        ]

    def _spans(self):
        """Every dotted part of the names the tracer wraps."""
        with open(os.path.join(self.ROOT, "perfbench", "layers.py")) as fh:
            tree = ast.parse(fh.read())
        spans = next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPANS"
        )
        return {part for fns in spans.values() for name in fns for part in name.split(".")}

    def test_every_library_name_is_used(self):
        assert self._unnamed(self.ORACLES | self._spans()) == []

    def test_tracer_only_names(self):
        unnamed = self._unnamed(self.ORACLES)
        assert {entry.split()[-1] for entry in unnamed} == self.TRACER_ONLY


def test_cli_does_not_import_click():
    assert _fresh_import("import subquo.cli, sys; print('click' in sys.modules)") == "False\n"


class TestNonDecimalDigits:
    # '²' is a digit to str.isdigit() but int() cannot read it
    def test_gb_rejects_superscript_exponent(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "sup.mod"
        bad.write_text(U5_MOD.replace("X^5*e1", "X^²*e1"))
        code, out, err = run_cli(monkeypatch, capsys, "gb", str(bad))
        assert (code, out) == (1, "")
        assert err == "Error: parse error at position 2: unexpected '²'\n"

    def test_flange_gb_rejects_superscript_entry(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "sup.fim"
        bad.write_text(ATILDE_FIM.replace("1 1\n", "1 ²\n"))
        code, out, err = run_cli(monkeypatch, capsys, "flange-gb", str(bad))
        assert (code, out) == (1, "")
        assert err == "Error: bad scalar entry '²'\n"
