"""Fine gradings: degrees, graded matrices, exact graded dimensions."""

from itertools import product

from .elements import ModuleElement, exp_add, exp_sub
from .errors import ContractViolation, InputError


def parse_degree(text, n):
    """Parse a degree tuple like '(1,0)'."""
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise InputError("bad degree %r (expected '(a,b,...)')" % text)
    parts = t[1:-1].split(",")
    if len(parts) != n:
        raise InputError("degree %r has %d entries, expected %d" % (text, len(parts), n))
    try:
        return tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise InputError("bad integer in degree %r" % text) from None


def format_degree(a):
    """Render a degree tuple like '(1,0)'."""
    return "(%s)" % ",".join(str(x) for x in a)


def deg_join(a, b):
    """Componentwise maximum."""
    return tuple(max(x, y) for x, y in zip(a, b))


def deg_meet(a, b):
    """Componentwise minimum."""
    return tuple(min(x, y) for x, y in zip(a, b))


def deg_leq(a, b):
    """Componentwise comparison a <= b."""
    return all(x <= y for x, y in zip(a, b))


def element_degree(f, shifts=None):
    """Fine degree of a homogeneous element, or None for zero."""
    deg = None
    for (comp, exp), _ in f.terms:
        d = exp if shifts is None else exp_add(exp, shifts[comp])
        if deg is None:
            deg = d
        elif deg != d:
            raise InputError("element %r is not homogeneous" % f)
    return deg


def is_homogeneous(f, shifts=None):
    """Return True if all terms of f share one fine degree."""
    try:
        element_degree(f, shifts)
    except InputError:
        return False
    return True


def monomialize(f, shifts):
    """Scale each component j of f by the monomial of degree shifts[j]."""
    for s in shifts:
        if any(x < 0 for x in s):
            raise InputError("monomialization needs non-negative shifts, got %s" % (s,))
    return ModuleElement(
        f.ring, f.rank, {(c, exp_add(e, shifts[c])): v for (c, e), v in f.terms}
    )


def normalize_shifts(groups):
    """Translate lists of degree tuples so every coordinate minimum is zero.

    groups is a list of tuples/lists of degrees; all are translated by the
    same vector and returned in the same shape, followed by the offset used.
    """
    alldegs = [d for g in groups for d in g]
    if not alldegs:
        return [tuple(g) for g in groups], None
    n = len(alldegs[0])
    off = tuple(-min(d[k] for d in alldegs) for k in range(n))
    return [tuple(exp_add(d, off) for d in g) for g in groups], off


def degrees_in_box(lo, hi):
    """Iterate degree tuples in a box, first coordinate varying fastest."""
    if not deg_leq(lo, hi):
        return
    axes = [range(lo[k], hi[k] + 1) for k in reversed(range(len(lo)))]
    for rest in product(*axes):
        yield tuple(reversed(rest))


def _sparse(rows):
    """Nonzero entries of dense rows, as {column: value} dicts."""
    return [{c: a for c, a in enumerate(r) if a} for r in rows]


def _axpy(row, f, tail):
    """Add f times tail to the sparse row in place, dropping cancelled entries."""
    for k, b in tail.items():
        v = row.get(k)
        if v is None:
            row[k] = f * b
        else:
            v += f * b
            if v:
                row[k] = v
            else:
                del row[k]


def _add_row(pivots, row):
    """Sparse exact elimination step: reduce row into the echelon form pivots.

    pivots maps each pivot column to the rest of its row, scaled so that the
    entry at the pivot column (not stored) is 1; every stored column is
    larger. The row, a {column: nonzero} dict, is consumed: it is reduced
    only by the pivots at columns it still holds, from the lowest one up.
    Returns True, and keeps the row as a new pivot, when it raised the rank.
    """
    while row:
        c = min(row)
        tail = pivots.get(c)
        if tail is None:
            lead = row.pop(c)
            pivots[c] = {k: v / lead for k, v in row.items()}
            return True
        _axpy(row, -row.pop(c), tail)
    return False


def _rank(rows):
    """Exact rank of sparse rows, with no back-substitution."""
    pivots = {}
    return sum(_add_row(pivots, r) for r in rows)


def rref(rows):
    """Reduced row echelon form over an exact field, returning (rows, pivots).

    Elimination is sparse and exact (zero entries are never touched), and the
    reduced row echelon form is unique, so the pivot strategy cannot change
    the result: the pivot rows come first, by pivot column, then zero rows.
    """
    rows = [list(r) for r in rows]
    sparse = _sparse(rows)
    a = next((a for r in sparse for a in r.values()), None)
    if a is None:
        return rows, []
    one, zero = a / a, a - a  # field constants of the entries' type
    pivots = {}
    for r in sparse:
        _add_row(pivots, r)
    cols = sorted(pivots)
    for c in reversed(cols):
        tail = pivots[c]
        for k in [k for k in tail if k in pivots]:
            _axpy(tail, -tail.pop(k), pivots[k])
    ncols = len(rows[0])
    red = []
    for c in cols:
        row = [zero] * ncols
        row[c] = one
        for k, v in pivots[c].items():
            row[k] = v
        red.append(row)
    red.extend([zero] * ncols for _ in range(len(rows) - len(cols)))
    return red, cols


def matrix_rank(rows):
    """Exact rank of a matrix given as a list of rows.

    Elimination is sparse and exact, with no back-substitution; the rank
    does not depend on the pivot order.
    """
    return _rank(_sparse(rows))


def nullspace_basis(rows, ncols, field):
    """Basis vectors of the right nullspace of a matrix."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        v = [field.zero] * ncols
        v[c] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][c]
        basis.append(v)
    return basis


class GradedMatrix:
    """Homogeneous matrix over R stored by columns with fine degree shifts."""

    __slots__ = ("ring", "row_shifts", "col_shifts", "cols")

    def __init__(self, ring, row_shifts, col_shifts, cols):
        self.ring = ring
        self.row_shifts = tuple(tuple(s) for s in row_shifts)
        self.col_shifts = tuple(tuple(s) for s in col_shifts)
        self.cols = list(cols)
        for col in self.cols:
            if col.rank != len(self.row_shifts):
                raise InputError("column rank %d does not match %d rows" % (col.rank, len(self.row_shifts)))
        if len(self.cols) != len(self.col_shifts):
            raise InputError("need one degree per column")

    @classmethod
    def from_entries(cls, ring, row_shifts, col_shifts, entries):
        """Build from a rows-of-scalar-polynomials layout."""
        nrows, ncols = len(row_shifts), len(col_shifts)
        if len(entries) != nrows or any(len(row) != ncols for row in entries):
            raise InputError("entry grid does not match %dx%d" % (nrows, ncols))
        cols = [{} for _ in range(ncols)]
        for i, row in enumerate(entries):
            for col, p in zip(cols, row):
                for (_, e), c in p.terms:
                    col[(i, e)] = c
        return cls(ring, row_shifts, col_shifts, [ModuleElement(ring, nrows, d) for d in cols])

    @property
    def nrows(self):
        return len(self.row_shifts)

    @property
    def ncols(self):
        return len(self.col_shifts)

    def entry(self, i, j):
        """Scalar polynomial at row i, column j."""
        d = {(0, e): c for (comp, e), c in self.cols[j].terms if comp == i}
        return ModuleElement(self.ring, 1, d)

    def apply(self, vec):
        """Image of a column vector vec in R^ncols."""
        out = ModuleElement.zero(self.ring, self.nrows)
        for (j, e), c in vec.terms:
            if j >= self.ncols:
                raise InputError("vector component %d exceeds %d columns" % (j + 1, self.ncols))
            out = out + self.cols[j].mul_term(c, e)
        return out

    def compose(self, other):
        """Matrix of self applied after other."""
        if other.nrows != self.ncols:
            raise InputError("composition shape mismatch")
        return GradedMatrix(
            self.ring,
            self.row_shifts,
            other.col_shifts,
            [self.apply(col) for col in other.cols],
        )

    def is_homogeneous(self):
        """Return True when every column is homogeneous of its column degree."""
        for j, col in enumerate(self.cols):
            for (i, e), _ in col.terms:
                if exp_add(e, self.row_shifts[i]) != self.col_shifts[j]:
                    return False
        return True

    def _degree_columns(self, a):
        """Sparse columns {row position: value} of the degree-a piece, with
        the domain and codomain indices of degree_matrix."""
        cod = [i for i, s in enumerate(self.row_shifts) if deg_leq(s, a)]
        dom = [j for j, s in enumerate(self.col_shifts) if deg_leq(s, a)]
        pos = {i: r for r, i in enumerate(cod)}
        cols = []
        for j in dom:
            col = {}
            for (i, e), c in self.cols[j].terms:
                if exp_add(e, self.row_shifts[i]) != self.col_shifts[j]:
                    raise ContractViolation("inhomogeneous column %d" % (j + 1))
                col[pos[i]] = c
            cols.append(col)
        return cols, dom, cod

    def degree_matrix(self, a):
        """Rows-over-field matrix of the degree-a piece of the map.

        Returns (rows, dom_index, cod_index): dom_index and cod_index list the
        components of the domain and codomain with a basis monomial in degree a.
        """
        cols, dom, cod = self._degree_columns(a)
        rows = [[self.ring.field.zero] * len(dom) for _ in cod]
        for cidx, col in enumerate(cols):
            for r, c in col.items():
                rows[r][cidx] = c
        return rows, dom, cod

    def degree_rank(self, a):
        """Exact rank of the degree-a piece of the map, by sparse exact
        elimination of its columns (the rank of the transpose)."""
        return _rank(self._degree_columns(a)[0])

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and self.ring == other.ring
            and self.row_shifts == other.row_shifts
            and self.col_shifts == other.col_shifts
            and self.cols == other.cols
        )

    def __repr__(self):
        return "GradedMatrix(%dx%d)" % (self.nrows, self.ncols)


def _gen_rows(gens, shifts, a, coords, field):
    """One coefficient row per generator with degree at most a."""
    pos = {m: k for k, m in enumerate(coords)}
    rows = []
    for w in gens:
        if w.is_zero:
            continue
        b = element_degree(w, shifts)
        if not deg_leq(b, a):
            continue
        shifted = w.mul_term(field.one, exp_sub(a, b))
        row = [field.zero] * len(coords)
        for mon, c in shifted.terms:
            row[pos[mon]] = c
        rows.append(row)
    return rows


def graded_dimension(v_gens, u_gens, shifts, a):
    """Exact dimension of the degree-a piece of the subquotient V/U.

    V is spanned by v_gens together with u_gens, U by u_gens alone; all
    generators must be homogeneous for the given ambient shifts. One sparse
    exact elimination takes the U rows first and then the v_gens rows: the
    dimension, rank(V) - rank(U), is the number of v_gens rows that still
    raise the rank. The echelon form does not depend on the pivot order, so
    neither does the count.
    """
    gens = [g for g in list(v_gens) + list(u_gens) if not g.is_zero]
    if not gens:
        return 0
    ring = gens[0].ring
    field = ring.field
    rank = gens[0].rank
    coords = [
        (i, exp_sub(a, shifts[i]))
        for i in range(rank)
        if deg_leq(shifts[i], a)
    ]
    if not coords:
        return 0
    v_rows = _sparse(_gen_rows(v_gens, shifts, a, coords, field))
    u_rows = _sparse(_gen_rows(u_gens, shifts, a, coords, field))
    pivots = {}
    for row in u_rows:
        _add_row(pivots, row)
    return sum(_add_row(pivots, row) for row in v_rows)


def presentation_dimension(mat, a):
    """Degree-a dimension of the cokernel of a graded matrix."""
    free_dim = sum(1 for s in mat.row_shifts if deg_leq(s, a))
    return free_dim - mat.degree_rank(a)
