"""Fine gradings: degrees, graded matrices, exact graded dimensions."""

import heapq
import operator
from itertools import product

from .elements import ModuleElement, exp_add, exp_divides, exp_lcm
from .errors import ContractViolation, InputError


# A degree a is <= b exactly when X^a divides X^b, and the join of two
# degrees is the exponent of the lcm of their monomials.
deg_leq, deg_join = exp_divides, exp_lcm


def deg_meet(a, b):
    """Componentwise minimum."""
    return tuple(min(x, y) for x, y in zip(a, b))


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


def _reduce_at(work, sig, lam, rank, index, vecs, degs, cap=None):
    """Reduce the sparse vector work in place at degree lam; return the
    remainder {row: coefficient}. Each step takes the lead r of work, its row
    of largest rank(r). With cap given, r is dropped when lam is not <= cap[r].
    Otherwise the divisor is the first column k of index[r] with degs[k] <= lam:
    work loses q = work[r] / vecs[k][r] times vecs[k], and sig[k] gains -q.
    With no such column, r moves to the remainder."""
    rem = {}
    while work:
        r = max(work, key=rank)
        if cap is not None and not deg_leq(lam, cap[r]):
            del work[r]
            continue
        k = next((k for k in index.get(r, ()) if deg_leq(degs[k], lam)), None)
        if k is None:
            rem[r] = work.pop(r)
            continue
        q = work[r] / vecs[k][r]
        _axpy(work, -q, vecs[k])
        sig[k] = sig[k] - q if k in sig else -q
    return rem


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


def _scalar_basis(rows, hi):
    """Scalar Groebner basis of the rows in every degree <= hi, as (index,
    vecs, degs) for _reduce_at, and the set raised of the positions of the
    rows that raised the rank.

    rows are (degree, {index: value}) pairs: fine-homogeneous elements of a
    free module, whose components each hold one monomial per degree, so the
    degree-a piece of the span of the rows of degree <= a is spanned by their
    scalar vectors. Order terms position over term, the lead of a vector
    being its smallest index. Rows and S-vectors are reduced by _reduce_at
    in order of total degree, and two basis elements of one lead give one
    S-vector at the join of their degrees when that join is <= hi and they
    are not both unit vectors (whose S-vector is zero). So every S-vector of
    degree <= a reduces to zero, and the basis elements of degree <= a are a
    Groebner basis in degree a, for any a <= hi. At one degree b the
    S-vectors come first, then the rows in their order: a row of degree b
    meets a basis of the rows of degree < b and the earlier ones of degree
    b, so it raises the rank exactly when it is not in their span. Ranks do
    not depend on this order.
    """
    heap = [(sum(d), d, 1, k, dict(vec)) for k, (d, vec) in enumerate(rows) if deg_leq(d, hi)]
    heapq.heapify(heap)
    count, index, vecs, degs, raised = 0, {}, [], [], set()
    while heap:
        _, lam, row, k, work = heapq.heappop(heap)
        rem = _reduce_at(work, {}, lam, operator.neg, index, vecs, degs)
        if not rem:
            continue
        if row:
            raised.add(k)
        c = min(rem)
        lead = rem[c]
        vec = {k: v / lead for k, v in rem.items()}
        for i in index.get(c, ()):
            join = deg_join(lam, degs[i])
            if deg_leq(join, hi) and len(vec) + len(vecs[i]) > 2:
                s = dict(vec)
                _axpy(s, -vec[c], vecs[i])
                heapq.heappush(heap, (sum(join), join, 0, count, s))
                count += 1
        index.setdefault(c, []).append(len(vecs))
        vecs.append(vec)
        degs.append(lam)
    return index, vecs, degs, raised


def _box_ranks(rows, lo, hi):
    """Rank of the rows of degree <= a, for each a in degrees_in_box(lo, hi):
    the number of distinct leads among the elements of degree <= a of their
    _scalar_basis, which _lead_counts counts."""
    index, _, degs, _ = _scalar_basis(rows, hi)
    yield from _lead_counts(((degs[k], i) for i, ks in enumerate(index.values()) for k in ks), lo, hi)


def _lead_counts(leads, lo, hi):
    """Number of distinct leads at or below each degree of degrees_in_box(lo,
    hi), for leads given as (degree, lead number) pairs, one per basis
    element. The leads at or below a degree of the box are one bitmask, the
    union of those of its predecessors along each axis and of the elements
    clamped to it (an element not <= hi clamps outside the box)."""
    own = {}  # degree clamped to lo -> bitmask of the leads of elements there
    for d, i in leads:
        d = deg_join(d, lo)
        own[d] = own.get(d, 0) | 1 << i
    strides = [1]
    for l, h in zip(lo, hi):
        strides.append(strides[-1] * (h - l + 1))
    active = []  # per degree of the box so far: bitmask of leads at or below it
    for a in degrees_in_box(lo, hi):
        m = own.get(a, 0)
        for x, l, step in zip(a, lo, strides):
            if x > l:
                m |= active[-step]
        active.append(m)
        yield m.bit_count()


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
    pivots = {}
    return sum(_add_row(pivots, r) for r in _sparse(rows))


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

    def _scalar_columns(self):
        """(column degree, {row: coefficient}) per column, the rows of
        _scalar_basis: a homogeneous column has one term per row it touches."""
        out = []
        for j, col in enumerate(self.cols):
            s = self.col_shifts[j]
            vec = {}
            for (i, e), c in col.terms:
                if exp_add(e, self.row_shifts[i]) != s:
                    raise ContractViolation("inhomogeneous column %d" % (j + 1))
                vec[i] = c
            out.append((s, vec))
        return out

    def is_homogeneous(self):
        """Return True when every column is homogeneous of its column degree."""
        try:
            self._scalar_columns()
        except ContractViolation:
            return False
        return True

    def degree_ranks(self, lo, hi):
        """Exact ranks of the degree-a pieces of the map, for each a in
        degrees_in_box(lo, hi), by _box_ranks on its scalar columns."""
        return _box_ranks(self._scalar_columns(), lo, hi)

    def degree_rank(self, a):
        """Exact rank of the degree-a piece of the map."""
        return next(self.degree_ranks(a, a))

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


def _element_rows(gens, shifts):
    """(degree, {component: coefficient}) per nonzero element, the rows of
    _scalar_basis; each element must be homogeneous for the shifts."""
    rows = []
    for w in gens:
        b = element_degree(w, shifts)
        if b is not None:
            rows.append((b, {i: c for (i, _), c in w.terms}))
    return rows


def graded_dimensions(v_gens, u_gens, shifts, lo, hi):
    """Exact dimensions of the subquotient V/U, for each a in degrees_in_box(lo, hi).

    V is spanned by v_gens together with u_gens, U by u_gens alone; all
    generators must be homogeneous for the given ambient shifts, and that is
    checked here, before any degree. Each dimension is rank(V) - rank(U),
    both counted by _box_ranks on the generators' coordinate rows.
    """
    v_rows = _element_rows(v_gens, shifts)
    u_rows = _element_rows(u_gens, shifts)
    ranks = zip(_box_ranks(v_rows + u_rows, lo, hi), _box_ranks(u_rows, lo, hi))
    return (rv - ru for rv, ru in ranks)


def graded_dimension(v_gens, u_gens, shifts, a):
    """Exact dimension of the degree-a piece of the subquotient V/U: the
    one-degree box a..a of graded_dimensions."""
    return next(graded_dimensions(v_gens, u_gens, shifts, a, a))


def presentation_dimension(mat, a):
    """Degree-a dimension of the cokernel of a graded matrix."""
    free_dim = sum(1 for s in mat.row_shifts if deg_leq(s, a))
    return free_dim - mat.degree_rank(a)
