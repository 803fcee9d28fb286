"""Homology presentations, free resolutions, pruning and diagram realizations."""

import operator
from functools import reduce

from . import groebner, relative  # run on first use: verify, minimize and betti never call them
from .elements import ModuleElement, exp_add, exp_sub
from .errors import ContractViolation, InputError
from .graded import (
    GradedMatrix, _add_row, _axpy, _box_ranks, _element_rows, _lead_counts, _reduce_at, _scalar_basis, deg_join,
    deg_leq, deg_meet, degrees_in_box, element_degree, graded_dimensions, is_homogeneous, monomialize,
)
from .orders import ModuleOrder, default_order


def kernel_of_free_map(mat, order):
    """Reduced Groebner basis of the kernel of the map given by a graded matrix.

    With r rows and m columns c_j, the graph module M in R^(r+m) is spanned
    by the elements (c_j, e_j): column j plus a unit in component r + j. A
    vector (v, w) lies in M exactly when v = D w, so M meets the last m
    components in 0 + ker D. Its Groebner basis G is taken under POT with
    the r row components above the m new ones (Greuel and Pfister, A
    Singular Introduction to Commutative Algebra, ch. 2). An element whose
    lead lies in a new component is then zero in every row, and the lead
    of each element of 0 + ker D is divisible by the lead of an element of
    G in the same component. So the elements of G with lead component at
    least r, shifted down to R^m, are a Groebner basis of ker D in POT
    desc. That order differs from order.for_rank(m) under TOP, "asc" or a
    permutation, so they are completed again in it before reduction.
    """
    ring, r, m = mat.ring, mat.nrows, len(mat.cols)
    one, zero_exp = ring.field.one, (0,) * ring.n
    graph = [ModuleElement(ring, r + m, {**dict(c.terms), (r + j, zero_exp): one}) for j, c in enumerate(mat.cols)]
    gorder = ModuleOrder(order.base, "pot", r + m, "desc")
    ker = [ModuleElement(ring, m, {(comp - r, e): cf for (comp, e), cf in g.terms})
           for g in groebner.buchberger(graph, gorder) if g.leading(gorder)[0][0] >= r]
    korder = order.for_rank(m)
    return groebner.reduce_groebner(groebner.buchberger(ker, korder), korder)


class Resolution:
    """Chain of graded presentation matrices over an ambient subquotient.

    gens are ambient module elements generating V on top of the inner
    submodule spanned by u_gens; diffs[0] presents them and each later
    differential presents the columns of the one before it.
    """

    __slots__ = ("ring", "order", "ambient_shifts", "u_gens", "gens", "diffs", "minimized")

    def __init__(self, ring, order, ambient_shifts, u_gens, gens, diffs, minimized=False):
        self.ring = ring
        self.order = order
        self.ambient_shifts = tuple(tuple(s) for s in ambient_shifts)
        self.u_gens = list(u_gens)
        self.gens = list(gens)
        self.diffs = list(diffs)
        self.minimized = minimized

    @property
    def gen_degrees(self):
        return tuple(element_degree(g, self.ambient_shifts) for g in self.gens)

    def gens_matrix(self):
        """The generators packed as a graded matrix from F0 to the ambient module."""
        return GradedMatrix(self.ring, self.ambient_shifts, self.gen_degrees, self.gens)

    def level_degrees(self, i):
        """Column degrees of the level-i free module (level 0 lists generators)."""
        return self.gen_degrees if i == 0 else self.diffs[i - 1].col_shifts

    def __repr__(self):
        shape = ",".join(str(len(self.level_degrees(i))) for i in range(len(self.diffs) + 1))
        return "Resolution(levels=%s, minimized=%r)" % (shape, self.minimized)


def _inner_basis(u_gens, order):
    """Reduced Groebner basis of the inner submodule."""
    return groebner.reduce_groebner(groebner.buchberger(u_gens, order), order)


def _graded_inner_basis(u_gens, order, shifts):
    """Reduced Groebner basis of the inner submodule, which must be graded
    for the shifts: its reduced basis is homogeneous exactly when it is."""
    g_u = _inner_basis(u_gens, order)
    for g in g_u:
        if not is_homogeneous(g, shifts):
            raise InputError("inner module element %r is not homogeneous" % g)
    return g_u


def homology_presentation(d1, p, d2, order):
    """Present the middle homology of F1 -> F0 -> F2' induced through p.

    d1 maps F1 into F0, p projects F1 onto the ambient free module of the
    homology, and the columns of d2 span the inner submodule there, which
    must be graded for p's row shifts; that is checked before the kernel of
    d1 is computed. The result is the first level of free_resolution of
    p(ker d1) over it.
    """
    if p.ncols != d1.ncols:
        raise InputError("projection must share its domain with the inner map")
    if d2.nrows != p.nrows:
        raise InputError("boundary columns must live in the codomain of the projection")
    for name, m in (("D1", d1), ("P", p), ("D2", d2)):
        if not m.is_homogeneous():
            raise InputError("matrix %s is not homogeneous" % name)
    aorder = order.for_rank(p.nrows)
    g_u = _graded_inner_basis(d2.cols, aorder, p.row_shifts)
    v_gens = [p.apply(k) for k in kernel_of_free_map(d1, order)]
    return _resolve(p.ring, v_gens, g_u, order, aorder, p.row_shifts, 1)


def free_resolution(v_gens, u_gens, order, shifts=None, length=None):
    """Resolution of the subquotient spanned by v_gens over the inner submodule."""
    if length is not None and length < 0:
        raise InputError("length must be >= 0, got %d" % length)
    gens = list(v_gens) + list(u_gens)
    pool = [g for g in gens if not g.is_zero]
    if not pool:
        raise InputError("no nonzero generators given")
    ring, rank = pool[0].ring, pool[0].rank
    if any(g.rank != rank for g in gens):
        raise InputError("generators must all have rank %d, the rank of the first nonzero one" % rank)
    shifts = ((0,) * ring.n,) * rank if shifts is None else shifts
    if len(shifts) != rank or any(len(s) != ring.n for s in shifts):
        raise InputError("need %d ambient shifts of %d entries, one per component" % (rank, ring.n))
    aorder = order.for_rank(rank)
    g_u = _graded_inner_basis(u_gens, aorder, shifts)
    return _resolve(ring, v_gens, g_u, order, aorder, shifts, length)


def _resolve(ring, v_gens, g_u, order, aorder, shifts, length):
    """free_resolution over the graded inner basis g_u, with aorder the
    order at the rank of the ambient module. _element_rows checks h to be
    homogeneous, and each level is one _level_syzygies pass on scalar rows.
    Level 0 is the relative pass: g_u's rows are trailing divisors, each
    syzygy is projected onto h, and every pair is kept, as D1's full frame."""
    h = relative.reduce_relative(relative.relative_buchberger(v_gens, g_u, aorder), g_u, aorder)
    res = Resolution(ring, order, shifts, g_u, h, [])
    rows, inner, comps = _element_rows(h, shifts), _element_rows(g_u, shifts), [(c, ()) for c in range(len(shifts))]
    limit = ring.n + 1 if length is None else length
    while rows and len(res.diffs) < limit:
        first, degs = not res.diffs, [d for d, _ in rows]
        rows, comps = _level_syzygies(rows, comps, aorder, shifts, ring.field.one, inner if first else [], first)
        if rows:
            cols = [ModuleElement(ring, len(degs), {(k, exp_sub(lam, degs[k])): a for k, a in v.items()}) for lam, v in rows]
            res.diffs.append(GradedMatrix(ring, degs, [lam for lam, _ in rows], cols))
    return res


def _level_syzygies(rows, comps, order, shifts, one, inner, every):
    """Schreyer syzygies of one level's homogeneous columns, given as scalar
    rows (degree, {component: coeff}) (a component of shift s holds only
    x^(d - s) in degree d; see graded._scalar_basis): term for term those of
    relative_schreyer(cols, g_u, order) with inner the rows of g_u and
    every set, and of schreyer_syzygies(cols, sord, minimal=True) with no
    inner rows and every unset. comps[c] = (b, ties) is component c's flat
    Schreyer lift (see orders.SchreyerOrder; the ambient module's are (c,
    ())), so its key in degree d is (order.key((b, d - shifts[b])), ties),
    the first part cached per (b, d). The inner rows are trailing divisors:
    a pair (i, j), i < j, of one lead component is formed only for a column
    i, as g_u is a Groebner basis. It lives at lam = deg_join(d_i, d_j);
    its syzygy's lead x^(lam - d_i) e_i has the key of the pair's lead
    component at lam, and divides another lead of i when its lam is <= the
    other's, so _schreyer's sort and pick take one key per pair. With
    every, all pairs are kept, else the minimal ones. A kept pair,
    v_i/lc_i minus v_j/lc_j, is reduced by graded._reduce_at under that key
    at lam, over the columns, then the inner rows, so each divisor is
    _divide's, and its syzygy is projected onto the columns. Returns the
    next level's rows and comps: column i lifts to (b of its lead, ties +
    (-i,)).
    """
    t = len(rows)
    degs, vecs = zip(*(rows + inner))
    keys = {}

    def rank(c, lam):  # the flat Schreyer key of component c in degree lam
        b, ties = comps[c]
        k = keys.get((b, lam))
        if k is None:
            k = keys[b, lam] = order.key((b, exp_sub(lam, shifts[b])))
        return k, ties

    leads = [max(v, key=lambda c: rank(c, d)) for v, d in zip(vecs, degs)]
    index, pairs = {}, []
    for j, c in enumerate(leads):
        for i in index.get(c, ()):
            if i < t:
                lam = deg_join(degs[i], degs[j])
                pairs.append((i, rank(c, lam)[0], j, lam))
        index.setdefault(c, []).append(j)
    pairs.sort()
    kept, out = {}, []  # kept: i -> the lams of its kept pairs
    for i, _, j, lam in pairs:
        lams = kept.setdefault(i, [])
        if not every and any(deg_leq(m, lam) for m in lams):
            continue
        lams.append(lam)
        sig = {i: one / vecs[i][leads[i]], j: -one / vecs[j][leads[j]]}
        work = {c: sig[i] * a for c, a in vecs[i].items()}
        _axpy(work, sig[j], vecs[j])
        if _reduce_at(work, sig, lam, lambda c: rank(c, lam), index, vecs, degs):
            msg = "input is not a Groebner basis: S-polynomial of elements %d and %d does not reduce to zero"
            raise ContractViolation(msg % (i + 1, j + 1))
        out.append((lam, {k: a for k, a in sig.items() if k < t and a}))
    return out, [(comps[c][0], comps[c][1] + (-i,)) for i, c in enumerate(leads[:t])]


def prune_minimize(res):
    """Minimize a resolution by cancelling constant entries, then dropping
    redundant columns of the last differential and normalizing leads (a
    zero column has none and is left as it is). Every generator and every
    differential must be homogeneous, which is checked before any cancellation.

    A free component of shift s holds one monomial per fine degree (see
    graded._scalar_basis), so a homogeneous column is its scalar vector
    {row: coeff}, and entry (i, j) is constant exactly when row i and column
    j have the same shift. Cancellation works in place on these vectors,
    under their original indices, with one alive set per free module (F_0
    holds the generators, F_k the columns of D_k). In D_(k+1) the pivot is a
    constant entry a at the lowest alive row r, then the lowest alive column
    c. Every other alive column l with entry b in row r loses b/a times
    column c (times the monomial of their degree difference), and r and c
    die. That replaces e_l by e_l - (b/a)*x^d*e_c in F_(k+1), which changes
    D_(k+2) only in coordinate e_c, dead with c. Survivors are renumbered
    once, in order, at the end, so the pivots are those of dropping each pair
    as it is cancelled. The lowest alive row of a constant entry is kept per
    column and refreshed only for the columns a cancellation touched; the
    pivot is the least (row, column) among them.

    The last differential keeps the columns that raise the rank in
    graded._scalar_basis of their vectors, in order (if every column is
    zero, the first is kept): column j of degree b is dropped exactly when
    its vector lies in the span of the columns of degree < b and the earlier
    ones of degree b. A homogeneous element of degree b lies in the module
    of the columns exactly when its vector lies in the span of those of
    degree <= b, so by induction on b the kept columns generate that module
    minimally (graded Nakayama): none lies in the module of the others.
    """
    ring = res.ring
    for j, g in enumerate(res.gens):
        if not is_homogeneous(g, res.ambient_shifts):
            raise ContractViolation("generator %d is not homogeneous" % (j + 1))
    sparse = []
    for idx, d in enumerate(res.diffs):
        try:
            sparse.append([vec for _, vec in d._scalar_columns()])
        except ContractViolation:
            raise ContractViolation("differential %d is not homogeneous" % (idx + 1)) from None
    alive = [set(range(len(res.gens)))] + [set(range(d.ncols)) for d in res.diffs]
    for d, cols, rows, live in zip(res.diffs, sparse, alive, alive[1:]):
        def lowest(c):  # the lowest alive row of a constant entry in column c, or None
            return min((i for i in cols[c] if i in rows and d.row_shifts[i] == d.col_shifts[c]), default=None)

        low = {c: r for c in live if (r := lowest(c)) is not None}
        while low:
            r, c = min((r, c) for c, r in low.items())
            del low[c]
            a = cols[c][r]
            rows.remove(r)
            live.remove(c)
            for l in live:
                if r in cols[l]:
                    _axpy(cols[l], -cols[l][r] / a, cols[c])
                    low[l] = lowest(l)
                    if low[l] is None:
                        del low[l]
    keep = [sorted(s) for s in alive]
    while len(keep) > 1 and not keep[-1]:
        keep.pop()
    if not keep[0]:
        del keep[1:]
    if len(keep) > 1:  # the redundant-column pass on the last differential
        k, last = len(keep) - 2, keep[-1]
        vecs = [(res.diffs[k].col_shifts[j], {i: v for i, v in sparse[k][j].items() if i in alive[k]}) for j in last]
        raised = _scalar_basis(vecs, reduce(deg_join, (d for d, _ in vecs)))[3]
        keep[-1] = [j for p, j in enumerate(last) if p in raised] or last[:1]
    one, leads, diffs = ring.field.one, None, []
    for d, cols, rows, live in zip(res.diffs, sparse, keep, keep[1:]):
        pos = {i: r for r, i in enumerate(rows)}
        # dividing column c of D_k by its lead multiplies row c of D_(k+1) by it
        mat = [
            ModuleElement(ring, len(rows), {
                (pos[i], exp_sub(d.col_shifts[j], d.row_shifts[i])): v * leads[pos[i]] if leads else v
                for i, v in cols[j].items() if i in pos
            })
            for j in live
        ]
        mo = res.order.for_rank(len(rows))
        leads = [one if w.is_zero else w.leading(mo)[1] for w in mat]
        mat = [w if lc == one else w.scale(one / lc) for w, lc in zip(mat, leads)]
        diffs.append(GradedMatrix(ring, [d.row_shifts[i] for i in rows], [d.col_shifts[j] for j in live], mat))
    gens = [res.gens[j] for j in keep[0]]
    return Resolution(ring, res.order, res.ambient_shifts, res.u_gens, gens, diffs, minimized=True)


def betti_numbers(res):
    """Multigraded-module Betti numbers read off a minimized resolution."""
    if not res.minimized:
        raise ContractViolation("Betti numbers require a minimized resolution")
    return tuple([len(res.gens)] + [d.ncols for d in res.diffs])


class VectorDiagram:
    """Finite diagram of vector spaces on Z^n with commuting variable actions."""

    __slots__ = ("ring", "dims", "maps")

    def __init__(self, ring, dims, maps):
        self.ring = ring
        self.dims = {tuple(a): d for a, d in dims.items() if d}
        self.maps = {}
        for (k, a), rows in maps.items():
            a = tuple(a)
            tgt = exp_add(a, self._unit(k))
            da, dt = self.dims.get(a, 0), self.dims.get(tgt, 0)
            rows = [tuple(r) for r in rows]
            if len(rows) != dt or any(len(r) != da for r in rows):
                raise InputError(
                    "map %d at %s must be %dx%d" % (k + 1, (a,), dt, da)
                )
            if da and dt:
                self.maps[(k, a)] = tuple(rows)
        for a, d in self.dims.items():
            if d < 0 or any(x < 0 for x in a):
                raise InputError("dimensions must sit at non-negative degrees")
        self._check_commuting()

    def _unit(self, k):
        return tuple(1 if v == k else 0 for v in range(self.ring.n))

    def dim(self, a):
        return self.dims.get(tuple(a), 0)

    def map(self, k, a):
        """Action of variable k out of degree a as a rows list."""
        a = tuple(a)
        da = self.dim(a)
        dt = self.dim(exp_add(a, self._unit(k)))
        got = self.maps.get((k, a))
        if got is not None:
            return [list(r) for r in got]
        zero = self.ring.field.zero
        return [[zero] * da for _ in range(dt)]

    def support_join(self):
        return reduce(deg_join, self.dims) if self.dims else None

    def _act(self, k, a, vec):
        """Action of variable k on a sparse {coordinate: value} vector of the
        fiber at degree a; a missing map, or a zero fiber, acts as zero."""
        rows = self.maps.get((k, a))
        if rows is None or not vec:
            return {}
        zero = self.ring.field.zero
        out = {}
        for r, row in enumerate(rows):
            v = sum((row[c] * x for c, x in vec.items()), zero)
            if v:
                out[r] = v
        return out

    def _check_commuting(self):
        one = self.ring.field.one
        for a, d in self.dims.items():
            for k in range(self.ring.n):
                for l in range(k + 1, self.ring.n):
                    ak = exp_add(a, self._unit(k))
                    al = exp_add(a, self._unit(l))
                    for j in range(d):
                        e = {j: one}
                        if self._act(l, ak, self._act(k, a, e)) != self._act(k, al, self._act(l, a, e)):
                            raise InputError(
                                "diagram does not commute at degree %s on %s, %s"
                                % ((a,), self.ring.names[k], self.ring.names[l])
                            )


def module_from_diagram(diag):
    """Realize a diagram M as a subquotient V/U of a free module R^s.

    Returns (v_gens, u_gens): v_gens[i] = x^(b_i) e_i, the generators
    numbered by (total degree, reversed degree, coordinate), and u_gens the
    reduced Groebner basis of the kernel U of F = sum_i R(-b_i) -> M,
    shifted into R^s by monomialize.

    One walk over degrees_in_box(0, hi + 1), hi the join of the support,
    reaches each a - e_k before a. At a, the image of every generator live
    at some a - e_k is carried up by x_k (the diagram commutes, so any such
    k will do), and the fiber coordinates outside the span of those images
    become new generators, greedily. One echelon form over the rows (0 | w),
    w in the kernels at the a - e_k, then (image | e_i) per live generator
    i, holds U_a in its pivots past dim M_a; the ones the rows (image | e_i)
    add span U_a modulo sum_k x_k U_(a - e_k), and only those are completed.
    They generate the same U as all kernel vectors of the box, and the
    reduced Groebner basis of U is unique, so the output is the same.
    """
    ring = diag.ring
    one = ring.field.one
    hi = diag.support_join()
    if hi is None:
        raise InputError("diagram has no nonzero fibers")
    gens, new, images, kernels = [], [], {}, {}  # gens[i] = (b_i, coordinate), new = [(a, {i: coeff})]
    for a in degrees_in_box((0,) * ring.n, exp_add(hi, (1,) * ring.n)):
        da = diag.dim(a)
        here, below = {}, []
        for k in range(ring.n):
            if a[k]:
                src = exp_sub(a, diag._unit(k))
                for i, vec in images[src].items():
                    if i not in here:
                        here[i] = diag._act(k, src, vec)
                below.extend(kernels[src])
        span = {}
        for vec in here.values():
            _add_row(span, dict(vec))
        for idx in range(da):
            if _add_row(span, {idx: one}):
                here[len(gens)] = {idx: one}
                gens.append((a, idx))
        pivots = {}
        for w in below:
            _add_row(pivots, {da + i: v for i, v in w.items()})
        old = set(pivots)
        for i, vec in here.items():
            _add_row(pivots, {**vec, da + i: one})
        kern = {c: {c - da: one, **{j - da: v for j, v in t.items()}} for c, t in pivots.items() if c >= da}
        kernels[a] = list(kern.values())
        new += [(a, w) for c, w in kern.items() if c not in old]
        images[a] = here
    s = len(gens)
    perm = sorted(range(s), key=lambda i: (sum(gens[i][0]), tuple(reversed(gens[i][0])), gens[i][1]))
    pos = {i: r for r, i in enumerate(perm)}
    bdegs = [gens[i][0] for i in perm]
    kernel = [ModuleElement(ring, s, {(pos[i], exp_sub(a, gens[i][0])): v for i, v in w.items()}) for a, w in new]
    order = default_order(ring, s)
    u_gens = [monomialize(g, bdegs) for g in _inner_basis(kernel, order)]
    v_gens = [ModuleElement.monomial(ring, s, i, b) for i, b in enumerate(bdegs)]
    return v_gens, u_gens


def _verify_degree(a, dims, ranks, want):
    """Exactness checks for one degree, returning a list of failures.

    dims are the dimensions of the levels at a, ranks those of the
    differentials, and want is the dimension of the module.
    """
    msgs = []
    have = dims[0] - (ranks[0] if ranks else 0)
    if have != want:
        msgs.append(
            "degree %s: presentation gives dimension %d, module has %d"
            % ((a,), have, want)
        )
    for i in range(len(ranks)):
        ker = dims[i + 1] - ranks[i]
        nxt = ranks[i + 1] if i + 1 < len(ranks) else 0
        if ker != nxt:
            msgs.append(
                "degree %s: level %d kernel has dimension %d, level %d image %d"
                % ((a,), i + 1, ker, i + 2, nxt)
            )
    return msgs


def verify_complex(res, box=None):
    """Check a resolution is an exact graded complex; returns (ok, report).

    Generators, inner generators and differentials must be homogeneous, and
    the rows of each differential repeat the degrees of the level before, as
    parse_resolution_file checks. So with D0 the generators, D_i after a
    degree-b column {j: a_j} of D_{i+1} is the degree-b element whose scalar
    vector is the sum of a_j times column j of D_i (see graded._scalar_basis).
    For i = 0 it must lie in U: reduce to zero at b by one scalar basis of
    U's generators, up to the join of D1's degrees; later composites vanish.
    Then each degree of the box is checked by ranks.
    """
    report = []
    shifts = res.ambient_shifts
    try:
        _element_rows(res.gens, shifts)
        u_rows = _element_rows(res.u_gens, shifts)
    except InputError as err:
        return False, [str(err)]
    cols = []
    for i, d in enumerate(res.diffs):
        try:
            cols.append(d._scalar_columns())
        except ContractViolation:
            report.append("differential %d is not homogeneous" % (i + 1))
    if report:
        return False, report

    def composite(vec, targets):
        out = {}
        for j, a in vec.items():
            _axpy(out, a, targets[j])
        return out

    if res.gens and cols and cols[0]:
        gens = [{i: c for (i, _), c in g.terms} for g in res.gens]
        basis = _scalar_basis(u_rows, reduce(deg_join, (b for b, _ in cols[0])))[:3]
        for j, (b, vec) in enumerate(cols[0]):
            if _reduce_at(composite(vec, gens), {}, b, operator.neg, *basis):
                report.append("composite of generators with differential 1 misses the inner module in column %d" % (j + 1))
    for i in range(len(cols) - 1):
        targets = [vec for _, vec in cols[i]]
        if any(composite(vec, targets) for _, vec in cols[i + 1]):
            report.append("differentials %d and %d do not compose to zero" % (i + 1, i + 2))
    if report:
        return False, report
    levels = [res.gen_degrees] + [d.col_shifts for d in res.diffs]
    if box is None:
        degs = [s for level in levels for s in level] + [b for b, _ in u_rows] + list(shifts)
        lo, hi = reduce(deg_meet, degs), exp_add(reduce(deg_join, degs), (1,) * res.ring.n)
    else:
        lo, hi = box
    # One rank stream per level (the identity of its free module), per
    # differential and for the module, all in degrees_in_box order. The unit
    # rows (s_j, {j: 1}) of a level have distinct leads j: they are their own
    # basis, so its rank at a counts the shifts s_j <= a.
    streams = [_lead_counts(((s, j) for j, s in enumerate(degs)), lo, hi) for degs in levels]
    streams += [_box_ranks(c, lo, hi) for c in cols]
    wants = graded_dimensions(res.gens, res.u_gens, shifts, lo, hi)
    for a, want, *counts in zip(degrees_in_box(lo, hi), wants, *streams):
        report.extend(_verify_degree(a, counts[: len(levels)], counts[len(levels):], want))
    return not report, report
