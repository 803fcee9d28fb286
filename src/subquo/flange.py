"""Free-injective matrices: scalar presentations of modules inside cofree covers.

Column j is X^beta_j times a scalar vector, and every flange S-polynomial is
again a scalar column at one degree lam. The cofree relations X^(alpha_ik + 1)
e_i hold the term X^lam e_r exactly when lam is not in the box lam <= alpha_r.
So the flange commands run on {row: coefficient} vectors (_flange_pairs), and
monomial_division is the division of a general element.
"""

from collections import deque

from . import relative  # run on first use: the flange commands never call it
from .elements import ModuleElement, exp_sub
from .errors import ContractViolation, InputError
from .graded import GradedMatrix, _axpy, _reduce_at, deg_join, deg_leq


class FreeInjectiveMatrix:
    """Scalar matrix with cogenerator row degrees and generator column degrees."""

    __slots__ = ("ring", "alpha", "beta", "entries")

    def __init__(self, ring, alpha, beta, entries):
        self.ring = ring
        self.alpha = tuple(tuple(a) for a in alpha)
        self.beta = tuple(tuple(b) for b in beta)
        for d in self.alpha + self.beta:
            if len(d) != ring.n or any(x < 0 for x in d):
                raise InputError("bad row or column degree %s" % (d,))
        rows = [tuple(row) for row in entries]
        if len(rows) != len(self.alpha) or any(len(r) != len(self.beta) for r in rows):
            raise InputError(
                "entry grid does not match %dx%d" % (len(self.alpha), len(self.beta))
            )
        self.entries = tuple(rows)

    @property
    def nrows(self):
        return len(self.alpha)

    @property
    def ncols(self):
        return len(self.beta)

    def support_violations(self):
        """Entries (i, j) that are nonzero without beta_j <= alpha_i."""
        return [
            (i, j)
            for i in range(self.nrows)
            for j in range(self.ncols)
            if self.entries[i][j] and not deg_leq(self.beta[j], self.alpha[i])
        ]

    def column(self, j):
        """The j-th column as the element X^beta_j * sum_i a_ij e_i."""
        return ModuleElement(
            self.ring,
            self.nrows,
            {(i, self.beta[j]): row[j] for i, row in enumerate(self.entries) if row[j]},
        )

    def columns(self):
        """All columns as module elements."""
        return [self.column(j) for j in range(self.ncols)]

    def cofree_relations(self):
        """Monomials X^(alpha_ik + 1) e_i generating the cofree kernel."""
        out = []
        for i, a in enumerate(self.alpha):
            for k in range(self.ring.n):
                exp = tuple(a[k] + 1 if v == k else 0 for v in range(self.ring.n))
                out.append((i, k, ModuleElement.monomial(self.ring, self.nrows, i, exp)))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FreeInjectiveMatrix)
            and self.ring == other.ring
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.entries == other.entries
        )

    def __repr__(self):
        return "FreeInjectiveMatrix(%dx%d)" % (self.nrows, self.ncols)


def _require_supported(mat):
    bad = mat.support_violations()
    if bad:
        i, j = bad[0]
        raise ContractViolation(
            "entry (%d,%d) violates the support condition" % (i + 1, j + 1)
        )


def monomial_division(f, mat, order):
    """Divide any element f of the row module by the cofree relations and then
    the columns of mat, returning (remainder, quotients over the columns)."""
    cofree = [u for _, _, u in mat.cofree_relations()]
    return relative.relative_division(f, cofree, mat.columns(), order.for_rank(mat.nrows))


def _flange_pairs(mat, order, grow=False):
    """Build, divide and lift the flange pairs of mat on scalar columns.

    Yields (name, lam, rem, sig). ("cc", j1, j2) pairs two columns with the
    same leading row, j2 outer; then ("ct", i, j, k) pairs column j with the
    cofree relation of row i for variable k, j outer. Each S-polynomial is a
    scalar column at one degree lam, which graded._reduce_at, ranking rows by
    the comp_rank of order.for_rank(nrows) and capped by alpha, divides as
    divide(sp, cofree + columns, order) would: every term of sp and of each
    X^(lam - beta_j) * column j has exponent lam, so the module order ranks
    terms by row alone, under POT and TOP alike; and the cofree relations
    come first among the divisors, some relation of row r dividing the term
    (r, lam) exactly when lam is not <= alpha_r. So the remainder rem and
    sig, which maps column j to the coefficient of X^(lam - beta_j) in the
    pair's syzygy, are those of the general division. With grow, column
    pairs come j1 outer, and each nonzero remainder is appended as the
    column X^lam * rem, whose pairs are queued next.

    A ct pair reduces column j itself at lam: the entry of row i, which the
    cofree relation cancels, is one the cap drops anyway, since lam_k =
    alpha_ik + 1 > alpha_ik. So only the first ct pair of each (j, lam) is
    reduced and yielded, and its repeats are skipped, which changes no
    caller's output. Without grow a repeat would give the same (rem, sig).
    free_presentation keeps the first of equal relations, and a column's ct
    pairs run in (i, k) order, their sorted order, so the copy it keeps is
    the one yielded; is_groebner_form meets the same copy first. With grow,
    once the first remainder is appended as a column, a repeat reduces to
    zero: it takes the same steps down to the first row of that remainder,
    which the new column cancels, leaving nothing.
    """
    alpha, s, n, one = mat.alpha, mat.nrows, mat.ring.n, mat.ring.field.one
    rank = order.for_rank(s).comp_rank.__getitem__
    beta = list(mat.beta)
    cols = [{i: row[j] for i, row in enumerate(mat.entries) if row[j]} for j in range(mat.ncols)]
    leads = [max(v, key=rank) if v else None for v in cols]
    index, pairs = {}, []  # index: leading row -> its columns, in order
    for j, r in enumerate(leads):
        if r is not None:
            pairs.extend(("cc", d, j) for d in index.get(r, ()))
            index.setdefault(r, []).append(j)
    queue = deque(sorted(pairs) if grow else pairs)
    queue.extend(("ct", i, j, k) for j in range(len(cols)) for i in range(s) for k in range(n))
    reduced = set()  # (j, lam) of the ct pairs reduced so far
    while queue:
        name = queue.popleft()
        if name[0] == "cc":
            _, j1, j2 = name
            lam = deg_join(beta[j1], beta[j2])
            ratio = cols[j1][leads[j1]] / cols[j2][leads[j1]]
            vec, sig = dict(cols[j1]), {j1: one, j2: -ratio}
            _axpy(vec, -ratio, cols[j2])
        else:
            _, i, j, k = name
            lam = deg_join(beta[j], tuple(alpha[i][k] + 1 if v == k else 0 for v in range(n)))
            if (j, lam) in reduced:
                continue
            reduced.add((j, lam))
            vec, sig = dict(cols[j]), {j: one}
        rem = _reduce_at(vec, sig, lam, rank, index, cols, beta, alpha)
        if grow and rem:
            new, r = len(cols), max(rem, key=rank)
            beta.append(lam)
            cols.append(rem)
            leads.append(r)
            queue.extend(("cc", d, new) for d in index.get(r, ()))
            queue.extend(("ct", i, new, k) for i in range(s) for k in range(n))
            index.setdefault(r, []).append(new)
        yield name, lam, rem, sig


def buchberger_flange(mat, order):
    """Complete a free-injective matrix until it is in Groebner form.

    New columns are appended exactly as the reduction remainders arise, so the
    input columns are preserved as a prefix.
    """
    _require_supported(mat)
    zero = mat.ring.field.zero
    beta, rows = list(mat.beta), [list(row) for row in mat.entries]
    for _, lam, rem, _ in _flange_pairs(mat, order, grow=True):
        if rem:
            beta.append(lam)
            for i, row in enumerate(rows):
                row.append(rem.get(i, zero))
    return FreeInjectiveMatrix(mat.ring, mat.alpha, beta, rows)


def _witness(name, ring):
    """Describe a flange pair named as in _flange_pairs."""
    if name[0] == "cc":
        return "S-polynomial of columns %d and %d" % (name[1] + 1, name[2] + 1)
    _, i, j, k = name
    text = "S-polynomial of column %d and the cofree relation in row %d for %s"
    return text % (j + 1, i + 1, ring.names[k])


def is_groebner_form(mat, order):
    """Check all flange S-polynomials reduce to zero; returns (ok, witness)."""
    _require_supported(mat)
    for name, _, rem, _ in _flange_pairs(mat, order):
        if rem:
            return False, _witness(name, mat.ring)
    return True, None


def free_presentation(mat, order):
    """Presentation matrix of the module cut out by a matrix in Groebner form.

    Rows are indexed by the columns of mat; each output column sigma encodes a
    relation sum(sigma_j * column_j) lying in the cofree kernel. The unit
    relation e_j in degree beta_j of each zero column j comes first, then the
    column-pair relations, then the column-relation ones ordered by row; zero
    and repeated relations are dropped, and so are the multiples of the unit
    relations (a relation on zero columns only). A pair that does not reduce
    to zero raises ContractViolation with the witness of is_groebner_form.
    """
    _require_supported(mat)
    ring = mat.ring
    zero = {j for j in range(mat.ncols) if not any(row[j] for row in mat.entries)}
    lifted = {}
    for name, lam, rem, sig in _flange_pairs(mat, order):
        if rem:
            raise ContractViolation("matrix is not in Groebner form: %s" % _witness(name, ring))
        if sig.keys() <= zero:
            continue  # a multiple of the unit relations, which come first
        terms = {(j, exp_sub(lam, mat.beta[j])): c for j, c in sig.items()}
        lifted[name] = ModuleElement(ring, mat.ncols, terms), lam
    names = [nm for nm in lifted if nm[0] == "cc"] + sorted(nm for nm in lifted if nm[0] == "ct")
    units = [(ModuleElement.monomial(ring, mat.ncols, j, (0,) * ring.n), mat.beta[j]) for j in sorted(zero)]
    out, out_deg, seen = [], [], set()
    for sig, lam in units + [lifted[nm] for nm in names]:
        if not sig.is_zero and sig not in seen:
            seen.add(sig)
            out.append(sig)
            out_deg.append(lam)
    return GradedMatrix(ring, mat.beta, out_deg, out)
