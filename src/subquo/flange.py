"""Free-injective matrices: scalar presentations of modules inside cofree covers."""

from collections import deque

from .elements import ModuleElement, exp_sub, format_element
from .errors import ContractViolation, InputError
from .graded import GradedMatrix, deg_join, deg_leq, normalize_shifts
from .groebner import _lift
from .relative import relative_division


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


def fi_normalize(mat):
    """Zero out entries violating the support condition beta_j <= alpha_i."""
    bad = set(mat.support_violations())
    zero = mat.ring.field.zero
    rows = [
        [zero if (i, j) in bad else mat.entries[i][j] for j in range(mat.ncols)]
        for i in range(mat.nrows)
    ]
    return FreeInjectiveMatrix(mat.ring, mat.alpha, mat.beta, rows)


def _require_supported(mat):
    bad = mat.support_violations()
    if bad:
        i, j = bad[0]
        raise ContractViolation(
            "entry (%d,%d) violates the support condition; normalize the matrix first"
            % (i + 1, j + 1)
        )


def _setup(mat, order):
    """The order on the row module, the cofree relations and the columns of mat."""
    return order.for_rank(mat.nrows), [u for _, _, u in mat.cofree_relations()], mat.columns()


def monomial_division(f, mat, order):
    """Divide f by the cofree relations and then the columns of mat."""
    order, ge, cols = _setup(mat, order)
    return relative_division(f, ge, cols, order)


def _spair(name, ring, alpha, beta, rows, cols, order):
    """S-polynomial of one flange pair as (sp, lam, sig), or None.

    name is ("cc", j1, j2) for two columns, or ("ct", i, j, k) for column j
    against the cofree relation of row i for variable k. lam is the pair's
    degree; sig maps (column, exponent) to coefficient for the pair's own
    syzygy terms. Columns in different components, or zero, form no pair.
    """
    one = ring.field.one
    if name[0] == "cc":
        _, j1, j2 = name
        if cols[j1].is_zero or cols[j2].is_zero:
            return None
        (m1, c1), (m2, c2) = cols[j1].leading(order), cols[j2].leading(order)
        if m1[0] != m2[0]:
            return None
        lam = deg_join(beta[j1], beta[j2])
        d1, d2, ratio = exp_sub(lam, beta[j1]), exp_sub(lam, beta[j2]), c1 / c2
        sp = cols[j1].mul_term(one, d1) - cols[j2].mul_term(ratio, d2)
        return sp, lam, {(j1, d1): one, (j2, d2): -ratio}
    _, i, j, k = name
    lam = deg_join(beta[j], tuple(alpha[i][k] + 1 if v == k else 0 for v in range(ring.n)))
    terms = {(i2, lam): row[j] for i2, row in enumerate(rows) if i2 != i and row[j]}
    return ModuleElement(ring, len(alpha), terms), lam, {(j, exp_sub(lam, beta[j])): one}


def _scalar_column(p, nrows, field):
    """Read a remainder as (degree, coefficient vector), or raise."""
    exps = {e for (_, e), _ in p.terms}
    if len(exps) != 1:
        raise ContractViolation("remainder %s is not a scalar column" % format_element(p))
    lam = exps.pop()
    col = [field.zero] * nrows
    for (i, _), c in p.terms:
        col[i] = c
    return lam, col


def buchberger_flange(mat, order):
    """Complete a free-injective matrix until it is in Groebner form.

    New columns are appended exactly as the reduction remainders arise, so the
    input columns are preserved as a prefix.
    """
    _require_supported(mat)
    ring, field = mat.ring, mat.ring.field
    order, ge, cols = _setup(mat, order)
    rows = [list(r) for r in mat.entries]
    beta = list(mat.beta)
    s, n = mat.nrows, ring.n

    def triples_for(j):
        return [("ct", i, j, k) for i in range(s) for k in range(n)]

    queue = deque(
        ("cc", j1, j2)
        for j1, j2 in sorted((a, b) for b in range(len(beta)) for a in range(b))
    )
    for j in range(len(beta)):
        queue.extend(triples_for(j))
    while queue:
        got = _spair(queue.popleft(), ring, mat.alpha, beta, rows, cols, order)
        if got is None or got[0].is_zero:
            continue
        p, _ = relative_division(got[0], ge, cols, order)
        if p.is_zero:
            continue
        lam, vec = _scalar_column(p, s, field)
        for i in range(s):
            rows[i].append(vec[i])
        beta.append(lam)
        cols.append(p)
        new = len(beta) - 1
        queue.extend(("cc", j, new) for j in range(new))
        queue.extend(triples_for(new))
    return FreeInjectiveMatrix(ring, mat.alpha, beta, rows)


def _flange_pairs(mat, cols, order):
    """Flange S-pairs of mat in checking order, as (name, sp, lam, sig).

    Column pairs come first, j2 outer; then each column j against the cofree
    relations, j outer, then row i and variable k. See _spair.
    """
    names = [("cc", j1, j2) for j2 in range(mat.ncols) for j1 in range(j2)]
    for j in range(mat.ncols):
        names += [("ct", i, j, k) for i in range(mat.nrows) for k in range(mat.ring.n)]
    for name in names:
        got = _spair(name, mat.ring, mat.alpha, mat.beta, mat.entries, cols, order)
        if got is not None:
            yield (name,) + got


def _witness(name, ring):
    """Describe a flange S-pair named as in _spair."""
    if name[0] == "cc":
        return "S-polynomial of columns %d and %d" % (name[1] + 1, name[2] + 1)
    _, i, j, k = name
    text = "S-polynomial of column %d and the cofree relation in row %d for %s"
    return text % (j + 1, i + 1, ring.names[k])


def is_groebner_form(mat, order):
    """Check all flange S-polynomials reduce to zero; returns (ok, witness)."""
    _require_supported(mat)
    order, ge, cols = _setup(mat, order)
    for name, sp, _, _ in _flange_pairs(mat, cols, order):
        if not sp.is_zero and not relative_division(sp, ge, cols, order)[0].is_zero:
            return False, _witness(name, mat.ring)
    return True, None


def free_presentation(mat, order):
    """Presentation matrix of the module cut out by a matrix in Groebner form.

    Rows are indexed by the columns of mat; each output column sigma encodes a
    relation sum(sigma_j * column_j) lying in the cofree kernel. Column-pair
    relations come first, then column-relation ones ordered by row; zero and
    repeated relations are dropped. A pair that does not reduce to zero
    raises ContractViolation with the witness of is_groebner_form.
    """
    _require_supported(mat)
    ring = mat.ring
    order, ge, cols = _setup(mat, order)
    lifted = {}
    for name, sp, lam, sig in _flange_pairs(mat, cols, order):
        sig = _lift(
            sig, mat.ncols, sp, ge + cols, order,
            lambda: "matrix is not in Groebner form: %s" % _witness(name, ring),
            skip=len(ge),
        )
        lifted[name] = sig, lam
    names = [nm for nm in lifted if nm[0] == "cc"] + sorted(nm for nm in lifted if nm[0] == "ct")
    out, out_deg, seen = [], [], set()
    for nm in names:
        sig, lam = lifted[nm]
        if not sig.is_zero and sig not in seen:
            seen.add(sig)
            out.append(sig)
            out_deg.append(lam)
    return GradedMatrix(ring, mat.beta, out_deg, out)


def matlis_transpose(mat):
    """Transpose swapping generator and cogenerator roles, with degrees reflected."""
    raw_alpha = [tuple(-x for x in b) for b in mat.beta]
    raw_beta = [tuple(-x for x in a) for a in mat.alpha]
    groups, _ = normalize_shifts([raw_alpha, raw_beta])
    alpha, beta = groups
    rows = [[mat.entries[i][j] for i in range(mat.nrows)] for j in range(mat.ncols)]
    return FreeInjectiveMatrix(mat.ring, alpha, beta, rows)
