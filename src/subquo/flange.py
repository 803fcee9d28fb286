"""Free-injective matrices: scalar presentations of modules inside cofree covers."""

from collections import deque

from .elements import ModuleElement, format_element
from .errors import ContractViolation, InputError
from .graded import GradedMatrix, deg_join, deg_leq, normalize_shifts
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


def monomial_division(f, mat, order):
    """Divide f by the cofree relations and then the columns of mat."""
    order = order.for_rank(mat.nrows)
    ge = [u for _, _, u in mat.cofree_relations()]
    return relative_division(f, ge, mat.columns(), order)


def _column_pair_spoly(cols, beta, j1, j2, order, field):
    """Exact-leading-term S-polynomial of two columns, or None across components.

    A zero column has no leading term and pairs with nothing.
    """
    if cols[j1].is_zero or cols[j2].is_zero:
        return None
    (m1, c1), (m2, c2) = cols[j1].leading(order), cols[j2].leading(order)
    if m1[0] != m2[0]:
        return None
    lam = deg_join(beta[j1], beta[j2])
    d1 = tuple(x - y for x, y in zip(lam, beta[j1]))
    d2 = tuple(x - y for x, y in zip(lam, beta[j2]))
    s = cols[j1].mul_term(field.one, d1) - cols[j2].mul_term(c1 / c2, d2)
    return s, lam, d1, d2, c1 / c2


def _triple_spoly(ring, entries, alpha, beta, i, j, k):
    """S-polynomial of column j against the cofree relation of row i, variable k."""
    target = tuple(alpha[i][k] + 1 if v == k else 0 for v in range(ring.n))
    lam = deg_join(beta[j], target)
    terms = {
        (i2, lam): row[j]
        for i2, row in enumerate(entries)
        if i2 != i and row[j]
    }
    return ModuleElement(ring, len(alpha), terms), lam


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
    order = order.for_rank(mat.nrows)
    ge = [u for _, _, u in mat.cofree_relations()]
    rows = [list(r) for r in mat.entries]
    beta = list(mat.beta)
    cols = mat.columns()
    s, n = mat.nrows, ring.n

    def triples_for(j):
        return [("ct", j, i, k) for i in range(s) for k in range(n)]

    queue = deque(
        ("cc", j1, j2)
        for j1, j2 in sorted((a, b) for b in range(len(beta)) for a in range(b))
    )
    for j in range(len(beta)):
        queue.extend(triples_for(j))
    while queue:
        item = queue.popleft()
        if item[0] == "cc":
            got = _column_pair_spoly(cols, beta, item[1], item[2], order, field)
            sp = got[0] if got else None
        else:
            sp, _ = _triple_spoly(ring, rows, mat.alpha, beta, item[2], item[1], item[3])
        if sp is None or sp.is_zero:
            continue
        p, _ = relative_division(sp, ge, cols, order)
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


def is_groebner_form(mat, order):
    """Check all flange S-polynomials reduce to zero; returns (ok, witness)."""
    _require_supported(mat)
    ring, field = mat.ring, mat.ring.field
    order = order.for_rank(mat.nrows)
    ge = [u for _, _, u in mat.cofree_relations()]
    cols = mat.columns()
    beta = mat.beta
    for j2 in range(mat.ncols):
        for j1 in range(j2):
            got = _column_pair_spoly(cols, beta, j1, j2, order, field)
            if got is None or got[0].is_zero:
                continue
            p, _ = relative_division(got[0], ge, cols, order)
            if not p.is_zero:
                return False, "S-polynomial of columns %d and %d" % (j1 + 1, j2 + 1)
    for j in range(mat.ncols):
        for i in range(mat.nrows):
            for k in range(ring.n):
                sp, _ = _triple_spoly(ring, mat.entries, mat.alpha, beta, i, j, k)
                if sp.is_zero:
                    continue
                p, _ = relative_division(sp, ge, cols, order)
                if not p.is_zero:
                    return False, (
                        "S-polynomial of column %d and the cofree relation in row %d for %s"
                        % (j + 1, i + 1, ring.names[k])
                    )
    return True, None


def free_presentation(mat, order):
    """Presentation matrix of the module cut out by a matrix in Groebner form.

    Rows are indexed by the columns of mat; each output column sigma encodes a
    relation sum(sigma_j * column_j) lying in the cofree kernel.
    """
    ok, witness = is_groebner_form(mat, order)
    if not ok:
        raise ContractViolation("matrix is not in Groebner form: %s" % witness)
    ring, field = mat.ring, mat.ring.field
    order = order.for_rank(mat.nrows)
    ge = [u for _, _, u in mat.cofree_relations()]
    cols = mat.columns()
    beta = mat.beta
    t = mat.ncols
    out, out_deg = [], []

    def push(sig, lam):
        if sig.is_zero or sig in out:
            return
        out.append(sig)
        out_deg.append(lam)

    for j2 in range(t):
        for j1 in range(j2):
            got = _column_pair_spoly(cols, beta, j1, j2, order, field)
            if got is None:
                continue
            sp, lam, d1, d2, ratio = got
            sig = ModuleElement.monomial(ring, t, j1, d1)
            sig = sig - ModuleElement.monomial(ring, t, j2, d2, ratio)
            if not sp.is_zero:
                p, quots = relative_division(sp, ge, cols, order)
                if not p.is_zero:
                    raise ContractViolation("matrix is not in Groebner form")
                for m, q in enumerate(quots):
                    if not q.is_zero:
                        sig = sig - ModuleElement.monomial(ring, t, m, (0,) * ring.n).mul_poly(q)
            push(sig, lam)
    for i in range(mat.nrows):
        for j in range(t):
            for k in range(ring.n):
                sp, lam = _triple_spoly(ring, mat.entries, mat.alpha, beta, i, j, k)
                sig = ModuleElement.monomial(
                    ring, t, j, tuple(x - y for x, y in zip(lam, beta[j]))
                )
                if not sp.is_zero:
                    p, quots = relative_division(sp, ge, cols, order)
                    if not p.is_zero:
                        raise ContractViolation("matrix is not in Groebner form")
                    for m, q in enumerate(quots):
                        if not q.is_zero:
                            sig = sig - ModuleElement.monomial(
                                ring, t, m, (0,) * ring.n
                            ).mul_poly(q)
                push(sig, lam)
    return GradedMatrix(ring, beta, out_deg, out)


def matlis_transpose(mat):
    """Transpose swapping generator and cogenerator roles, with degrees reflected."""
    raw_alpha = [tuple(-x for x in b) for b in mat.beta]
    raw_beta = [tuple(-x for x in a) for a in mat.alpha]
    groups, _ = normalize_shifts([raw_alpha, raw_beta])
    alpha, beta = groups
    rows = [[mat.entries[i][j] for i in range(mat.nrows)] for j in range(mat.ncols)]
    return FreeInjectiveMatrix(mat.ring, alpha, beta, rows)
