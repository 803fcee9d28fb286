"""Division, Buchberger completion and Schreyer syzygies over free modules."""

import heapq

from .elements import ModuleElement, exp_add, exp_divides, exp_lcm, exp_sub
from .errors import ContractViolation
from .orders import SchreyerOrder


def _index(leads):
    """Divisor index of a basis from its leading terms ((comp, exp), coeff),
    None for a zero element: {comp: [(exp, coeff, i), ...]} in basis order,
    zero elements left out."""
    index = {}
    for i, ld in enumerate(leads):
        if ld is not None:
            (c, e), lc = ld
            index.setdefault(c, []).append((e, lc, i))
    return index


def _divide(f, basis, order, index):
    """Divide f by basis through its divisor index (see _index).

    Each step reduces the leading term of what is left by the first element,
    in basis order, of the term's component whose leading monomial divides
    it, or moves that term to the remainder. Returns (quotients, remainder)
    with sparse quotients {i: {(0, exp): coeff}} for the elements used only.
    Leading terms strictly fall, so a quotient never gets the same exponent
    twice.
    """
    quots = {}
    rem = {}
    work = f
    while not work.is_zero:
        mon, coeff = work.leading(order)
        comp, exp = mon
        for ld, lc, i in index.get(comp, ()):
            if exp_divides(ld, exp):
                c, e = coeff / lc, exp_sub(exp, ld)
                quots.setdefault(i, {})[(0, e)] = c
                work = work - basis[i].mul_term(c, e)
                break
        else:
            rem[mon] = coeff
            work = work - ModuleElement(f.ring, f.rank, {mon: coeff})
    return quots, ModuleElement(f.ring, f.rank, rem)


def divide(f, basis, order):
    """Divide f by a list of elements, returning (quotients, remainder).

    Builds the divisor index of the list and runs _divide: each leading term
    is reduced by the first element in list order whose leading monomial
    divides it, zero elements are skipped, and quotients[i] is the quotient
    of basis[i] (zero for the elements never used).
    """
    leads = [None if g.is_zero else g.leading(order) for g in basis]
    quots, rem = _divide(f, basis, order, _index(leads))
    zero = ModuleElement.zero(f.ring, 1)
    return [ModuleElement(f.ring, 1, quots[i]) if i in quots else zero for i in range(len(basis))], rem


def normal_form(f, basis, order):
    """Remainder of f under division by a list of elements."""
    return divide(f, basis, order)[1]


def _cofactors(lf, lg, one):
    """Terms (coeff, exp) taking the leading terms lf and lg to their monic lcm."""
    lam = exp_lcm(lf[0][1], lg[0][1])
    return (one / lf[1], exp_sub(lam, lf[0][1])), (one / lg[1], exp_sub(lam, lg[0][1]))


def s_polynomial(f, g, order):
    """S-polynomial of f and g; zero when leading components differ."""
    lf, lg = f.leading(order), g.leading(order)
    if lf[0][0] != lg[0][0]:
        return ModuleElement.zero(f.ring, f.rank)
    tf, tg = _cofactors(lf, lg, f.ring.field.one)
    return f.mul_term(*tf) - g.mul_term(*tg)


def _complete(G, order, exprs=None, done=0):
    """Complete G in place to a Groebner basis and return it.

    New elements are appended, so the input stays a prefix. G[:done] must
    already be a Groebner basis: no pair inside it is formed. When exprs is
    given, exprs[k] expresses G[k] over the input and is kept in step.

    Pairs join leading terms in one component and are pruned by the
    Gebauer-Moller update: the chain criterion on pending pairs, one pair per
    minimal lcm among new ones, and coprime leading terms in rank 1 only.
    S-polynomials are divided by one divisor index of G, extended as G grows.
    Pairs are taken by the order of their lcm (normal strategy).
    """
    if not G:
        return G
    one = G[0].ring.field.one
    rank1 = G[0].rank == 1
    leads = []
    index = {}
    pairs = []

    def add(m):
        (c, e), lc = leads[m]
        index.setdefault(c, []).append((e, lc, m))
        keep = []
        for p in pairs:
            _, i, j, (pc, lam) = p
            chain = pc == c and exp_divides(e, lam)
            if not chain or lam in (exp_lcm(leads[i][0][1], e), exp_lcm(leads[j][0][1], e)):
                keep.append(p)
        if len(keep) < len(pairs):
            pairs[:] = keep
            heapq.heapify(pairs)
        if m < done:
            return
        cand = {}
        for ek, _, k in index[c][:-1]:
            lam = exp_lcm(ek, e)
            first, coprime = cand.get(lam, (k, False))
            cand[lam] = (first, coprime or (rank1 and lam == exp_add(ek, e)))
        for lam, (k, coprime) in cand.items():
            if coprime or any(o != lam and exp_divides(o, lam) for o in cand):
                continue
            mon = (c, lam)
            heapq.heappush(pairs, (order.key(mon), k, m, mon))

    for m, g in enumerate(G):
        leads.append(g.leading(order))
        add(m)
    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        if len(G[i].terms) == len(G[j].terms) == 1:  # two monomials: the S-polynomial is zero
            continue
        ti, tj = _cofactors(leads[i], leads[j], one)
        sp = G[i].mul_term(*ti) - G[j].mul_term(*tj)
        if sp.is_zero:
            continue
        quots, r = _divide(sp, G, order, index)
        if r.is_zero:
            continue
        lm, lc = r.leading(order)
        c = one / lc
        G.append(r.scale(c))
        leads.append((lm, one))
        if exprs is not None:
            expr = exprs[i].mul_term(*ti) - exprs[j].mul_term(*tj)
            for k in sorted(quots):
                expr = expr - exprs[k].mul_poly(ModuleElement(r.ring, 1, quots[k]))
            exprs.append(expr.scale(c))
        add(len(G) - 1)
    return G


def buchberger(gens, order):
    """Complete a generating list to a Groebner basis, keeping the input prefix."""
    return _complete([f for f in gens if not f.is_zero], order)


def buchberger_transform(gens, order):
    """Buchberger completion tracking each basis element over the input.

    Returns (G, exprs) with G[k] equal to exprs[k] applied to the input list.
    """
    if not gens:
        return [], []
    ring = gens[0].ring
    zero_exp = (0,) * ring.n
    G, exprs = [], []
    for i, f in enumerate(gens):
        if not f.is_zero:
            G.append(f)
            exprs.append(ModuleElement.monomial(ring, len(gens), i, zero_exp))
    return _complete(G, order, exprs), exprs


def _minimal_indices(lms, order):
    """Indices of a minimal subset of leading monomials: no kept one divides
    another, and of equal ones the first is kept.

    A monomial divides only monomials of its own component, so each
    candidate is tested against the kept exponents of its component alone.
    """
    picked = []
    kept = {}  # component -> kept leading exponents
    for i in sorted(range(len(lms)), key=lambda k: (order.key(lms[k]), k)):
        comp, exp = lms[i]
        same = kept.setdefault(comp, [])
        if not any(exp_divides(e, exp) for e in same):
            same.append(exp)
            picked.append(i)
    return picked


def _reduce(G, g_u, order):
    """Reduced basis of G modulo g_u, sorted by leading component, then
    leading monomial.

    Keeps the elements with minimal leading monomials, divides each by g_u
    and the other kept ones, and makes it monic.
    """
    mini = [G[i] for i in _minimal_indices([g.leading(order)[0] for g in G], order)]
    out = []
    for i, g in enumerate(mini):
        r = divide(g, list(g_u) + mini[:i] + mini[i + 1 :], order)[1]
        out.append(r.scale(r.ring.field.one / r.leading(order)[1]))

    def key(g):
        lm = g.leading(order)[0]
        return lm[0], order.key(lm)

    return sorted(out, key=key)


def reduce_groebner(G, order):
    """Reduced Groebner basis in canonical order from any Groebner basis."""
    return _reduce(G, [], order)


def express(f, G, order):
    """Quotients writing f over a Groebner basis of a module containing it."""
    quots, r = divide(f, G, order)
    if not r.is_zero:
        raise ContractViolation("element does not reduce to zero over the given basis")
    return quots


def is_groebner(G, order):
    """Return True if G, its zero elements left out, is a Groebner basis."""
    try:
        _schreyer([g for g in G if not g.is_zero], [], order, "not a Groebner basis", minimal=True)
    except ContractViolation:
        return False
    return True


def _schreyer(h, g_u, order, what, minimal=False):
    """Schreyer syzygies of h relative to g_u, with their Schreyer order.

    The pairs of full = h + g_u are (i, j), i < j, with equal leading
    components, taken by j, then i, from one divisor index. By Schreyer's
    theorem (Eisenbud, Commutative Algebra, Thm 15.10) the syzygy of (i, j)
    has lead (1/lc_i) x^(lcm - lm_i) e_i: both cofactor terms lift to the
    lcm, the tie -i puts e_i first, and quotient terms lift strictly below.
    Syzygies are sorted by (i, Schreyer key of that lead, j). With minimal,
    _minimal_indices picks them by lead (of equal leads, the smaller j), and
    only the picked pairs and those inside g_u are divided; otherwise all.
    A divided pair must reduce to zero, or ContractViolation says the input
    is `what`, numbering elements over h, then g_u; with an element of h it
    is lifted into its terms minus the quotients, projected onto R^len(h).
    The picked leads generate the syzygies of the leading terms of full (a
    minimal Groebner basis of them, by Thm 15.10), so by Buchberger's
    criterion for such a set (Moller, J. Symbolic Comput. 6, 1988; Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 2 par. 9) full
    is a Groebner basis exactly when each picked pair reduces to zero; only
    the pair named for a failing input may differ. Empty full: no syzygies.
    """
    t = len(h)
    full = list(h) + list(g_u)
    leads = [x.leading(order) for x in full]
    sord = SchreyerOrder(tuple(m for m, _ in leads[:t]), order)
    if not full:
        return [], sord
    ring = full[0].ring
    one, zero = ring.field.one, ring.field.zero
    index = _index(leads)
    pairs = [(i, j) + _cofactors(leads[i], leads[j], one)
             for j, ((comp, _), _) in enumerate(leads) for _, _, i in index[comp] if i < j]
    syz = sorted((p for p in pairs if p[0] < t), key=lambda p: (p[0], sord.key((p[0], p[2][1])), p[1]))
    if minimal:
        syz = [syz[k] for k in sorted(_minimal_indices([(p[0], p[2][1]) for p in syz], sord))]
        kept = {p[:2] for p in syz}
        pairs = [p for p in pairs if p[0] >= t or p[:2] in kept]
    sigs = {}
    for i, j, ti, tj in pairs:
        sp = full[i].mul_term(*ti) - full[j].mul_term(*tj)
        quots = {}
        if not sp.is_zero:
            quots, rem = _divide(sp, full, order, index)
            if not rem.is_zero:
                msg = "input is %s: S-polynomial of elements %d and %d does not reduce to zero"
                raise ContractViolation(msg % (what, i + 1, j + 1))
        if i < t:
            sig = {(i, ti[1]): ti[0], (j, tj[1]): -tj[0]}
            for k, q in quots.items():
                for (_, e), c in q.items():
                    sig[(k, e)] = sig.get((k, e), zero) - c
            sigs[i, j] = ModuleElement(ring, t, {m: c for m, c in sig.items() if m[0] < t})
    return [sigs[p[:2]] for p in syz], sord


def schreyer_syzygies(G, order, minimal=False):
    """Schreyer generators of the syzygies of a Groebner basis.

    Returns (syzygies, schreyer_order); each syzygy sigma satisfies
    sum(sigma_k * G[k]) = 0 and is expressed in R^len(G). With minimal, only
    syzygies with minimal leading monomials are kept, in the same order; only
    their pairs are divided, and that still checks G in full (see _schreyer).
    A zero element has no Schreyer lead, so ContractViolation names it.
    """
    for k, g in enumerate(G):
        if g.is_zero:
            raise ContractViolation("input is not a Groebner basis: element %d is zero" % (k + 1))
    return _schreyer(G, [], order, "not a Groebner basis", minimal)
