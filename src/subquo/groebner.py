"""Division, Buchberger completion and Schreyer syzygies over free modules."""

import heapq

from .elements import ModuleElement, exp_add, exp_divides, exp_lcm, exp_sub, mon_divides
from .errors import ContractViolation
from .orders import SchreyerOrder


def divide(f, basis, order):
    """Divide f by a list of elements, returning (quotients, remainder)."""
    ring, rank = f.ring, f.rank
    leads = [None if g.is_zero else g.leading(order) for g in basis]
    quots = [ModuleElement.zero(ring, 1) for _ in basis]
    rem = {}
    work = f
    while not work.is_zero:
        mon, coeff = work.leading(order)
        hit = None
        for i, ld in enumerate(leads):
            if ld is not None and mon_divides(ld[0], mon):
                hit = i
                break
        if hit is None:
            rem[mon] = coeff
            work = work - ModuleElement(ring, rank, {mon: coeff})
        else:
            gm, gc = leads[hit]
            c, e = coeff / gc, exp_sub(mon[1], gm[1])
            quots[hit] = quots[hit] + ModuleElement.monomial(ring, 1, 0, e, c)
            work = work - basis[hit].mul_term(c, e)
    return quots, ModuleElement(ring, rank, rem)


def normal_form(f, basis, order):
    """Remainder of f under division by a list of elements."""
    return divide(f, basis, order)[1]


def s_polynomial(f, g, order):
    """S-polynomial of f and g; zero when leading components differ."""
    (mf, cf), (mg, cg) = f.leading(order), g.leading(order)
    if mf[0] != mg[0]:
        return ModuleElement.zero(f.ring, f.rank)
    one = f.ring.field.one
    lam = exp_lcm(mf[1], mg[1])
    return f.mul_term(one / cf, exp_sub(lam, mf[1])) - g.mul_term(one / cg, exp_sub(lam, mg[1]))


def _complete(G, order, exprs=None, done=0):
    """Complete G in place to a Groebner basis and return it.

    New elements are appended, so the input stays a prefix. G[:done] must
    already be a Groebner basis: no pair inside it is formed. When exprs is
    given, exprs[k] expresses G[k] over the input and is kept in step.

    Pairs join leading terms in one component and are pruned by the
    Gebauer-Moller update: the chain criterion on pending pairs, one pair per
    minimal lcm among new ones, and coprime leading terms in rank 1 only.
    Untracked pairs are taken by the order of their lcm (normal strategy).
    Tracked pairs keep the depth-first order (input pairs sorted by (i, j),
    then each new element's pairs ahead of all pending ones), because
    kernel_of_free_map returns a minimal, not reduced, basis that depends on
    which elements this loop produces.
    """
    if not G:
        return G
    one = G[0].ring.field.one
    rank1 = G[0].rank == 1
    s = len(G)
    leads = []
    pairs = []

    def add(m):
        (c, e), _ = leads[m]
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
        for k in range(m):
            (ck, ek), _ = leads[k]
            if ck == c:
                lam = exp_lcm(ek, e)
                first, coprime = cand.get(lam, (k, False))
                cand[lam] = (first, coprime or (rank1 and lam == exp_add(ek, e)))
        for lam, (k, coprime) in cand.items():
            if coprime or any(o != lam and exp_divides(o, lam) for o in cand):
                continue
            mon = (c, lam)
            key = order.key(mon) if exprs is None else (0 if m < s else -m)
            heapq.heappush(pairs, (key, k, m, mon))

    for m, g in enumerate(G):
        leads.append(g.leading(order))
        add(m)
    while pairs:
        _, i, j, (_, lam) = heapq.heappop(pairs)
        (mi, ci), (mj, cj) = leads[i], leads[j]
        ti = (one / ci, exp_sub(lam, mi[1]))
        tj = (one / cj, exp_sub(lam, mj[1]))
        sp = G[i].mul_term(*ti) - G[j].mul_term(*tj)
        if sp.is_zero:
            continue
        quots, r = divide(sp, G, order)
        if r.is_zero:
            continue
        lm, lc = r.leading(order)
        c = one / lc
        G.append(r.scale(c))
        leads.append((lm, one))
        if exprs is not None:
            expr = exprs[i].mul_term(*ti) - exprs[j].mul_term(*tj)
            for k, q in enumerate(quots):
                if not q.is_zero:
                    expr = expr - exprs[k].mul_poly(q)
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


def _minimal_indices(G, order):
    """Indices of a minimal subset: no kept leading monomial divides another."""
    lms = [g.leading(order)[0] for g in G]
    picked = []
    for i in sorted(range(len(G)), key=lambda k: (order.key(lms[k]), k)):
        if not any(mon_divides(lms[k], lms[i]) for k in picked):
            picked.append(i)
    return picked


def _canonical(items, order, key_of):
    """Sort items by (leading component, leading monomial key)."""
    return sorted(items, key=lambda it: (key_of(it)[0], order.key(key_of(it))))


def reduce_groebner(G, order):
    """Reduced Groebner basis in canonical order from any Groebner basis."""
    one = G[0].ring.field.one if G else None
    picked = _minimal_indices(G, order)
    mini = [G[i] for i in picked]
    out = []
    for i, g in enumerate(mini):
        others = mini[:i] + mini[i + 1 :]
        r = normal_form(g, others, order)
        out.append(r.scale(one / r.leading(order)[1]))
    return _canonical(out, order, lambda g: g.leading(order)[0])


def minimal_groebner(G, order):
    """Minimal Groebner basis in canonical order: normalized, not tail-reduced."""
    one = G[0].ring.field.one if G else None
    out = [G[i].scale(one / G[i].leading(order)[1]) for i in _minimal_indices(G, order)]
    return _canonical(out, order, lambda g: g.leading(order)[0])


def minimal_transform(G, exprs, order):
    """Minimal Groebner basis keeping expressions over the original input in step."""
    one = G[0].ring.field.one if G else None
    paired = []
    for i in _minimal_indices(G, order):
        c = one / G[i].leading(order)[1]
        paired.append((G[i].scale(c), exprs[i].scale(c)))
    paired.sort(key=lambda ge: (ge[0].leading(order)[0][0], order.key(ge[0].leading(order)[0])))
    return [g for g, _ in paired], [e for _, e in paired]


def express(f, G, order):
    """Quotients writing f over a Groebner basis of a module containing it."""
    quots, r = divide(f, G, order)
    if not r.is_zero:
        raise ContractViolation("element does not reduce to zero over the given basis")
    return quots


def is_groebner(G, order):
    """Return True if every S-polynomial of G reduces to zero."""
    for j in range(len(G)):
        for i in range(j):
            s = s_polynomial(G[i], G[j], order)
            if not s.is_zero and not normal_form(s, G, order).is_zero:
                return False
    return True


def schreyer_syzygies(G, order, minimal=False):
    """Schreyer generators of the syzygies of a Groebner basis.

    Returns (syzygies, schreyer_order); each syzygy sigma satisfies
    sum(sigma_k * G[k]) = 0 and is expressed in R^len(G).
    """
    ring = G[0].ring
    one = ring.field.one
    t = len(G)
    leads = [g.leading(order) for g in G]
    sord = SchreyerOrder(tuple(m for m, _ in leads), order)
    recs = []
    for j in range(t):
        for i in range(j):
            (mi, ci), (mj, cj) = leads[i], leads[j]
            if mi[0] != mj[0]:
                continue
            lam = exp_lcm(mi[1], mj[1])
            ti = (one / ci, exp_sub(lam, mi[1]))
            tj = (one / cj, exp_sub(lam, mj[1]))
            sp = G[i].mul_term(*ti) - G[j].mul_term(*tj)
            sig = ModuleElement.monomial(ring, t, i, ti[1], ti[0]) - ModuleElement.monomial(
                ring, t, j, tj[1], tj[0]
            )
            if not sp.is_zero:
                quots, r = divide(sp, G, order)
                if not r.is_zero:
                    raise ContractViolation("syzygy computation requires a Groebner basis")
                for k, q in enumerate(quots):
                    if not q.is_zero:
                        sig = sig - ModuleElement.monomial(ring, t, k, (0,) * ring.n).mul_poly(q)
            recs.append((i, j, sig))
    recs.sort(key=lambda rec: (rec[0], sord.key(rec[2].leading(sord)[0]), rec[1]))
    out = [sig for _, _, sig in recs]
    if minimal:
        scan = sorted(range(len(out)), key=lambda k: (sord.key(out[k].leading(sord)[0]), k))
        kept_lms, kept = [], set()
        for k in scan:
            lm = out[k].leading(sord)[0]
            if not any(mon_divides(m, lm) for m in kept_lms):
                kept_lms.append(lm)
                kept.add(k)
        out = [sig for k, sig in enumerate(out) if k in kept]
    return out, sord
