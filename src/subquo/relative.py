"""Groebner bases of a submodule relative to a nested submodule."""

from .elements import ModuleElement, exp_lcm, exp_sub, mon_divides
from .errors import ContractViolation
from .groebner import _complete, divide, is_groebner, normal_form
from .orders import SchreyerOrder


def relative_division(f, g_u, h, order):
    """Divide f by g_u then h, returning (remainder, quotients over h).

    g_u is a Groebner basis of the inner submodule; only reductions against h
    are recorded, so f - p - sum(q_i * h_i) lies in the inner submodule.
    """
    ring, rank = f.ring, f.rank
    gl = [(g.leading(order), g) for g in g_u if not g.is_zero]
    hl = [(x.leading(order), i) for i, x in enumerate(h) if not x.is_zero]
    quots = [ModuleElement.zero(ring, 1) for _ in h]
    rem = {}
    work = f
    while not work.is_zero:
        mon, coeff = work.leading(order)
        hit = next((t for t in gl if mon_divides(t[0][0], mon)), None)
        if hit is not None:
            (gm, gc), g = hit
            work = work - g.mul_term(coeff / gc, exp_sub(mon[1], gm[1]))
            continue
        hit = next((t for t in hl if mon_divides(t[0][0], mon)), None)
        if hit is not None:
            (hm, hc), i = hit
            c, e = coeff / hc, exp_sub(mon[1], hm[1])
            quots[i] = quots[i] + ModuleElement.monomial(ring, 1, 0, e, c)
            work = work - h[i].mul_term(c, e)
            continue
        rem[mon] = coeff
        work = work - ModuleElement(ring, rank, {mon: coeff})
    return ModuleElement(ring, rank, rem), quots


def relative_buchberger(gens, g_u, order):
    """Relative Groebner basis of the span of gens plus the inner submodule.

    g_u must be a Groebner basis of the inner submodule, so no pair inside it
    is formed.
    """
    base = [g for g in g_u if not g.is_zero]
    cand = [normal_form(f, base, order) for f in gens]
    cand = [f for f in cand if not f.is_zero]
    return _complete(base + cand, order, done=len(base))[len(base):]


def reduce_relative(h, g_u, order):
    """Reduced relative Groebner basis in canonical order."""
    if not h:
        return []
    one = h[0].ring.field.one
    lms = [x.leading(order)[0] for x in h]
    picked = []
    for i in sorted(range(len(h)), key=lambda k: (order.key(lms[k]), k)):
        if not any(mon_divides(lms[k], lms[i]) for k in picked):
            picked.append(i)
    mini = [h[i] for i in picked]
    out = []
    for i, x in enumerate(mini):
        others = mini[:i] + mini[i + 1 :]
        r = relative_division(x, g_u, others, order)[0]
        out.append(r.scale(one / r.leading(order)[1]))
    return sorted(out, key=lambda x: (x.leading(order)[0][0], order.key(x.leading(order)[0])))


def is_relative_gb(h, g_u, order):
    """Return True if h is a Groebner basis relative to the inner submodule."""
    for x in h:
        if x.is_zero or not normal_form(x, g_u, order) == x:
            return False
    return is_groebner(list(h) + list(g_u), order)


def relative_schreyer(h, g_u, order):
    """Presentation syzygies of a relative Groebner basis.

    Returns (columns, schreyer_order) where each column sigma in R^len(h)
    satisfies sum(sigma_i * h_i) in the inner submodule.
    """
    if not is_relative_gb(h, g_u, order):
        raise ContractViolation("presentation requires a relative Groebner basis")
    t = len(h)
    full = list(h) + list(g_u)
    ring = full[0].ring
    one = ring.field.one
    leads = [x.leading(order) for x in full]
    sord = SchreyerOrder(tuple(m for m, _ in leads[:t]), order)
    recs = []
    for j in range(1, len(full)):
        for i in range(min(j, t)):
            (mi, ci), (mj, cj) = leads[i], leads[j]
            if mi[0] != mj[0]:
                continue
            lam = exp_lcm(mi[1], mj[1])
            ti = (one / ci, exp_sub(lam, mi[1]))
            tj = (one / cj, exp_sub(lam, mj[1]))
            sp = full[i].mul_term(*ti) - full[j].mul_term(*tj)
            sig = ModuleElement.monomial(ring, len(full), i, ti[1], ti[0])
            sig = sig - ModuleElement.monomial(ring, len(full), j, tj[1], tj[0])
            if not sp.is_zero:
                quots, r = divide(sp, full, order)
                if not r.is_zero:
                    raise ContractViolation("presentation requires a relative Groebner basis")
                for k, q in enumerate(quots):
                    if not q.is_zero:
                        sig = sig - ModuleElement.monomial(ring, len(full), k, (0,) * ring.n).mul_poly(q)
            proj = sig.restrict(t)
            if not proj.is_zero:
                recs.append((i, j, proj))
    recs.sort(key=lambda rec: (rec[0], sord.key(rec[2].leading(sord)[0]), rec[1]))
    return [proj for _, _, proj in recs], sord
