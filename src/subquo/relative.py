"""Groebner bases of a submodule relative to a nested submodule."""

from .errors import ContractViolation
from .groebner import _complete, _divide, _index, _reduce, _schreyer, divide, is_groebner, normal_form


def relative_division(f, g_u, h, order):
    """Divide f by g_u then h, returning (remainder, quotients over h).

    g_u is a Groebner basis of the inner submodule; only reductions against h
    are returned, so f - p - sum(q_i * h_i) lies in the inner submodule.
    """
    g_u = list(g_u)
    quots, rem = divide(f, g_u + list(h), order)
    return rem, quots[len(g_u) :]


def relative_buchberger(gens, g_u, order):
    """Relative Groebner basis of the span of gens plus the inner submodule.

    g_u must be a Groebner basis of the inner submodule, so no pair inside it
    is formed. Every generator is divided by one divisor index of g_u.
    """
    base = [g for g in g_u if not g.is_zero]
    index = _index([g.leading(order) for g in base])
    cand = [_divide(f, base, order, index)[1] for f in gens]
    cand = [f for f in cand if not f.is_zero]
    return _complete(base + cand, order, done=len(base))[len(base):]


def reduce_relative(h, g_u, order):
    """Reduced relative Groebner basis in canonical order."""
    return _reduce(h, g_u, order)


def is_relative_gb(h, g_u, order):
    """Return True if h is a Groebner basis relative to the inner submodule."""
    for x in h:
        if x.is_zero or not normal_form(x, g_u, order) == x:
            return False
    return is_groebner(list(h) + list(g_u), order)


def relative_schreyer(h, g_u, order):
    """Presentation syzygies of a relative Groebner basis.

    Returns (columns, schreyer_order) where each column sigma in R^len(h)
    satisfies sum(sigma_i * h_i) in the inner submodule; zero elements of g_u
    are left out, as in relative_buchberger. The input is checked
    while the syzygies are lifted: ContractViolation names the first element
    of h that is zero or not reduced modulo g_u, or the first S-pair of
    h + g_u that does not reduce to zero.
    """
    g_u = [g for g in g_u if not g.is_zero]
    index = _index([g.leading(order) for g in g_u])
    for k, x in enumerate(h):
        if x.is_zero or _divide(x, g_u, order, index)[1] != x:
            raise ContractViolation(
                "input is not a relative Groebner basis: element %d is zero or reducible "
                "modulo the inner submodule" % (k + 1)
            )
    return _schreyer(h, g_u, order, "not a relative Groebner basis")
