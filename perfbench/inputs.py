"""Seeded input families for the subquo benchmark.

Every family is drawn from a ``random.Random`` seeded by the benchmark seed.
No draw is rejected because of its outcome or its running time: each family
is defined so that every draw is a valid input for its command.
"""

import itertools
import random

VARS = ("X", "Y", "Z")
P = 32003


def monomials(n, d):
    """Exponent tuples of total degree d in n variables, in a fixed order."""
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]


def fmt_mon(exp, names=VARS):
    parts = []
    for name, k in zip(names, exp):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append("%s^%d" % (name, k))
    return "*".join(parts)


def fmt_elem(terms, names=VARS):
    """Element text for a list of (coeff, comp, exp); comp counts from 1."""
    out = []
    for c, comp, exp in terms:
        if not c:
            continue
        body = "*".join(p for p in (fmt_mon(exp, names), "e%d" % comp) if p)
        sign = "-" if c < 0 else ("+" if out else "")
        mag = abs(c)
        out.append("%s%s" % (sign, body if mag == 1 else "%d*%s" % (mag, body)))
    return "".join(out) or "0"


def fmt_deg(a):
    return "(%s)" % ",".join(str(x) for x in a)


def module_file(field, rank, elems, shifts=None, names=VARS):
    """Module file text; elems are lists of (coeff, comp, exp)."""
    out = ["n: %d" % len(names), "vars: " + " ".join(names), "field: " + field, "rank: %d" % rank]
    if shifts is not None:
        out.append("ambient: " + " ".join(fmt_deg(s) for s in shifts))
    out.append("order: grevlex %s ; pot desc" % " ".join(names))
    out.append("elements:")
    out += [fmt_elem(t, names) for t in elems]
    return "\n".join(out) + "\n"


def nonzero(rng, k=9):
    return rng.choice([c for c in range(-k, k + 1) if c])


# --- completion -------------------------------------------------------------


def dense_system(rng, degrees):
    """Dense homogeneous polynomials: every monomial of each degree, nonzero coefficients."""
    return [[(nonzero(rng), 1, m) for m in monomials(3, d)] for d in degrees]


# One support for the sparse family, drawn once: three inhomogeneous
# quadrics with 6 of the 10 monomials of degree at most 2 each.
_support_rng = random.Random(100)
SPARSE_SUPPORT = [
    _support_rng.sample([m for d in range(3) for m in monomials(3, d)], 6) for _ in range(3)
]


def sparse_quadrics(rng):
    """Inhomogeneous quadrics on SPARSE_SUPPORT with seeded nonzero coefficients."""
    return [[(nonzero(rng), 1, m) for m in supp] for supp in SPARSE_SUPPORT]


def recombine(rng, elems, mix=1.0):
    """Shuffle generators, then add to each generator random multiples of
    about ``mix`` others of the same degree.

    Each step is invertible (generator i only gains multiples of generators
    j > i), so the result generates the same module.
    """
    elems = [list(e) for e in elems]
    rng.shuffle(elems)
    degree = [sum(e[0][2]) for e in elems]
    prob = min(1.0, mix / max(1, len(elems) - 1))
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if degree[i] == degree[j] and rng.random() < prob:
                elems[i] = add(elems[i], elems[j], nonzero(rng, 3))
    return elems


def add(f, g, c):
    """f + c*g for term lists."""
    acc = {}
    for coeff, comp, exp in f:
        acc[(comp, exp)] = acc.get((comp, exp), 0) + coeff
    for coeff, comp, exp in g:
        acc[(comp, exp)] = acc.get((comp, exp), 0) + c * coeff
    return [(v, comp, exp) for (comp, exp), v in sorted(acc.items()) if v]


def power_of_max_ideal(d):
    """Monomial generators of m^d in k[X,Y,Z], rank 1."""
    return [[(1, 1, m)] for m in monomials(3, d)]


# The relgb instance is one fixed module V of dense cubics over U = m^6; the
# seed only recombines its generators, so the reduced output never moves.
RELGB_V = dense_system(random.Random(20261017), (3, 3, 3))


# --- resolution -------------------------------------------------------------


STAIRCASE_VARS = ("X1", "X2")


def staircase_rank6():
    """The paper's rank-6 staircase realization in k[X1,X2].

    Returns (U, H): U is a Groebner basis of the inner module and H a
    relative Groebner basis of the overmodule over it.
    """
    u = [
        [(1, 1, (1, 1)), (-1, 3, (1, 1))],
        [(1, 2, (1, 1)), (-1, 4, (1, 1))],
        [(1, 1, (2, 0)), (-1, 5, (2, 0))],
        [(1, 3, (2, 1)), (-1, 6, (2, 1))],
        [(1, 4, (2, 1)), (-1, 6, (2, 1))],
        [(1, 5, (2, 1)), (-1, 6, (2, 1))],
        [(1, 2, (0, 2))],
        [(1, 3, (1, 2))],
        [(1, 4, (1, 2))],
        [(1, 5, (3, 0))],
        [(1, 6, (2, 2))],
        [(1, 6, (3, 1))],
    ]
    h = [
        [(1, 1, (1, 0))],
        [(1, 2, (0, 1))],
        [(1, 3, (1, 1))],
        [(1, 4, (1, 1))],
        [(1, 5, (2, 0))],
        [(1, 6, (2, 1))],
    ]
    return u, h


MIDDLE_COMPLEX = {
    "D1": (
        ["(0,0)"] * 4,
        ["(0,0)", "(0,0)", "(1,0)", "(0,1)", "(1,0)", "(0,1)"],
        [
            ["-1", "-1", "0", "0", "0", "0"],
            ["1", "0", "-X1", "-X2", "-X1", "0"],
            ["0", "0", "X1", "X2", "0", "-X2"],
            ["0", "1", "0", "0", "X1", "X2"],
        ],
    ),
    "P": (
        ["(0,0)", "(0,0)", "(0,0)", "(1,0)", "(0,1)"],
        ["(0,0)", "(0,0)", "(1,0)", "(0,1)", "(1,0)", "(0,1)"],
        [
            ["1", "0", "0", "0", "0", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "X1", "X2", "0", "0"],
            ["0", "0", "0", "0", "1", "0"],
            ["0", "0", "0", "0", "0", "1"],
        ],
    ),
    "D2": (
        ["(0,0)", "(0,0)", "(0,0)", "(1,0)", "(0,1)"],
        ["(2,1)"],
        [["0"], ["0"], ["X1^2*X2"], ["-X1*X2"], ["X1^2"]],
    ),
}


def middle_complex_file(rng):
    """The paper's middle complex with the columns of D1 and P permuted together."""
    perm = list(range(6))
    rng.shuffle(perm)
    lines = ["n: 2", "vars: X1 X2", "field: q", "order: grevlex X1 X2 ; pot desc"]
    for name in ("D1", "P", "D2"):
        rows, cols, grid = MIDDLE_COMPLEX[name]
        if name != "D2":
            cols = [cols[j] for j in perm]
            grid = [[row[j] for j in perm] for row in grid]
        lines += ["%s:" % name, "rows: " + " ".join(rows), "cols: " + " ".join(cols)]
        lines += [" ".join(row) for row in grid]
    return "\n".join(lines) + "\n"


# Degrees of the flange family, drawn once: 14 points uniform in [0, 3]^3.
_fim_rng = random.Random(14)
FIM_DEGREES = [tuple(_fim_rng.randint(0, 3) for _ in range(3)) for _ in range(14)]


def fim_file(rng, degs=FIM_DEGREES):
    """Free-injective matrix shaped like the paper's fim_big.

    Cogenerator and generator degrees agree (alpha = beta); the diagonal is 1
    and every entry the support condition allows (beta_j <= alpha_i
    componentwise) is a seeded uniform integer in [-2, 2].
    """
    rows = []
    for i, a in enumerate(degs):
        row = []
        for j, b in enumerate(degs):
            if i == j:
                row.append(1)
            elif all(x <= y for x, y in zip(b, a)):
                row.append(rng.randint(-2, 2))
            else:
                row.append(0)
        rows.append(row)
    lines = ["n: 3", "vars: X Y Z", "field: q", "order: grevlex X Y Z ; pot asc"]
    lines.append("cogens: " + " ".join(fmt_deg(a) for a in degs))
    lines.append("gens: " + " ".join(fmt_deg(a) for a in degs))
    lines.append("rows:")
    lines += [" ".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


# --- graded -----------------------------------------------------------------


def fine_graded_pair(rng, rank, ngens_v, ngens_u, box=3):
    """Fine-graded V and U in a free module of the given rank.

    Ambient shifts are uniform in [0, 2]^3. Each generator has degree
    a = s_i + d for a uniform component i and d uniform in [0, box]^3, and is
    a combination, with uniform nonzero coefficients, of the monomial vectors
    x^(a - s_j) e_j of all components j with s_j <= a.
    Returns (shifts, v_elems, u_elems) as term lists.
    """
    shifts = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(rank)]

    def draw(count):
        out = []
        for _ in range(count):
            base = shifts[rng.randrange(rank)]
            a = tuple(x + rng.randint(0, box) for x in base)
            terms = [
                (nonzero(rng, 5), i + 1, tuple(x - y for x, y in zip(a, s)))
                for i, s in enumerate(shifts)
                if all(y <= x for x, y in zip(a, s))
            ]
            out.append(terms)
        return out

    return shifts, draw(ngens_v), draw(ngens_u)


def staircase_ideal(rng, top=(6, 6, 6), mixed=4):
    """A random Artinian monomial ideal I of k[X,Y,Z] and its staircase.

    I holds the pure powers X^6, Y^6, Z^6 and ``mixed`` monomials drawn
    uniformly below (6, 6, 6). The pure powers are fixed because the cost of
    ``from-diagram`` grows with the box they span: with powers drawn in
    [5, 8] one diagram took 0.6-2.3 s over 5 seeds.
    Returns (generators, standard monomials).
    """
    gens = [tuple(top[k] if v == k else 0 for v in range(3)) for k in range(3)]
    for _ in range(mixed):
        gens.append(tuple(rng.randint(1, t - 1) for t in top))
    std = [
        e
        for e in itertools.product(*(range(t) for t in top))
        if not any(all(g[k] <= e[k] for k in range(3)) for g in gens)
    ]
    return gens, std


def diagram_file(std):
    """Diagram of R/I: one-dimensional fibers on the standard monomials."""
    stdset = set(std)
    lines = ["n: 3", "vars: X Y Z", "field: q"]
    lines += ["dim %s: 1" % fmt_deg(a) for a in std]
    for a in std:
        for k in range(3):
            b = tuple(x + (1 if v == k else 0) for v, x in enumerate(a))
            if b in stdset:
                lines.append("map %d %s: 1" % (k + 1, fmt_deg(a)))
    return "\n".join(lines) + "\n"


def minimal_generators(gens):
    """Minimal generators of a monomial ideal, sorted."""
    gens = set(gens)
    return sorted(
        g for g in gens if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)
    )
