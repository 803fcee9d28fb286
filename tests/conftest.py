"""Shared rings, frozen example data and random generators for the tests."""

import random
from itertools import product

import pytest

from subquo import (
    FreeInjectiveMatrix,
    GradedMatrix,
    ModuleElement,
    QQ,
    Ring,
    VectorDiagram,
    format_element,
    free_resolution,
    parse_element,
    parse_order,
)
from subquo.graded import deg_leq, degrees_in_box, rref

try:
    import hypothesis
except ImportError:  # the property tests skip themselves
    pass
else:
    # Property tests are reproducible: fixed examples, no stored failures,
    # no per-example time limit. Each test sets its own max_examples.
    hypothesis.settings.register_profile("subquo", deadline=None, derandomize=True, database=None)
    hypothesis.settings.load_profile("subquo")


@pytest.fixture
def ring_xy():
    return Ring(2, QQ, ("X", "Y"))


@pytest.fixture
def ring_xyz():
    return Ring(3, QQ, ("X", "Y", "Z"))


@pytest.fixture
def ring2():
    return Ring(2, QQ, ("X1", "X2"))


@pytest.fixture
def ring_x():
    return Ring(1, QQ, ("X",))


def els(ring, rank, texts):
    """Parse a list of element strings at a fixed rank."""
    return [parse_element(t, ring, rank) for t in texts]


def fmts(elements, order=None):
    """Format a list of elements for comparison against frozen strings."""
    return [format_element(e, order) for e in elements]


def scalar_grid(ring, texts):
    """Parse a grid of scalar entry strings into rank-1 elements."""
    return [[parse_element(t, ring, 1) for t in row] for row in texts]


def qgrid(field, ints):
    """Integer grid lifted into a coefficient field."""
    return [[field.from_int(v) for v in row] for row in ints]


# Total-degree-5 monomial generators of the inner submodule from the
# running relative-basis example over k[X, Y].
DEG5_U = ["X^5*e1", "X^4*Y*e1", "X^3*Y^2*e1", "X^2*Y^3*e1", "X*Y^4*e1", "Y^5*e1"]
DEG5_V = ["Y^3*e1", "X*Y^2*e1+X^3*e1"]


def cube_resolution(field):
    """Non-minimal resolution of m/m^3 over k[X, Y, Z]: V = m, U = m^3."""
    ring = Ring(3, field, ("X", "Y", "Z"))
    order = parse_order("grevlex X Y Z ; pot desc", ring, 1)
    cube = ["X^%d*Y^%d*Z^%d*e1" % e for e in product(range(4), repeat=3) if sum(e) == 3]
    return free_resolution(els(ring, 1, ["X*e1", "Y*e1", "Z*e1"]), els(ring, 1, cube), order)


def middle_complex(ring):
    """The 4/6-term middle complex with its projection and boundary."""
    order = parse_order("grevlex X1 X2 ; pot desc", ring, rank=5)
    zero2 = (0, 0)
    d1 = GradedMatrix.from_entries(
        ring,
        [zero2] * 4,
        [zero2, zero2, (1, 0), (0, 1), (1, 0), (0, 1)],
        scalar_grid(
            ring,
            [
                ["-1", "-1", "0", "0", "0", "0"],
                ["1", "0", "-X1", "-X2", "-X1", "0"],
                ["0", "0", "X1", "X2", "0", "-X2"],
                ["0", "1", "0", "0", "X1", "X2"],
            ],
        ),
    )
    p = GradedMatrix.from_entries(
        ring,
        [zero2, zero2, zero2, (1, 0), (0, 1)],
        [zero2, zero2, (1, 0), (0, 1), (1, 0), (0, 1)],
        scalar_grid(
            ring,
            [
                ["1", "0", "0", "0", "0", "0"],
                ["0", "1", "0", "0", "0", "0"],
                ["0", "0", "X1", "X2", "0", "0"],
                ["0", "0", "0", "0", "1", "0"],
                ["0", "0", "0", "0", "0", "1"],
            ],
        ),
    )
    d2 = GradedMatrix.from_entries(
        ring,
        [zero2, zero2, zero2, (1, 0), (0, 1)],
        [(2, 1)],
        scalar_grid(ring, [["0"], ["0"], ["X1^2*X2"], ["-X1*X2"], ["X1^2"]]),
    )
    return d1, p, d2, order


# Rank-6 realization of the staircase module: inner generators and the
# relative basis of the overmodule.
R6_U = [
    "X1*X2*e1-X1*X2*e3",
    "X1*X2*e2-X1*X2*e4",
    "X1^2*e1-X1^2*e5",
    "X1^2*X2*e3-X1^2*X2*e6",
    "X1^2*X2*e4-X1^2*X2*e6",
    "X1^2*X2*e5-X1^2*X2*e6",
    "X2^2*e2",
    "X1*X2^2*e3",
    "X1*X2^2*e4",
    "X1^3*e5",
    "X1^2*X2^2*e6",
    "X1^3*X2*e6",
]
R6_V = [
    "X1*e1",
    "X2*e2",
    "X1*X2*e3",
    "X1*X2*e4",
    "X1^2*e5",
    "X1^2*X2*e6",
]

# Rank-2 realization of the same module.
R2_U = [
    "X1^3*e1",
    "X1^2*X2*e1-X1^2*X2*e2",
    "X2^2*e2",
    "X1*X2^2*e1",
    "X1^3*X2*e2",
]
R2_V = ["X1*e1", "X2*e2"]


def fim_big(ring):
    """The 6x6 scalar matrix whose completion adds one column."""
    one, zero = ring.field.one, ring.field.zero
    alpha = [(1, 0), (0, 1), (2, 0), (1, 1), (1, 1), (2, 1)]
    rows = qgrid(
        ring.field,
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [1, 0, 1, 0, 0, 0],
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [1, 1, 1, 1, 1, 1],
        ],
    )
    return FreeInjectiveMatrix(ring, alpha, alpha, rows)


def fim_small(ring):
    """The 2x2 scalar matrix whose completion adds the column (1, 0)."""
    return FreeInjectiveMatrix(
        ring,
        [(1, 1), (2, 1)],
        [(1, 0), (0, 1)],
        qgrid(ring.field, [[1, 0], [1, 1]]),
    )


def fim_small_completed(ring):
    """Groebner-form completion of fim_small."""
    return FreeInjectiveMatrix(
        ring,
        [(1, 1), (2, 1)],
        [(1, 0), (0, 1), (1, 1)],
        qgrid(ring.field, [[1, 0, 1], [1, 1, 0]]),
    )


def staircase_diagram(ring):
    """Five-fiber diagram whose realization is the staircase module."""
    F = ring.field
    dims = {(1, 0): 1, (2, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1}
    maps = {
        (0, (1, 0)): qgrid(F, [[1]]),
        (0, (0, 1)): qgrid(F, [[0], [1]]),
        (0, (1, 1)): qgrid(F, [[1, 1]]),
        (1, (1, 0)): qgrid(F, [[1], [0]]),
        (1, (2, 0)): qgrid(F, [[1]]),
    }
    return VectorDiagram(ring, dims, maps)


def conjugated_diagram(ring, comps, entry):
    """Diagram of the monomial subquotient sum_i V_i/U_i with every fiber
    conjugated by an invertible matrix.

    comps lists (v_exps, u_exps) per component: V_i is spanned by the x^c e_i
    for c in v_exps and U_i by the x^d e_i for d in u_exps, which must hold a
    pure power of every variable. Component i sits in the fiber at a when
    some c <= a and no d <= a. Each fiber gets the change of basis P = L*R,
    L unit lower and R unit upper triangular with off-diagonal entries from
    entry(), and map k at a becomes P_(a+e_k) M P_a^-1.
    """
    F = ring.field
    top = tuple(max(d[k] for _, us in comps for d in us) for k in range(ring.n))

    def present(a):
        return [
            i for i, (vs, us) in enumerate(comps)
            if any(deg_leq(c, a) for c in vs) and not any(deg_leq(d, a) for d in us)
        ]

    def mul(A, B):
        return [[sum((x * B[t][c] for t, x in enumerate(r)), F.zero) for c in range(len(B[0]))] for r in A]

    fibers = {a: present(a) for a in degrees_in_box((0,) * ring.n, top)}
    fibers = {a: p for a, p in fibers.items() if p}
    basis, inverse = {}, {}
    for a, p in fibers.items():
        d = len(p)
        L = [[F.one if i == j else F.from_int(entry()) if j < i else F.zero for j in range(d)] for i in range(d)]
        R = [[F.one if i == j else F.from_int(entry()) if j > i else F.zero for j in range(d)] for i in range(d)]
        P = mul(L, R)
        red, _ = rref([row + [F.one if i == j else F.zero for j in range(d)] for i, row in enumerate(P)])
        basis[a], inverse[a] = P, [r[d:] for r in red]
    maps = {}
    for a, p in fibers.items():
        for k in range(ring.n):
            b = tuple(x + (v == k) for v, x in enumerate(a))
            if b in fibers:
                M = [[F.one if i == j else F.zero for j in p] for i in fibers[b]]
                maps[(k, a)] = mul(mul(basis[b], M), inverse[a])
    return VectorDiagram(ring, {a: len(p) for a, p in fibers.items()}, maps)


def random_exponent(rng, n, max_deg):
    """Exponent tuple of total degree at most max_deg."""
    total = rng.randint(0, max_deg)
    exp = [0] * n
    for _ in range(total):
        exp[rng.randrange(n)] += 1
    return tuple(exp)


def random_element(rng, ring, rank, max_terms=3, max_deg=4):
    """Random sparse element of bounded total degree, possibly zero."""
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        comp = rng.randrange(rank)
        exp = random_exponent(rng, ring.n, max_deg)
        num = rng.randint(-3, 3)
        if num:
            d[(comp, exp)] = ring.field.from_int(num)
    return ModuleElement(ring, rank, d)


def random_ring(rng):
    """Random small ring with at most three variables."""
    n = rng.randint(1, 3)
    return Ring(n, QQ, tuple("xyz"[:n]))
