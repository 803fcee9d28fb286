"""Monomial orders on rings and free modules."""

import random

import pytest

from subquo import (
    InputError,
    QQ,
    Ring,
    SchreyerOrder,
    default_order,
    format_order,
    parse_element,
    parse_order,
)
from subquo.orders import compare


def sort_monomials(exps, order):
    """Exponents sorted ascending under a rank-1 module order."""
    return [e for _, e in sorted(((order.key((0, e)), e) for e in exps))]


class TestBaseOrders:
    def test_grevlex_ties(self, ring_xy):
        order = parse_order("grevlex X Y", ring_xy, 1)
        # degree first, then smaller exponent on the least variable wins
        assert sort_monomials([(3, 0), (1, 2), (0, 3), (2, 1)], order) == [
            (3, 0),
            (2, 1),
            (1, 2),
            (0, 3),
        ]

    def test_grlex_matches_grevlex_in_two_variables(self, ring_xy):
        order_a = parse_order("grlex X Y", ring_xy, 1)
        order_b = parse_order("grevlex X Y", ring_xy, 1)
        exps = [(i, j) for i in range(4) for j in range(4)]
        assert sort_monomials(exps, order_a) == sort_monomials(exps, order_b)

    def test_lex_ignores_degree(self, ring_xy):
        order = parse_order("lex X Y", ring_xy, 1)
        # Y dominates: any positive Y power beats any pure X power
        assert sort_monomials([(0, 1), (5, 0), (1, 1)], order) == [
            (5, 0),
            (0, 1),
            (1, 1),
        ]

    def test_variable_permutation(self, ring_xy):
        order = parse_order("lex Y X", ring_xy, 1)
        assert sort_monomials([(0, 1), (5, 0), (1, 1)], order) == [
            (0, 1),
            (1, 1),
            (5, 0),
        ]

    def test_grevlex_differs_from_grlex(self, ring_xyz):
        order_a = parse_order("grevlex X Y Z", ring_xyz, 1)
        order_b = parse_order("grlex X Y Z", ring_xyz, 1)
        a, b = (1, 0, 1), (0, 2, 0)
        assert compare((0, a), (0, b), order_a) != compare((0, a), (0, b), order_b)


class TestModuleExtensions:
    def test_pot_desc(self, ring_xy):
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 3)
        assert compare((0, (0, 0)), (1, (5, 5)), order) == 1
        assert compare((2, (1, 0)), (2, (0, 1)), order) == -1

    def test_pot_asc(self, ring_xy):
        order = parse_order("grevlex X Y ; pot asc", ring_xy, 3)
        assert compare((0, (0, 0)), (1, (5, 5)), order) == -1

    def test_top(self, ring_xy):
        order = parse_order("grevlex X Y ; top desc", ring_xy, 3)
        # term dominates position
        assert compare((2, (2, 0)), (0, (1, 0)), order) == 1
        # position breaks term ties
        assert compare((0, (1, 0)), (2, (1, 0)), order) == 1

    def test_component_permutation(self, ring_xy):
        order = parse_order("grevlex X Y ; pot 2 1 3", ring_xy, 3)
        assert compare((1, (0, 0)), (0, (0, 0)), order) == 1
        assert compare((0, (0, 0)), (2, (0, 0)), order) == 1

    def test_for_rank(self, ring_xy):
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 2)
        wide = order.for_rank(6)
        assert wide.rank == 6
        assert compare((0, (0, 0)), (5, (0, 0)), wide) == 1

    def test_total_order(self, ring_xy):
        order = default_order(ring_xy, 2)
        mons = [(c, (i, j)) for c in range(2) for i in range(3) for j in range(3)]
        keys = [order.key(m) for m in mons]
        assert len(set(keys)) == len(keys)

    def test_multiplicative(self, ring_xy):
        rng = random.Random(7)
        order = default_order(ring_xy, 2)
        for _ in range(200):
            m1 = (rng.randrange(2), (rng.randint(0, 4), rng.randint(0, 4)))
            m2 = (rng.randrange(2), (rng.randint(0, 4), rng.randint(0, 4)))
            e = (rng.randint(0, 3), rng.randint(0, 3))
            c = compare(m1, m2, order)
            shifted = compare(
                (m1[0], tuple(a + b for a, b in zip(m1[1], e))),
                (m2[0], tuple(a + b for a, b in zip(m2[1], e))),
                order,
            )
            assert c == shifted


class TestSchreyerOrder:
    def test_induced_comparison(self, ring_xy):
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        g = [parse_element(t, ring_xy, 1) for t in ["X^2*e1", "X*Y*e1"]]
        sord = SchreyerOrder([e.leading(order)[0] for e in g], order)
        # X*eps2 lifts to X^2*Y, Y*eps1 lifts to X^2*Y; tie broken toward smaller index
        assert compare((0, (0, 1)), (1, (1, 0)), sord) == 1

    def test_rank(self, ring_xy):
        order = default_order(ring_xy, 1)
        g = [parse_element("X*e1", ring_xy, 1)]
        sord = SchreyerOrder([e.leading(order)[0] for e in g], order)
        assert sord.rank == 1


def nested_key(order, mon):
    """The Schreyer key as first defined: recurse into the ambient order."""
    if not isinstance(order, SchreyerOrder):
        return order.key(mon)
    i, exp = mon
    c, le = order.lts[i]
    return (nested_key(order.ambient, (c, tuple(a + b for a, b in zip(exp, le)))), -i)


class TestFlatSchreyerKey:
    def test_flat_key_sorts_like_nested_key(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def chains(draw):
            n = draw(st.integers(1, 3))
            ring = Ring(n, QQ, ("X", "Y", "Z")[:n])
            exp = st.tuples(*[st.integers(0, 3)] * n)
            rank = draw(st.integers(1, 3))
            spec = "%s %s ; %s %s" % (
                draw(st.sampled_from(["lex", "grlex", "grevlex"])),
                " ".join(ring.names),
                draw(st.sampled_from(["pot", "top"])),
                draw(st.sampled_from(["desc", "asc"])),
            )
            order = parse_order(spec, ring, rank)
            for _ in range(draw(st.integers(1, 3))):
                lts = draw(st.lists(st.tuples(st.integers(0, order.rank - 1), exp), min_size=1, max_size=4))
                order = SchreyerOrder(lts, order)
            mons = draw(st.lists(st.tuples(st.integers(0, order.rank - 1), exp), min_size=2, max_size=12))
            return order, mons

        def sign(k1, k2):
            return -1 if k1 < k2 else (0 if k1 == k2 else 1)

        @hyp.settings(max_examples=80)
        @hyp.given(chains())
        def check(case):
            order, mons = case
            nested = [nested_key(order, m) for m in mons]
            assert sorted(range(len(mons)), key=lambda k: order.key(mons[k])) == sorted(
                range(len(mons)), key=lambda k: nested[k]
            )
            for k1, m1 in enumerate(mons):
                for k2, m2 in enumerate(mons):
                    assert compare(m1, m2, order) == sign(nested[k1], nested[k2])

        check()


class TestParseFormat:
    def test_round_trip(self, ring_xy):
        for text in [
            "grevlex X Y ; pot desc",
            "grlex Y X ; top asc",
            "lex X Y ; pot 2 1",
        ]:
            order = parse_order(text, ring_xy, 2)
            assert format_order(order, ring_xy) == text
            assert parse_order(format_order(order, ring_xy), ring_xy, 2) == order

    def test_defaults(self, ring_xy):
        assert parse_order("grevlex", ring_xy, 2) == default_order(ring_xy, 2)
        assert parse_order("grevlex;pot desc", ring_xy, 2) == default_order(ring_xy, 2)

    def test_errors(self, ring_xy):
        for bad in [
            "mystery X Y",
            "grevlex X",
            "grevlex X X",
            "grevlex X Y ; pot maybe ; extra",
            "grevlex X Y ; sideways desc",
            "grevlex X Y ; pot 1",
            "grevlex X Y ; pot 1 one",
        ]:
            with pytest.raises(InputError):
                parse_order(bad, ring_xy, 2)
