"""Relative division, relative bases and their Schreyer syzygies."""

import random

import pytest

from subquo import (
    ModuleElement,
    buchberger,
    is_relative_gb,
    normal_form,
    parse_element,
    parse_order,
    reduce_groebner,
    reduce_relative,
    relative_buchberger,
    relative_division,
    relative_schreyer,
    schreyer_syzygies,
)

from conftest import DEG5_U, DEG5_V, R2_U, R6_U, els, fmts, random_element


def deg5_setup(ring_xy):
    order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
    g_u = reduce_groebner(buchberger(els(ring_xy, 1, DEG5_U), order), order)
    return order, g_u


class TestRelativeDivision:
    def test_inner_reductions_untracked(self, ring_x):
        order = parse_order("grevlex X ; pot desc", ring_x, 1)
        g_u = els(ring_x, 1, ["X^2*e1"])
        h = els(ring_x, 1, ["X*e1"])
        f = parse_element("X^3*e1+X*e1+e1", ring_x, 1)
        rem, quots = relative_division(f, g_u, h, order)
        assert fmts([rem]) == ["1"]
        assert fmts(quots) == ["1"]

    def test_identity_modulo_inner(self, ring_xy):
        order, g_u = deg5_setup(ring_xy)
        h = els(ring_xy, 1, DEG5_V)
        f = parse_element("X^2*Y^3*e1+X*Y^2*e1+Y^4*e1", ring_xy, 1)
        rem, quots = relative_division(f, g_u, h, order)
        recon = rem
        for q, g in zip(quots, h):
            recon = recon + g.mul_poly(q)
        assert normal_form(f - recon, g_u, order).is_zero

    def test_inner_precedence(self, ring_xy):
        # a term divisible by both reduces through the inner basis
        order, g_u = deg5_setup(ring_xy)
        h = els(ring_xy, 1, ["Y^3*e1"])
        f = parse_element("Y^5*e1", ring_xy, 1)
        rem, quots = relative_division(f, g_u, h, order)
        assert rem.is_zero
        assert all(q.is_zero for q in quots)


class TestRelativeBuchberger:
    def test_degree5_completion(self, ring_xy):
        order, g_u = deg5_setup(ring_xy)
        h = relative_buchberger(els(ring_xy, 1, DEG5_V), g_u, order)
        red = reduce_relative(h, g_u, order)
        assert fmts(red, order) == ["X*Y^2+X^3", "Y^3", "X^3*Y"]

    def test_completion_passes_post_check(self, ring_xy):
        order, g_u = deg5_setup(ring_xy)
        h = relative_buchberger(els(ring_xy, 1, DEG5_V), g_u, order)
        assert is_relative_gb(h, g_u, order)

    def test_input_not_relative_gb(self, ring_xy):
        order, g_u = deg5_setup(ring_xy)
        assert not is_relative_gb(els(ring_xy, 1, DEG5_V), g_u, order)

    def test_reduced_supported_off_inner_leads(self, ring_xy):
        order, g_u = deg5_setup(ring_xy)
        h = reduce_relative(
            relative_buchberger(els(ring_xy, 1, DEG5_V), g_u, order), g_u, order
        )
        for e in h:
            assert normal_form(e, g_u, order) == e

    def test_shuffle_invariance(self, ring_xy):
        rng = random.Random(31)
        order, g_u = deg5_setup(ring_xy)
        gens = els(ring_xy, 1, DEG5_V + ["X^4*e1+X*Y^2*e1"])
        want = reduce_relative(relative_buchberger(gens, g_u, order), g_u, order)
        for _ in range(10):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            got = reduce_relative(
                relative_buchberger(shuffled, g_u, order), g_u, order
            )
            assert got == want

    def test_random_relative_outputs(self, ring_xy):
        rng = random.Random(77)
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        for _ in range(25):
            u = [random_element(rng, ring_xy, 1, max_deg=3) for _ in range(2)]
            v = [random_element(rng, ring_xy, 1, max_deg=3) for _ in range(2)]
            g_u = reduce_groebner(buchberger(u, order), order)
            h = relative_buchberger(v, g_u, order)
            assert is_relative_gb(h, g_u, order)


class TestRelativeSchreyer:
    def test_free_cover_syzygy(self, ring_x):
        order = parse_order("grevlex X ; pot desc", ring_x, 1)
        g_u = els(ring_x, 1, ["X^2*e1"])
        h = els(ring_x, 1, ["X*e1"])
        syz, sord = relative_schreyer(h, g_u, order)
        assert fmts(syz, sord) == ["X"]

    def test_zero_inner_elements_left_out(self, ring_xy):
        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        h = els(ring_xy, 1, ["Y^2*e1"])
        syz, sord = relative_schreyer(h, els(ring_xy, 1, ["0", "X^2*e1"]), order)
        assert fmts(syz, sord) == ["X^2"]
        plain, plain_sord = relative_schreyer(h, els(ring_xy, 1, ["X^2*e1"]), order)
        assert syz == plain and sord == plain_sord

    def test_syzygies_map_into_inner(self, ring_xy):
        order, g_u = deg5_setup(ring_xy)
        h = reduce_relative(
            relative_buchberger(els(ring_xy, 1, DEG5_V), g_u, order), g_u, order
        )
        syz, _ = relative_schreyer(h, g_u, order)
        for s in syz:
            total = ModuleElement.zero(ring_xy, 1)
            for (j, e), c in s.terms:
                total = total + h[j].mul_term(c, e)
            assert normal_form(total, g_u, order).is_zero

    def test_syzygy_count_excludes_zero_projections(self, ring_xy):
        order, g_u = deg5_setup(ring_xy)
        h = reduce_relative(
            relative_buchberger(els(ring_xy, 1, DEG5_V), g_u, order), g_u, order
        )
        syz, _ = relative_schreyer(h, g_u, order)
        assert all(not s.is_zero for s in syz)
        assert all(s.rank == len(h) for s in syz)

    @pytest.mark.parametrize("rank, texts", [(2, R2_U), (6, R6_U)], ids=["rank2", "rank6"])
    def test_empty_inner_matches_schreyer_syzygies(self, ring2, rank, texts):
        order = parse_order("grevlex X1 X2 ; pot desc", ring2, rank)
        G = reduce_groebner(buchberger(els(ring2, rank, texts), order), order)
        ours, rel_sord = relative_schreyer(G, [], order)
        theirs, sord = schreyer_syzygies(G, order)
        assert ours and ours == theirs
        assert fmts(ours, rel_sord) == fmts(theirs, sord)
