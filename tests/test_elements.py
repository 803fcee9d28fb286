"""Coefficient fields, rings and sparse module elements."""

import pytest

from subquo import (
    InputError,
    ModuleElement,
    PrimeField,
    QQ,
    Ring,
    SchreyerOrder,
    format_element,
    parse_element,
    parse_field,
    parse_order,
)
from subquo.elements import exp_add, exp_divides, exp_lcm, exp_sub, mon_divides
from subquo.orders import BaseOrder

from conftest import cube_resolution, els, fmts


class TestFields:
    def test_rational_arithmetic(self):
        a = QQ.from_fraction(1, 3)
        b = QQ.from_fraction(1, 6)
        assert a + b == QQ.from_fraction(1, 2)
        assert a - b == QQ.from_fraction(1, 6)
        assert a * b == QQ.from_fraction(1, 18)
        assert a / b == QQ.from_int(2)
        assert -a == QQ.from_fraction(-1, 3)
        assert not QQ.zero
        assert QQ.one

    def test_rational_format(self):
        assert QQ.format(QQ.from_fraction(3, 4)) == "3/4"
        assert QQ.format(QQ.from_int(-2)) == "-2"
        assert QQ.is_negative(QQ.from_int(-2))
        assert not QQ.is_negative(QQ.from_int(2))

    def test_prime_field(self):
        F = PrimeField(5)
        a, b = F.from_int(3), F.from_int(4)
        assert a + b == F.from_int(2)
        assert a * b == F.from_int(2)
        assert a / b == F.from_int(2)
        assert F.from_fraction(1, 2) == F.from_int(3)
        assert F.format(F.from_int(4)) == "4"

    def test_prime_field_rejects_composite(self):
        with pytest.raises(InputError):
            PrimeField(6)

    def test_parse_field(self):
        assert parse_field("q") is QQ
        assert parse_field("fp:7") == PrimeField(7)
        with pytest.raises(InputError):
            parse_field("gf:4")
        with pytest.raises(InputError):
            parse_field("fp:abc")


class TestRing:
    def test_default_names(self):
        r = Ring(3)
        assert r.names == ("x1", "x2", "x3")
        assert r.var_index("x2") == 1

    def test_validation(self):
        with pytest.raises(InputError):
            Ring(0)
        with pytest.raises(InputError):
            Ring(2, QQ, ("x", "x"))
        with pytest.raises(InputError):
            Ring(2, QQ, ("x",))
        with pytest.raises(InputError):
            Ring(1, QQ, ("e1",))
        with pytest.raises(InputError):
            Ring(1, QQ, ("1x",))

    def test_unknown_variable(self):
        r = Ring(2, QQ, ("X", "Y"))
        with pytest.raises(InputError):
            r.var_index("Z")


class TestExponents:
    def test_arithmetic(self):
        assert exp_add((1, 2), (3, 4)) == (4, 6)
        assert exp_sub((3, 4), (1, 2)) == (2, 2)
        assert exp_lcm((1, 4), (3, 2)) == (3, 4)
        assert exp_divides((1, 2), (1, 3))
        assert not exp_divides((2, 0), (1, 3))

    def test_monomial_divisibility(self):
        assert mon_divides((0, (1, 0)), (0, (2, 1)))
        assert not mon_divides((0, (1, 0)), (1, (2, 1)))


class TestModuleElement:
    def test_add_sub_cancel(self, ring_xy):
        f, g = els(ring_xy, 2, ["X*e1+Y*e2", "X*e1-Y*e2"])
        assert format_element(f + g) == "2*X*e1"
        assert format_element(f - g) == "2*Y*e2"
        assert (f - f).is_zero

    def test_scale_and_mul_term(self, ring_xy):
        (f,) = els(ring_xy, 2, ["X*e1+Y*e2"])
        assert format_element(f.scale(QQ.from_int(3))) == "3*X*e1+3*Y*e2"
        assert f.scale(QQ.zero).is_zero
        g = f.mul_term(QQ.from_int(-1), (1, 1))
        assert format_element(g) == "-X^2*Y*e1-X*Y^2*e2"

    def test_mul_poly(self, ring_xy):
        (f,) = els(ring_xy, 2, ["X*e1+Y*e2"])
        (p,) = els(ring_xy, 1, ["X+Y"])
        (want,) = els(ring_xy, 2, ["X^2*e1+X*Y*e1+X*Y*e2+Y^2*e2"])
        assert f.mul_poly(p) == want

    def test_restrict_pad(self, ring_xy):
        (f,) = els(ring_xy, 3, ["X*e1+Y*e3"])
        assert f.pad(5).rank == 5
        assert f.pad(5).terms == f.terms

    def test_coeff_components(self, ring_xy):
        (f,) = els(ring_xy, 3, ["X*e1+2*Y*e3"])
        assert f.coeff(2, (0, 1)) == QQ.from_int(2)
        assert f.coeff(1, (0, 1)) == QQ.zero

    def test_zero_has_no_leading_term(self, ring_xy):
        from subquo import default_order

        z = ModuleElement.zero(ring_xy, 2)
        with pytest.raises(ValueError):
            z.leading(default_order(ring_xy, 2))


class TestLeadingMemo:
    def test_memo_matches_uncached_lead_across_orders(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def cases(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            n, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            ring = Ring(n, field, ("X", "Y", "Z")[:n])
            exp = st.tuples(*[st.integers(0, 3)] * n)
            coeff = st.integers(-3, 3).filter(bool).map(field.from_int)
            terms = draw(st.dictionaries(st.tuples(st.integers(0, rank - 1), exp), coeff, min_size=1, max_size=6))
            names = " ".join(ring.names)
            lts = draw(st.lists(st.tuples(st.integers(0, 1), exp), min_size=rank, max_size=rank))
            ambient = parse_order("grlex %s ; top desc" % names, ring, 2)
            makers = [
                lambda: parse_order("grevlex %s ; pot desc" % names, ring, rank),
                lambda: parse_order("lex %s ; top asc" % names, ring, rank),
                lambda: SchreyerOrder(lts, ambient),
            ]
            i, j = draw(st.permutations(range(3)))[:2]
            # the last order equals the first but is another object
            return ModuleElement(ring, rank, terms), makers[i](), makers[j](), makers[i]()

        @hyp.settings(max_examples=60)
        @hyp.given(cases())
        def check(case):
            f, a, b, twin = case
            assert twin == a and twin is not a
            for order in (a, b, a, twin, a, twin):
                assert f.leading(order) == max(f.terms, key=lambda t: order.key(t[0]))

        check()

    def test_cube_resolution_computes_few_order_keys(self, monkeypatch):
        # a fresh order object per call in a hot loop would defeat the memo
        # without changing any result; the count shows it
        calls = [0]
        key = BaseOrder.key

        def counted(self, exp):
            calls[0] += 1
            return key(self, exp)

        monkeypatch.setattr(BaseOrder, "key", counted)
        cube_resolution(QQ)
        assert 0 < calls[0] < 2000


class TestParseFormat:
    def test_scalar_round_trips(self, ring_xy):
        for text in ["0", "1", "-1", "X", "X*Y^2+X^3", "1/2*X-3*Y", "X^2-1"]:
            e = parse_element(text, ring_xy, 1)
            assert parse_element(format_element(e), ring_xy, 1) == e

    def test_leading_minus_and_fractions(self, ring_xy):
        e = parse_element("-1/2*X*e1+Y*e2", ring_xy, 2)
        assert e.coeff(0, (1, 0)) == QQ.from_fraction(-1, 2)
        assert format_element(e) == "-1/2*X*e1+Y*e2"

    def test_bare_basis_vector(self, ring_xy):
        e = parse_element("e2", ring_xy)
        assert e.rank == 2
        assert e.coeff(1, (0, 0)) == QQ.one

    def test_rank_inference_and_check(self, ring_xy):
        assert parse_element("X*e3", ring_xy).rank == 3
        with pytest.raises(InputError):
            parse_element("X*e3", ring_xy, rank=2)

    def test_repeated_monomial_collects(self, ring_xy):
        e = parse_element("X*e1+X*e1", ring_xy, 1)
        assert format_element(e) == "2*X"

    def test_format_with_order_sorts_descending(self, ring_xy):
        from subquo import parse_order

        order = parse_order("grevlex X Y ; pot desc", ring_xy, 1)
        e = parse_element("X^3*e1+X*Y^2*e1", ring_xy, 1)
        assert format_element(e, order) == "X*Y^2+X^3"

    def test_parse_errors(self, ring_xy):
        for bad in ["X+", "*X", "X**2", "X^-1", "Z", "e0", "1//2", "(X"]:
            with pytest.raises(InputError):
                parse_element(bad, ring_xy, 2)

    def test_prime_field_coefficients(self):
        r = Ring(1, PrimeField(5), ("t",))
        e = parse_element("3*t+4*t", r, 1)
        assert format_element(e) == "2*t"

    def test_rank_one_formats_without_basis_suffix(self, ring_xy):
        assert fmts(els(ring_xy, 1, ["X*e1"])) == ["X"]
        assert fmts(els(ring_xy, 2, ["X*e1"])) == ["X*e1"]


class TestParserContract:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("X+(", "parse error at position 2: unexpected '('"),
            ("1/X", "parse error at position 2: expected denominator"),
            ("*X", "parse error at position 0: expected a variable or basis factor"),
            ("X*e1*e2", "parse error at position 5: duplicate basis factor"),
            ("e0", "parse error at position 0: basis index must be >= 1"),
            ("e1^2", "parse error at position 2: basis vectors take no exponent"),
            ("Z", "parse error at position 0: unknown variable 'Z'"),
            ("X^Y", "parse error at position 2: expected exponent"),
            ("X Y", "parse error at position 2: expected '+' or '-'"),
            ("  ", "parse error at position 0: empty input"),
            ("X*e3", "basis index e3 exceeds rank 2"),
        ],
    )
    def test_error_messages_frozen(self, text, message, ring_xy):
        with pytest.raises(InputError) as exc:
            parse_element(text, ring_xy, 2)
        assert str(exc.value) == message

    def test_arbitrary_text_raises_only_input_errors(self, ring_xy):
        # '²' is a digit to str.isdigit() but not to int(); '٣' is a
        # decimal digit int() reads; 'é' is a letter but no variable
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=400)
        @hyp.given(st.text("0123456789XYe+-*/^ \t\n_²٣é", max_size=12), st.sampled_from([None, 1, 2]))
        @hyp.example("X^²", 1)
        @hyp.example("²*X", None)
        @hyp.example("e²", None)
        def check(text, rank):
            try:
                parse_element(text, ring_xy, rank)
            except InputError:
                pass

        check()

    def test_format_parse_round_trip(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def cases(draw):
            field = parse_field(draw(st.sampled_from(["q", "fp:32003"])))
            n, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            names = ("X", "é", "y_2")[:n]
            ring = Ring(n, field, names)
            exp = st.tuples(*[st.integers(0, 3)] * n)
            coeff = st.tuples(st.integers(-40, 40), st.integers(1, 9)).map(lambda c: field.from_fraction(*c))
            terms = draw(st.dictionaries(st.tuples(st.integers(0, rank - 1), exp), coeff, max_size=5))
            base = draw(st.sampled_from(["lex", "grlex", "grevlex"]))
            pos = draw(st.sampled_from(["pot asc", "pot desc", "top asc", "top desc"]))
            order = parse_order("%s %s ; %s" % (base, " ".join(names), pos), ring, rank)
            return ModuleElement(ring, rank, terms), order

        @hyp.settings(max_examples=200)
        @hyp.given(cases())
        def check(case):
            e, order = case
            assert parse_element(format_element(e, order), e.ring, e.rank) == e

        check()

    def test_basis_names_are_decimal(self):
        # the ring's collision check and the parser agree on what eK is
        with pytest.raises(InputError, match="collides with basis vector syntax"):
            Ring(1, QQ, ("e١",))
        assert parse_element("e١", Ring(1, QQ, ("X",))).rank == 1
        ring = Ring(1, QQ, ("e²",))
        assert parse_element("2*e²^3", ring) == ModuleElement(ring, 1, {(0, (3,)): QQ.from_int(2)})
