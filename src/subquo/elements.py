"""Coefficient fields, polynomial rings and exact module elements."""

import operator
import re

from .errors import InputError

_BASIS_PREFIX = "e"
# a basis vector name: the prefix and a run of decimal digits
_BASIS = re.compile(_BASIS_PREFIX + r"\d+")
# one element-grammar token; whitespace between tokens is skipped
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>\w+)|(?P<op>[-+*/^])|(?P<bad>\S)")


def _is_prime(p):
    """Return True if p is prime (trial division, p < 2**31)."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class FpValue:
    """Residue in F_p supporting exact field arithmetic."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return FpValue(self.v + other.v, self.p)

    def __sub__(self, other):
        return FpValue(self.v - other.v, self.p)

    def __mul__(self, other):
        return FpValue(self.v * other.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpValue(self.v * pow(other.v, -1, self.p), self.p)

    def __neg__(self):
        return FpValue(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        return isinstance(other, FpValue) and self.v == other.v and self.p == other.p

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return "FpValue(%d, %d)" % (self.v, self.p)


class RationalField:
    """The field of rationals with exact Fraction arithmetic.

    fractions (which imports decimal) is imported on first use of zero, one
    or a constructor, so a run over fp:<p> never loads it.
    """

    name = "q"

    def __getattr__(self, name):
        if name not in ("zero", "one", "_fraction"):
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        from fractions import Fraction

        self._fraction, self.zero, self.one = Fraction, Fraction(0), Fraction(1)
        return getattr(self, name)

    def from_int(self, k):
        return self._fraction(k)

    def from_fraction(self, num, den=1):
        if den == 0:
            raise InputError("zero denominator in coefficient")
        return self._fraction(num, den)

    def format(self, c):
        return str(c)

    def is_negative(self, c):
        return c < 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_p for an odd prime p below 2**31."""

    def __init__(self, p):
        if not (2 < p < 2**31 and p % 2 == 1 and _is_prime(p)):
            raise InputError("field characteristic must be an odd prime below 2^31, got %r" % (p,))
        self.p = p
        self.name = "fp:%d" % p
        self.zero = FpValue(0, p)
        self.one = FpValue(1, p)

    def from_int(self, k):
        return FpValue(k, self.p)

    def from_fraction(self, num, den=1):
        if den % self.p == 0:
            raise InputError("coefficient denominator divisible by the characteristic")
        return FpValue(num, self.p) / FpValue(den, self.p)

    def format(self, c):
        return str(c.v)

    def is_negative(self, c):
        return False

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return "F%d" % self.p


QQ = RationalField()


def parse_field(text):
    """Parse a field descriptor, 'q' or 'fp:<p>'."""
    text = text.strip().lower()
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise InputError("bad prime in field descriptor %r" % text) from None
        return PrimeField(p)
    raise InputError("unknown field descriptor %r (expected 'q' or 'fp:<p>')" % text)


class Ring:
    """Multivariate polynomial ring over an exact coefficient field."""

    __slots__ = ("n", "field", "names", "_index")

    def __init__(self, n, field=QQ, names=None):
        if n < 1:
            raise InputError("ring needs at least one variable")
        if names is None:
            names = tuple("x%d" % (i + 1) for i in range(n))
        names = tuple(names)
        if len(names) != n or len(set(names)) != n:
            raise InputError("need %d distinct variable names" % n)
        for nm in names:
            if not nm or not nm[0].isalpha() or not nm.replace("_", "").isalnum():
                raise InputError("bad variable name %r" % nm)
            if _BASIS.fullmatch(nm):
                raise InputError("variable name %r collides with basis vector syntax" % nm)
        self.n = n
        self.field = field
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise InputError("unknown variable %r" % name) from None

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.n == other.n
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.n, self.field, self.names))

    def __repr__(self):
        return "Ring(n=%d, field=%r)" % (self.n, self.field)


def exp_add(a, b):
    """Componentwise sum of exponent tuples."""
    return tuple(map(operator.add, a, b))


def exp_sub(a, b):
    """Componentwise difference of exponent tuples."""
    return tuple(map(operator.sub, a, b))


def exp_divides(a, b):
    """Return True if X^a divides X^b."""
    return all(map(operator.le, a, b))


def exp_lcm(a, b):
    """Componentwise maximum of exponent tuples."""
    return tuple(map(max, a, b))


def mon_divides(m1, m2):
    """Return True if module monomial m1 divides m2 (equal components)."""
    return m1[0] == m2[0] and exp_divides(m1[1], m2[1])


def parse_degree(text, n):
    """Parse a degree tuple like '(1,0)'."""
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise InputError("bad degree %r (expected '(a,b,...)')" % text)
    parts = t[1:-1].split(",")
    if len(parts) != n:
        raise InputError("degree %r has %d entries, expected %d" % (text, len(parts), n))
    try:
        return tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise InputError("bad integer in degree %r" % text) from None


def format_degree(a):
    """Render a degree tuple like '(1,0)'."""
    return "(%s)" % ",".join(str(x) for x in a)


class ModuleElement:
    """Immutable element of R^d stored as sparse exact terms.

    No element is mutated after construction, and no order is mutated after
    its own, so `leading` keeps its last result with the order object it was
    computed under and returns it again for that same object (`is`). The
    memo holds the order itself, not its id, so an id reused after garbage
    collection cannot alias. It is not part of the value: __eq__ and
    __hash__ ignore it.
    """

    __slots__ = ("ring", "rank", "terms", "_lead_order", "_lead")

    def __init__(self, ring, rank, mapping):
        self.ring = ring
        self.rank = rank
        self.terms = tuple(sorted((m, c) for m, c in mapping.items() if c))
        self._lead_order = None

    @classmethod
    def zero(cls, ring, rank):
        return cls(ring, rank, {})

    @classmethod
    def monomial(cls, ring, rank, comp, exp, coeff=None):
        if coeff is None:
            coeff = ring.field.one
        return cls(ring, rank, {(comp, tuple(exp)): coeff})

    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, comp, exp):
        for m, c in self.terms:
            if m == (comp, exp):
                return c
        return self.ring.field.zero

    def __add__(self, other):
        d = dict(self.terms)
        for m, c in other.terms:
            prev = d.get(m)
            d[m] = c if prev is None else prev + c
        return ModuleElement(self.ring, self.rank, d)

    def __sub__(self, other):
        d = dict(self.terms)
        for m, c in other.terms:
            prev = d.get(m)
            d[m] = -c if prev is None else prev - c
        return ModuleElement(self.ring, self.rank, d)

    def __neg__(self):
        return ModuleElement(self.ring, self.rank, {m: -c for m, c in self.terms})

    def scale(self, c):
        """Multiply by a scalar."""
        if not c:
            return ModuleElement.zero(self.ring, self.rank)
        return ModuleElement(self.ring, self.rank, {m: c * cf for m, cf in self.terms})

    def mul_term(self, coeff, exp):
        """Multiply by the ring term coeff * X^exp."""
        if not coeff:
            return ModuleElement.zero(self.ring, self.rank)
        return ModuleElement(
            self.ring,
            self.rank,
            {(m[0], exp_add(m[1], exp)): coeff * c for m, c in self.terms},
        )

    def mul_poly(self, p):
        """Multiply by a rank-1 element of the same ring."""
        d = {}
        for (_, e), c in p.terms:
            for m, cf in self.terms:
                key = (m[0], exp_add(m[1], e))
                prev = d.get(key)
                d[key] = c * cf if prev is None else prev + c * cf
        return ModuleElement(self.ring, self.rank, d)

    def pad(self, rank):
        """Reinterpret inside R^rank for a larger rank."""
        return ModuleElement(self.ring, rank, dict(self.terms))

    def leading(self, order):
        """Return (monomial, coeff) of the leading term under `order`."""
        if order is self._lead_order:
            return self._lead
        if not self.terms:
            raise ValueError("zero element has no leading term")
        key = order.key
        self._lead = max(self.terms, key=lambda t: key(t[0]))
        self._lead_order = order
        return self._lead

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.rank == other.rank
            and self.terms == other.terms
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.rank, self.terms))

    def __repr__(self):
        return "<%s>" % format_element(self)


def _tokens(text):
    """Token list [(kind, text, pos)] of the element grammar, ending in
    (None, None, len(text)). An operator's kind is itself; a number is a run
    of decimal digits, the digits int() reads; a name starts with a letter."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind, val, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad" or kind == "name" and not val[0].isalpha():
            raise InputError("parse error at position %d: unexpected %r" % (pos, val[0]))
        toks.append((val if kind == "op" else kind, val, pos))
    toks.append((None, None, len(text)))
    return toks


def _parse_term(toks, i, ring):
    """Parse the term at toks[i], returning (next i, comp_or_None, exp, coeff)."""
    field = ring.field
    coeff = field.one
    exp = [0] * ring.n
    comp = None
    kind, val, _ = toks[i]
    if kind == "int":
        den = 1
        if toks[i + 1][0] == "/":
            k2, v2, p2 = toks[i + 2]
            if k2 != "int":
                raise InputError("parse error at position %d: expected denominator" % p2)
            den = int(v2)
            i += 2
        coeff = field.from_fraction(int(val), den)
        i += 1
        if toks[i][0] != "*":
            return i, comp, tuple(exp), coeff
        i += 1
    while True:
        kind, val, pos = toks[i]
        if kind != "name":
            raise InputError("parse error at position %d: expected a variable or basis factor" % pos)
        i += 1
        if _BASIS.fullmatch(val):
            if comp is not None:
                raise InputError("parse error at position %d: duplicate basis factor" % pos)
            idx = int(val[1:])
            if idx < 1:
                raise InputError("parse error at position %d: basis index must be >= 1" % pos)
            if toks[i][0] == "^":
                raise InputError("parse error at position %d: basis vectors take no exponent" % toks[i][2])
            comp = idx - 1
        else:
            v = ring._index.get(val)
            if v is None:
                raise InputError("parse error at position %d: unknown variable %r" % (pos, val))
            e = 1
            if toks[i][0] == "^":
                k2, v2, p2 = toks[i + 1]
                if k2 != "int":
                    raise InputError("parse error at position %d: expected exponent" % p2)
                e = int(v2)
                i += 2
            exp[v] += e
        if toks[i][0] != "*":
            return i, comp, tuple(exp), coeff
        i += 1


def parse_element(text, ring, rank=None):
    """Parse an element of R^rank from the textual grammar."""
    if text.strip() == "0":
        return ModuleElement.zero(ring, rank if rank is not None else 1)
    toks = _tokens(text)
    if toks[0][0] is None:
        raise InputError("parse error at position 0: empty input")
    raw = []
    i, sign = 0, 1
    if toks[0][0] == "-":
        i, sign = 1, -1
    while True:
        i, comp, exp, coeff = _parse_term(toks, i, ring)
        raw.append((comp, exp, -coeff if sign < 0 else coeff))
        kind, _, pos = toks[i]
        if kind is None:
            break
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            raise InputError("parse error at position %d: expected '+' or '-'" % pos)
        i += 1
    max_comp = max(0 if c is None else c for c, _, _ in raw)
    if rank is None:
        rank = max_comp + 1
    elif max_comp >= rank:
        raise InputError("basis index e%d exceeds rank %d" % (max_comp + 1, rank))
    d = {}
    for comp, exp, coeff in raw:
        key = (0 if comp is None else comp, exp)
        prev = d.get(key)
        d[key] = coeff if prev is None else prev + coeff
    return ModuleElement(ring, rank, d)


def _format_term(ring, mon, coeff, rank, lead):
    """Format one term, returning (separator, body) strings."""
    field = ring.field
    comp, exp = mon
    neg = field.is_negative(coeff)
    mag = -coeff if neg else coeff
    parts = []
    for i, e in enumerate(exp):
        if e == 1:
            parts.append(ring.names[i])
        elif e > 0:
            parts.append("%s^%d" % (ring.names[i], e))
    if rank > 1:
        parts.append("%s%d" % (_BASIS_PREFIX, comp + 1))
    if not parts or mag != field.one:
        parts.insert(0, field.format(mag))
    body = "*".join(parts)
    if lead:
        return ("-" if neg else ""), body
    return ("-" if neg else "+"), body


def format_element(f, order=None):
    """Format an element, leading term first when an order is given."""
    if f.is_zero:
        return "0"
    terms = list(f.terms)
    if order is not None:
        key = order.key
        terms.sort(key=lambda t: key(t[0]), reverse=True)
    out = []
    for i, (mon, coeff) in enumerate(terms):
        sep, body = _format_term(f.ring, mon, coeff, f.rank, i == 0)
        out.append(sep + body)
    return "".join(out)
