"""Monomial orders on free modules: base orders, POT/TOP extensions, Schreyer orders."""

from operator import itemgetter, neg

from .elements import exp_add
from .errors import InputError

_BASE_KINDS = ("lex", "grlex", "grevlex")


class BaseOrder:
    """Monomial order on ring monomials with a variable priority permutation."""

    __slots__ = ("kind", "asc", "_pick")

    def __init__(self, kind, asc):
        if kind not in _BASE_KINDS:
            raise InputError("unknown base order %r" % kind)
        self.kind = kind
        self.asc = tuple(asc)
        # the exponents a key compares, as a tuple (itemgetter of one index
        # gives a bare int, so one variable takes a slice)
        perm = self.asc if kind == "grevlex" else self.asc[::-1]
        self._pick = itemgetter(*perm) if len(perm) > 1 else itemgetter(slice(perm[0], perm[0] + 1))

    def key(self, exp):
        """Ascending sort key for an exponent tuple."""
        if self.kind == "lex":
            return self._pick(exp)
        if self.kind == "grlex":
            return (sum(exp), self._pick(exp))
        return (sum(exp), tuple(map(neg, self._pick(exp))))

    def __eq__(self, other):
        return isinstance(other, BaseOrder) and self.kind == other.kind and self.asc == other.asc

    def __repr__(self):
        return "BaseOrder(%r, asc=%r)" % (self.kind, self.asc)


class ModuleOrder:
    """POT or TOP extension of a base order to R^d."""

    __slots__ = ("base", "ext", "rank", "comp_rank", "comp_dir")

    def __init__(self, base, ext, rank, comp_dir="desc"):
        if ext not in ("pot", "top"):
            raise InputError("unknown extension %r" % ext)
        self.base = base
        self.ext = ext
        self.rank = rank
        self.comp_dir = comp_dir
        if comp_dir == "desc":
            self.comp_rank = tuple(rank - 1 - i for i in range(rank))
        elif comp_dir == "asc":
            self.comp_rank = tuple(range(rank))
        else:
            perm = tuple(comp_dir)
            if sorted(perm) != list(range(rank)):
                raise InputError("component permutation must cover 1..%d" % rank)
            ranks = [0] * rank
            for pos, comp in enumerate(perm):
                ranks[comp] = rank - 1 - pos
            self.comp_rank = tuple(ranks)
            self.comp_dir = perm

    def key(self, mon):
        """Ascending sort key for a module monomial (comp, exp)."""
        comp, exp = mon
        if self.ext == "pot":
            return (self.comp_rank[comp], self.base.key(exp))
        return (self.base.key(exp), self.comp_rank[comp])

    def for_rank(self, rank):
        """Same order style on a free module of another rank.

        A component permutation fits only its own rank, so at any other rank
        it falls back to "desc"; "asc" and "desc" carry over. At its own rank
        it returns self, so leading terms memoized under this order object
        stay valid.
        """
        if rank == self.rank:
            return self
        direction = self.comp_dir if self.comp_dir in ("desc", "asc") else "desc"
        return ModuleOrder(self.base, self.ext, rank, direction)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleOrder)
            and self.base == other.base
            and self.ext == other.ext
            and self.rank == other.rank
            and self.comp_rank == other.comp_rank
        )

    def __repr__(self):
        return "ModuleOrder(%r, %r, rank=%d)" % (self.base, self.ext, self.rank)


class SchreyerOrder:
    """Order on R^s induced by lifting through leading terms of a basis.

    Defined recursively, the key of (i, x^a) is
    (ambient.key((c_i, a + l_i)), -i), where (c_i, l_i) is the i-th leading
    monomial. Unrolled down a chain of k Schreyer orders over a base module
    order, component i lifts to ambient component b_i with total shift s_i,
    passing through indices i_1, ..., i_k = i (i_1 at the level next to the
    base), and the nested key is ((...((base.key((b_i, a + s_i)), -i_1),
    -i_2)...), -i_k). The flat key (base.key((b_i, a + s_i)), (-i_1, ...,
    -i_k)) sorts identically: every component of one order has the same
    depth k, so two nested keys compare their base keys, then -i_1, ...,
    then -i_k, which is exactly the lexicographic comparison of the flat
    pairs. Each (b_i, s_i, ties) is precomputed, so a key costs one exp_add
    and one base key at any depth.
    """

    __slots__ = ("lts", "ambient", "rank", "_base", "_flat")

    def __init__(self, lts, ambient):
        self.lts = tuple(lts)
        self.ambient = ambient
        self.rank = len(self.lts)
        nested = isinstance(ambient, SchreyerOrder)
        self._base = ambient._base if nested else ambient
        flat = []
        for i, (c, le) in enumerate(self.lts):
            if nested:
                b, s, ties = ambient._flat[c]
                flat.append((b, exp_add(s, le), ties + (-i,)))
            else:
                flat.append((c, le, (-i,)))
        self._flat = tuple(flat)

    def key(self, mon):
        """Ascending sort key: base key of the lift, then the tie indices."""
        i, exp = mon
        b, s, ties = self._flat[i]
        return (self._base.key((b, exp_add(exp, s))), ties)

    def __eq__(self, other):
        return (
            isinstance(other, SchreyerOrder)
            and self.lts == other.lts
            and self.ambient == other.ambient
        )

    def __repr__(self):
        return "SchreyerOrder(rank=%d, ambient=%r)" % (self.rank, self.ambient)


def compare(m1, m2, order):
    """Compare two module monomials under an order, returning -1, 0 or 1."""
    k1, k2 = order.key(m1), order.key(m2)
    return -1 if k1 < k2 else (0 if k1 == k2 else 1)


def default_order(ring, rank):
    """Default order: grevlex with x1 < x2 < ..., POT with e1 > e2 > ... ."""
    return ModuleOrder(BaseOrder("grevlex", range(ring.n)), "pot", rank, "desc")


def parse_order(text, ring, rank):
    """Parse an order descriptor like 'grevlex x1 x2 ; pot desc'."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) > 2 or not parts[0]:
        raise InputError("bad order descriptor %r" % text)
    toks = parts[0].split()
    kind = toks[0].lower()
    if kind not in _BASE_KINDS:
        raise InputError("unknown base order %r in descriptor" % toks[0])
    if len(toks) > 1:
        if len(toks) - 1 != ring.n:
            raise InputError("order descriptor lists %d variables, ring has %d" % (len(toks) - 1, ring.n))
        asc = tuple(ring.var_index(v) for v in toks[1:])
        if sorted(asc) != list(range(ring.n)):
            raise InputError("order descriptor variables must be a permutation")
    else:
        asc = tuple(range(ring.n))
    base = BaseOrder(kind, asc)
    ext, comp_dir = "pot", "desc"
    if len(parts) == 2 and parts[1]:
        etoks = parts[1].split()
        ext = etoks[0].lower()
        if ext not in ("pot", "top"):
            raise InputError("unknown extension %r in descriptor" % etoks[0])
        if len(etoks) == 2 and etoks[1].lower() in ("desc", "asc"):
            comp_dir = etoks[1].lower()
        elif len(etoks) > 1:
            try:
                perm = tuple(int(t) - 1 for t in etoks[1:])
            except ValueError:
                raise InputError("bad component permutation in descriptor %r" % text) from None
            if len(perm) != rank:
                raise InputError("component permutation lists %d components, rank is %d" % (len(perm), rank))
            comp_dir = perm
    return ModuleOrder(base, ext, rank, comp_dir)


def format_order(order, ring):
    """Canonical descriptor text for a ModuleOrder."""
    left = " ".join([order.base.kind] + [ring.names[v] for v in order.base.asc])
    if order.comp_dir in ("desc", "asc"):
        right = "%s %s" % (order.ext, order.comp_dir)
    else:
        right = " ".join([order.ext] + [str(c + 1) for c in order.comp_dir])
    return "%s ; %s" % (left, right)
