"""Plain-text formats for modules, complexes, resolutions, matrices and diagrams."""

import re

from . import flange, graded, homres  # run only when a parser below first needs them
from .elements import ModuleElement, format_degree, format_element, parse_degree, parse_element, parse_field, QQ, Ring
from .errors import InputError
from .orders import default_order, format_order, parse_order

_HEADER_KEYS = ("n", "vars", "field", "order", "rank", "ambient", "minimized", "cogens", "gens", "box")
_HEADER_RE = re.compile(r"^(%s):(.*)$" % "|".join(_HEADER_KEYS))


def _read_lines(text):
    """Strip comments and blank lines, keeping meaningful lines in order."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


class _Cursor:
    """Sequential reader over cleaned lines."""

    __slots__ = ("lines", "i")

    def __init__(self, lines):
        self.lines = lines
        self.i = 0

    def peek(self):
        return self.lines[self.i] if self.i < len(self.lines) else None

    def next(self):
        line = self.peek()
        if line is None:
            raise InputError("unexpected end of file")
        self.i += 1
        return line


def _open(text, field_text):
    """Cursor past the leading 'key: value' headers, the headers as a dict,
    and the ring from the n/vars/field headers (field_text overrides field)."""
    cur = _Cursor(_read_lines(text))
    headers = {}
    while cur.peek() is not None:
        m = _HEADER_RE.match(cur.peek())
        if not m:
            break
        key, value = m.group(1), m.group(2).strip()
        if key in headers:
            raise InputError("duplicate header %r" % key)
        if not value:
            raise InputError("empty %r header" % (key + ":"))
        headers[key] = value
        cur.next()
    if "n" not in headers:
        raise InputError("missing 'n:' header")
    try:
        n = int(headers["n"])
    except ValueError:
        raise InputError("bad 'n:' header %r" % headers["n"]) from None
    names = headers["vars"].split() if "vars" in headers else None
    text = field_text if field_text is not None else headers.get("field")
    field = parse_field(text) if text is not None else QQ
    return cur, headers, Ring(n, field, names)


def _parse_degree_list(value, n, what):
    toks = value.split()
    try:
        return [parse_degree(t, n) for t in toks]
    except InputError as err:
        raise InputError("bad %s list: %s" % (what, err)) from None


def _parse_scalar(tok, field):
    """Field scalar [-]digits[/digits], the digits decimal as int() reads them."""
    body = tok[1:] if tok.startswith("-") else tok
    num, slash, den = body.partition("/")
    if not num.isdecimal() or (slash and not den.isdecimal()):
        raise InputError("bad scalar entry %r" % tok)
    c = field.from_fraction(int(num), int(den) if den else 1)
    return -c if tok.startswith("-") else c


def _expect_section(cur, name):
    line = cur.next()
    if line != name + ":":
        raise InputError("expected section %r, found %r" % (name + ":", line))


def _read_shift_line(cur, key, n):
    line = cur.next()
    prefix = key + ":"
    if not line.startswith(prefix):
        raise InputError("expected %r line, found %r" % (prefix, line))
    return _parse_degree_list(line[len(prefix):].strip(), n, key)


def _read_matrix_block(cur, ring, name):
    """Matrix block: a 'NAME:' line, rows/cols shifts, then entry rows (none without
    columns), read left to right into sparse columns; each distinct nonzero entry is parsed once."""
    _expect_section(cur, name)
    row_shifts = _read_shift_line(cur, "rows", ring.n)
    col_shifts = _read_shift_line(cur, "cols", ring.n)
    cols = [{} for _ in col_shifts]
    parsed = {}
    for i in range(len(row_shifts) if cols else 0):
        toks = cur.next().split()
        if len(toks) != len(cols):
            raise InputError("matrix %s row has %d entries, expected %d" % (name, len(toks), len(cols)))
        for col, t in zip(cols, toks):
            if t != "0":
                if t not in parsed:
                    parsed[t] = parse_element(t, ring, 1).terms
                for (_, e), c in parsed[t]:
                    col[(i, e)] = c
    return graded.GradedMatrix(ring, row_shifts, col_shifts, [ModuleElement(ring, len(row_shifts), col) for col in cols])


def _header_lines(ring, order):
    """The n/vars/field header lines of a ring, and an order line unless order is None."""
    yield "n: %d\n" % ring.n
    yield "vars: " + " ".join(ring.names) + "\n"
    yield "field: " + ring.field.name + "\n"
    if order is not None:
        yield "order: " + format_order(order, ring) + "\n"


def _emit_matrix_block(mat, name):
    """Lines of a matrix block as _read_matrix_block reads it, each grid row
    built from a per-row index of formatted cells, never the whole grid; each
    distinct nonzero cell, keyed by its sorted terms, is formatted once."""
    rows = [[] for _ in range(mat.nrows)] if mat.ncols else []  # no entry rows without columns
    texts = {}
    for j, col in enumerate(mat.cols):
        cells = {}
        for (i, e), c in col.terms:
            cells.setdefault(i, []).append(((0, e), c))
        for i, cell in cells.items():
            cell = tuple(cell)
            if cell not in texts:
                texts[cell] = format_element(ModuleElement(mat.ring, 1, dict(cell)))
            rows[i].append((j, texts[cell]))
    yield name + ":\n"
    yield "rows: " + " ".join(format_degree(s) for s in mat.row_shifts) + "\n"
    yield "cols: " + " ".join(format_degree(s) for s in mat.col_shifts) + "\n"
    for row in rows:
        line = ["0"] * mat.ncols
        for j, text in row:
            line[j] = text
        yield " ".join(line) + "\n"


def _order_for(headers, ring, rank, override=None):
    text = override if override is not None else headers.get("order")
    if text is None:
        return default_order(ring, rank)
    return parse_order(text, ring, rank)


def parse_module_file(text, order_text=None, field_text=None):
    """Module file: ring headers, optional rank and ambient shifts, elements.

    Returns (ring, rank, order, elements, shifts).
    """
    cur, headers, ring = _open(text, field_text)
    _expect_section(cur, "elements")
    raws = cur.lines[cur.i:]
    rank = None
    if "rank" in headers:
        try:
            rank = int(headers["rank"])
        except ValueError:
            rank = -1
        if rank < 0:
            raise InputError("bad 'rank:' header %r" % headers["rank"])
    if rank is None:
        parsed = [parse_element(r, ring) for r in raws]
        rank = max((e.rank for e in parsed), default=1)
        elements = [e.pad(rank) for e in parsed]
    else:
        elements = [parse_element(r, ring, rank) for r in raws]
    if "ambient" in headers:
        shifts = _parse_degree_list(headers["ambient"], ring.n, "ambient")
        if len(shifts) != rank:
            raise InputError("ambient shift list has %d entries, expected %d" % (len(shifts), rank))
    else:
        shifts = [(0,) * ring.n] * rank
    order = _order_for(headers, ring, rank, order_text)
    return ring, rank, order, elements, shifts


def emit_module_file(ring, rank, elements, order=None, display_order=None, shifts=None):
    """Render a module file for a list of elements of R^rank."""
    out = ["n: %d" % ring.n, "vars: " + " ".join(ring.names), "field: " + ring.field.name]
    out.append("rank: %d" % rank)
    if shifts is not None and any(any(x for x in s) for s in shifts):
        out.append("ambient: " + " ".join(format_degree(s) for s in shifts))
    if order is not None:
        out.append("order: " + format_order(order, ring))
    out.append("elements:")
    fmt = display_order if display_order is not None else order
    for e in elements:
        out.append(format_element(e, fmt))
    if not elements:
        out.append("0")
    return "\n".join(out) + "\n"


def parse_complex_file(text, order_text=None, field_text=None):
    """Complex file: headers then matrix blocks D1, P and D2.

    Returns (ring, order, d1, p, d2).
    """
    cur, headers, ring = _open(text, field_text)
    d1 = _read_matrix_block(cur, ring, "D1")
    p = _read_matrix_block(cur, ring, "P")
    d2 = _read_matrix_block(cur, ring, "D2")
    if cur.peek() is not None:
        raise InputError("unexpected content after D2 block: %r" % cur.peek())
    order = _order_for(headers, ring, p.nrows, order_text)
    return ring, order, d1, p, d2


def parse_resolution_file(text, field_text=None):
    """Resolution file: headers, ambient shifts, U section, D0 and later blocks."""
    cur, headers, ring = _open(text, field_text)
    if "ambient" not in headers:
        raise InputError("missing 'ambient:' header")
    ambient = _parse_degree_list(headers["ambient"], ring.n, "ambient")
    rank = len(ambient)
    order = _order_for(headers, ring, rank)
    minimized = headers.get("minimized", "false").lower() == "true"
    u_gens = []
    if cur.peek() == "U:":
        cur.next()
        while cur.peek() is not None and not cur.peek().startswith("D0:"):
            u_gens.append(parse_element(cur.next(), ring, rank))
    d0 = _read_matrix_block(cur, ring, "D0")
    if list(d0.row_shifts) != list(ambient):
        raise InputError("D0 row shifts must repeat the ambient shifts")
    for j, col in enumerate(d0.cols):
        if col.is_zero:
            raise InputError("D0 column %d is zero: a generator of V must be nonzero" % (j + 1))
        if graded.is_homogeneous(col, ambient) and graded.element_degree(col, ambient) != d0.col_shifts[j]:
            msg = "D0 column %d has degree %s, but its 'cols:' shift is %s"
            raise InputError(msg % (j + 1, format_degree(graded.element_degree(col, ambient)), format_degree(d0.col_shifts[j])))
    diffs = []
    level = 1
    while cur.peek() is not None:
        mat = _read_matrix_block(cur, ring, "D%d" % level)
        prev = d0.col_shifts if level == 1 else diffs[-1].col_shifts
        if list(mat.row_shifts) != list(prev):
            raise InputError("D%d row shifts must repeat the previous column shifts" % level)
        diffs.append(mat)
        level += 1
    return homres.Resolution(ring, order, ambient, u_gens, d0.cols, diffs, minimized)


def _resolution_lines(res):
    """Lines of a resolution file; D0's generators are checked before the first."""
    d0 = res.gens_matrix()
    yield from _header_lines(res.ring, res.order)
    yield "ambient: " + " ".join(format_degree(s) for s in res.ambient_shifts) + "\n"
    yield "minimized: " + ("true" if res.minimized else "false") + "\n"
    yield "U:\n"
    aorder = res.order.for_rank(len(res.ambient_shifts))
    for g in res.u_gens:
        yield format_element(g, aorder) + "\n"
    yield from _emit_matrix_block(d0, "D0")
    for i, d in enumerate(res.diffs):
        yield from _emit_matrix_block(d, "D%d" % (i + 1))


def emit_resolution_file(res):
    """Render a resolution file."""
    return "".join(_resolution_lines(res))


def parse_fim_file(text, order_text=None, field_text=None):
    """Free-injective matrix file with cogens/gens degree headers and a rows section."""
    cur, headers, ring = _open(text, field_text)
    if "cogens" not in headers or "gens" not in headers:
        raise InputError("missing 'cogens:' or 'gens:' header")
    alpha = _parse_degree_list(headers["cogens"], ring.n, "cogens")
    beta = _parse_degree_list(headers["gens"], ring.n, "gens")
    _expect_section(cur, "rows")
    entries = []
    for _ in alpha:
        toks = cur.next().split()
        if len(toks) != len(beta):
            raise InputError("matrix row has %d entries, expected %d" % (len(toks), len(beta)))
        entries.append([_parse_scalar(t, ring.field) for t in toks])
    if cur.peek() is not None:
        raise InputError("unexpected content after matrix rows: %r" % cur.peek())
    order = _order_for(headers, ring, len(alpha), order_text)
    return flange.FreeInjectiveMatrix(ring, alpha, beta, entries), order


def emit_fim_file(mat, order=None):
    """Render a free-injective matrix file."""
    ring = mat.ring
    out = ["n: %d" % ring.n, "vars: " + " ".join(ring.names), "field: " + ring.field.name]
    if order is not None:
        out.append("order: " + format_order(order, ring))
    out.append("cogens: " + " ".join(format_degree(a) for a in mat.alpha))
    out.append("gens: " + " ".join(format_degree(b) for b in mat.beta))
    out.append("rows:")
    for row in mat.entries:
        out.append(" ".join(ring.field.format(c) for c in row))
    return "\n".join(out) + "\n"


def _matrix_lines(ring, mat, order=None):
    """Lines of a standalone graded matrix: a D1 block with ring headers."""
    yield from _header_lines(ring, order)
    yield from _emit_matrix_block(mat, "D1")


def emit_matrix_file(ring, mat, order=None):
    """Render a standalone graded matrix as a D1 block with ring headers."""
    return "".join(_matrix_lines(ring, mat, order))


def parse_diagram_file(text, field_text=None):
    """Diagram file: ring headers, then 'dim (a):' and 'map k (a):' lines.

    Map rows are ';'-separated, entries space-separated; k names the variable
    acting, with source degree (a).
    """
    dim_re = re.compile(r"^dim\s+(\([^)]*\)):\s*(\S.*)$")  # compiled here: only from-diagram reads them
    map_re = re.compile(r"^map\s+(\d+)\s+(\([^)]*\)):\s*(\S.*)$")
    cur, headers, ring = _open(text, field_text)
    box = parse_degree(headers["box"], ring.n) if "box" in headers else None
    dims, maps = {}, {}
    while cur.peek() is not None:
        line = cur.next()
        m = dim_re.match(line)
        if m:
            a = parse_degree(m.group(1), ring.n)
            try:
                dims[a] = int(m.group(2))
            except ValueError:
                raise InputError("bad dimension in %r" % line) from None
            continue
        m = map_re.match(line)
        if m:
            k = int(m.group(1)) - 1
            if not 0 <= k < ring.n:
                raise InputError("bad variable index in %r" % line)
            a = parse_degree(m.group(2), ring.n)
            rows = [
                [_parse_scalar(t, ring.field) for t in part.split()]
                for part in m.group(3).split(";")
            ]
            maps[(k, a)] = rows
            continue
        raise InputError("unrecognized diagram line %r" % line)
    if box is not None:
        for a in dims:
            if dims[a] and any(x > y for x, y in zip(a, box)):
                raise InputError("dimension at %s lies outside the stated box" % (a,))
    return homres.VectorDiagram(ring, dims, maps)


def emit_module_pair_file(ring, rank, v_gens, u_gens, order=None):
    """Render generators of V and U as one file with V and U sections."""
    out = ["n: %d" % ring.n, "vars: " + " ".join(ring.names), "field: " + ring.field.name]
    out.append("rank: %d" % rank)
    if order is not None:
        out.append("order: " + format_order(order, ring))
    out.append("V:")
    for e in v_gens:
        out.append(format_element(e, order))
    out.append("U:")
    for e in u_gens:
        out.append(format_element(e, order))
    return "\n".join(out) + "\n"
