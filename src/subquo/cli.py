"""Command-line interface for relative Groebner basis computations.

The library modules imported below are the package's unexecuted stand-ins
(see subquo/__init__.py): each runs on first use, so a command compiles only
the modules its Command entry names and what those import. argparse is
imported inside functions only, after Cli.parse has run those modules.
"""

import gc
import os
import sys
import tempfile

from . import __version__, elements, files, flange, graded, groebner, homres, relative
from .errors import ContractViolation, InputError


def _emit(lines, output):
    """Write lines as they come to sys.stdout, looked up now so redirections
    hold, or to output through a temporary file renamed over it at the end."""
    if output is None:
        sys.stdout.writelines(lines)
    else:
        target = os.path.abspath(output)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".subquo-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(lines)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise


def _parse_box(text, n):
    """Degree box written as '(a,..)..(b,..)', returning its corner degrees."""
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise InputError("box %r must be written as LO..HI" % text)
    lo, hi = elements.parse_degree(lo_text.strip(), n), elements.parse_degree(hi_text.strip(), n)
    if any(x > y for x, y in zip(lo, hi)):
        raise InputError("box %r is empty: LO must not exceed HI in any coordinate" % text)
    return lo, hi


def _read(path):
    with open(path) as fh:
        return fh.read()


def _load_module(path, order_text, field_text=None):
    return files.parse_module_file(_read(path), order_text, field_text)


def _load_pair(upath, vpath, order_text, field_text=None):
    """Read U and V module files over the same ring, padded to a common rank.

    The components both files have must carry the same shifts (zero without
    'ambient:'); the order and shifts are the higher-rank file's, V's on a tie.
    """
    ring_u, rank_u, order_u, u_gens, shifts_u = _load_module(upath, order_text, field_text)
    ring_v, rank_v, order_v, v_gens, shifts_v = _load_module(vpath, order_text, field_text)
    if ring_u != ring_v:
        raise InputError("U and V files use different rings")
    if shifts_u[:rank_v] != shifts_v[:rank_u]:
        raise InputError("U and V files declare different ambient shifts")
    rank = max(rank_u, rank_v)
    order, shifts = (order_v, shifts_v) if rank_v == rank else (order_u, shifts_u)
    u_gens = [e.pad(rank) for e in u_gens]
    v_gens = [e.pad(rank) for e in v_gens]
    return ring_u, rank, order, u_gens, v_gens, shifts


def gb(module_file, order_text, field_text, output):
    """Reduced Groebner basis of the module generated by the input elements."""
    ring, rank, order, gens, shifts = _load_module(module_file, order_text, field_text)
    basis = groebner.reduce_groebner(groebner.buchberger(gens, order), order)
    _emit((files.emit_module_file(ring, rank, basis, order, shifts=shifts),), output)


def relgb(u_file, v_file, order_text, field_text, output):
    """Reduced Groebner basis of V relative to U."""
    ring, rank, order, u_gens, v_gens, shifts = _load_pair(u_file, v_file, order_text, field_text)
    g_u = groebner.reduce_groebner(groebner.buchberger(u_gens, order), order)
    h = relative.reduce_relative(relative.relative_buchberger(v_gens, g_u, order), g_u, order)
    _emit((files.emit_module_file(ring, rank, h, order, shifts=shifts),), output)


def syz(module_file, order_text, field_text, output):
    """Syzygies of a Groebner basis, as columns over its elements."""
    ring, rank, order, gens, _ = _load_module(module_file, order_text, field_text)
    gens = [g for g in gens if not g.is_zero]
    cols, sord = groebner.schreyer_syzygies(gens, order)
    _emit((files.emit_module_file(ring, len(gens), cols, None, sord),), output)


def relsyz(u_file, h_file, order_text, field_text, output):
    """Syzygies of a relative Groebner basis H over U."""
    ring, rank, order, u_gens, h, _ = _load_pair(u_file, h_file, order_text, field_text)
    g_u = groebner.reduce_groebner(groebner.buchberger(u_gens, order), order)
    h = [e for e in h if not e.is_zero]
    cols, sord = relative.relative_schreyer(h, g_u, order)
    _emit((files.emit_module_file(ring, len(h), cols, None, sord),), output)


def respres(u_file, v_file, order_text, field_text, output):
    """Free presentation of V/U: relative basis generators and one syzygy matrix."""
    ring, rank, order, u_gens, v_gens, shifts = _load_pair(u_file, v_file, order_text, field_text)
    res = homres.free_resolution(v_gens, u_gens, order, shifts, length=1)
    _emit(files._resolution_lines(res), output)


def resolution(u_file, v_file, length, order_text, field_text, output):
    """Free resolution of V/U by iterated syzygy computation."""
    ring, rank, order, u_gens, v_gens, shifts = _load_pair(u_file, v_file, order_text, field_text)
    res = homres.free_resolution(v_gens, u_gens, order, shifts, length=length)
    _emit(files._resolution_lines(res), output)


def minimize(res_file, field_text, output):
    """Prune constant entries from a resolution until it is minimal."""
    res = files.parse_resolution_file(_read(res_file), field_text)
    _emit(files._resolution_lines(homres.prune_minimize(res)), output)


def betti(res_file, field_text):
    """Betti numbers of a resolution, minimizing it first when needed."""
    res = files.parse_resolution_file(_read(res_file), field_text)
    if not res.minimized:
        res = homres.prune_minimize(res)
    print(" ".join(str(b) for b in homres.betti_numbers(res)))


def hilbert(u_file, v_file, degree_text, box_text, order_text, field_text):
    """Graded dimensions of V/U at a degree or over a box of degrees."""
    if (degree_text is None) == (box_text is None):
        raise InputError("pass --degree or --box, not both" if box_text else "pass --degree or --box")
    ring, rank, order, u_gens, v_gens, shifts = _load_pair(u_file, v_file, order_text, field_text)
    if degree_text is not None:
        lo = hi = elements.parse_degree(degree_text, ring.n)
    else:
        lo, hi = _parse_box(box_text, ring.n)
    dims = graded.graded_dimensions(v_gens, u_gens, shifts, lo, hi)
    for a, dim in zip(graded.degrees_in_box(lo, hi), dims):
        print("%s %d" % (elements.format_degree(a), dim))


def flange_gb(fim_file, order_text, field_text, output):
    """Complete a free-injective matrix to Groebner form."""
    mat, order = files.parse_fim_file(_read(fim_file), order_text, field_text)
    done = flange.buchberger_flange(mat, order)
    _emit((files.emit_fim_file(done, order),), output)


def flange_pres(fim_file, order_text, field_text, output):
    """Presentation of the homomorphisms into a free-injective matrix's cokernel."""
    mat, order = files.parse_fim_file(_read(fim_file), order_text, field_text)
    pres = flange.free_presentation(mat, order)
    _emit(files._matrix_lines(mat.ring, pres, order), output)


def homology(complex_file, do_min, order_text, field_text, output):
    """Presentation of homology at the middle of a three-term complex D2, P, D1."""
    ring, order, d1, p, d2 = files.parse_complex_file(_read(complex_file), order_text, field_text)
    res = homres.homology_presentation(d1, p, d2, order)
    if do_min:
        res = homres.prune_minimize(res)
    _emit(files._resolution_lines(res), output)


def from_diagram(diagram_file, field_text, output):
    """Present a diagram of vector spaces as a subquotient V/U of a free module."""
    diag = files.parse_diagram_file(_read(diagram_file), field_text)
    v_gens, u_gens = homres.module_from_diagram(diag)
    rank = v_gens[0].rank
    _emit((files.emit_module_pair_file(diag.ring, rank, v_gens, u_gens),), output)


def verify(res_file, box_text, field_text):
    """Check a resolution file: homogeneity, zero composites, graded exactness."""
    res = files.parse_resolution_file(_read(res_file), field_text)
    box = _parse_box(box_text, res.ring.n) if box_text is not None else None
    ok, report = homres.verify_complex(res, box)
    for line in report:
        print(line)
    if not ok:
        sys.exit(2)
    print("exact")


def _input_file(path):
    """Argument type of an input file: it must exist and not be a directory."""
    import argparse

    if not os.path.exists(path):
        raise argparse.ArgumentTypeError("file %r does not exist" % path)
    return _file_path(path)


def _length(text):
    """Argument type of --length: a number K >= 0 of differentials."""
    import argparse

    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if k < 0:
        raise argparse.ArgumentTypeError("length must be >= 0, got %d" % k)
    return k


def _file_path(path):
    """Argument type of an output file: not a directory, and in one that exists."""
    import argparse

    if os.path.isdir(path):
        raise argparse.ArgumentTypeError("%r is a directory" % path)
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise argparse.ArgumentTypeError("directory of %r does not exist" % path)
    return path


def _parser(**kwargs):
    """Argument parser whose usage errors are input errors, exiting 1."""
    import argparse

    parser = argparse.ArgumentParser(allow_abbrev=False, **kwargs)

    def error(message):
        parser.print_usage(sys.stderr)
        raise InputError(message)

    parser.error = error
    return parser


class Command:
    """One subcommand: the function it runs, the library modules its path
    reaches through the package's lazy module references (their own
    from-imports bring in the rest), its input files and its options.

    Dispatch looks ``callback`` up when the command runs, so a caller may
    rebind it, as the benchmark's tracer does; the help text is kept apart.
    """

    def __init__(self, callback, modules, inputs, *options):
        self.callback, self.doc, self.modules = callback, callback.__doc__, modules
        self.files, self.options = inputs.split(), options

    def load(self):
        """Run the command's modules; with them run their own imports."""
        for module in (files, *self.modules):
            vars(module)  # any attribute access runs a lazy module


class Cli:
    """The command table, and the two parsers built from it for each run.

    The top parser only splits off the command name, and the command's own
    parser is the only one that gets its arguments: building all fourteen
    as argparse subparsers would cost milliseconds on every run.
    """

    def __init__(self, commands):
        self.commands = commands

    def parse(self, argv):
        """The command that argv names, and its keyword arguments.

        The named command's modules run before argparse is imported: when
        they were compiled after it, a verify job peaked about 0.15 MB higher.
        """
        if argv and argv[0] in self.commands:
            self.commands[argv[0]].load()
        import argparse

        top = _parser(
            prog="subquo", description="Exact Groebner bases for subquotients of free modules.",
            epilog="commands:\n" + "".join("  %-13s %s\n" % (name, cmd.doc) for name, cmd in self.commands.items()),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        top.add_argument("--version", action="version", version="subquo, version " + __version__)
        top.add_argument("command", metavar="COMMAND", choices=self.commands, help="one of the commands below")
        top.add_argument("args", metavar="ARGS", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
        ns = top.parse_args(argv)
        cmd = self.commands[ns.command]
        p = _parser(prog="subquo " + ns.command, description=cmd.doc)
        for f in cmd.files:
            p.add_argument(f, metavar=f.upper(), type=_input_file)
        for flags, kwargs in cmd.options:
            p.add_argument(*flags, **kwargs)
        return ns.command, vars(p.parse_args(ns.args))


_ORDER = (["--order"], dict(dest="order_text", metavar="SPEC", help="Monomial order, e.g. 'grevlex x1 x2 ; pot desc'."))
_FIELD = (["--field"], dict(dest="field_text", metavar="F", help="Coefficient field: 'q' (default) or 'fp:<p>'."))
_OUT = (["-o", "--output"], dict(type=_file_path, metavar="FILE", help="Write to a file instead of stdout."))

_RESOLVE = (homres, groebner, relative)  # free_resolution and homology_presentation

cli = Cli({
    "gb": Command(gb, (groebner,), "module_file", _ORDER, _FIELD, _OUT),
    "relgb": Command(relgb, (groebner, relative), "u_file v_file", _ORDER, _FIELD, _OUT),
    "syz": Command(syz, (groebner,), "module_file", _ORDER, _FIELD, _OUT),
    "relsyz": Command(relsyz, (groebner, relative), "u_file h_file", _ORDER, _FIELD, _OUT),
    "respres": Command(respres, _RESOLVE, "u_file v_file", _ORDER, _FIELD, _OUT),
    "resolution": Command(
        resolution, _RESOLVE, "u_file v_file",
        (["--length"], dict(type=_length, metavar="K", help="Number of differentials to compute, K >= 0.")), _ORDER, _FIELD, _OUT,
    ),
    "minimize": Command(minimize, (homres,), "res_file", _FIELD, _OUT),
    "betti": Command(betti, (homres,), "res_file", _FIELD),
    "hilbert": Command(
        hilbert, (graded,), "u_file v_file",
        (["--degree"], dict(dest="degree_text", metavar="DEG", help="Single degree, e.g. '(1,2)'.")),
        (["--box"], dict(dest="box_text", metavar="LO..HI", help="Degree box, e.g. '(0,0)..(4,3)'.")), _ORDER, _FIELD,
    ),
    "flange-gb": Command(flange_gb, (flange,), "fim_file", _ORDER, _FIELD, _OUT),
    "flange-pres": Command(flange_pres, (flange,), "fim_file", _ORDER, _FIELD, _OUT),
    "homology": Command(
        homology, _RESOLVE, "complex_file",
        (["--minimize"], dict(dest="do_min", action="store_true", help="Prune the presentation afterwards.")),
        _ORDER, _FIELD, _OUT,
    ),
    "from-diagram": Command(from_diagram, (homres, groebner), "diagram_file", _FIELD, _OUT),
    "verify": Command(
        verify, (homres,), "res_file",
        (["--box"], dict(dest="box_text", metavar="LO..HI", help="Degree box to check, e.g. '(0,0)..(4,3)'.")), _FIELD,
    ),
})


def main():
    """Run the command line; usage and input errors exit 1, contract violations 2."""
    try:
        name, kwargs = cli.parse(sys.argv[1:])
        cli.commands[name].callback(**kwargs)
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        sys.exit(1)
    except (InputError, ContractViolation) as err:
        print("Error: %s" % err, file=sys.stderr)
        sys.exit(2 if isinstance(err, ContractViolation) else 1)


def run():
    """The process entry point: main(), then gc.freeze() however it exits,
    so the interpreter's full collections at exit skip the finished run's
    heap. Tests and in-process callers call main(), which freezes nothing.
    A closed stdout pipe exits 1 silently: stdout is pointed at os.devnull,
    so the flush at exit cannot fail again."""
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
