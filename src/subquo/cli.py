"""Command-line interface for relative Groebner basis computations."""

import os
import sys
import tempfile

import click

from . import __version__
from .errors import ContractViolation, InputError
from .files import (
    emit_fim_file,
    emit_matrix_file,
    emit_module_file,
    emit_module_pair_file,
    emit_resolution_file,
    parse_complex_file,
    parse_diagram_file,
    parse_fim_file,
    parse_module_file,
    parse_resolution_file,
)
from .flange import buchberger_flange, free_presentation
from .graded import degrees_in_box, format_degree, graded_dimensions, parse_degree
from .groebner import reduce_groebner, buchberger, schreyer_syzygies
from .homres import (
    betti_numbers,
    free_resolution,
    homology_presentation,
    module_from_diagram,
    prune_minimize,
    verify_complex,
)
from .relative import reduce_relative, relative_buchberger, relative_schreyer


def _emit(text, output):
    if output is None:
        click.echo(text, nl=False)
    else:
        target = os.path.abspath(output)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".subquo-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise


def _parse_box(text, n):
    """Degree box written as '(a,..)..(b,..)', returning its corner degrees."""
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise InputError("box %r must be written as LO..HI" % text)
    lo, hi = parse_degree(lo_text.strip(), n), parse_degree(hi_text.strip(), n)
    if any(x > y for x, y in zip(lo, hi)):
        raise InputError("box %r is empty: LO must not exceed HI in any coordinate" % text)
    return lo, hi


def _read(path):
    with open(path) as fh:
        return fh.read()


def _load_module(path, order_text, field_text=None):
    return parse_module_file(_read(path), order_text, field_text)


def _load_pair(upath, vpath, order_text, field_text=None):
    """Read U and V module files over the same ring, padded to a common rank."""
    ring_u, rank_u, order_u, u_gens, shifts_u = _load_module(upath, order_text, field_text)
    ring_v, rank_v, order_v, v_gens, shifts_v = _load_module(vpath, order_text, field_text)
    if ring_u != ring_v:
        raise InputError("U and V files use different rings")
    rank = max(rank_u, rank_v)
    u_gens = [e.pad(rank) for e in u_gens]
    v_gens = [e.pad(rank) for e in v_gens]
    if rank_v == rank:
        order, shifts = order_v, shifts_v
    else:
        order, shifts = order_u.for_rank(rank), shifts_u + [(0,) * ring_u.n] * (rank - rank_u)
    if rank_u == rank_v and shifts_u != shifts_v:
        raise InputError("U and V files declare different ambient shifts")
    return ring_u, rank, order, u_gens, v_gens, shifts


_ORDER_OPT = click.option("--order", "order_text", default=None, metavar="SPEC", help="Monomial order, e.g. 'grevlex x1 x2 ; pot desc'.")
_FIELD_OPT = click.option("--field", "field_text", default=None, metavar="F", help="Coefficient field: 'q' (default) or 'fp:<p>'.")
_OUT_OPT = click.option("-o", "--output", default=None, type=click.Path(dir_okay=False), help="Write to a file instead of stdout.")


@click.group()
@click.version_option(version=__version__)
def cli():
    """Exact Groebner bases for subquotients of free modules."""


@cli.command()
@click.argument("module_file", type=click.Path(exists=True, dir_okay=False))
@_ORDER_OPT
@_FIELD_OPT
@_OUT_OPT
def gb(module_file, order_text, field_text, output):
    """Reduced Groebner basis of the module generated by the input elements."""
    ring, rank, order, gens, _ = _load_module(module_file, order_text, field_text)
    basis = reduce_groebner(buchberger(gens, order), order)
    _emit(emit_module_file(ring, rank, basis, order), output)


@cli.command()
@click.argument("u_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("v_file", type=click.Path(exists=True, dir_okay=False))
@_ORDER_OPT
@_FIELD_OPT
@_OUT_OPT
def relgb(u_file, v_file, order_text, field_text, output):
    """Reduced Groebner basis of V relative to U."""
    ring, rank, order, u_gens, v_gens, _ = _load_pair(u_file, v_file, order_text, field_text)
    g_u = reduce_groebner(buchberger(u_gens, order), order)
    h = reduce_relative(relative_buchberger(v_gens, g_u, order), g_u, order)
    _emit(emit_module_file(ring, rank, h, order), output)


@cli.command()
@click.argument("module_file", type=click.Path(exists=True, dir_okay=False))
@_ORDER_OPT
@_FIELD_OPT
@_OUT_OPT
def syz(module_file, order_text, field_text, output):
    """Syzygies of a Groebner basis, as columns over its elements."""
    ring, rank, order, gens, _ = _load_module(module_file, order_text, field_text)
    gens = [g for g in gens if not g.is_zero]
    cols, sord = schreyer_syzygies(gens, order)
    _emit(emit_module_file(ring, len(gens), cols, None, sord), output)


@cli.command()
@click.argument("u_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("h_file", type=click.Path(exists=True, dir_okay=False))
@_ORDER_OPT
@_FIELD_OPT
@_OUT_OPT
def relsyz(u_file, h_file, order_text, field_text, output):
    """Syzygies of a relative Groebner basis H over U."""
    ring, rank, order, u_gens, h, _ = _load_pair(u_file, h_file, order_text, field_text)
    g_u = reduce_groebner(buchberger(u_gens, order), order)
    h = [e for e in h if not e.is_zero]
    cols, sord = relative_schreyer(h, g_u, order)
    _emit(emit_module_file(ring, len(h), cols, None, sord), output)


@cli.command()
@click.argument("u_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("v_file", type=click.Path(exists=True, dir_okay=False))
@_ORDER_OPT
@_FIELD_OPT
@_OUT_OPT
def respres(u_file, v_file, order_text, field_text, output):
    """Free presentation of V/U: relative basis generators and one syzygy matrix."""
    ring, rank, order, u_gens, v_gens, shifts = _load_pair(u_file, v_file, order_text, field_text)
    res = free_resolution(v_gens, u_gens, order, shifts, length=1)
    _emit(emit_resolution_file(res), output)


@cli.command()
@click.argument("u_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("v_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--length", default=None, type=int, help="Number of differentials to compute.")
@_ORDER_OPT
@_FIELD_OPT
@_OUT_OPT
def resolution(u_file, v_file, length, order_text, field_text, output):
    """Free resolution of V/U by iterated syzygy computation."""
    ring, rank, order, u_gens, v_gens, shifts = _load_pair(u_file, v_file, order_text, field_text)
    res = free_resolution(v_gens, u_gens, order, shifts, length=length)
    _emit(emit_resolution_file(res), output)


@cli.command()
@click.argument("res_file", type=click.Path(exists=True, dir_okay=False))
@_FIELD_OPT
@_OUT_OPT
def minimize(res_file, field_text, output):
    """Prune constant entries from a resolution until it is minimal."""
    res = parse_resolution_file(_read(res_file), None, field_text)
    _emit(emit_resolution_file(prune_minimize(res)), output)


@cli.command()
@click.argument("res_file", type=click.Path(exists=True, dir_okay=False))
@_FIELD_OPT
def betti(res_file, field_text):
    """Betti numbers of a resolution, minimizing it first when needed."""
    res = parse_resolution_file(_read(res_file), None, field_text)
    if not res.minimized:
        res = prune_minimize(res)
    click.echo(" ".join(str(b) for b in betti_numbers(res)))


@cli.command()
@click.argument("u_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("v_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", "degree_text", default=None, metavar="DEG", help="Single degree, e.g. '(1,2)'.")
@click.option("--box", "box_text", default=None, metavar="LO..HI", help="Degree box, e.g. '(0,0)..(4,3)'.")
@_ORDER_OPT
@_FIELD_OPT
def hilbert(u_file, v_file, degree_text, box_text, order_text, field_text):
    """Graded dimensions of V/U at a degree or over a box of degrees."""
    if (degree_text is None) == (box_text is None):
        raise click.UsageError("pass --degree or --box, not both" if box_text else "pass --degree or --box")
    ring, rank, order, u_gens, v_gens, shifts = _load_pair(u_file, v_file, order_text, field_text)
    if degree_text is not None:
        lo = hi = parse_degree(degree_text, ring.n)
    else:
        lo, hi = _parse_box(box_text, ring.n)
    dims = graded_dimensions(v_gens, u_gens, shifts, lo, hi)
    for a, dim in zip(degrees_in_box(lo, hi), dims):
        click.echo("%s %d" % (format_degree(a), dim))


@cli.command("flange-gb")
@click.argument("fim_file", type=click.Path(exists=True, dir_okay=False))
@_ORDER_OPT
@_FIELD_OPT
@_OUT_OPT
def flange_gb(fim_file, order_text, field_text, output):
    """Complete a free-injective matrix to Groebner form."""
    mat, order = parse_fim_file(_read(fim_file), order_text, field_text)
    done = buchberger_flange(mat, order)
    _emit(emit_fim_file(done, order), output)


@cli.command("flange-pres")
@click.argument("fim_file", type=click.Path(exists=True, dir_okay=False))
@_ORDER_OPT
@_FIELD_OPT
@_OUT_OPT
def flange_pres(fim_file, order_text, field_text, output):
    """Presentation of the homomorphisms into a free-injective matrix's cokernel."""
    mat, order = parse_fim_file(_read(fim_file), order_text, field_text)
    pres = free_presentation(mat, order)
    _emit(emit_matrix_file(mat.ring, pres, order), output)


@cli.command()
@click.argument("complex_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--minimize", "do_min", is_flag=True, help="Prune the presentation afterwards.")
@_ORDER_OPT
@_FIELD_OPT
@_OUT_OPT
def homology(complex_file, do_min, order_text, field_text, output):
    """Presentation of homology at the middle of a three-term complex D2, P, D1."""
    ring, order, d1, p, d2 = parse_complex_file(_read(complex_file), order_text, field_text)
    res = homology_presentation(d1, p, d2, order)
    if do_min:
        res = prune_minimize(res)
    _emit(emit_resolution_file(res), output)


@cli.command("from-diagram")
@click.argument("diagram_file", type=click.Path(exists=True, dir_okay=False))
@_FIELD_OPT
@_OUT_OPT
def from_diagram(diagram_file, field_text, output):
    """Present a diagram of vector spaces as a subquotient V/U of a free module."""
    diag = parse_diagram_file(_read(diagram_file), field_text)
    v_gens, u_gens = module_from_diagram(diag)
    rank = v_gens[0].rank
    _emit(emit_module_pair_file(diag.ring, rank, v_gens, u_gens), output)


@cli.command()
@click.argument("res_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--box", "box_text", default=None, metavar="LO..HI", help="Degree box to check, e.g. '(0,0)..(4,3)'.")
@_FIELD_OPT
def verify(res_file, box_text, field_text):
    """Check a resolution file: homogeneity, zero composites, graded exactness."""
    res = parse_resolution_file(_read(res_file), None, field_text)
    box = _parse_box(box_text, res.ring.n) if box_text is not None else None
    ok, report = verify_complex(res, box)
    for line in report:
        click.echo(line)
    if not ok:
        sys.exit(2)
    click.echo("exact")


def main():
    """Run the command line; input errors exit 1 and contract violations 2."""
    try:
        cli(prog_name="subquo", standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except (InputError, ContractViolation) as err:
        click.echo("Error: %s" % err, err=True)
        sys.exit(2 if isinstance(err, ContractViolation) else 1)


if __name__ == "__main__":
    main()
