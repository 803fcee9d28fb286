"""Job lists of the three benchmark workloads and the checks on their outputs.

A job is one CLI command on generated input files. ``build(workload, seed,
tmp)`` writes the inputs of one seed under ``tmp`` and returns the jobs in
the order they run. A job's time counts in ``wall_s``, in the sum of its
field (``q`` or ``fp``) and in the sum of its command group.

Why each family is what it is (costs are single in-process runs on a 2-core
x86 machine, Python 3.11):

- Dense homogeneous (2,3,3) systems have a fixed support (every monomial of
  each degree), so the seed only draws coefficients and the completion path
  is the same for almost every draw: 0.55-0.84 s (q) over 8 seeds.
- Sparse inhomogeneous quadrics use one fixed 6-term support per generator,
  drawn once; the seed draws the coefficients. Drawing the support per seed
  makes the cost heavy-tailed (4-term supports: 0.00-2.34 s over 40 seeds;
  5-term: up to 55 s), which no batch size makes steady. On the fixed
  support, 6 seeds cost 0.78-1.06 s (q) and 0.43-0.65 s (fp).
- ``relgb`` uses one fixed module V of dense cubics over U = m^6; the seed
  recombines V's generators, so the reduced output is the same for every
  seed and the cost stays near 0.23-0.31 s.
- ``resolution`` resolves m^2 over m^5; the seed shuffles the generators of
  both and recombines those of m^2 (all of degree 2), so the canonical
  output never changes.
- ``minimize``, ``betti`` and ``verify`` read stored resolution files
  (``data/``), so a later change to ``resolution`` output cannot change what
  they measure.
- ``syz``, ``relsyz``, ``respres`` and ``homology`` run on the paper's
  staircase and middle-complex data with seeded generator shuffles.
- The flange family is the paper's ``fim_big`` shape: alpha = beta, unit
  diagonal, seeded entries wherever the support condition allows. The degree
  pattern is drawn once; per-seed degrees moved the cost of one pair from
  1.2 to 3.1 s. The unit diagonal also keeps every column nonzero (see
  README.md for the defect an all-zero column hits).
- ``hilbert`` runs on a seeded rank-3 or rank-4 fine-graded V/U and
  ``from-diagram`` on seeded staircase diagrams of R/I inside a fixed box
  (see ``inputs.staircase_ideal``); both outputs are checked by independent
  computations in this file.
"""

import gzip
import hashlib
import itertools
import os
import random
from fractions import Fraction

import inputs as I

WORKLOADS = ("completion", "resolution", "graded")

# Metric groups: each job's time counts in "wall", its field group and the
# group of its command.
COMMAND_GROUP = {
    "gb": "gb",
    "relgb": "relgb",
    "resolution": "resolution",
    "minimize": "minimize",
    "betti": "minimize",
    "syz": "presentation",
    "relsyz": "presentation",
    "respres": "presentation",
    "homology": "presentation",
    "flange-gb": "flange",
    "flange-pres": "flange",
    "verify": "verify",
    "hilbert": "hilbert",
    "from-diagram": "diagram",
}

HERE = os.path.dirname(os.path.abspath(__file__))

# Stored resolution files (written by ``subquo resolution`` and ``subquo
# minimize`` on m/m^3 over q, m/m^4 over fp:32003 and m^2/m^5 over q), with
# the sha256 of each decompressed file.
DATA_SHA256 = {
    "m1_m3.res": "c95f5431ef1838b5c94ae75b867c260cb49bd70cd95f7d831bf18d9a1f483107",
    "m1_m4.res": "6ddaaeb6cadc2d21800ea0eb7b3da650f81b246f732a03c1f9f88d0e61a6b5f0",
    "m2_m5.res": "3df271cc350119ccdc803931651e45146503d804971f404a423bdb2c4dd25454",
    "m2_m5.min.res": "26bb7c83a87d4467291c8fd731e7971ac49fd510ee74cad23ea8574e0d5b621f",
}


class Job:
    """One CLI invocation: ``subquo <command> <args...>``, output on stdout."""

    def __init__(self, name, command, field, args, check=None):
        self.name = name
        self.command = command
        self.field = field
        self.args = args
        self.check = check

    @property
    def argv(self):
        return [self.command] + self.args


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _write(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def build(workload, seed, tmp):
    """Write the inputs of one seed under tmp and return its job list."""
    for name, digest in DATA_SHA256.items():
        with gzip.open(os.path.join(HERE, "data", name + ".gz"), "rt") as fh:
            text = fh.read()
        if sha256(text) != digest:
            raise ValueError("stored input %s does not match its recorded digest" % name)
        _write(tmp, name, text)
    rng = random.Random("%s:%d" % (workload, seed))
    return {"completion": _completion, "resolution": _resolution, "graded": _graded}[workload](rng, tmp)


# --- completion -------------------------------------------------------------

def _completion(rng, tmp):
    jobs = []
    for k in range(3):
        system = I.dense_system(rng, (2, 3, 3))
        jobs += _gb_twins(tmp, "dense%d" % k, system)
    for k in range(2):
        jobs += _gb_twins(tmp, "sparse%d" % k, I.sparse_quadrics(rng))
    u = _write(tmp, "relgb.u.mod", I.module_file("q", 1, I.power_of_max_ideal(6)))
    for k in range(3):
        v = _write(tmp, "relgb%d.v.mod" % k, I.module_file("q", 1, I.recombine(rng, I.RELGB_V)))
        jobs.append(Job("relgb.cubics%d.q" % k, "relgb", "q", [u, v]))
    return jobs


def _gb_twins(tmp, tag, system):
    jobs = []
    for field, ftag in (("q", "q"), ("fp:%d" % I.P, "fp")):
        path = _write(tmp, "gb.%s.%s.mod" % (tag, ftag), I.module_file(field, 1, system))
        check = _sympy_gb_check(system, None if ftag == "q" else I.P)
        jobs.append(Job("gb.%s.%s" % (tag, ftag), "gb", ftag, [path], check))
    return jobs


def _sympy_gb_check(system, modulus):
    """Compare a rank-1 reduced basis with sympy.groebner, both made monic."""

    def check(out):
        import sympy

        z, y, x = sympy.symbols("Z Y X")
        gens = (z, y, x)  # "grevlex X Y Z" ranks X < Y < Z
        opts = {"modulus": modulus} if modulus else {}
        polys = [
            sympy.Poly(sum(c * x ** e[0] * y ** e[1] * z ** e[2] for c, _, e in f), *gens, **opts)
            for f in system
        ]
        want = sympy.groebner(polys, *gens, order="grevlex", **opts)
        want = {p.monic() for p in want.polys}
        lines = out.split("elements:\n", 1)[1].split()
        names = {"X": x, "Y": y, "Z": z}
        have = {sympy.Poly(sympy.sympify(t.replace("^", "**"), locals=names), *gens, **opts).monic() for t in lines}
        return have == want

    return check


# --- resolution -------------------------------------------------------------


def _resolution(rng, tmp):
    jobs = []
    for field, ftag in (("q", "q"), ("fp:%d" % I.P, "fp")):
        # U's generators are only shuffled: recombining them too made the
        # cost heavy-tailed (one fp draw took 28.9 s against 3-4 s).
        u = _shuffled(rng, I.power_of_max_ideal(5))
        v = I.recombine(rng, I.power_of_max_ideal(2), mix=2)
        up = _write(tmp, "m2m5.%s.u.mod" % ftag, I.module_file(field, 1, u))
        vp = _write(tmp, "m2m5.%s.v.mod" % ftag, I.module_file(field, 1, v))
        jobs.append(Job("resolution.m2m5.%s" % ftag, "resolution", ftag, [up, vp]))
    res = os.path.join(tmp, "m2_m5.res")
    jobs.append(Job("minimize.m2m5.q", "minimize", "q", [res]))
    jobs.append(Job("betti.m2m5.q", "betti", "q", [res], lambda out: out == "6 29 38 15\n"))

    u6, h6 = I.staircase_rank6()
    u6 = _shuffled(rng, u6)
    h6 = _shuffled(rng, h6)
    up = _write(tmp, "stair.u.mod", I.module_file("q", 6, u6, names=I.STAIRCASE_VARS))
    hp = _write(tmp, "stair.h.mod", I.module_file("q", 6, h6, names=I.STAIRCASE_VARS))
    # U is itself a Groebner basis, and a shuffle keeps it one.
    jobs.append(Job("syz.stair.q", "syz", "q", [up]))
    jobs.append(Job("relsyz.stair.q", "relsyz", "q", [up, hp]))
    jobs.append(Job("respres.stair.q", "respres", "q", [up, hp]))
    cpx = _write(tmp, "middle.cpx", I.middle_complex_file(rng))
    jobs.append(Job("homology.middle.q", "homology", "q", [cpx]))

    fim = _write(tmp, "big.fim", I.fim_file(rng))
    jobs.append(Job("flange-gb.big.q", "flange-gb", "q", [fim]))
    # Jobs run in list order and each writes <name>.out, so this reads the
    # output of the flange-gb job of the same pass.
    done = os.path.join(tmp, "flange-gb.big.q.out")
    jobs.append(Job("flange-pres.big.q", "flange-pres", "q", [done]))
    return jobs


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# --- graded -----------------------------------------------------------------


def _graded(rng, tmp):
    jobs = []
    for name, ftag in (("m1_m3.res", "q"), ("m1_m4.res", "fp"), ("m2_m5.min.res", "q")):
        path = os.path.join(tmp, name)
        jobs.append(Job("verify.%s.%s" % (name.split(".")[0], ftag), "verify", ftag, [path], _ends_exact))

    rank = rng.choice((3, 4))
    shifts, v, u = I.fine_graded_pair(rng, rank, 20, 40)
    up = _write(tmp, "fine.u.mod", I.module_file("q", rank, u, shifts))
    vp = _write(tmp, "fine.v.mod", I.module_file("q", rank, v, shifts))
    box = ((0, 0, 0), (6, 6, 6))
    jobs.append(
        Job(
            "hilbert.fine%d.q" % rank,
            "hilbert",
            "q",
            [up, vp, "--box", "%s..%s" % tuple(I.fmt_deg(a) for a in box)],
            _hilbert_check(shifts, v, u, box),
        )
    )
    for k in range(2):
        gens, std = I.staircase_ideal(rng)
        path = _write(tmp, "stair%d.diag" % k, I.diagram_file(std))
        jobs.append(Job("from-diagram.stair%d.q" % k, "from-diagram", "q", [path], _diagram_check(gens)))
    return jobs


def _ends_exact(out):
    return out.endswith("exact\n")


def _hilbert_check(shifts, v, u, box):
    """Recount dim (V/U)_a = rank(V+U)_a - rank(U)_a with Fraction ranks."""

    def degree(terms):
        c, comp, exp = terms[0]
        return tuple(x + y for x, y in zip(exp, shifts[comp - 1]))

    def rank_at(gens, a):
        rows = []
        for terms in gens:
            if all(x <= y for x, y in zip(degree(terms), a)):
                row = [Fraction(0)] * len(shifts)
                for c, comp, _ in terms:
                    row[comp - 1] = Fraction(c)
                rows.append(row)
        return _rank(rows)

    def check(out):
        lo, hi = box
        want = []
        for a in itertools.product(*(range(lo[k], hi[k] + 1) for k in range(3))):
            a = tuple(a)
            want.append((a, rank_at(v + u, a) - rank_at(u, a)))
        want.sort(key=lambda t: tuple(reversed(t[0])))
        text = "".join("%s %d\n" % (I.fmt_deg(a), d) for a, d in want)
        return out == text

    return check


def _rank(rows):
    rows = [r[:] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _diagram_check(gens):
    """R/I is presented by V = R e1 and U = the minimal generators of I."""
    want = sorted(I.fmt_mon(g) for g in I.minimal_generators(gens))

    def check(out):
        body = out.split("V:\n", 1)[1]
        v_part, u_part = body.split("U:\n", 1)
        return v_part == "1\n" and sorted(u_part.split()) == want

    return check
