"""In-process runs of a job list, untraced and traced, for per-layer metrics.

Run as a child of ``run.py`` (``python perfbench/layers.py --workload W
--seed S --tmp DIR``) with ``src`` on ``PYTHONPATH``. It runs the job list
once untraced and once with the public functions of each ``subquo`` module
wrapped from outside, then prints the per-layer metrics as one JSON line.
Nothing inside ``src/`` changes: every wrapper is installed by rebinding the
name in each ``subquo.*`` module that holds the function.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Wrapped functions per layer (module -> names); each reports
# "<module>.<name>.calls" and "<module>.<name>.self_s".
SPANS = {
    "groebner": [
        "buchberger",
        "buchberger_transform",
        "reduce_groebner",
        "divide",
        "is_groebner",
        "schreyer_syzygies",
        "express",
    ],
    "relative": [
        "relative_division",
        "relative_buchberger",
        "reduce_relative",
        "is_relative_gb",
        "relative_schreyer",
    ],
    "homres": [
        "free_resolution",
        "prune_minimize",
        "verify_complex",
        "kernel_of_free_map",
        "homology_presentation",
        "module_from_diagram",
    ],
    "graded": ["rref", "graded_dimension", "GradedMatrix.degree_rank", "nullspace_basis"],
    "flange": ["buchberger_flange", "is_groebner_form", "free_presentation"],
}

EXTRA = [
    "groebner.divide.divisors",
    "groebner.divide.zero_ratio",
    "groebner.buchberger.out_len",
    "groebner.reduce_groebner.kept_ratio",
    "homres.free_resolution.frame_cols",
    "homres.prune_minimize.kept_ratio",
    "homres.verify_complex.degrees",
    "graded.rref.cells",
    "graded.rref.density",
    "flange.buchberger_flange.cols_added",
    "files.parse.calls",
    "files.parse.self_s",
    "files.parse.bytes",
    "files.emit.calls",
    "files.emit.self_s",
    "files.emit.bytes",
    "elements.leading.calls",
    "elements.new.terms",
    "orders.key.calls",
    "cli.self_s",
    "trace.overhead_ratio",
]


def metric_names():
    """Every per-layer metric, in report order."""
    names = []
    for mod, fns in SPANS.items():
        for fn in fns:
            names += ["%s.%s.calls" % (mod, fn), "%s.%s.self_s" % (mod, fn)]
    return names + EXTRA


# Which workloads each layer should be busy on; "graded" should be idle on
# the other two (ROADMAP baseline: no rref outside verify/hilbert/diagrams).
PREDICTIONS = [
    ("groebner.divide.calls", {"completion": ">0", "resolution": ">0"}),
    ("relative.relative_buchberger.calls", {"completion": ">0", "resolution": ">0"}),
    ("relative.relative_schreyer.calls", {"resolution": ">0"}),
    ("homres.free_resolution.calls", {"resolution": ">0"}),
    ("homres.prune_minimize.calls", {"resolution": ">0"}),
    ("homres.verify_complex.calls", {"graded": ">0"}),
    ("homres.module_from_diagram.calls", {"graded": ">0"}),
    ("graded.rref.calls", {"completion": "0", "resolution": "0", "graded": ">0"}),
    ("flange.buchberger_flange.calls", {"resolution": ">0"}),
    ("files.parse.calls", {"completion": ">0", "resolution": ">0", "graded": ">0"}),
    ("orders.key.calls", {"completion": ">0", "resolution": ">0"}),
]


class Tracer:
    """Aggregated spans: self time is duration minus time in child spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.levels = []  # ("frame" or "pruned", module count per level)
        self._child = []

    def span(self, key, fn, after=None):
        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                child = self._child.pop()
                self.self_s[key] += took - child
                self.calls[key] += 1
                if self._child:
                    self._child[-1] += took
            if after is not None:
                after(self.counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def _levels(res):
    return [len(res.gens)] + [d.ncols for d in res.diffs]


def _after_hooks(tracer):
    def divide(c, args, out):
        c["groebner.divide.divisors"] += len(args[1])
        c["groebner.divide.zeros"] += out[1].is_zero

    def buchberger(c, args, out):
        c["groebner.buchberger.out_len"] += len(out)

    def reduce_groebner(c, args, out):
        c["groebner.reduce_groebner.in"] += len(args[0])
        c["groebner.reduce_groebner.kept"] += len(out)

    def free_resolution(c, args, out):
        c["homres.free_resolution.frame_cols"] += sum(_levels(out))
        tracer.levels.append(("frame", _levels(out)))

    def prune_minimize(c, args, out):
        c["homres.prune_minimize.in"] += sum(_levels(args[0]))
        c["homres.prune_minimize.kept"] += sum(_levels(out))
        tracer.levels.append(("pruned", _levels(out)))

    def rref(c, args, out):
        rows = args[0]
        if rows:
            c["graded.rref.cells"] += len(rows) * len(rows[0])
            c["graded.rref.nonzeros"] += sum(1 for r in rows for a in r if a)

    def buchberger_flange(c, args, out):
        c["flange.buchberger_flange.cols_added"] += out.ncols - args[0].ncols

    return {
        "groebner.divide": divide,
        "groebner.buchberger": buchberger,
        "groebner.reduce_groebner": reduce_groebner,
        "homres.free_resolution": free_resolution,
        "homres.prune_minimize": prune_minimize,
        "graded.rref": rref,
        "flange.buchberger_flange": buchberger_flange,
    }


def _rebind(modules, original, replacement):
    """Point every module-level name bound to original at replacement."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def install(tracer):
    """Wrap the layer functions of every loaded subquo module; return an undo."""
    import subquo.cli
    from subquo import elements, files, orders

    modules = [m for name, m in sys.modules.items() if name == "subquo" or name.startswith("subquo.")]
    undo = []
    hooks = _after_hooks(tracer)

    def wrap_function(mod, name, key, after=None):
        fn = getattr(mod, name)
        wrapped = tracer.span(key, fn, after)
        _rebind(modules, fn, wrapped)
        undo.append(lambda: _rebind(modules, wrapped, fn))

    def wrap_method(cls, name, make):
        fn = cls.__dict__[name]
        setattr(cls, name, make(fn))
        undo.append(lambda: setattr(cls, name, fn))

    for modname, names in SPANS.items():
        mod = sys.modules["subquo." + modname]
        for name in names:
            key = "%s.%s" % (modname, name)
            if "." in name:
                cls, meth = name.split(".")
                wrap_method(getattr(mod, cls), meth, lambda fn, key=key: tracer.span(key, fn))
            else:
                wrap_function(mod, name, key, hooks.get(key))

    counts = tracer.counts

    def parse_after(c, args, out):
        c["files.parse.bytes"] += len(args[0])

    def emit_after(c, args, out):
        c["files.emit.bytes"] += len(out)

    for name, fn in list(vars(files).items()):
        if getattr(fn, "__module__", None) != files.__name__:
            continue  # names files imported from other modules
        if name.startswith("parse_"):
            wrap_function(files, name, "files.parse", parse_after)
        elif name.startswith("emit_"):
            wrap_function(files, name, "files.emit", emit_after)

    import subquo.homres as homres

    def count_verify_degree(fn):
        def wrapper(*args):
            counts["homres.verify_complex.degrees"] += 1
            return fn(*args)

        return wrapper

    fn = homres._verify_degree
    homres._verify_degree = count_verify_degree(fn)
    undo.append(lambda: setattr(homres, "_verify_degree", fn))

    def count_leading(fn):
        def leading(self, order):
            counts["elements.leading.calls"] += 1
            return fn(self, order)

        return leading

    def count_new(fn):
        def __init__(self, ring, rank, mapping):
            fn(self, ring, rank, mapping)
            counts["elements.new.terms"] += len(self.terms)

        return __init__

    def count_key(fn):
        def key(self, exp):
            counts["orders.key.calls"] += 1
            return fn(self, exp)

        return key

    wrap_method(elements.ModuleElement, "leading", count_leading)
    wrap_method(elements.ModuleElement, "__init__", count_new)
    wrap_method(orders.BaseOrder, "key", count_key)

    for name, cmd in subquo.cli.cli.commands.items():
        orig = cmd.callback
        cmd.callback = tracer.span("cli." + name, orig)
        undo.append(lambda cmd=cmd, orig=orig: setattr(cmd, "callback", orig))

    def uninstall():
        for step in reversed(undo):
            step()

    return uninstall


def run_job(job, tmp):
    """Run one job in this process; returns (exit code, stdout text, seconds)."""
    import subquo.cli

    buf = io.StringIO()
    saved = sys.argv
    sys.argv = ["subquo"] + job.argv
    code = 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            subquo.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        took = time.perf_counter() - start
        sys.argv = saved
    out = buf.getvalue()
    with open(os.path.join(tmp, job.name + ".out"), "w") as fh:
        fh.write(out)
    return code, out, took


def run_pass(jobs, tmp):
    """Run every job once; returns ({job: (code, sha256)}, wall seconds)."""
    results = {}
    start = time.perf_counter()
    for job in jobs:
        code, out, _ = run_job(job, tmp)
        results[job.name] = (code, workloads.sha256(out))
    return results, time.perf_counter() - start


def layer_metrics(tracer, plain_s, traced_s):
    c = tracer.counts
    m = {}
    for mod, fns in SPANS.items():
        for fn in fns:
            key = "%s.%s" % (mod, fn)
            m[key + ".calls"] = tracer.calls[key]
            m[key + ".self_s"] = tracer.self_s[key]
    calls = tracer.calls
    m["groebner.divide.divisors"] = c["groebner.divide.divisors"]
    m["groebner.divide.zero_ratio"] = _ratio(c["groebner.divide.zeros"], calls["groebner.divide"])
    m["groebner.buchberger.out_len"] = c["groebner.buchberger.out_len"]
    m["groebner.reduce_groebner.kept_ratio"] = _ratio(
        c["groebner.reduce_groebner.kept"], c["groebner.reduce_groebner.in"]
    )
    m["homres.free_resolution.frame_cols"] = c["homres.free_resolution.frame_cols"]
    m["homres.prune_minimize.kept_ratio"] = _ratio(c["homres.prune_minimize.kept"], c["homres.prune_minimize.in"])
    m["homres.verify_complex.degrees"] = c["homres.verify_complex.degrees"]
    m["graded.rref.cells"] = c["graded.rref.cells"]
    m["graded.rref.density"] = _ratio(c["graded.rref.nonzeros"], c["graded.rref.cells"])
    m["flange.buchberger_flange.cols_added"] = c["flange.buchberger_flange.cols_added"]
    for side in ("parse", "emit"):
        m["files.%s.calls" % side] = calls["files." + side]
        m["files.%s.self_s" % side] = tracer.self_s["files." + side]
        m["files.%s.bytes" % side] = c["files.%s.bytes" % side]
    m["elements.leading.calls"] = c["elements.leading.calls"]
    m["elements.new.terms"] = c["elements.new.terms"]
    m["orders.key.calls"] = c["orders.key.calls"]
    m["cli.self_s"] = sum(v for k, v in tracer.self_s.items() if k.startswith("cli."))
    m["trace.overhead_ratio"] = traced_s / plain_s
    assert sorted(m) == sorted(metric_names())
    return m


def _ratio(num, den):
    return num / den if den else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    import subquo.cli  # noqa: F401  (imports are paid before timing)

    jobs = workloads.build(args.workload, args.seed, args.tmp)
    plain, plain_s = run_pass(jobs, args.tmp)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        traced, traced_s = run_pass(jobs, args.tmp)
    finally:
        uninstall()
    report = {
        "plain": plain,
        "traced": traced,
        "metrics": layer_metrics(tracer, plain_s, traced_s),
        "levels": tracer.levels,
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
