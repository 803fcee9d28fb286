"""Benchmark of the subquo command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload completion --seed 1 --seconds 36 --trace 0

Each workload is a fixed list of CLI jobs generated from ``--seed`` (see
workloads.py). With ``--trace 0`` the jobs run one after another, each as a
fresh ``python -m subquo.cli`` process (a closed loop with one client), in
passes until ``--seconds`` is used up; every job's output is checked, and
each job's time is the median over the passes. With ``--trace 1`` the same
job list runs once untraced and once traced inside one child process
(layers.py), which gives per-layer times and counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it are a
human-readable report.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 60
# No job starts after this many seconds, so a run ends well within the 180 s
# a run may take.
RUN_LIMIT_S = 120
SETUP_REPEATS = 15

# Command metrics: (name, group of the jobs whose times it sums).
COMMAND_METRICS = [
    ("gb_s", "gb"),
    ("relgb_s", "relgb"),
    ("resolution_s", "resolution"),
    ("minimize_s", "minimize"),
    ("presentation_s", "presentation"),
    ("flange_s", "flange"),
    ("verify_s", "verify"),
    ("hilbert_s", "hilbert"),
    ("diagram_s", "diagram"),
]
# The metrics every workload reports in its JSON line (see BENCHMARK.json).
END_TO_END = [("wall_s", "s"), ("q_s", "s"), ("fp_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

REFS_PATH = os.path.join(HERE, "refs.json")


def job_env(root):
    """Environment of every job: src on the path, hash seed pinned, no knobs."""
    env = dict(os.environ)
    env.pop("RELGB_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Runs jobs through spawn.py, one at a time; see spawn.py for why."""

    def __init__(self, env, root):
        argv = [sys.executable, os.path.join(HERE, "spawn.py")]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root, text=True)

    def run(self, argv, out_path):
        """Returns (exit code, wall seconds, peak RSS in MB) of one job."""
        request = {"argv": argv, "out": out_path, "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("job launcher exited")
        reply = json.loads(line)
        return reply["code"], reply["seconds"], reply["rss_mb"]

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def measure_setup(launcher, tmp):
    """Median wall time of a no-op CLI call: interpreter start plus imports.

    The call is ``--help``: ``--version`` needs installed package metadata
    and exits 1 with a traceback when run from ``src``.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        code, took, _ = launcher.run([sys.executable, "-m", "subquo.cli", "--help"], os.path.join(tmp, "help.out"))
        if code != 0:
            raise RuntimeError("subquo --help exited with %d" % code)
        times.append(took)
    return statistics.median(times[1:])  # the first call warms the file cache


class Checker:
    """Checks each job output once per distinct digest, against its reference."""

    def __init__(self, workload, seed):
        with open(REFS_PATH) as fh:
            refs = json.load(fh)
        self.invariant = refs["invariant"]
        self.per_seed = refs["seeds"].get(workload, {}).get(str(seed), {})
        self.cache = {}
        self.unreferenced = set()

    def reference(self, job):
        return self.invariant.get(job.name) or self.per_seed.get(job.name)

    def ok(self, job, out, digest):
        key = (job.name, digest)
        if key not in self.cache:
            ref = self.reference(job)
            good = ref is None or ref == digest
            if ref is None:
                self.unreferenced.add(job.name)
            if good and job.check is not None:
                try:
                    good = bool(job.check(out))
                except Exception:  # a malformed output fails its job
                    traceback.print_exc(file=sys.stdout)
                    good = False
            self.cache[key] = good
        return self.cache[key]


def measure(workload, seed, seconds, root, tmp):
    jobs = workloads.build(workload, seed, tmp)
    checker = Checker(workload, seed)
    launcher = Launcher(job_env(root), root)
    try:
        return _measure(workload, seed, seconds, tmp, jobs, checker, launcher)
    finally:
        launcher.close()


def _measure(workload, seed, seconds, tmp, jobs, checker, launcher):
    setup_s = measure_setup(launcher, tmp)
    times = {job.name: [] for job in jobs}
    outputs = {job.name: {} for job in jobs}
    attempted = failed = 0
    peak_mb = 0.0
    pass_s = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for job in jobs:
            if time.perf_counter() - start > RUN_LIMIT_S:
                failed += 1
                print("FAILED: the run passed %d s before %s" % (RUN_LIMIT_S, job.name))
                break
            out_path = os.path.join(tmp, job.name + ".out")
            argv = [sys.executable, "-m", "subquo.cli"] + job.argv
            code, took, rss = launcher.run(argv, out_path)
            with open(out_path) as fh:
                out = fh.read()
            attempted += 1
            if code != 0:
                failed += 1
                print("FAILED %s (exit %d)" % (job.name, code))
            times[job.name].append(took)
            outputs[job.name][workloads.sha256(out)] = out
            peak_mb = max(peak_mb, rss)
        pass_s.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if elapsed + pass_s[-1] > min(seconds, RUN_LIMIT_S):
            break
    # Checks run after the last job, so the sympy work stays out of the
    # timed loop.
    for job in jobs:
        seen = outputs[job.name]
        if len(seen) > 1:
            failed += 1
            print("FAILED %s: output differs between passes" % job.name)
        for digest, out in seen.items():
            if not checker.ok(job, out, digest):
                failed += 1
                print("FAILED %s: output %s fails its check" % (job.name, digest[:16]))

    job_s = {name: statistics.median(ts) for name, ts in times.items()}
    by_name = {job.name: job for job in jobs}
    groups = {"wall": 0.0, "q": 0.0, "fp": 0.0}
    for name, t in job_s.items():
        job = by_name[name]
        groups["wall"] += t
        groups[job.field] += t
        group = workloads.COMMAND_GROUP[job.command]
        groups[group] = groups.get(group, 0.0) + t
    values = {
        "wall_s": groups["wall"],
        "q_s": groups["q"],
        "fp_s": groups["fp"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }
    report(workload, seed, jobs, job_s, times, outputs, groups, values, pass_s, attempted, failed, checker)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(workload, seed, jobs, job_s, times, outputs, groups, values, pass_s, attempted, failed, checker):
    print("workload %s, seed %d: %d jobs, %d passes" % (workload, seed, len(jobs), len(pass_s)))
    print("%-28s %10s %3s  %-16s  %s" % ("job", "median_s", "n", "sha256", "each pass (s)"))
    for job in jobs:
        digest = min(outputs[job.name])
        each = " ".join("%.4f" % t for t in times[job.name])
        print("%-28s %10.4f %3d  %-16s  %s" % (job.name, job_s[job.name], len(times[job.name]), digest[:16], each))
    q1, q2, q3 = _quartiles(pass_s)
    print("pass wall time: median %.4f s, quartiles %.4f..%.4f s over %d passes" % (q2, q1, q3, len(pass_s)))
    print("%-16s %-6s %12s" % ("metric", "unit", "value"))
    for name, unit in END_TO_END:
        print("%-16s %-6s %12.4f" % (name, unit, values[name]))
    for name, group in COMMAND_METRICS:
        if group in groups:
            print("%-16s %-6s %12.4f" % (name, "s", groups[group]))
        else:
            print("%-16s %-6s %12s" % (name, "s", "n/a"))
    print("%-16s %-6s %12.4f" % ("fail_ratio", "ratio", failed / attempted))
    if checker.unreferenced:
        print("no stored digest for seed %d: %s" % (seed, " ".join(sorted(checker.unreferenced))))


def traced(workload, seed, root, tmp):
    env = job_env(root)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    argv = [sys.executable, os.path.join(HERE, "layers.py"), "--workload", workload, "--seed", str(seed), "--tmp", tmp]
    proc = subprocess.run(argv, env=env, cwd=root, stdout=subprocess.PIPE, timeout=170, check=True)
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    jobs = workloads.build(workload, seed, tmp)
    checker = Checker(workload, seed)
    failed = 0
    for job in jobs:
        out_path = os.path.join(tmp, job.name + ".out")
        with open(out_path) as fh:
            out = fh.read()
        code, digest = result["traced"][job.name]
        if code != 0 or result["plain"][job.name] != [code, digest] or not checker.ok(job, out, digest):
            failed += 1
            print("FAILED %s (exit %d)" % (job.name, code))
    metrics = result["metrics"]
    print("traced run of workload %s, seed %d: %d jobs" % (workload, seed, len(jobs)))
    for kind, levels in result["levels"]:
        print("%s levels: %s" % (kind, " ".join(str(n) for n in levels)))
    print("%-40s %-12s %s" % ("prediction", "expected", "measured"))
    for name, expect in layers.PREDICTIONS:
        want = expect.get(workload, "-")
        print("%-40s %-12s %s" % (name, want, metrics[name]))
    print("%-40s %s" % ("metric", "value"))
    for name in layers.metric_names():
        print("%-40s %s" % (name, metrics[name]))
    units = per_layer_units()
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in layers.metric_names()},
    }


def per_layer_units():
    units = {}
    for name in layers.metric_names():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio") or name.endswith(".density"):
            units[name] = "ratio"
        elif name.endswith(".bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


def main():
    ap = argparse.ArgumentParser(description="subquo CLI benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "subquo")):
        print("src/subquo not found under %s: run from the root of a subquo checkout" % root, file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, root, tmp)
        else:
            result = measure(args.workload, args.seed, args.seconds, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
