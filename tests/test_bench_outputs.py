"""The benchmark's job lists, run in process, against its stored output digests.

Every job of seeds 0-2 of the three workloads of perfbench/workloads.py runs
through cli.main() with its stdout captured; its sha256 must be the one
perfbench/refs.json records for it (the seed-invariant entry when there is
one, else the seed's own), it must exit 0, and it must pass the job's own
check. These outputs are frozen: any byte a change moves shows here.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from subquo import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

with open(os.path.join(PERFBENCH, "refs.json")) as _fh:
    REFS = json.load(_fh)


def run_job(job, tmp):
    """(exit code, stdout) of one job; the output is also left in tmp/<name>.out,
    where a later job of the list may read it."""
    out = io.StringIO()
    saved, sys.argv = sys.argv, ["subquo"] + job.argv
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    with open(os.path.join(tmp, job.name + ".out"), "w") as fh:
        fh.write(out.getvalue())
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_match_stored_digests(workload, seed, tmp_path):
    per_seed = REFS["seeds"][workload][str(seed)]
    for job in workloads.build(workload, seed, str(tmp_path)):
        want = REFS["invariant"].get(job.name) or per_seed[job.name]
        code, out = run_job(job, str(tmp_path))
        assert (job.name, code, workloads.sha256(out)) == (job.name, 0, want)
        assert job.check is None or job.check(out), job.name
