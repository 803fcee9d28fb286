"""Record the reference output digests in refs.json.

Run from the root of a checkout whose outputs are known to be right:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/record_refs.py 0 19 [WORKLOAD...]

It runs every job of the named workloads (default: all) in-process for the
seeds in the given closed range, replacing their entries in refs.json, checks each output with its job's own check, and stores the
sha256 of each output. Outputs that must not depend on the seed (``relgb``,
``resolution``, ``minimize``, ``betti``, ``verify``) are stored once, under
"invariant", and the script fails if two seeds disagree on them.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

INVARIANT = ("relgb", "resolution", "minimize", "betti", "verify")


def main(lo, hi, names):
    path = os.path.join(HERE, "refs.json")
    with open(path) as fh:
        refs = json.load(fh)
    scratch = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    for workload in names:
        per_seed = refs["seeds"][workload] = {}
        seen = {}
        for seed in range(lo, hi + 1):
            tmp = tempfile.mkdtemp(dir=scratch)
            try:
                for job in workloads.build(workload, seed, tmp):
                    code, out, _ = layers.run_job(job, tmp)
                    if code != 0 or (job.check is not None and not job.check(out)):
                        sys.exit("%s seed %d: %s fails (exit %d)" % (workload, seed, job.name, code))
                    digest = workloads.sha256(out)
                    if job.command in INVARIANT:
                        if seen.setdefault(job.name, digest) != digest:
                            sys.exit("%s seed %d: %s depends on the seed" % (workload, seed, job.name))
                    else:
                        per_seed.setdefault(str(seed), {})[job.name] = digest
            finally:
                shutil.rmtree(tmp)
            print(workload, seed, flush=True)
        refs["invariant"].update(seen)
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:] or workloads.WORKLOADS)
