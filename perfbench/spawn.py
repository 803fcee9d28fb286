"""Job launcher for run.py: runs each command it is sent and reports its wall
time and peak RSS.

A process's ``ru_maxrss`` also counts the RSS of the process it was forked
from, so the jobs are forked from this small process rather than from
run.py, whose RSS grows with the inputs and outputs it holds.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "out":
path, "timeout": seconds}``, and one JSON reply per line on stdout,
``{"code": exit code, "seconds": wall time, "rss_mb": peak RSS}``. The
job's stdout goes to ``out``; its stderr is discarded. Jobs inherit this
process's environment and working directory.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, out_path, timeout):
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        took = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "seconds": took, "rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["out"], req["timeout"])), flush=True)


if __name__ == "__main__":
    main()
