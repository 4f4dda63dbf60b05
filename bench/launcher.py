"""Starts the benchmark's child commands and reports each one's own usage.

Reads one JSON request per line on stdin, ``{"argv", "cwd", "stdout",
"stderr", "timeout"}``, runs that command to completion and answers with
``{"code", "wall_s", "maxrss_kb"}`` on stdout. ``code`` is -1 when the
command was killed at its timeout.

Children are started from this small stdlib-only process rather than from
the benchmark itself because Linux charges a child exec'd from a vfork (as
subprocess does) with the parent's peak RSS: spawned from a process that
holds numpy and scipy, every command would read the same ~80 MB. wait4
gives each child's own rusage; RUSAGE_CHILDREN would be a running maximum
over every child already reaped.
"""

import json
import os
import signal
import subprocess
import sys
import time


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, max(req["timeout"], 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except Timeout:
            proc.kill()
            _, _, usage = os.wait4(proc.pid, 0)
            code = -1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = code
    return {"code": code, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
