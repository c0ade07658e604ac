"""Runs the benchmark's child processes from a small process of its own.

    python3 benchmarks/spawn.py

Linux carries a process's peak RSS over from the memory of the process that
forked it, so children forked by the runner, which holds numpy, the package
and the checked tables, would report the runner's peak as their own.  This
process imports only the standard library and stays small, so the peak RSS
of each child it runs is the child's.

Reads one JSON request per line on stdin, {"argv": [...], "stderr": path},
runs it with this process's environment and working directory, and writes
one JSON line per finished child: {"wall", "cpu", "rss_kb", "code"}.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    running = []

    def stop(signum, frame):
        for child in running:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        request = json.loads(line)
        start = time.perf_counter()
        with open(request["stderr"], "wb") as err:
            child = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err,
            )
            running.append(child)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
            running.remove(child)
        print(json.dumps({
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "code": child.returncode,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
