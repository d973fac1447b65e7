"""Run one command and write its wall time, peak RSS and exit code as JSON.

Usage: python3 perfbench/launch.py REPORT_JSON COMMAND [ARGS...]

A forked child's peak RSS includes the memory of the process it was forked
from, so stages are started from this small fresh process rather than from
the benchmark process, which holds the generated market in memory.
"""

import json
import os
import subprocess
import sys
import time


def main(argv) -> int:
    report, command = argv[0], argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        # ru_maxrss is in KiB on Linux
        json.dump({"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0,
                   "exit_code": proc.returncode}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
