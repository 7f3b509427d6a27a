"""Run a command and report its wall time and peak RSS, from a small process.

    python3 perfbench/launch.py REPORT.json TIMEOUT_S CMD [ARG ...]

Writes {"returncode", "wall_s", "maxrss_mb"} to REPORT.json and exits 0
unless this launcher itself failed.  A child's ru_maxrss starts from the RSS
of the process that forked it, so measuring the CLI straight from the
benchmark process would report the benchmark's own memory.  This launcher
is a bare interpreter, so the peak it reports is the command's own peak,
or that of a fork worker the command waited for.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> int:
    report, timeout, cmd = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    try:
        code = subprocess.run(cmd, stdin=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = -9  # subprocess.run killed and reaped the command
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)  # KiB on Linux
    with open(report, "w") as fh:
        json.dump({"returncode": code, "wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
