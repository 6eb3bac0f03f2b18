"""Runs benchmark jobs on request, one at a time, from a small process.

Linux charges a child's ru_maxrss, at exec, with the peak resident size of
the process it was forked from. Jobs forked from the benchmark process, which
holds NumPy, SciPy and the oracles' arrays, would report at least its size.
This process imports only the standard library, so a job's maximum RSS is
its own.

Protocol: one JSON request per stdin line, {cmd, env, cwd, log}; one JSON
reply per stdout line, {wall, cpu, rss_kb, code, stdout}. Wall time runs from
spawn to exit, with the job's stdout fully read. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=subprocess.PIPE, stderr=err,
                                    env=req["env"], cwd=req["cwd"])
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                 "rss_kb": usage.ru_maxrss, "code": proc.returncode,
                 "stdout": out.decode(errors="replace")}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
