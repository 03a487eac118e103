"""Start CLI children on request and report their wall time and peak RSS.

The benchmark runs this small process next to itself and sends it one JSON
request per line: ``{"argv": [...], "env": {...}, "stdout": path,
"stderr": path, "timeout": seconds}``.  It answers each with one JSON line
``{"wall_s", "maxrss_kb", "cpu_s", "exit"}``.

A child's ``ru_maxrss`` from ``wait4`` starts at the high-water mark of the
process that started it.  This process holds no workload data, so the
figure it reports is the child's own peak, whatever the benchmark holds.
"""

import json
import os
import signal
import sys
import time

_child = 0


def _kill_child(signum, frame):
    if _child:
        os.kill(_child, signal.SIGKILL)


def main() -> None:
    global _child
    signal.signal(signal.SIGALRM, _kill_child)
    for line in sys.stdin:
        req = json.loads(line)
        wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], wr, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], wr, 0o644),
        ]
        start = time.perf_counter()
        _child = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        signal.alarm(req["timeout"])
        _, status, usage = os.wait4(_child, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        _child = 0
        reply = {
            "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "exit": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
