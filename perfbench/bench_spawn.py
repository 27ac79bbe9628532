"""Child launcher: runs each benchmark child and reports its wall time and RSS.

Linux charges a child's ``ru_maxrss`` with the peak RSS of the process that
spawned it, because ``subprocess`` starts children with vfork. Spawned from
the harness, whose RSS grows while it checks outputs, a child's reported peak
could be the harness's. This launcher imports nothing heavy, so the floor it
adds is a few MB, below any child that imports numpy.

Protocol: one JSON request per stdin line, with the keys ``argv``, ``env``,
``cwd``, ``log`` and ``timeout``. One JSON reply per stdout line, with the
keys ``code``, ``wall_s``, ``rss_mb`` and ``timed_out``. The launcher exits
when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


def spawn(req: dict) -> dict:
    timed_out = False
    with open(req["log"], "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], env=req["env"], cwd=req["cwd"],
                                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)

        def kill(_signum, _frame):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, max(req["timeout"], 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "timed_out": timed_out}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(spawn(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
