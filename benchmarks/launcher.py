"""Start and reap benchmark child processes on behalf of run.py.

Linux reports in ru_maxrss the larger of a child's own peak RSS and the
peak of the process that spawned it, because exec records the old
address space's high-water mark. run.py grows large while it checks
outputs, so its children would inherit its peak. This process imports
only the standard library and spawns every timed child instead, so the
inherited mark is its own few megabytes, below any cusa child's.

Protocol, one JSON object per line: run.py writes {"argv", "cwd", "env",
"stdout", "stderr", "timeout_s"}; this process answers {"code",
"wall_s", "maxrss_kb"}. It exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=out, stderr=err)
        watchdog = threading.Timer(request["timeout_s"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
