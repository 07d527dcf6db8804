"""Child-process launcher for the benchmark's CLI runs.

Reads one JSON request per line on stdin, {"argv": [...], "out": path},
runs argv with its stdout in ``out``, and answers one JSON line
{"status": exit code, "rss_mb": the child's own peak RSS}.  It imports no
numpy, so the children it spawns do not inherit a large high-water mark.
"""

import json
import os
import subprocess
import sys

for line in sys.stdin:
    req = json.loads(line)
    with open(req["out"], "wb") as out:
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"status": proc.returncode,
                      "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
