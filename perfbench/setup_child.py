"""One set-up measurement: a fresh interpreter imports davote and runs one operation.

Started by run.py, which times it from process start to the "ready"
line.  The package is imported first, before any module of the
benchmark, so every module it loads counts towards set-up.  The time
spent importing the benchmark's own modules and building the input is
measured here and printed, so run.py can leave it out.  After that the
child times the calibration loop, by which run.py scales the set-up
time.

    python3 perfbench/setup_child.py <workload> <seed>
"""

import os
import sys
from time import perf_counter

workload, seed = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
if workload == "cli-session":
    import davote.cli  # noqa: F401
else:
    import davote  # noqa: F401

t0 = perf_counter()
import shutil  # noqa: E402

from run import OUT, calibrate, import_davote, warmup_op  # noqa: E402

davote = import_davote("davote.cli" if workload == "cli-session" else "davote")  # checks where it came from
work = OUT / f"setup-{workload}-{seed}"
try:
    run_one, op, rng = warmup_op(workload, davote, work, seed)
    excluded = perf_counter() - t0
    run_one(op, rng)
    print(f"ready {excluded!r}", flush=True)
    calibrate()
    print(f"calibration {calibrate()!r}", flush=True)
finally:
    shutil.rmtree(work, ignore_errors=True)
