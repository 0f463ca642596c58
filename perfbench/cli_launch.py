"""Run one CLI command the way ``python -m cycloribbon.cli`` does, and
time the calibration kernel in this process first.

Usage: ``python3 perfbench/cli_launch.py <cli arguments>``, with the
package on ``PYTHONPATH`` and ``PERFBENCH_TRACE_FD`` naming an inherited
file descriptor.  stdout, stderr and the exit code are the CLI's own; the
record (timestamps, kernel timings, and with ``PERFBENCH_TRACE=1`` the
spans and cache counts) goes to that descriptor.
"""

import time

started = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402

speed = calibrate.Speed()
speed.sample(3)
calibrated = time.monotonic()

import cycloribbon.cli  # noqa: E402

imported = time.monotonic()

import spans  # noqa: E402

record = {"started": started, "calibrated": calibrated, "imported": imported,
          "kernel": statistics.median(speed.took)}
tracer = None
if os.environ.get("PERFBENCH_TRACE") == "1":
    caches = spans.package_caches()
    tracer = spans.Tracer()
    tracer.install()
code = cycloribbon.cli.main(sys.argv[1:])
sys.stdout.flush()
record["finished"] = time.monotonic()
if tracer is not None:
    record.update(trace=tracer.report(), caches=spans.cache_infos(caches))
with os.fdopen(int(os.environ["PERFBENCH_TRACE_FD"]), "w") as out:
    json.dump(record, out)
sys.exit(code)
