"""One pass of a workload in a fresh interpreter.

Usage: ``python3 perfbench/worker.py <workload> <seed> <traced 0|1|setup> [digest]``.

Every ``lru_cache`` in the package is process-global, so each pass gets
its own process and starts cold.  The pass imports the package from the
checkout's ``src``, builds its ops from the seed, notes the moment it is
ready, runs the ops (timing each, and timing the calibration kernel of
``calibrate.py`` between them), and only then hashes the canonical
outputs.  It checks every output and runs the checker self-test unless
its digest equals ``digest``, the digest of an earlier pass of the same
seed that was checked: equal digests mean equal outputs.  It prints one
JSON object on stdout.  With ``setup`` in place of the traced flag it
stops once it is ready and reports only its set-up.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class OpError:
    """Output slot of an op that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"OpError({self.text!r})"


def _passes(workload, op, out) -> bool:
    if isinstance(out, OpError):
        return False
    try:
        return bool(workload.check(op, out))
    except Exception:  # a malformed output fails its check
        return False


def _self_test(workload, ops, outs) -> bool:
    """Each deliberately corrupted output must count as one more failure."""
    try:
        corrupted = workload.corrupt(ops, outs)
    except Exception:
        return False
    return bool(corrupted) and all(
        _passes(workload, ops[i], outs[i]) and not _passes(workload, ops[i], bad)
        for i, bad in corrupted)


def _cli_trace(records) -> tuple:
    """Sum the per-process records of a traced CLI session."""
    spans_sum, lincomb, caches = {}, [0, 0], {}
    parts = {"interpreter_s": 0.0, "import_s": 0.0, "self_s": 0.0, "stdout_bytes": 0}
    for rec in records:
        library = 0.0
        for name, vals in rec["trace"]["spans"].items():
            acc = spans_sum.setdefault(name, [0, 0.0, 0.0, 0])
            for k, v in enumerate(vals):
                acc[k] += v
            library += vals[2]
        lincomb = [a + b for a, b in zip(lincomb, rec["trace"]["lincomb"])]
        for name, info in rec["caches"].items():
            acc = caches.setdefault(name, dict.fromkeys(info, 0))
            for k, v in info.items():
                acc[k] = v if k == "maxsize" else acc[k] + v
        interpreter = rec["started"] - rec["spawned"]
        imports = rec["imported"] - rec["calibrated"]
        parts["interpreter_s"] += interpreter
        parts["import_s"] += imports
        # the process's time minus its kernel timing, as in the op latency
        parts["self_s"] += (rec["ended"] - rec["spawned"] - (rec["calibrated"] - rec["started"])
                            - interpreter - imports - library)
        parts["stdout_bytes"] += rec["stdout_bytes"]
    return {"spans": spans_sum, "lincomb": lincomb, "cli": parts}, caches


def main(argv) -> int:
    name, seed, traced, setup_only = argv[0], int(argv[1]), argv[2] == "1", argv[2] == "setup"
    checked_digest = argv[3] if len(argv) > 3 else None
    if not (SRC / "cycloribbon" / "__init__.py").is_file():
        sys.stderr.write(f"no package sources at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import cycloribbon
    if Path(cycloribbon.__file__).resolve().parent != SRC / "cycloribbon":
        sys.stderr.write(f"imported {cycloribbon.__file__}, not the checkout's\n")
        return 2
    cli = name == "cli-session"
    if cli:
        import cycloribbon.cli  # noqa: F401  (the import cost a session pays)
    import calibrate
    import spans
    import workloads

    caches = spans.package_caches()
    workload = workloads.WORKLOADS[name](traced) if cli else workloads.WORKLOADS[name]()
    ops = workload.ops(seed)
    tracer = None
    if traced and not cli:
        tracer = spans.Tracer()
        tracer.install()
    ready = time.monotonic()
    speed = calibrate.Speed()
    speed.sample(3)
    setup_speed = statistics.median(speed.took)
    if setup_only:
        sys.stdout.write(json.dumps({"ready": ready, "setup_speed": setup_speed}) + "\n")
        return 0

    clock = time.perf_counter
    outs, bounds = [], []
    # a CLI op times the kernel in its own process; in a traced pass the
    # timer's kernel would land in the self time of open spans
    timer = not (cli or traced)
    if timer:
        speed.start()
    for op in ops:
        t0 = clock()
        try:
            out = workload.run(op)
        except Exception as exc:  # counted as a failed op, the pass goes on
            out = OpError(exc)
        bounds.append((t0, clock()))
        outs.append(out)
    if timer:
        speed.stop()
    speed.sample(3)
    latencies = [t1 - t0 - speed.inside(t0, t1) for t0, t1 in bounds]
    op_speed = [speed.around(t0, t1) for t0, t1 in bounds] if timer else None
    if cli and all(workload.records):
        latencies = [x - (rec["calibrated"] - rec["started"])
                     for x, rec in zip(latencies, workload.records)]
        op_speed = [rec["kernel"] for rec in workload.records]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if cli
                                else resource.RUSAGE_SELF).ru_maxrss

    trace = tracer.report() if tracer else None
    cache_state = spans.cache_infos(caches)
    if traced and cli and all(workload.records):
        trace, cache_state = _cli_trace(workload.records)
    digest = hashlib.sha256()
    for op, out in zip(ops, outs):
        text = repr(out) if isinstance(out, OpError) else workload.canonical(op, out)
        digest.update(text.encode())
        digest.update(b"\n")
    digest = digest.hexdigest()
    checked = digest != checked_digest
    failed = sum(not _passes(workload, op, out)
                 for op, out in zip(ops, outs)) if checked else None
    result = {
        "traced": traced, "ready": ready, "wall_s": sum(latencies),
        "latencies": latencies, "setup_speed": setup_speed,
        "op_speed": op_speed,
        "commands": [workload.command(op) for op in ops] if cli else None,
        "attempted": len(ops), "failed": failed,
        "self_test": _self_test(workload, ops, outs) if checked else None,
        "digest": digest, "peak_rss_kb": rss_kb,
        "caches": cache_state, "trace": trace,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
