"""Benchmark runner: run one workload for a time budget and report.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload rings-batch --seed 1 --seconds 30 --trace 0

A run is a sequence of passes.  Each pass is a fresh interpreter
(``worker.py``) that imports the package from ``src``, builds the
workload's ops from the seed and runs them one after another.  Every pass
of a run has the same ops, so each op is timed once per pass, and the
latencies and the wall time are taken from each op's median over the
passes: a burst of machine noise that hits one pass drops out.  At least
three passes run; more run while the next one fits in ``--seconds``.
Before them, a few processes only set up and exit, so that ``setup_s``
is a median over more set-ups than there are passes.
With ``--trace 1`` the passes alternate between untraced and traced, so
the run measures the tracing overhead too.

stdout: one line per metric (name, value, unit), one JSON line with the
run record (environment, digest, self-test, accounting), and as its last
line the result object ``{"correct", "attempted", "failed", "metrics"}``.
The metrics are the ``end_to_end`` ones of ``BENCHMARK.json`` with
``--trace 0`` and the ``per_layer`` ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("rings-batch", "oracle-arbitration", "cli-session")
HARD_LIMIT_S = 170.0
MIN_PASSES = 3
SETUP_ONLY = 5   # extra processes per untraced run that only set up
CLI_COMMANDS = ("phi", "product", "coproduct", "induce-simples", "cartan",
                "decomp", "dims", "enumerate", "oracle-verify", "oracle-cross-check")


class BenchError(Exception):
    pass


def run_pass(workload, seed, mode, checked_digest, deadline):
    """Run one worker process; ``mode`` is its traced flag, or "setup"."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed),
           mode] + ([checked_digest] if checked_digest else [])
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a pass overran the time limit")
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}: "
                         f"{err.decode(errors='replace')[-2000:]}")
    res = json.loads(out.decode().splitlines()[-1])
    res["setup_s"] = res["ready"] - spawned
    res["pass_s"] = time.monotonic() - spawned
    return res


def run_setups(workload, seed, begin):
    return [run_pass(workload, seed, "setup", None, begin + HARD_LIMIT_S)
            for _ in range(SETUP_ONLY)]


def run_passes(workload, seed, seconds, trace, begin):
    modes = (False, True) if trace else (False,)
    passes = []
    while True:
        mode = modes[len(passes) % len(modes)]
        done = [p["pass_s"] for p in passes if p["traced"] == mode]
        if len(passes) >= MIN_PASSES and \
                time.monotonic() - begin + statistics.median(done) > seconds:
            return passes
        checked = passes[0]["digest"] if passes else None
        passes.append(run_pass(workload, seed, "1" if mode else "0", checked,
                               begin + HARD_LIMIT_S))


def tail_percentile(ops_per_pass):
    """Highest of the usual percentiles with at least ten of one pass's
    samples beyond it, so that it depends on the op list only."""
    for p in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0):
        if ops_per_pass * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def op_medians(untraced, calibrated=False):
    def latencies(p):
        if not calibrated or p["op_speed"] is None:
            return p["latencies"]
        return [x * REFERENCE_S / s for x, s in zip(p["latencies"], p["op_speed"])]
    return [statistics.median(col) for col in zip(*map(latencies, untraced))]


def end_to_end(untraced, setups):
    per_op = op_medians(untraced, calibrated=True)
    pct = tail_percentile(len(per_op))
    setups = setups + untraced
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * REFERENCE_S / p["setup_speed"]
                                     for p in setups),
        "wall_s": sum(per_op),
        "latency_p50_s": statistics.median(per_op),
        "latency_tail_s": nearest_rank(per_op, pct),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in untraced) / 1024,
    }
    raw = op_medians(untraced)
    info = {"tail_percentile": pct, "ops": len(per_op), "untraced_passes": len(untraced),
            "setups": len(setups),
            "ops_beyond_tail": sum(x > metrics["latency_tail_s"] for x in per_op),
            "uncalibrated": {"setup_s": statistics.median(p["setup_s"] for p in setups),
                             "wall_s": sum(raw), "latency_p50_s": statistics.median(raw)},
            "kernel_s": statistics.median(s for p in untraced
                                          for s in p["op_speed"] or [p["setup_speed"]])}
    return metrics, info


def per_layer(untraced, traced_passes):
    # every value comes from one traced pass (the median one by wall time),
    # so that the self times and the unattributed time add up to its wall
    traced = sorted(traced_passes, key=lambda p: p["wall_s"])[(len(traced_passes) - 1) // 2]
    spans = traced["trace"]["spans"]
    m = {}
    for name, (calls, _total, self_s, extra) in spans.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
        if name == "ribbons.shifted_shuffle":
            m[f"{name}.words"] = extra
        elif name == "linalg.kernel_basis":
            m[f"{name}.nonempty_ratio"] = extra / calls if calls else 0.0
        elif name == "linalg.SparseEchelon.insert":
            m[f"{name}.accepted_ratio"] = extra / calls if calls else 0.0
    f_label = traced["caches"].get("hopf._f_label_product", {})
    lookups = f_label.get("hits", 0) + f_label.get("misses", 0)
    m["hopf.f_label_cache.hit_ratio"] = f_label.get("hits", 0) / lookups if lookups else 0.0
    m["hopf.f_label_cache.entries"] = f_label.get("currsize", 0)
    m["lincomb.LinComb.constructed"], m["lincomb.LinComb.terms_in"] = traced["trace"]["lincomb"]

    cli = traced["trace"].get("cli", {})
    for key in ("interpreter_s", "import_s", "self_s", "stdout_bytes"):
        m[f"cli.{key}"] = cli.get(key, 0)
    per_op = op_medians(untraced)
    for command in CLI_COMMANDS:
        lat = [x for c, x in zip(untraced[0]["commands"] or (), per_op) if c == command]
        m[f"cli.{command}.p50_s"] = statistics.median(lat) if lat else 0.0

    attributed = sum(v[2] for v in spans.values()) + \
        sum(cli.get(k, 0.0) for k in ("interpreter_s", "import_s", "self_s"))
    # pass wall times on both sides, so that the overhead compares like with like
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    m["trace.unattributed_s"] = traced["wall_s"] - attributed
    return m, {"traced_passes": len(traced_passes), "attributed_s": attributed}


def environment(begin_load):
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                lines = packed.read_text().splitlines() if packed.is_file() else []
                sha = next((ln.split()[0] for ln in lines
                            if ln.endswith(" " + ref[5:])), ref)
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": begin_load, "loadavg_end": loadavg()}


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cycloribbon" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from a checkout that holds src/cycloribbon\n")
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    begin_load = loadavg()
    begin = time.monotonic()
    try:
        setups = [] if args.trace else run_setups(args.workload, args.seed, begin)
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace, begin)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    untraced = [p for p in passes if not p["traced"]]
    computed, info = end_to_end(untraced, setups)
    if args.trace:
        computed, info = per_layer(untraced, [p for p in passes if p["traced"]])
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        sys.stderr.write(f"perfbench: no value for {missing}\n")
        return 1
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted}

    digests = {p["digest"] for p in passes}
    checked = [p for p in passes if p["failed"] is not None]
    attempted = sum(p["attempted"] for p in passes)
    # a pass left unchecked has the outputs of the first pass
    failed = sum(passes[0]["failed"] if p["failed"] is None else p["failed"]
                 for p in passes)
    self_test = all(p["self_test"] for p in checked)
    correct = failed == 0 and self_test and len(digests) == 1
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "traced_passes": sum(p["traced"] for p in passes),
              "pass_seconds": [round(p["pass_s"], 3) for p in passes],
              "digest": sorted(digests), "deterministic": len(digests) == 1,
              "checked_passes": len(checked), "self_test": self_test,
              "failed_ratio": failed / attempted,
              **info, "environment": environment(begin_load),
              "caches": passes[-1]["caches"]}
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_ratio':<44} {failed / attempted:>14.6g} ratio")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
