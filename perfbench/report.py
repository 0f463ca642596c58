"""Run every workload and print all its metrics, with their units.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [--seed 1] [--held-out-seed 2] [--seconds S]

For each workload it makes four runs of ``run.py``: the seed twice and the
held-out seed once without tracing, and the seed once with tracing.  It
prints every end-to-end metric of both runs of the seed, the failed
ratio, and then checks that

* every run is correct (no failed op, checker self-test passed),
* the two runs of the seed produced the same output digest,
* the per-layer self times plus the unattributed time add up to the
  traced wall time (and shows the tracing overhead).

Exit code 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out-seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    print(f"{'workload':<20} {'metric':<24} {'seed run 1':>14} {'seed run 2':>14} unit")
    for workload in (w["name"] for w in declared["workloads"]):
        first, rec1 = run(workload, args.seed, args.seconds, 0)
        second, rec2 = run(workload, args.seed, args.seconds, 0)
        held_out, _ = run(workload, args.held_out_seed, args.seconds, 0)
        traced, _ = run(workload, args.seed, args.seconds, 1)
        for m in declared["end_to_end"]:
            name = m["name"]
            print(f"{workload:<20} {name:<24} {first['metrics'][name]['value']:>14.6g} "
                  f"{second['metrics'][name]['value']:>14.6g} {m['unit']}")
        print(f"{workload:<20} {'failed_ratio':<24} "
              f"{first['failed'] / first['attempted']:>14.6g} "
              f"{second['failed'] / second['attempted']:>14.6g} ratio")
        print(f"{workload:<20} {'tail percentile':<24} {rec1['tail_percentile']:>14g} "
              f"{rec2['tail_percentile']:>14g} "
              f"(of {rec1['ops']} per-op medians, {rec1['ops_beyond_tail']} beyond)")

        runs = (first, second, held_out, traced)
        correct = all(r["correct"] for r in runs)
        same = rec1["digest"] == rec2["digest"]
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        accounted = sum(v for k, v in layer.items() if k.endswith(".self_s")) + \
            layer["cli.interpreter_s"] + layer["cli.import_s"] + layer["trace.unattributed_s"]
        adds_up = abs(accounted - layer["trace.wall_s"]) <= 1e-6 * max(1.0, layer["trace.wall_s"])
        ok = ok and correct and same and adds_up
        print(f"{workload:<20} correct (seed x2, held-out seed {args.held_out_seed}, "
              f"traced), checker self-test: {'yes' if correct else 'NO'}")
        print(f"{workload:<20} digest {rec1['digest'][0][:16]} vs "
              f"{rec2['digest'][0][:16]}: {'same' if same else 'DIFFERENT'}")
        print(f"{workload:<20} trace: wall {layer['trace.wall_s']:.4g} s, untraced "
              f"{layer['trace.untraced_wall_s']:.4g} s, overhead "
              f"{layer['trace.overhead_s']:.4g} s, unattributed "
              f"{layer['trace.unattributed_s']:.4g} s, self times + unattributed "
              f"{'= traced wall' if adds_up else '!= traced wall'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
