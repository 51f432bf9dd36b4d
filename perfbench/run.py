"""The gpops benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 25 --trace 0

Workloads are listed in ``perfbench/workloads.py`` and explained in
``perfbench/README.md``.  With ``--trace 0`` the run starts three fresh
processes that each import gpops, build the inputs and make one warm-up
call; their median is ``setup_s``.  The third then calls the workload back
to back for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` one process alternates untraced and traced calls and reports
the per-layer metrics.  Every output is checked.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts the workload's fixed inputs plus its once-per-run check,
and ``failed`` those with a failed outcome, so both depend only on the seed.

The run exits non-zero without a result when ``src/gpops`` is missing or a
process fails.  ``--smoke`` runs tiny sizes for the self-tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

SETUPS = 3
DEADLINE_S = 170.0
TAIL_BEYOND = 10
WORK_UNIT = {"verify-small": "Monte-Carlo paths", "verify-large": "Monte-Carlo paths",
             "solve-colloc": "observations", "condition-perobs": "observations"}

HERE = os.path.dirname(os.path.abspath(__file__))


def tail(times):
    """``(value, percentile)``: the highest percentile with at least ten calls beyond it.

    With 21 calls or fewer that percentile would not lie above the median, so
    the median stands in for it.  Nearest rank: the value is the slowest call
    that still has ten calls beyond it.
    """
    t = sorted(times)
    n = len(t)
    if n <= 2 * TAIL_BEYOND + 1:
        return statistics.median(t), 50.0
    return t[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _spawn(args, workdir, measure, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if measure:
        cmd.append("--measure")
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("benchmark process ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited with code {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark process printed no result")
    result = json.loads(lines[-1])
    return result["ready_at"] - started, result


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "gpops", "__init__.py")):
        print("run from the root of a gpops checkout: src/gpops is missing", file=sys.stderr)
        return 2
    if args.workload not in WORK_UNIT:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORK_UNIT)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(".perfbench_work", ("smoke-" if args.smoke else "") + args.workload)
    deadline = time.monotonic() + DEADLINE_S
    setups = SETUPS if args.trace == 0 else 1
    try:
        setup_times = []
        for k in range(setups):
            setup_s, res = _spawn(args, workdir, k == setups - 1, deadline)
            setup_times.append(setup_s)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    statuses = res["statuses"]
    failed = sum(s != "ok" for s in statuses)
    wrong = sum(s == "wrong" for s in statuses)
    verdicts = sum(s == "verdict_fail" for s in statuses)
    calls = res["call_s"]
    p50 = statistics.median(calls)
    print(f"{args.workload} (seed {args.seed}): {res['why']}")
    print(f"  closed loop, 1 client; {len(calls)} untraced and "
          f"{len(res['traced_call_s'])} traced calls")
    print(f"  fail_ratio {failed / len(statuses):.4f} ratio: {failed} of {len(statuses)} "
          f"inputs and checks failed ({verdicts} verify verdicts FAIL, "
          f"{wrong} wrong or raised)")
    if args.trace == 0:
        tail_s, tail_pct = tail(calls)
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "call_s.p50": _metric(p50, "s"),
            "call_s.tail": _metric(tail_s, "s"),
            "work_per_s": _metric(res["work_per_call"] * len(calls) / math.fsum(calls), "1/s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
        notes = {
            "setup_s": f"median of {setups} fresh processes",
            "call_s.p50": f"{len(calls)} calls",
            "call_s.tail": f"p{tail_pct:.1f} of {len(calls)} calls",
            "work_per_s": WORK_UNIT[args.workload] + " per second of call time",
            "peak_rss_mb": "peak resident memory of the measuring process",
        }
    else:
        metrics = dict(res["layers"])
        traced_p50 = statistics.median(res["traced_call_s"]) if res["traced_call_s"] else p50
        metrics["trace.overhead_ratio"] = _metric(traced_p50 / p50 - 1.0, "ratio")
        notes = {"trace.overhead_ratio": f"traced p50 {traced_p50:.4f} s over untraced "
                                         f"p50 {p50:.4f} s, minus 1"}
        print(f"  spans written to {res['trace_file']}")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(json.dumps({"correct": wrong == 0, "attempted": len(statuses), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
