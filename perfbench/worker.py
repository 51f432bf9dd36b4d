"""One process of the gpops benchmark: set a workload up, then run its closed loop.

``run.py`` starts this script from the root of a checkout.  It imports gpops
from ``src/``, builds the workload's inputs from the seed and makes one
untimed warm-up call.  The moment it is ready (``time.monotonic``, which is
system-wide on Linux) goes into its result, so the parent can time set-up
from process start.  Without ``--measure`` it stops there.

With ``--measure`` it calls the workload back to back for ``--seconds``,
timing each call and checking each output.  The calls cycle through the
workload's fixed inputs, and the loop goes on past ``--seconds`` until every
input has been called once.  An input's outcome is the worst over its calls,
so the outcomes depend only on the seed, not on the host's speed.  With
``--trace 1`` every second call runs with the span recorder installed, so
traced and untraced calls share the same conditions.  The result is one
JSON line on stdout; gpops's own prints are discarded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--measure", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    result_out = sys.stdout
    sys.stdout = open(os.devnull, "w", encoding="utf-8")  # gpops.cli prints per call
    try:
        sys.path.insert(0, os.path.join(os.getcwd(), "src"))
        import workloads

        w = workloads.make(args.workload, args.seed, args.workdir, args.smoke)
        w.call(w.prepare(0))  # untimed warm-up
        ready_at = time.monotonic()
        result = {"ready_at": ready_at}
        if args.measure:
            result.update(measure(w, args))
    finally:
        sys.stdout.close()
        sys.stdout = result_out
    print(json.dumps(result), flush=True)
    return 0


def _attempt(fn, *args):
    """``(result, raised)``: a raising call is a failed call, not the end of the run."""
    try:
        return fn(*args), False
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, True


def measure(w, args):
    import workloads

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
    plain, traced = [], []
    statuses = [workloads.OK] * w.inputs  # per input, the worst outcome of its calls
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        i = k % w.inputs
        use_trace = recorder is not None and k % 2 == 1
        call_input = w.prepare(i)
        if use_trace:
            recorder.install()
        t0 = time.perf_counter()
        out, raised = _attempt(w.call, call_input)
        dt = time.perf_counter() - t0
        if use_trace:
            recorder.uninstall()
        (traced if use_trace else plain).append(dt)
        outcome = workloads.WRONG if raised else w.check(i, out)
        statuses[i] = workloads.worst(statuses[i], outcome)
        k += 1
        if k >= w.inputs and time.perf_counter() >= deadline and plain:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra, raised = _attempt(w.once_per_run)
    if raised or extra is not None:
        statuses.append(workloads.WRONG if raised else extra)
    res = {"call_s": plain, "traced_call_s": traced, "statuses": statuses,
           "work_per_call": w.work_per_call, "peak_rss_mb": peak_rss_mb, "why": w.why}
    if recorder is not None:
        res["layers"] = tracing.layer_metrics(recorder.spans)
        path = os.path.join(args.workdir, f"trace-seed{args.seed}.json")
        recorder.dump(path)
        res["trace_file"] = path
    return res


if __name__ == "__main__":
    sys.exit(main())
