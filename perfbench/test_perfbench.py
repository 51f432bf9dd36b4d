"""Self-tests of the gpops benchmark: every check can fail, names match, smoke sizes run.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gpops.verify  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import OK, VERDICT_FAIL, WRONG  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _calls(w, n, recorder=None):
    statuses = []
    for i in range(1, n + 1):
        call_input = w.prepare(i)
        if recorder is not None:
            recorder.install()
        try:
            out = w.call(call_input)
        finally:
            if recorder is not None:
                recorder.uninstall()
        statuses.append(w.check(i, out))
    return statuses


def test_workload_names_and_reasons_match_benchmark_json():
    declared = [(w["name"], w["why"]) for w in BENCH["workloads"]]
    assert declared == [(n, why) for n, why in workloads.WHY.items() if n != "condition-perobs"]
    assert list(run.WORK_UNIT) == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_outcome_counts_depend_on_the_seed_not_on_the_run_time():
    counts = []
    for seconds in ("0.1", "2"):
        proc = _bench("--workload", "verify-large", "--seed", "5", "--seconds", seconds,
                      "--trace", "0", "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]
    assert counts[0][0] == workloads.VERIFY_INPUTS + 1  # the inputs and the threads check


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify-small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wrong_solve_reference_fails_every_call(tmp_path):
    w = workloads.make("solve-colloc", 1, str(tmp_path), smoke=True)
    assert _calls(w, 2) == [OK, OK]
    w.reference_freq += 0.5
    assert _calls(w, 3) == [WRONG] * 3


def test_wrong_condition_reference_or_posterior_fails_every_call(tmp_path):
    w = workloads.make("condition-perobs", 1, str(tmp_path), smoke=True)
    assert _calls(w, 2) == [OK, OK]
    w.reference_freq += 0.5
    assert _calls(w, 2) == [WRONG] * 2
    w.reference_freq = w.FREQ
    ref = w.shared_posterior
    w.shared_posterior = dataclasses.replace(ref, mean=ref.mean + 1e-6)
    assert _calls(w, 2) == [WRONG] * 2


def test_corrupted_verify_report_is_caught(tmp_path):
    w = workloads.make("verify-small", 1, str(tmp_path), smoke=True)
    call_seed = workloads._call_seed(1, 1)
    code = w.call(w.prepare(1))
    report, csv = w.read_outputs(w.out)
    good = w.check_outputs(call_seed, code, report, csv)
    assert good in (OK, VERDICT_FAIL)
    doc = json.loads(report)
    flipped = json.dumps(dict(doc, passed=not doc["passed"])).encode()
    stale = json.dumps(dict(doc, config=dict(doc["config"], seed=call_seed + 1))).encode()
    assert w.check_outputs(call_seed, code, flipped, csv) == WRONG
    assert w.check_outputs(call_seed, code, stale, csv) == WRONG
    assert w.check_outputs(call_seed, code, report[: len(report) // 2], csv) == WRONG
    assert w.check_outputs(call_seed, code, report, csv[: len(csv) // 2]) == WRONG
    wrong_code = workloads.EXIT_TOLERANCE if code == workloads.EXIT_PASS else workloads.EXIT_PASS
    assert w.check_outputs(call_seed, wrong_code, report, csv) == WRONG


def test_repeated_verify_input_must_reproduce_its_report(tmp_path):
    w = workloads.make("verify-small", 1, str(tmp_path), smoke=True)
    first = w.check(1, w.call(w.prepare(1)))
    assert first in (OK, VERDICT_FAIL)
    assert w.check(1, w.call(w.prepare(1))) == first
    report, csv = w._outputs[1]
    w._outputs[1] = (report, csv.replace(b"\n", b"\r\n", 1))
    assert w.check(1, w.call(w.prepare(1))) == WRONG


def test_thread_identity_check_catches_a_differing_report(tmp_path):
    w = workloads.make("verify-large", 1, str(tmp_path), smoke=True)
    assert WRONG not in _calls(w, 1)
    assert w.once_per_run() == OK
    seed, report, csv = w._first
    w._first = (seed, report.replace(b'"passed"', b'"passed" '), csv)
    assert w.once_per_run() == WRONG


def test_traced_counts_repeat_exactly(tmp_path):
    cond = workloads.make("condition-perobs", 1, str(tmp_path / "c"), smoke=True)
    q = len(cond.observations)
    verify = workloads.make("verify-small", 1, str(tmp_path / "v"), smoke=True)
    for w, expected in ((cond, {"operators.KernelBifunction.call": q + q * q,
                                "operators.apply_arg": q + 2 * q * q}),
                        (verify, {"cumulants.empirical_cumulant": 20})):
        rec = tracing.Recorder()
        _calls(w, 2, rec)
        per_call = [tracing.call_stats(rec.spans, r) for r in tracing.roots(rec.spans)]
        assert len(per_call) == 2
        for name, calls in expected.items():
            assert [stats[name]["calls"] for stats in per_call] == [calls, calls]
        assert per_call[0].keys() == per_call[1].keys()
        for name, stats in per_call[0].items():
            for key in ("calls", "entries", "normals", "flops", "order", "retries"):
                assert stats.get(key) == per_call[1][name].get(key)


def test_recorder_restores_every_binding(tmp_path):
    before = gpops.verify.sample_paths, gpops.operators.KernelBifunction.__call__
    rec = tracing.Recorder()
    rec.install()
    assert gpops.verify.sample_paths is not before[0]
    rec.uninstall()
    assert (gpops.verify.sample_paths, gpops.operators.KernelBifunction.__call__) == before


def test_self_time_subtracts_direct_children():
    spans = [["a", -1, 0.0, 10.0, None], ["b", 0, 1.0, 4.0, {"entries": 5}],
             ["a", 1, 2.0, 3.0, None], ["c", 0, 5.0, 9.0, {"order": 3}],
             ["a", -1, 20.0, 21.0, None]]
    stats = tracing.call_stats(spans, 0)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["total_s"] == 10.0  # the nested "a" is inside the outer one
    assert stats["a"]["self_s"] == (10.0 - 3.0 - 4.0) + 1.0
    assert stats["b"]["self_s"] == 2.0 and stats["b"]["entries"] == 5
    assert stats["c"]["order"] == 3
    assert tracing.roots(spans) == [0, 4]


def test_tail_is_the_highest_percentile_with_ten_calls_beyond():
    assert run.tail(list(range(30))) == (19, 100.0 * 20 / 30)
    assert run.tail(list(range(22))) == (11, 100.0 * 12 / 22)
    assert run.tail(list(range(21))) == (10, 50.0)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0)
