"""The CLI contract under a mutation fuzzer: every config exits 0, 1 or 2, and exit 1 says why once.

Each example sets one or two keys of a small config, which every command
accepts, to values from one pool: wrong types, numbers at the ends of the
float range, NaN and infinities, expressions that do not parse or overflow,
bad intervals and operator orders.  All four commands run on it, with every
warning recorded.  Sizes stay small: the pool holds no integer that would
pass as a count above 3, so ``samples`` stays at most 2000 and ``grid.count``
at most 33.
"""

import contextlib
import copy
import io
import math
import tempfile
import warnings
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from gpops.cli import main

BASE = {
    "kernel": {"name": "se", "lengthscale": 0.5},
    "mean": "sin(x)",
    "operator": {"terms": [[1, "1"]]},
    "grid": {"interval": [0.0, 1.0], "count": 33},
    "samples": 2000,
    "seed": 1,
    "problem": {"rhs": "0", "collocation_count": 20,
                "boundary": [{"location": 0.0, "value": 0.0}]},
}

KEYS = [
    "kernel.name", "kernel.lengthscale", "kernel.variance", "kernel.nu", "mean",
    "operator.terms", "operator.label", "grid.interval", "grid.count", "samples", "seed",
    "threads", "expected", "tolerances", "tolerances.mean_z", "problem.rhs",
    "problem.collocation_count", "problem.collocation_noise_sd", "problem.boundary",
    "problem.reference", "problem.max_error",
]

POOL = [
    # wrong types
    "abc", "", [], [1, 2], {"a": 1}, True, None,
    # numbers; 10**19 is above every count's range
    0, -1, 1, 2, 3, 10**19, 0.5, -0.5, 1.0e308, -1.0e308, 1.0e-320, -1.0e-320,
    math.nan, math.inf, -math.inf, 1.0e154, 1.0e-154,
    # expressions
    "sin(", "x^^2", "1/0", "log(x - 5)", "exp(1000*x)", "x^-1", "sqrt(-1)", "1.0e+308*x",
    "y", "sin(x)",
    # intervals
    [0.0, 1.0e308], [-1.0e308, 1.0e308], [1.0, 0.0], [0.0, 0.0], [math.nan, 1.0],
    [0.0, 1.0e-320], [0.0],
    # operator terms: high orders, coefficients near the overflow
    [[32, "1"]], [[33, "1"]], [[4, "1"]], [[5, "1"]], [[2000, "1"]],
    [[1, "1"], [0, -1.0e308]], [[2, "1"], [0, 1.0e153]], [[0, "1"]], [[1.5, "1"]],
    [[1, "nan"]], [[2, "1"], [1, "x"], [0, "1.0e+155*exp(x)"]],
    # Matern orders and boundary lists
    "5/2", "1/2", "9/2",
    [{"location": 2.0, "value": 0.0}], [{"location": 0.0, "value": 1.0e308}],
    [{"location": 0.0, "value": 0.0, "operator": {"terms": [[3, "1"]]}}],
]

COMMANDS = ("verify", "solve", "sample", "kernel-table")


def _put(tree, key, value):
    *path, last = key.split(".")
    for part in path:
        if not isinstance(tree.get(part), dict):
            tree[part] = {}
        tree = tree[part]
    tree[last] = copy.deepcopy(value)


def _run(command, cfg):
    # (exit code, stderr lines, RuntimeWarnings, whether the output directory exists)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "fuzz.yaml"
        path.write_text(yaml.safe_dump({**cfg, "output": str(out)}), encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([command, "--config", str(path)])
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        return code, err.getvalue().splitlines(), runtime, out.exists()


# 300 examples of four commands each take about 9 s on a 2-vCPU host
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(POOL)),
                min_size=1, max_size=2))
def test_every_command_keeps_the_exit_contract(mutations):
    cfg = copy.deepcopy(BASE)
    for key, value in mutations:
        _put(cfg, key, value)
    for command in COMMANDS:
        code, lines, runtime, out_exists = _run(command, cfg)
        assert code in (0, 1, 2), (command, code)
        assert runtime == [], (command, runtime)
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith(("error:", "config error:")), \
                (command, lines)
            assert not out_exists, command
