"""CLI subcommands: exit codes, determinism, config diagnostics."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gpops.cli
import gpops.config
import gpops.linalg
import gpops.sampling
import gpops.verify
from gpops.cli import main
from gpops.conditioning import solve_linear_ode
from gpops.reportio import csv_lines

BASE_VERIFY = """\
kernel: {{name: se, lengthscale: 1.0, variance: 1.0}}
mean: "0"
operator:
  label: "d/dx"
  terms: [[1, "1"]]
grid: {{interval: [0.0, 1.0], count: 17}}
samples: 1500
seed: 42
threads: 1
output: "{out}"
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_verify_pass_exit_zero(tmp_path):
    cfg = write(tmp_path, "v.yaml", BASE_VERIFY.format(out=tmp_path / "out"))
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert (tmp_path / "out" / "deviations.csv").exists()


def test_verify_tolerance_failure_exit_two(tmp_path):
    text = BASE_VERIFY.format(out=tmp_path / "out") + \
        "tolerances: {mean_z: 1.0e-9, cov_z: 1.0e-9, cumulant_z: 1.0e-9}\n"
    cfg = write(tmp_path, "v.yaml", text)
    assert main(["verify", "--config", cfg]) == 2


def test_verify_expected_rejection_exit_zero(tmp_path):
    text = """\
kernel: {name: matern, nu: "1/2", lengthscale: 1.0, variance: 1.0}
mean: "0"
operator: {terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 17}
samples: 100
seed: 1
expected: rejection
output: "%s"
""" % (tmp_path / "out")
    cfg = write(tmp_path, "v.yaml", text)
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["mode"] == "rejection"
    assert report["rejection"]["occurred"] is True


MATERN_ORDER_2000 = """\
kernel: {name: matern, nu: "5/2", lengthscale: 0.5}
mean: "sin(x)"
operator: {terms: [[2000, "1"]]}
grid: {interval: [0.0, 1.0], count: 17}
samples: 200
seed: 1
output: "%s"
"""


@pytest.mark.parametrize("expected", ["verification", "rejection"])
def test_smoothness_guard_refuses_before_the_mean_is_differentiated(tmp_path, capsys,
                                                                     expected):
    # the 2000th derivative of sin(x) is a 2000-deep tree; the guard must
    # refuse the operator before it is built
    text = MATERN_ORDER_2000 % (tmp_path / "out") + f"expected: {expected}\n"
    cfg = write(tmp_path, "m.yaml", text)
    if expected == "rejection":
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["mode"] == "rejection" and report["passed"] is True
    else:
        assert main(["verify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: operator 'd^2000/dx^2000' of order 2000 exceeds")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_byte_identical_reports_across_threads(tmp_path):
    cfg = write(tmp_path, "v.yaml", BASE_VERIFY.format(out=tmp_path / "a"))
    assert main(["verify", "--config", cfg]) == 0
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--threads", "4"]) == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "deviations.csv").read_bytes() == \
        (tmp_path / "b" / "deviations.csv").read_bytes()


def test_zero_image_variance_writes_zero_standard_errors(tmp_path):
    # x d/dx vanishes at x = 0, so the image variance there is exactly 0 and
    # both standard errors in row 0 of deviations.csv must read 0.0
    text = BASE_VERIFY.format(out=tmp_path / "out").replace(
        "lengthscale: 1.0", "lengthscale: 0.5").replace(
        '[[1, "1"]]', '[[1, "x"]]').replace("samples: 1500", "samples: 2000").replace(
        "seed: 42", "seed: 1")
    assert main(["verify", "--config", write(tmp_path, "v.yaml", text)]) == 0
    rows = (tmp_path / "out" / "deviations.csv").read_text().splitlines()
    header, first = rows[0].split(","), dict(zip(rows[0].split(","), rows[1].split(",")))
    assert header[-5:] == ["mean_se", "var_empirical", "var_predicted", "var_deviation",
                           "var_se"]
    assert (first["x"], first["var_predicted"]) == ("0.0", "0.0")
    assert (first["mean_se"], first["var_se"]) == ("0.0", "0.0")


def test_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path, "v.yaml", BASE_VERIFY.format(out=tmp_path / "a"))
    main(["verify", "--config", cfg])
    main(["verify", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "43"])
    assert (tmp_path / "a" / "report.json").read_bytes() != \
        (tmp_path / "c" / "report.json").read_bytes()


def test_config_syntax_error_exit_one(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml", "kernel: {name: se\n  oops")
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_config_semantic_errors_exit_one(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml", """\
kernel: {name: spline, lengthscale: 1.0}
grid: {interval: [0.0, 1.0], count: 17}
""")
    assert main(["verify", "--config", cfg]) == 1
    assert "kernel.name" in capsys.readouterr().err

    cfg2 = write(tmp_path, "bad2.yaml", """\
kernel: {name: se, lengthscale: 1.0, variance: 1.0}
operator: {terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 3}
""")
    assert main(["verify", "--config", cfg2]) == 1
    assert "stencil" in capsys.readouterr().err


def test_stale_commutator_tolerance_exit_one(tmp_path, capsys):
    # a tolerance key that verify does not gate on is an error, not ignored
    text = BASE_VERIFY.format(out=tmp_path / "out") + "tolerances: {commutator_fd: 1.0e-4}\n"
    cfg = write(tmp_path, "stale.yaml", text)
    assert main(["verify", "--config", cfg]) == 1
    assert "commutator_fd" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_output_grid_below_the_stencil_footprint(tmp_path):
    # Only verify builds grid stencils; solve collocates at its own points and
    # reads the grid as output locations, so 5 points (footprint 6) are fine.
    text = """\
kernel: {name: se, lengthscale: 1.0, variance: 1.0}
operator: {terms: [[2, "1"], [0, "1"]]}
grid: {interval: [0.0, 1.0], count: 5}
output: "%s"
problem:
  rhs: "0"
  collocation_count: 40
  boundary:
    - {location: 0.0, value: 0.0}
    - {location: 0.0, value: 1.0, operator: {terms: [[1, "1"]]}}
  reference: "sin(x)"
  max_error: 1.0e-3
""" % (tmp_path / "sol")
    cfg = write(tmp_path, "solve5pt.yaml", text)
    assert main(["solve", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "sol" / "solution.json").read_text())
    assert len(doc["grid"]) == 5
    assert doc["passed"] is True


def test_missing_config_file_exit_one(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "nope.yaml")]) == 1


def test_sample_deterministic(tmp_path):
    text = """\
kernel: {name: se, lengthscale: 1.0, variance: 1.0}
mean: "sin(x)"
grid: {interval: [0.0, 1.0], count: 9}
samples: 40
seed: 7
output: "%s"
"""
    cfg = write(tmp_path, "s.yaml", text % (tmp_path / "s1"))
    assert main(["sample", "--config", cfg]) == 0
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "s2")]) == 0
    # the accepted --threads changes no byte
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "s3"),
                 "--threads", "3"]) == 0
    assert (tmp_path / "s1" / "ensemble.csv").read_bytes() == \
        (tmp_path / "s2" / "ensemble.csv").read_bytes() == \
        (tmp_path / "s3" / "ensemble.csv").read_bytes()
    meta = json.loads((tmp_path / "s1" / "ensemble.json").read_text())
    assert meta["n_paths"] == 40 and meta["seed"] == 7


def test_sample_writes_the_csv_row_by_row(tmp_path, monkeypatch):
    # 1000 paths of 257 points are 5 MB of text; formatting holds one row
    # at a time, in the round-trip form of csv_lines
    text = """\
kernel: {name: se, lengthscale: 0.5}
grid: {interval: [0.0, 1.0], count: 257}
samples: 1000
seed: 3
output: "%s"
""" % (tmp_path / "s")
    cfg = write(tmp_path, "s.yaml", text)
    run = gpops.cli.load_config(cfg)
    ensemble = gpops.cli.sample_paths(run.prior, run.grid, run.samples, run.seed)
    monkeypatch.setattr(gpops.cli, "sample_paths", lambda *args, **kwargs: ensemble)
    tracemalloc.start()
    try:
        assert main(["sample", "--config", cfg]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    csv = (tmp_path / "s" / "ensemble.csv").read_text()
    assert peak < 1_000_000 < len(csv)
    header = ["path"] + [f"x{i}" for i in range(257)]
    assert csv == csv_lines(header, ([i, *row.tolist()] for i, row in enumerate(ensemble.paths)))


@pytest.mark.parametrize("lengthscale, terms, count", [
    (1.0, '[[0, "1"]]', 5),
    (0.5, '[[0, "1 + x^2"], [1, "cos(x)"], [2, "exp(-0.5*x)"]]', 33),
], ids=["identity", "three-term"])
def test_kernel_table_identity_columns_match(tmp_path, lengthscale, terms, count):
    text = """\
kernel: {name: se, lengthscale: %r, variance: 1.0}
operator: {terms: %s}
grid: {interval: [0.0, 1.0], count: %d}
output: "%s"
""" % (lengthscale, terms, count, tmp_path / "kt")
    cfg = write(tmp_path, "kt.yaml", text)
    assert main(["kernel-table", "--config", cfg]) == 0
    lines = (tmp_path / "kt" / "kernel_table.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,x2,k,T1k,T2k,T1T2k"
    assert len(lines) == count * count + 1
    table = {}
    for line in lines[1:]:
        cells = line.split(",")
        table[cells[0], cells[1]] = [float(c) for c in cells[2:]]
    for (x1, x2), (k, t1k, t2k, t1t2k) in table.items():
        _, t1k_mirror, t2k_mirror, t1t2k_mirror = table[x2, x1]
        assert t1t2k == t1t2k_mirror  # T1T2k(x1, x2) == T1T2k(x2, x1) exactly
        assert t1k == t2k_mirror  # T1k(x1, x2) == T2k(x2, x1) exactly
        if terms == '[[0, "1"]]':
            assert k == t1t2k  # identity operator: T1T2k equals k exactly


def test_solve_writes_error_field(tmp_path):
    text = """\
kernel: {name: se, lengthscale: 0.5, variance: 1.0}
mean: "0"
operator: {label: "d/dx", terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 65}
seed: 1
output: "%s"
problem:
  rhs: "cos(x)"
  collocation_noise_sd: 1.0e-4
  collocation_count: 20
  boundary:
    - {location: 0.0, value: 0.0}
  reference: "sin(x)"
  max_error: 1.0e-2
""" % (tmp_path / "sol")
    cfg = write(tmp_path, "solve.yaml", text)
    assert main(["solve", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "sol" / "solution.json").read_text())
    assert doc["max_abs_error"] <= 1e-2
    assert doc["passed"] is True
    assert (tmp_path / "sol" / "solution.csv").exists()


def test_solve_bound_violation_exit_two(tmp_path):
    text = """\
kernel: {name: se, lengthscale: 0.5, variance: 1.0}
mean: "0"
operator: {label: "d/dx", terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 33}
output: "%s"
problem:
  rhs: "cos(x)"
  collocation_noise_sd: 1.0e-4
  collocation_count: 10
  boundary: [{location: 0.0, value: 0.0}]
  reference: "sin(x)"
  max_error: 1.0e-12
""" % (tmp_path / "sol2")
    cfg = write(tmp_path, "solve2.yaml", text)
    assert main(["solve", "--config", cfg]) == 2


@pytest.mark.parametrize("entry", [
    '{location: 0.0, value: "abc"}',
    '{location: "left", value: 0.0}',
    '{location: 0.0, value: 0.0, noise_sd: "small"}',
    '{location: 0.0, value: 0.0, operator: {terms: [[1, "y"]]}}',
])
def test_solve_non_numeric_boundary_exit_one(tmp_path, capsys, entry):
    text = """\
kernel: {name: se, lengthscale: 0.5, variance: 1.0}
operator: {terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 17}
output: "%s"
problem:
  rhs: "cos(x)"
  boundary: [%s]
""" % (tmp_path / "sol3", entry)
    cfg = write(tmp_path, "solve3.yaml", text)
    assert main(["solve", "--config", cfg]) == 1
    assert "problem.boundary[0]" in capsys.readouterr().err


def test_solve_max_error_without_reference_exit_one(tmp_path, capsys):
    # without a reference the bound has no error to bound
    text = """\
kernel: {name: se, lengthscale: 0.5, variance: 1.0}
operator: {terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 17}
output: "%s"
problem:
  rhs: "cos(x)"
  boundary: [{location: 0.0, value: 5.0}]
  max_error: 1.0e-12
""" % (tmp_path / "sol6")
    cfg = write(tmp_path, "solve6.yaml", text)
    assert main(["solve", "--config", cfg]) == 1
    assert "problem.max_error" in capsys.readouterr().err
    assert not (tmp_path / "sol6").exists()


def test_solve_negative_collocation_count_exit_one(tmp_path, capsys):
    text = """\
kernel: {name: se, lengthscale: 0.5, variance: 1.0}
operator: {terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 17}
output: "%s"
problem:
  rhs: "cos(x)"
  collocation_count: -3
  boundary: [{location: 0.0, value: 0.0}]
""" % (tmp_path / "sol4")
    cfg = write(tmp_path, "solve4.yaml", text)
    assert main(["solve", "--config", cfg]) == 1
    assert "problem.collocation_count" in capsys.readouterr().err
    assert not (tmp_path / "sol4").exists()


@pytest.mark.parametrize("noise_sd", [".inf", "1.0e+200"])
def test_solve_noise_without_a_finite_variance_exit_one(tmp_path, capsys, noise_sd):
    text = """\
kernel: {name: se, lengthscale: 0.5, variance: 1.0}
operator: {terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 17}
output: "%s"
problem:
  rhs: "cos(x)"
  collocation_noise_sd: %s
  boundary: [{location: 0.0, value: 0.0}]
""" % (tmp_path / "sol5", noise_sd)
    cfg = write(tmp_path, "solve5.yaml", text)
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: problem.collocation_noise_sd must be a number >= 0 "
                          "with a finite square")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, kernel", [
    ("solve", "{name: se, lengthscale: 0.5, variance: .inf}"),
    ("verify", "{name: se, lengthscale: .inf, variance: 1.0}"),
], ids=["solve-variance", "verify-lengthscale"])
def test_non_finite_kernel_hyperparameter_exit_one(tmp_path, capsys, command, kernel):
    text = """\
kernel: %s
operator: {terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 17}
samples: 200
output: "%s"
problem:
  rhs: "cos(x)"
  boundary: [{location: 0.0, value: 0.0}]
""" % (kernel, tmp_path / "inf")
    cfg = write(tmp_path, "inf.yaml", text)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: kernel: lengthscale and variance must be positive "
                          "and finite")
    assert "Traceback" not in err
    assert not (tmp_path / "inf").exists()


@pytest.mark.parametrize("mean, terms, message", [
    ('"(-1)^0.5"', '[[1, "1"]]', "mean: constant in '(-1)^0.5' is not a finite real"),
    ('"0^-1"', '[[1, "1"]]', "mean: constant in '0^-1' is not a finite real"),
    ('"10^400"', '[[1, "1"]]', "mean: constant in '10^400' is not a finite real"),
    ('"1e999"', '[[1, "1"]]', "mean: constant in '1e999' is not a finite real"),
    ('"0"', '[[1, "1e308*10"]]', "operator: constant in '1e308*10' is not a finite real"),
    ('"0"', '[[1, "(-1)^0.5"]]', "operator: constant in '(-1)^0.5' is not a finite real"),
    ('"0"', "[[1, .nan]]", "operator: coefficient nan is not a finite number"),
    ('"0"', "[[0, 1], [1, -.inf]]", "operator: coefficient -inf is not a finite number"),
], ids=["mean-complex", "mean-pole", "mean-overflow", "mean-inf-literal",
        "coefficient-folds-to-inf", "coefficient-complex", "coefficient-nan",
        "coefficient-inf"])
def test_constant_that_is_not_a_finite_real_exit_one(tmp_path, capsys, mean, terms, message):
    text = """\
kernel: {name: se, lengthscale: 1.0}
mean: %s
operator: {terms: %s}
grid: {interval: [0.0, 1.0], count: 17}
samples: 200
output: "%s"
""" % (mean, terms, tmp_path / "out")
    cfg = write(tmp_path, "const.yaml", text)
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


SINGULAR_BASE = """\
kernel: {name: se, lengthscale: 0.5}
mean: "%s"
operator: {terms: [[%d, "%s"]]}
grid: {interval: [0.0, 1.0], count: 17}
samples: 200
output: "%s"
problem:
  rhs: "cos(x)"
  collocation_count: 10
  boundary: [{location: 0.0, value: 0.0}, {location: 1.0, value: 1.0}]
"""


@pytest.mark.parametrize("command, mean, order, coefficient, message", [
    ("verify", "x^-1", 1, "1", "mean 'd/dx[x^-1]' is not finite at x = 0.0"),
    ("sample", "x^-1", 1, "1", "mean 'x^-1' is not finite at x = 0.0"),
    ("solve", "x^-1", 2, "1", "mean 'd^2/dx^2[x^-1]' is not finite at x = 0.0"),
    ("verify", "sin(x)", 1, "x^-0.5", "mean 'x^-0.5*d/dx[sin(x)]' is not finite at x = 0.0"),
    # under a zero mean the image mean folds to 0, and only the kernel
    # tables evaluate the coefficient
    ("verify", "0", 1, "x^-0.5", "coefficient (x ^ -0.5) is not finite at x = 0.0"),
    ("kernel-table", "0", 1, "x^-0.5", "coefficient (x ^ -0.5) is not finite at x = 0.0"),
    ("solve", "0", 2, "x^-0.5", "coefficient (x ^ -0.5) is not finite at x = 0.0"),
], ids=["verify-mean", "sample-mean", "solve-mean", "verify-coefficient",
        "verify-zero-mean-coefficient", "kernel-table-coefficient", "solve-coefficient"])
def test_mean_not_finite_on_the_grid_exit_one(tmp_path, capsys, command, mean, order,
                                              coefficient, message):
    # finite as written, singular at x = 0: one named error, no numpy warning
    text = SINGULAR_BASE % (mean, order, coefficient, tmp_path / "out")
    cfg = write(tmp_path, "singular.yaml", text)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == "error: " + message + "\n"
    assert not (tmp_path / "out").exists()


BIG = "1" + "0" * 400
CONFIG_ERROR_PROBLEM = """\
problem:
  rhs: "cos(x)"
  collocation_count: 10
  boundary: [{location: 0.0, value: 0.0}]
  reference: "sin(x)"
  max_error: 1.0e-2
"""
CONFIG_ERROR_BASE = """\
kernel: {name: matern, nu: "5/2", lengthscale: 0.5}
mean: "0"
operator: {terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 17}
samples: 2
seed: 1
threads: 1
expected: verification
tolerances: {mean_z: 5.0}
output: "%s"
""" + CONFIG_ERROR_PROBLEM


@pytest.mark.parametrize("old, new, key", [
    (None, "- 1\n", "top level"),
    ('kernel: {name: matern, nu: "5/2", lengthscale: 0.5}\n', "", "'kernel'"),
    ('nu: "5/2"', 'nu: "x/2"', "kernel.nu"),
    ('nu: "5/2"', 'nu: "1/0"', "kernel.nu"),
    ('nu: "5/2"', "nu: [1]", "kernel.nu"),
    ('operator: {terms: [[1, "1"]]}', 'operator: [[1, "1"]]', "operator"),
    ('[[1, "1"]]', "[[1]]", "operator.terms[0]"),
    ('[[1, "1"]]', "[]", "operator.terms"),
    ("[0.0, 1.0]", "[1, 0]", "grid"),
    ("{mean_z: 5.0}", "3", "'tolerances'"),
    (CONFIG_ERROR_PROBLEM, "problem: 3\n", "'problem'"),
    ('rhs: "cos(x)"', 'rhs: "x^"', "problem"),
    ('rhs: "cos(x)"', 'rhs: "1 + x^"', "problem.rhs: cannot parse '1 + x^'"),
    ('reference: "sin(x)"', 'reference: "x^"', "problem.reference: cannot parse 'x^'"),
    # a trailing operator points past the end; each '^' counts as one column
    ('reference: "sin(x)"', 'reference: "1 + x^"', "at line 1, column 7"),
    ('reference: "sin(x)"', 'reference: "2^x +* 1"', "at line 1, column 6"),
    ("[{location: 0.0, value: 0.0}]", "[3]", "problem.boundary[0]"),
    ("value: 0.0", "value: x", "problem.boundary[0].value"),
    ('  reference: "sin(x)"\n', "", "problem.max_error"),
    ("max_error: 1.0e-2", "max_error: x", "problem.max_error"),
    ("collocation_count: 10", "collocation_count: -1", "problem.collocation_count"),
    ("collocation_count: 10", "collocation_noise_sd: -1.0", "problem.collocation_noise_sd"),
    ("collocation_count: 10", "collocation_noise_sd: .nan", "problem.collocation_noise_sd"),
    # a pass threshold must be one that a finite statistic can meet
    ("{mean_z: 5.0}", "{mean_z: .inf}", "tolerances.mean_z"),
    ("{mean_z: 5.0}", "{cov_z: .nan}", "tolerances.cov_z"),
    ("{mean_z: 5.0}", "{cumulant_z: -3}", "tolerances.cumulant_z"),
    ("{mean_z: 5.0}", "{mean_z: 0}", "tolerances.mean_z"),
    ("max_error: 1.0e-2", "max_error: .nan", "problem.max_error"),
    ("max_error: 1.0e-2", "max_error: .inf", "problem.max_error"),
    ("max_error: 1.0e-2", "max_error: -1.0", "problem.max_error"),
    ("samples: 2", "samples: 1", "samples"),
    ("expected: verification", "expected: maybe", "expected"),
    ("threads: 1", "threads: 0", "threads"),
    # YAML integers too large for a float
    *[pytest.param(old, new % BIG, key, id=f"too-large-{key}{suffix}")
      for old, new, key, suffix in [
          ("lengthscale: 0.5", "lengthscale: %s", "kernel.lengthscale", ""),
          ("lengthscale: 0.5", "lengthscale: 0.5, variance: %s", "kernel.variance", ""),
          ('nu: "5/2"', "nu: %s", "kernel.nu", ""),
          ('nu: "5/2"', 'nu: "%s/2"', "kernel.nu", "-fraction"),
          ("[0.0, 1.0]", "[0.0, %s]", "grid.interval", ""),
          ("count: 17", "count: %s", "grid.count", ""),
          ("location: 0.0", "location: %s", "problem.boundary[0].location", ""),
          ("value: 0.0", "value: %s", "problem.boundary[0].value", ""),
          ("value: 0.0", "value: 0.0, noise_sd: %s", "problem.boundary[0].noise_sd", "")]],
    # counts that fit a float but not an array length (sys.maxsize)
    *[pytest.param(old, new, key, id=f"over-maxsize-{key}")
      for old, new, key in [
          ("count: 17", "count: 10000000000000000000", "grid.count"),
          ("samples: 2", "samples: 10000000000000000000", "samples"),
          ("collocation_count: 10", "collocation_count: 10000000000000000000",
           "problem.collocation_count")]],
    # PyYAML converts no integer of more than 4300 digits: the error names the file
    pytest.param("lengthscale: 0.5", "lengthscale: 1" + "0" * 5000, "bad.yaml",
                 id="5001-digit-lengthscale"),
    # the seed keys Philox, whose key is an integer in [0, 2^64)
    pytest.param("seed: 1", "seed: -1", "seed", id="negative-seed"),
    pytest.param("seed: 1", "seed: 18446744073709551616", "seed", id="seed-2^64"),
])
def test_config_error_names_the_key_exit_one(tmp_path, capsys, old, new, key):
    text = CONFIG_ERROR_BASE % (tmp_path / "out")
    if old is None:
        text = new
    else:
        assert text.count(old) == 1
        text = text.replace(old, new)
    cfg = write(tmp_path, "bad.yaml", text)
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_seed_override_is_checked_as_the_seed_key(tmp_path, capsys):
    cfg = write(tmp_path, "v.yaml", BASE_VERIFY.format(out=tmp_path / "out"))
    assert main(["verify", "--config", cfg, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == ("config error: seed must be an integer from 0 to "
                                       "18446744073709551615, got -1\n")
    assert not (tmp_path / "out").exists()


def test_largest_seed_runs_and_is_echoed(tmp_path):
    text = BASE_VERIFY.format(out=tmp_path / "out").replace("seed: 42",
                                                           "seed: 18446744073709551615")
    cfg = write(tmp_path, "s.yaml", text)
    assert main(["sample", "--config", cfg]) == 0
    meta = json.loads((tmp_path / "out" / "ensemble.json").read_text())
    assert meta["seed"] == 2**64 - 1


@pytest.mark.parametrize("command, old, new, message", [
    ("solve", "count: 17", "count: 1000000000000000000", "error: Unable to allocate"),
    ("verify", "samples: 2", "samples: 1000000000000000000",
     "error: 1000000000000000000 paths of 17 points are more doubles than an array can hold"),
    ("sample", "samples: 2", "samples: 1000000000000000000",
     "error: 1000000000000000000 paths of 17 points are more doubles than an array can hold"),
], ids=["grid.count-10^18", "verify-samples-10^18", "sample-samples-10^18"])
def test_exabyte_size_exit_one(tmp_path, capsys, command, old, new, message):
    # sizes far beyond any memory: numpy refuses them at once and allocates nothing
    text = (CONFIG_ERROR_BASE % (tmp_path / "out")).replace(old, new)
    cfg = write(tmp_path, "huge.yaml", text)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ('reference: "sin(x)"', 'reference: "x^-1"', "problem.reference 'x^-1'"),
    # collocation_count 10 on [0, 1] puts a collocation point at the pole
    ('rhs: "cos(x)"', 'rhs: "x^-1"', "problem.rhs 'x^-1'"),
])
def test_solve_function_not_finite_names_its_key_exit_one(tmp_path, capsys, old, new, message):
    # the prior mean is 0, so no "mean" is to blame
    text = (CONFIG_ERROR_BASE % (tmp_path / "out")).replace(old, new)
    cfg = write(tmp_path, "pole.yaml", text)
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {message} is not finite at x = 0.0\n"
    assert not (tmp_path / "out").exists()


def test_solve_checks_the_reference_before_solving(tmp_path, capsys, monkeypatch):
    # a pole in the reference must not cost the whole collocation solve first
    calls = []

    def solve(*args, **kwargs):
        calls.append(args)
        return solve_linear_ode(*args, **kwargs)

    monkeypatch.setattr(gpops.cli, "solve_linear_ode", solve)
    text = (CONFIG_ERROR_BASE % (tmp_path / "out")).replace('reference: "sin(x)"',
                                                            'reference: "x^-1"')
    cfg = write(tmp_path, "pole.yaml", text)
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: problem.reference 'x^-1' is not finite at x = 0.0\n"
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_negative_image_variance_exit_one(tmp_path, capsys, monkeypatch):
    # an image Gram with one variance negative far beyond roundoff
    def gram(kernel, grid):
        k = gpops.linalg.gram(kernel, grid)
        k[6, 6] = -k[6, 6]
        return k

    monkeypatch.setattr(gpops.verify, "gram", gram)
    cfg = write(tmp_path, "v.yaml", BASE_VERIFY.format(out=tmp_path / "out"))
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: image variance -") and "at grid point 6 (x = 0.375)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("terms, exit_code", [(480, 0), (600, 1)])
def test_mean_nested_too_deeply_exit_one(tmp_path, terms, exit_code):
    # 600 terms nest past MAX_NESTING: one config error line, no traceback
    # and no output; 480 terms still run.  The bound does not depend on the
    # caller's stack depth (test_deepest_expression_runs_from_a_deep_caller),
    # so the process of its own only runs the command as the console does.
    mean = " + ".join(["x"] * terms)
    text = BASE_VERIFY.format(out=tmp_path / "out").replace('mean: "0"', f'mean: "{mean}"')
    cfg = write(tmp_path, "deep.yaml", text)
    run = subprocess.run([sys.executable, "-m", "gpops.cli", "verify", "--config", cfg],
                         capture_output=True, text=True)
    assert run.returncode == exit_code
    if exit_code == 1:
        assert run.stderr == (f"config error: mean: expression of {len(mean)} "
                              "characters nests too deeply to parse\n")
        assert not (tmp_path / "out").exists()
    else:
        assert (tmp_path / "out" / "report.json").exists()


# the cause every kernel table's overflow message names last
WIDE_GRID = ", or the grid is too wide for the kernel's lengthscale"


ORDER_BASE = """\
kernel: {name: se, lengthscale: %s}
mean: "sin(x)"
operator: {terms: [[%d, "1"]]}
grid: {interval: [0.0, 1.0], count: 17}
samples: 200
seed: 1
output: "%s"
problem:
  rhs: "0"
  boundary:
    - {location: 0.0, value: 0.0}
    - {location: 1.0, value: 0.0, operator: {terms: [[%d, "1"]]}}
"""


@pytest.mark.parametrize("command, lengthscale, order, boundary_order, key", [
    ("kernel-table", 0.01, 80, 0, "operator.terms[0]"),
    ("kernel-table", 0.5, 2000, 0, "operator.terms[0]"),
    ("verify", 0.5, 2000, 0, "operator.terms[0]"),
    ("solve", 0.5, 2, 1000, "problem.boundary[1]: operator.terms[0]"),
], ids=["se-0.01-order-80", "kernel-table-order-2000", "verify-order-2000",
        "boundary-order-1000"])
def test_operator_order_above_the_bound_exit_one(tmp_path, capsys, command, lengthscale,
                                                 order, boundary_order, key):
    # these ended in OverflowError or RecursionError tracebacks
    text = ORDER_BASE % (lengthscale, order, tmp_path / "out", boundary_order)
    cfg = write(tmp_path, "order.yaml", text)
    assert main([command, "--config", cfg]) == 1
    bound = gpops.config.MAX_ORDER
    assert capsys.readouterr().err == (
        f"config error: {key}: order {max(order, boundary_order)} is above {bound}, "
        "the highest order a config may give\n")
    assert not (tmp_path / "out").exists()


def test_operator_at_the_order_bound_runs(tmp_path):
    # RuntimeWarning is an error here: at lengthscale 0.01 the closed form of
    # T1 T2 k stays finite up to order 38, above the bound
    text = ORDER_BASE % (0.01, gpops.config.MAX_ORDER, tmp_path / "out", 0)
    assert main(["kernel-table", "--config", write(tmp_path, "order.yaml", text)]) == 0


@pytest.mark.parametrize("command, message", [
    ("kernel-table", "kernel table T1k has an entry that is not finite: the kernel or an "
                     "operator coefficient is too large"),
    ("verify", "derivative order must be in 1..4, got 16"),
    ("solve", "observation Gram of the 17 observations has an entry that is not finite: the "
              "kernel or an operator coefficient is too large"),
])
def test_tiny_se_lengthscale_exit_one_without_numpy_warnings(tmp_path, capsys, command,
                                                             message):
    # at lengthscale 1e-10 the SE partials of order 16, within the bound,
    # overflow; RuntimeWarning is an error here, so a numpy warning would end
    # the command in a traceback instead of its one error line.  kernel-table
    # names the first table that is not finite, before the output directory
    # is made; solve names its observation Gram when it cannot factor it
    # (and the grid's width as a cause)
    text = ORDER_BASE % ("1.0e-10", 16, tmp_path / "out", 0)
    assert main([command, "--config", write(tmp_path, "tiny.yaml", text)]) == 1
    cause = WIDE_GRID if "not finite" in message else ""
    assert capsys.readouterr().err == f"error: {message}{cause}\n"
    assert not (tmp_path / "out").exists()


OVERFLOW_BASE = """\
kernel: {%s}
mean: "%s"
operator: {terms: %s}
grid: {interval: %s, count: 33}
samples: 2000
seed: 1
output: "%s"
problem:
  rhs: "0"
  collocation_count: 20
  boundary:
    - {location: 0.0, value: 0.0}
"""

SE = "name: se, lengthscale: 0.5"
UNIT = "[0.0, 1.0]"
# a coefficient near 1e155 overflows where the kernel sums its profile orders
SUM_ORDERS = '[[2, "1"], [1, "x"], [0, "1.0e+155*exp(x)"]]'
NOT_FINITE = ("has an entry that is not finite: the kernel or an operator coefficient is too "
              "large" + WIDE_GRID)


@pytest.mark.parametrize("command, kernel, mean, terms, interval, rhs, message", [
    ("verify", 'name: matern, nu: "5/2", lengthscale: 1.0e-320', "sin(x)", '[[1, "1"]]', UNIT, "0",
     "config error: kernel: lengthscale 1e-320 is too small for nu = 2.5: "
     "the profile's coefficients are not finite"),
    ("solve", SE, "-1.0e+308", '[[2, "1"], [0, "1"]]', UNIT, "0",
     "error: the whitened misfit v = L^-1 (y - m) of the 21 observations or its square "
     "v @ v is not finite"),
    ("verify", SE, "sin(x)", '[[1, "1"], [0, -1.0e+308]]', UNIT, "0",
     f"error: image Gram T1 T2 k {NOT_FINITE}"),
    ("verify", SE, "1.0e+308", '[[1, "1"]]', UNIT, "0",
     "error: discrete law A m has an entry that is not finite: the mean or an "
     "operator coefficient is too large"),
    # a law near 1e306 is finite, but the covariance gate squares it
    ("verify", SE, "sin(x)", '[[1, "1"], [0, 1.0e+153]]', UNIT, "0",
     f"error: squared discrete law c_ii c_jj + c_ij^2 of the covariance gate {NOT_FINITE}"),
    # the image Gram, near 1e308, is finite; so is the law, but not its square
    ("verify", SE, "sin(x)", '[[1, "1"], [0, 1.0e+154]]', UNIT, "0",
     f"error: squared discrete law c_ii c_jj + c_ij^2 of the covariance gate {NOT_FINITE}"),
    # a law near 1e80 passes both gates' squares, but the order-4 moment
    # products of the paths and their jackknife overflow
    ("verify", SE, "sin(x)", '[[1, "1"], [0, 1.0e+40]]', UNIT, "0",
     "error: empirical cumulant of order 4 at x = (0.0625, 0.25, 0.40625, 0.59375) or its "
     "standard error is not finite: the paths are too large for its moment products"),
    ("solve", SE, "sin(x)", SUM_ORDERS, UNIT, "0",
     f"error: observation Gram of the 21 observations {NOT_FINITE}"),
    ("verify", SE, "sin(x)", SUM_ORDERS, UNIT, "0", f"error: image Gram T1 T2 k {NOT_FINITE}"),
    ("kernel-table", SE, "sin(x)", SUM_ORDERS, UNIT, "0",
     f"error: kernel table T1T2k {NOT_FINITE}"),
    # a grid whose width overflows is refused before linspace
    ("sample", SE, "sin(x)", '[[1, "1"]]', "[-1.0e+308, 1.0e+308]", "0",
     "config error: grid: the width b - a of [-1e+308, 1e+308] is not finite"),
    # a width just within the range: the differences in the profile overflow
    ("verify", SE, "sin(x)", '[[1, "1"]]', "[0.0, 1.0e+308]", "0",
     f"error: image Gram T1 T2 k {NOT_FINITE}"),
    ("kernel-table", SE, "sin(x)", '[[1, "1"]]', "[0.0, 1.0e+308]", "0",
     f"error: kernel table T1k {NOT_FINITE}"),
    ("solve", SE, "sin(x)", '[[1, "1"]]', "[0.0, 1.0e+308]", "0",
     f"error: observation Gram of the 21 observations {NOT_FINITE}"),
    # found by tests/test_cli_fuzz.py: the value 1e308 less the image mean
    # cos(x) - 1e308 sin(x) overflowed before the Gram was named
    ("solve", SE, "sin(x)", '[[1, "1"], [0, -1.0e+308]]', UNIT, "1.0e+308",
     "error: misfit y - m of the 21 observations has an entry that is not finite: the "
     "observed value, the mean or an operator coefficient is too large"),
], ids=["matern-tiny-lengthscale", "solve-huge-mean", "verify-huge-coefficient",
        "verify-huge-mean", "verify-squared-law", "verify-symmetrized-gram",
        "verify-cumulant-products", "solve-sum-orders", "verify-sum-orders",
        "kernel-table-sum-orders", "sample-infinite-width", "verify-wide-grid",
        "kernel-table-wide-grid", "solve-wide-grid",
        "solve-misfit"])
def test_overflow_is_named_where_it_is_made_exit_one(tmp_path, capsys, command, kernel, mean,
                                                      terms, interval, rhs, message):
    # each ended after numpy overflow warnings, in the serializer or in a gate
    # that blamed the draw; RuntimeWarning is an error here
    text = (OVERFLOW_BASE % (kernel, mean, terms, interval, tmp_path / "out")).replace(
        'rhs: "0"', f"rhs: {rhs}")
    assert main([command, "--config", write(tmp_path, "overflow.yaml", text)]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "out").exists()


def test_kernel_table_near_the_overflow_is_finite_and_exactly_symmetric(tmp_path):
    # every entry of T1 T2 k is finite, near 1e308, so the table is written;
    # gram copies its lower triangle into the upper one
    text = OVERFLOW_BASE % (SE, "sin(x)", '[[1, "1"], [0, 1.0e+154]]', UNIT, tmp_path / "out")
    assert main(["kernel-table", "--config", write(tmp_path, "overflow.yaml", text)]) == 0
    table = np.loadtxt(tmp_path / "out" / "kernel_table.csv", delimiter=",", skiprows=1)
    assert table.shape == (33 * 33, 6) and np.isfinite(table).all()
    t1t2k = table[:, 5].reshape(33, 33)
    assert np.max(np.abs(t1t2k)) > 1e307
    assert np.array_equal(t1t2k, t1t2k.T)


def test_sample_on_a_grid_too_wide_to_refine_exit_zero(tmp_path):
    # the prior Gram on [0, 1e308] is finite, where verify's image Gram is
    # not, so sample draws on it as before
    text = OVERFLOW_BASE % (SE, "sin(x)", '[[1, "1"]]', "[0.0, 1.0e+308]", tmp_path / "out")
    assert main(["sample", "--config", write(tmp_path, "wide.yaml", text)]) == 0
    assert (tmp_path / "out" / "ensemble.csv").exists()


def _from_deep_caller(frames, fn):
    # fn() called under ``frames`` further Python frames
    return fn() if frames == 0 else _from_deep_caller(frames - 1, fn)


DEEP_PROBLEM = """\
problem:
  rhs: "cos(x)"
  collocation_count: 10
  boundary:
    - {location: 0.0, value: 0.0}
    - {location: 1.0, value: 0.0, operator: {terms: [[1, "%s"]]}}
"""


@pytest.mark.parametrize("command, old, new", [
    ("verify", 'mean: "0"', 'mean: "{sum}"'),
    ("verify", 'terms: [[1, "1"]]', 'terms: [[1, "{sum}"]]'),
    ("kernel-table", 'terms: [[1, "1"]]', 'terms: [[1, "{sum}"]]'),
    ("solve", 'terms: [[1, "1"]]', 'terms: [[1, "{sum}"]]'),
], ids=["verify-mean", "verify-coefficient", "kernel-table-coefficient",
        "solve-equal-operators"])
def test_deepest_expression_runs_from_a_deep_caller(tmp_path, command, old, new):
    # a 480-term sum is as deep as parse_expression accepts; evaluating,
    # differentiating, hashing, comparing and printing it take a few frames,
    # so the command runs 200 frames further down than the console's (solve
    # compares its equal operator and boundary operator to group them)
    expr = " + ".join(["x"] * 480)
    text = (BASE_VERIFY.format(out=tmp_path / "out").replace(old, new.format(sum=expr))
            + DEEP_PROBLEM % expr)
    cfg = write(tmp_path, "deep.yaml", text)
    assert _from_deep_caller(200, lambda: main([command, "--config", cfg])) == 0


@pytest.mark.parametrize("replace, message", [
    ({'terms: [[1, "1"]]': 'terms: [[5, "1"]]'}, "derivative order must be in 1..4, got 5"),
    ({'terms: [[1, "1"]]': 'terms: [[2, "1"]]', "count: 17": "count: 5"},
     "grid of 5 points is smaller than the stencil footprint 6 for derivative order 2"),
    ({'terms: [[1, "1"]]': 'terms: [[3, "1"]]', "count: 17": "count: 12"},
     "the grid of 12 points coarsens to 6, fewer than the stencil footprint 7 for derivative "
     "order 3; the discretization gate needs at least 13 grid points"),
    ({'terms: [[1, "1"]]': 'terms: [[4, "1"]]', "count: 17": "count: 13"},
     "the grid of 13 points coarsens to 7, fewer than the stencil footprint 8 for derivative "
     "order 4; the discretization gate needs at least 15 grid points"),
    ({"samples: 1500": "samples: 99"}, "need at least 100 paths, got 99"),
], ids=["order-5", "5-points-under-d2", "12-points-under-d3", "13-points-under-d4",
        "99-samples"])
def test_verify_refuses_the_stencil_before_drawing(tmp_path, capsys, monkeypatch, replace,
                                                   message):
    # the operator matrix, the coarsening's size and the path count are
    # checked before the draw, so an operator without a stencil on the grid
    # or on its coarsening, or too few paths for the cumulants, costs no
    # samples
    calls = []
    monkeypatch.setattr(gpops.verify, "draw_factored", lambda *args, **kwargs: calls.append(args))
    text = BASE_VERIFY.format(out=tmp_path / "out")
    for old, new in replace.items():
        text = text.replace(old, new)
    cfg = write(tmp_path, "nostencil.yaml", text)
    assert main(["verify", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("terms, count, order, interior", [
    ('[[0, "1"]]', 1, 0, 1), ('[[0, "1"]]', 2, 0, 2), ('[[1, "1"]]', 5, 1, 1),
], ids=["identity-1-point", "identity-2-points", "d1-5-points"])
def test_verify_names_a_grid_too_small_for_the_cumulants_before_any_table(
        tmp_path, capsys, monkeypatch, terms, count, order, interior):
    # each once tabulated the refinement's image Gram and then failed in the
    # cumulant tuples: "only 1 tuples are constructible from indices [2, 2]"
    calls = []
    monkeypatch.setattr(gpops.verify, "gram", lambda *args: calls.append(args))
    monkeypatch.setattr(gpops.sampling, "gram", lambda *args: calls.append(args))
    text = BASE_VERIFY.format(out=tmp_path / "out").replace(
        'terms: [[1, "1"]]', f"terms: {terms}").replace("count: 17", f"count: {count}")
    assert main(["verify", "--config", write(tmp_path, "tiny.yaml", text)]) == 1
    assert capsys.readouterr().err == (
        f"error: the grid of {count} points leaves an interior of {interior} under an operator "
        f"of order {order}; the cumulant gate needs at least 3 interior points\n")
    assert calls == []
    assert not (tmp_path / "out").exists()


BOOLEAN_BASE = """\
kernel: {name: se, lengthscale: 0.5, variance: 1.0}
operator: {terms: [[1, "1"]]}
grid: {interval: [0.0, 1.0], count: 17}
samples: 2
seed: 1
threads: 1
tolerances: {mean_z: 5.0}
output: "%s"
problem:
  rhs: "cos(x)"
  collocation_count: 10
  boundary: [{location: 0.0, value: 0.0, noise_sd: 0.0}]
  reference: "sin(x)"
  max_error: 1.0e-2
"""


@pytest.mark.parametrize("number, boolean, key", [
    ("collocation_count: 10", "collocation_count: true", "collocation_count"),
    ("count: 17", "count: true", "count"),
    ("samples: 2", "samples: true", "samples"),
    ("seed: 1", "seed: true", "seed"),
    ("threads: 1", "threads: true", "threads"),
    ("lengthscale: 0.5", "lengthscale: true", "lengthscale"),
    ("variance: 1.0", "variance: true", "variance"),
    ('[[1, "1"]]', '[[true, "1"]]', "operator.terms[0]"),
    ('[[1, "1"]]', "[[1, true]]", "operator.terms[0]"),
    ("[0.0, 1.0]", "[0.0, true]", "grid.interval"),
    ("mean_z: 5.0", "mean_z: true", "tolerances.mean_z"),
    ("location: 0.0", "location: true", "problem.boundary[0].location"),
    ("value: 0.0", "value: false", "problem.boundary[0].value"),
    ("noise_sd: 0.0", "noise_sd: true", "problem.boundary[0].noise_sd"),
    ("max_error: 1.0e-2", "max_error: true", "problem.max_error"),
])
def test_yaml_boolean_for_a_number_exit_one(tmp_path, capsys, number, boolean, key):
    # bool subclasses int, so each of these once passed as 1 (or 0)
    text = BOOLEAN_BASE % (tmp_path / "out")
    assert text.count(number) == 1
    cfg = write(tmp_path, "bool.yaml", text.replace(number, boolean))
    assert main(["solve", "--config", cfg]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fourth_order_solve_is_closed_form(tmp_path, monkeypatch):
    # u'''' + u = 17 sin 2x, solved by u = sin 2x.  The Gram of the d^4
    # observations needs SE partials of total order 8; evaluated by finite
    # differences it was indefinite, so the solve exited 1.
    text = """\
kernel: {name: se, lengthscale: 0.5, variance: 1.0}
mean: "0"
operator: {terms: [[4, "1"], [0, "1"]]}
grid: {interval: [0.0, 1.0], count: 65}
output: "%s"
problem:
  rhs: "17*sin(2*x)"
  collocation_count: 60
  boundary:
    - {location: 0.0, value: 0.0}
    - {location: 1.0, value: 0.9092974268256817}
    - {location: 0.0, value: 2.0, operator: {terms: [[1, "1"]]}}
    - {location: 1.0, value: -0.8322936730942848, operator: {terms: [[1, "1"]]}}
  reference: "sin(2*x)"
  max_error: 1.0e-5
""" % (tmp_path / "sol")
    posteriors = []

    def solve(*args, **kwargs):
        posteriors.append(solve_linear_ode(*args, **kwargs))
        return posteriors[-1]

    monkeypatch.setattr(gpops.cli, "solve_linear_ode", solve)
    cfg = write(tmp_path, "u4.yaml", text)
    assert main(["solve", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "sol" / "solution.json").read_text())
    assert doc["max_abs_error"] <= 1e-5
    assert posteriors[0].jitter == 0.0


def test_console_entry_point_help():
    out = subprocess.run([sys.executable, "-m", "gpops.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    for sub in ("verify", "solve", "sample", "kernel-table"):
        assert sub in out.stdout


# ------------------------------------------------ no scipy at run time

SCIPY_MODULES = 'sorted(m for m in sys.modules if m.split(".")[0].startswith("scipy"))'


def _python(code, *args):
    # a fresh interpreter, so sys.modules shows what importing gpops loads
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)


def test_importing_the_cli_loads_no_scipy_module():
    run = _python(f"import sys, gpops.cli; print({SCIPY_MODULES})")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_importing_the_cli_resolves_no_blas_library():
    # the seam looks numpy's OpenBLAS up on first use, never at import
    run = _python("import gpops.cli, gpops.linalg; print(gpops.linalg._openblas)")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "None\n"


def test_solve_and_kernel_table_run_without_scipy(tmp_path):
    # gpops sample runs here too: its normals come from numpy's Generator
    solve = write(tmp_path, "solve.yaml", """\
kernel: {name: se, lengthscale: 0.5, variance: 1.0}
operator: {terms: [[2, "1"], [0, "1"]]}
grid: {interval: [0.0, 1.0], count: 33}
output: "%s"
problem:
  rhs: "0"
  collocation_count: 30
  boundary:
    - {location: 0.0, value: 0.0}
    - {location: 1.0, value: 0.8414709848078965}  # sin(1)
  reference: "sin(x)"
  max_error: 1.0e-3
""" % (tmp_path / "sol"))
    table = write(tmp_path, "kt.yaml", BASE_VERIFY.format(out=tmp_path / "kt"))
    sample = write(tmp_path, "s.yaml", BASE_VERIFY.format(out=tmp_path / "s"))
    # None in sys.modules makes any scipy import raise ImportError
    code = ("import sys; sys.modules['scipy'] = None; from gpops.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    for command, cfg in (("solve", solve), ("kernel-table", table), ("sample", sample)):
        run = _python(code, command, "--config", cfg)
        assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "sol" / "solution.json").read_text())["passed"] is True
    assert (tmp_path / "kt" / "kernel_table.csv").exists()
    assert len((tmp_path / "s" / "ensemble.csv").read_text().splitlines()) == 1501


def test_verify_runs_without_scipy(tmp_path):
    # verify draws its moments from their law through numpy's Generator, the
    # one generator of every draw
    cfg = write(tmp_path, "v.yaml", BASE_VERIFY.format(out=tmp_path / "out"))
    code = ("import sys; sys.modules['scipy'] = None; from gpops.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    run = _python(code, "verify", "--config", cfg)
    assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"] is True


# ------------------------------------------------ the BLAS thread count

MATERN_257 = """\
kernel: {{name: matern, nu: "5/2", lengthscale: 0.5}}
mean: "sin(x)"
operator: {{terms: [[2, "1"]]}}
grid: {{interval: [0.0, 1.0], count: 257}}
samples: {samples}
seed: 7
"""


def test_verify_and_sample_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 257 points a multi-threaded BLAS moved the Cholesky factor's last
    # bits, and T = A L carried them into the report
    if gpops.linalg.blas_threads() is None:
        pytest.skip("no bundled OpenBLAS found: numpy's BLAS thread count is uncontrolled")
    runs = (("verify", write(tmp_path, "v.yaml", MATERN_257.format(samples=2000))),
            ("sample", write(tmp_path, "s.yaml", MATERN_257.format(samples=200))))
    digests = {}
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        for command, cfg in runs:
            out = tmp_path / f"{command}-{blas}"
            run = subprocess.run([sys.executable, "-m", "gpops.cli", command, "--config", cfg,
                                  "--out", str(out)], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            digests[command, blas] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                                      for f in sorted(out.iterdir())}
    assert sorted(digests["verify", "1"]) == ["deviations.csv", "report.json"]
    assert sorted(digests["sample", "1"]) == ["ensemble.csv", "ensemble.json"]
    for command, _ in runs:
        assert digests[command, "1"] == digests[command, "2"], command


SOLVE_1000 = """\
kernel: {name: se, lengthscale: 0.5}
operator: {terms: [[2, "1"], [0, "1"]]}
grid: {interval: [0.0, 1.0], count: 33}
problem:
  rhs: "0"
  collocation_count: 1000
  collocation_noise_sd: 1.0e-4
  boundary:
    - {location: 0.0, value: 0.0}
    - {location: 1.0, value: 0.8414709848078965}
"""


def test_solve_output_is_byte_identical_across_runs_at_a_fixed_blas_thread_count(tmp_path):
    # solve's Cholesky runs at the ambient BLAS thread count, so its last
    # digits may differ across counts; at one count its bytes repeat
    if gpops.linalg.blas_threads() is None:
        pytest.skip("no bundled OpenBLAS found: numpy's BLAS thread count is uncontrolled")
    cfg = write(tmp_path, "solve.yaml", SOLVE_1000)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    outputs = []
    for run_index in range(2):
        out = tmp_path / f"solve-{run_index}"
        run = subprocess.run([sys.executable, "-m", "gpops.cli", "solve", "--config", cfg,
                              "--out", str(out)], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["solution.csv", "solution.json"]
    assert outputs[0] == outputs[1]
