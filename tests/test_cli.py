"""CLI subcommands: exit codes, determinism, config diagnostics."""

import json
import subprocess
import sys

import pytest

from gpops.cli import main

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
    assert (tmp_path / "s1" / "ensemble.csv").read_bytes() == \
        (tmp_path / "s2" / "ensemble.csv").read_bytes()
    meta = json.loads((tmp_path / "s1" / "ensemble.json").read_text())
    assert meta["n_paths"] == 40 and meta["seed"] == 7


def test_kernel_table_identity_columns_match(tmp_path):
    text = """\
kernel: {name: se, lengthscale: 1.0, variance: 1.0}
operator: {terms: [[0, "1"]]}
grid: {interval: [0.0, 1.0], count: 5}
output: "%s"
""" % (tmp_path / "kt")
    cfg = write(tmp_path, "kt.yaml", text)
    assert main(["kernel-table", "--config", cfg]) == 0
    lines = (tmp_path / "kt" / "kernel_table.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,x2,k,T1k,T2k,T1T2k"
    assert len(lines) == 26
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == cells[5]  # identity operator: T1T2k equals k exactly


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


def test_console_entry_point_help():
    out = subprocess.run([sys.executable, "-m", "gpops.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    for sub in ("verify", "solve", "sample", "kernel-table"):
        assert sub in out.stdout
