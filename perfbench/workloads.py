"""Seeded workloads of the gpops benchmark and the checks on their outputs.

Each workload is one closed-loop client: the next call starts when the
previous call has returned.  The workload seed fixes every input (per-call
verify seeds, the solve reference frequency, the conditioning locations);
gpops receives only the generated configs and observations.

A workload has a fixed set of ``inputs`` per run, numbered ``0 .. inputs-1``.
The closed loop cycles through them, so which inputs a run checks does not
depend on how many calls fit into its time.  A repeated verify input must
reproduce its first report byte for byte.

A call's outcome is classified by ``check``:

* ``OK``           -- the output is well formed and passes its check;
* ``VERDICT_FAIL`` -- ``gpops verify`` reported a failed gate, and its exit
  code and report agree on that.  The call counts as failed, but the output
  itself is consistent;
* ``WRONG``        -- the call raised, or its output disagrees with itself or
  with the benchmark's reference (wrong exit code, stale or corrupt report,
  thread-count dependence, a repeated input giving another output, error
  above tolerance, posterior mismatch).

Importing this module imports gpops, so the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import json
import os

import numpy as np

import gpops
import gpops.cli
from gpops import (GaussianProcessPrior, Grid, LinearOperator, Observation,
                   derivative_operator, identity, se_kernel, zero_mean)

OK, VERDICT_FAIL, WRONG = "ok", "verdict_fail", "wrong"
_SEVERITY = {OK: 0, VERDICT_FAIL: 1, WRONG: 2}

# Distinct verify seeds per run.  The closed loop makes at least this many
# calls, so about 16 s of verify-large on a 2-vCPU host.
VERIFY_INPUTS = 12

EXIT_PASS, EXIT_TOLERANCE = 0, 2

# The solve check: baseline error is about 2e-8, so 1e-5 only trips on a real defect.
SOLVE_TOLERANCE = 1e-5
# The conditioning checks: baseline error against the reference is about 3e-7;
# per-observation and shared-operator posteriors agree to the last bit today.
CONDITION_TOLERANCE = 1e-4
POSTERIOR_MATCH_RTOL = 1e-9


def worst(a, b):
    """The more severe of two outcomes."""
    return a if _SEVERITY[a] >= _SEVERITY[b] else b


def _rng(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def _call_seed(seed: int, i: int) -> int:
    """Verify seed of input ``i``: a pure function of (workload seed, input index)."""
    return int(np.random.SeedSequence([seed, 7, i]).generate_state(1)[0])


def _matches(value, ref) -> bool:
    ref = np.asarray(ref, dtype=float)
    return bool(np.max(np.abs(np.asarray(value, dtype=float) - ref))
                <= POSTERIOR_MATCH_RTOL * (1.0 + np.max(np.abs(ref))))


def _remove(path):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


class VerifyWorkload:
    """``gpops verify`` through ``gpops.cli.main``; work is Monte-Carlo paths."""

    def __init__(self, why, kernel, terms, n_points, n_paths, threads, seed, workdir):
        self.why = why
        self.seed = seed
        self.n_points, self.n_paths, self.threads = n_points, n_paths, threads
        self.work_per_call = n_paths
        self.inputs = VERIFY_INPUTS
        self.config_path = os.path.join(workdir, "config.yaml")
        self.out = os.path.join(workdir, "out")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(_VERIFY.format(kernel=kernel, terms=terms, n=n_points, paths=n_paths,
                                    seed=_call_seed(seed, 0), threads=threads,
                                    out=json.dumps(self.out)))
        self._first = None  # (seed, report bytes, csv bytes) of the first checked call
        self._outputs = {}  # input -> (report bytes, csv bytes) of its first call

    def prepare(self, i):
        _remove(os.path.join(self.out, "report.json"))
        _remove(os.path.join(self.out, "deviations.csv"))
        return ["verify", "--config", self.config_path, "--seed", str(_call_seed(self.seed, i))]

    def call(self, argv):
        return gpops.cli.main(argv)

    def read_outputs(self, out_dir):
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            report = fh.read()
        with open(os.path.join(out_dir, "deviations.csv"), "rb") as fh:
            csv = fh.read()
        return report, csv

    def check(self, i, exit_code):
        """The report's verdict is the check; the exit code must agree with it.

        A repeated input must reproduce its first report and CSV byte for byte.
        """
        try:
            report, csv = self.read_outputs(self.out)
        except OSError:
            return WRONG
        status = self.check_outputs(_call_seed(self.seed, i), exit_code, report, csv)
        if status == WRONG:
            return WRONG
        if self._outputs.setdefault(i, (report, csv)) != (report, csv):
            return WRONG
        if self._first is None:
            self._first = (_call_seed(self.seed, i), report, csv)
        return status

    def check_outputs(self, call_seed, exit_code, report_bytes, csv_bytes):
        try:
            doc = json.loads(report_bytes)
        except ValueError:
            return WRONG
        if not isinstance(doc, dict) or doc.get("kind") != "verification":
            return WRONG
        passed = doc.get("passed")
        config = doc.get("config") or {}
        if not isinstance(passed, bool) or config.get("seed") != call_seed \
                or config.get("n_paths") != self.n_paths \
                or config.get("grid_points") != self.n_points:
            return WRONG
        if csv_bytes.count(b"\n") != self.n_points + 1:
            return WRONG
        if exit_code != (EXIT_PASS if passed else EXIT_TOLERANCE):
            return WRONG
        return OK if passed else VERDICT_FAIL

    def once_per_run(self):
        """A threaded workload's report must equal its threads-1 report byte for byte."""
        if self.threads == 1 or self._first is None:
            return None
        call_seed, report, csv = self._first
        out1 = self.out + "_threads1"
        gpops.cli.main(["verify", "--config", self.config_path, "--seed", str(call_seed),
                        "--threads", "1", "--out", out1])
        try:
            serial = self.read_outputs(out1)
        except OSError:
            return WRONG
        return OK if serial == (report, csv) else WRONG


class SolveWorkload:
    """``gpops solve`` through ``gpops.cli.main``; work is observations conditioned on."""

    def __init__(self, why, n_grid, n_colloc, seed, workdir):
        self.why = why
        a = float(1.0 + 2.0 * _rng(seed, 11).random())
        self.reference_freq = a
        self.work_per_call = n_colloc + 2
        self.inputs = 1
        self.n_grid = n_grid
        self.config_path = os.path.join(workdir, "config.yaml")
        self.out = os.path.join(workdir, "out")
        # u'' + x u' + u = rhs with u = sin(a x) on [0, 1].
        text = (
            "kernel: {name: se, lengthscale: 0.5}\n"
            "operator:\n"
            "  terms: [[2, 1], [1, \"x\"], [0, 1]]\n"
            f"grid: {{interval: [0.0, 1.0], count: {n_grid}}}\n"
            f"output: {json.dumps(self.out)}\n"
            "problem:\n"
            f"  rhs: \"{1.0 - a * a!r}*sin({a!r}*x) + {a!r}*x*cos({a!r}*x)\"\n"
            f"  collocation_count: {n_colloc}\n"
            "  collocation_noise_sd: 1.0e-4\n"
            "  boundary:\n"
            "    - {location: 0.0, value: 0.0}\n"
            f"    - {{location: 1.0, value: {float(np.sin(a))!r}}}\n"
            f"  reference: \"sin({a!r}*x)\"\n"
            f"  max_error: {SOLVE_TOLERANCE:.1e}\n"
        )
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def prepare(self, i):
        _remove(os.path.join(self.out, "solution.json"))
        _remove(os.path.join(self.out, "solution.csv"))
        return ["solve", "--config", self.config_path]

    def call(self, argv):
        return gpops.cli.main(argv)

    def check(self, i, exit_code):
        try:
            with open(os.path.join(self.out, "solution.json"), "rb") as fh:
                doc = json.loads(fh.read())
            grid = np.asarray(doc["grid"], dtype=float)
            mean = np.asarray(doc["mean"], dtype=float)
        except (OSError, ValueError, KeyError, TypeError):
            return WRONG
        if exit_code != EXIT_PASS or grid.shape != (self.n_grid,) or mean.shape != grid.shape:
            return WRONG
        err = float(np.max(np.abs(mean - np.sin(self.reference_freq * grid))))
        return OK if err <= SOLVE_TOLERANCE else WRONG

    def once_per_run(self):
        return None


def _obs_operator(kind):
    if kind == 0:
        return identity()
    if kind == 1:
        return derivative_operator(1)
    return LinearOperator([(0, "x"), (1, 1.0)])


class ConditionWorkload:
    """``gpops.condition`` from Python; work is observations conditioned on."""

    FREQ = 3.0

    def __init__(self, why, n_obs, n_grid, seed):
        self.why = why
        self.prior = GaussianProcessPrior(mean=zero_mean(), kernel=se_kernel(0.5, 1.0))
        self.grid = Grid.uniform_on(0.0, 1.0, n_grid)
        self.work_per_call = n_obs
        self.inputs = 1
        self.reference_freq = self.FREQ
        locs = _rng(seed, 13).uniform(0.0, 1.0, n_obs)
        kinds = [i % 3 for i in range(n_obs)]  # value, slope, x*u + u'
        a = self.FREQ
        values = [np.sin(a * x) if k == 0 else a * np.cos(a * x) if k == 1
                  else x * np.sin(a * x) + a * np.cos(a * x) for k, x in zip(kinds, locs)]
        # Every observation owns its operator, as when parsed row by row from a file.
        self.observations = [Observation(_obs_operator(k), float(x), float(v))
                             for k, x, v in zip(kinds, locs, values)]
        shared = [_obs_operator(k) for k in range(3)]
        shared_obs = [Observation(shared[k], float(x), float(v))
                      for k, x, v in zip(kinds, locs, values)]
        self.shared_posterior = gpops.condition(self.prior, shared_obs, self.grid)

    def prepare(self, i):
        return None

    def call(self, _):
        # Looked up at call time, so a traced run sees its wrapper.
        return gpops.condition(self.prior, self.observations, self.grid)

    def check(self, i, posterior):
        ref = self.shared_posterior
        try:
            mean = np.asarray(posterior.mean, dtype=float)
            cov = np.asarray(posterior.cov, dtype=float)
        except AttributeError:
            return WRONG
        if mean.shape != ref.mean.shape or cov.shape != ref.cov.shape:
            return WRONG
        if not (_matches(mean, ref.mean) and _matches(cov, ref.cov)
                and _matches(posterior.log_marginal, ref.log_marginal)):
            return WRONG
        err = float(np.max(np.abs(mean - np.sin(self.reference_freq * self.grid.points))))
        return OK if err <= CONDITION_TOLERANCE else WRONG

    def once_per_run(self):
        return None


_VERIFY = """kernel: {kernel}
mean: "sin(x)"
operator:
  terms: {terms}
grid: {{interval: [0.0, 1.0], count: {n}}}
samples: {paths}
seed: {seed}
threads: {threads}
output: {out}
"""

WHY = {
    "verify-small": "SE, 3-term operator, 33 points, 100k paths, 1 thread: jackknife "
                    "cumulants dominate; serial baseline for threading",
    "verify-large": "Matern 5/2 under d2/dx2, 257 points, 50k paths, 2 threads: sampling, "
                    "dense stencils and covariance dominate; only thread-pool user",
    "solve-colloc": "solve u''+x u'+u=rhs, 2002 observations, one operator group: "
                    "kernel partials and the 2002x2002 jitter-ladder Cholesky dominate",
    "condition-perobs": "condition on 120 observations that each own an operator object: "
                        "operator algebra and per-group assembly dominate",
}

NAMES = tuple(WHY)

# Full sizes put each workload's dominant layer in front; smoke sizes keep each
# self-test to seconds.
_SIZES = {
    False: {"verify-small": (33, 100_000), "verify-large": (257, 50_000),
            "solve-colloc": (201, 2000), "condition-perobs": (120, 101)},
    True: {"verify-small": (17, 2_000), "verify-large": (17, 2_000),
           "solve-colloc": (21, 40), "condition-perobs": (12, 21)},
}


def make(name, seed, workdir, smoke=False):
    """Build workload ``name`` from ``seed``; CLI workloads write their config into ``workdir``."""
    a, b = _SIZES[bool(smoke)][name]
    os.makedirs(workdir, exist_ok=True)
    why = WHY[name]
    if name == "verify-small":
        return VerifyWorkload(why, "{name: se, lengthscale: 0.5}",
                              '[[0, "1 + x^2"], [1, "cos(x)"], [2, "exp(-0.5*x)"]]',
                              a, b, 1, seed, workdir)
    if name == "verify-large":
        return VerifyWorkload(why, '{name: matern, nu: "5/2", lengthscale: 0.5}',
                              '[[2, "1"]]', a, b, 2, seed, workdir)
    if name == "solve-colloc":
        return SolveWorkload(why, a, b, seed, workdir)
    if name == "condition-perobs":
        return ConditionWorkload(why, a, b, seed)
    raise KeyError(name)
