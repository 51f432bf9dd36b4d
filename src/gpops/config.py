"""Run configuration: a YAML key-value tree shared by all CLI subcommands.

See the README for the documented schema and annotated examples.  Flags only
override config keys (seed, output directory, threads); everything else is
file-driven so campaigns are reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial

import yaml

from .conditioning import Observation
from .errors import ConfigError, ExpressionError, ParameterError
from .expressions import evaluate_finite, parse_expression
from .grids import Grid
from .kernels import KernelBifunction, matern_kernel, se_kernel
from .means import MeanFunction, mean_from_expression
from .operators import LinearOperator, identity
from .processes import GaussianProcessPrior
from .verify import VerificationTolerances

__all__ = ["RunConfig", "load_config", "parse_operator_spec"]

KERNEL_NAMES = ("se", "matern")


@dataclass
class RunConfig:
    """Everything a subcommand needs, already validated and constructed."""

    kernel: KernelBifunction
    mean: MeanFunction
    operator: LinearOperator
    grid: Grid
    samples: int
    seed: int
    threads: int
    output: str
    expected: str  # "verification" or "rejection"
    tolerances: VerificationTolerances
    problem: dict | None
    echo: dict = field(default_factory=dict)

    @property
    def prior(self) -> GaussianProcessPrior:
        return GaussianProcessPrior(mean=self.mean, kernel=self.kernel)


_REQUIRED = object()


def _is(value, kind) -> bool:
    # isinstance, except that a YAML boolean is never a number (bool subclasses int)
    return isinstance(value, kind) and not isinstance(value, bool)


def _get(tree, key, kind=None, default=_REQUIRED):
    if key not in tree:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"missing required config key {key!r}")
    value = tree[key]
    if kind is not None and not _is(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"config key {key!r} must be {names}, got {type(value).__name__}")
    return value


def _threshold(key, value):
    # a pass threshold that a finite statistic can meet: a finite number > 0
    if not (_is(value, (int, float)) and 0 < value <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number > 0, got {value!r}")
    return float(value)


def _float(key, value) -> float:
    # a YAML integer, or the value of a fraction string, can be too large for a float
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} is too large for a float") from None


def _parse_nu(raw):
    if isinstance(raw, str):
        try:
            raw = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"kernel.nu: cannot parse {raw!r} as a fraction") from None
    elif not _is(raw, (int, float)):
        raise ConfigError(f"kernel.nu must be a number or fraction string, got {raw!r}")
    return _float("kernel.nu", raw)


def _parse_kernel(tree) -> KernelBifunction:
    name = _get(tree, "name", str)
    lengthscale = _float("kernel.lengthscale", _get(tree, "lengthscale", (int, float)))
    variance = _float("kernel.variance", _get(tree, "variance", (int, float), default=1.0))
    try:
        if name == "se":
            return se_kernel(lengthscale, variance)
        if name == "matern":
            nu = _parse_nu(_get(tree, "nu"))
            return matern_kernel(nu, lengthscale, variance)
    except ParameterError as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    raise ConfigError(f"kernel.name must be one of {KERNEL_NAMES}, got {name!r}")


def _parse_mean(raw) -> MeanFunction:
    if raw is None:
        raw = 0.0
    try:
        return mean_from_expression(raw)
    except ExpressionError as exc:
        raise ConfigError(f"mean: {exc}") from exc


def parse_operator_spec(tree) -> LinearOperator:
    """Build an operator from ``{label?, terms: [[order, coeff-expr], ...]}``.

    Coefficient expressions follow the grammar documented in
    :mod:`gpops.expressions`.
    """
    if tree is None:
        return identity()
    if not isinstance(tree, dict):
        raise ConfigError("operator spec must be a mapping with a 'terms' list")
    label = tree.get("label")
    terms_raw = _get(tree, "terms", list)
    terms = []
    for i, item in enumerate(terms_raw):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ConfigError(
                f"operator.terms[{i}] must be a [order, coefficient] pair, got {item!r}"
            )
        order, coeff = item
        if not _is(order, int) or order < 0:
            raise ConfigError(f"operator.terms[{i}]: order must be a non-negative integer")
        if not _is(coeff, (str, int, float)):
            raise ConfigError(f"operator.terms[{i}]: coefficient must be an expression or number")
        terms.append((order, coeff))
    if not terms:
        raise ConfigError("operator.terms must not be empty")
    try:
        return LinearOperator(terms, label=label)
    except (ExpressionError, ParameterError) as exc:
        raise ConfigError(f"operator: {exc}") from exc


def _parse_grid(tree) -> Grid:
    interval = _get(tree, "interval", list)
    if len(interval) != 2 or not all(_is(v, (int, float)) for v in interval):
        raise ConfigError("grid.interval must be [a, b] with numbers a < b")
    count = _get(tree, "count", int)
    _float("grid.count", count)  # a count too large for a float is too large for numpy
    try:
        return Grid.uniform_on(_float("grid.interval", interval[0]),
                               _float("grid.interval", interval[1]), count)
    except ParameterError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _parse_tolerances(tree) -> VerificationTolerances:
    if tree is None:
        return VerificationTolerances()
    if not isinstance(tree, dict):
        raise ConfigError("config key 'tolerances' must be a mapping")
    kwargs = {}
    for f in fields(VerificationTolerances):
        kwargs[f.name] = _threshold(f"tolerances.{f.name}", tree.get(f.name, f.default))
    unknown = set(tree) - set(kwargs)
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
    return VerificationTolerances(**kwargs)


def _parse_problem(tree):
    if tree is None:
        return None
    if not isinstance(tree, dict):
        raise ConfigError("config key 'problem' must be a mapping")
    out = {
        "rhs": _get(tree, "rhs"),
        "collocation_noise_sd": _get(tree, "collocation_noise_sd", (int, float), default=0.0),
        "collocation_count": _get(tree, "collocation_count", int, default=0),
        "boundary": _get(tree, "boundary", list, default=[]),
        "reference": tree.get("reference"),
        "max_error": tree.get("max_error"),
    }
    if out["collocation_count"] < 0:
        raise ConfigError("problem.collocation_count must be >= 0 (0 uses the grid interior)")
    sd = out["collocation_noise_sd"]
    if not (0 <= sd and sd * sd <= sys.float_info.max):
        raise ConfigError(f"problem.collocation_noise_sd must be a number >= 0 "
                          f"with a finite square, got {sd!r}")
    for key in ("rhs", "reference") if out["reference"] is not None else ("rhs",):
        try:
            expr = parse_expression(out[key])
        except ExpressionError as exc:
            raise ConfigError(f"problem.{key}: {exc}") from exc
        out[f"{key}_fn"] = partial(evaluate_finite, expr, kind=f"problem.{key}", label=out[key])
    out["boundary"] = [_parse_boundary(i, b) for i, b in enumerate(out["boundary"])]
    if out["max_error"] is not None:
        _threshold("problem.max_error", out["max_error"])
        if out["reference"] is None:
            raise ConfigError("problem.max_error needs problem.reference to bound the error of")
    return out


def _parse_boundary(i, b) -> Observation:
    if not isinstance(b, dict) or "location" not in b or "value" not in b:
        raise ConfigError(
            f"problem.boundary[{i}] needs 'location' and 'value' (and optional "
            f"'operator', 'noise_sd')"
        )
    num = {}
    for key in ("location", "value", "noise_sd"):
        value = b.get(key, 0.0)
        if not _is(value, (int, float)):
            raise ConfigError(f"problem.boundary[{i}].{key} must be a number, got {value!r}")
        num[key] = _float(f"problem.boundary[{i}].{key}", value)
    try:
        return Observation(operator=parse_operator_spec(b.get("operator")), **num)
    except (ConfigError, ParameterError) as exc:
        raise ConfigError(f"problem.boundary[{i}]: {exc}") from exc


def load_config(path, *, seed=None, output=None, threads=None) -> RunConfig:
    """Load and validate a config file; keyword arguments override file keys.

    YAML syntax errors are reported with their line/column; semantic errors
    name the offending key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"invalid YAML in {path!r}{where}: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError("config file must contain a mapping at the top level")

    kernel = _parse_kernel(_get(tree, "kernel", dict))
    mean = _parse_mean(tree.get("mean"))
    operator = parse_operator_spec(tree.get("operator"))
    grid = _parse_grid(_get(tree, "grid", dict))
    samples = _get(tree, "samples", int, default=2)
    if samples < 2:
        raise ConfigError("samples must be at least 2")
    cfg_seed = _get(tree, "seed", int, default=0)
    cfg_threads = _get(tree, "threads", int, default=1)
    expected = _get(tree, "expected", str, default="verification")
    if expected not in ("verification", "rejection"):
        raise ConfigError("expected must be 'verification' or 'rejection'")
    tolerances = _parse_tolerances(tree.get("tolerances"))
    problem = _parse_problem(tree.get("problem"))
    out_dir = output if output is not None else _get(tree, "output", str, default="out")
    threads_eff = threads if threads is not None else cfg_threads
    if threads_eff < 1:
        raise ConfigError("threads must be >= 1")
    return RunConfig(
        kernel=kernel, mean=mean, operator=operator, grid=grid, samples=samples,
        seed=seed if seed is not None else cfg_seed, threads=threads_eff,
        output=out_dir, expected=expected, tolerances=tolerances, problem=problem,
        echo={"config_file": str(path)},
    )
