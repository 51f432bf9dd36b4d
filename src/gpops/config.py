"""Run configuration: a YAML key-value tree shared by all CLI subcommands.

See the README for the documented schema and annotated examples.  Flags only
override config keys (seed, output directory, threads); everything else is
file-driven so campaigns are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import yaml

from .errors import ConfigError, ExpressionError, ParameterError
from .grids import Grid
from .kernels import Kernel, matern_kernel, se_kernel
from .means import MeanFunction, mean_from_expression
from .operators import LinearOperator, identity
from .processes import GaussianProcessPrior
from .verify import VerificationTolerances

__all__ = ["RunConfig", "load_config", "parse_operator_spec"]

KERNEL_NAMES = ("se", "matern")


@dataclass
class RunConfig:
    """Everything a subcommand needs, already validated and constructed."""

    kernel: Kernel
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


def _get(tree, key, kind=None, default=_REQUIRED):
    if key not in tree:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"missing required config key {key!r}")
    value = tree[key]
    if kind is not None and not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"config key {key!r} must be {names}, got {type(value).__name__}")
    return value


def _parse_nu(raw):
    if isinstance(raw, str):
        try:
            return float(Fraction(raw))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"kernel.nu: cannot parse {raw!r} as a fraction") from None
    if isinstance(raw, (int, float)):
        return float(raw)
    raise ConfigError(f"kernel.nu must be a number or fraction string, got {raw!r}")


def _parse_kernel(tree) -> Kernel:
    if not isinstance(tree, dict):
        raise ConfigError("config key 'kernel' must be a mapping")
    name = _get(tree, "name", str)
    lengthscale = _get(tree, "lengthscale", (int, float))
    variance = _get(tree, "variance", (int, float), default=1.0)
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
        if not isinstance(order, int) or order < 0:
            raise ConfigError(f"operator.terms[{i}]: order must be a non-negative integer")
        if not isinstance(coeff, (str, int, float)):
            raise ConfigError(f"operator.terms[{i}]: coefficient must be an expression or number")
        terms.append((order, coeff))
    if not terms:
        raise ConfigError("operator.terms must not be empty")
    try:
        return LinearOperator(terms, label=label)
    except (ExpressionError, ParameterError) as exc:
        raise ConfigError(f"operator: {exc}") from exc


def _parse_grid(tree) -> Grid:
    if not isinstance(tree, dict):
        raise ConfigError("config key 'grid' must be a mapping")
    interval = _get(tree, "interval", list)
    if len(interval) != 2 or not all(isinstance(v, (int, float)) for v in interval):
        raise ConfigError("grid.interval must be [a, b] with numbers a < b")
    count = _get(tree, "count", int)
    try:
        return Grid.uniform_on(float(interval[0]), float(interval[1]), count)
    except ParameterError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _parse_tolerances(tree) -> VerificationTolerances:
    if tree is None:
        return VerificationTolerances()
    if not isinstance(tree, dict):
        raise ConfigError("config key 'tolerances' must be a mapping")
    defaults = VerificationTolerances()
    kwargs = {}
    for name in ("mean_z", "cov_z", "cumulant_z", "commutator_closed", "commutator_fd"):
        value = tree.get(name, getattr(defaults, name))
        if not isinstance(value, (int, float)):
            raise ConfigError(f"tolerances.{name} must be a number")
        kwargs[name] = float(value)
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
    try:
        out["rhs_fn"] = mean_from_expression(out["rhs"])
        if out["reference"] is not None:
            out["reference_fn"] = mean_from_expression(out["reference"])
    except ExpressionError as exc:
        raise ConfigError(f"problem: {exc}") from exc
    for i, b in enumerate(out["boundary"]):
        if not isinstance(b, dict) or "location" not in b or "value" not in b:
            raise ConfigError(
                f"problem.boundary[{i}] needs 'location' and 'value' (and optional "
                f"'operator', 'noise_sd')"
            )
        for key in ("location", "value", "noise_sd"):
            if key in b and not isinstance(b[key], (int, float)):
                raise ConfigError(f"problem.boundary[{i}].{key} must be a number, "
                                  f"got {b[key]!r}")
    if out["max_error"] is not None and not isinstance(out["max_error"], (int, float)):
        raise ConfigError("problem.max_error must be a number")
    return out


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
    if operator.order > 0 and len(grid) < operator.order + 4:
        raise ConfigError(
            f"grid.count={len(grid)} is below the stencil footprint "
            f"{operator.order + 4} of the operator (order {operator.order})"
        )
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
