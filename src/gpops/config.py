"""Run configuration: a YAML key-value tree shared by all CLI subcommands.

See the README for the documented schema and annotated examples.  Flags only
override config keys (seed, output directory, threads); everything else is
file-driven so campaigns are reproducible.  ``threads`` is still accepted and
checked to be >= 1, so old configs load, but nothing reads it: every draw
depends on the seed alone.
"""

from __future__ import annotations

import math
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
# The highest operator order a config may give, where the kernel's smoothness
# admits the order at all (beyond it the smoothness guard refuses the operator
# before anything is evaluated).  Inside pytest, where a RuntimeWarning is an
# error, an SE closed form (mean sin(x), 17 points on [0, 1]) first overflowed
# at order 39 for lengthscale 0.01, 79 for 0.1, 121 for 0.5 and 151 for 1.
MAX_ORDER = 32


@dataclass
class RunConfig:
    """Everything a subcommand needs, already validated and constructed."""

    kernel: KernelBifunction
    mean: MeanFunction
    operator: LinearOperator
    grid: Grid
    samples: int
    seed: int
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


def _get(tree, name, kind=None, default=_REQUIRED):
    # the value at the last part of the dotted ``name``, which messages quote whole
    key = name.rpartition(".")[2]
    if key not in tree:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"missing required config key {name!r}")
    value = tree[key]
    if kind is not None and not _is(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"config key {name!r} must be {names}, got {type(value).__name__}")
    return value


def _number(tree, name, kind=(int, float), default=_REQUIRED, ok=None, need=""):
    """The number at ``name``: the one place that decides what a config number may be.

    It is never a bool.  An integer key (``kind=int``) stays an integer and is
    compared as one; any other number becomes a float, which it must fit.
    ``ok`` is the range, reported as ``<name> must be <need>, got <value>``.
    """
    value = _get(tree, name, kind, default)
    if kind is not int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{name} is too large for a float") from None
    if ok is not None and not ok(value):
        raise ConfigError(f"{name} must be {need}, got {value!r}")
    return value


def _integers(lo, hi):
    # an inclusive integer range; a count that sizes an array ends at sys.maxsize
    return {"ok": lambda v: lo <= v <= hi, "need": f"an integer from {lo} to {hi}"}


# a pass threshold that a finite statistic can meet
_THRESHOLD = {"ok": lambda v: 0 < v <= sys.float_info.max, "need": "a finite number > 0"}


def _parse_nu(tree):
    raw = _get(tree, "kernel.nu")
    if isinstance(raw, str):
        try:
            tree = {"nu": Fraction(raw)}
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"kernel.nu: cannot parse {raw!r} as a fraction") from None
    return _number(tree, "kernel.nu", (int, float, Fraction))


def _parse_kernel(tree) -> KernelBifunction:
    name = _get(tree, "kernel.name", str)
    lengthscale = _number(tree, "kernel.lengthscale")
    variance = _number(tree, "kernel.variance", default=1.0)
    try:
        if name == "se":
            return se_kernel(lengthscale, variance)
        if name == "matern":
            nu = _parse_nu(tree)
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


def parse_operator_spec(tree, smoothness=math.inf) -> LinearOperator:
    """Build an operator from ``{label?, terms: [[order, coeff-expr], ...]}``.

    Coefficient expressions follow the grammar documented in
    :mod:`gpops.expressions`.  An order above ``MAX_ORDER`` is refused unless
    it is also above ``smoothness``, the kernel's sample smoothness, which
    leaves it to the smoothness guard.
    """
    if tree is None:
        return identity()
    if not isinstance(tree, dict):
        raise ConfigError("operator spec must be a mapping with a 'terms' list")
    label = tree.get("label")
    terms_raw = _get(tree, "operator.terms", list)
    terms = []
    for i, item in enumerate(terms_raw):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ConfigError(
                f"operator.terms[{i}] must be a [order, coefficient] pair, got {item!r}"
            )
        order, coeff = item
        if not _is(order, int) or order < 0:
            raise ConfigError(f"operator.terms[{i}]: order must be a non-negative integer")
        if MAX_ORDER < order <= smoothness:
            raise ConfigError(f"operator.terms[{i}]: order {order} is above {MAX_ORDER}, "
                              f"the highest order a config may give")
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
    interval = _get(tree, "grid.interval", list)
    if len(interval) != 2:
        raise ConfigError("grid.interval must be [a, b] with numbers a < b")
    a, b = (_number({"interval": end}, "grid.interval") for end in interval)
    count = _number(tree, "grid.count", int, **_integers(1, sys.maxsize))
    try:
        return Grid.uniform_on(a, b, count)
    except ParameterError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _parse_tolerances(tree) -> VerificationTolerances:
    if tree is None:
        return VerificationTolerances()
    if not isinstance(tree, dict):
        raise ConfigError("config key 'tolerances' must be a mapping")
    kwargs = {f.name: _number(tree, f"tolerances.{f.name}", default=f.default, **_THRESHOLD)
              for f in fields(VerificationTolerances)}
    unknown = set(tree) - set(kwargs)
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
    return VerificationTolerances(**kwargs)


def _parse_problem(tree, grid: Grid, smoothness):
    if tree is None:
        return None
    if not isinstance(tree, dict):
        raise ConfigError("config key 'problem' must be a mapping")
    count = _number(tree, "problem.collocation_count", int, 0, **_integers(0, sys.maxsize))
    out = {
        "rhs": _get(tree, "problem.rhs"),
        "collocation_noise_sd": _number(
            tree, "problem.collocation_noise_sd", default=0.0,
            ok=lambda sd: 0 <= sd and sd * sd <= sys.float_info.max,
            need="a number >= 0 with a finite square"),
        # the collocation points span the grid; None leaves the grid interior
        "collocation": Grid.uniform_on(grid.points[0], grid.points[-1], count) if count else None,
        "boundary": _get(tree, "problem.boundary", list, default=[]),
        "reference": tree.get("reference"),
        "max_error": (None if tree.get("max_error") is None
                      else _number(tree, "problem.max_error", **_THRESHOLD)),
    }
    for key in ("rhs", "reference") if out["reference"] is not None else ("rhs",):
        try:
            expr = parse_expression(out[key])
        except ExpressionError as exc:
            raise ConfigError(f"problem.{key}: {exc}") from exc
        out[f"{key}_fn"] = partial(evaluate_finite, expr, kind=f"problem.{key}", label=out[key])
    out["boundary"] = [_parse_boundary(i, b, smoothness) for i, b in enumerate(out["boundary"])]
    if out["max_error"] is not None and out["reference"] is None:
        raise ConfigError("problem.max_error needs problem.reference to bound the error of")
    return out


def _parse_boundary(i, b, smoothness) -> Observation:
    if not isinstance(b, dict) or "location" not in b or "value" not in b:
        raise ConfigError(
            f"problem.boundary[{i}] needs 'location' and 'value' (and optional "
            f"'operator', 'noise_sd')"
        )
    num = {key: _number(b, f"problem.boundary[{i}].{key}", default=0.0)
           for key in ("location", "value", "noise_sd")}
    try:
        return Observation(operator=parse_operator_spec(b.get("operator"), smoothness), **num)
    except (ConfigError, ParameterError) as exc:
        raise ConfigError(f"problem.boundary[{i}]: {exc}") from exc


def load_config(path, *, seed=None, output=None, threads=None) -> RunConfig:
    """Load and validate a config file; keyword arguments override file keys.

    YAML syntax errors are reported with their line/column; semantic errors
    name the offending key.  An override is checked as the key it replaces.
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
    except ValueError as exc:  # e.g. an integer of more than 4300 digits
        raise ConfigError(f"cannot load config {path!r}: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError("config file must contain a mapping at the top level")
    overrides = {"seed": seed, "output": output, "threads": threads}
    tree.update((key, value) for key, value in overrides.items() if value is not None)

    kernel = _parse_kernel(_get(tree, "kernel", dict))
    mean = _parse_mean(tree.get("mean"))
    operator = parse_operator_spec(tree.get("operator"), kernel.sample_smoothness)
    grid = _parse_grid(_get(tree, "grid", dict))
    samples = _number(tree, "samples", int, 2, **_integers(2, sys.maxsize))
    seed = _number(tree, "seed", int, 0, **_integers(0, 2**64 - 1))
    _number(tree, "threads", int, 1, lambda v: v >= 1, ">= 1")  # checked, then ignored
    expected = _get(tree, "expected", str, default="verification")
    if expected not in ("verification", "rejection"):
        raise ConfigError("expected must be 'verification' or 'rejection'")
    return RunConfig(
        kernel=kernel, mean=mean, operator=operator, grid=grid, samples=samples,
        seed=seed, output=_get(tree, "output", str, default="out"),
        expected=expected, tolerances=_parse_tolerances(tree.get("tolerances")),
        problem=_parse_problem(tree.get("problem"), grid, kernel.sample_smoothness),
        echo={"config_file": str(path)},
    )
