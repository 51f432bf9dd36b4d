"""Batch front-end: verification campaigns, ODE solves, and table dumps.

Subcommands
-----------
verify        run the Monte-Carlo verification and write report.json +
              deviations.csv; exit 0 on pass, 2 on tolerance failure.
solve         solve an operator equation by GP collocation and write
              solution.json + solution.csv; exit 2 when the configured
              error bound is exceeded.
sample        dump a seeded prior ensemble to ensemble.csv (+ meta).
kernel-table  tabulate k, T1 k, T2 k, T1 T2 k on the grid square.

All outputs are byte-deterministic given (config, seed); config parse errors
exit 1 with diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .conditioning import solve_linear_ode
from .errors import ConfigError, GpopsError
from .linalg import check_finite
from .reportio import csv_lines, dumps_json
from .sampling import sample_paths
from .transform import joint_blocks
from .verify import verify_theorem

__all__ = ["main"]

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_TOLERANCE = 2


def _write(cfg: RunConfig, files: dict) -> Path:
    """Create the output directory and write each ``name: text`` file into it.

    Callers serialize every file first, so a result that cannot be
    serialized exits 1 without leaving an output directory behind.
    """
    path = Path(cfg.output)
    path.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (path / name).write_bytes(text.encode("utf-8"))
    return path


def cmd_verify(cfg: RunConfig) -> int:
    """Run the Monte-Carlo verification campaign and write its report."""
    report = verify_theorem(
        cfg.prior, cfg.operator, cfg.grid, cfg.samples, cfg.seed, cfg.tolerances,
        expect_rejection=(cfg.expected == "rejection"), config_echo=dict(cfg.echo),
    )
    out = _write(cfg, {"report.json": report.to_json(), "deviations.csv": report.to_csv()})
    print(f"verify: mode={report.mode} passed={report.passed} -> {out/'report.json'}")
    return EXIT_PASS if report.passed else EXIT_TOLERANCE


def cmd_solve(cfg: RunConfig) -> int:
    """Solve the configured operator equation by GP collocation."""
    if cfg.problem is None:
        raise ConfigError("solve needs a 'problem' section in the config")
    # a reference that is not finite on the grid fails before the solve, not after
    ref_fn = cfg.problem.get("reference_fn")
    ref = ref_fn(cfg.grid.points) if ref_fn is not None else None
    posterior = solve_linear_ode(
        cfg.operator, cfg.problem["rhs_fn"], cfg.problem["boundary"], cfg.grid, cfg.prior,
        collocation=cfg.problem["collocation"],
        collocation_noise_sd=cfg.problem["collocation_noise_sd"],
    )
    doc = posterior.to_dict()
    exit_code = EXIT_PASS
    if ref is not None:
        max_err = float(np.max(np.abs(posterior.mean - ref)))
        doc["reference"] = cfg.problem["reference"]
        doc["max_abs_error"] = max_err
        bound = cfg.problem["max_error"]
        if bound is not None:
            doc["max_error_bound"] = bound
            doc["passed"] = bool(max_err <= bound)
            if not doc["passed"]:
                exit_code = EXIT_TOLERANCE
    out = _write(cfg, {"solution.json": dumps_json(doc), "solution.csv": posterior.to_csv()})
    print(f"solve: log_marginal={posterior.log_marginal:.6g} -> {out/'solution.json'}")
    return exit_code


def cmd_sample(cfg: RunConfig) -> int:
    """Dump a seeded prior ensemble."""
    ensemble = sample_paths(cfg.prior, cfg.grid, cfg.samples, cfg.seed)
    meta = {
        "schema_version": 1,
        "kind": "ensemble",
        "grid": [float(v) for v in cfg.grid.points],
        "n_paths": ensemble.n_paths,
        "seed": ensemble.seed,
    }
    out = _write(cfg, {"ensemble.json": dumps_json(meta)})
    # the ensemble's paths are finite, so each row is written as it is
    # formatted, in the round-trip form of csv_lines
    with open(out / "ensemble.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["path"] + [f"x{i}" for i in range(len(cfg.grid))]) + "\n")
        for i, row in enumerate(ensemble.paths):
            fh.write(f"{i}," + ",".join(map(repr, row.tolist())) + "\n")
    print(f"sample: {ensemble.n_paths} paths on {len(cfg.grid)} points -> {out/'ensemble.csv'}")
    return EXIT_PASS


def cmd_kernel_table(cfg: RunConfig) -> int:
    """Tabulate the kernel and its operator transforms on the grid square."""
    g = cfg.grid
    jb = joint_blocks(cfg.prior, cfg.operator, g, g)
    check_finite([(f"kernel table {name}", "kernel", table) for name, table in
                  (("k", jb.k_uu), ("T1k", jb.k_vu), ("T2k", jb.k_uv), ("T1T2k", jb.k_vv))])
    x1, x2 = np.meshgrid(g.points, g.points, indexing="ij")
    rows = np.column_stack([a.ravel() for a in
                            (x1, x2, jb.k_uu, jb.k_vu, jb.k_uv, jb.k_vv)]).tolist()
    out = _write(cfg, {"kernel_table.csv":
                       csv_lines(("x1", "x2", "k", "T1k", "T2k", "T1T2k"), rows)})
    print(f"kernel-table: {len(rows)} rows -> {out/'kernel_table.csv'}")
    return EXIT_PASS


_COMMANDS = {
    "verify": cmd_verify,
    "solve": cmd_solve,
    "sample": cmd_sample,
    "kernel-table": cmd_kernel_table,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpops",
        description="Gaussian process priors under linear differential operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to the YAML run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and checked (>= 1) for old scripts; changes nothing")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, output=args.out,
                          threads=args.threads)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (GpopsError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
