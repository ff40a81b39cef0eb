"""Command-line experiment harness with machine-readable JSON/CSV reports.

Exit codes: 0 when every assertion in the run passes, 1 on an assertion or
runtime failure, 2 on a usage error.  Reports are deterministic under a
fixed seed except for the wall-clock field.  The environment variable
``FRAC_THREADS`` caps the worker count used for independent sub-runs.
While a subcommand runs, the package's logged warnings and Python
warnings (each distinct one once) go to stderr with its name in front.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# SHA-256 from CPython's built-in module: ``hashlib`` would also load OpenSSL
# (about 3.4 MB of resident memory) for the one digest a report carries.
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .bounds import build_bounds_context
from .fieldio import write_snapshot
from .fixed_point import CONTINUITY_TOL, continuity_experiment, measure_contraction, solve_fixed_point
from .grid import Grid3, VectorField
from .poisson import (
    _check_h2,
    _forward_defect,
    _regularity_defect,
    _zero_mode_report,
    box_length_sweep,
    fit_growth_exponent,
    solve_linear_system,
)
from .problems import (
    ConfigError,
    _gaussian_sum_moments,
    continuity_pairs,
    demo_config_text,
    load_problem,
    solvability_sweep_cases,
)
from .spectral import _rfft, spectral_plan, vector_norms

__all__ = ["run_command", "write_report", "main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class Check:
    """One asserted inequality with both sides materialized."""

    name: str
    lhs: float
    op: str
    rhs: float

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return self.lhs <= self.rhs
        if self.op == "<":
            return self.lhs < self.rhs
        if self.op == ">":
            return self.lhs > self.rhs
        if self.op == "==":
            return self.lhs == self.rhs
        raise ValueError(f"unknown comparison {self.op!r}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "op": self.op,
            "rhs": self.rhs,
            "passed": self.passed,
        }


def _format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(x, ".17g")


def _dump_json(obj, indent: int = 0) -> str:
    """Serialize with floats at 17 significant digits, deterministically."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, str):
        import json as _json

        return _json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{_dump_json(str(k))}: {_dump_json(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_dump_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_report(report: dict, out_dir, series: list[dict] | None = None) -> list[Path]:
    """Write report.json (and series.csv for sweeps) into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    report_path = out / "report.json"
    report_path.write_text(_dump_json(report) + "\n")
    paths.append(report_path)
    if series is not None:
        series_path = out / "series.csv"
        with series_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            header = list(series[0].keys()) if series else []
            writer.writerow(header)
            for row in series:
                writer.writerow(
                    [
                        _format_float(v) if isinstance(v, (float, np.floating)) else v
                        for v in row.values()
                    ]
                )
        paths.append(series_path)
    return paths


def _worker_count() -> int:
    raw = os.environ.get("FRAC_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError("FRAC_THREADS", f"expected an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError("FRAC_THREADS", f"expected a positive integer, got {raw!r}")
    return workers


def _parallel_map(fn, items):
    items = list(items)
    workers = min(_worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# --- subcommand handlers ------------------------------------------------------


def _cmd_solve_linear(problem, args, dump):
    plan = spectral_plan(problem)
    u0 = solve_linear_system(problem)
    grid = problem.grid
    components = []
    checks = []
    for m, u0_m in enumerate(u0.values):
        s1, s2 = problem.orders.s1[m], problem.orders.s2[m]
        # One rfftn of the real-space u0_m feeds the norms and both residuals;
        # the influx side is the plan's spectrum, rebuilt from the Gaussians
        # independently of u0's values.  The plan's division spectrum, which
        # defines u0, is not kept: residuals taken from it would vanish
        # whatever u0's values hold.  Two half-lattice buffers serve
        # the component: cu, and cf for f_hat, its forward defect and f_hat again.
        cu = _rfft(u0_m)
        norms = vector_norms(VectorField(grid, u0_m[None], cu[None]))
        _check_h2(norms.h2)
        cf = plan.influx_spectrum(m)
        forward_residual = _forward_defect(cu, cf, plan.symbols[m], grid)  # overwrites cf
        plan.influx_spectrum(m, out=cf)
        reg_residual = _regularity_defect(cu, cf, grid, s1, s2)  # overwrites cu and cf
        report = _zero_mode_report(*_gaussian_sum_moments(problem.influxes[m], grid), s1)
        components.append(
            {
                "norms": norms.as_dict(),
                "forward_residual": forward_residual,
                "regularity_residual": reg_residual,
                "solvability": report.as_dict(),
            }
        )
        checks.append(Check(f"forward_residual_{m}", forward_residual, "<=", 1e-12))
        checks.append(Check(f"regularity_residual_{m}", reg_residual, "<=", 1e-10))
    results = {
        "components": components,
        "u0_norms": plan.u0_norms.as_dict(),
    }
    if dump:
        for m, comp in enumerate(u0.components):
            dump(f"u0_{m}.fsf", comp, m)
    return results, checks, None, None


def _cmd_solve(problem, args, dump):
    result = solve_fixed_point(problem, tol=args.tol, max_iter=args.max_iter)
    up_norms = result.u_p_norms
    results = {
        "iterations": result.iterations,
        "step_norms": list(result.step_norms),
        "contraction_estimates": list(result.contraction_estimates),
        "final_residual": result.final_residual,
        "converged": result.converged,
        "u0_norms": spectral_plan(problem).u0_norms.as_dict(),
        "u_p_norms": up_norms.as_dict(),
        "u_norms": result.u_norms.as_dict(),
    }
    checks = [
        Check("converged", 1.0 if result.converged else 0.0, "==", 1.0),
        Check("final_residual", result.final_residual, "<=", 1e-8),
        Check("u_p_inside_ball", up_norms.h2, "<=", problem.rho),
    ]
    if dump:
        fields = zip(result.u0.components, result.u_p.components, result.u.components)
        for m, (u0_m, up_m, u_m) in enumerate(fields):
            dump(f"u0_{m}.fsf", u0_m, m)
            dump(f"u_p_{m}.fsf", up_m, m)
            dump(f"u_{m}.fsf", u_m, m)
    return results, checks, None, result.bounds


def _cmd_verify_bounds(problem, args, dump):
    ctx = build_bounds_context(problem)
    lhs = ctx.epsilon_max * ctx.sigma
    rhs = ctx.rho / (ctx.u0_h2 + 1.0)
    results = {
        "duality_product": lhs,
        "duality_target": rhs,
        "duality_error": abs(lhs - rhs),
    }
    checks = [
        Check("duality_identity", abs(lhs - rhs), "<=", 1e-12 * rhs),
        Check("kernel_l1_positive", ctx.H, ">", 0.0),
        Check("kernel_filtered_positive", ctx.Q, ">", 0.0),
    ]
    return results, checks, None, ctx


def _cmd_contraction(problem, args, dump):
    ctx = build_bounds_context(problem)
    ratios = measure_contraction(problem, args.trials, args.seed)
    results = {"ratios": ratios, "max_ratio": max(ratios)}
    checks = [
        Check("max_ratio_below_certified", max(ratios), "<=", ctx.epsilon * ctx.sigma),
        Check("max_ratio_strict", max(ratios), "<", 1.0),
    ]
    return results, checks, None, ctx


def _cmd_sweep_epsilon(problem, args, dump):
    ctx = build_bounds_context(problem)
    eps_values = [ctx.epsilon_max * f for f in (0.125, 0.25, 0.5, 1.0)]

    def solve_at(eps):
        res = solve_fixed_point(problem.with_epsilon(eps), tol=args.tol, max_iter=args.max_iter)
        if not res.converged:
            # one Picard step from zero is exactly linear in epsilon, so the slope would pass
            raise RuntimeError(f"fixed point failed to converge at epsilon={eps:.17g}")
        return res.u_p_norms.h2

    norms = _parallel_map(solve_at, eps_values)
    for eps, norm in zip(eps_values, norms):
        if norm == 0.0:
            # as when the coupling reads only components whose u0 is zero
            raise ValueError(
                f"up_h2_norm is 0 at epsilon={eps:.17g}: u_p vanishes, so the scaling slope is undefined"
            )
    slope = float(np.polyfit(np.log(eps_values), np.log(norms), 1)[0])
    series = [
        {"epsilon": e, "up_h2_norm": n} for e, n in zip(eps_values, norms)
    ]
    results = {"epsilon": eps_values, "up_h2_norm": norms, "slope": slope}
    checks = [Check("scaling_slope", abs(slope - 1.0), "<=", 0.05)]
    return results, checks, series, ctx


def _cmd_continuity(problem, args, dump):
    entries = []
    checks = []
    for label, g1, g2 in continuity_pairs(problem.nonlinearity):
        # each pair runs at 0.9 of its shared-ball threshold
        eps, lhs, rhs = continuity_experiment(problem, g1, g2, max_iter=args.max_iter, threshold_fraction=0.9)
        entries.append({"pair": label, "epsilon": eps, "lhs": lhs, "rhs": rhs})
        checks.append(Check(f"continuity_{label}", lhs, "<=", rhs))
    return {"pairs": entries}, checks, None, None


def _cmd_solvability(problem, args, dump):
    spacing = problem.grid.spacing
    base_l = problem.grid.box_length
    boxes = [base_l / 2.0, base_l, base_l * 2.0]
    cases_out = []
    checks = []
    series = []
    for case in solvability_sweep_cases():
        points = box_length_sweep(case.influx, case.s1, case.s2, spacing, boxes)
        base_report = _zero_mode_report(*_gaussian_sum_moments(case.influx, problem.grid), case.s1)
        entry = {
            "case": case.label,
            "s1": case.s1,
            "s2": case.s2,
            "points": [p.as_dict() for p in points],
            "solvability": base_report.as_dict(),
        }
        for p in points:
            series.append({"case": case.label, "box_length": p.box_length, "u_l2_sq": p.u_l2_sq})
        if case.expected_growth > 0.0:
            slope = fit_growth_exponent(points)
            entry["fitted_growth"] = slope
            entry["expected_growth"] = case.expected_growth
            checks.append(
                Check(
                    f"growth_{case.label}",
                    abs(slope - case.expected_growth),
                    "<=",
                    0.25 * case.expected_growth,
                )
            )
        else:
            for i in range(len(points) - 1):
                change = abs(points[i + 1].u_l2_sq - points[i].u_l2_sq) / points[i].u_l2_sq
                entry[f"change_doubling_{i}"] = change
                checks.append(Check(f"bounded_{case.label}_{i}", change, "<=", 0.05))
        cases_out.append(entry)
    return {"cases": cases_out}, checks, series, None


_HANDLERS = {
    "solve-linear": _cmd_solve_linear,
    "solve": _cmd_solve,
    "verify-bounds": _cmd_verify_bounds,
    "contraction": _cmd_contraction,
    "sweep-epsilon": _cmd_sweep_epsilon,
    "continuity": _cmd_continuity,
    "solvability": _cmd_solvability,
}
SUBCOMMANDS = tuple(_HANDLERS)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _even_points(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 2 or value % 2:
        raise argparse.ArgumentTypeError(f"expected an even integer >= 2, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualfrac",
        description="Spectral solver and verification harness for two-exponent fractional systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="problem JSON path, or 'demo' for the bundled problem")
        p.add_argument("--out", default="reports", help="output directory (default: reports)")
        p.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for randomized experiments")
        tol_help = "fixed-point step tolerance"
        if name == "continuity":
            tol_help = f"recorded in the report only: continuity always solves at {CONTINUITY_TOL:g}"
        p.add_argument("--tol", type=_positive_float, default=1e-10, help=tol_help)
        p.add_argument("--max-iter", type=_int_at_least(1), default=200, help="fixed-point iteration cap")
        p.add_argument("--dump-fields", action="store_true", help="write field snapshots next to the report")
        p.add_argument("--grid", type=_even_points, default=None, help="override points per axis (even, >= 2)")
        p.add_argument("--box", type=_positive_float, default=None, help="override box length")
        if name == "contraction":
            p.add_argument("--trials", type=_int_at_least(1), default=20, help="number of random pairs")
    return parser


def _load_config(args) -> tuple[str, object]:
    if args.config == "demo":
        text = demo_config_text()
    else:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError("--config", f"no such file: {path}")
        text = path.read_text()
    problem = load_problem(text)
    if args.grid is not None or args.box is not None:
        try:
            grid = Grid3(
                args.box if args.box is not None else problem.grid.box_length,
                args.grid if args.grid is not None else problem.grid.points_per_axis,
            )
        except ValueError as exc:
            flags = [flag for flag, value in (("--box", args.box), ("--grid", args.grid)) if value is not None]
            raise ConfigError("/".join(flags), str(exc)) from exc
        problem = problem.with_grid(grid)
    n = problem.grid.points_per_axis
    if args.command == "solvability" and n % 4:
        # the sweep's half box must have an even number of points too
        field = "--grid" if args.grid is not None else "grid.n"
        raise ConfigError(field, f"solvability sweeps the box at half size, so n must be a multiple of 4, got {n}")
    return text, problem


def run_command(argv) -> int:
    """Run one subcommand; while it runs, the package's warnings go to stderr prefixed with its name."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter(f"{args.command}: %(levelname)s: %(message)s"))
    logger = logging.getLogger("dualfrac")
    # Python warnings go to the logger, under the caller's filters; entering
    # catch_warnings clears the record of warnings shown, so each run shows
    # a distinct one once, and leaving it restores showwarning.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: logger.warning("%s", message)
        logger.addHandler(handler)
        try:
            return _run(args)
        finally:
            logger.removeHandler(handler)


def _run(args) -> int:
    try:
        _worker_count()
        config_text, problem = _load_config(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out)
    dump_fn = None
    if args.dump_fields:
        out_dir.mkdir(parents=True, exist_ok=True)

        def dump_fn(name, field, component):
            write_snapshot(field, component, out_dir / name)

    start = time.perf_counter()
    try:
        results, checks, series, bounds = _HANDLERS[args.command](problem, args, dump_fn)
    except Exception as exc:  # runtime failure: report and exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    elapsed = time.perf_counter() - start

    report = {
        "command": args.command,
        "problem_digest": _sha256(config_text.encode()).hexdigest(),
        "args": {
            "seed": args.seed,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "grid": problem.grid.points_per_axis,
            "box": problem.grid.box_length,
        },
        "bounds": bounds.as_dict() if bounds is not None else None,
        "results": results,
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
        "wall_clock_seconds": elapsed,
    }
    try:
        paths = write_report(report, out_dir, series)
    except (OSError, ValueError) as exc:  # ValueError: a non-finite number in the report
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.lhs:.6e} {check.op} {check.rhs:.6e}")
    print(f"report: {paths[0]}")
    return EXIT_OK if report["passed"] else EXIT_FAILURE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
