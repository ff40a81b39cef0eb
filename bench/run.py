"""Benchmark for dualfrac: end-to-end and per-layer metrics on three workloads.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-benchmark-json
    python3 bench/run.py --record-reference

Every operation runs the way a user runs the CLI: a fresh interpreter
imports ``dualfrac`` from ``src/`` and calls ``dualfrac.cli.run_command``
once (see ``operation.py``), so no cache outlives one invocation.  The
operations of a workload run one after another from this single process;
``FRAC_THREADS`` is 2 for ``sweep-epsilon`` and 1 elsewhere, with every
BLAS/OpenMP pool pinned to one thread.

A run repeats the workload's body (its operations in order) until
``--seconds`` would be exceeded, then checks every output: exit code 0,
``"passed": true``, the converged norms and bound constants against
``reference.json`` at 1e-12 relative, and written snapshots against the
report.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced bodies and prints the
per-layer metrics derived from the traced ones.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import copy
import fnmatch
import json
import math
import os
import random
import shutil
import statistics
import struct
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".bench_work"

DEFAULT_SEED = 0
RUN_SECONDS = 40
# Hard limit on one invocation; operations still running then are killed.
RUN_LIMIT_S = 170
# operation.py exits with this when the tracer left an original unwrapped
EXIT_TRACE_INCOMPLETE = 3
REFERENCE_RTOL = 1e-12

# The bundled two-component demo problem, as shipped with the package at the
# commit that defined this benchmark.  Kept here so that the benchmark's
# inputs do not change when the package's bundled data does.
BASE_PROBLEM = {
    "N": 2,
    "grid": {"L": 20.0, "n": 64},
    "orders": {"s1": [0.4, 0.5], "s2": [0.8, 0.9]},
    "epsilon": [0.00637, 0.00637],
    "kernels": [
        [{"A": 1.0, "a": 1.0, "center": [0.0, 0.0, 0.0]}],
        [{"A": 0.8, "a": 0.8, "center": [0.0, 0.0, 0.0]}],
    ],
    "influxes": [
        [{"A": 1.0, "a": 1.0, "center": [0.0, 0.0, 0.0]}],
        [{"A": 0.5, "a": 1.2, "center": [0.0, 0.0, 0.0]}],
    ],
    "g": [
        {"monomials": [{"powers": [2, 0], "coeff": 0.5}, {"powers": [1, 1], "coeff": 0.3}]},
        {"monomials": [{"powers": [0, 2], "coeff": 0.4}, {"powers": [2, 0], "coeff": 0.2}]},
    ],
    "rho": 1.0,
}
BOX_LENGTH = 20.0
# Influx shifts are whole multiples of this step, which is a multiple of
# the lattice spacing L/n for every n used below (96, 32, 64).
LATTICE_STEP = 0.625
MAX_SHIFT_STEPS = 2


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload body."""

    subcommand: str
    args: tuple[str, ...] = ()
    threads: int = 1

    @property
    def metric(self) -> str:
        return self.subcommand.replace("-", "_") + "_s"


@dataclass(frozen=True)
class Workload:
    why: str
    points: int
    ops: tuple[Op, ...]


WORKLOADS = {
    "picard-n96": Workload(
        "solve-linear, verify-bounds, solve on the demo at n=96: arrays exceed L2, FFTs dominate the "
        "Picard solve, set-up is a third of the FFTs; shows FFT-count cuts and set-up reuse",
        96,
        (Op("solve-linear"), Op("verify-bounds"), Op("solve")),
    ),
    "audit-n32": Workload(
        "contraction, continuity, threaded sweep-epsilon at n=32: arrays fit in cache, so per-call "
        "overhead and redundant set-up dominate; the only workload using the thread pool",
        32,
        (Op("contraction", ("--trials", "20")), Op("continuity"), Op("sweep-epsilon", threads=2)),
    ),
    "solvability-n64": Workload(
        "solvability box sweep (n=32,64,128) then solve-linear --dump-fields at n=64: linear only, "
        "each grid used once, so per-problem caches get no reuse; the only snapshot writer",
        64,
        (Op("solvability"), Op("solve-linear", ("--dump-fields",))),
    ),
}
SUBCOMMAND_METRICS = (
    "solve_s", "solve_linear_s", "verify_bounds_s", "contraction_s",
    "continuity_s", "sweep_epsilon_s", "solvability_s",
)

# Converged quantities compared with reference.json: norms of u, u0 and u_p
# and the bound constants.  Step norms and residuals sit near the tolerance
# and are left out; so is the continuity gap ||u(g1) - u(g2)||, a difference
# of two nearly equal solutions that also depends on component order.
REFERENCE_FIELDS = {
    "solve-linear": ("results.u0_norms.*",),
    "verify-bounds": ("bounds.*",),
    "solve": ("results.u0_norms.*", "results.u_p_norms.*", "results.u_norms.*", "bounds.*"),
    "contraction": ("bounds.*",),
    "sweep-epsilon": ("bounds.*", "results.epsilon.*", "results.up_h2_norm.*"),
    "continuity": ("results.pairs.*.epsilon", "results.pairs.*.rhs"),
    "solvability": ("results.cases.*.points.*.u_l2_sq",),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def spec(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


END_TO_END = (
    Metric("run_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("setup_s", "s", "lower", 0.25),
)


def _layer(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better)


def _calls_and_self(*names: str) -> list[Metric]:
    out = []
    for name in names:
        out += [_layer(f"{name}.calls", "count"), _layer(f"{name}.s", "s")]
    return out


PER_LAYER = tuple(
    [
        _layer("grid.dense_bytes", "B"),
        _layer("grid.field.constructs", "count"),
        _layer("grid.spectrum.constructs", "count"),
        *_calls_and_self("spectral.fft"),
        _layer("spectral.fft.bytes", "B_computed"),
        _layer("spectral.fft_per_iter", "count"),
        *_calls_and_self(
            "spectral.forward_transform", "spectral.inverse_transform",
            "spectral.convolve", "spectral.norms",
        ),
        _layer("spectral.transform_overhead_s", "s"),
        *_calls_and_self(
            "poisson.solve_double_fractional", "poisson.solve_linear_system",
            "poisson.regularity_check", "poisson.box_length_sweep",
        ),
        _layer("poisson.u0_useful_ratio", "ratio", "higher"),
        *_calls_and_self("bounds.build_bounds_context", "bounds.kernel_constants"),
        _layer("bounds.c2_ball_norm.calls", "count"),
        _layer("problems.load_problem.s", "s"),
        *_calls_and_self("problems.realize_gaussian", "problems.eval_components"),
        _layer("problems.realize_useful_ratio", "ratio", "higher"),
        _layer("fixed_point.iterations", "count"),
        _layer("fixed_point.iter_s", "s"),
        *_calls_and_self(
            "fixed_point.apply_tau", "fixed_point.solve_fixed_point",
            "fixed_point.system_residual", "fixed_point.sample_ball",
        ),
        *_calls_and_self("fieldio.write_snapshot"),
        _layer("fieldio.write_snapshot.bytes", "B_computed"),
        _layer("cli.handler_s", "s"),
        _layer("cli.write_report.s", "s"),
        _layer("cli.workers", "count", "higher"),
        _layer("cli.parallel_efficiency", "ratio", "higher"),
        *[_layer(name, "s") for name in SUBCOMMAND_METRICS],
        _layer("trace.overhead_s", "s"),
        _layer("trace.spans", "count"),
    ]
)


# --- inputs --------------------------------------------------------------------


def make_config(seed: int, points: int) -> dict:
    """The demo problem at n=points, moved by a seed-chosen symmetry.

    The default seed gives the demo itself.  Any other seed may swap the two
    components (relabelling the coupling's variables to match) and shift
    both influxes by one lattice vector, kernels staying centred.  Every
    variant is an exact symmetry of the discrete problem, so its converged
    norms and bound constants equal the demo's up to rounding and one
    reference serves every seed.
    """
    doc = copy.deepcopy(BASE_PROBLEM)
    doc["grid"] = {"L": BOX_LENGTH, "n": points}
    if seed == DEFAULT_SEED:
        return doc
    rng = random.Random(seed)
    if rng.random() < 0.5:
        perm = [1, 0]
        for key in ("epsilon", "kernels", "influxes"):
            doc[key] = [doc[key][i] for i in perm]
        for key in ("s1", "s2"):
            doc["orders"][key] = [doc["orders"][key][i] for i in perm]
        doc["g"] = [
            {"monomials": [
                {"powers": [m["powers"][i] for i in perm], "coeff": m["coeff"]}
                for m in doc["g"][c]["monomials"]
            ]}
            for c in perm
        ]
    shift = [LATTICE_STEP * rng.randint(-MAX_SHIFT_STEPS, MAX_SHIFT_STEPS) for _ in range(3)]
    for comp in doc["influxes"]:
        for gauss in comp:
            gauss["center"] = [c + s for c, s in zip(gauss["center"], shift)]
    return doc


# --- running operations -----------------------------------------------------------


@dataclass
class OpRun:
    op: Op
    out_dir: Path
    exit_code: int
    stderr: str
    result: dict | None
    report: dict | None = None
    problems: tuple[str, ...] = ()


def run_op(op: Op, config: Path, seed: int, out_dir: Path, op_id: int, traced: bool,
           deadline: float) -> OpRun:
    result_path = out_dir.with_suffix(".json")
    argv = [
        sys.executable, str(BENCH_DIR / "operation.py"), str(result_path), "1" if traced else "0",
        str(op_id), "--", op.subcommand, "--config", str(config), "--out", str(out_dir),
        "--seed", str(seed), *op.args,
    ]
    env = dict(os.environ)
    # cache bytecode as a normal install does, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(FRAC_THREADS=str(op.threads), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        code, stderr = -1, f"killed after {timeout:.0f} s"
    if code == EXIT_TRACE_INCOMPLETE:
        raise SystemExit(f"traced run invalid: {stderr.strip()}")
    result = json.loads(result_path.read_text()) if code == 0 and result_path.is_file() else None
    return OpRun(op, out_dir, code, stderr, result)


def run_body(workload: Workload, config: Path, seed: int, body_dir: Path, first_id: int,
             traced: bool, deadline: float) -> tuple[float, list[OpRun]]:
    body_dir.mkdir(parents=True)
    runs = []
    start = time.perf_counter()
    for i, op in enumerate(workload.ops):
        runs.append(run_op(op, config, seed, body_dir / f"op{i}", first_id + i, traced, deadline))
    return time.perf_counter() - start, runs


# --- output checks ------------------------------------------------------------------


def flatten(obj, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a report keyed by dotted path (list items by index)."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return {}
    if isinstance(obj, (int, float)):
        return {prefix: float(obj)}
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def reference_values(subcommand: str, report: dict) -> dict[str, float]:
    patterns = REFERENCE_FIELDS[subcommand]
    return {
        path: value
        for path, value in flatten(report).items()
        if any(fnmatch.fnmatchcase(path, p) for p in patterns)
    }


def check_snapshots(run: OpRun, report: dict) -> list[str]:
    """Read back every FSF1 snapshot and compare its L2 norm with the report."""
    problems = []
    n, box = report["args"]["grid"], report["args"]["box"]
    header = struct.Struct("<4sIdI12x")
    l2_sq = 0.0
    for m in range(len(report["results"]["components"])):
        path = run.out_dir / f"u0_{m}.fsf"
        if not path.is_file():
            return [f"snapshot {path.name} missing"]
        raw = path.read_bytes()
        if len(raw) != header.size + 8 * n**3:
            return [f"snapshot {path.name} has {len(raw)} bytes"]
        magic, n_file, box_file, comp = header.unpack(raw[: header.size])
        if (magic, n_file, box_file, comp) != (b"FSF1", n, box, m):
            problems.append(f"snapshot {path.name} header {(magic, n_file, box_file, comp)}")
        values = array("d")
        values.frombytes(raw[header.size:])
        if sys.byteorder != "little":
            values.byteswap()
        l2_sq += (box / n) ** 3 * math.fsum(v * v for v in values)
    expected = report["results"]["u0_norms"]["l2"]
    if abs(math.sqrt(l2_sq) - expected) > REFERENCE_RTOL * abs(expected):
        problems.append(f"snapshot L2 norm {math.sqrt(l2_sq)!r} != report {expected!r}")
    return problems


def check_op(run: OpRun, reference: dict | None) -> list[str]:
    """Every reason this operation counts as failed; empty when it passed."""
    if run.exit_code != 0 or run.result is None:
        return [f"operation process exited {run.exit_code}: {run.stderr.strip()[-500:]}"]
    if run.result["exit"] != 0:
        return [f"CLI exited {run.result['exit']}"]
    report = run.report = json.loads((run.out_dir / "report.json").read_text())
    if report.get("passed") is not True:
        return ["report says passed=false"]
    problems = []
    if reference is not None:
        actual = reference_values(run.op.subcommand, report)
        for path, want in reference.items():
            got = actual.get(path)
            if got is None or abs(got - want) > REFERENCE_RTOL * abs(want):
                problems.append(f"{path}: {got!r} differs from reference {want!r}")
    if "--dump-fields" in run.op.args:
        problems += check_snapshots(run, report)
    return problems


# --- per-layer metrics from spans ------------------------------------------------------


def op_layer_metrics(run: OpRun) -> tuple[Counter, list[float], dict]:
    """Sums for one traced operation, its Picard iteration times, and pool figures."""
    trace = run.result["trace"]
    spans = [tuple(s) for s in trace["spans"]]
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] >= 0:
            children[s[1]].append(s)
    m = Counter()
    ffts_below = Counter()
    # children are recorded before their parents, so one pass accumulates subtrees
    for sid, parent, name, start, end, tid, size, _ in spans:
        dur = end - start
        m[f"{name}.s"] += dur - sum(c[4] - c[3] for c in children[sid])
        outermost = parent < 0 or by_id[parent][2] != name
        if outermost:
            m[f"{name}.calls"] += 1
            m[f"{name}.bytes"] += size
        if name == "spectral.fft" and outermost:
            ffts_below[sid] += 1
        if parent >= 0:
            ffts_below[parent] += ffts_below[sid]
    for name, value in trace["counts"].items():
        m[name] += value
    for name in ("poisson.solve_linear_system", "problems.realize_gaussian"):
        m[f"{name}.distinct"] += trace["distinct"].get(name, 0)

    iter_times = []
    for s in spans:
        if s[2] != "fixed_point.solve_fixed_point":
            continue
        kids = sorted(children[s[0]], key=lambda c: c[3])
        for i, kid in enumerate(kids):
            if kid[2] != "fixed_point.apply_tau":
                continue
            step = kids[i + 1] if i + 1 < len(kids) and kids[i + 1][2] == "spectral.norms" else None
            m["fixed_point.iterations"] += 1
            m["loop_ffts"] += ffts_below[kid[0]] + (ffts_below[step[0]] if step else 0)
            iter_times.append(kid[4] - kid[3] + (step[4] - step[3] if step else 0.0))

    threads = {s[5] for s in spans}
    solves = [s for s in spans if s[2] == "fixed_point.solve_fixed_point"]
    # the main thread only waits while a pool runs
    pool = {"workers": max(1, len(threads) - 1)}
    if run.op.threads > 1 and solves:
        workers = len({s[5] for s in solves})
        region = max(s[4] for s in solves) - min(s[3] for s in solves)
        pool["busy"] = sum(s[7] for s in solves)
        pool["capacity"] = workers * region
    m["cli.handler_s"] += run.report["wall_clock_seconds"]
    m["trace.spans"] += len(spans)
    return m, iter_times, pool


def body_layer_metrics(runs: list[OpRun]) -> tuple[dict[str, float], list[str]]:
    totals = Counter()
    iter_times: list[float] = []
    busy = capacity = 0.0
    workers = 1
    per_op = []
    for run in runs:
        m, times, pool = op_layer_metrics(run)
        totals.update(m)
        iter_times += times
        workers = max(workers, pool["workers"])
        busy += pool.get("busy", 0.0)
        capacity += pool.get("capacity", 0.0)
        per_op.append(
            f"  {run.op.subcommand}: "
            + " ".join(
                f"{k}={m[k]:g}"
                for k in ("poisson.solve_linear_system.calls", "spectral.fft.calls",
                          "fixed_point.iterations", "problems.realize_gaussian.calls")
            )
            + f" spectral.fft_per_iter={_ratio(m['loop_ffts'], m['fixed_point.iterations']):g}"
        )

    def ratio_of(name: str) -> float:
        return _ratio(totals[f"{name}.distinct"], totals[f"{name}.calls"])

    values = {}
    for metric in PER_LAYER:
        values[metric.name] = float(totals.get(metric.name, 0.0))
    values.update({
        "spectral.fft_per_iter": _ratio(totals["loop_ffts"], totals["fixed_point.iterations"]),
        # transform spans have the FFT spans as children, so their self time
        # is exactly the transform time not spent inside an FFT
        "spectral.transform_overhead_s": totals["spectral.forward_transform.s"]
        + totals["spectral.inverse_transform.s"],
        "poisson.u0_useful_ratio": ratio_of("poisson.solve_linear_system"),
        "problems.realize_useful_ratio": ratio_of("problems.realize_gaussian"),
        "fixed_point.iter_s": statistics.median(iter_times) if iter_times else 0.0,
        "cli.workers": float(workers),
        "cli.parallel_efficiency": _ratio(busy, capacity),
    })
    return values, per_op


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --- the benchmark run -------------------------------------------------------------------


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:  # another run still uses it
        pass


def load_reference(workload_name: str) -> dict:
    if not REFERENCE_PATH.is_file():
        raise SystemExit(f"missing {REFERENCE_PATH}")
    return json.loads(REFERENCE_PATH.read_text())[workload_name]


def run_benchmark(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    reference = load_reference(name)
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(make_config(seed, workload.points), indent=2))
        bodies: list[tuple[bool, float, list[OpRun]]] = []
        layer_values: list[dict] = []
        per_op_lines: list[str] = []
        start = time.perf_counter()
        while True:
            body_traced = traced and len(bodies) % 2 == 1
            body_dir = work / f"body{len(bodies)}"
            body_s, runs = run_body(workload, config, seed, body_dir,
                                    len(bodies) * len(workload.ops), body_traced,
                                    start + RUN_LIMIT_S)
            bodies.append((body_traced, body_s, runs))
            for run in runs:
                run.problems = tuple(check_op(run, reference.get(run.op.subcommand)))
            if body_traced and not any(run.problems for run in runs):
                values, lines = body_layer_metrics(runs)
                layer_values.append(values)
                per_op_lines = per_op_lines or lines
            shutil.rmtree(body_dir)
            elapsed = time.perf_counter() - start
            need_traced = traced and not any(b[0] for b in bodies)
            if elapsed + body_s > seconds and not need_traced:
                break
    finally:
        remove_work_dir(work)

    all_runs = [run for _, _, runs in bodies for run in runs]
    failed = sum(1 for run in all_runs if run.problems)
    plain = [(s, runs) for t, s, runs in bodies if not t]
    report_lines = [f"workload={name} seed={seed} bodies={len(bodies)} "
                    f"(traced {sum(1 for b in bodies if b[0])}) operations={len(all_runs)}"]
    report_lines += [f"FAILED {run.op.subcommand}: {p}" for run in all_runs for p in run.problems]
    op_samples = defaultdict(list)
    for _, runs in plain:
        for run in runs:
            if run.result is not None:
                op_samples[run.op.metric].append(run.result["op_s"])

    metrics: dict[str, tuple[float, str]] = {}
    if traced:
        for metric in PER_LAYER:
            samples = [v[metric.name] for v in layer_values]
            metrics[metric.name] = (statistics.median(samples) if samples else 0.0, metric.unit)
        for key in SUBCOMMAND_METRICS:
            samples = op_samples.get(key, [])
            metrics[key] = (statistics.median(samples) if samples else 0.0, "s")
        traced_s = [s for t, s, _ in bodies if t]
        plain_s = [s for s, _ in plain]
        metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s), "s")
        report_lines.append("per-operation counts (first traced body):")
        report_lines += per_op_lines
    else:
        setups = [r.result["setup_s"] for _, runs in plain for r in runs
                  if r.result is not None and r.result["setup_s"] is not None]
        rss = [r.result["maxrss_kb"] for _, runs in plain for r in runs if r.result is not None]
        metrics["run_s"] = (statistics.median(s for s, _ in plain), "s")
        metrics["peak_rss_mb"] = (max(rss) / 1024.0 if rss else 0.0, "MB")
        metrics["setup_s"] = (statistics.median(setups) if setups else 0.0, "s")
        for key in SUBCOMMAND_METRICS:
            if op_samples.get(key):
                report_lines.append(
                    f"{key} = {statistics.median(op_samples[key]):.6f} s "
                    f"(median of {len(op_samples[key])} operations)"
                )
    report_lines.append("body seconds: " + " ".join(
        f"{s:.3f}{'T' if t else ''}" for t, s, _ in bodies))
    report_lines.append(f"fail_ratio = {failed}/{len(all_runs)} = {failed / len(all_runs):.6f}")
    for key, (value, unit) in metrics.items():
        report_lines.append(f"{key} = {value:.9g} {unit}")
    return {
        "lines": report_lines,
        "result": {
            "correct": failed == 0,
            "attempted": len(all_runs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


# --- entry points ---------------------------------------------------------------------


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": w.why} for k, w in WORKLOADS.items()],
        "end_to_end": [m.spec() for m in END_TO_END],
        "per_layer": [m.spec() for m in PER_LAYER],
    }


def record_reference() -> None:
    """Write reference.json from one untraced default-seed body per workload.

    Run only at the commit whose outputs define correctness; every later
    commit is checked against what it wrote.
    """
    reference = {}
    for name, workload in WORKLOADS.items():
        work = WORK_DIR / f"reference-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            config = work / "config.json"
            config.write_text(json.dumps(make_config(DEFAULT_SEED, workload.points)))
            _, runs = run_body(workload, config, DEFAULT_SEED, work / "body", 0, False,
                               time.perf_counter() + RUN_LIMIT_S)
            reference[name] = {}
            for run in runs:
                problems = check_op(run, None)
                if problems:
                    raise SystemExit(f"{name} {run.op.subcommand}: {problems}")
                reference[name][run.op.subcommand] = reference_values(run.op.subcommand, run.report)
        finally:
            remove_work_dir(work)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json from the tables in this file")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dualfrac" / "cli.py").is_file():
        print(f"error: no dualfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_benchmark_json:
        BENCHMARK_JSON.write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    out = run_benchmark(args.workload, args.seed, args.seconds, args.trace == 1)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
