import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import _oracles
from dualfrac import VectorField, cli, fixed_point, problems, spectral
from dualfrac.cli import run_command
from dualfrac.fieldio import read_snapshot
from dualfrac.problems import demo_config_text


@pytest.fixture()
def demo_config(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(demo_config_text())
    return path


def small(args, tmp_path, n=32):
    # shrink the grid so CLI runs stay fast
    return args + ["--grid", str(n), "--out", str(tmp_path / "out")]


def test_solve_passes_on_demo(demo_config, tmp_path, capsys):
    code = run_command(small(["solve", "--config", str(demo_config)], tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] converged" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["command"] == "solve"
    assert report["passed"] is True
    assert report["results"]["converged"] is True
    assert report["results"]["final_residual"] <= 1e-8
    for check in report["checks"]:
        assert {"name", "lhs", "op", "rhs", "passed"} <= set(check)


def test_bundled_demo_token(tmp_path):
    code = run_command(small(["verify-bounds", "--config", "demo"], tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    duality = [c for c in report["checks"] if c["name"] == "duality_identity"][0]
    assert duality["passed"] is True
    assert report["bounds"]["epsilon_max"] > 0


def test_solve_linear_report(demo_config, tmp_path):
    code = run_command(small(["solve-linear", "--config", str(demo_config)], tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    comps = report["results"]["components"]
    assert len(comps) == 2
    for comp in comps:
        assert comp["forward_residual"] <= 1e-12
        assert comp["regularity_residual"] <= 1e-10
        assert comp["solvability"]["regime"] == "unconditional"


def test_solve_linear_residuals_detect_perturbed_u0(demo_config, tmp_path, monkeypatch):
    original = cli.solve_linear_system

    def perturbed(problem):
        # 1e-8 relative noise on the values; the carried spectrum stays exact
        # (the plan's u0 carries none, so the clean values' transform is attached)
        u0 = original(problem)
        noise = np.random.default_rng(5).standard_normal(u0.values.shape)
        values = u0.values + 1e-8 * np.max(np.abs(u0.values)) * noise
        return VectorField(u0.grid, values, spectral._rfft(u0.values))

    monkeypatch.setattr(cli, "solve_linear_system", perturbed)
    code = run_command(small(["solve-linear", "--config", str(demo_config)], tmp_path))
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    residuals = [c for c in report["checks"] if "residual" in c["name"]]
    assert len(residuals) == 4
    assert not any(c["passed"] for c in residuals)


def test_forward_residual_reads_the_per_mode_defect(demo32, monkeypatch):
    # u0_0 scaled by 1 + 1e-9: the report's value, not only its verdict, is
    # ||f_hat - S u_hat|| / ||f_hat|| on the nonzero modes, with |p|, S and
    # f_hat formed per mode from samples
    original = cli.solve_linear_system

    def scaled(problem):
        values = original(problem).values.copy()
        values[0] *= 1.0 + 1e-9
        return VectorField(problem.grid, values)

    monkeypatch.setattr(cli, "solve_linear_system", scaled)
    grid = demo32.grid
    reported = cli._cmd_solve_linear(demo32, None, None)[0]["components"][0]["forward_residual"]
    symbol = spectral.two_exponent_symbol(_oracles.wavenumber_rows(grid), demo32.orders.s1[0], demo32.orders.s2[0])
    u_hat = np.fft.rfftn(scaled(demo32).values[0])
    f_hat = np.fft.rfftn(problems.realize_gaussian_sum(demo32.influxes[0], grid).values)
    defect = f_hat - symbol * u_hat
    expected = spectral.nonzero_mode_l2(defect, grid) / spectral.nonzero_mode_l2(f_hat, grid)
    assert 0.5e-9 < expected < 2e-9
    assert abs(reported - expected) <= 1e-6 * expected


def test_solve_linear_makes_three_3d_transforms(tmp_path, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.ndim(a)))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    spectral._cached_plan.cache_clear()
    assert run_command(small(["solve-linear", "--config", "demo"], tmp_path, n=16)) == 0
    # the influx spectra by separability (1-D fft and rfft on stacks of axis
    # factors), the inverse transform that brings the stacked u0 to real
    # space one component at a time, then one forward transform per u0
    # component that serves both residuals and the component norms; each 3-D
    # transform is three passes
    inverse = [("ifft", 3), ("ifft", 3), ("irfft", 3)] * 2
    forward = [("rfft", 3), ("fft", 3), ("fft", 3)]
    assert calls == [("fft", 2), ("rfft", 2)] + inverse + forward + forward


def test_only_spectral_calls_numpy_fft(tmp_path, monkeypatch):
    callers = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    for sub in cli.SUBCOMMANDS:
        callers.clear()
        spectral._cached_plan.cache_clear()
        args = [sub, "--config", "demo"] + (["--trials", "2"] if sub == "contraction" else [])
        assert run_command(small(args, tmp_path / sub, n=16)) == 0
        assert callers and set(callers) == {"dualfrac.spectral"}, sub


def test_cli_process_loads_no_openssl(tmp_path):
    # a fresh interpreter: this one has long imported hashlib
    script = (
        "import sys\n"
        "import dualfrac.cli as cli\n"
        f"code = cli.run_command(['verify-bounds', '--config', 'demo', '--grid', '16', '--out', {str(tmp_path)!r}])\n"
        "print(code, '_hashlib' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"


def test_report_digest_is_the_config_sha256(demo_config, tmp_path):
    assert run_command(small(["verify-bounds", "--config", str(demo_config)], tmp_path, n=16)) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["problem_digest"] == hashlib.sha256(demo_config.read_text().encode()).hexdigest()


def test_continuity_sizes_each_shared_ball_once_per_pair(tmp_path, monkeypatch):
    shared = []
    for module in (cli, fixed_point):

        def counting(*args, _original=module.build_bounds_context, **kwargs):
            if kwargs.get("M") is not None:
                shared.append(kwargs["M"])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "build_bounds_context", counting)
    assert run_command(small(["continuity", "--config", "demo"], tmp_path, n=16)) == 0
    assert len(shared) == len(problems.continuity_pairs(problems.demo_problem().nonlinearity))


@pytest.fixture()
def realized_grids(monkeypatch):
    grids = []
    original = problems.realize_gaussian

    def counting(spec, grid):
        grids.append(grid)
        return original(spec, grid)

    monkeypatch.setattr(problems, "realize_gaussian", counting)
    return grids


@pytest.mark.parametrize("command", ["solvability", "solve-linear"])
def test_linear_commands_realize_no_gaussian(command, tmp_path, realized_grids):
    spectral._cached_plan.cache_clear()
    assert run_command(small([command, "--config", "demo"], tmp_path, n=16)) == 0
    # spectra, sweeps and the solvability moments all come from 1-D factors
    assert realized_grids == []


@pytest.mark.parametrize("command", ["solve", "verify-bounds", "contraction", "continuity", "sweep-epsilon"])
def test_picard_path_realizes_no_influx(command, tmp_path, monkeypatch, realized_grids):
    monkeypatch.setenv("FRAC_THREADS", "1")
    spectral._cached_plan.cache_clear()
    args = ["--trials", "2"] if command == "contraction" else []
    assert run_command(small([command, "--config", "demo", *args], tmp_path, n=16)) == 0
    # every variant shares one plan, whose kernel constant H realizes each
    # kernel Gaussian once; the influxes are transformed by separability
    assert len(realized_grids) == sum(len(k) for k in problems.demo_problem().kernels)


def test_missing_config_flag_exits_2(tmp_path):
    assert run_command(["solve"]) == 2


def test_nonexistent_config_exits_2(tmp_path):
    assert run_command(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_unknown_subcommand_exits_2():
    assert run_command(["explode", "--config", "demo"]) == 2


def test_unknown_flag_exits_2(demo_config):
    assert run_command(["solve", "--config", str(demo_config), "--frobnicate"]) == 2


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_command(["solve", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "mutate,leaf",
    [
        (lambda raw: raw["influxes"][0][0].update(A=None), "influxes[0][0].A"),
        (lambda raw: raw["kernels"][1][0].update(a=True), "kernels[1][0].a"),
        (lambda raw: raw["g"][0]["monomials"][1].update(coeff={}), "g[0].monomials[1].coeff"),
    ],
    ids=["A-null", "a-bool", "coeff-dict"],
)
def test_non_number_config_leaf_exits_2_naming_it(mutate, leaf, tmp_path, capsys):
    raw = json.loads(demo_config_text())
    mutate(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert run_command(small(["solve-linear", "--config", str(path)], tmp_path, n=16)) == 2
    assert f"{leaf}: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value,expected",
    [("rho", 0, "rho: must lie in (0, 1], got 0.0"), ("epsilon", [0.01, -0.01], "epsilon: coupling factors")],
    ids=["rho", "epsilon"],
)
def test_config_range_error_exits_2_naming_the_field(key, value, expected, tmp_path, capsys):
    raw = json.loads(demo_config_text())
    raw[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert run_command(small(["verify-bounds", "--config", str(path)], tmp_path, n=16)) == 2
    assert f"error: {expected}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "flag,value",
    [("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1"), ("--max-iter", "0"),
     ("--max-iter", "-5"), ("--trials", "0"), ("--seed", "-1")],
)
def test_bad_numeric_flag_exits_2(flag, value, tmp_path, capsys):
    code = run_command(small(["contraction", "--config", "demo", flag, value], tmp_path, n=16))
    assert code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "flag,value",
    [("--grid", v) for v in ("15", "0", "-4", "abc")] + [("--box", v) for v in ("nan", "0", "-1")],
)
def test_bad_grid_or_box_flag_exits_2_naming_the_flag(flag, value, tmp_path, capsys):
    code = run_command(["verify-bounds", "--config", "demo", flag, value, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("grid", ["34", "18"])
def test_solvability_grid_not_a_multiple_of_4_exits_2(grid, tmp_path, capsys):
    # the sweep's half box would have an odd number of points
    code = run_command(["solvability", "--config", "demo", "--grid", grid, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "--grid: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_solvability_config_grid_not_a_multiple_of_4_exits_2(tmp_path, capsys):
    raw = json.loads(demo_config_text())
    raw["grid"]["n"] = 34
    path = tmp_path / "n34.json"
    path.write_text(json.dumps(raw))
    code = run_command(["solvability", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "grid.n: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    # other subcommands do not halve the box
    assert run_command(["solve-linear", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("sub, box", [("solve", "1e300"), ("verify-bounds", "1e-300")])
def test_box_outside_the_float_range_exits_2_naming_the_flag(sub, box, tmp_path, capsys):
    # the cell volume or the mode volume would overflow or vanish
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_command([sub, "--config", "demo", "--box", box, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: --box: box_length" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_config_box_outside_the_float_range_exits_2_naming_the_grid(tmp_path, capsys):
    raw = json.loads(demo_config_text())
    raw["grid"]["L"] = 1e300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    code = run_command(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: grid: box_length" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "sub, group", [("solve-linear", "influxes"), ("verify-bounds", "influxes"), ("verify-bounds", "kernels")]
)
@pytest.mark.filterwarnings("default::UserWarning")
def test_vanishing_gaussian_width_warns_and_runs_on(sub, group, tmp_path, capsys):
    # the clearance warning's truncated mass |A| (pi / a)^{3/2} erfc(...)
    # exceeds the float range below a ~ 1e-205: it reads inf, not an error
    raw = json.loads(demo_config_text())
    raw[group][0][0]["a"] = 1e-300
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(raw))
    spectral._cached_plan.cache_clear()  # a cached plan samples no Gaussian, so would not warn
    code = run_command([sub, "--config", str(path), "--grid", "16", "--out", str(tmp_path / "out")])
    assert code == 0
    assert "truncated mass inf" in capsys.readouterr().err


@pytest.mark.filterwarnings("default::UserWarning")
@pytest.mark.parametrize(
    "sub, warned",
    [("solve-linear", 1), ("verify-bounds", 2), ("solve", 2), ("contraction", 2), ("sweep-epsilon", 2), ("continuity", 2)],
)
def test_each_clearance_warning_reaches_stderr_once_per_run_prefixed(sub, warned, tmp_path, capsys):
    # kernel 0 and influx 1 sit one unit from a face: the plan's spectra,
    # H's realization and the influx moments each sample them, yet each
    # distinct warning is one line; solve-linear samples no kernel
    raw = json.loads(demo_config_text())
    raw["kernels"][0][0]["center"] = [9.0, 0.0, 0.0]
    raw["influxes"][1][0]["center"] = [9.0, 0.0, 0.0]
    path = tmp_path / "near_face.json"
    path.write_text(json.dumps(raw))
    extra = ["--trials", "2"] if sub == "contraction" else []
    for run in range(2):
        spectral._cached_plan.cache_clear()  # a cached plan samples no Gaussian, so would not warn
        code = run_command([sub, "--config", str(path), *extra, "--grid", "16", "--out", str(tmp_path / str(run))])
        assert code == 0
        err = capsys.readouterr().err
        assert "UserWarning" not in err
        lines = [line for line in err.splitlines() if "face clearance" in line]
        assert len(lines) == len(set(lines)) == warned
        assert all(line.startswith(f"{sub}: WARNING: gaussian at (9.0, 0.0, 0.0) ") for line in lines)
    assert not logging.getLogger("dualfrac").handlers


WINDOW_CASES = [(sub, s1) for sub in ("verify-bounds", "solve") for s1 in ([0.4, 0.8], [0.2, 0.5])] + [
    (sub, [0.4, 0.75]) for sub in ("verify-bounds", "contraction", "sweep-epsilon", "continuity")
]


@pytest.mark.parametrize("sub, s1", WINDOW_CASES, ids=[f"{sub}-{a}-{b}" for sub, (a, b) in WINDOW_CASES])
def test_first_orders_outside_the_window_are_named_not_certified(sub, s1, tmp_path, capsys):
    # uncoupled, so the config loads and only the certificate reads the
    # first orders; at 0.75 its 3 / (3 - 4a) would divide by zero.  Every
    # certificate-building subcommand, solve included, prints the one message.
    raw = json.loads(demo_config_text())
    raw["epsilon"] = [0.0, 0.0]
    raw["orders"]["s1"] = s1
    path = tmp_path / "orders.json"
    path.write_text(json.dumps(raw))
    code = run_command(small([sub, "--config", str(path)], tmp_path, n=16))
    assert code == 1
    err = capsys.readouterr().err
    window = "error: orders.s1: the certificate needs every first order in the open window (0.25, 0.75)"
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"{window}; got s1_min={min(s1)}, S1_max={max(s1)}"
    ]
    assert "division by zero" not in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_warnings_name_the_subcommand_and_leave_no_handler(tmp_path, capsys):
    # at n = 16 the demo's coupling is above its certified threshold
    for run in range(2):
        assert run_command(["solve", "--config", "demo", "--grid", "16", "--out", str(tmp_path / str(run))]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if "certified threshold" in line]
        assert len(lines) == 1
        assert lines[0].startswith("solve: WARNING: coupling ")
    assert not logging.getLogger("dualfrac").handlers


def test_assertion_failure_exits_1(demo_config, tmp_path, capsys):
    # one iteration cannot reach the tolerance: converged stays false
    code = run_command(
        small(["solve", "--config", str(demo_config), "--max-iter", "1"], tmp_path)
    )
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False


def test_dump_fields_snapshots(demo_config, demo32, tmp_path):
    code = run_command(
        small(["solve", "--config", str(demo_config), "--dump-fields"], tmp_path)
    )
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    # the snapshots are bitwise the fields the solve checked: u as formed
    # for its residual, the plan's u0 and u_p; their L2 norms are the report's
    result = fixed_point.solve_fixed_point(demo32)
    fields = {"u": result.u, "u0": result.u0, "u_p": result.u_p}
    for name, field in fields.items():
        l2_sq = 0.0
        for m in range(demo32.n_components):
            snap, component = read_snapshot(tmp_path / "out" / f"{name}_{m}.fsf")
            assert component == m
            assert snap.grid == demo32.grid
            assert np.array_equal(snap.values.view(np.uint64), field.values[m].view(np.uint64))
            l2_sq += demo32.grid.cell_volume * np.sum(snap.values**2)
        assert np.sqrt(l2_sq) == pytest.approx(report[f"{name}_norms"]["l2"], rel=1e-12)


def test_sweep_epsilon_series(demo_config, tmp_path):
    code = run_command(
        small(["sweep-epsilon", "--config", str(demo_config)], tmp_path, n=16)
    )
    assert code == 0
    series = (tmp_path / "out" / "series.csv").read_text().strip().splitlines()
    assert series[0] == "epsilon,up_h2_norm"
    assert len(series) == 5
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert abs(report["results"]["slope"] - 1.0) <= 0.05


def test_sweep_epsilon_names_the_epsilon_where_u_p_vanishes(tmp_path, capsys):
    # component 1 has no influx, so u0_1 = 0, and the coupling reads z2 alone:
    # u_p is zero at every epsilon and log(0) would leave the slope undefined
    raw = json.loads(demo_config_text())
    raw["influxes"][1] = []
    raw["g"] = [{"monomials": [{"powers": [0, 2], "coeff": c}]} for c in (0.5, 0.4)]
    path = tmp_path / "vanish.json"
    path.write_text(json.dumps(raw))
    code = run_command(small(["sweep-epsilon", "--config", str(path)], tmp_path, n=16))
    assert code == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert re.fullmatch(
        r"error: up_h2_norm is 0 at epsilon=\S+: u_p vanishes, so the scaling slope is undefined", errors[0]
    )
    assert not (tmp_path / "out" / "report.json").exists()


def test_contraction_command(demo_config, tmp_path):
    code = run_command(
        small(
            ["contraction", "--config", str(demo_config), "--trials", "4", "--seed", "2"],
            tmp_path,
            n=16,
        )
    )
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["results"]["ratios"]) == 4
    assert report["results"]["max_ratio"] < 1.0


def test_solvability_command(demo_config, tmp_path):
    code = run_command(
        ["solvability", "--config", str(demo_config), "--grid", "48",
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    cases = {c["case"]: c for c in report["results"]["cases"]}
    grower = cases["supercritical_nonzero_mean"]
    assert abs(grower["fitted_growth"] - 0.4) <= 0.1
    assert grower["solvability"]["regime"] == "orthogonality_required"
    series = (tmp_path / "out" / "series.csv").read_text().strip().splitlines()
    assert series[0] == "case,box_length,u_l2_sq"
    assert len(series) == 10  # header + 3 cases x 3 boxes


def test_solvability_base_box_reads_the_mean_of_its_zero_mode_report(tmp_path):
    # points[1] is the sweep on the problem's own grid, and the zero-mode
    # report is taken there: both state the one mean (f, 1)
    assert run_command(["solvability", "--config", "demo", "--grid", "32", "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for case in report["results"]["cases"]:
        assert case["points"][1]["box_length"] == report["args"]["box"]
        assert case["points"][1]["mean_integral"] == case["solvability"]["mean_integral"]
    dipole = {c["case"]: c for c in report["results"]["cases"]}["supercritical_dipole"]
    assert dipole["points"][1]["mean_integral"] == 0.0


def test_sweep_epsilon_refuses_a_solve_that_did_not_converge(tmp_path, capsys):
    # one Picard step from zero is exactly linear in epsilon, so the slope
    # check alone would pass though no solve converged
    code = run_command(["sweep-epsilon", "--config", "demo", "--max-iter", "1", *small([], tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: fixed point failed to converge at epsilon=")
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "leaf, value, message",
    [
        (("kernels", 0, 0, "A"), 1e154, "error: kernels: certificate constant H or Q is outside the float range"),
        (("g", 0, "monomials", 0, "coeff"), 1e308, "error: g: certificate constant M is outside the float range"),
        # M is finite here, sigma = M (u0_h2 + 1) sqrt(B*) is not
        (("g", 0, "monomials", 0, "coeff"), 5e307, "error: $: certificate constant sigma is outside the float range"),
        (("influxes", 0, 0, "A"), 1e154, "error: influxes: certificate constant u0_h2 is outside the float range"),
    ],
    ids=["kernel-amplitude", "coupling-coefficient", "coupling-times-kernels", "influx-amplitude"],
)
def test_certificate_constant_outside_the_float_range_is_named(leaf, value, message, tmp_path, capsys):
    raw = json.loads(demo_config_text())
    node = raw
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    code = run_command(small(["verify-bounds", "--config", str(path)], tmp_path, n=16))
    assert code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [message]
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_a_non_finite_report_number_ends_the_run_with_one_error_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli._HANDLERS, "solve-linear", lambda problem, args, dump: ({"x": float("inf")}, [], None, None))
    assert run_command(small(["solve-linear", "--config", "demo"], tmp_path, n=16)) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: cannot write report: cannot serialize non-finite float inf"]
    assert not (tmp_path / "out" / "report.json").exists()


def test_continuity_tol_help_says_what_it_solves_at(capsys):
    assert run_command(["continuity", "--help"]) == 0
    assert "continuity always solves at 1e-11" in " ".join(capsys.readouterr().out.split())


def test_determinism_modulo_wall_clock(demo_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        code = run_command(
            ["solve", "--config", str(demo_config), "--grid", "32",
             "--seed", "7", "--out", str(tmp_path / name)]
        )
        assert code == 0
        outs.append((tmp_path / name / "report.json").read_bytes())
    pattern = re.compile(rb'"wall_clock_seconds": [^\n]+')
    a = pattern.sub(b'"wall_clock_seconds": X', outs[0])
    b = pattern.sub(b'"wall_clock_seconds": X', outs[1])
    assert a == b


def test_report_floats_have_17_significant_digits(demo_config, tmp_path):
    run_command(small(["verify-bounds", "--config", str(demo_config)], tmp_path))
    text = (tmp_path / "out" / "report.json").read_text()
    # a representative irrational constant appears at full precision
    assert "0.23721249916439716" in text


def test_write_report_empty_results(tmp_path):
    from dualfrac.cli import write_report

    paths = write_report(
        {"command": "x", "results": {}, "wall_clock_seconds": 0.0}, tmp_path / "r"
    )
    doc = json.loads(paths[0].read_text())
    assert doc["results"] == {}


def test_unwritable_out_dir_exits_1(demo_config, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the directory should go")
    code = run_command(
        ["verify-bounds", "--config", str(demo_config), "--grid", "16",
         "--out", str(blocker)]
    )
    assert code == 1


def test_worker_cap_keeps_results_identical(demo_config, tmp_path, monkeypatch):
    reports = []
    for name, threads in (("seq", "1"), ("par2", "2"), ("par4", "4")):
        monkeypatch.setenv("FRAC_THREADS", threads)
        code = run_command(
            ["sweep-epsilon", "--config", str(demo_config), "--grid", "16",
             "--seed", "5", "--out", str(tmp_path / name)]
        )
        assert code == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    assert reports[0]["results"] == reports[1]["results"] == reports[2]["results"]


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_invalid_frac_threads_exits_2(raw, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRAC_THREADS", raw)
    code = run_command(small(["sweep-epsilon", "--config", "demo"], tmp_path, n=16))
    assert code == 2
    assert "FRAC_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_continuity_command(demo_config, tmp_path):
    code = run_command(
        small(["continuity", "--config", str(demo_config)], tmp_path, n=16)
    )
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    pairs = report["results"]["pairs"]
    assert len(pairs) == 5
    for entry in pairs:
        assert entry["lhs"] <= entry["rhs"]


def config_with(tmp_path, leaf, value):
    raw = json.loads(demo_config_text())
    node = raw
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize(
    "sub, message",
    [
        ("solve-linear", "error: influxes: the H2 norm of u0_0 is outside the float range"),
        ("verify-bounds", "error: influxes: certificate constant u0_h2 is outside the float range"),
        ("solve", "error: influxes: certificate constant u0_h2 is outside the float range"),
    ],
)
def test_overflowing_influx_is_named_with_no_numpy_warning(sub, message, tmp_path, capsys):
    # the H2 row powers overflow and meet p_x = 0 as 0 * inf; that nan is
    # tested, so no numpy warning comes before the one error line
    path = config_with(tmp_path, ("influxes", 0, 0, "A"), 1e154)
    assert run_command(small([sub, "--config", str(path)], tmp_path, n=16)) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "out" / "report.json").exists()


def test_coupling_far_outside_its_certificate_names_the_picard_step(tmp_path, capsys):
    # H is finite, so the certificate builds, with a threshold near 1e-152;
    # the second step's image overflows
    path = config_with(tmp_path, ("kernels", 0, 0, "A"), 1e150)
    assert run_command(small(["solve", "--config", str(path)], tmp_path, n=16)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3, lines
    number = r"[-+0-9.e]{1,13}"  # no %f run of digits
    assert re.fullmatch(
        rf"solve: WARNING: coupling {number} exceeds the certified threshold {number}; "
        "the contraction guarantee is void for this run",
        lines[0],
    )
    assert re.fullmatch(
        rf"solve: WARNING: pointwise argument length {number} left the coupling ball of radius {number}; "
        "the coefficient bound no longer covers these values",
        lines[1],
    )
    assert re.fullmatch(
        rf"error: Picard step 2: the H2 step norm is not finite "
        rf"\(coupling 0\.00637 exceeds the certified threshold {number}\)",
        lines[2],
    )
    assert not (tmp_path / "out" / "report.json").exists()
