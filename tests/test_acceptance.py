"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; the oracles are independent of the code
paths they check (dense grids, direct summation, 1-D quadrature, closed
forms) and heavier shared computations are module-scoped fixtures.
"""

import json
import re
import time

import numpy as np
import pytest

import _oracles
from dualfrac import (
    Grid3,
    ScalarField,
    apply_tau,
    box_length_sweep,
    build_bounds_context,
    c2_ball_norm,
    continuity_experiment,
    demo_problem,
    embedding_constant,
    field_norms,
    fit_growth_exponent,
    forward_transform,
    inverse_transform,
    measure_contraction,
    phi_minimum,
    regularity_check,
    sample_ball,
    solve_double_fractional,
    solve_fixed_point,
    solve_linear_system,
    vector_norms,
)
from dualfrac.bounds import BoundsContext, epsilon_threshold, sigma_value
from dualfrac.cli import run_command
from dualfrac.problems import continuity_pairs, realize_gaussian_sum, solvability_sweep_cases


class Criterion:
    """Times a criterion and prints its verdict line."""

    def __init__(self, number, label, limit_seconds):
        self.number = number
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def conclude(self, ok, detail):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(f"[criterion {self.number:2d}] {self.label}: {status} "
              f"({detail}; {elapsed:.2f}s of {self.limit:.0f}s budget)")
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.limit, f"criterion {self.number} exceeded its runtime budget"

    def __exit__(self, *exc):
        return False


@pytest.fixture(scope="module")
def demo64():
    return demo_problem()


@pytest.fixture(scope="module")
def demo64_solution(demo64):
    return solve_fixed_point(demo64, tol=1e-10, max_iter=200)


def gaussian_field(grid, a=1.0):
    x, y, z = grid.meshes
    return ScalarField(grid, np.exp(-a * (x**2 + y**2 + z**2)))


def test_criterion_01_profile_minimum_closed_form():
    with Criterion(1, "closed-form profile minimum vs brute force", 5.0) as c:
        alphas = np.linspace(0.1, 10.0, 50)
        orders = np.linspace(0.26, 0.74, 50)
        worst = 0.0
        for s in orders:
            for alpha in alphas:
                _, v_closed = phi_minimum(float(alpha), float(s))
                _, v_brute = _oracles.brute_force_phi_minimum(float(alpha), float(s))
                worst = max(worst, abs(v_closed - v_brute) / v_brute)
        c.conclude(worst <= 1e-8, f"max rel err {worst:.3e} <= 1e-08")


def test_criterion_02_spectral_fidelity():
    with Criterion(2, "round trip, Plancherel, analytic transform", 30.0) as c:
        rng = np.random.default_rng(2024)
        grid = Grid3(20.0, 32)
        worst_rt = 0.0
        worst_pl = 0.0
        for _ in range(100):
            f = ScalarField(grid, rng.standard_normal(grid.shape))
            spec = forward_transform(f)
            back = inverse_transform(spec)
            worst_rt = max(
                worst_rt,
                np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values)),
            )
            real_side = grid.cell_volume * float(np.sum(f.values**2))
            spec_side = grid.mode_volume * float(np.sum(np.abs(spec.coefficients) ** 2))
            worst_pl = max(worst_pl, abs(real_side - spec_side) / real_side)
        grid64 = Grid3(20.0, 64)
        spec = forward_transform(gaussian_field(grid64))
        pm = grid64.wavenumbers
        gauss_err = float(np.max(np.abs(spec.coefficients - 2.0**-1.5 * np.exp(-(pm**2) / 4.0))))
        ok = worst_rt <= 1e-12 and worst_pl <= 1e-12 and gauss_err <= 1e-8
        c.conclude(
            ok,
            f"roundtrip {worst_rt:.2e}, plancherel {worst_pl:.2e}, transform {gauss_err:.2e}",
        )


def test_criterion_03_linear_solver_exactness():
    with Criterion(3, "linear solver: eigenfunctions, residual, radial oracle", 30.0) as c:
        grid = Grid3(20.0, 64)
        s1, s2 = 0.4, 0.8
        # eigenfunction
        p0 = 3 * 2 * np.pi / grid.box_length
        x, _, _ = grid.meshes
        u_exact = np.cos(p0 * x)
        f_eig = ScalarField(grid, (p0 ** (2 * s1) + p0 ** (2 * s2)) * u_exact)
        eig_err = float(np.max(np.abs(solve_double_fractional(f_eig, s1, s2).values - u_exact)))
        # gaussian right side
        f = gaussian_field(grid)
        u = solve_double_fractional(f, s1, s2)
        pm = grid.wavenumbers
        lhs = (pm ** (2 * s1) + pm ** (2 * s2)) * forward_transform(u).coefficients
        rhs = forward_transform(f).coefficients.copy()
        lhs[0, 0, 0] = 0.0
        rhs[0, 0, 0] = 0.0
        fwd_resid = float(
            np.sqrt(np.sum(np.abs(lhs - rhs) ** 2) / np.sum(np.abs(rhs) ** 2))
        )
        r0 = _oracles.zero_cell_radius(grid.box_length)
        oracle = np.sqrt(
            _oracles.radial_integral(
                lambda p: 4 * np.pi * p**2 * (np.exp(-p**2 / 2) / 8)
                / (p ** (2 * s1) + p ** (2 * s2)) ** 2,
                r0,
                40.0,
            )
        )
        l2_gap = abs(field_norms(u).l2 - oracle) / oracle
        ok = eig_err <= 1e-12 and fwd_resid <= 1e-12 and l2_gap <= 0.02
        c.conclude(
            ok,
            f"eigenfunction {eig_err:.2e}, residual {fwd_resid:.2e}, oracle gap {l2_gap:.4f}",
        )


def test_criterion_04_regularity_identity(demo64, demo64_solution):
    with Criterion(4, "derived regularity identity on the demo baseline", 10.0) as c:
        u0 = demo64_solution.u0
        worst = 0.0
        for m in range(demo64.n_components):
            influx = realize_gaussian_sum(demo64.influxes[m], demo64.grid)
            worst = max(
                worst,
                regularity_check(u0.components[m], influx, demo64.orders.s1[m], demo64.orders.s2[m]),
            )
        c.conclude(worst <= 1e-10, f"max relative residual {worst:.3e} <= 1e-10")


def test_criterion_05_contraction_certificate(demo64):
    with Criterion(5, "measured contraction on the 48-cube demo", 180.0) as c:
        problem = demo64.with_grid(Grid3(20.0, 48))
        ctx = build_bounds_context(problem)
        problem = problem.with_epsilon(0.9 * ctx.epsilon_max)
        ctx = build_bounds_context(problem)
        certified = ctx.epsilon * ctx.sigma
        ratios = measure_contraction(problem, trials=20, seed=11)
        rng = np.random.default_rng(12)
        self_map_ok = True
        worst_image = 0.0
        for _ in range(20):
            v = sample_ball(problem.grid, problem.n_components, problem.rho, rng)
            image_norm = vector_norms(apply_tau(v, problem)).h2
            worst_image = max(worst_image, image_norm)
            self_map_ok = self_map_ok and image_norm <= problem.rho
        ok = max(ratios) <= certified and max(ratios) < 1.0 and self_map_ok
        c.conclude(
            ok,
            f"max ratio {max(ratios):.3e} <= eps*sigma {certified:.3f}, "
            f"max image norm {worst_image:.3e} <= rho {problem.rho}",
        )


def test_criterion_06_fixed_point_convergence(demo64, demo64_solution):
    with Criterion(6, "Picard convergence, residual, restart uniqueness", 180.0) as c:
        res = demo64_solution
        geometric = all(r < 1.0 for r in res.contraction_estimates)
        v0 = sample_ball(demo64.grid, demo64.n_components, demo64.rho, np.random.default_rng(21))
        res2 = solve_fixed_point(demo64, tol=1e-10, max_iter=200, v0=v0)
        gap = vector_norms(res.u_p - res2.u_p).h2
        ok = (
            res.converged
            and geometric
            and res.final_residual <= 1e-8
            and res2.converged
            and gap <= 1e-9
        )
        c.conclude(
            ok,
            f"residual {res.final_residual:.2e} <= 1e-08, restart gap {gap:.2e} <= 1e-09",
        )


def test_criterion_07_coupling_scaling_slope(demo64):
    with Criterion(7, "solution-size slope in the coupling", 600.0) as c:
        ctx = build_bounds_context(demo64)
        eps_values = [ctx.epsilon_max * f for f in (0.125, 0.25, 0.5, 1.0)]
        norms = []
        for eps in eps_values:
            res = solve_fixed_point(demo64.with_epsilon(eps), tol=1e-12)
            norms.append(vector_norms(res.u_p).h2)
        slope = float(np.polyfit(np.log(eps_values), np.log(norms), 1)[0])
        c.conclude(abs(slope - 1.0) <= 0.05, f"slope {slope:.4f} within 1.00 +/- 0.05")


def test_criterion_08_continuity_bound(demo64):
    with Criterion(8, "coupling-continuity bound on five pairs", 600.0) as c:
        u0 = solve_linear_system(demo64)
        i_radius = embedding_constant() * (vector_norms(u0).h2 + 1.0)
        entries = []
        ok = True
        for label, g1, g2 in continuity_pairs(demo64.nonlinearity):
            m_shared = max(c2_ball_norm(g1, i_radius), c2_ball_norm(g2, i_radius))
            ctx = build_bounds_context(demo64, M=m_shared)
            eps = 0.9 * ctx.epsilon_max
            lhs, rhs = continuity_experiment(demo64.with_epsilon(eps), g1, g2)
            ok = ok and lhs <= rhs
            entries.append(f"{label}: {lhs:.2e} <= {rhs:.2e}")
        c.conclude(ok, "; ".join(entries))


def test_criterion_09_zero_mode_regimes():
    with Criterion(9, "box-sweep growth and boundedness regimes", 600.0) as c:
        spacing = 0.3125
        boxes = [10.0, 20.0, 40.0]
        details = []
        ok = True
        for case in solvability_sweep_cases():
            points = box_length_sweep(case.influx, case.s1, case.s2, spacing, boxes)
            if case.expected_growth > 0:
                slope = fit_growth_exponent(points)
                ok = ok and abs(slope - case.expected_growth) <= 0.25 * case.expected_growth
                details.append(f"{case.label}: slope {slope:.3f} vs {case.expected_growth}")
            else:
                changes = [
                    abs(points[i + 1].u_l2_sq - points[i].u_l2_sq) / points[i].u_l2_sq
                    for i in range(len(points) - 1)
                ]
                ok = ok and all(ch <= 0.05 for ch in changes)
                details.append(
                    f"{case.label}: changes " + "/".join(f"{ch:.3%}" for ch in changes)
                )
        c.conclude(ok, "; ".join(details))


def test_criterion_10_threshold_duality():
    with Criterion(10, "threshold/contraction-factor duality", 1.0) as c:
        rng = np.random.default_rng(31)
        worst = 0.0
        ce = embedding_constant()
        for _ in range(20):
            u0_h2 = float(rng.uniform(0.0, 5.0))
            s_lo = float(rng.uniform(0.26, 0.5))
            ctx = BoundsContext(
                u0_h2=u0_h2,
                M=float(rng.uniform(0.1, 10.0)),
                H=float(rng.uniform(0.1, 10.0)),
                Q=float(rng.uniform(0.1, 10.0)),
                s1_min=s_lo,
                S1_max=float(rng.uniform(s_lo, 0.74)),
                rho=float(rng.uniform(0.05, 1.0)),
                c_e=ce,
                I_radius=ce * (u0_h2 + 1.0),
                epsilon_max=0.0,
                sigma=0.0,
                epsilon=0.0,
            )
            eps_max = epsilon_threshold(ctx)
            sigma = sigma_value(ctx)
            target = ctx.rho / (ctx.u0_h2 + 1.0)
            worst = max(worst, abs(eps_max * sigma - target) / target)
        c.conclude(worst <= 1e-12, f"max rel duality error {worst:.3e} <= 1e-12")


def test_criterion_11_report_determinism(tmp_path):
    with Criterion(11, "byte-identical reports under a fixed seed", 120.0) as c:
        blobs = []
        for name in ("first", "second"):
            code = run_command(
                ["solve", "--config", "demo", "--grid", "32", "--seed", "3",
                 "--out", str(tmp_path / name)]
            )
            assert code == 0
            blobs.append((tmp_path / name / "report.json").read_bytes())
        pattern = re.compile(rb'"wall_clock_seconds": [^\n]+')
        a = pattern.sub(b"T", blobs[0])
        b = pattern.sub(b"T", blobs[1])
        # sanity: the reports parse and the solve actually passed
        report = json.loads(blobs[0])
        c.conclude(a == b and report["passed"], f"{len(a)} canonical bytes compared")
