"""Fault injection: each check of a subcommand fails when what it guards is wrong.

Every case injects one named defect by monkeypatch, runs the subcommand on
the demo at ``--grid 32`` and asserts exit code 1 with exactly the named
checks failing.  At 32 points the demo's coupling lies below its certified
threshold (at 16 it does not), so the reasons given for the listed checks
hold on the grid the matrix runs on.  A check that no defect fails on its
own is listed in ``CANNOT_FAIL_ALONE`` with its reason (README, "Checks
that can fail"), and the list is asserted: a subcommand's checks are
exactly those some injection fails alone plus those listed.
"""

import json
from dataclasses import replace
from functools import lru_cache

import pytest

from dualfrac import VectorField, bounds, cli, fixed_point, spectral
from dualfrac.cli import run_command
from dualfrac.problems import solvability_sweep_cases


def sigma_divided_by(factor):
    """The contraction-factor constant sigma, too small by ``factor``."""

    def inject(monkeypatch):
        build = cli.build_bounds_context

        def wrong(*args, **kwargs):
            ctx = build(*args, **kwargs)
            return replace(ctx, sigma=ctx.sigma / factor)

        monkeypatch.setattr(cli, "build_bounds_context", wrong)

    return inject


def sigma_value_scaled_by(factor):
    """The certificate's sigma, too large by ``factor``, where epsilon_max's shared bracket stays right."""

    def inject(monkeypatch):
        sigma = bounds.sigma_value
        monkeypatch.setattr(bounds, "sigma_value", lambda ctx: factor * sigma(ctx))

    return inject


def kernel_constant_negated(index):
    """The aggregate kernel constant H (``index`` 0) or Q (1), with its sign flipped."""

    def inject(monkeypatch):
        constants = bounds.kernel_constants

        def wrong(problem):
            values = list(constants(problem))
            values[index] = -values[index]
            return tuple(values)

        monkeypatch.setattr(bounds, "kernel_constants", wrong)

    return inject


def tau_scaled_by(factor):
    """The solution map's image spectrum, too large by ``factor``."""

    def inject(monkeypatch):
        step = fixed_point._tau_spectrum

        def wrong(z, problem, radius):
            coeff = step(z, problem, radius)
            coeff *= factor
            return coeff

        monkeypatch.setattr(fixed_point, "_tau_spectrum", wrong)

    return inject


def step_norm_raised_by(offset):
    """The Picard step norm, too large by ``offset``: the loop never meets its tolerance."""

    def inject(monkeypatch):
        gap = fixed_point._h2_gap

        def wrong(sa, sb, grid):
            return gap(sa, sb, grid) + offset

        monkeypatch.setattr(fixed_point, "_h2_gap", wrong)

    return inject


def rho_divided_by(factor):
    """The loaded problem's ball radius rho, too small by ``factor``.

    Only the problem is changed, so the solve sees the smaller ball only if
    it reads rho from the problem.
    """

    def inject(monkeypatch):
        load = cli.load_problem

        def wrong(text):
            problem = load(text)
            return replace(problem, rho=problem.rho / factor)

        monkeypatch.setattr(cli, "load_problem", wrong)

    return inject


def u0_scaled_by(m, factor):
    """u0's values for component m, too large by ``factor``, as the linear checks receive them.

    The plan's u0 is left as it is: the checks see the defect only if they
    read u0's values.
    """

    def inject(monkeypatch):
        solve = cli.solve_linear_system

        def wrong(problem):
            values = solve(problem).values.copy()
            values[m] *= factor
            return VectorField(problem.grid, values)

        monkeypatch.setattr(cli, "solve_linear_system", wrong)

    return inject


def division_s2_raised_by(m, offset):
    """The plan's symbol table for component m, hence u0's division, formed with s2 + ``offset``.

    The problem's orders stay right.  The plan is built in a cache of the
    injection's own, so no plan with the wrong symbol outlives the case.
    """

    def inject(monkeypatch):
        def symbols(plan):
            p = spectral._shell_wavenumbers(plan.grid)
            s2 = [s + (offset if k == m else 0.0) for k, s in enumerate(plan.orders.s2)]
            return tuple(spectral.two_exponent_symbol(p, *orders) for orders in zip(plan.orders.s1, s2))

        monkeypatch.setattr(spectral.SpectralPlan, "symbols", spectral._once(symbols))
        monkeypatch.setattr(spectral, "_cached_plan", lru_cache(maxsize=1)(spectral.SpectralPlan))

    return inject


def sweep_s1_replaced(label, s1, box=None):
    """The solvability sweep of case ``label`` run with first order ``s1``, on every box or on box ``box`` alone.

    The sweep forms its symbol table with the wrong order; the case's
    expected regime is left as it is.  Boxes are numbered as the sweep
    runs them (L/2, L, 2L), so a defect on one end box moves only the
    change across the doubling that box takes part in.
    """

    def inject(monkeypatch):
        sweep = cli.box_length_sweep
        influx = next(c.influx for c in solvability_sweep_cases() if c.label == label)

        def wrong(case_influx, case_s1, s2, spacing, boxes):
            if case_influx != influx:
                return sweep(case_influx, case_s1, s2, spacing, boxes)
            orders = [s1 if box in (None, i) else case_s1 for i in range(len(boxes))]
            return [sweep(influx, o, s2, spacing, [L])[0] for o, L in zip(orders, boxes)]

        monkeypatch.setattr(cli, "box_length_sweep", wrong)

    return inject


# (subcommand, defect, injection, the checks that must fail)
INJECTIONS = [
    ("contraction", "sigma / 1e6", sigma_divided_by(1e6), {"max_ratio_below_certified"}),
    ("contraction", "tau * 1e6", tau_scaled_by(1e6), {"max_ratio_below_certified", "max_ratio_strict"}),
    ("verify-bounds", "sigma * 2", sigma_value_scaled_by(2.0), {"duality_identity"}),
    ("verify-bounds", "H -> -H", kernel_constant_negated(0), {"kernel_l1_positive"}),
    ("verify-bounds", "Q -> -Q", kernel_constant_negated(1), {"kernel_filtered_positive"}),
    ("solve", "step norm + 1e-9", step_norm_raised_by(1e-9), {"converged"}),
    ("solve", "tau * 1.01", tau_scaled_by(1.01), {"converged", "final_residual"}),
    ("solve", "rho / 1e6", rho_divided_by(1e6), {"converged", "u_p_inside_ball"}),
    ("solve-linear", "u0_0 * (1 + 1e-11)", u0_scaled_by(0, 1 + 1e-11), {"forward_residual_0"}),
    ("solve-linear", "u0_1 * (1 + 1e-11)", u0_scaled_by(1, 1 + 1e-11), {"forward_residual_1"}),
    ("solve-linear", "u0_0 * (1 + 1e-9)", u0_scaled_by(0, 1 + 1e-9), {"forward_residual_0", "regularity_residual_0"}),
    ("solve-linear", "u0_1 * (1 + 1e-9)", u0_scaled_by(1, 1 + 1e-9), {"forward_residual_1", "regularity_residual_1"}),
    ("solve-linear", "symbol s2_0 + 1e-6", division_s2_raised_by(0, 1e-6), {"regularity_residual_0"}),
    ("solve-linear", "symbol s2_1 + 1e-6", division_s2_raised_by(1, 1e-6), {"regularity_residual_1"}),
    (
        "solvability",
        "supercritical_nonzero_mean s1 0.85 -> 0.6",
        sweep_s1_replaced("supercritical_nonzero_mean", 0.6),
        {"growth_supercritical_nonzero_mean"},
    ),
    (
        "solvability",
        "supercritical_dipole s1 0.85 -> 0.5 on L/2",
        sweep_s1_replaced("supercritical_dipole", 0.5, box=0),
        {"bounded_supercritical_dipole_0"},
    ),
    (
        "solvability",
        "supercritical_dipole s1 0.85 -> 0.5 on 2L",
        sweep_s1_replaced("supercritical_dipole", 0.5, box=2),
        {"bounded_supercritical_dipole_1"},
    ),
    (
        "solvability",
        "subcritical_nonzero_mean s1 0.5 -> 0.65",
        sweep_s1_replaced("subcritical_nonzero_mean", 0.65),
        {"bounded_subcritical_nonzero_mean_0"},
    ),
    (
        "solvability",
        "subcritical_nonzero_mean s1 0.5 -> 0.8",
        sweep_s1_replaced("subcritical_nonzero_mean", 0.8),
        {"bounded_subcritical_nonzero_mean_0", "bounded_subcritical_nonzero_mean_1"},
    ),
    (
        "solvability",
        "subcritical_nonzero_mean s1 0.5 -> 0.2 on 2L",
        sweep_s1_replaced("subcritical_nonzero_mean", 0.2, box=2),
        {"bounded_subcritical_nonzero_mean_1"},
    ),
]

CANNOT_FAIL_ALONE = {
    ("contraction", "max_ratio_strict"): (
        "for eps <= eps_max, eps*sigma <= rho/(||u0||+1) < 1, so a ratio of 1 or more "
        "also fails max_ratio_below_certified"
    ),
    ("solve", "final_residual"): (
        "converged requires the residual at or below --tol (1e-10 by default), so a "
        "residual above 1e-8 also fails converged"
    ),
    ("solve", "u_p_inside_ball"): (
        "converged tests the same norm against rho (1 + 1e-12), so u_p outside the ball "
        "also fails converged, but for a norm within 1e-12 of rho relative"
    ),
}

SUBCOMMANDS = sorted({sub for sub, *_ in INJECTIONS})


def run(sub, tmp_path):
    out = tmp_path / sub
    code = run_command([sub, "--config", "demo", "--grid", "32", "--out", str(out)])
    checks = json.loads((out / "report.json").read_text())["checks"]
    return code, {c["name"] for c in checks}, {c["name"] for c in checks if not c["passed"]}


@pytest.mark.parametrize("sub, defect, inject, failing", INJECTIONS, ids=[f"{s}: {d}" for s, d, *_ in INJECTIONS])
def test_injected_defect_fails_exactly_its_checks(sub, defect, inject, failing, tmp_path, monkeypatch):
    inject(monkeypatch)
    code, _, failed = run(sub, tmp_path)
    assert code == 1
    assert failed == failing


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_every_check_fails_alone_or_is_listed(sub, tmp_path):
    code, names, failed = run(sub, tmp_path)
    assert code == 0 and not failed
    alone = {next(iter(f)) for s, _, _, f in INJECTIONS if s == sub and len(f) == 1}
    listed = {name for s, name in CANNOT_FAIL_ALONE if s == sub}
    assert not alone & listed
    assert names == alone | listed
    # a listed check still fails, together with others
    for name in listed:
        assert any(name in f for s, _, _, f in INJECTIONS if s == sub)
