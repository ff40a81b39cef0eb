import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dualfrac import (
    Grid3,
    ScalarField,
    VectorField,
    apply_tau,
    convolve,
    forward_transform,
    kernel_constants,
    sample_ball,
    solve_double_fractional,
    solve_fixed_point,
    solve_linear_system,
    system_residual,
    vector_norms,
)
from dualfrac import problems
from dualfrac.spectral import SpectralPlan


def relative_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture()
def realize_calls(monkeypatch):
    calls = []
    original = problems.realize_gaussian

    def counting(spec, grid):
        calls.append((spec, grid))
        return original(spec, grid)

    monkeypatch.setattr(problems, "realize_gaussian", counting)
    return calls


def gaussian_count(problem):
    return sum(len(k) for k in problem.kernels) + sum(len(f) for f in problem.influxes)


def test_planned_tau_matches_full_layout_composition(demo32):
    u0 = solve_linear_system(demo32)
    v = sample_ball(demo32.grid, 2, demo32.rho, np.random.default_rng(11))
    out = apply_tau(v, demo32, u0)

    z = [a.values + b.values for a, b in zip(u0.components, v.components)]
    g_values = demo32.nonlinearity.eval_components(z)
    kernels = demo32.kernel_fields()
    for m in range(demo32.n_components):
        rhs = demo32.epsilon[m] * convolve(kernels[m], ScalarField(demo32.grid, g_values[m]))
        ref = solve_double_fractional(rhs, demo32.orders.s1[m], demo32.orders.s2[m], "drop")
        assert relative_l2(out.components[m].values, ref.values) <= 1e-12


def test_carried_step_norm_matches_real_space_difference(demo32):
    u0 = solve_linear_system(demo32)
    v = sample_ball(demo32.grid, 2, demo32.rho, np.random.default_rng(12))
    a = apply_tau(v, demo32, u0)
    b = apply_tau(a, demo32, u0)
    step = b - a
    assert step.spectrum is not None
    carried = vector_norms(step).h2

    fresh = VectorField(
        tuple(ScalarField(demo32.grid, y.values - x.values) for x, y in zip(a.components, b.components))
    )
    assert fresh.spectrum is None
    assert abs(carried - vector_norms(fresh).h2) <= 1e-12 * carried
    g = demo32.grid
    full_layout = np.sqrt(
        sum(
            g.cell_volume * np.sum(c.values**2)
            + g.mode_volume * np.sum(g.wavenumbers**4 * np.abs(forward_transform(c).coefficients) ** 2)
            for c in fresh.components
        )
    )
    assert abs(carried - full_layout) <= 1e-12 * carried


def test_variants_share_one_realization_of_each_gaussian(demo, realize_calls):
    # a grid no other test uses, so the plan is built inside this test
    base = demo.with_grid(Grid3(19.0, 16))
    variants = [
        base,
        base.with_epsilon(0.5 * base.epsilon[0]),
        base.with_nonlinearity(base.nonlinearity.scaled(0.5)),
    ]
    for p in variants:
        res = solve_fixed_point(p, tol=1e-10)
        assert res.converged
        system_residual(res.u, p)
        kernel_constants(p)
        p.influx_fields()
    assert len(realize_calls) == gaussian_count(base)


def test_linear_solve_realizes_no_kernel(demo, realize_calls):
    p = demo.with_grid(Grid3(18.0, 16))
    solve_linear_system(p)
    assert {spec for spec, _ in realize_calls} == {g for fs in p.influxes for g in fs}


def test_plan_pieces_built_once_under_concurrent_access(demo, realize_calls):
    plan = SpectralPlan(demo.orders, demo.kernels, demo.influxes, Grid3(20.0, 16))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: (plan.transfer, plan.u0)) for _ in range(32)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(previous)
    transfer, u0 = results[0]
    assert all(t is transfer and u is u0 for t, u in results)
    assert len(realize_calls) == gaussian_count(demo)
    assert not transfer.flags.writeable
    assert not u0.values.flags.writeable
    with pytest.raises(ValueError):
        u0.components[0].values[0, 0, 0] = 1.0
