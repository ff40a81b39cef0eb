import dataclasses
import logging

import numpy as np
import pytest

import _oracles
from dualfrac import (
    FractionalOrders,
    GaussianSpec,
    Grid3,
    Monomial,
    Nonlinearity,
    ProblemSpec,
    VectorField,
    apply_tau,
    build_bounds_context,
    continuity_experiment,
    fixed_point,
    measure_contraction,
    sample_ball,
    solve_fixed_point,
    solve_linear_system,
    system_residual,
    vector_norms,
)
from dualfrac.bounds import _ball_radius
from dualfrac.fixed_point import CONTINUITY_TOL
from dualfrac.problems import ConfigError
from dualfrac import poisson, spectral
from dualfrac.spectral import _irfft, _rfft, _row_slabs, h2_distance, spectral_plan


def single_component_problem(grid=None, eps=0.01):
    grid = grid or Grid3(10.0, 16)
    return ProblemSpec(
        orders=FractionalOrders((0.4,), (0.8,)),
        epsilon=(eps,),
        kernels=((GaussianSpec(1.0, 1.0),),),
        influxes=((GaussianSpec(1.0, 1.0),),),
        nonlinearity=Nonlinearity(((Monomial((2,), 1.0),),)),
        grid=grid,
    )


def test_tau_zero_coupling_gives_zero(demo32):
    p = demo32.with_epsilon(0.0)
    v = sample_ball(p.grid, p.n_components, 1.0, np.random.default_rng(3))
    out = apply_tau(v, p)
    assert all(np.all(c.values == 0.0) for c in out.components)


def test_tau_trivial_coupling_gives_zero(demo32):
    p = demo32.with_nonlinearity(Nonlinearity(((), ())))
    v = sample_ball(p.grid, p.n_components, 1.0, np.random.default_rng(4))
    out = apply_tau(v, p)
    assert all(np.all(c.values == 0.0) for c in out.components)


def test_tau_matches_direct_quadrature_oracle():
    # N=1, quadratic coupling, v=0 on a small grid: compare against direct
    # real-space convolution + dense-DFT symbol division
    problem = single_component_problem()
    grid = problem.grid
    u0 = solve_linear_system(problem)
    out = apply_tau(VectorField.zeros(grid, 1), problem)

    g_vals = u0.components[0].values ** 2
    conv = _oracles.direct_convolution(lambda d2: np.exp(-d2), g_vals, grid)
    rhs = problem.epsilon[0] * conv
    coeff = _oracles.dft3(rhs, grid)
    pm = grid.wavenumbers
    sym = pm ** (2 * 0.4) + pm ** (2 * 0.8)
    sym[0, 0, 0] = 1.0
    coeff = coeff / sym
    coeff[0, 0, 0] = 0.0
    oracle = _oracles.idft3(coeff, grid)

    num = np.sqrt(np.sum((out.components[0].values - oracle) ** 2))
    den = np.sqrt(np.sum(oracle**2))
    assert num / den <= 0.01


@pytest.mark.parametrize("uncouple", ["zero-epsilon", "trivial-coupling"])
def test_tau_of_an_uncoupled_problem_is_zero_whatever_its_orders(demo32, uncouple):
    # s1 = 0.8 lies outside the window, which only a coupled spec must keep;
    # uncoupled, tau is exactly zero and the solve refuses through its certificate
    bad_orders = FractionalOrders((0.8, 0.5), (0.9, 0.9))
    if uncouple == "zero-epsilon":
        p = dataclasses.replace(demo32.with_epsilon(0.0), orders=bad_orders)
    else:
        p = dataclasses.replace(demo32.with_nonlinearity(Nonlinearity(((), ()))), orders=bad_orders)
    assert not p.is_nonlinear
    out = apply_tau(VectorField.zeros(p.grid, 2), p)
    assert np.all(out.values == 0.0)
    assert np.all(out.spectrum == 0.0)
    with pytest.raises(ConfigError, match=r"^orders\.s1: .*\(0\.25, 0\.75\)") as excinfo:
        solve_fixed_point(p)
    assert excinfo.value.path == "orders.s1"


def test_tau_grid_mismatch(demo32):
    wrong = VectorField.zeros(Grid3(10.0, 16), 2)
    with pytest.raises(ValueError, match="grid"):
        apply_tau(wrong, demo32)


# --- fixed point ------------------------------------------------------------


def test_zero_coupling_fixed_point(demo32):
    res = solve_fixed_point(demo32.with_epsilon(0.0), tol=1e-10)
    assert res.iterations == 1
    assert res.converged
    assert vector_norms(res.u_p).h2 == 0.0
    for cu, c0 in zip(res.u.components, res.u0.components):
        assert np.all(cu.values == c0.values)


def test_demo_fixed_point_converges(demo32):
    res = solve_fixed_point(demo32, tol=1e-10)
    assert res.converged
    assert res.final_residual <= 1e-8
    assert vector_norms(res.u_p).h2 <= demo32.rho
    # geometric decay with ratio below the certified factor
    certified = res.bounds.epsilon * res.bounds.sigma
    assert certified < 1.0
    assert all(r <= certified for r in res.contraction_estimates)
    # assembled solution is exactly u0 + u_p
    for cu, c0, cp in zip(res.u.components, res.u0.components, res.u_p.components):
        assert np.all(cu.values == c0.values + cp.values)


@pytest.mark.parametrize(
    "v, match",
    [
        (VectorField.zeros(Grid3(10.0, 32), 2), "grid"),
        (VectorField.zeros(Grid3(20.0, 32), 1), "component count"),
        (VectorField.zeros(Grid3(20.0, 32), 3), "component count"),
    ],
    ids=["grid", "one-component", "three-component"],
)
def test_fields_off_the_problem_are_rejected(demo32, v, match):
    # a v0 off the problem once converged silently or broadcast with numpy's
    # error, and a three-component u once gave a residual
    assert demo32.grid == Grid3(20.0, 32)
    for call in (apply_tau, system_residual, lambda v, p: solve_fixed_point(p, v0=v)):
        with pytest.raises(ValueError, match=match):
            call(v, demo32)


def test_restart_reaches_same_fixed_point(demo32):
    tol = 1e-10
    res0 = solve_fixed_point(demo32, tol=tol)
    v0 = sample_ball(demo32.grid, 2, demo32.rho, np.random.default_rng(77))
    res1 = solve_fixed_point(demo32, tol=tol, v0=v0)
    assert res1.converged
    gap = vector_norms(res0.u_p - res1.u_p).h2
    assert gap <= 10 * tol


def reference_picard(problem, v, tol, max_iter):
    """Picard iteration from v spelled out with the public apply_tau and h2_distance."""
    steps = []
    for _ in range(max_iter):
        v_next = apply_tau(v, problem)
        steps.append(h2_distance(v_next, v))
        v = v_next
        if steps[-1] <= tol:
            break
    return steps, v


@pytest.mark.parametrize(
    "start, max_iter", [("zero", 200), ("sampled", 200), ("zero", 3)], ids=["zero", "v0", "cut-short"]
)
def test_loop_is_bitwise_the_apply_tau_reference(demo32, start, max_iter):
    if start == "zero":
        v0, v = None, VectorField.zeros(demo32.grid, demo32.n_components)
    else:
        v0 = v = sample_ball(demo32.grid, demo32.n_components, 0.5, np.random.default_rng(21))
        start_values = v0.values.copy()
    res = solve_fixed_point(demo32, tol=1e-10, max_iter=max_iter, v0=v0)
    steps, ref = reference_picard(demo32, v, 1e-10, max_iter)
    assert len(steps) == (max_iter if max_iter < 200 else res.iterations)
    assert res.step_norms == steps
    assert np.array_equal(res.u_p.values, ref.values)
    assert np.array_equal(res.u_p.spectrum, ref.spectrum)
    assert res.u_p_norms == vector_norms(ref)
    if v0 is not None:
        # the caller's starting point is read, never written
        assert np.array_equal(v0.values, start_values)


# --- slab boundaries: at n = 64 the pointwise stages run in three slabs of x rows


@pytest.fixture()
def demo64(demo):
    assert demo.grid.points_per_axis == 64 and len(_row_slabs(64)) == 3
    return demo


def bits(a):
    return a.view(np.uint64)


def tau_argument(problem, seed):
    """z = u0 + v for a draw v from the problem's ball, in a buffer of its own."""
    v = sample_ball(problem.grid, problem.n_components, problem.rho, np.random.default_rng(seed))
    return solve_linear_system(problem).values + v.values


def test_tau_step_is_bitwise_the_whole_array_composition(demo64):
    z = tau_argument(demo64, 31)
    g_values = demo64.nonlinearity.eval_components(z)
    ref = _rfft(g_values)
    ref *= np.asarray(demo64.epsilon)[:, None, None, None]
    ref *= _oracles.stored_transfer(spectral_plan(demo64))
    coeff = fixed_point._tau_spectrum(z, demo64, _ball_radius(demo64))
    assert np.array_equal(bits(coeff), bits(ref))
    # the caller's buffer now holds g(z)
    assert np.array_equal(bits(z), bits(g_values))


def test_tau_step_warns_when_only_the_last_slab_leaves_the_ball(demo64, caplog):
    radius = _ball_radius(demo64)
    z = tau_argument(demo64, 32)
    outside = z.copy()
    outside[:, _row_slabs(64)[-1].start, 0, 0] = (1.5 * radius, 0.0)
    with caplog.at_level(logging.WARNING, logger="dualfrac.fixed_point"):
        fixed_point._tau_spectrum(z, demo64, radius)
        assert not caplog.records
        fixed_point._tau_spectrum(outside, demo64, radius)
    assert len(caplog.records) == 1
    assert f"length {1.5 * radius:.6f} left the coupling ball" in caplog.records[0].message


def test_tau_step_reports_the_first_non_finite_component_over_all_slabs(demo64):
    z = tau_argument(demo64, 33)
    first, last = _row_slabs(64)[0], _row_slabs(64)[-1]
    z[1, first.start, 0, 0] = 1e200  # g_1 = 0.4 z_2^2 overflows in the first slab
    z[0, last.start, 0, 0] = 1e200  # g_0 = 0.5 z_1^2 overflows in the last
    with np.errstate(over="ignore"):
        whole = demo64.nonlinearity.eval_components(z)
        assert np.isfinite(whole[:, first]).all(axis=(1, 2, 3)).tolist() == [True, False]
        assert np.isfinite(whole).all(axis=(1, 2, 3)).tolist() == [False, False]
        with pytest.raises(ValueError, match="coupling output for component 0 is not finite"):
            fixed_point._tau_spectrum(z, demo64, _ball_radius(demo64))


def test_residual_in_slabs_is_bitwise_the_whole_array_residual(demo64, monkeypatch):
    u = VectorField(demo64.grid, tau_argument(demo64, 34))
    slabbed = system_residual(u, demo64)
    monkeypatch.setattr(fixed_point, "_row_slabs", lambda n: [slice(0, n)])
    assert slabbed == system_residual(u, demo64)


def test_solution_is_u0_plus_u_p_bitwise(demo64):
    res = solve_fixed_point(demo64)
    u = res.u
    assert np.array_equal(bits(u.values), bits(res.u0.values + res.u_p.values))
    # u0 is values only, so u carries no spectrum, and its norms transform
    # it one component at a time, as the solve's residual did
    assert res.u0.spectrum is None and u.spectrum is None
    assert res.u_norms == vector_norms(u)
    # u_p's values were overwritten with u, then rebuilt from u_p's spectrum
    assert np.array_equal(bits(res.u_p.values), bits(_irfft(res.u_p.spectrum, demo64.grid)))


@pytest.mark.parametrize("n", [32, 64])
def test_u_norms_agree_with_the_summed_spectrum_formula(demo, n):
    problem = demo.with_grid(Grid3(20.0, n))
    res = solve_fixed_point(problem)
    old = _oracles.summed_spectrum_u_norms(res, spectral_plan(problem))
    new = res.u_norms
    # L1, L2 and Linf come from u's values either way; only the H2 term's
    # summation order differs
    assert (new.l1, new.l2, new.linf) == (old.l1, old.l2, old.linf)
    assert abs(new.h2 - old.h2) <= 1e-14 * old.h2


def test_solve_makes_one_transform_per_step_and_residual_operand(demo32, monkeypatch):
    counts = {"_rfft": 0, "_irfft": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {name: counting(name, getattr(spectral, name)) for name in counts}
    for module in (spectral, fixed_point, poisson):
        for name, wrapper in wrappers.items():
            monkeypatch.setattr(module, name, wrapper)
    spectral._cached_plan.cache_clear()
    res = solve_fixed_point(demo32)
    assert res.converged and res.iterations == 4
    # forward: one per Picard step and, in the residual, one of g_m(u) and
    # one of u_m per component, which also give u's H2 term; inverse: u0's
    # in the plan, one per step and u_p's values rebuilt at the end
    assert counts == {"_rfft": 4 + 2 * 2, "_irfft": 1 + 4 + 1}


def test_out_of_certificate_coupling_warns(demo32, caplog):
    strong = demo32.with_epsilon(0.05)  # far above the threshold, still contracting
    with caplog.at_level(logging.WARNING, logger="dualfrac.fixed_point"):
        res = solve_fixed_point(strong, tol=1e-10, max_iter=60)
    assert any("guarantee is void" in r.message for r in caplog.records)
    assert res.final_residual <= 1e-8


def test_contraction_ratio_stabilizes(demo32):
    # push the coupling up so the decay is slow enough to watch: the step
    # ratio settles within 10% of its final value after five iterations
    eps = 120.0 * demo32.epsilon[0]
    res = solve_fixed_point(demo32.with_epsilon(eps), tol=1e-12, max_iter=60)
    ratios = res.contraction_estimates
    assert len(ratios) >= 8
    final = ratios[-1]
    assert all(abs(r - final) <= 0.1 * final for r in ratios[4:])


def test_divergence_detected(demo32):
    huge = demo32.with_epsilon(1500.0 * demo32.epsilon[0])
    with pytest.raises(RuntimeError, match="diverged"):
        solve_fixed_point(huge, tol=1e-12, max_iter=60)


def test_rho_validation(demo32):
    # the solve reads rho from the problem alone, which cannot hold one outside (0, 1]
    for rho in (0.0, 1.5):
        with pytest.raises(ConfigError, match=r"rho: must lie in \(0, 1\]"):
            solve_fixed_point(dataclasses.replace(demo32, rho=rho))


def test_solve_certifies_the_problem_rho(demo):
    # rho = 0.25 once read as the default 1.0 here, and as 0.25 in build_bounds_context
    p = dataclasses.replace(demo.with_grid(Grid3(20.0, 16)), rho=0.25)
    res = solve_fixed_point(p)
    assert res.bounds == build_bounds_context(p)
    assert res.bounds.rho == 0.25


# --- contraction measurement ---------------------------------------------------


def test_measured_ratios_zero_at_zero_coupling(demo32):
    p = demo32.with_epsilon(0.0)
    ratios = measure_contraction(p, trials=3, seed=5)
    assert ratios == [0.0, 0.0, 0.0]


def test_measured_ratios_below_certified_factor(demo32):
    ctx = build_bounds_context(demo32)
    ratios = measure_contraction(demo32, trials=10, seed=5)
    assert max(ratios) < 1.0
    assert max(ratios) <= ctx.epsilon * ctx.sigma


def test_measured_ratios_deterministic_under_seed(demo32):
    a = measure_contraction(demo32, trials=4, seed=9)
    b = measure_contraction(demo32, trials=4, seed=9)
    assert a == b


def test_measured_ratios_use_carried_spectra_without_difference_fields(demo32, monkeypatch):
    # the same draws and taus: the reference spectral gaps, and the gaps
    # taken from real-space differences
    rng = np.random.default_rng(9)
    expected, differenced = [], []
    for _ in range(3):
        v1 = sample_ball(demo32.grid, 2, 1.0, rng)
        v2 = sample_ball(demo32.grid, 2, 1.0, rng)
        t1, t2 = apply_tau(v1, demo32), apply_tau(v2, demo32)
        expected.append(h2_distance(t1, t2) / h2_distance(v1, v2))
        differenced.append(vector_norms(t1 - t2).h2 / vector_norms(v1 - v2).h2)

    def no_difference(self, other):
        raise AssertionError("measure_contraction built a difference field")

    monkeypatch.setattr(VectorField, "__sub__", no_difference)
    ratios = measure_contraction(demo32, trials=3, seed=9)
    assert ratios == expected
    assert ratios == pytest.approx(differenced, rel=1e-12)


def test_measured_ratios_make_no_full_lattice_inverse(demo32, monkeypatch):
    expected = measure_contraction(demo32, trials=2, seed=4)

    def refuse(*args, **kwargs):
        raise AssertionError("measure_contraction inverted a full lattice")

    monkeypatch.setattr(fixed_point, "_irfft", refuse)
    assert measure_contraction(demo32, trials=2, seed=4) == expected


def test_measured_ratios_reject_a_non_finite_image(demo32, monkeypatch):
    step = fixed_point._tau_spectrum

    def overflowing(z, problem, radius):
        coeff = step(z, problem, radius)
        coeff[0, 1, 1, 1] = np.inf
        return coeff

    monkeypatch.setattr(fixed_point, "_tau_spectrum", overflowing)
    with pytest.raises(ValueError, match="not finite"):
        measure_contraction(demo32, trials=1, seed=4)


@pytest.mark.parametrize("rho", [0.0, -0.5, 1.5, float("nan")])
def test_measured_ratios_reject_rho_outside_unit_interval(demo32, rho):
    # rho = 0 used to draw the zero field forever, waiting for a nonzero gap;
    # the ratios read rho from the problem alone, which cannot hold it
    with pytest.raises(ConfigError, match=r"rho: must lie in \(0, 1\]"):
        measure_contraction(dataclasses.replace(demo32, rho=rho), trials=1, seed=0)


@pytest.mark.parametrize("rho", [0.0, -0.5, 1.5, float("nan")])
def test_sample_ball_rejects_rho_outside_unit_interval(demo32, rho):
    with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\]"):
        sample_ball(demo32.grid, 2, rho, np.random.default_rng(0))


# L = 20 grids by n; at n = 44, and at L = 25 with n = 24, some modes on
# the half-Nyquist shell 16 k^2 = n^2 have a floating-point |p| above
# nyquist / 2, so only the integer shell test keeps them as the sampler does
SAMPLER_GRIDS = [Grid3(20.0, n) for n in (2, 4, 6, 18, 32, 44)] + [Grid3(25.0, 24)]


@pytest.mark.parametrize(
    "grid", SAMPLER_GRIDS, ids=lambda g: f"{g.points_per_axis}" if g.box_length == 20.0 else f"L{g.box_length:g}-{g.points_per_axis}"
)
@pytest.mark.parametrize("n_components", [1, 2])
def test_sample_ball_is_bitwise_the_full_lattice_reference(grid, n_components):
    n = grid.points_per_axis
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    for rho in (1.0, 0.3):
        draw = sample_ball(grid, n_components, rho, rng)
        expected = _oracles.full_lattice_sample_ball(grid, n_components, rho, ref_rng)
        # bytes, not values: the signs of zeros must agree too
        assert draw.values.tobytes() == expected.values.tobytes()
        assert draw.spectrum.tobytes() == expected.spectrum.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class _ZeroFirstDraw:
    """A generator whose first ``standard_normal`` draw is all zeros."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.zeroed = False

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        if not self.zeroed:
            self.zeroed = True
            out[...] = 0.0
        return out

    def random(self):
        return self.rng.random()


def test_sample_ball_redraws_a_zero_field_like_the_reference():
    grid = Grid3(20.0, 8)
    rng, ref_rng = _ZeroFirstDraw(3), _ZeroFirstDraw(3)
    draw = sample_ball(grid, 2, 1.0, rng)
    expected = _oracles.full_lattice_sample_ball(grid, 2, 1.0, ref_rng)
    assert np.array_equal(draw.values, expected.values)
    assert np.array_equal(draw.spectrum, expected.spectrum)
    assert vector_norms(draw).h2 > 0.0
    assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state


def test_sample_ball_stays_inside(demo32, rng):
    for _ in range(10):
        v = sample_ball(demo32.grid, 2, 0.7, rng)
        assert 0.0 < vector_norms(v).h2 <= 0.7 + 1e-12


def test_self_mapping_on_sampled_points(demo32, rng):
    for _ in range(5):
        v = sample_ball(demo32.grid, 2, demo32.rho, rng)
        image = apply_tau(v, demo32)
        assert vector_norms(image).h2 <= demo32.rho


# --- system residual ------------------------------------------------------------


def test_residual_of_linear_solution(demo32):
    p = demo32.with_epsilon(0.0)
    u0 = solve_linear_system(p)
    assert system_residual(u0, p) <= 1e-12


def test_residual_of_converged_solution(demo32):
    res = solve_fixed_point(demo32, tol=1e-10)
    assert system_residual(res.u, demo32) <= 1e-8


def test_residual_detects_perturbation(demo32, rng):
    res = solve_fixed_point(demo32, tol=1e-10)
    comps = []
    for c in res.u.values:
        noise = rng.standard_normal(demo32.grid.shape)
        noise *= 0.01 * np.sqrt(np.sum(c**2) / np.sum(noise**2))
        comps.append(c + noise)
    assert system_residual(VectorField(demo32.grid, np.stack(comps)), demo32) >= 1e-3


def test_residual_detects_small_noise_under_exact_spectrum(demo32):
    tol = 1e-10
    res = solve_fixed_point(demo32, tol=tol)
    assert system_residual(res.u, demo32) <= tol
    # 1e-8 relative noise on the values; the carried spectrum stays exact
    # (u carries none, so the clean values' transform is attached)
    noise = np.random.default_rng(16).standard_normal(res.u.values.shape)
    values = res.u.values + 1e-8 * np.max(np.abs(res.u.values)) * noise
    noisy = VectorField(demo32.grid, values, _rfft(res.u.values))
    assert system_residual(noisy, demo32) > tol


# --- continuity -----------------------------------------------------------------


def test_continuity_identical_couplings(demo32):
    g = demo32.nonlinearity
    _, lhs, rhs = continuity_experiment(demo32, g, g)
    assert lhs == 0.0
    assert rhs == 0.0


def test_continuity_bound_holds_for_scaled_coupling(demo32):
    g = demo32.nonlinearity
    _, lhs, rhs = continuity_experiment(demo32, g, g.scaled(1.1))
    assert lhs <= rhs
    assert lhs > 0.0


def test_continuity_gap_uses_carried_spectra_without_difference_fields(demo32, monkeypatch):
    g1 = demo32.nonlinearity
    g2 = g1.scaled(1.1)
    # the same two solves, with the gap taken from the assembled solutions' difference field
    u1, u2 = (solve_fixed_point(demo32.with_nonlinearity(g), tol=CONTINUITY_TOL).u for g in (g1, g2))
    expected = vector_norms(u1 - u2).h2

    def no_difference(self, other):
        raise AssertionError("continuity_experiment built a difference field")

    monkeypatch.setattr(VectorField, "__sub__", no_difference)
    _, lhs, _ = continuity_experiment(demo32, g1, g2)
    assert lhs == pytest.approx(expected, rel=1e-12)


def test_continuity_gap_scales_linearly_in_perturbation(demo32):
    g = demo32.nonlinearity
    gaps = []
    for eta in (0.02, 0.04):
        g2 = g.with_monomial(0, (3, 0), eta)
        _, lhs, rhs = continuity_experiment(demo32, g, g2)
        assert lhs <= rhs
        gaps.append(lhs)
    ratio = gaps[1] / gaps[0]
    assert abs(ratio - 2.0) <= 0.4  # linear within 20%


def test_assembled_solution_is_nontrivial(demo32):
    # nonvanishing influxes force a nonzero stationary state
    res = solve_fixed_point(demo32, tol=1e-10)
    assert vector_norms(res.u).l2 > 0.1


def test_diffusion_coefficients_pinned_to_one(demo32):
    # the coefficients are one by construction: there is no field to set
    with pytest.raises(TypeError, match="diffusion"):
        dataclasses.replace(demo32, diffusion=(1.0, 1.0))
