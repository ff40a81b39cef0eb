import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dualfrac import (
    Grid3,
    ScalarField,
    VectorField,
    apply_tau,
    continuity_experiment,
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
from dualfrac import cli, fixed_point, problems, spectral
from dualfrac.fixed_point import CONTINUITY_TOL
from dualfrac.spectral import SpectralPlan, h2_distance, half_lattice, relative_defect, spectral_plan


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


def test_planned_tau_matches_full_layout_composition(demo32):
    u0 = solve_linear_system(demo32)
    v = sample_ball(demo32.grid, 2, demo32.rho, np.random.default_rng(11))
    out = apply_tau(v, demo32)

    z = [a.values + b.values for a, b in zip(u0.components, v.components)]
    g_values = demo32.nonlinearity.eval_components(z)
    kernels = [problems.realize_gaussian_sum(k, demo32.grid) for k in demo32.kernels]
    for m in range(demo32.n_components):
        rhs = demo32.epsilon[m] * convolve(kernels[m], ScalarField(demo32.grid, g_values[m]))
        ref = solve_double_fractional(rhs, demo32.orders.s1[m], demo32.orders.s2[m], "drop")
        assert relative_l2(out.components[m].values, ref.values) <= 1e-12


def test_carried_step_norm_matches_real_space_difference(demo32):
    v = sample_ball(demo32.grid, 2, demo32.rho, np.random.default_rng(12))
    a = apply_tau(v, demo32)
    b = apply_tau(a, demo32)
    step = b - a
    assert step.spectrum is not None
    carried = vector_norms(step).h2

    fresh = VectorField(demo32.grid, b.values - a.values)
    assert fresh.spectrum is None
    assert abs(carried - vector_norms(fresh).h2) <= 1e-12 * carried
    # the Picard loop's step norm: Plancherel on the two carried spectra
    assert abs(h2_distance(b, a) - vector_norms(fresh).h2) <= 1e-12 * carried
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
    # only the kernel constant H samples: each kernel Gaussian, once for all variants
    assert len(realize_calls) == sum(len(k) for k in base.kernels)


def test_linear_solve_realizes_no_kernel(demo, realize_calls):
    p = demo.with_grid(Grid3(18.0, 16))
    solve_linear_system(p)
    # the influx spectra come from the Gaussians' separability: nothing is sampled in 3-D
    assert realize_calls == []


def test_plan_data_makes_no_3d_transform(demo, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    plan = SpectralPlan(demo.orders, demo.kernels, demo.influxes, Grid3(20.0, 16))
    plan.influx_spectrum(0), plan.influx_spectrum(1), plan.transfer, plan.kernel_constants
    # one fft of the x and y factors and one rfft of the z factors, for the
    # influxes and again for the kernels
    assert calls == ["fft", "rfft"] * 2
    calls.clear()
    plan.influx_l2
    # the influx norm comes with u0, from the cached axis spectra: only u0's
    # inverse transform runs, one component at a time
    assert calls == ["ifft", "ifft", "irfft"] * 2


def test_plan_pieces_built_once_under_concurrent_access(demo, realize_calls):
    half_lattice.cache_clear()  # a fresh lattice, so its lazy weights race too
    plan = SpectralPlan(demo.orders, demo.kernels, demo.influxes, Grid3(20.0, 16))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(lambda: (plan.transfer, plan.u0, plan.u0_norms, plan.lattice.h2_weights))
                for _ in range(32)
            ]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(previous)
    first = results[0]
    assert all(all(a is b for a, b in zip(r, first)) for r in results)
    transfer, u0 = first[:2]
    # only the kernel constant H samples the kernels; u0 realizes nothing
    assert len(realize_calls) == sum(len(k) for k in demo.kernels)
    assert not transfer.flags.writeable
    assert not u0.values.flags.writeable
    with pytest.raises(ValueError):
        u0.components[0].values[0, 0, 0] = 1.0


# At most this many stacked fields' worth of bytes are alive at once inside
# one call: tau's result (values plus half spectrum, about two) and one more
# for the transform in flight.  The earlier batched layout reached 5.2
# (apply_tau) and 7.5 (system_residual) on demo32.
WORKING_SET_FIELDS = 4.0


def traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_tau_and_residual_work_on_a_bounded_working_set(demo32):
    u0 = solve_linear_system(demo32)
    v = sample_ball(demo32.grid, 2, demo32.rho, np.random.default_rng(13))
    u = u0 + v
    apply_tau(v, demo32)  # build the plan pieces first
    system_residual(u, demo32)
    field_bytes = u.values.nbytes
    assert traced_peak(lambda: apply_tau(v, demo32)) <= WORKING_SET_FIELDS * field_bytes
    assert traced_peak(lambda: system_residual(u, demo32)) <= WORKING_SET_FIELDS * field_bytes


def test_continuity_holds_little_beyond_one_solve(demo32):
    _, g1, g2 = problems.continuity_pairs(demo32.nonlinearity)[0]
    continuity_experiment(demo32, g1, g2)  # build the plan pieces first
    field_bytes = solve_linear_system(demo32).values.nbytes
    one_solve = traced_peak(lambda: solve_fixed_point(demo32, tol=CONTINUITY_TOL))
    # the first solve's u_p half spectrum (1.03 fields) is all that outlives
    # it: 1.07 measured, against 2.07 while u_p's values were kept too
    assert traced_peak(lambda: continuity_experiment(demo32, g1, g2)) <= one_solve + 1.25 * field_bytes


# Peak numpy memory of one demo solve at n = 64, in n^3 float64 arrays, plan
# build included.  The live data are the plan (about 8.2) and u_p with its
# half spectrum (4.1).  A Picard step adds z = u0 + v, over which g(z) is
# written slab by slab, and the previous spectrum; the residual stage adds
# one component's g_m(u) and its transforms, with u formed in u_p's values
# buffer; u's norms, the peak at 15.4, add u's summed spectrum and its
# pointwise length.  A whole-array pointwise stage (g(z) stacked beside z, a
# full-size monomial buffer) and u's values beside u_p's read 16.6; holding
# each iterate's values beside z and g(z), and the whole g(u) with its
# spectrum in the residual, reached 18.3; a plan that also kept the stacked
# influx spectra (2.1) reached 20.5.
SOLVE_PEAK_ARRAYS = 15.8


def test_solve_peak_stays_under_the_memory_ceiling(monkeypatch):
    problem = problems.demo_problem()
    unit = 8 * problem.grid.points_per_axis**3
    spectral._cached_plan.cache_clear()
    spectral.half_lattice.cache_clear()
    residual_peaks, earlier_peaks = [], []
    residual = fixed_point.system_residual

    def traced_residual(u, problem):
        earlier_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        value = residual(u, problem)
        residual_peaks.append(tracemalloc.get_traced_memory()[1])
        return value

    monkeypatch.setattr(fixed_point, "system_residual", traced_residual)
    tracemalloc.start()
    try:
        result = solve_fixed_point(problem)
        final_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        spectral._cached_plan.cache_clear()
    assert result.converged
    assert len(residual_peaks) == 1
    assert residual_peaks[0] <= SOLVE_PEAK_ARRAYS * unit
    assert max(earlier_peaks + residual_peaks + [final_peak]) <= SOLVE_PEAK_ARRAYS * unit


def test_residual_matches_batched_formula(demo32):
    plan = spectral_plan(demo32)
    u0 = solve_linear_system(demo32)
    influx_spectra = spectral._gaussian_half_spectra(demo32.influxes, demo32.grid)
    for m, spectrum in enumerate(influx_spectra):
        np.testing.assert_array_equal(plan.influx_spectrum(m), spectrum)
    for seed in (14, 15):
        u = u0 + sample_ball(demo32.grid, 2, demo32.rho, np.random.default_rng(seed))
        g_values = np.stack(demo32.nonlinearity.eval_components(list(u.values)))
        coeff_u, coeff_g = np.fft.rfftn(np.stack([u.values, g_values]), axes=(-3, -2, -1))
        eps = np.asarray(demo32.epsilon)[:, None, None, None]
        lhs = plan.symbols * coeff_u
        rhs = eps * plan.symbols * plan.transfer * coeff_g + influx_spectra
        batched = relative_defect(lhs, rhs, demo32.grid, reference=plan.influx_l2)
        assert abs(system_residual(u, demo32) - batched) <= 1e-12 * batched


def test_plan_u0_norms_are_computed_once_and_only_for_its_own_u0(demo32):
    plan = spectral_plan(demo32)
    assert plan.u0_norms is plan.u0_norms
    assert plan.u0_norms == vector_norms(plan.u0)


def test_solve_leaves_no_influx_spectra_in_the_plan(demo32):
    result = solve_fixed_point(demo32)
    plan = spectral_plan(demo32)
    stacks = []

    def collect(value):
        if isinstance(value, np.ndarray):
            stacks.append(value)
        elif isinstance(value, VectorField):
            collect(value.values)
            collect(value.spectrum)
        elif isinstance(value, tuple):
            for v in value:
                collect(v)

    for value in vars(plan).values():
        collect(value)
    stack_shape = (demo32.n_components,) + half_lattice(demo32.grid).wavenumbers.shape
    complex_stacks = [a for a in stacks if a.shape == stack_shape and np.iscomplexobj(a)]
    # u0's carried spectrum and the transfer; f_hat is rebuilt when it is asked for
    assert sorted(map(id, complex_stacks)) == sorted(map(id, (result.u0.spectrum, plan.transfer)))


# Peak numpy memory of `solve-linear --dump-fields` on the demo at n = 64, in
# n^3 float64 arrays, plan build included: the plan (wavenumbers, symbols,
# u0's values and spectrum, H2 weights, about 6.1) plus one component's two
# half-lattice buffers, u_hat and f_hat (which also holds the forward defect),
# and slab-sized symbol temporaries; 9.5 measured.  A third buffer for the
# defect and whole-lattice symbol temporaries reached 10.5; sampling the
# influxes, keeping their stacked spectra in the plan and copying each
# snapshot into bytes reached 14.5.
SOLVE_LINEAR_PEAK_ARRAYS = 11.0

# The same for the `solve` subcommand, which reports the norms the solve
# took and stores no u: 15.4 measured.  Keeping u's values and spectrum
# beside u_p and taking its norms after the solve read 17.4.
SOLVE_COMMAND_PEAK_ARRAYS = 15.9

# The same for `verify-bounds`, whose peak is the plan's kernel build on top
# of u0: 9.6 measured.  Taking |kernel| into a second array, the filtered
# spectrum and the centre phase as whole-lattice temporaries reached 9.8.
VERIFY_BOUNDS_PEAK_ARRAYS = 10.5

# The same for `contraction --trials 2`: 17.4 measured, 17.8 when it is the
# process's first run and its peak also holds the numpy.random import.
CONTRACTION_PEAK_ARRAYS = 18.3

# The same for `continuity`: 17.4 measured.  Keeping a stacked g(z) beside
# z in the Picard step read 20.7.
CONTINUITY_PEAK_ARRAYS = 17.9


def command_peak_arrays(argv, tmp_path):
    """Peak numpy memory of one CLI run on the demo, plan build included, in n^3 arrays."""
    n = problems.demo_problem().grid.points_per_axis
    spectral._cached_plan.cache_clear()
    spectral.half_lattice.cache_clear()
    run = [argv[0], "--config", "demo", "--out", str(tmp_path)] + argv[1:]
    try:
        peak = traced_peak(lambda: cli.run_command(run))
    finally:
        spectral._cached_plan.cache_clear()
    assert (tmp_path / "report.json").is_file()
    return peak / (8 * n**3)


def test_solve_linear_peak_stays_under_the_memory_ceiling(tmp_path):
    peak = command_peak_arrays(["solve-linear", "--dump-fields"], tmp_path)
    assert (tmp_path / "u0_1.fsf").is_file()
    assert peak <= SOLVE_LINEAR_PEAK_ARRAYS


def test_verify_bounds_peak_stays_under_the_memory_ceiling(tmp_path):
    assert command_peak_arrays(["verify-bounds"], tmp_path) <= VERIFY_BOUNDS_PEAK_ARRAYS


def test_solve_command_peak_stays_under_the_memory_ceiling(tmp_path):
    assert command_peak_arrays(["solve"], tmp_path) <= SOLVE_COMMAND_PEAK_ARRAYS


def test_contraction_peak_stays_under_the_memory_ceiling(tmp_path):
    assert command_peak_arrays(["contraction", "--trials", "2"], tmp_path) <= CONTRACTION_PEAK_ARRAYS


def test_continuity_peak_stays_under_the_memory_ceiling(tmp_path):
    assert command_peak_arrays(["continuity"], tmp_path) <= CONTINUITY_PEAK_ARRAYS
