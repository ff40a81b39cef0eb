import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest

import _oracles
from dualfrac import (
    GaussianSpec,
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
from dualfrac.spectral import SpectralPlan, h2_distance, nonzero_mode_l2, spectral_plan


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
    plan.influx_spectrum(0), plan.influx_spectrum(1), plan.kernel_constants
    for m in range(demo.n_components):
        plan.scale_by_transfer(np.ones(plan.lattice_shape, dtype=complex), m)
    # one fft of the x and y factors and one rfft of the z factors, for the
    # influxes and again for the kernels; the transfer is applied from them
    assert calls == ["fft", "rfft"] * 2
    calls.clear()
    plan.influx_l2, plan.u0_h2
    # the influx norm and u0's H2 terms come from the cached axis spectra
    # and each component's u0_hat: u0 is not inverted
    assert calls == []
    plan.u0
    # reading u0 inverts it, one component at a time
    assert calls == ["ifft", "ifft", "irfft"] * 2


def test_plan_pieces_built_once_under_concurrent_access(demo, realize_calls):
    plan = SpectralPlan(demo.orders, demo.kernels, demo.influxes, Grid3(20.0, 16))
    coeff = np.random.default_rng(17).standard_normal((2,) + plan.lattice_shape) + 0j

    def work(m):
        # each call multiplies a copy of its own, in slab buffers of its own
        return plan._kernel_pieces, plan._linear_pieces, plan.u0, plan.scale_by_transfer(coeff[m].copy(), m)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, i % 2) for i in range(32)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(previous)
    first = results[0]
    assert all(all(a is b for a, b in zip(r[:2], first[:2])) for r in results)
    expected = coeff * _oracles.stored_transfer(plan)
    for i, r in enumerate(results):
        assert np.array_equal(r[3].view(np.uint64), expected[i % 2].view(np.uint64))
    (_, signed), u0 = first[0], first[2]
    inverse = plan.inverse_symbols
    # only the kernel constant H samples the kernels; u0 realizes nothing
    assert len(realize_calls) == sum(len(k) for k in demo.kernels)
    assert not any(a.flags.writeable for axes in signed for a in axes)
    assert not any(table.flags.writeable for table in inverse)
    # every read of u0 built values of its own, which its reader may write
    assert len({id(r[2].values) for r in results}) == len(results)
    assert all(np.array_equal(r[2].values, u0.values) for r in results)
    u0.components[0].values[0, 0, 0] = 1.0
    assert not np.array_equal(u0.values, plan.u0.values)


def test_u0_dropped_by_every_caller_is_rebuilt_alike_under_concurrent_access(demo):
    # each task drops u0 at once, so builds race: every build must give the
    # same values, and the norms' terms must come from one pass
    plan = SpectralPlan(demo.orders, demo.kernels, demo.influxes, Grid3(20.0, 16))
    expected = plan.u0_plus()

    def work(_):
        u0 = plan.u0
        return u0.values.copy(), plan.u0_norms(u0), plan._linear_pieces

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, i) for i in range(32)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(previous)
    assert all(np.array_equal(values, expected) for values, _, _ in results)
    assert all(norms == results[0][1] and pieces is results[0][2] for _, norms, pieces in results)
    assert lattice_size_arrays(plan) == []


def test_u0_reads_are_distinct_writable_and_bitwise_equal(demo):
    plan = SpectralPlan(demo.orders, demo.kernels, demo.influxes, Grid3(20.0, 16))
    a, b = plan.u0, plan.u0
    assert a.values is not b.values and not np.shares_memory(a.values, b.values)
    assert a.values.flags.writeable and b.values.flags.writeable
    assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
    assert np.array_equal(a.values.view(np.uint64), plan.u0_plus().view(np.uint64))
    # the plan keeps neither
    assert lattice_size_arrays(plan) == []


@pytest.mark.parametrize("n", [16, 32, 96])
@pytest.mark.parametrize("one_row_slabs", [False, True], ids=["default_slabs", "one_row_slabs"])
def test_scale_by_transfer_is_bitwise_the_stored_transfer_product(demo, monkeypatch, n, one_row_slabs):
    plan = SpectralPlan(demo.orders, demo.kernels, demo.influxes, Grid3(20.0, n))
    assert len(spectral._row_slabs(n)) == (8 if n == 96 else 1)
    if one_row_slabs:
        monkeypatch.setattr(spectral, "SLAB_BYTES", 1)
        assert len(spectral._row_slabs(n)) == n
    stored = _oracles.stored_transfer(plan)
    # the components' transfers differ, so a swapped component index fails
    assert not np.array_equal(stored[0], stored[1])
    rng = np.random.default_rng(n)
    for m, transfer in enumerate(stored):
        coeff = rng.standard_normal(plan.lattice_shape) + 1j * rng.standard_normal(plan.lattice_shape)
        expected = coeff * transfer
        assert plan.scale_by_transfer(coeff, m) is coeff
        assert np.array_equal(coeff.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n", [16, 32, 96])
def test_transfer_is_the_realized_kernel_spectrum_over_the_symbol(demo, n):
    # Independent of the separable build: numpy's rfftn of the sampled
    # kernel, the centre phase (-1)^(k1+k2+k3), h^3, and the symbol formed
    # per mode from |p|, with p = 0 set to zero.  An off-centre two-term
    # kernel gives a complex spectrum and a sum in the outer product.
    grid = Grid3(20.0, n)
    kernels = (
        (GaussianSpec(1.0, 1.0, (0.3, -0.2, 0.1)), GaussianSpec(-0.4, 2.0, (0.0, 0.0, 0.5))),
        demo.kernels[1],
    )
    plan = SpectralPlan(demo.orders, kernels, demo.influxes, grid)
    sign = 1.0 - 2.0 * (np.arange(n) % 2)
    phase = sign[:, None, None] * sign[None, :, None] * sign[None, None, : n // 2 + 1]
    p = _oracles.wavenumber_rows(grid)
    nonzero = p > 0.0
    for m, (kernel, s1, s2) in enumerate(zip(kernels, demo.orders.s1, demo.orders.s2)):
        expected = np.fft.rfftn(problems.realize_gaussian_sum(kernel, grid).values) * phase * grid.cell_volume
        expected[nonzero] /= p[nonzero] ** (2.0 * s1) + p[nonzero] ** (2.0 * s2)
        expected[~nonzero] = 0.0
        transfer = plan.scale_by_transfer(np.ones(plan.lattice_shape, dtype=complex), m)
        assert transfer[0, 0, 0] == 0.0
        assert np.linalg.norm(transfer - expected) <= 1e-12 * np.linalg.norm(expected)


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


@pytest.mark.parametrize("n_components", [1, 2, 3])
def test_norms_of_a_field_without_spectrum_transform_one_component_at_a_time(grid16, grid32, n_components):
    u = VectorField(grid32, np.random.default_rng(16).standard_normal((n_components,) + grid32.shape))
    vector_norms(VectorField(grid16, np.ones((1,) + grid16.shape)))  # first-call set-up, on another grid
    # From a cold start on this grid: one component's half spectrum (1.03
    # arrays), dropped before the pointwise length (1.0) is taken, whatever N
    # is, and the H2 term's row weights, 1.14 measured.  A cached |p|^4
    # weight array (0.53), built on first use, read 1.61; the stacked
    # spectrum beside the length read 3.1 at N = 2.
    assert traced_peak(lambda: vector_norms(u)) <= 1.2 * u.values[0].nbytes


def test_continuity_holds_little_beyond_one_solve(demo32):
    _, g1, g2 = problems.continuity_pairs(demo32.nonlinearity)[0]
    continuity_experiment(demo32, g1, g2)  # build the plan pieces first
    field_bytes = solve_linear_system(demo32).values.nbytes
    one_solve = traced_peak(lambda: solve_fixed_point(demo32, tol=CONTINUITY_TOL))
    # the first solve's u_p half spectrum (1.03 fields) is all that outlives
    # it: 1.07 measured, against 2.07 while u_p's values were kept too
    assert traced_peak(lambda: continuity_experiment(demo32, g1, g2)) <= one_solve + 1.25 * field_bytes


# Peak numpy memory of one demo solve at n = 64, in n^3 float64 arrays, plan
# build included.  The plan holds no lattice-size array: the live data are
# the iterate's half spectrum (2.06) and, at the end, u_p's values (2.0).  A
# Picard step holds z, formed as one inverse transform of u0_hat + v_hat,
# over which g(z) is written slab by slab, the previous spectrum and the new
# one; the residual stage holds u, formed the same way, u_p's spectrum and
# one component's g_m(u) and its transforms, sums u's H2 term from its
# transforms of u and forms the defect in place in the two transforms.
# Both reach about 7.1 when they multiply by the transfer, which is formed
# in slab buffers (a slab of coefficients, its shell index and its gathered
# inverse symbol, 1.0 at n = 64, where a slab is 31 of the 64 rows): 7.30
# measured for each.  A plan that kept u0's values (2.0), added in real
# space to each iterate's values, read 9.24 at both stages; one that also
# kept the transfer (2.06) read 10.7, at the residual stage (10.6 in a
# Picard step); with each slab's symbol, its product with the transfer and
# its f_hat rows, 11.0; with cached H2 weights (0.51) as well, 11.5; a plan
# that also kept |p| and the symbols (1.55) read 12.7, at a Picard step;
# one that also kept u0's spectrum (2.1), with u's norms taken on that plus
# u_p's spectrum, read 15.4, at u's norms; a whole-array pointwise stage
# (g(z) stacked beside z, a full-size monomial buffer) and u's values
# beside u_p's read 16.6; holding each iterate's values beside z and g(z),
# and the whole g(u) with its spectrum in the residual, reached 18.3; a
# plan that also kept the stacked influx spectra (2.1) reached 20.5.
SOLVE_PEAK_ARRAYS = 8.3


def test_solve_peak_stays_under_the_memory_ceiling(monkeypatch):
    problem = problems.demo_problem()
    unit = 8 * problem.grid.points_per_axis**3
    spectral._cached_plan.cache_clear()
    residual_peaks, earlier_peaks = [], []
    residual = fixed_point._residual_and_h2_terms

    def traced_residual(u, problem):
        earlier_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        value = residual(u, problem)
        residual_peaks.append(tracemalloc.get_traced_memory()[1])
        return value

    monkeypatch.setattr(fixed_point, "_residual_and_h2_terms", traced_residual)
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
    influx_spectra = np.stack(
        [spectral._gaussian_rows(axes) for axes in spectral._gaussian_axis_spectra(demo32.influxes, demo32.grid)]
    )
    for m, spectrum in enumerate(influx_spectra):
        np.testing.assert_array_equal(plan.influx_spectrum(m), spectrum)
    for seed in (14, 15):
        u = u0 + sample_ball(demo32.grid, 2, demo32.rho, np.random.default_rng(seed))
        g_values = np.stack(demo32.nonlinearity.eval_components(list(u.values)))
        coeff_u, coeff_g = np.fft.rfftn(np.stack([u.values, g_values]), axes=(-3, -2, -1))
        eps = np.asarray(demo32.epsilon)[:, None, None, None]
        shell = spectral._shell_rows(demo32.grid, slice(None))
        symbols = np.stack([plan.symbols[m][shell] for m in range(demo32.n_components)])
        lhs = symbols * coeff_u
        rhs = eps * symbols * _oracles.stored_transfer(plan) * coeff_g + influx_spectra
        batched = nonzero_mode_l2(lhs - rhs, demo32.grid) / plan.influx_l2
        assert abs(system_residual(u, demo32) - batched) <= 1e-12 * batched


def test_plan_u0_norms_are_computed_once_and_only_for_its_own_u0(demo32):
    plan = spectral_plan(demo32)
    assert plan._linear_pieces is plan._linear_pieces
    # u0 is values only; its H2 terms were taken on its division spectrum
    # f_hat / symbol, whose inverse transform the values are
    u0 = plan.u0
    assert u0.spectrum is None
    division = _oracles.u0_division_spectrum(plan)
    assert np.array_equal(u0.values, spectral._irfft(division, demo32.grid))
    norms = plan.u0_norms(u0)
    assert norms == vector_norms(VectorField(demo32.grid, u0.values, division))
    assert norms.h2 == plan.u0_h2


def plan_arrays(plan):
    """Every array the plan holds, through its cached pieces."""
    arrays = []

    def collect(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, VectorField):
            collect(value.values)
            collect(value.spectrum)
        elif isinstance(value, tuple):
            for v in value:
                collect(v)

    for value in vars(plan).values():
        collect(value)
    return arrays


def lattice_size_arrays(plan):
    return [a for a in plan_arrays(plan) if a.size >= np.prod(plan.lattice_shape)]


def test_solve_leaves_no_influx_spectra_in_the_plan(demo32, tmp_path):
    result = solve_fixed_point(demo32)
    plan = spectral_plan(demo32)
    # none at all: u0's values are formed inside each step's inverse
    # transform and the solve holds none, f_hat is rebuilt when it is asked
    # for, the transfer is applied slab by slab from 1-D pieces, and neither
    # |p|, a symbol nor an H2 weight is kept
    assert lattice_size_arrays(plan) == []
    # reading u0 builds values that its reader owns: the plan keeps none
    u0 = result.u0
    assert u0.spectrum is None
    assert lattice_size_arrays(plan) == []
    # the threaded sweep leaves none either: its solves run on the same plan
    run = ["sweep-epsilon", "--config", "demo", "--grid", "32", "--out", str(tmp_path)]
    assert cli.run_command(run) == 0
    assert spectral_plan(demo32) is plan
    assert lattice_size_arrays(plan) == []


def test_one_row_slabs_give_bitwise_the_default_slabs(demo32, monkeypatch):
    n = demo32.grid.points_per_axis

    def pieces():
        spectral._cached_plan.cache_clear()
        plan = spectral_plan(demo32)
        shells = [spectral._shell_rows(demo32.grid, rows) for rows in spectral._row_slabs(n)]
        symbols = [np.concatenate([plan.symbols[m][shell] for shell in shells]) for m in range(demo32.n_components)]
        results = cli._cmd_solve_linear(demo32, None, None)[0]
        residuals = [(c["forward_residual"], c["regularity_residual"]) for c in results["components"]]
        transfers = [plan.scale_by_transfer(np.ones(plan.lattice_shape, dtype=complex), m) for m in range(2)]
        arrays = symbols + [plan.u0.values] + transfers
        return [a.tobytes() for a in arrays], plan.kernel_constants, residuals

    try:
        default = pieces()
        monkeypatch.setattr(spectral, "SLAB_BYTES", 1)
        assert len(spectral._row_slabs(n)) == n
        assert pieces() == default
    finally:
        spectral._cached_plan.cache_clear()


# Peak numpy memory of `solve-linear --dump-fields` on the demo at n = 64, in
# n^3 float64 arrays, plan build included: the plan's u0 build, each
# component's division spectrum formed in one work buffer and inverted into
# u0's values; 5.28 measured.  The checks that follow hold u0's values
# (2.0) plus one component's two half-lattice buffers, u_hat and f_hat
# (which also holds the forward defect), and slab-sized gathers of the
# shell tables.  Cached H2 weights
# (0.51) read 5.8; a plan that also kept |p| and the symbols read 7.3; one
# that also kept u0's spectrum read 9.5; a third buffer for the defect and
# whole-lattice symbol temporaries reached 10.5; sampling the influxes,
# keeping their stacked spectra in the plan and copying each snapshot into
# bytes reached 14.5.
SOLVE_LINEAR_PEAK_ARRAYS = 7.2

# The same for the `solve` subcommand, which reports the norms the solve
# took and stores no u: its peak is the solve's, 7.28 measured.  A plan
# that kept u0's values read 9.27; one that also kept the transfer read
# 10.7, 11.0 with slab-wise symbol and f_hat rows, 11.6 with cached H2
# weights.  A plan that also kept |p| and the symbols read 12.6, at a
# Picard step; one that also kept u0's spectrum, with u's norms taken on
# that plus u_p's, read 15.4; keeping u's values and spectrum beside u_p and
# taking its norms after the solve read 17.4.
SOLVE_COMMAND_PEAK_ARRAYS = 8.3

# The same for `verify-bounds`, 2.27 measured: the bounds take u0's H2
# norm from each component's u0_hat in one work buffer and build no u0
# values, so the peak is the kernel build's, where H realizes one kernel
# sum beside its term.
VERIFY_BOUNDS_PEAK_ARRAYS = 3.3

# The same for `contraction --trials 2`: 11.26 measured after the other
# subcommands, or 11.76 when it is the process's first run and its peak
# also holds the numpy.random import.  A plan that kept the transfer read
# 13.3 and 13.8; with cached H2 weights, 14.1 after the other subcommands;
# 15.4 and 15.9 while the plan also kept |p| and the symbols, 17.4 and
# 17.8 while it also kept u0's spectrum.
CONTRACTION_PEAK_ARRAYS = 12.8

# The same for `continuity`: 9.34 measured, the second solve's Picard step
# or residual stage beside the first solve's u_p spectrum.  A plan that
# kept u0's values read 11.34; one that also kept the transfer read 12.8;
# 13.1 with slab-wise symbol and f_hat rows, 13.6 with cached H2 weights,
# 14.7 while the plan also kept |p| and the symbols, 17.4 while it also
# kept u0's spectrum.  Keeping a stacked g(z) beside z in the Picard step
# read 20.7.
CONTINUITY_PEAK_ARRAYS = 10.4


def command_peak_arrays(argv, tmp_path):
    """Peak numpy memory of one CLI run on the demo, plan build included, in n^3 arrays."""
    n = problems.demo_problem().grid.points_per_axis
    spectral._cached_plan.cache_clear()
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


@pytest.mark.parametrize(
    "argv, plain_builds",
    [
        (["solve-linear", "--dump-fields"], 1),
        (["verify-bounds"], 0),
        # a solve reads u0 once, whose values are its first z
        (["solve"], 1),
        # the snapshots read u0 again after the solve
        (["solve", "--dump-fields"], 2),
        (["contraction", "--trials", "2"], 1),
        (["sweep-epsilon"], 4),
        (["continuity"], 2 * len(problems.continuity_pairs(problems.demo_problem().nonlinearity))),
        (["solvability"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_no_subcommand_builds_u0_twice(argv, plain_builds, tmp_path, monkeypatch):
    # u0's values are built once per reader (a plain u0_plus()), and its
    # norms' terms once per process, in a pass that inverts nothing; no plan
    # holds an array of lattice size once the subcommand returns
    monkeypatch.setenv("FRAC_THREADS", "1")
    counts = {"pass": 0, "plain": 0}
    linear_pieces, u0_plus = SpectralPlan.__dict__["_linear_pieces"].build, SpectralPlan.u0_plus
    plans = []

    def counting_pieces(self):
        counts["pass"] += 1
        return linear_pieces(self)

    def counting_u0_plus(self, coeff=None):
        counts["plain"] += coeff is None
        return u0_plus(self, coeff)

    def recording_plan(*key):
        plans.append(SpectralPlan(*key))
        return plans[-1]

    counting_pieces.__name__ = "_linear_pieces"
    monkeypatch.setattr(SpectralPlan, "_linear_pieces", spectral._once(counting_pieces))
    monkeypatch.setattr(SpectralPlan, "u0_plus", counting_u0_plus)
    monkeypatch.setattr(spectral, "_cached_plan", lru_cache(maxsize=1)(recording_plan))
    run = [argv[0], "--config", "demo", "--grid", "16", "--out", str(tmp_path)] + argv[1:]
    assert cli.run_command(run) == 0
    assert counts == {"pass": 0 if argv[0] == "solvability" else 1, "plain": plain_builds}
    assert len(plans) == (0 if argv[0] == "solvability" else 1)
    assert all(lattice_size_arrays(plan) == [] for plan in plans)
