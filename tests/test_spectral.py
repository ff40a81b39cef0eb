import math
import tracemalloc
import warnings

import numpy as np
import pytest

import _oracles
from dualfrac import (
    GaussianSpec,
    Grid3,
    ScalarField,
    Spectrum,
    VectorField,
    convolve,
    field_norms,
    forward_transform,
    inverse_transform,
    demo_problem,
    solve_double_fractional,
    vector_norms,
)
from dualfrac import spectral
from dualfrac.problems import realize_gaussian_sum, solvability_sweep_cases
from dualfrac.spectral import (
    _band_limit,
    _gaussian_axis_spectra,
    _gaussian_rows,
    _h2_gap,
    _h2_power,
    _irfft,
    _plancherel_weights,
    _rfft,
    _row_power,
    nonzero_mode_l2,
    spectrum_l2,
    two_exponent_symbol,
)

TP = 2.0 * np.pi
ULP = np.finfo(float).eps


def gaussian(grid, a=1.0):
    x, y, z = grid.meshes
    return ScalarField(grid, np.exp(-a * (x**2 + y**2 + z**2)))


def test_constant_field_transforms_to_zero_mode_only(grid16):
    c = 2.7
    f = ScalarField(grid16, np.full(grid16.shape, c))
    spec = forward_transform(f)
    L = grid16.box_length
    expected = TP ** -1.5 * c * L**3
    assert abs(spec.coefficients[0, 0, 0] - expected) <= 1e-12 * abs(expected)
    rest = spec.coefficients.copy()
    rest[0, 0, 0] = 0.0
    assert np.max(np.abs(rest)) <= 1e-12 * abs(expected)


def test_cosine_transforms_to_two_modes(grid16):
    # p0 on the lattice: k = 2 along x
    p0 = 2 * TP / grid16.box_length
    x, _, _ = grid16.meshes
    f = ScalarField(grid16, np.cos(p0 * x))
    spec = forward_transform(f)
    L = grid16.box_length
    expected = TP ** -1.5 * L**3 / 2.0
    assert abs(spec.coefficients[2, 0, 0] - expected) <= 1e-12 * expected
    assert abs(spec.coefficients[-2, 0, 0] - expected) <= 1e-12 * expected
    rest = spec.coefficients.copy()
    rest[2, 0, 0] = 0.0
    rest[-2, 0, 0] = 0.0
    assert np.max(np.abs(rest)) <= 1e-12 * expected


def test_gaussian_transform_matches_analytic(grid64):
    spec = forward_transform(gaussian(grid64))
    pm = grid64.wavenumbers
    analytic = 2.0**-1.5 * np.exp(-(pm**2) / 4.0)
    assert np.max(np.abs(spec.coefficients - analytic)) <= 1e-8


def test_forward_transform_rejects_nonfinite(grid16):
    f = ScalarField.zeros(grid16)
    object.__setattr__(f, "values", np.full(grid16.shape, np.inf))
    with pytest.raises(ValueError, match="finite"):
        forward_transform(f)


def test_round_trip_identity_on_random_fields(grid32, rng):
    for _ in range(5):
        f = ScalarField(grid32, rng.standard_normal(grid32.shape))
        back = inverse_transform(forward_transform(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * scale


def test_inverse_of_zero_spectrum_is_zero(grid16):
    f = inverse_transform(Spectrum(grid16, np.zeros(grid16.shape, dtype=complex)))
    assert np.all(f.values == 0.0)


def test_cosine_round_trip_pointwise(grid16):
    p0 = TP / grid16.box_length
    x, _, _ = grid16.meshes
    f = ScalarField(grid16, np.cos(p0 * x))
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


def test_parseval_on_random_symmetric_spectrum(grid16, rng):
    # a real field's spectrum is the canonical conjugate-symmetric sample
    f = ScalarField(grid16, rng.standard_normal(grid16.shape))
    spec = forward_transform(f)
    # direct summation on both sides, no library norm helpers
    h3 = grid16.cell_volume
    real_side = h3 * float(np.sum(f.values**2))
    spectral_side = grid16.mode_volume * float(np.sum(np.abs(spec.coefficients) ** 2))
    assert abs(real_side - spectral_side) <= 1e-12 * real_side


def test_asymmetric_spectrum_rejected(grid16, rng):
    f = ScalarField(grid16, rng.standard_normal(grid16.shape))
    # the inverse reads only k3 <= n/2, so an edit above it must be rejected too
    for idx in [(1, 2, 3), (1, 2, 12)]:
        coeff = forward_transform(f).coefficients.copy()
        coeff[idx] += 10.0  # breaks coeff(-p) == conj(coeff(p))
        with pytest.raises(ValueError, match="conjugate"):
            inverse_transform(Spectrum(grid16, coeff))


def test_transforms_match_dense_dft_oracles(grid16, rng):
    # a random field fills every mode, the mirrored ones with k3 > n/2 included
    f = ScalarField(grid16, rng.standard_normal(grid16.shape))
    oracle = _oracles.dft3(f.values, grid16)
    coeff = forward_transform(f).coefficients
    assert np.max(np.abs(coeff - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    expected = _oracles.idft3(oracle, grid16)
    back = inverse_transform(Spectrum(grid16, oracle)).values
    assert np.max(np.abs(back - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_public_spectral_functions_make_no_full_layout_fft(grid16, rng, monkeypatch):
    # every 3-D transform runs on the half lattice, through _rfft/_irfft
    def refuse(*args, **kwargs):
        raise AssertionError("full-layout numpy.fft transform called")

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    f = ScalarField(grid16, rng.standard_normal(grid16.shape))
    g = ScalarField(grid16, rng.standard_normal(grid16.shape))
    spec = forward_transform(f)
    inverse_transform(spec)
    convolve(f, g)
    solve_double_fractional(f, 0.4, 0.8)


def test_transform_linearity(grid16, rng):
    a = ScalarField(grid16, rng.standard_normal(grid16.shape))
    b = ScalarField(grid16, rng.standard_normal(grid16.shape))
    lhs = forward_transform(1.7 * a + b).coefficients
    rhs = 1.7 * forward_transform(a).coefficients + forward_transform(b).coefficients
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


# --- fractional symbol --------------------------------------------------------
# |p| of Grid3.wavenumbers, applied through numpy's own fftn (_oracles.fractional_symbol)


def test_symbol_kills_zero_mode(grid16, rng):
    f = rng.standard_normal(grid16.shape) + 5.0
    out = _oracles.fractional_symbol(f, grid16, 0.6)
    assert abs(np.mean(out)) <= 1e-14 * np.max(np.abs(out))


def test_symbol_scales_plane_wave(grid16):
    p0 = 3 * TP / grid16.box_length
    x, _, _ = grid16.meshes
    f = ScalarField(grid16, np.cos(p0 * x))
    for s in (0.3, 0.5, 1.0):
        out = _oracles.fractional_symbol(f.values, grid16, s)
        expected = p0 ** (2 * s) * f.values
        assert np.max(np.abs(out - expected)) <= 1e-11 * np.max(np.abs(expected))


def test_symbol_s1_matches_analytic_laplacian(grid64):
    x, y, z = grid64.meshes
    r2 = x**2 + y**2 + z**2
    out = _oracles.fractional_symbol(np.exp(-r2 / 2.0), grid64, 1.0)
    expected = (3.0 - r2) * np.exp(-r2 / 2.0)
    assert np.max(np.abs(out - expected)) <= 1e-8


@pytest.mark.parametrize("s", [0.0, -0.2, 1.0001, 2.0])
def test_symbol_order_validation(grid16, s):
    # the public path that applies the two-exponent symbol rejects an order
    # outside (0, 1) in either place
    f = ScalarField.zeros(grid16)
    for s1, s2 in ((s, 0.9), (0.1, s)):
        with pytest.raises(ValueError, match="orders"):
            solve_double_fractional(f, s1, s2)


def test_symbol_positivity_and_monotonicity(grid16):
    pm = grid16.wavenumbers
    s1, s2 = 0.4, 0.8
    sym = pm ** (2 * s1) + pm ** (2 * s2)
    assert sym[0, 0, 0] == 0.0
    nz = sym[pm > 0]
    assert np.all(nz > 0.0)
    order = np.argsort(pm.ravel())
    sym_sorted = sym.ravel()[order]
    assert np.all(np.diff(sym_sorted) >= -1e-14)


def test_symbol_agrees_with_second_differences_at_rate_two():
    # low-frequency cosine resolved on both grids; spectral value is exact
    errs = []
    for n in (32, 64):
        g = Grid3(20.0, n)
        p0 = TP / g.box_length
        x, y, _ = g.meshes
        f = np.cos(p0 * x) * np.cos(p0 * y)
        exact = -_oracles.fractional_symbol(f, g, 1.0)
        h = g.spacing
        fd = (
            np.roll(f, 1, 0) + np.roll(f, -1, 0)
            + np.roll(f, 1, 1) + np.roll(f, -1, 1)
            + np.roll(f, 1, 2) + np.roll(f, -1, 2)
            - 6 * f
        ) / h**2
        errs.append(np.max(np.abs(fd - exact)))
    rate = np.log2(errs[0] / errs[1])
    assert abs(rate - 2.0) <= 0.1


# --- radial shell tables --------------------------------------------------------
# each |p|-dependent factor gathered from its table over k^2 = 0 .. 3 (n/2)^2,
# against |p| formed per mode (_oracles.wavenumber_rows)


@pytest.mark.parametrize("n", [2, 4, 96])
def test_shell_index_stays_inside_the_table(n):
    grid = Grid3(20.0, n)
    size = len(spectral._shell_wavenumbers(grid))
    assert size == 3 * (n // 2) ** 2 + 1
    shell = np.concatenate([spectral._shell_rows(grid, rows) for rows in spectral._row_slabs(n)])
    assert shell.shape == (n, n, n // 2 + 1)
    assert shell.min() == 0 and shell.max() == size - 1
    # shell 0 is p = 0 alone
    assert np.flatnonzero(shell == 0).tolist() == [0]


@pytest.mark.parametrize("n", [16, 32, 64])
def test_shell_tables_match_the_per_mode_oracle(demo, n):
    problem = demo.with_grid(Grid3(20.0, n))
    plan = spectral.spectral_plan(problem)
    pm = _oracles.wavenumber_rows(problem.grid)
    orders = list(zip(problem.orders.s1, problem.orders.s2))
    for m, (s1, s2) in enumerate(orders):
        expected = two_exponent_symbol(pm, s1, s2)
        # per mode within 8 ulp (3.7 ulp read at n = 64), and 0 at p = 0 alone
        symbol = plan.symbols[m][spectral._shell_rows(problem.grid, slice(None))]
        assert np.all(np.abs(symbol - expected) <= 8 * ULP * expected)
    coeff = [_gaussian_rows(axes) for axes in _gaussian_axis_spectra(problem.kernels, problem.grid)]
    q_sq = sum(nonzero_mode_l2(pm ** (2.0 * (1.0 - s1)) * c, problem.grid) ** 2 for (s1, _), c in zip(orders, coeff))
    assert abs(plan.kernel_constants[1] - math.sqrt(q_sq)) <= 8 * ULP * math.sqrt(q_sq)


@pytest.mark.parametrize("n", [16, 32, 96])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "stack"])
def test_scaling_by_the_inverse_symbol_is_a_plain_division(n, lead):
    # Why u0 and the transfer kept their values when their divisions became
    # scalings by a 1/symbol table: numpy divides a complex number by a real
    # one as a multiply by the reciprocal.  Compared with ==, as the signs
    # of zero imaginary parts may differ.
    grid = Grid3(20.0, n)
    assert len(spectral._row_slabs(n)) == (8 if n == 96 else 1)
    symbol = two_exponent_symbol(spectral._shell_wavenumbers(grid), 0.4, 0.8)
    coeff = _rfft(np.random.default_rng(n).standard_normal(lead + grid.shape))
    shell = spectral._shell_rows(grid, slice(None))
    expected = np.divide(coeff, symbol[shell], out=np.zeros_like(coeff), where=shell != 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        inverse = spectral._inverse_symbol(symbol)
        assert spectral._scale_by_shells(coeff, inverse, grid) is coeff
    assert inverse[0] == 0.0
    assert np.all(coeff == expected)


def test_scaling_by_a_short_shell_table_raises(grid16):
    # the gather clips its indices, so a table missing the outer shell must
    # be refused rather than read at its last entry
    table = spectral._shell_wavenumbers(grid16)
    coeff = np.ones((16, 16, 9), dtype=complex)
    with pytest.raises(ValueError, match="shell table"):
        spectral._scale_by_shells(coeff, table[:-1], grid16)
    assert np.all(coeff == 1.0)


# --- convolution --------------------------------------------------------------


def test_convolution_commutes(grid16, rng):
    a = ScalarField(grid16, rng.standard_normal(grid16.shape))
    b = ScalarField(grid16, rng.standard_normal(grid16.shape))
    ab = convolve(a, b).values
    ba = convolve(b, a).values
    assert np.max(np.abs(ab - ba)) <= 1e-12 * np.max(np.abs(ab))


def test_convolution_of_gaussians_is_gaussian(grid64):
    # exp(-a r^2) * exp(-b r^2) = (pi/(a+b))^{3/2} exp(-(ab/(a+b)) r^2)
    a, b = 1.0, 2.0
    fa = gaussian(grid64, a)
    fb = gaussian(grid64, b)
    out = convolve(fa, fb)
    x, y, z = grid64.meshes
    r2 = x**2 + y**2 + z**2
    expected = (np.pi / (a + b)) ** 1.5 * np.exp(-(a * b / (a + b)) * r2)
    assert np.max(np.abs(out.values - expected)) <= 1e-8


def test_narrow_kernel_approximates_identity():
    grid = Grid3(20.0, 128)
    x, y, z = grid.meshes
    r2 = x**2 + y**2 + z**2
    target = ScalarField(grid, np.exp(-0.1 * r2))
    errs = []
    for a in (16.0, 49.0):
        kernel = ScalarField(grid, (a / np.pi) ** 1.5 * np.exp(-a * r2))
        out = convolve(kernel, target)
        num = np.sqrt(np.sum((out.values - target.values) ** 2))
        den = np.sqrt(np.sum(target.values**2))
        errs.append(num / den)
    assert errs[0] <= 0.01
    assert errs[1] <= 0.01
    assert errs[1] < errs[0]  # narrower kernel, better identity


def test_convolution_grid_mismatch_rejected(grid16, grid32):
    with pytest.raises(ValueError, match="grid"):
        convolve(ScalarField.zeros(grid16), ScalarField.zeros(grid32))


def test_convolution_linearity(grid16, rng):
    h = ScalarField(grid16, rng.standard_normal(grid16.shape))
    a = ScalarField(grid16, rng.standard_normal(grid16.shape))
    b = ScalarField(grid16, rng.standard_normal(grid16.shape))
    lhs = convolve(h, 2.0 * a - b).values
    rhs = 2.0 * convolve(h, a).values - convolve(h, b).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


# --- norms --------------------------------------------------------------------


def test_zero_field_norms(grid16):
    rep = field_norms(ScalarField.zeros(grid16))
    assert rep.l1 == rep.l2 == rep.linf == rep.h2 == 0.0


def test_gaussian_l2_norm(grid64):
    rep = field_norms(gaussian(grid64))
    assert abs(rep.l2 - (np.pi / 2.0) ** 0.75) <= 1e-8


def test_gaussian_l1_norm(grid64):
    rep = field_norms(gaussian(grid64))
    assert abs(rep.l1 - np.pi**1.5) <= 1e-8


def test_plancherel_through_norms(grid32, rng):
    f = ScalarField(grid32, rng.standard_normal(grid32.shape))
    l2_direct = field_norms(f).l2
    l2_spec = spectrum_l2(forward_transform(f))
    assert abs(l2_direct - l2_spec) <= 1e-12 * l2_direct


def test_field_norms_match_full_layout_spectrum(grid32, rng):
    f = ScalarField(grid32, rng.standard_normal(grid32.shape))
    rep = field_norms(f)
    coeff_sq = np.abs(forward_transform(f).coefficients) ** 2
    pm = grid32.wavenumbers
    l2_sq = grid32.cell_volume * float(np.sum(f.values**2))
    h2 = np.sqrt(l2_sq + grid32.mode_volume * float(np.sum(pm**4 * coeff_sq)))
    assert abs(rep.h2 - h2) <= 1e-12 * h2


def test_vector_norms_single_component_matches_field(grid16, rng):
    f = ScalarField(grid16, rng.standard_normal(grid16.shape))
    vec = vector_norms(VectorField(grid16, f.values[None]))
    scal = field_norms(f)
    assert vec.l2 == pytest.approx(scal.l2, rel=1e-14)
    assert vec.h2 == pytest.approx(scal.h2, rel=1e-14)
    assert vec.linf == pytest.approx(scal.linf, rel=1e-14)


def test_vector_norms_equal_components_scale_sqrt2(grid16, rng):
    f = ScalarField(grid16, rng.standard_normal(grid16.shape))
    vec = vector_norms(VectorField(grid16, np.stack([f.values, f.values])))
    assert vec.h2 == pytest.approx(np.sqrt(2.0) * field_norms(f).h2, rel=1e-13)


def test_vector_norms_match_direct_summation(grid16, rng):
    comps = tuple(ScalarField(grid16, rng.standard_normal(grid16.shape)) for _ in range(3))
    u = VectorField(grid16, np.stack([c.values for c in comps]))
    rep = vector_norms(u)
    # independent summation: component H2 norms squared, accumulated by hand
    total = 0.0
    for c in comps:
        spec = forward_transform(c)
        pm = grid16.wavenumbers
        l2_sq = grid16.cell_volume * float(np.sum(c.values**2))
        lap_sq = grid16.mode_volume * float(np.sum(pm**4 * np.abs(spec.coefficients) ** 2))
        total += l2_sq + lap_sq
    assert abs(rep.h2 - np.sqrt(total)) <= 1e-12 * rep.h2
    length = np.sqrt(sum(c.values**2 for c in comps))
    assert rep.linf == pytest.approx(float(np.max(length)), rel=1e-14)


# --- Gaussian half spectra by separability ----------------------------------------


def _gaussian_sum_sets():
    demo = demo_problem()
    shift = (2.5, -1.25, 1.25)  # lattice vectors, as the benchmark seeds shift influxes
    yield "demo_influxes", demo.influxes
    yield "demo_kernels", demo.kernels
    yield "shifted_influxes", tuple(tuple(g.shifted(shift) for g in fs) for fs in demo.influxes)
    yield "sweep_cases", tuple(case.influx for case in solvability_sweep_cases())
    yield "negative_and_empty", (
        (GaussianSpec(-0.7, 0.8, (1.5, -0.5, 2.0)), GaussianSpec(0.4, 1.3, (-2.0, 0.0, 1.0))),
        (),
    )


@pytest.mark.parametrize("sums", [pytest.param(sums, id=label) for label, sums in _gaussian_sum_sets()])
@pytest.mark.parametrize("n", [16, 32])
def test_gaussian_half_spectra_match_rfftn_of_samples(sums, n):
    grid = Grid3(20.0, n)
    axes = _gaussian_axis_spectra(sums, grid)
    assert [len(xs) for xs, _, _ in axes] == [len(terms) for terms in sums]
    got = np.stack([_gaussian_rows(a) for a in axes])
    ref = np.stack([np.fft.rfftn(realize_gaussian_sum(terms, grid).values) for terms in sums])
    assert got.shape == ref.shape == (len(sums), n, n, n // 2 + 1)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    assert not np.any(got[[i for i, terms in enumerate(sums) if not terms]])
    # a slab of rows, written into a given buffer, is those rows of the whole
    for a, whole in zip(axes, got):
        out = np.empty((3, n, n // 2 + 1), dtype=np.complex128)
        assert _gaussian_rows(a, slice(2, 5), out) is out
        assert np.array_equal(out, whole[2:5])


def test_gaussian_half_spectra_of_no_gaussian_is_zero(grid16):
    (axes,) = _gaussian_axis_spectra(((),), grid16)
    got = _gaussian_rows(axes)
    assert got.shape == (16, 16, 9) and not np.any(got)
    assert _gaussian_axis_spectra((), grid16) == []


def test_gaussian_half_spectra_warn_on_clearance():
    grid = Grid3(10.0, 16)
    with pytest.warns(UserWarning, match="truncated mass"):
        _gaussian_axis_spectra(((GaussianSpec(1.0, 0.05),),), grid)


# --- the transform funnel ------------------------------------------------------------


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "batched"])
def test_transform_helpers_are_bitwise_rfftn_and_irfftn(n, lead):
    grid = Grid3(20.0, n)
    values = np.random.default_rng(n).standard_normal(lead + grid.shape)
    coeff = _rfft(values)
    assert np.array_equal(coeff, np.fft.rfftn(values, axes=(-3, -2, -1)))
    expected = np.fft.irfftn(coeff, s=grid.shape, axes=(-3, -2, -1))
    assert np.array_equal(_irfft(coeff, grid), expected)


@pytest.mark.parametrize("n", [2, 4, 6, 18, 32])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "batched"])
def test_band_limit_is_bitwise_the_masked_full_lattice_transforms(n, lead):
    # n = 2 keeps only the zero mode (n // 4 = 0); 6 and 18 are not multiples of 4
    grid = Grid3(20.0, n)
    values = np.random.default_rng(n).standard_normal(lead + grid.shape)
    expected = _rfft(values)
    expected[..., _oracles.wavenumber_rows(grid) > 0.5 * grid.nyquist] = 0.0
    coeff = _band_limit(values, grid)
    # bytes, not values: the signs of zeros must agree too
    assert coeff.shape == expected.shape and coeff.tobytes() == expected.tobytes()
    assert values.tobytes() == _irfft(expected, grid).tobytes()


def test_band_limit_keeps_the_whole_half_nyquist_shell():
    # at L = 25, n = 24 a floating-point test |p| > nyquist / 2 kept 5 of the
    # 17 half-lattice modes with k^2 = (n/4)^2 = 36 and dropped 12
    n = 24
    grid = Grid3(25.0, n)
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    k_sq = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, : n // 2 + 1] ** 2
    values = np.random.default_rng(n).standard_normal(grid.shape)
    expected = _rfft(values)
    expected[k_sq > 36] = 0.0
    coeff = _band_limit(values, grid)
    assert np.count_nonzero(k_sq == 36) == 17
    assert np.count_nonzero(coeff[k_sq == 36]) == 17
    assert coeff.tobytes() == expected.tobytes()
    assert values.tobytes() == _irfft(expected, grid).tobytes()


def test_transform_helpers_leave_read_only_input_unchanged(grid16, rng):
    values = _read_only(rng.standard_normal((2,) + grid16.shape))
    coeff = _read_only(np.fft.rfftn(values, axes=(-3, -2, -1)))
    values_before, coeff_before = values.copy(), coeff.copy()
    _rfft(values)
    _irfft(coeff, grid16)
    assert np.array_equal(values, values_before)
    assert np.array_equal(coeff, coeff_before)


def test_forward_helper_allocates_one_half_spectrum(grid32, rng):
    values = rng.standard_normal((2,) + grid32.shape)
    half_bytes = 2 * 32 * 32 * 17 * np.dtype(complex).itemsize
    _rfft(values)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _rfft(values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # rfftn allocates a fresh complex array for each axis pass (peak 2.0)
    assert peak <= 1.1 * half_bytes


def test_inverse_helper_allocates_its_output_and_one_component_copy(grid32, rng):
    coeff = _rfft(rng.standard_normal((2,) + grid32.shape))
    _irfft(coeff, grid32)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _irfft(coeff, grid32)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a copy of the whole stack would add coeff.nbytes (2.1 fields) instead
    assert peak <= out.nbytes + 1.1 * coeff[0].nbytes


# --- the Plancherel row-sum kernel ---------------------------------------------


def _reference_weighted_power(coeff, weights):
    return float(np.sum(weights * (coeff.real**2 + coeff.imag**2)))


def _dense_h2_weights(grid):
    """The H2 term's weights ``w * |p|^4`` on the whole half lattice, as an oracle."""
    return _plancherel_weights(grid) * _oracles.wavenumber_rows(grid) ** 4


@pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "stacked"])
@pytest.mark.parametrize("which", ["weights", "h2_weights"])
def test_weighted_power_matches_sum_of_weighted_squares(grid32, rng, lead, which):
    # the weighted power sum(w |c|^2) of the row sums, and both H2 terms at
    # n = 32 (n = 16 and 64 are below), against dense w and w |p|^4
    coeff = _rfft(rng.standard_normal(lead + grid32.shape))
    w = _plancherel_weights(grid32)
    if which == "weights":
        total = float(np.sum(_row_power(coeff, w)))
        assert total == pytest.approx(_reference_weighted_power(coeff, w), rel=1e-14)
    else:
        l2_sq, lap_sq = _h2_power(coeff, grid32)
        assert l2_sq == pytest.approx(_reference_weighted_power(coeff, w), rel=1e-14)
        assert lap_sq == pytest.approx(_reference_weighted_power(coeff, _dense_h2_weights(grid32)), rel=1e-14)


@pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "stacked"])
@pytest.mark.parametrize("n", [16, 64])
def test_lap_power_matches_dense_h2_weights(rng, lead, n, monkeypatch):
    # n = 32 is the h2_weights case above; the dense reference of the sum
    # l2_sq + lap_sq is w (1 + |p|^4)
    grid = Grid3(20.0, n)
    coeff = _rfft(rng.standard_normal(lead + grid.shape))
    terms = _h2_power(coeff, grid)
    expected = _reference_weighted_power(coeff, _plancherel_weights(grid) + _dense_h2_weights(grid))
    assert sum(terms) == pytest.approx(expected, rel=1e-14)
    assert terms[1] == pytest.approx(_reference_weighted_power(coeff, _dense_h2_weights(grid)), rel=1e-14)
    # row sums do not depend on how callers split the rows into slabs
    monkeypatch.setattr(spectral, "SLAB_BYTES", 1)
    assert _h2_power(coeff, grid) == terms


def test_row_power_sums_each_row(grid32, rng):
    w = _plancherel_weights(grid32)
    assert w.shape == (grid32.points_per_axis, grid32.points_per_axis // 2 + 1)
    coeff = _rfft(rng.standard_normal((2,) + grid32.shape))
    for weights in (w, w * rng.random((grid32.points_per_axis, 1))):
        rows = _row_power(coeff, weights)
        assert rows.shape == (2, grid32.points_per_axis)
        for row, c in zip(rows.ravel(), coeff.reshape((-1,) + coeff.shape[-2:])):
            assert row == pytest.approx(_reference_weighted_power(c, weights), rel=1e-14)


def test_weighted_power_reads_slices_without_copying(grid64, rng):
    # the row slices nonzero_mode_l2 sums, and the H2 terms' row-sized
    # temporaries (about 42 KiB here): no coefficient-sized array, where a
    # lattice of |p|^4 weights alone is 0.25 coeff.nbytes
    w = _plancherel_weights(grid64)
    coeff = _rfft(rng.standard_normal((2,) + grid64.shape))
    for part in (coeff[..., 1:, :, :], coeff[..., :1, :, :]):
        assert float(np.sum(_row_power(part, w))) == pytest.approx(_reference_weighted_power(part, w), rel=1e-14)
    _h2_power(coeff, grid64)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _h2_power(coeff, grid64)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * coeff.nbytes


def test_norm_sums_allocate_only_row_sized_temporaries(grid32, rng):
    # with row-shaped weights einsum buffers nothing of note; 1-D weights
    # made it buffer about 64 KiB per call, 0.24 of one component here
    sa, sb = _rfft(rng.standard_normal((2, 2) + grid32.shape))
    nonzero_mode_l2(sa, grid32), _h2_gap(sa, sb, grid32)  # first-call set-up
    peaks = []
    for call in (lambda: nonzero_mode_l2(sa, grid32), lambda: _h2_gap(sa, sb, grid32)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    # _h2_gap forms each component's difference in one buffer
    assert peaks[0] <= 16 * 1024
    assert peaks[1] - sa[0].nbytes <= 16 * 1024


@pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "stacked"])
@pytest.mark.parametrize("zero_scale", [1.0, 1e8], ids=["zero_mode_comparable", "zero_mode_dominant"])
def test_nonzero_mode_l2_matches_masked_sum(grid32, rng, lead, zero_scale):
    coeff = _rfft(rng.standard_normal(lead + grid32.shape))
    coeff[..., 0, 0, 0] = zero_scale * (3.0 + 0.5j) * np.abs(coeff).max()
    sq = _plancherel_weights(grid32) * (coeff.real**2 + coeff.imag**2)
    sq[..., 0, 0, 0] = 0.0
    # a dominant zero mode must not cancel away the rest of the sum
    assert nonzero_mode_l2(coeff, grid32) == pytest.approx(np.sqrt(np.sum(sq)), rel=1e-14)


def test_euclidean_length_matches_root_sum_of_squares(grid16, rng):
    values = rng.standard_normal((3,) + grid16.shape)
    expected = np.sqrt(sum(c**2 for c in values))
    np.testing.assert_allclose(VectorField(grid16, values).euclidean_length(), expected, rtol=1e-15, atol=0)
