import logging
import tracemalloc

import numpy as np
import pytest

import _oracles
from dualfrac import (
    Grid3,
    ScalarField,
    Spectrum,
    box_length_sweep,
    field_norms,
    fit_growth_exponent,
    forward_transform,
    inverse_transform,
    regularity_check,
    solve_double_fractional,
)
from dualfrac import poisson, spectral
from dualfrac.problems import (
    GaussianSpec,
    _gaussian_sum_moments,
    demo_problem,
    realize_gaussian_sum,
    solvability_sweep_cases,
)

TP = 2.0 * np.pi
ULP = np.finfo(float).eps

# the sum form of gaussian(grid): amplitude 1, width 1, centred
UNIT_GAUSSIAN = (GaussianSpec(1.0, 1.0),)


def gaussian(grid, a=1.0, center=(0.0, 0.0, 0.0), amp=1.0):
    x, y, z = grid.meshes
    r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2 + (z - center[2]) ** 2
    return ScalarField(grid, amp * np.exp(-a * r2))


def test_eigenfunction_solved_exactly(grid16):
    s1, s2 = 0.4, 0.8
    p0 = 2 * TP / grid16.box_length
    x, _, _ = grid16.meshes
    u_exact = np.cos(p0 * x)
    f = ScalarField(grid16, (p0 ** (2 * s1) + p0 ** (2 * s2)) * u_exact)
    u = solve_double_fractional(f, s1, s2)
    assert np.max(np.abs(u.values - u_exact)) <= 1e-12


def test_zero_right_side_gives_zero(grid16):
    u = solve_double_fractional(ScalarField.zeros(grid16), 0.3, 0.7)
    assert np.all(u.values == 0.0)


def test_gaussian_forward_residual(grid64):
    s1, s2 = 0.4, 0.8
    f = gaussian(grid64)
    u = solve_double_fractional(f, s1, s2)
    pm = grid64.wavenumbers
    lhs = (pm ** (2 * s1) + pm ** (2 * s2)) * forward_transform(u).coefficients
    rhs = forward_transform(f).coefficients.copy()
    lhs[0, 0, 0] = 0.0
    rhs[0, 0, 0] = 0.0
    num = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2))
    den = np.sqrt(np.sum(np.abs(rhs) ** 2))
    assert num / den <= 1e-12


def test_gaussian_l2_matches_radial_quadrature(grid64):
    # oracle: 1-D quadrature of the analytic transform pushed through the
    # inverse symbol, starting at the equal-volume radius of the dropped cell
    s1, s2 = 0.4, 0.8
    u = solve_double_fractional(gaussian(grid64), s1, s2)
    r0 = _oracles.zero_cell_radius(grid64.box_length)
    oracle = np.sqrt(
        _oracles.radial_integral(
            lambda p: 4.0 * np.pi * p**2 * (np.exp(-p**2 / 2.0) / 8.0)
            / (p ** (2 * s1) + p ** (2 * s2)) ** 2,
            r0,
            40.0,
        )
    )
    assert abs(field_norms(u).l2 - oracle) / oracle <= 0.02


def test_order_validation():
    g = Grid3(10.0, 16)
    f = ScalarField.zeros(g)
    for s1, s2 in [(0.8, 0.4), (0.5, 0.5), (0.0, 0.5), (0.5, 1.0)]:
        with pytest.raises(ValueError, match="orders"):
            solve_double_fractional(f, s1, s2)
        with pytest.raises(ValueError, match="orders"):
            box_length_sweep(UNIT_GAUSSIAN, s1, s2, 0.625, [10.0])


def test_reject_if_nonzero_policy(grid16):
    f = gaussian(grid16)
    with pytest.raises(ValueError, match="zero-mean"):
        solve_double_fractional(f, 0.4, 0.8, "reject_if_nonzero")


def test_reject_policy_accepts_dipole(grid32):
    # L=20 keeps the boundary tails below the zero-mean tolerance; on a
    # tighter box the truncated tail itself trips the threshold
    f = gaussian(grid32, center=(1.0, 0, 0)) - gaussian(grid32, center=(-1.0, 0, 0))
    u = solve_double_fractional(f, 0.4, 0.8, "reject_if_nonzero")
    assert np.isfinite(u.values).all()


@pytest.mark.parametrize("ratio,nonzero", [(5e-10, True), (2e-11, False)], ids=["above", "below"])
def test_reject_policy_and_solvability_report_share_one_zero_mean_test(ratio, nonzero, rng):
    # a zero-mean field shifted so that its mean integral is ratio * ||f||_L2,
    # five times above or below ORTHOGONALITY_RTOL; the reject policy and the
    # predicted growth must agree on which side of the threshold it lies
    grid = Grid3(20.0, 16)
    values = rng.standard_normal(grid.shape)
    values -= values.mean()
    l2 = np.sqrt(grid.cell_volume * np.sum(values**2))
    f = ScalarField(grid, values + ratio * l2 / grid.box_length**3)
    report = _oracles.sampled_solvability_report(f, 0.8)
    assert report.orthogonality_residual == pytest.approx(ratio * l2, rel=1e-3)
    if nonzero:
        assert report.predicted_low_freq_growth == pytest.approx(0.2)
        with pytest.raises(ValueError, match="zero-mean"):
            solve_double_fractional(f, 0.8, 0.9, "reject_if_nonzero")
    else:
        assert report.predicted_low_freq_growth == 0.0
        solve_double_fractional(f, 0.8, 0.9, "reject_if_nonzero")


def test_unknown_policy_rejected(grid16):
    with pytest.raises(ValueError, match="policy"):
        solve_double_fractional(ScalarField.zeros(grid16), 0.4, 0.8, "keep")


def test_drop_policy_logs_mass(grid16, caplog):
    with caplog.at_level(logging.DEBUG, logger="dualfrac.poisson"):
        solve_double_fractional(gaussian(grid16), 0.4, 0.8)
    assert any("zero-frequency mass" in r.message for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="dualfrac.poisson"):
        box_length_sweep(UNIT_GAUSSIAN, 0.4, 0.8, 0.625, [10.0])
    assert any("zero-frequency mass" in r.message for r in caplog.records)


# --- solvability report ---------------------------------------------------


def test_solvability_gaussian_supercritical(grid64):
    rep = _oracles.sampled_solvability_report(gaussian(grid64), 0.8)
    assert rep.regime == "orthogonality_required"
    assert abs(rep.mean_integral - np.pi**1.5) <= 1e-8
    assert rep.orthogonality_residual == pytest.approx(np.pi**1.5, abs=1e-8)
    assert rep.predicted_low_freq_growth == pytest.approx(0.2)


def test_solvability_dipole_has_no_growth(grid64):
    f = gaussian(grid64, center=(1.5, 0, 0)) - gaussian(grid64, center=(-1.5, 0, 0))
    rep = _oracles.sampled_solvability_report(f, 0.8)
    assert rep.orthogonality_residual <= 1e-12
    assert rep.predicted_low_freq_growth == 0.0


def test_solvability_subcritical_unconditional(grid64):
    rep = _oracles.sampled_solvability_report(gaussian(grid64), 0.5)
    assert rep.regime == "unconditional"
    assert rep.predicted_low_freq_growth == 0.0


def test_solvability_order_validation(grid16):
    with pytest.raises(ValueError):
        _oracles.sampled_solvability_report(ScalarField.zeros(grid16), 1.2)


@pytest.mark.parametrize("n", [32, 64])
def test_gaussian_moments_classify_like_the_sampled_influx(n):
    # the CLI's 1-D moments against the sampled field's sums, on the sweep
    # cases and the demo influxes
    grid = Grid3(20.0, n)
    sums = [case.influx for case in solvability_sweep_cases()] + list(demo_problem().influxes)
    for specs in sums:
        f = realize_gaussian_sum(specs, grid)
        mean, l2 = _gaussian_sum_moments(specs, grid)
        sampled_l2 = np.sqrt(grid.cell_volume * np.sum(f.values**2))
        assert abs(l2 - sampled_l2) <= 1e-14 * sampled_l2
        assert abs(mean - grid.cell_volume * np.sum(f.values)) <= 1e-14 * sampled_l2
        for s1 in (0.5, 0.85):
            sampled, moments = _oracles.sampled_solvability_report(f, s1), poisson._zero_mode_report(mean, l2, s1)
            assert (moments.regime, moments.predicted_low_freq_growth) == (
                sampled.regime,
                sampled.predicted_low_freq_growth,
            )
            assert moments.orthogonality_residual == abs(mean)
    assert _gaussian_sum_moments((), grid) == (0.0, 0.0)


# --- regularity identity ----------------------------------------------------


def test_regularity_exact_for_eigenfunction(grid16):
    s1, s2 = 0.4, 0.8
    p0 = 3 * TP / grid16.box_length
    x, _, _ = grid16.meshes
    u = ScalarField(grid16, np.cos(p0 * x))
    f = ScalarField(grid16, (p0 ** (2 * s1) + p0 ** (2 * s2)) * u.values)
    assert regularity_check(u, f, s1, s2) <= 1e-12


def test_regularity_gaussian_and_independent_oracle():
    s1, s2 = 0.4, 0.8
    grid = Grid3(20.0, 32)
    f = gaussian(grid)
    u0 = solve_double_fractional(f, s1, s2)
    assert regularity_check(u0, f, s1, s2) <= 1e-10

    # independent spectral path: dense DFT matrices instead of the FFT
    cu = _oracles.dft3(u0.values, grid)
    cf = _oracles.dft3(f.values, grid)
    pm = grid.wavenumbers
    lhs = (pm**2 + pm ** (2 * (1 + s2 - s1))) * cu
    rhs = pm ** (2 * (1 - s1)) * cf
    resid = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2) / np.sum(np.abs(rhs) ** 2))
    assert resid <= 1e-10


def test_regularity_detects_perturbation(grid32, rng):
    s1, s2 = 0.4, 0.8
    f = gaussian(grid32)
    u0 = solve_double_fractional(f, s1, s2)
    noise = rng.standard_normal(grid32.shape)
    noise *= 0.01 * field_norms(u0).l2 / field_norms(ScalarField(grid32, noise)).l2
    perturbed = ScalarField(grid32, u0.values + noise)
    assert regularity_check(perturbed, f, s1, s2) > 1e-3


@pytest.mark.parametrize("n", [16, 32, 64])
def test_regularity_defect_matches_the_per_mode_oracle(n):
    # random u0 and f, so the defect is of order one and not rounding noise
    grid = Grid3(20.0, n)
    rng = np.random.default_rng(n)
    cu, cf = (spectral._rfft(rng.standard_normal(grid.shape)) for _ in range(2))
    s1, s2 = 0.4, 0.8
    pm = _oracles.wavenumber_rows(grid)
    rhs = pm ** (2 * (1 - s1)) * cf
    lhs = (pm**2 + pm ** (2 * (1 + s2 - s1))) * cu
    expected = spectral.nonzero_mode_l2(lhs - rhs, grid) / spectral.nonzero_mode_l2(rhs, grid)
    assert abs(poisson._regularity_defect(cu, cf, grid, s1, s2) - expected) <= 8 * ULP * expected


def test_regularity_grid_mismatch(grid16, grid32):
    with pytest.raises(ValueError, match="grid"):
        regularity_check(ScalarField.zeros(grid16), ScalarField.zeros(grid32), 0.4, 0.8)


def test_regularity_rejects_a_laplacian_that_overflows(grid16, rng):
    # finite values whose squared transform coefficients exceed the float range
    u0 = ScalarField(grid16, 1e200 * rng.standard_normal(grid16.shape))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not square integrable"):
        regularity_check(u0, gaussian(grid16), 0.4, 0.8)


# --- invariants ----------------------------------------------------------


def test_resolve_reconstructed_right_side_is_identity(grid16, rng):
    # no nontrivial kernel on the nonzero modes: solve, push forward, solve again
    s1, s2 = 0.3, 0.9
    f = ScalarField(grid16, rng.standard_normal(grid16.shape))
    u = solve_double_fractional(f, s1, s2)
    f2 = _oracles.fractional_symbol(u.values, grid16, s1) + _oracles.fractional_symbol(u.values, grid16, s2)
    u2 = solve_double_fractional(ScalarField(grid16, f2), s1, s2)
    assert np.max(np.abs(u2.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_transform_derivative_bound_along_axis(grid64):
    # centered differences of the transform along the p_x lattice line are
    # controlled by the first moment of the field
    f = gaussian(grid64)
    coeff = forward_transform(f).coefficients
    line = coeff[:, 0, 0]
    p_line = grid64.frequency_axis
    order = np.argsort(p_line)
    line, p_sorted = line[order], p_line[order]
    diffs = np.abs((line[2:] - line[:-2]) / (p_sorted[2:] - p_sorted[:-2]))
    x, y, z = grid64.meshes
    xf_l1 = grid64.cell_volume * np.sum(np.sqrt(x**2 + y**2 + z**2) * np.abs(f.values))
    bound = (2 * np.pi) ** -1.5 * xf_l1
    assert np.max(diffs) <= bound + 1e-6


def test_l2_monotone_in_second_order_above_unit_frequency(grid16, rng):
    # field supported on modes with |p| > 1 only
    base = forward_transform(ScalarField(grid16, rng.standard_normal(grid16.shape)))
    pm = grid16.wavenumbers
    coeff = base.coefficients.copy()
    coeff[pm <= 1.0] = 0.0
    f = inverse_transform(Spectrum(grid16, coeff))
    u_low = solve_double_fractional(f, 0.4, 0.7)
    u_high = solve_double_fractional(f, 0.4, 0.9)
    assert field_norms(u_high).l2 <= field_norms(u_low).l2 * (1 + 1e-12)


def test_box_sweep_points_and_fit():
    pts = box_length_sweep(
        UNIT_GAUSSIAN,
        0.85,
        0.95,
        spacing=0.625,
        box_lengths=[10.0, 20.0],
    )
    assert [p.points_per_axis for p in pts] == [16, 32]
    assert all(p.u_l2_sq > 0 for p in pts)
    slope = fit_growth_exponent(pts)
    assert np.isfinite(slope)


def test_box_sweep_rejects_odd_point_count():
    with pytest.raises(ValueError, match="odd"):
        box_length_sweep(UNIT_GAUSSIAN, 0.4, 0.8, 0.4, [10.0])


SWEEP_SPACING = 0.625
SWEEP_BOXES = [10.0, 20.0, 40.0]


@pytest.mark.parametrize("case", solvability_sweep_cases(), ids=lambda c: c.label)
def test_box_sweep_matches_full_layout_reference(case):
    pts = box_length_sweep(case.influx, case.s1, case.s2, SWEEP_SPACING, SWEEP_BOXES)
    for p, L in zip(pts, SWEEP_BOXES):
        grid = Grid3(L, int(round(L / SWEEP_SPACING)))
        f = realize_gaussian_sum(case.influx, grid)
        u = solve_double_fractional(f, case.s1, case.s2, "drop")
        ref = grid.cell_volume * float(np.sum(u.values**2))
        assert abs(p.u_l2_sq - ref) <= 1e-12 * ref
        # the zero mode sums the samples in another order; the dipole's mean
        # is itself rounding noise, so compare on the scale of h^3 sum|f|
        mass = grid.cell_volume * float(np.sum(np.abs(f.values)))
        assert abs(p.mean_integral - grid.cell_volume * float(np.sum(f.values))) <= 1e-13 * mass


@pytest.mark.parametrize("case", solvability_sweep_cases(), ids=lambda c: c.label)
def test_box_sweep_matches_the_per_mode_oracle(case):
    # n = 16, 32 and 64: f_hat / symbol per mode, with |p| formed per mode
    pts = box_length_sweep(case.influx, case.s1, case.s2, SWEEP_SPACING, SWEEP_BOXES)
    for p in pts:
        grid = Grid3(p.box_length, p.points_per_axis)
        coeff = spectral._gaussian_half_spectra([case.influx], grid)[0]
        symbol = spectral.two_exponent_symbol(_oracles.wavenumber_rows(grid), case.s1, case.s2)
        u_hat = np.divide(coeff, symbol, out=np.zeros_like(coeff), where=symbol != 0.0)
        expected = float(np.sum(spectral._plancherel_weights(grid) * (u_hat.real**2 + u_hat.imag**2)))
        assert abs(p.u_l2_sq - expected) <= 8 * ULP * expected


def test_box_sweep_makes_no_3d_transform(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    case = solvability_sweep_cases()[0]
    box_length_sweep(case.influx, case.s1, case.s2, SWEEP_SPACING, SWEEP_BOXES)
    # per box, one 1-D fft of the x and y factors and one rfft of the z factors
    assert calls == ["fft", "rfft"] * len(SWEEP_BOXES)


@pytest.mark.parametrize("case", solvability_sweep_cases(), ids=lambda c: c.label)
def test_box_sweep_memory_stays_at_a_few_slabs(case):
    # one n = 128 half-lattice array is 16.3 MiB; a whole-box sweep peaks
    # at about 41.7 MiB, a slab sweep at a few 1 MiB slabs
    tracemalloc.start()
    try:
        box_length_sweep(case.influx, case.s1, case.s2, 0.3125, [10.0, 20.0, 40.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("case", solvability_sweep_cases(), ids=lambda c: c.label)
def test_box_sweep_is_slab_height_invariant(case, monkeypatch):
    def sweep(height):
        points = []
        for L in SWEEP_BOXES:
            n = int(round(L / SWEEP_SPACING))
            row_bytes = 16 * n * (n // 2 + 1)
            monkeypatch.setattr(spectral, "SLAB_BYTES", row_bytes * (height or n))
            points += box_length_sweep(case.influx, case.s1, case.s2, SWEEP_SPACING, [L])
        return points

    whole = sweep(None)
    for height in (1, 3):  # 3 rows leave a partial last slab on every box
        for p, q in zip(sweep(height), whole):
            assert abs(p.u_l2_sq - q.u_l2_sq) <= 1e-14 * q.u_l2_sq
            assert p.mean_integral == q.mean_integral
