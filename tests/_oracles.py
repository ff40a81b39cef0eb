"""Independent oracle computations used by the test suite.

Everything here but the references of replaced code paths at the end
deliberately avoids the package's own FFT path: transforms are done with
dense DFT matrices, convolutions by direct summation, and radial integrals
by trapezoid quadrature on a fine 1-D grid.  :func:`full_lattice_sample_ball`
is the ball sampler before its transforms were pruned, kept as the bitwise
reference of the pruned one, and :func:`summed_spectrum_u_norms` is the
solver's norms of u before they were taken from the residual's transforms,
with u0's spectrum rebuilt by :func:`u0_division_spectrum`;
:func:`stored_transfer` is the whole-array transfer the plan kept before
it applied the transfer slab by slab.
:func:`fractional_symbol` applies a symbol through numpy's own ``fftn``,
and :func:`sampled_solvability_report` is the zero-mode report from
sums over a sampled right side.  :func:`wavenumber_rows` is |p| formed
per mode from the frequency axes, independent of the package's shell
tables.  :func:`four_pairing_bracket` and :func:`index_pair_c2_ball_norm`
are the certificate's bracket and C2 ball bound as loops, before they were
put in closed form.
"""

import math

import numpy as np

from dualfrac import VectorField, poisson
from dualfrac.spectral import (
    _axis_signs,
    _gaussian_axis_spectra,
    _gaussian_rows,
    _inverse_symbol,
    _irfft,
    _rfft,
    _shell_rows,
    vector_norms,
)


def radial_integral(fn, lo, hi, n=200_001):
    """Trapezoid quadrature of fn over [lo, hi]."""
    p = np.linspace(lo, hi, n)
    return float(np.trapezoid(fn(p), p))


def zero_cell_radius(box_length):
    """Radius of the sphere with the volume of one frequency cell.

    The discrete solver drops exactly one lattice cell of volume
    (2*pi/L)^3 at the origin; radial oracles for lattice sums therefore
    integrate outward from the equal-volume sphere.
    """
    dp = 2.0 * np.pi / box_length
    return dp * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)


def wavenumber_rows(grid, rows=slice(None)):
    """|p| = sqrt(p_x^2 + p_y^2 + p_z^2), per mode, on the given x-frequency rows of the half lattice."""
    p_sq = grid.frequency_axis**2
    half = grid.points_per_axis // 2 + 1
    return np.sqrt(p_sq[rows, None, None] + p_sq[None, :, None] + p_sq[None, None, :half])


def fractional_symbol(values, grid, s):
    """``(-Lap)^s`` of real samples through numpy's own ``fftn``: ``ifftn(|p|^{2s} fftn(values))``.

    A real, even multiplier commutes with the box's offset, so no centre
    phase enters.
    """
    return np.fft.ifftn(grid.wavenumbers ** (2.0 * s) * np.fft.fftn(values)).real


def dft_matrices(grid):
    """1-D forward DFT matrices e^{-i p x} per axis in fftn frequency order."""
    x = grid.axis
    p = grid.frequency_axis
    return np.exp(-1j * np.outer(p, x))


def dft3(values, grid):
    """Continuum-normalized 3-D transform via dense matrix products."""
    m = dft_matrices(grid)
    out = np.einsum("ai,bj,ck,ijk->abc", m, m, m, values.astype(complex), optimize=True)
    return (2.0 * np.pi) ** -1.5 * grid.cell_volume * out


def idft3(coeff, grid):
    """Inverse of :func:`dft3`."""
    w = dft_matrices(grid).conj().T  # w[x, p] = e^{+i p x}
    out = np.einsum("ia,jb,kc,abc->ijk", w, w, w, coeff, optimize=True)
    return np.real((2.0 * np.pi) ** -1.5 * grid.mode_volume * out)


def direct_convolution(kernel_fn, g_values, grid):
    """Direct Riemann-sum convolution sum_y h(x - y) g(y) h^3.

    The kernel is evaluated analytically at the true displacement x - y
    (no periodic wrap), so this is a genuine whole-space quadrature on the
    sampled box.
    """
    n = grid.points_per_axis
    ax = grid.axis
    out = np.zeros((n, n, n))
    X, Y, Z = grid.meshes
    for i in range(n):
        dx2 = (ax[i] - X) ** 2
        for j in range(n):
            dy2 = (ax[j] - Y) ** 2
            for k in range(n):
                d2 = dx2 + dy2 + (ax[k] - Z) ** 2
                out[i, j, k] = np.sum(kernel_fn(d2) * g_values)
    return out * grid.cell_volume


def brute_force_phi_minimum(alpha, s, coarse=4001, fine=4001):
    """Two-stage grid minimization of alpha R^{3-4s} + R^{-4s}."""
    R = np.geomspace(1e-3, 1e3, coarse)
    v = alpha * R ** (3 - 4 * s) + R ** (-4 * s)
    i = int(np.argmin(v))
    lo, hi = R[max(i - 1, 0)], R[min(i + 1, coarse - 1)]
    Rf = np.linspace(lo, hi, fine)
    vf = alpha * Rf ** (3 - 4 * s) + Rf ** (-4 * s)
    j = int(np.argmin(vf))
    return float(Rf[j]), float(vf[j])


def full_lattice_sample_ball(grid, n_components, rho, rng):
    """``sample_ball`` with full-lattice transforms: mask, invert, take the norms, rescale.

    A mode is dropped when |p| exceeds half the Nyquist frequency, tested on
    integers as ``16 k^2 > n^2`` with k from ``fftfreq``, so no rounding of
    a floating-point |p| decides the modes on that shell.
    """
    n = grid.points_per_axis
    k = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64)
    k_sq = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, : n // 2 + 1] ** 2
    coeff = _rfft(rng.standard_normal((n_components,) + grid.shape))
    coeff[:, 16 * k_sq > n * n] = 0.0
    values = _irfft(coeff, grid)
    draw = VectorField(grid, values, coeff)
    norm = vector_norms(draw).h2
    if norm == 0.0:
        return full_lattice_sample_ball(grid, n_components, rho, rng)
    target = rho * (1.0 - rng.random())  # uniform in (0, rho]
    return draw * (target / norm)


def u0_division_spectrum(plan):
    """u0's half spectrum as the plan divides it: stacked f_hat / symbol, zero at p = 0."""
    components = range(len(plan.influxes))
    influx = np.stack([plan.influx_spectrum(m) for m in components])
    shell = _shell_rows(plan.grid, slice(None))
    symbols = np.stack([plan.symbols[m][shell] for m in components])
    np.divide(influx, symbols, out=influx, where=symbols != 0.0)
    influx[:, 0, 0, 0] = 0.0
    return influx


def stored_transfer(plan):
    """The transfer stack ``(N, n, n, n/2 + 1)`` as the plan once stored it.

    Each kernel's outer product of its sign-flipped axis spectra over the
    whole half lattice, times h^3, times its component's inverse symbol
    gathered through the whole-lattice shell index.
    """
    g = plan.grid
    sign = _axis_signs(g.points_per_axis)
    transfer = np.stack(
        [_gaussian_rows([a * sign[: a.shape[1]] for a in axes]) for axes in _gaussian_axis_spectra(plan.kernels, g)]
    )
    transfer *= g.cell_volume
    shell = _shell_rows(g, slice(None))
    for t, symbol in zip(transfer, plan.symbols):
        t *= _inverse_symbol(symbol)[shell]
    return transfer


def summed_spectrum_u_norms(result, plan):
    """``vector_norms(u)`` from u's values and the sum of u0's division spectrum and u_p's carried one."""
    spectrum = u0_division_spectrum(plan) + result.u_p.spectrum
    return vector_norms(VectorField(result.u_p.grid, result.u.values, spectrum))


def sampled_solvability_report(f, s1):
    """The zero-mode report of a sampled right side, its mean integral and L2 norm summed over the samples."""
    g = f.grid
    mean = float(g.cell_volume * np.sum(f.values))
    f_l2 = float(np.sqrt(g.cell_volume * np.sum(f.values**2)))
    return poisson._zero_mode_report(mean, f_l2, s1)


def four_pairing_bracket(ctx):
    """The bracket B*: the kernel term's max over the four pairings (a, b) of s1_min and S1_max, plus Q^2."""
    u1 = ctx.u0_h2 + 1.0
    best = -math.inf
    for a in (ctx.s1_min, ctx.S1_max):
        for b in (ctx.s1_min, ctx.S1_max):
            term = (
                ctx.H**2
                * u1 ** (8.0 * a / 3.0 - 2.0)
                * 3.0
                / ((3.0 - 4.0 * a) * (2.0 * math.pi**2) ** (4.0 * b / 3.0) * (4.0 * b) ** (4.0 * b / 3.0))
            )
            best = max(best, term)
    return best + ctx.Q**2


def index_pair_c2_ball_norm(g, radius):
    """The coefficient-rule C2 bound on the ball, summed per variable index and per ordered index pair."""
    n = g.n_components
    total = 0.0
    for comp in g.components:
        sup = sum(abs(m.coeff) * radius**m.degree for m in comp)
        first = 0.0
        for j in range(n):
            first += sum(
                abs(m.coeff) * m.powers[j] * radius ** (m.degree - 1) for m in comp if m.powers[j] > 0
            )
        second = 0.0
        for j in range(n):
            for l in range(n):
                for m in comp:
                    count = m.powers[j] * (m.powers[j] - 1) if j == l else m.powers[j] * m.powers[l]
                    if count > 0:
                        second += abs(m.coeff) * count * radius ** (m.degree - 2)
        total += sup + first + second
    return total
