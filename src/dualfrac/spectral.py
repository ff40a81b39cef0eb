"""FFT transforms, fractional-Laplacian symbols, convolution, norms and spectral plans.

All operations are pure functions; fields and spectra are immutable, so
concurrent calls on distinct data are safe.

Every full 3-D transform runs through :func:`_rfft`/:func:`_irfft`: plain
``rfftn`` coefficients on the half lattice, batched over the components of
a :class:`VectorField`; the public :class:`Spectrum` transforms only add
the continuum normalization and the mirrored upper half of the ``fftn``
layout.  The ball sampler's band limit runs the same passes pruned to the
modes it keeps (:func:`_band_limit`).  :class:`HalfLattice` holds the per-grid wavenumbers and norm
weights, and :class:`SpectralPlan` holds the per-problem symbols, kernel
transfer multipliers and the linear response u0.  The influx and kernel
spectra come from the Gaussians' separability, as outer products of 1-D
transforms, never from a 3-D transform of sampled data; the plan keeps
only the influxes' 1-D axis spectra and rebuilds one influx spectrum when
asked for it.  Plans are immutable: every piece is computed
once, on first use and under the plan's lock, and its arrays are read-only,
so one plan is safe to share across the ``sweep-epsilon`` thread pool.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .grid import Grid3, NormReport, ScalarField, Spectrum, VectorField, _negated_modes
from .problems import FractionalOrders, GaussianSpec, _axis_factors, realize_gaussian_sum

__all__ = [
    "forward_transform",
    "inverse_transform",
    "apply_fractional_symbol",
    "two_exponent_symbol",
    "convolve",
    "field_norms",
    "vector_norms",
    "h2_distance",
    "spectrum_l2",
    "nonzero_mode_l2",
    "relative_defect",
    "HalfLattice",
    "half_lattice",
    "SpectralPlan",
    "spectral_plan",
]

TWO_PI_32 = (2.0 * np.pi) ** 1.5

# Coefficient bytes per slab of x-frequency rows for the slab-wise passes
# (:func:`_row_slabs`): about 1 MiB, so one slab and its |p| and symbol
# stay in L2 cache.
SLAB_BYTES = 1 << 20

# A real field's spectrum deviates from conjugate symmetry only at rounding
# level; anything above this came from editing coefficients by hand.
CONJUGATE_SYMMETRY_RTOL = 1e-12


def forward_transform(field: ScalarField) -> Spectrum:
    """Continuum-normalized forward transform of a real field.

    The Riemann sum ``(2*pi)**-1.5 * h^3 * sum(f(x_j) exp(-i p.x_j))`` is
    evaluated with one :func:`_rfft`; the centre phase accounts for the box
    being centered at the origin, and conjugate symmetry fills the modes
    above the half lattice.
    """
    if not np.isfinite(field.values).all():
        raise ValueError("cannot transform a field with non-finite values")
    g = field.grid
    half = g.points_per_axis // 2 + 1
    full = np.empty(g.shape, dtype=np.complex128)
    full[..., :half] = _rfft(field.values)
    full[..., :half] *= (2.0 * np.pi) ** -1.5 * g.cell_volume * _centre_phase(g)
    full[..., half:] = _negated_modes(full)[..., half:].conj()
    return Spectrum(g, full)


def inverse_transform(spectrum: Spectrum) -> ScalarField:
    """Invert :func:`forward_transform`; rejects spectra of non-real fields.

    Only the half lattice is read: the check keeps an edited upper half from being dropped.
    """
    asym = spectrum.conjugate_asymmetry()
    if asym > CONJUGATE_SYMMETRY_RTOL:
        raise ValueError(
            "spectrum is not conjugate symmetric (asymmetry "
            f"{asym:.3e} > {CONJUGATE_SYMMETRY_RTOL:.0e}); it would invert to a non-real field"
        )
    g = spectrum.grid
    scale = (2.0 * np.pi) ** -1.5 * g.cell_volume
    half = spectrum.coefficients[..., : g.points_per_axis // 2 + 1] * _centre_phase(g)
    half /= scale
    return ScalarField(g, _irfft(half, g))


def apply_fractional_symbol(spectrum: Spectrum, s: float) -> Spectrum:
    """Multiply by the fractional-Laplacian symbol |p|^{2s}, s in (0, 1].

    The symbol vanishes at p = 0, so the zero-frequency coefficient is
    always annihilated.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"fractional order s must lie in (0, 1], got {s}")
    g = spectrum.grid
    return Spectrum(g, g.wavenumbers ** (2.0 * s) * spectrum.coefficients)


def two_exponent_symbol(wavenumbers: np.ndarray, s1: float, s2: float) -> np.ndarray:
    """Symbol ``|p|^{2 s1} + |p|^{2 s2}`` of ``(-Lap)^{s1} + (-Lap)^{s2}`` at the given |p|."""
    return wavenumbers ** (2.0 * s1) + wavenumbers ** (2.0 * s2)


def convolve(h: ScalarField, g: ScalarField) -> ScalarField:
    """Continuum convolution ``integral(h(x-y) g(y) dy)`` on the periodic box.

    Under the continuum normalization the convolution theorem reads
    ``conv_hat = (2*pi)**1.5 * h_hat * g_hat``; on plain coefficients the
    centred ``h`` contributes ``h^3 * phase * c_h``.
    """
    if h.grid != g.grid:
        raise ValueError("convolution operands live on different grids")
    grid = h.grid
    ch, cg = _rfft(np.stack([h.values, g.values]))
    ch *= grid.cell_volume * _centre_phase(grid)
    ch *= cg
    return ScalarField(grid, _irfft(ch, grid))


def spectrum_l2(spectrum: Spectrum) -> float:
    """L2 norm evaluated in frequency space (Plancherel)."""
    g = spectrum.grid
    return float(np.sqrt(g.mode_volume * np.sum(np.abs(spectrum.coefficients) ** 2)))


def field_norms(field: ScalarField) -> NormReport:
    """L1, L2, Linf and H2 norms of a scalar field: :func:`vector_norms` of one component."""
    return vector_norms(VectorField(field.grid, field.values[None]))


def vector_norms(u: VectorField) -> NormReport:
    """Norms of an R^N-valued field.

    L2 and H2 aggregate components as the root of the sum of squared
    component norms; L1 and Linf are taken on the pointwise Euclidean
    length |u(x)|.  The H2 derivative term comes from the half spectrum the
    field carries, or from one batched ``rfftn`` when it carries none.
    """
    g = u.grid
    spectrum = u.spectrum if u.spectrum is not None else _rfft(u.values)
    length = u.euclidean_length()
    flat = u.values.ravel()
    l2_sq = g.cell_volume * float(np.vdot(flat, flat))
    lap_sq = _weighted_power(spectrum, half_lattice(g).h2_weights)
    return NormReport(
        l1=float(g.cell_volume * np.sum(length)),
        l2=float(np.sqrt(l2_sq)),
        linf=float(np.max(length)),
        h2=float(np.sqrt(l2_sq + lap_sq)),
    )


def h2_distance(a: VectorField, b: VectorField) -> float:
    """``||a - b||_H2`` by Plancherel from the half spectra both fields carry.

    Works one component at a time in one reused difference buffer; agrees
    with ``vector_norms(a - b).h2`` up to rounding.
    """
    if a.grid != b.grid or a.n_components != b.n_components:
        raise ValueError("fields differ in grid or component count")
    if a.spectrum is None or b.spectrum is None:
        raise ValueError("both fields must carry their half spectra")
    return _h2_gap(a.spectrum, b.spectrum, a.grid)


def _h2_gap(sa: np.ndarray, sb: np.ndarray, grid: Grid3) -> float:
    """:func:`h2_distance` of two fields given by their stacked half spectra."""
    lattice = half_lattice(grid)
    diff = np.empty_like(sa[0])
    total = 0.0
    for ca, cb in zip(sa, sb):
        np.subtract(ca, cb, out=diff)
        total += _weighted_power(diff, lattice.weights) + _weighted_power(diff, lattice.h2_weights)
    return math.sqrt(total)


# --- the rfftn half lattice -------------------------------------------------------

def _rfft(values: np.ndarray) -> np.ndarray:
    """Plain ``rfftn`` over the three spatial axes (batched over leading axes).

    The passes of ``numpy.fft.rfftn``, in its order, but the two complex
    passes run in place: bitwise the same coefficients, one half-spectrum
    allocation where ``rfftn`` makes one per axis.
    """
    coeff = np.fft.rfft(values, axis=-1)
    np.fft.fft(coeff, axis=-2, out=coeff)
    np.fft.fft(coeff, axis=-3, out=coeff)
    return coeff


def _irfft(coeff: np.ndarray, grid: Grid3) -> np.ndarray:
    """Invert :func:`_rfft` onto the grid's real-space shape.

    The passes of ``numpy.fft.irfftn``, bitwise the same values, run one
    leading component at a time: each component is copied into one work
    buffer, its complex passes run in place there, and the last pass writes
    straight into the preallocated output.  Callers keep ``coeff`` as the
    result's carried spectrum, and the transient copy is one component's,
    not the whole stack's.
    """
    lead = coeff.shape[:-3]
    out = np.empty(lead + grid.shape)
    work = np.empty_like(coeff[(0,) * len(lead)])
    for i in np.ndindex(lead):
        np.copyto(work, coeff[i])
        np.fft.ifft(work, axis=-3, out=work)
        np.fft.ifft(work, axis=-2, out=work)
        np.fft.irfft(work, n=grid.shape[-1], axis=-1, out=out[i])
    return out


def _band_limit(values: np.ndarray, grid: Grid3) -> np.ndarray:
    """Drop every mode of ``values`` with |p| above half the axis Nyquist frequency.

    Returns bitwise ``_rfft(values)`` with those coefficients set to zero,
    and overwrites ``values`` (batched like :func:`_rfft`) with bitwise
    ``_irfft`` of it.  Every kept mode lies in the cube |k_i| <= n//4, so
    the passes are pruned to it (Markel, "FFT pruning", 1971): the z
    ``rfft`` runs in full and keeps n//4 + 1 planes, the y pass runs on
    those planes and the x pass on the kept rows; the drop mask is applied
    to the cube only, and the inverse mirrors the forward passes.  The
    z ``rfft``'s half spectrum serves as the work buffer of the y passes
    and the z ``irfft``, and then as the returned spectrum, zero outside
    the cube.
    """
    n = grid.points_per_axis
    q = n // 4
    kept = np.r_[0 : q + 1, n - q : n]
    cube = (Ellipsis,) + np.ix_(kept, kept, np.arange(q + 1))
    drop = half_lattice(grid).wavenumbers[cube[1:]] > 0.5 * grid.nyquist
    coeff = np.fft.rfft(values, axis=-1)
    planes = coeff[..., : q + 1]
    np.fft.fft(planes, axis=-2, out=planes)
    rows = planes[..., kept, :]
    np.fft.fft(rows, axis=-3, out=rows)
    block = rows[..., kept, :, :]
    block[..., drop] = 0.0
    # inverse: the x pass on the kept rows, the y pass on the kept planes
    rows[...] = 0.0
    rows[..., kept, :, :] = block
    np.fft.ifft(rows, axis=-3, out=rows)
    coeff[...] = 0.0
    planes[..., kept, :] = rows
    np.fft.ifft(planes, axis=-2, out=planes)
    np.fft.irfft(coeff, n=n, axis=-1, out=values)
    planes[...] = 0.0
    coeff[cube] = block
    return coeff


def _gaussian_axis_spectra(specs, grid: Grid3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-D transforms of the Gaussians' axis factors: ``fft(A e_x)``, ``fft(e_y)``, ``rfft(e_z)``.

    Row t of each array belongs to ``specs[t]``; shapes ``(k, n)``, ``(k, n)``
    and ``(k, n/2 + 1)``.  The axis samples are those of
    :func:`~dualfrac.problems.realize_gaussian`, clearance warning included;
    one ``fft`` call transforms every x and y factor and one ``rfft`` call
    every z factor.
    """
    n = grid.points_per_axis
    if not specs:
        return np.zeros((0, n), complex), np.zeros((0, n), complex), np.zeros((0, n // 2 + 1), complex)
    factors = [_axis_factors(spec, grid) for spec in specs]
    xs = [spec.amplitude * f[0] for spec, f in zip(specs, factors)]
    xy = np.fft.fft(np.stack(xs + [f[1] for f in factors]))
    zs = np.fft.rfft(np.stack([f[2] for f in factors]))
    return xy[: len(specs)], xy[len(specs) :], zs


def _outer_rows(xs: np.ndarray, ys: np.ndarray, zs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sum_t xs[t, i] ys[t, j] zs[t, l]`` written into ``out[i, j, l]``.

    The k terms are added by one ``(m n x k) @ (k x n/2+1)`` matrix product
    written straight into ``out``, so no full-size temporary is built.
    Passing a slice of ``xs``'s columns gives those x-frequency rows alone.
    """
    k, m = xs.shape
    n, half = ys.shape[1], zs.shape[1]
    planes = xs[:, :, None] * ys[:, None, :]
    np.matmul(planes.reshape(k, m * n).T, zs, out=out.reshape(m * n, half))
    return out


def _gaussian_half_spectra(sums, grid: Grid3) -> np.ndarray:
    """Plain ``rfftn`` coefficients of Gaussian sums sampled on the grid, stacked.

    Returns shape ``(len(sums), n, n, n/2 + 1)`` with no 3-D transform: a
    sampled Gaussian ``A e_x(x) e_y(y) e_z(z)`` factors over the axes, so its
    DFT is the outer product ``fft(A e_x) x fft(e_y) x rfft(e_z)``
    (:func:`_gaussian_axis_spectra`), summed over each sum's terms by
    :func:`_outer_rows` over all rows at once.
    """
    n = grid.points_per_axis
    out = np.zeros((len(sums), n, n, n // 2 + 1), dtype=np.complex128)
    xs, ys, zs = _gaussian_axis_spectra([spec for terms in sums for spec in terms], grid)
    start = 0
    for acc, terms in zip(out, sums):
        stop = start + len(terms)
        _outer_rows(xs[start:stop], ys[start:stop], zs[start:stop], acc)
        start = stop
    return out


def _weighted_power(coeff: np.ndarray, weights: np.ndarray) -> float:
    """``sum(weights * |coeff|^2)`` with no full-size temporary.

    ``weights`` spans coeff's trailing axes: the 1-D Plancherel ``weights``
    or the 3-D ``h2_weights`` of a :class:`HalfLattice`, or a slice of
    either.  Leading axes (stacked components) are summed too.  One
    ``einsum`` runs over each float64 view, ``coeff.real`` and
    ``coeff.imag``; a single one over interleaved (re, im) pairs would make
    its innermost loop two elements long and run 2-3x slower.
    """
    axes = "abcdefgh"[: coeff.ndim]
    terms = f"{axes},{axes},{axes[coeff.ndim - weights.ndim:]}->"
    re, im = coeff.real, coeff.imag
    return float(np.einsum(terms, re, re, weights) + np.einsum(terms, im, im, weights))


def _row_power(coeff: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """:func:`_weighted_power` of each leading-axis row of a 3-D ``coeff``, shape ``(m,)``.

    A row's sum does not depend on the rows around it, so summing these
    gives one result however the rows were split into slabs.
    """
    re, im = coeff.real, coeff.imag
    return np.einsum("abc,abc,c->a", re, re, weights) + np.einsum("abc,abc,c->a", im, im, weights)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _without_zero_mode(numerator: np.ndarray, symbol: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``numerator / symbol`` on the nonzero modes and 0 at p = 0, where the symbol vanishes.

    ``out`` may be ``numerator`` itself, which divides in place.
    """
    zero = symbol == 0.0
    if out is None:
        out = np.zeros(np.broadcast_shapes(numerator.shape, symbol.shape), dtype=np.complex128)
    np.divide(numerator, symbol, out=out, where=~zero)
    out[np.broadcast_to(zero, out.shape)] = 0.0
    return out


class _once:
    """Lazy piece: computed on first access under the owner's lock, then cached."""

    def __init__(self, build):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        cache = instance.__dict__
        if self.name not in cache:
            with instance._lock:
                if self.name not in cache:
                    cache[self.name] = self.build(instance)
        return cache[self.name]


def _row_slabs(n: int) -> list[slice]:
    """Slabs of x-frequency rows covering the n-point half lattice in order.

    Each slab but the last holds the same number of rows, as many as fit in
    :data:`SLAB_BYTES` of complex coefficients (at least one).  Elementwise work
    done slab by slab gives bitwise the whole-array result, with temporaries
    of slab size.
    """
    row_bytes = n * (n // 2 + 1) * np.dtype(np.complex128).itemsize
    height = min(n, max(1, SLAB_BYTES // row_bytes))
    return [slice(r, min(r + height, n)) for r in range(0, n, height)]


def _wavenumber_rows(grid: Grid3, rows: slice) -> np.ndarray:
    """|p| on the given x-frequency rows of the half lattice, shape ``(m, n, n/2 + 1)``."""
    p_sq = grid.frequency_axis**2
    half = grid.points_per_axis // 2 + 1
    pm = p_sq[rows, None, None] + p_sq[None, :, None] + p_sq[None, None, :half]
    return np.sqrt(pm, out=pm)


def _plancherel_weights(grid: Grid3) -> np.ndarray:
    """Weights along the last half-lattice axis that turn ``|c|^2`` sums into ``h^3 sum(f^2)``.

    Every plane but the first and the last (Nyquist) stands for itself and
    its mirror ``-p``: for plain rfftn coefficients c of samples f,
    ``h^3 * sum(f^2) = h^3 / n^3 * sum(multiplicity * |c|^2)``.
    """
    n = grid.points_per_axis
    multiplicity = np.full(n // 2 + 1, 2.0)
    multiplicity[0] = multiplicity[-1] = 1.0
    return grid.cell_volume / n**3 * multiplicity


def _centre_phase(grid: Grid3, rows: slice = slice(None)) -> np.ndarray:
    """``(-1)^(k1+k2+k3)`` on the half lattice, relating samples indexed from ``-L/2`` to ``x = 0``.

    ``rows`` restricts it to those x-frequency rows.
    """
    n = grid.points_per_axis
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return sign[rows, None, None] * sign[None, :, None] * sign[: n // 2 + 1]


class HalfLattice:
    """Per-grid data on the ``rfftn`` half lattice ``n x n x (n/2 + 1)``.

    Built from broadcast 1-D frequency axes.  The last axis holds
    frequencies ``0..n/2``; every other plane stands for itself and its
    mirror ``-p``, which ``multiplicity`` counts, so that sums over the full
    lattice of functions of |p| and |c(p)| become weighted half sums.
    """

    def __init__(self, grid: Grid3):
        self.grid = grid
        self.wavenumbers = _frozen(_wavenumber_rows(grid, slice(None)))
        self.weights = _frozen(_plancherel_weights(grid))
        self._lock = threading.RLock()

    @_once
    def h2_weights(self) -> np.ndarray:
        """Weights of the H2 derivative term, ``weights * |p|^4``; built on first use."""
        return _frozen(self.weights * self.wavenumbers**4)


@lru_cache(maxsize=1)
def half_lattice(grid: Grid3) -> HalfLattice:
    """Shared :class:`HalfLattice` of a grid (the most recent grid's is cached)."""
    return HalfLattice(grid)


def nonzero_mode_l2(coeff: np.ndarray, grid: Grid3) -> float:
    """L2 norm, by Plancherel, of plain ``rfftn`` coefficients on the nonzero modes.

    ``coeff`` may stack several components along leading axes; their squared
    norms add.  The sum runs over three slices that together leave out only
    p = 0, so nothing is copied; subtracting the zero mode's term from the
    full sum instead would cancel catastrophically whenever that mode
    dominates, as it does in a defect against an influx with nonzero mean.
    """
    w = half_lattice(grid).weights
    total = (
        _weighted_power(coeff[..., 1:, :, :], w)
        + _weighted_power(coeff[..., 0, 1:, :], w)
        + _weighted_power(coeff[..., 0, 0, 1:], w[1:])
    )
    return math.sqrt(total)


def relative_defect(lhs: np.ndarray, rhs: np.ndarray, grid: Grid3, reference: float | None = None) -> float:
    """L2 defect ``||lhs - rhs||`` on the nonzero modes, relative to ``reference``.

    ``reference`` defaults to the same norm of rhs; a zero reference leaves
    the defect unnormalized.
    """
    return _defect_ratio(lhs - rhs, rhs, grid, reference)


def _defect_ratio(diff: np.ndarray, rhs: np.ndarray, grid: Grid3, reference: float | None = None) -> float:
    """:func:`relative_defect` from the difference ``diff = lhs - rhs``, which the caller may form in place."""
    num = nonzero_mode_l2(diff, grid)
    den = nonzero_mode_l2(rhs, grid) if reference is None else reference
    return num / den if den else num


# --- per-problem plans ------------------------------------------------------------


class SpectralPlan:
    """Spectral data of one ``(orders, kernels, influxes, grid)`` on the half lattice.

    Every lattice-size array holds plain ``rfftn`` coefficients stacked over
    components, shape ``(N, n, n, n/2 + 1)``: the symbols, the transfer and
    u0's spectrum.  The influx spectra are not kept; the plan caches only
    the influx Gaussians' 1-D axis spectra, from which u0 is built and
    :meth:`influx_spectrum` rebuilds one component's f_hat on request.
    Couplings and nonlinearities are not part of the plan, so
    ``with_epsilon``/``with_nonlinearity`` variants of a problem share one.
    Pieces are built on first use: a linear solve realizes nothing, and no
    piece realizes the influxes in real space.
    """

    def __init__(
        self,
        orders: FractionalOrders,
        kernels: tuple[tuple[GaussianSpec, ...], ...],
        influxes: tuple[tuple[GaussianSpec, ...], ...],
        grid: Grid3,
    ):
        self.orders = orders
        self.kernels = kernels
        self.influxes = influxes
        self.grid = grid
        self.lattice = half_lattice(grid)
        self._lock = threading.RLock()

    @_once
    def symbols(self) -> np.ndarray:
        """Two-exponent symbol of each component."""
        pm = self.lattice.wavenumbers
        return _frozen(np.stack([two_exponent_symbol(pm, a, b) for a, b in zip(self.orders.s1, self.orders.s2)]))

    @_once
    def _influx_axis_spectra(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # every influx Gaussian's 1-D axis spectra, stacked in component order
        specs = [spec for terms in self.influxes for spec in terms]
        return tuple(_frozen(a) for a in _gaussian_axis_spectra(specs, self.grid))

    def influx_spectrum(self, m: int, out: np.ndarray | None = None) -> np.ndarray:
        """Plain ``rfftn`` coefficients of influx ``m``, shape ``(n, n, n/2 + 1)``.

        Rebuilt on every call, into ``out`` or a new array, as an outer
        product of the cached 1-D axis spectra: the plan keeps no influx
        spectrum of lattice size.
        """
        xs, ys, zs = self._influx_axis_spectra
        start = sum(len(terms) for terms in self.influxes[:m])
        rows = slice(start, start + len(self.influxes[m]))
        if out is None:
            out = np.empty(self.lattice.wavenumbers.shape, dtype=np.complex128)
        return _outer_rows(xs[rows], ys[rows], zs[rows], out)

    @_once
    def _linear_pieces(self) -> tuple[float, VectorField]:
        # One stack of influx spectra gives the influx norm, then is divided
        # by the symbols in place to become u0's carried spectrum.
        coeff = np.empty((len(self.influxes),) + self.lattice.wavenumbers.shape, dtype=np.complex128)
        for m, acc in enumerate(coeff):
            self.influx_spectrum(m, out=acc)
        influx_l2 = math.sqrt(_weighted_power(coeff, self.lattice.weights))
        coeff = _frozen(_without_zero_mode(coeff, self.symbols, out=coeff))
        values = _frozen(_irfft(coeff, self.grid))
        return influx_l2, VectorField(self.grid, values, coeff)

    @property
    def influx_l2(self) -> float:
        """L2 norm of the influx vector, by Plancherel on its spectra (zero mode included)."""
        return self._linear_pieces[0]

    @property
    def u0(self) -> VectorField:
        """Linear response to the influxes, zero mode dropped; carries its spectrum."""
        return self._linear_pieces[1]

    @_once
    def u0_norms(self) -> NormReport:
        """:func:`vector_norms` of u0."""
        return vector_norms(self.u0)

    @_once
    def _kernel_pieces(self) -> tuple[tuple[float, float], np.ndarray]:
        # H is a real-space L1 norm: each kernel is realized, one at a time,
        # for it alone, and its |values| taken in place.  Q and the transfer
        # multiplier read the separable spectra: each filtered spectrum is
        # formed in one reused buffer, and the filter and the centre phase
        # run slab by slab, so besides the kernel stack the build holds one
        # component's buffer and slab-sized temporaries.
        g = self.grid
        h_sq = 0.0
        for k in self.kernels:
            values = realize_gaussian_sum(k, g).values
            h_sq += float(g.cell_volume * np.sum(np.abs(values, out=values))) ** 2
            del values
        coeff = _gaussian_half_spectra(self.kernels, g)
        pm = self.lattice.wavenumbers
        slabs = _row_slabs(g.points_per_axis)
        filtered = np.empty_like(coeff[0])
        q_sq = 0.0
        for s1, c in zip(self.orders.s1, coeff):
            for rows in slabs:
                np.multiply(pm[rows] ** (2.0 * (1.0 - s1)), c[rows], out=filtered[rows])
            q_sq += nonzero_mode_l2(filtered, g) ** 2
        del filtered
        # continuum convolution theorem on plain coefficients: the centred
        # kernel contributes h^3 * phase * c_h
        for rows in slabs:
            coeff[:, rows] *= g.cell_volume * _centre_phase(g, rows)
        transfer = _frozen(_without_zero_mode(coeff, self.symbols, out=coeff))
        return (math.sqrt(h_sq), math.sqrt(q_sq)), transfer

    @property
    def kernel_constants(self) -> tuple[float, float]:
        """Root sums of squared kernel L1 norms (H) and of ``(-Lap)^{1-s1}``-filtered L2 norms (Q)."""
        return self._kernel_pieces[0]

    @property
    def transfer(self) -> np.ndarray:
        """epsilon-free map from the coupling's spectrum to the solution map's.

        ``(2 pi)^{3/2} h_hat / (|p|^{2 s1} + |p|^{2 s2})`` per component,
        zero at p = 0.
        """
        return self._kernel_pieces[1]


@lru_cache(maxsize=1)
def _cached_plan(orders, kernels, influxes, grid) -> SpectralPlan:
    return SpectralPlan(orders, kernels, influxes, grid)


def spectral_plan(problem) -> SpectralPlan:
    """The shared :class:`SpectralPlan` of a problem.

    Only the most recent plan is cached: a CLI operation works on one
    problem and its coupling variants, which all share that plan.
    """
    return _cached_plan(problem.orders, problem.kernels, problem.influxes, problem.grid)
