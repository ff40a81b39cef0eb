"""FFT transforms, fractional-Laplacian symbols, convolution, norms and spectral plans.

All operations are pure functions; fields and spectra are immutable, so
concurrent calls on distinct data are safe.

Every full 3-D transform runs through :func:`_rfft`/:func:`_irfft`: plain
``rfftn`` coefficients on the half lattice, batched over the components of
a :class:`VectorField`; the public :class:`Spectrum` transforms only add
the continuum normalization and the mirrored upper half of the ``fftn``
layout.  The ball sampler's band limit runs the same passes pruned to the
modes it keeps (:func:`_band_limit`).  :class:`SpectralPlan` holds the
per-problem 1-D pieces, from which it applies the transfer slab by slab
(:meth:`SpectralPlan.scale_by_transfer`) and forms the linear response u0's
spectrum inside an inverse transform (:meth:`SpectralPlan.u0_plus`), so
``u0 + v`` is one inverse transform of ``u0_hat + v_hat``, and every
reader owns the u0 it reads: the plan builds u0's values afresh for each
read and keeps only its norms' terms.  No array of lattice size is kept.
On the lattice ``|p|^2 = (2 pi / L)^2 k^2`` with ``k^2`` an integer shell of
at most ``3 (n/2)^2``, so every |p|-dependent factor (a symbol, Q's filter,
the regularity identity's powers) is a 1-D table over the shells, made from
:func:`_shell_wavenumbers`, that :func:`_scale_by_shells` applies in
place slab by slab (:func:`_row_slabs`) through the integer shell index
:func:`_shell_rows`.  The zero mode p = 0 is shell 0 alone, where every
symbol vanishes, so a division scales by :func:`_inverse_symbol`, which is 0
there: the drop policy is one table entry.  Every Plancherel sum is made of
per-row sums whose weights span one row (:func:`_row_power`).  Gaussian
sums are separable, so their spectra are outer products of 1-D transforms
(:func:`_gaussian_axis_spectra`, :func:`_gaussian_rows`), never a 3-D
transform of samples; the plan keeps only the influxes' and the kernels'
1-D axis spectra, rebuilds one influx spectrum when asked for it and forms
the transfer and u0's spectrum one slab at a time when it applies them.
Plans are immutable:
every piece is computed once, on first use and under the plan's lock, and
its arrays are read-only, so one plan is safe to share across the
``sweep-epsilon`` thread pool.
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
    "two_exponent_symbol",
    "convolve",
    "field_norms",
    "vector_norms",
    "h2_distance",
    "spectrum_l2",
    "nonzero_mode_l2",
    "SpectralPlan",
    "spectral_plan",
]

TWO_PI_32 = (2.0 * np.pi) ** 1.5

# Coefficient bytes per slab of x-frequency rows for the slab-wise passes
# (:func:`_row_slabs`): about 1 MiB, so one slab and its shell index and
# symbol stay in L2 cache.
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


def two_exponent_symbol(wavenumbers: np.ndarray, s1: float, s2: float) -> np.ndarray:
    """Symbol ``|p|^{2 s1} + |p|^{2 s2}`` of ``(-Lap)^{s1} + (-Lap)^{s2}`` at the given |p|.

    The second power is added into the first's buffer, so the call holds
    two temporaries of |p|'s size, not three.
    """
    symbol = wavenumbers ** (2.0 * s1)
    symbol += wavenumbers ** (2.0 * s2)
    return symbol


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
    length |u(x)|.  L2 and H2 come by Plancherel (:func:`_h2_power`) from
    the half spectrum the field carries or, when it carries none, from one
    ``rfftn`` per component, whose terms are added in component order, as
    :func:`~dualfrac.fixed_point.solve_fixed_point` adds them for u.
    """
    if u.spectrum is not None:
        return _norms_with_h2_terms(u, *_h2_power(u.spectrum, u.grid))
    l2_sq = lap_sq = 0.0
    for values in u.values:
        terms = _h2_power(_rfft(values), u.grid)
        l2_sq += terms[0]
        lap_sq += terms[1]
    return _norms_with_h2_terms(u, l2_sq, lap_sq)


def _norms_with_h2_terms(u: VectorField, l2_sq: float, lap_sq: float) -> NormReport:
    """:func:`vector_norms` of u given its two H2 terms, as :func:`_h2_power` returns them."""
    g = u.grid
    length = u.euclidean_length()
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
    diff = np.empty_like(sa[0])
    total = 0.0
    for ca, cb in zip(sa, sb):
        np.subtract(ca, cb, out=diff)
        l2_sq, lap_sq = _h2_power(diff, grid)
        total += l2_sq + lap_sq
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
    buffer, where :func:`_irfft_in_place` inverts it into the preallocated
    output.  Callers keep ``coeff`` as the result's carried spectrum, and the
    transient copy is one component's, not the whole stack's.
    """
    lead = coeff.shape[:-3]
    out = np.empty(lead + grid.shape)
    work = np.empty_like(coeff[(0,) * len(lead)])
    for i in np.ndindex(lead):
        np.copyto(work, coeff[i])
        _irfft_in_place(work, grid, out[i])
    return out


def _irfft_in_place(work: np.ndarray, grid: Grid3, out: np.ndarray) -> np.ndarray:
    """``irfftn`` of one component's coefficients into ``out``; the complex passes overwrite ``work``."""
    np.fft.ifft(work, axis=-3, out=work)
    np.fft.ifft(work, axis=-2, out=work)
    return np.fft.irfft(work, n=grid.shape[-1], axis=-1, out=out)


def _band_limit(values: np.ndarray, grid: Grid3) -> np.ndarray:
    """Drop every mode of ``values`` with |p| above half the axis Nyquist frequency.

    Returns bitwise ``_rfft(values)`` with those coefficients set to zero,
    and overwrites ``values`` (batched like :func:`_rfft`) with bitwise
    ``_irfft`` of it.  Every kept mode lies in the cube |k_i| <= n//4, so
    the passes are pruned to it (Markel, "FFT pruning", 1971): the z
    ``rfft`` runs in full and keeps n//4 + 1 planes, the y pass runs on
    those planes and the x pass on the kept rows; the drop mask is formed
    from the 1-D axes on the cube only, and the inverse mirrors the forward
    passes.  A mode is dropped when its shell exceeds ``(n/4)^2``, tested
    on integers as ``16 k^2 > n^2``, so the modes at exactly half the
    Nyquist frequency are kept along every direction, whatever rounding a
    floating-point |p| would see.  The z ``rfft``'s half spectrum serves as
    the work buffer of the y passes and the z ``irfft``, and then as the
    returned spectrum, zero outside the cube.
    """
    n = grid.points_per_axis
    q = n // 4
    kept = np.r_[0 : q + 1, n - q : n]
    cube = (Ellipsis,) + np.ix_(kept, kept, np.arange(q + 1))
    k_sq = _axis_shells(n)
    drop = 16 * (k_sq[kept, None, None] + k_sq[None, kept, None] + k_sq[None, None, : q + 1]) > n * n
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


def _gaussian_axis_spectra(sums, grid: Grid3) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """1-D transforms of Gaussian sums' axis factors, one ``(xs, ys, zs)`` triple per sum.

    Row t of a sum's arrays belongs to its term t: ``fft(A e_x)``,
    ``fft(e_y)`` and ``rfft(e_z)``, shapes ``(k, n)``, ``(k, n)`` and
    ``(k, n/2 + 1)``.  The axis samples are those of
    :func:`~dualfrac.problems.realize_gaussian`, clearance warning included;
    one ``fft`` call transforms every x and y factor of every sum and one
    ``rfft`` call every z factor.
    """
    n = grid.points_per_axis
    specs = [spec for terms in sums for spec in terms]
    factors = [_axis_factors(spec, grid) for spec in specs]
    xs = [spec.amplitude * f[0] for spec, f in zip(specs, factors)]
    xy = np.fft.fft(np.reshape(xs + [f[1] for f in factors], (-1, n)))
    zs = np.fft.rfft(np.reshape([f[2] for f in factors], (-1, n)))
    ends = np.cumsum([0] + [len(terms) for terms in sums])
    return [(xy[a:b], xy[len(specs) + a : len(specs) + b], zs[a:b]) for a, b in zip(ends[:-1], ends[1:])]


def _gaussian_rows(axis_spectra, rows: slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
    """Plain ``rfftn`` coefficients of one sampled Gaussian sum on the given x-frequency rows (default all).

    A sampled Gaussian ``A e_x(x) e_y(y) e_z(z)`` factors over the axes, so
    its DFT is the outer product of its axis spectra
    (:func:`_gaussian_axis_spectra`): ``sum_t xs[t, i] ys[t, j] zs[t, l]``,
    written into ``out`` or a new array of shape ``(len(rows), n, n/2 + 1)``.
    The k terms are added by one ``(m n x k) @ (k x n/2+1)`` matrix product
    written straight into ``out``, so no full-size temporary is built; an
    empty sum gives zeros.
    """
    xs, ys, zs = axis_spectra
    xs = xs[:, rows]
    k, m = xs.shape
    n, half = ys.shape[1], zs.shape[1]
    if out is None:
        out = np.empty((m, n, half), dtype=np.complex128)
    planes = xs[:, :, None] * ys[:, None, :]
    np.matmul(planes.reshape(k, m * n).T, zs, out=out.reshape(m * n, half))
    return out


def _row_power(coeff: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum(w * |coeff|^2)`` over each x-frequency row of ``coeff``, shape ``coeff.shape[:-2]``.

    The one Plancherel sum: every norm, distance and defect of half spectra
    adds these row sums.  ``w`` has a row's shape, n x (n/2 + 1), such as
    :func:`_plancherel_weights` (with 1-D weights ``einsum`` would buffer
    about 64 KiB per call); leading axes (stacked components) are kept.
    One ``einsum`` runs over each float64 view, ``coeff.real`` and
    ``coeff.imag``; a single one over interleaved (re, im) pairs would make
    its innermost loop two elements long and run 2-3x slower.  A row's sum
    does not depend on the rows around it, so summing these gives one
    result however the rows were split into slabs, and a total's rounding
    grows with the number of rows, not of modes.
    """
    re, im = coeff.real, coeff.imag
    return np.einsum("...abc,...abc,bc->...a", re, re, w) + np.einsum("...abc,...abc,bc->...a", im, im, w)


def _h2_power(coeff: np.ndarray, grid: Grid3) -> tuple[float, float]:
    """The H2 terms ``(sum(w |coeff|^2), sum(w |p|^4 |coeff|^2))`` of plain ``rfftn`` coefficients.

    With ``t = p_y^2 + p_z^2``, ``|p|^4 = p_x^4 + 2 p_x^2 t + t^2``, so each
    x-frequency row's derivative term comes from three :func:`_row_power`
    sums with the weights w, w t and w t^2, and the first of them is the
    row's L2 term: no |p|-derived array of lattice size is formed.  Leading
    axes (stacked components) are summed too.  The rows are added by
    ``np.sum``, so an overflowing term gives a non-finite result, formed
    without a numpy warning, that callers can test, where ``math.fsum``
    would raise.
    """
    n = grid.points_per_axis
    p_sq = grid.frequency_axis**2
    # t built in place: a broadcast sum buffers more than t's own size
    t = np.repeat(p_sq[:, None], n // 2 + 1, axis=1)
    t += p_sq[: n // 2 + 1]
    w = _plancherel_weights(grid)
    l2_rows = _row_power(coeff, w)
    t_rows = _row_power(coeff, np.multiply(w, t, out=w))
    tt_rows = _row_power(coeff, np.multiply(w, t, out=w))
    # an overflowing row power meets p_x = 0 as 0 * inf: the nan is the caller's to test
    with np.errstate(over="ignore", invalid="ignore"):
        lap_rows = p_sq**2 * l2_rows + 2.0 * p_sq * t_rows + tt_rows
    return float(np.sum(l2_rows)), float(np.sum(lap_rows))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


def _axis_shells(n: int) -> np.ndarray:
    """Integer ``k^2`` along an n-point frequency axis, in ``fftfreq`` order."""
    k = np.arange(n)
    k = np.minimum(k, n - k)
    return k * k


def _shell_rows(grid: Grid3, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
    """Shell index ``k^2 = k_x^2 + k_y^2 + k_z^2`` on the given x-frequency rows of the half lattice.

    Integer, shape ``(m, n, n/2 + 1)``, formed from the 1-D axes into
    ``out`` or a new array.  Its values lie in ``0 .. 3 (n/2)^2``, the
    entries of :func:`_shell_wavenumbers`, and it is 0 at p = 0 alone, so
    indexing a shell table with it gives that factor on the rows.
    """
    k_sq = _axis_shells(grid.points_per_axis)
    half = grid.points_per_axis // 2 + 1
    return np.add(k_sq[rows, None, None], k_sq[None, :, None] + k_sq[None, None, :half], out=out)


def _shell_wavenumbers(grid: Grid3) -> np.ndarray:
    """|p| = (2 pi / L) sqrt(k^2) on every shell ``k^2 = 0 .. 3 (n/2)^2``: the 1-D table of |p|."""
    n = grid.points_per_axis
    return (2.0 * np.pi / grid.box_length) * np.sqrt(np.arange(3 * (n // 2) ** 2 + 1))


def _inverse_symbol(symbol: np.ndarray) -> np.ndarray:
    """``1 / symbol`` on the shells ``k^2 >= 1`` and 0 on shell 0 (p = 0), where the symbol vanishes.

    Scaling by it divides by the symbol and drops the zero mode.  numpy
    divides complex by real as a multiply by the reciprocal, so the result
    equals a plain division's.
    """
    inverse = np.zeros_like(symbol)
    np.divide(1.0, symbol[1:], out=inverse[1:])
    return inverse


def _shell_factors(table: np.ndarray, grid: Grid3):
    """Yield each slab of rows (:func:`_row_slabs`) with a 1-D shell table gathered on it.

    The slab's shell index (:func:`_shell_rows`) and the gathered factor
    are written into two buffers of slab size that every slab reuses, so
    each factor is valid until the next one is yielded.  ``take`` runs in
    ``clip`` mode because under the default ``raise`` it buffers ``out``;
    the table's length is checked instead, so every index lies in it.
    """
    n = grid.points_per_axis
    if len(table) <= 3 * (n // 2) ** 2:
        raise ValueError(f"shell table has {len(table)} entries; the grid's shells need {3 * (n // 2) ** 2 + 1}")
    slabs = _row_slabs(n)
    shape = (slabs[0].stop, n, n // 2 + 1)
    index, factor = np.empty(shape, dtype=np.int64), np.empty(shape, dtype=table.dtype)
    for rows in slabs:
        m = rows.stop - rows.start
        yield rows, np.take(table, _shell_rows(grid, rows, out=index[:m]), out=factor[:m], mode="clip")


def _scale_by_shells(coeff: np.ndarray, table: np.ndarray, grid: Grid3) -> np.ndarray:
    """Multiply half-lattice coefficients (stacked or not) in place by a 1-D shell table; returns ``coeff``.

    The table is gathered one slab of rows at a time (:func:`_shell_factors`),
    so the temporaries are slab-sized.
    """
    for rows, factor in _shell_factors(table, grid):
        coeff[..., rows, :, :] *= factor
    return coeff


def _plancherel_weights(grid: Grid3) -> np.ndarray:
    """Weights of one x-frequency row, n x (n/2 + 1), that turn ``|c|^2`` sums into ``h^3 sum(f^2)``.

    Every plane but the first and the last (Nyquist) stands for itself and
    its mirror ``-p``: for plain rfftn coefficients c of samples f,
    ``h^3 * sum(f^2) = h^3 / n^3 * sum(multiplicity * |c|^2)``.  A new
    array on every call, so callers may scale it in place.
    """
    n = grid.points_per_axis
    weights = np.full((n, n // 2 + 1), 2.0)
    weights[:, 0] = weights[:, -1] = 1.0
    weights *= grid.cell_volume / n**3
    return weights


def _axis_signs(n: int) -> np.ndarray:
    """``(-1)^k`` along an n-point frequency axis: the centre phase's factor on that axis."""
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def _centre_phase(grid: Grid3) -> np.ndarray:
    """``(-1)^(k1+k2+k3)`` on the half lattice, relating samples indexed from ``-L/2`` to ``x = 0``."""
    n = grid.points_per_axis
    sign = _axis_signs(n)
    return sign[:, None, None] * sign[None, :, None] * sign[: n // 2 + 1]


def nonzero_mode_l2(coeff: np.ndarray, grid: Grid3) -> float:
    """L2 norm, by Plancherel, of plain ``rfftn`` coefficients on the nonzero modes.

    ``coeff`` may stack several components along leading axes; their squared
    norms add.  The x-frequency rows are summed by :func:`_row_power`, row 0
    with p = 0's weight set to zero, so nothing is copied; subtracting the
    zero mode's term from the full sum instead would cancel catastrophically
    whenever that mode dominates, as it does in a defect against an influx
    with nonzero mean.
    """
    w = _plancherel_weights(grid)
    rest = float(np.sum(_row_power(coeff[..., 1:, :, :], w)))
    w[0, 0] = 0.0
    return math.sqrt(float(np.sum(_row_power(coeff[..., :1, :, :], w))) + rest)


def _relative(defect: float, reference: float) -> float:
    """``defect / reference``, or the defect itself when the reference is zero."""
    return defect / reference if reference else defect


# --- per-problem plans ------------------------------------------------------------


class SpectralPlan:
    """Spectral data of one ``(orders, kernels, influxes, grid)`` on the half lattice.

    It keeps 1-D pieces and scalars only, no array of lattice size.  Each
    component's symbol is a 1-D table over the shells ``k^2``
    (:attr:`symbols`), which every reader, the plan's divisions by its
    inverse (:attr:`inverse_symbols`) included, applies with
    :func:`_scale_by_shells` or gathers slab by slab
    (:func:`_shell_factors`).  The influxes are kept as their Gaussians'
    1-D axis spectra, from which :meth:`influx_spectrum` rebuilds one
    component's f_hat on request and :meth:`u0_plus` forms u0's spectrum,
    f_hat / symbol, one component at a time in an inverse transform's work
    buffer, so ``u0 + v`` is one inverse transform of ``u0_hat + v_hat``.
    Every reader owns the u0 it reads: :attr:`u0` builds fresh writable
    values on every read.  u0 enters the certificate only through
    :attr:`u0_h2`, which one pass takes with the influx norm from each
    u0_hat, with no inverse transform; :meth:`u0_norms` adds the L1 and
    Linf of a u0 the caller holds.  Nor is the transfer kept: the plan
    caches the kernels' sign-flipped 1-D axis spectra, and
    :meth:`scale_by_transfer` forms the transfer from them and the
    inverse-symbol tables one slab at a time as it multiplies a spectrum
    by it.  Couplings and nonlinearities are not part of the plan, so
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
        n = grid.points_per_axis
        self.lattice_shape = (n, n, n // 2 + 1)
        self._lock = threading.RLock()

    @_once
    def symbols(self) -> tuple[np.ndarray, ...]:
        """Each component's two-exponent symbol on every shell ``k^2 = 0 .. 3 (n/2)^2``, read-only.

        Zero on shell 0 (p = 0); :func:`_scale_by_shells` applies a table,
        or its :func:`_inverse_symbol`, to half-lattice coefficients.
        """
        p = _shell_wavenumbers(self.grid)
        return tuple(_frozen(two_exponent_symbol(p, s1, s2)) for s1, s2 in zip(self.orders.s1, self.orders.s2))

    @_once
    def inverse_symbols(self) -> tuple[np.ndarray, ...]:
        """:func:`_inverse_symbol` of each of :attr:`symbols`, read-only: the division by the operator, p = 0 dropped."""
        return tuple(_frozen(_inverse_symbol(symbol)) for symbol in self.symbols)

    @_once
    def _influx_axis_spectra(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        # each influx's 1-D axis spectra, in component order
        return tuple(tuple(map(_frozen, axes)) for axes in _gaussian_axis_spectra(self.influxes, self.grid))

    def influx_spectrum(self, m: int, out: np.ndarray | None = None) -> np.ndarray:
        """Plain ``rfftn`` coefficients of influx ``m`` on the half lattice.

        Rebuilt on every call, into ``out`` or a new array, as an outer
        product of the cached 1-D axis spectra (:func:`_gaussian_rows`): the
        plan keeps no influx spectrum of lattice size.
        """
        return _gaussian_rows(self._influx_axis_spectra[m], out=out)

    def _u0_spectrum(
        self, m: int, out: np.ndarray, add: np.ndarray | None = None, influx_rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Write u0's half spectrum for component ``m``, f_hat / symbol with p = 0 dropped, into ``out``.

        It is formed one slab of rows at a time (:func:`_shell_factors`):
        the slab's f_hat rows (:func:`_gaussian_rows`), scaled by the
        inverse symbol, plus the slab of ``add`` when one is given.  With
        ``influx_rows`` each row's Plancherel power of f_hat
        (:func:`_row_power`) is written there first, for the influx norm.
        """
        g = self.grid
        if influx_rows is not None:
            w = _plancherel_weights(g)
        for rows, factor in _shell_factors(self.inverse_symbols[m], g):
            c = _gaussian_rows(self._influx_axis_spectra[m], rows, out=out[rows])
            if influx_rows is not None:
                influx_rows[rows] = _row_power(c, w)
            c *= factor
            if add is not None:
                c += add[rows]
        return out

    def u0_plus(self, coeff: np.ndarray | None = None) -> np.ndarray:
        """Real values of ``u0 + v`` from v's stacked half spectrum ``coeff``; u0's own when it is None.

        One inverse transform of ``u0_hat + v_hat`` per component: u0_hat
        is formed, and v_hat added, slab by slab in the transform's work
        buffer (:meth:`_u0_spectrum`), which :func:`_irfft_in_place` then
        inverts into the component's values.  So no u0 of lattice size is
        read or kept, and the transient beside the result is one
        component's spectrum.  A new writable array on every call.
        """
        out = np.empty((len(self.influxes),) + self.grid.shape)
        work = np.empty(self.lattice_shape, dtype=np.complex128)
        for m, values in enumerate(out):
            self._u0_spectrum(m, work, None if coeff is None else coeff[m])
            _irfft_in_place(work, self.grid, values)
        return out

    @_once
    def _linear_pieces(self) -> tuple[float, float, float]:
        # the influx norm from the per-row powers of f_hat, and u0's two H2
        # terms, summed in component order from each u0_hat in one work
        # buffer: no inverse transform
        g = self.grid
        work = np.empty(self.lattice_shape, dtype=np.complex128)
        influx_rows = np.empty((len(self.influxes), g.points_per_axis))
        l2_sq = lap_sq = 0.0
        for m in range(len(self.influxes)):
            terms = _h2_power(self._u0_spectrum(m, work, influx_rows=influx_rows[m]), g)
            l2_sq += terms[0]
            lap_sq += terms[1]
        return math.sqrt(np.sum(influx_rows)), l2_sq, lap_sq

    @property
    def u0(self) -> VectorField:
        """Linear response to the influxes, zero mode dropped: values only, ``u0_plus()``.

        A fresh writable field on every read, which its reader owns.
        """
        return VectorField(self.grid, self.u0_plus())

    @property
    def influx_l2(self) -> float:
        """L2 norm of the influx vector, by Plancherel on its spectra (zero mode included)."""
        return self._linear_pieces[0]

    @property
    def u0_h2(self) -> float:
        """``||u0||_H2``, by Plancherel on u0_hat: bitwise ``u0_norms(u0).h2``."""
        _, l2_sq, lap_sq = self._linear_pieces
        return float(np.sqrt(l2_sq + lap_sq))

    def u0_norms(self, u0: VectorField) -> NormReport:
        """:func:`vector_norms` of the caller's u0: L1 and Linf from its values, L2 and H2 from u0_hat."""
        return _norms_with_h2_terms(u0, *self._linear_pieces[1:])

    @_once
    def _kernel_pieces(self) -> tuple[tuple[float, float], tuple]:
        # H is a real-space L1 norm: each kernel is realized, one at a time,
        # for it alone, and its |values| taken in place.  Q and the transfer
        # read the separable spectra, where the centred kernel contributes
        # h^3 * phase * c_h (continuum convolution theorem); the phase's
        # exact axis sign flips go on the 1-D spectra, which are kept.  Q's
        # filtered spectra are formed one component at a time in one reused
        # buffer.
        g = self.grid
        h_sq = 0.0
        for k in self.kernels:
            values = realize_gaussian_sum(k, g).values
            h_sq += float(g.cell_volume * np.sum(np.abs(values, out=values))) ** 2
            del values
        sign = _axis_signs(g.points_per_axis)
        signed = tuple(
            tuple(_frozen(a * sign[: a.shape[1]]) for a in axes) for axes in _gaussian_axis_spectra(self.kernels, g)
        )
        filtered = np.empty(self.lattice_shape, dtype=np.complex128)
        p = _shell_wavenumbers(g)
        q_sq = 0.0
        for s1, axes in zip(self.orders.s1, signed):
            _gaussian_rows(axes, out=filtered)
            q_sq += nonzero_mode_l2(_scale_by_shells(filtered, p ** (2.0 * (1.0 - s1)), g), g) ** 2
        return (math.sqrt(h_sq), math.sqrt(q_sq)), signed

    @property
    def kernel_constants(self) -> tuple[float, float]:
        """Root sums of squared kernel L1 norms (H) and of ``(-Lap)^{1-s1}``-filtered L2 norms (Q)."""
        return self._kernel_pieces[0]

    def scale_by_transfer(self, coeff: np.ndarray, m: int) -> np.ndarray:
        """Multiply component ``m``'s half spectrum in place by its transfer; returns ``coeff``.

        The transfer is the epsilon-free map from the coupling's spectrum to
        the solution map's, ``(2 pi)^{3/2} h_hat / (|p|^{2 s1} + |p|^{2 s2})``,
        zero at p = 0: on plain coefficients, ``h^3 * phase * c_h`` scaled by
        the inverse symbol.  It is formed one slab of rows at a time
        (:func:`_row_slabs`) in a buffer of this call's own, from the
        kernel's sign-flipped 1-D axis spectra (:func:`_gaussian_rows`) and
        the inverse-symbol shell table, so no transfer of lattice size exists
        and concurrent calls share nothing they write.
        """
        signed = self._kernel_pieces[1]
        g = self.grid
        buffer = np.empty((_row_slabs(g.points_per_axis)[0].stop,) + self.lattice_shape[1:], dtype=np.complex128)
        for rows, factor in _shell_factors(self.inverse_symbols[m], g):
            t = _gaussian_rows(signed[m], rows, out=buffer[: len(factor)])
            t *= g.cell_volume
            t *= factor
            coeff[rows] *= t
        return coeff


@lru_cache(maxsize=1)
def _cached_plan(orders, kernels, influxes, grid) -> SpectralPlan:
    return SpectralPlan(orders, kernels, influxes, grid)


def spectral_plan(problem) -> SpectralPlan:
    """The shared :class:`SpectralPlan` of a problem.

    Only the most recent plan is cached: a CLI operation works on one
    problem and its coupling variants, which all share that plan.
    """
    return _cached_plan(problem.orders, problem.kernels, problem.influxes, problem.grid)
