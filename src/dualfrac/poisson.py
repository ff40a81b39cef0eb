"""Linear solver for the two-exponent fractional Poisson problem.

The operator ``(-Lap)^{s1} + (-Lap)^{s2}`` is inverted mode-by-mode through
its symbol ``|p|^{2 s1} + |p|^{2 s2}``.  The symbol vanishes at p = 0, which
is where solvability lives: for s1 below 3/4 the continuum problem is
solvable for any integrable right side, while for s1 at or above 3/4 a
square-integrable solution exists only when the right side has zero total
mass.  On the lattice the zero mode is dropped (and its mass logged) or the
solve is rejected, depending on the chosen policy.

The order rules are :mod:`dualfrac.problems`'s: 3/4 is its
``CRITICAL_ORDER``, and the solvers check ``0 < s1 < s2 < 1`` by building
a one-component :class:`~dualfrac.problems.FractionalOrders`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .grid import Grid3, ScalarField, VectorField
from .problems import CRITICAL_ORDER, FractionalOrders, GaussianSpec, _gaussian_sum_moments
from .spectral import (
    TWO_PI_32,
    _gaussian_axis_spectra,
    _gaussian_rows,
    _h2_power,
    _inverse_symbol,
    _irfft,
    _plancherel_weights,
    _relative,
    _rfft,
    _row_power,
    _row_slabs,
    _scale_by_shells,
    _shell_rows,
    _shell_wavenumbers,
    nonzero_mode_l2,
    spectral_plan,
    two_exponent_symbol,
)

__all__ = [
    "SolvabilityReport",
    "BoxSweepPoint",
    "solve_double_fractional",
    "regularity_check",
    "solve_linear_system",
    "box_length_sweep",
    "fit_growth_exponent",
]

logger = logging.getLogger(__name__)

# A mean integral h^3 sum(f) below this fraction of ||f||_L2 counts as zero
# (_is_zero_mean): analytically zero-mean fields only miss by rounding.
ORTHOGONALITY_RTOL = 1e-10

ZERO_MODE_POLICIES = ("drop", "reject_if_nonzero")


@dataclass(frozen=True)
class SolvabilityReport:
    """Zero-mode diagnostics of a right side against the critical order 3/4.

    ``predicted_low_freq_growth`` is the expected exponent of ||u||_L2^2
    under box growth at fixed spacing: ``4*s1 - 3`` when the mean survives
    and s1 exceeds 3/4, else 0.
    """

    mean_integral: float
    regime: str
    orthogonality_residual: float
    predicted_low_freq_growth: float

    def as_dict(self) -> dict:
        return asdict(self)


def _is_zero_mean(mean: float, f_l2: float) -> bool:
    """Whether a mean integral ``h^3 sum(f)`` counts as zero against ``||f||_L2``.

    The one test behind the zero-mode report (:func:`_zero_mode_report`)
    and the ``reject_if_nonzero`` policy of :func:`solve_double_fractional`.
    """
    return abs(mean) <= ORTHOGONALITY_RTOL * f_l2


def solve_double_fractional(
    f: ScalarField,
    s1: float,
    s2: float,
    zero_mode_policy: str = "drop",
) -> ScalarField:
    """Solve ``[(-Lap)^{s1} + (-Lap)^{s2}] u = f`` by symbol division.

    Every nonzero mode is inverted exactly; the p = 0 mode is set to zero
    under the ``drop`` policy (the dropped mass is logged) or, under
    ``reject_if_nonzero``, causes an error when the right side's mean
    integral is not zero by the zero-mode report's test (:func:`_is_zero_mean`).
    Orders outside 0 < s1 < s2 < 1 raise the ``ValueError`` of
    :class:`~dualfrac.problems.FractionalOrders`.
    """
    FractionalOrders((s1,), (s2,))
    if zero_mode_policy not in ZERO_MODE_POLICIES:
        raise ValueError(f"unknown zero_mode_policy {zero_mode_policy!r}")

    g = f.grid
    coeff = _rfft(f.values)
    mean = g.cell_volume * float(coeff[0, 0, 0].real)
    if zero_mode_policy == "reject_if_nonzero":
        f_l2 = math.sqrt(np.sum(_row_power(coeff, _plancherel_weights(g))))
        if not _is_zero_mean(mean, f_l2):
            raise ValueError(
                "right side violates the zero-mean solvability condition "
                f"(f, 1) = 0: |mean integral| {abs(mean):.6e} exceeds "
                f"{ORTHOGONALITY_RTOL:.0e} * ||f||_L2 = {ORTHOGONALITY_RTOL * f_l2:.6e}"
            )
    elif mean != 0.0:
        logger.debug("dropping zero-frequency mass %.6e from the right side", abs(mean) / TWO_PI_32)
    symbol = two_exponent_symbol(_shell_wavenumbers(g), s1, s2)
    _scale_by_shells(coeff, _inverse_symbol(symbol), g)
    return ScalarField(g, _irfft(coeff, g))


def _zero_mode_report(mean: float, f_l2: float, s1: float) -> SolvabilityReport:
    """Zero-mode regime, for first order s1, of a right side with mean integral ``mean`` and L2 norm ``f_l2``.

    The CLI feeds it the moments of a Gaussian sum
    (:func:`~dualfrac.problems._gaussian_sum_moments`), so no influx is sampled.
    s1 is not checked: it is a validated problem's or a sweep case's.
    """
    regime = "unconditional" if s1 < CRITICAL_ORDER else "orthogonality_required"
    growth = 0.0
    if s1 > CRITICAL_ORDER and not _is_zero_mean(mean, f_l2):
        growth = 4.0 * s1 - 3.0
    return SolvabilityReport(
        mean_integral=mean,
        regime=regime,
        orthogonality_residual=abs(mean),
        predicted_low_freq_growth=growth,
    )


def regularity_check(u0: ScalarField, f: ScalarField, s1: float, s2: float) -> float:
    """Relative L2 residual of the derived identity linking u0 back to f.

    A solution of the double-fractional problem also satisfies
    ``[-Lap + (-Lap)^{1+s2-s1}] u0 = (-Lap)^{1-s1} f``; both sides are
    evaluated spectrally and compared on the nonzero modes.
    """
    FractionalOrders((s1,), (s2,))
    if u0.grid != f.grid:
        raise ValueError("u0 and f live on different grids")
    cu = _rfft(u0.values)
    _check_h2(_h2_power(cu, u0.grid)[1])
    return _regularity_defect(cu, _rfft(f.values), u0.grid, s1, s2)


def _check_h2(term: float) -> None:
    """Reject a u0 whose H2 norm or derivative term ``term`` is not finite: the identity needs its Laplacian."""
    if not math.isfinite(term):
        raise ValueError("Laplacian of u0 is not square integrable on the lattice")


def _forward_defect(cu: np.ndarray, cf: np.ndarray, symbol: np.ndarray, grid: Grid3) -> float:
    """``||symbol * u_hat - f_hat|| / ||f_hat||`` on the nonzero modes, from ``rfftn`` coefficients; overwrites cf.

    The defect is formed in cf's buffer as ``symbol * (f_hat / symbol - u_hat)``
    by two shell-table scalings, so cu is left intact for :func:`_regularity_defect`.
    """
    f_l2 = nonzero_mode_l2(cf, grid)
    _scale_by_shells(cf, _inverse_symbol(symbol), grid)
    cf -= cu
    return _relative(nonzero_mode_l2(_scale_by_shells(cf, symbol, grid), grid), f_l2)


def _regularity_defect(cu: np.ndarray, cf: np.ndarray, grid: Grid3, s1: float, s2: float) -> float:
    """:func:`regularity_check` on plain ``rfftn`` coefficients of u0 and f; overwrites both.

    Each side is formed in its operand's buffer and the defect in cu's: the
    two powers are 1-D tables over the shells, applied by
    :func:`~dualfrac.spectral._scale_by_shells`.  The caller has checked
    that u0's H2 term is finite (:func:`_check_h2`).
    """
    p = _shell_wavenumbers(grid)
    lhs = _scale_by_shells(cu, two_exponent_symbol(p, 1.0, 1.0 + s2 - s1), grid)
    rhs = _scale_by_shells(cf, p ** (2.0 * (1.0 - s1)), grid)
    np.subtract(lhs, rhs, out=lhs)
    return _relative(nonzero_mode_l2(cu, grid), nonzero_mode_l2(cf, grid))


def solve_linear_system(problem) -> VectorField:
    """Solve the uncoupled linear problems for every component influx.

    The drop zero-mode policy applies.  The result is the problem's
    :attr:`~dualfrac.spectral.SpectralPlan.u0`: values only, built for this
    call, and the caller's to keep or write.
    """
    return spectral_plan(problem).u0


@dataclass(frozen=True)
class BoxSweepPoint:
    box_length: float
    points_per_axis: int
    u_l2_sq: float
    mean_integral: float

    def as_dict(self) -> dict:
        return asdict(self)


def box_length_sweep(
    influx: Sequence[GaussianSpec],
    s1: float,
    s2: float,
    spacing: float,
    box_lengths: Sequence[float],
) -> list[BoxSweepPoint]:
    """Solve the same Gaussian-sum right side on growing boxes at fixed spacing.

    The number of points per axis is ``round(L / spacing)`` and must come
    out even.  The drop policy applies.  ``u_l2_sq`` is the Plancherel sum
    of ``|f_hat / symbol|^2`` over the nonzero modes, so u is never brought
    back to real space.  ``mean_integral`` is the zero-mode report's mean
    ``h^3 sum(f)`` (:func:`~dualfrac.problems._gaussian_sum_moments`), so
    the point on a problem's own box reads the mean its report reads.

    Nothing of box size is held: each box is swept in slabs of
    x-frequency rows of about :data:`~dualfrac.spectral.SLAB_BYTES` of
    coefficients, built from the Gaussians' 1-D factor transforms (one
    ``fft`` and one ``rfft`` call per box), so the sweep's memory is O(n^2)
    of the largest box.  Nothing is divided on the lattice: the symbol
    depends on the shell ``k^2`` alone, so a box needs only the per-shell
    histogram of the Plancherel-weighted ``|f_hat|^2`` (:func:`_shell_power`),
    and ``u_l2_sq`` is the sum over the shells ``k^2 > 0`` of
    ``hist / symbol^2``.
    """
    FractionalOrders((s1,), (s2,))
    points = []
    for L in box_lengths:
        n = int(round(L / spacing))
        if n % 2 != 0:
            raise ValueError(f"box length {L} with spacing {spacing} gives odd n={n}")
        grid = Grid3(float(L), n)
        mean = _gaussian_sum_moments(influx, grid)[0]
        if mean != 0.0:
            logger.debug("dropping zero-frequency mass %.6e from the right side", abs(mean) / TWO_PI_32)
        hist = _shell_power(influx, grid)
        symbol = two_exponent_symbol(_shell_wavenumbers(grid), s1, s2)
        u_l2_sq = float(np.sum(hist[1:] / (symbol[1:] * symbol[1:])))
        points.append(BoxSweepPoint(float(L), n, u_l2_sq, mean))
    return points


def _shell_power(influx: Sequence[GaussianSpec], grid: Grid3) -> np.ndarray:
    """Per-shell sums of the Plancherel-weighted ``|f_hat|^2`` of a sampled Gaussian sum.

    Entry ``k^2`` of the histogram sums ``w |f_hat|^2`` over the modes of
    that shell.  The spectrum is built slab by slab in one reused buffer,
    from the Gaussians' 1-D factor transforms, squared there in place as
    float pairs, and each slab's weighted ``re^2 + im^2`` is added in with
    ``np.bincount`` on its shell index.
    """
    n = grid.points_per_axis
    (axes,) = _gaussian_axis_spectra([influx], grid)
    weights = _plancherel_weights(grid)
    slabs = _row_slabs(n)
    slab = np.empty((slabs[0].stop, n, n // 2 + 1), dtype=np.complex128)
    power = np.empty(slab.shape)
    hist = np.zeros(3 * (n // 2) ** 2 + 1)
    for rows in slabs:
        m = rows.stop - rows.start
        pairs = _gaussian_rows(axes, rows, slab[:m]).view(np.float64)
        np.multiply(pairs, pairs, out=pairs)
        w = np.add(pairs[..., 0::2], pairs[..., 1::2], out=power[:m])
        w *= weights
        hist += np.bincount(_shell_rows(grid, rows).ravel(), w.ravel(), minlength=len(hist))
    return hist


def fit_growth_exponent(points: Iterable[BoxSweepPoint]) -> float:
    """Least-squares slope of log(u_l2_sq) against log(box_length), by ``np.polyfit`` as the epsilon sweep fits it."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two sweep points to fit a slope")
    return float(np.polyfit(np.log([p.box_length for p in pts]), np.log([p.u_l2_sq for p in pts]), 1)[0])
