"""Periodic-box discretization and the field/spectrum containers built on it.

The whole space is modeled as a periodic cube ``[-L/2, L/2)^3`` sampled on a
uniform lattice of ``n`` points per axis.  Fourier coefficients carry the
continuum normalization ``(2*pi)**-1.5 * integral(f(x) exp(-i p.x) dx)`` so
that transform identities, convolution factors and operator symbols keep
their continuum form on the lattice.  :class:`Grid3` caches only its 1-D
axes; its full ``fftn``-layout ``meshes`` and ``wavenumbers`` are built per access.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["Grid3", "ScalarField", "Spectrum", "VectorField", "NormReport"]


@dataclass(frozen=True)
class Grid3:
    """Uniform periodic cube with an even number of points per axis.

    Parameters
    ----------
    box_length:
        Side length L of the cube ``[-L/2, L/2)^3``.
    points_per_axis:
        Even number n of samples per axis; spacing is ``L / n``.
    """

    box_length: float
    points_per_axis: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.box_length) or self.box_length <= 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")
        n = self.points_per_axis
        if n <= 0 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be a positive even integer, got {n}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> tuple[int, int, int]:
        n = self.points_per_axis
        return (n, n, n)

    @property
    def cell_volume(self) -> float:
        """Real-space quadrature weight h^3."""
        return self.spacing**3

    @property
    def mode_volume(self) -> float:
        """Frequency-space quadrature weight (2*pi/L)^3."""
        return (2.0 * np.pi / self.box_length) ** 3

    @property
    def nyquist(self) -> float:
        """Largest per-axis frequency magnitude pi*n/L."""
        return np.pi * self.points_per_axis / self.box_length

    @cached_property
    def axis(self) -> np.ndarray:
        n = self.points_per_axis
        return -0.5 * self.box_length + self.spacing * np.arange(n)

    @property
    def meshes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, y, z = np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")
        return x, y, z

    @cached_property
    def frequency_axis(self) -> np.ndarray:
        """Per-axis frequency lattice 2*pi*k/L, k in {0..n/2-1, -n/2..-1}."""
        n = self.points_per_axis
        k = np.fft.fftfreq(n, d=1.0 / n)
        return 2.0 * np.pi * k / self.box_length

    @property
    def wavenumbers(self) -> np.ndarray:
        """Euclidean frequency magnitude |p| on the full ``fftn`` lattice."""
        p_sq = self.frequency_axis**2
        return np.sqrt(p_sq[:, None, None] + p_sq[None, :, None] + p_sq[None, None, :])


def _negated_modes(values: np.ndarray) -> np.ndarray:
    """Reindex an fftn-layout array from p to -p."""
    flipped = values[::-1, ::-1, ::-1]
    return np.roll(flipped, 1, axis=(0, 1, 2))


@dataclass(frozen=True)
class ScalarField:
    """Real samples of a scalar function on a :class:`Grid3` lattice."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", np.ascontiguousarray(values))

    @classmethod
    def zeros(cls, grid: Grid3) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_grid(other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_grid(other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)

    def _check_same_grid(self, other: "ScalarField") -> None:
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


@dataclass(frozen=True)
class Spectrum:
    """Continuum-normalized Fourier coefficients on the frequency lattice.

    Coefficients are stored in ``numpy.fft.fftn`` layout and approximate
    ``(2*pi)**-1.5 * integral(f(x) exp(-i p.x) dx)`` at each lattice
    frequency.  A spectrum of a real field is conjugate symmetric:
    ``coeff(-p) == conj(coeff(p))``.
    """

    grid: Grid3
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeff = np.asarray(self.coefficients, dtype=np.complex128)
        if coeff.shape != self.grid.shape:
            raise ValueError(
                f"coefficients shape {coeff.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(coeff).all():
            raise ValueError("spectrum coefficients must all be finite")
        object.__setattr__(self, "coefficients", np.ascontiguousarray(coeff))

    def conjugate_asymmetry(self) -> float:
        """Max deviation from conjugate symmetry, relative to the peak coefficient."""
        coeff = self.coefficients
        scale = np.max(np.abs(coeff))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(_negated_modes(coeff).conj() - coeff)) / scale)


@dataclass(frozen=True)
class VectorField:
    """An R^N-valued field: its components stacked as ``(N, n, n, n)`` values.

    ``spectrum``, when given, is ``numpy.fft.rfftn(values, axes=(1, 2, 3))``.
    It is carried through linear combinations so that spectral norms of
    iterates need no transform; it is not checked against the values.
    """

    grid: Grid3
    values: np.ndarray
    spectrum: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 4 or values.shape[0] == 0 or values.shape[1:] != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} is not (N,) + {self.grid.shape} with N >= 1"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", values)
        if self.spectrum is not None:
            n = self.grid.points_per_axis
            expected = (len(values), n, n, n // 2 + 1)
            if self.spectrum.shape != expected:
                raise ValueError(
                    f"spectrum shape {self.spectrum.shape} does not match the half lattice {expected}"
                )

    @classmethod
    def zeros(cls, grid: Grid3, n_components: int) -> "VectorField":
        n = grid.points_per_axis
        spectrum = np.zeros((n_components, n, n, n // 2 + 1), dtype=np.complex128)
        return cls(grid, np.zeros((n_components,) + grid.shape), spectrum)

    @property
    def n_components(self) -> int:
        return len(self.values)

    @property
    def components(self) -> tuple[ScalarField, ...]:
        """One :class:`ScalarField` view per component; read-only values stay read-only."""
        return tuple(ScalarField(self.grid, v) for v in self.values)

    def _combine(self, other: "VectorField", op) -> "VectorField":
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
        if other.n_components != self.n_components:
            raise ValueError("fields have different component counts")
        spectrum = None
        if self.spectrum is not None and other.spectrum is not None:
            spectrum = op(self.spectrum, other.spectrum)
        return VectorField(self.grid, op(self.values, other.values), spectrum)

    def __add__(self, other: "VectorField") -> "VectorField":
        return self._combine(other, np.add)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar: float) -> "VectorField":
        scalar = float(scalar)
        spectrum = None if self.spectrum is None else self.spectrum * scalar
        return VectorField(self.grid, self.values * scalar, spectrum)

    __rmul__ = __mul__

    def euclidean_length(self) -> np.ndarray:
        """Pointwise Euclidean length |u(x)| over the grid, in one grid-sized array."""
        length = np.einsum("i...,i...->...", self.values, self.values)
        return np.sqrt(length, out=length)


@dataclass(frozen=True)
class NormReport:
    """Bundle of the norms used throughout: L1, L2, Linf and H2."""

    l1: float
    l2: float
    linf: float
    h2: float

    def as_dict(self) -> dict:
        return asdict(self)
