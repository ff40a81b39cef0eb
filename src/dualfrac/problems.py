"""Problem instances: fractional orders, Gaussian kernels/influxes, polynomial couplings.

Kernels and influxes are finite sums of Gaussians so that their integrals
and transforms have closed forms.  The tests use them as oracles, and the
solver uses them too: a sampled Gaussian factors over the three axes, so
its lattice transform is a product of three 1-D transforms and no problem
data is ever transformed in 3-D.  The coupling nonlinearities are
polynomials of total degree at least two, which makes their sup-norm
bounds on balls computable coefficient by coefficient.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .grid import Grid3, ScalarField

__all__ = [
    "GaussianSpec",
    "Monomial",
    "Nonlinearity",
    "FractionalOrders",
    "ProblemSpec",
    "SweepCase",
    "realize_gaussian",
    "realize_gaussian_sum",
    "eval_nonlinearity",
    "load_problem",
    "serialize_problem",
    "demo_config_text",
    "demo_problem",
    "continuity_pairs",
    "solvability_sweep_cases",
]

# The paper's critical first order 3/4: at and above it the linear problem
# is solvable only for a zero-mean right side (dualfrac.poisson), and below
# it, down to 1/4, lies the open window of first orders that the fixed-point
# certificate needs.  The linear solver alone accepts any 0 < s1 < s2 < 1.
CRITICAL_ORDER = 0.75
NONLINEAR_S1_LOW = 0.25
NONLINEAR_S1_HIGH = CRITICAL_ORDER

# Distance (in Gaussian widths) a center must keep from every box face for
# the truncated tail mass to stay at spectral-accuracy level.
CLEARANCE_WIDTHS = 3.0


class ConfigError(ValueError):
    """Raised when a problem configuration is malformed; carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _check_s1_window(s1) -> None:
    """Raise a ConfigError naming ``orders.s1`` unless every first order in s1 lies in the open window.

    The one statement of the window rule: a coupled :class:`ProblemSpec`
    checks its orders with it, and the certificate
    (:func:`~dualfrac.bounds._bracket`) its extreme first orders.
    """
    lo, hi = min(s1), max(s1)
    if not NONLINEAR_S1_LOW < lo <= hi < NONLINEAR_S1_HIGH:
        raise ConfigError(
            "orders.s1",
            "the certificate needs every first order in the open window "
            f"({NONLINEAR_S1_LOW}, {NONLINEAR_S1_HIGH}); got s1_min={lo}, S1_max={hi}",
        )


@dataclass(frozen=True)
class GaussianSpec:
    """Profile ``amplitude * exp(-width * |x - center|^2)``."""

    amplitude: float
    width: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if not self.width > 0:
            raise ValueError(f"gaussian width must be positive, got {self.width}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != 3:
            raise ValueError("gaussian center must have three coordinates")

    def analytic_l1(self) -> float:
        """Closed-form L1 norm |A| (pi/a)^{3/2}; inf for A != 0 where that exceeds the float range."""
        try:
            return abs(self.amplitude) * (math.pi / self.width) ** 1.5
        except OverflowError:  # a float power raises where a product would saturate
            return math.inf if self.amplitude else 0.0

    def analytic_transform(self, px, py, pz):
        """Continuum-normalized transform ``A (2a)^{-3/2} e^{-|p|^2/(4a)} e^{-i p.c}``."""
        p_sq = px**2 + py**2 + pz**2
        phase = np.exp(-1j * (px * self.center[0] + py * self.center[1] + pz * self.center[2]))
        return self.amplitude * (2.0 * self.width) ** -1.5 * np.exp(-p_sq / (4.0 * self.width)) * phase

    def shifted(self, offset: tuple[float, float, float]) -> "GaussianSpec":
        c = tuple(a + b for a, b in zip(self.center, offset))
        return replace(self, center=c)

    def scaled(self, factor: float) -> "GaussianSpec":
        return replace(self, amplitude=self.amplitude * factor)


def _axis_factors(spec: GaussianSpec, grid: Grid3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis samples ``exp(-a (x_i - c_i)^2)`` of a Gaussian, warning when its tail leaves the box.

    ``exp(-a|x-c|^2)`` factors over the axes: 3n exponentials instead of n^3.
    The amplitude is left to the caller.
    """
    half = grid.box_length / 2.0
    clearance = CLEARANCE_WIDTHS / math.sqrt(spec.width)
    margin = min(half - abs(c) for c in spec.center)
    if margin < clearance:
        # erfc along the tightest axis estimates the mass escaping the box;
        # warned from this line for every caller, so repeats are not shown
        lost = spec.analytic_l1() * math.erfc(math.sqrt(spec.width) * max(margin, 0.0))
        warnings.warn(
            f"gaussian at {spec.center} with width {spec.width} has face clearance "
            f"{margin:.3g} < {clearance:.3g}; estimated truncated mass {lost:.3e}",
            stacklevel=1,
        )
    ex, ey, ez = (np.exp(-spec.width * (grid.axis - c) ** 2) for c in spec.center)
    return ex, ey, ez


def realize_gaussian(spec: GaussianSpec, grid: Grid3) -> ScalarField:
    """Evaluate a Gaussian on the lattice, warning when its tail leaves the box."""
    ex, ey, ez = _axis_factors(spec, grid)
    return ScalarField(grid, (spec.amplitude * ex)[:, None, None] * ey[None, :, None] * ez[None, None, :])


def realize_gaussian_sum(specs, grid: Grid3) -> ScalarField:
    total = np.zeros(grid.shape)
    for spec in specs:
        total += realize_gaussian(spec, grid).values
    return ScalarField(grid, total)


def _gaussian_sum_moments(specs, grid: Grid3) -> tuple[float, float]:
    """Mean integral ``h^3 sum(f)`` and L2 norm of a Gaussian sum sampled on the grid.

    Each term ``A_t e_x e_y e_z`` factors over the axes, so with 1-D sums
    and inner products of the :func:`_axis_factors`
    ``mean = h^3 sum_t A_t prod_axis sum(e_t)`` and
    ``||f||^2 = h^3 sum_{t,t'} A_t A_t' prod_axis <e_t, e_t'>``: nothing of
    lattice size is sampled.  Every sum is a ``math.fsum``, so only the
    products round.
    """
    factors = [_axis_factors(spec, grid) for spec in specs]
    mean = math.fsum(
        spec.amplitude * math.prod(math.fsum(e) for e in f) for spec, f in zip(specs, factors)
    )
    l2_sq = math.fsum(
        a.amplitude * b.amplitude * math.prod(math.fsum(ea * eb) for ea, eb in zip(fa, fb))
        for a, fa in zip(specs, factors)
        for b, fb in zip(specs, factors)
    )
    return grid.cell_volume * mean, math.sqrt(max(grid.cell_volume * l2_sq, 0.0))


@dataclass(frozen=True)
class Monomial:
    """One term ``coeff * z1^p1 * ... * zN^pN`` of a polynomial coupling."""

    powers: tuple[int, ...]
    coeff: float

    def __post_init__(self) -> None:
        powers = tuple(int(p) for p in self.powers)
        if any(p < 0 for p in powers):
            raise ValueError("monomial powers must be nonnegative")
        object.__setattr__(self, "powers", powers)

    @property
    def degree(self) -> int:
        return sum(self.powers)


@dataclass(frozen=True)
class Nonlinearity:
    """Polynomial coupling g: R^N -> R^N with no constant or linear part.

    Each output component is a sparse list of monomials of total degree at
    least two, so g(0) = 0 and grad g(0) = 0 hold by construction.
    """

    components: tuple[tuple[Monomial, ...], ...]

    def __post_init__(self) -> None:
        comps = tuple(tuple(mono for mono in comp) for comp in self.components)
        if not comps:
            raise ValueError("nonlinearity needs at least one output component")
        n = len(comps)
        for m, comp in enumerate(comps):
            for mono in comp:
                if len(mono.powers) != n:
                    raise ValueError(
                        f"component {m}: monomial has {len(mono.powers)} powers, expected {n}"
                    )
                if mono.degree < 2:
                    raise ValueError(
                        f"component {m}: monomial of degree {mono.degree} violates the "
                        "requirement g(0) = 0 and grad g(0) = 0 (degree must be >= 2)"
                    )
        object.__setattr__(self, "components", comps)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def is_trivial(self) -> bool:
        return all(not comp for comp in self.components)

    def eval_components(self, z_fields) -> np.ndarray:
        """Vectorized evaluation of every g_m over arrays of z samples.

        ``z_fields`` holds one array per variable (a list, or a stacked
        array); the result stacks g_1 .. g_N along a leading axis, each
        component as :meth:`eval_component` builds it.
        """
        shape = z_fields[0].shape
        out = np.empty((self.n_components,) + shape)
        term = np.empty(shape)
        for m, acc in enumerate(out):
            self.eval_component(z_fields, m, acc, term)
        return out

    def eval_component(self, z_fields, m: int, out=None, term=None) -> np.ndarray:
        """g_m alone over arrays of z samples: bitwise ``eval_components(z_fields)[m]``.

        Holds one component's output and one monomial buffer, where the
        stacked evaluation holds every component's output.  ``out`` and
        ``term``, when given, are those buffers (the samples' shape), so a
        caller that evaluates slab by slab reuses them; ``out`` is returned.
        """
        shape = z_fields[0].shape
        acc = np.empty(shape) if out is None else out
        term = np.empty(shape) if term is None else term
        # Each monomial is built in the one ``term`` buffer: its first factor
        # is written there, then scaled by the coefficient, then the later
        # factors are multiplied in; a second buffer exists only for a later
        # factor of power 2 or more.  Every product is the one
        # ``coeff * z_1**p_1 * z_2**p_2 ...`` makes, and the monomials are
        # added to a zeroed ``acc``, so the values are bitwise those of that
        # expression summed from 0.
        acc.fill(0.0)
        fac = None
        for mono in self.components[m]:
            factors = [(z, power) for z, power in zip(z_fields, mono.powers) if power]
            (z, power), rest = factors[0], factors[1:]
            if power > 1:
                np.power(z, power, out=term)
            else:
                np.copyto(term, z)
            term *= mono.coeff
            for z, power in rest:
                if power > 1:
                    if fac is None:
                        fac = np.empty(acc.shape)
                    term *= np.power(z, power, out=fac)
                else:
                    term *= z
            acc += term
        return acc

    def scaled(self, factor: float) -> "Nonlinearity":
        return Nonlinearity(
            tuple(
                tuple(Monomial(mono.powers, mono.coeff * factor) for mono in comp)
                for comp in self.components
            )
        )

    def with_monomial(self, component: int, powers: tuple[int, ...], coeff: float) -> "Nonlinearity":
        comps = [list(c) for c in self.components]
        comps[component].append(Monomial(powers, coeff))
        return Nonlinearity(tuple(tuple(c) for c in comps))

    def __sub__(self, other: "Nonlinearity") -> "Nonlinearity":
        if other.n_components != self.n_components:
            raise ValueError("cannot subtract nonlinearities of different widths")
        comps = []
        for mine, theirs in zip(self.components, other.components):
            acc: dict[tuple[int, ...], float] = {}
            for mono in mine:
                acc[mono.powers] = acc.get(mono.powers, 0.0) + mono.coeff
            for mono in theirs:
                acc[mono.powers] = acc.get(mono.powers, 0.0) - mono.coeff
            comps.append(
                tuple(Monomial(p, c) for p, c in sorted(acc.items()) if c != 0.0)
            )
        return Nonlinearity(tuple(comps))


def eval_nonlinearity(g: Nonlinearity, z) -> tuple[np.ndarray, np.ndarray]:
    """Exact value g(z) and gradient dg_m/dz_n at one point z in R^N."""
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("evaluation point must be finite")
    n = g.n_components
    value = np.zeros(n)
    grad = np.zeros((n, n))
    for m, comp in enumerate(g.components):
        for mono in comp:
            term = mono.coeff
            for zi, power in zip(z, mono.powers):
                term *= zi**power
            value[m] += term
            for j in range(n):
                pj = mono.powers[j]
                if pj == 0:
                    continue
                d = mono.coeff * pj
                for i, (zi, power) in enumerate(zip(z, mono.powers)):
                    d *= zi ** (power - 1 if i == j else power)
                grad[m, j] += d
    return value, grad


@dataclass(frozen=True)
class FractionalOrders:
    """Per-component fractional orders (s1_m, s2_m) with 0 < s1_m < s2_m < 1."""

    s1: tuple[float, ...]
    s2: tuple[float, ...]

    def __post_init__(self) -> None:
        s1 = tuple(float(v) for v in self.s1)
        s2 = tuple(float(v) for v in self.s2)
        if len(s1) != len(s2) or not s1:
            raise ValueError("s1 and s2 must be nonempty lists of equal length")
        for m, (a, b) in enumerate(zip(s1, s2)):
            if not 0.0 < a < b < 1.0:
                raise ValueError(
                    f"component {m}: orders must satisfy 0 < s1 < s2 < 1, got ({a}, {b})"
                )
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s2", s2)

    @property
    def n_components(self) -> int:
        return len(self.s1)

    @property
    def s1_min(self) -> float:
        return min(self.s1)

    @property
    def s1_max(self) -> float:
        return max(self.s1)


@dataclass(frozen=True)
class ProblemSpec:
    """A full system instance on one grid.

    Every diffusion coefficient is one, so the spec has no field for them;
    couplings scale the kernels through the per-component factors ``epsilon``.
    The component count is that of ``orders`` (:attr:`n_components`), which
    refuses empty orders; every other per-component entry must match it.
    ``rho`` is the radius of the H2 ball the solutions are certified on.  A
    bad ``epsilon``, ``rho``, all-zero ``influxes`` or, for a coupled spec,
    an ``orders.s1`` outside the window (1/4, 3/4) raises
    :class:`ConfigError` naming the field, as it is named in the JSON
    configuration.  :meth:`with_epsilon` and :meth:`with_nonlinearity`
    build through ``dataclasses.replace``, which runs these checks again,
    so no coupled spec leaves the window.  An uncoupled spec takes any
    orders: its solution map is zero.
    """

    orders: FractionalOrders
    epsilon: tuple[float, ...]
    kernels: tuple[tuple[GaussianSpec, ...], ...]
    influxes: tuple[tuple[GaussianSpec, ...], ...]
    nonlinearity: Nonlinearity
    grid: Grid3
    rho: float = 1.0

    def __post_init__(self) -> None:
        n = self.n_components
        eps = tuple(float(e) for e in self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "kernels", tuple(tuple(k) for k in self.kernels))
        object.__setattr__(self, "influxes", tuple(tuple(f) for f in self.influxes))

        if len(eps) != n or len(self.kernels) != n or len(self.influxes) != n:
            raise ValueError("epsilon, kernels and influxes must each have one entry per component")
        if self.nonlinearity.n_components != n:
            raise ValueError("nonlinearity width does not match the number of components")
        if any(e < 0 for e in eps):
            raise ConfigError("epsilon", "coupling factors must be nonnegative")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigError("rho", f"must lie in (0, 1], got {self.rho}")
        if all(g.amplitude == 0.0 for fs in self.influxes for g in fs) or all(
            not fs for fs in self.influxes
        ):
            raise ConfigError("influxes", "at least one influx must be nontrivial")
        if self.is_nonlinear:
            _check_s1_window(self.orders.s1)

    @property
    def n_components(self) -> int:
        return self.orders.n_components

    @property
    def is_nonlinear(self) -> bool:
        return any(e > 0 for e in self.epsilon) and not self.nonlinearity.is_trivial

    @property
    def coupling(self) -> float:
        """Largest per-component coupling factor."""
        return max(self.epsilon)

    def with_epsilon(self, value) -> "ProblemSpec":
        if np.isscalar(value):
            eps = tuple(float(value) for _ in range(self.n_components))
        else:
            eps = tuple(float(v) for v in value)
        return replace(self, epsilon=eps)

    def with_nonlinearity(self, g: Nonlinearity) -> "ProblemSpec":
        return replace(self, nonlinearity=g)

    def with_grid(self, grid: Grid3) -> "ProblemSpec":
        return replace(self, grid=grid)


# --- JSON configuration -----------------------------------------------------

_TOP_KEYS = {"N", "grid", "orders", "epsilon", "kernels", "influxes", "g", "rho"}
_REQUIRED_KEYS = {"N", "orders", "epsilon", "kernels", "influxes", "g"}
DEFAULT_BOX_LENGTH = 20.0
DEFAULT_POINTS = 64
DEFAULT_RHO = 1.0


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(path, message)


def _object(raw, path: str, allowed, required=()) -> dict:
    """``raw`` if it is a JSON object with only ``allowed`` keys and every ``required`` one.

    The one check of every object in a configuration, so each is refused in
    the same words at its own path.
    """
    _expect(isinstance(raw, dict), path, "expected an object")
    unknown = set(raw) - set(allowed)
    _expect(not unknown, path, f"unknown keys {sorted(unknown)}")
    missing = set(required) - set(raw)
    _expect(not missing, path, f"missing keys {sorted(missing)}")
    return raw


def _is_int(v) -> bool:
    """A JSON integer; ``true`` and ``false`` are not, though Python counts them as ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _number(value, path: str) -> float:
    """A finite JSON number as a float; ``true``/``false``, strings and NaN/Infinity are not.

    The magnitude test compares exactly, so an integer too large for a float
    is rejected here rather than overflowing in ``float()``.
    """
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max,
        path,
        "expected a finite number",
    )
    return float(value)


def _float_list(raw, path: str, n: int) -> list[float]:
    _expect(isinstance(raw, list) and len(raw) == n, path, f"expected a list of {n} numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(raw)]


def _parse_gaussian(raw, path: str) -> GaussianSpec:
    keys = ("A", "a", "center")
    _object(raw, path, keys, keys)
    amplitude, width = _number(raw["A"], f"{path}.A"), _number(raw["a"], f"{path}.a")
    center = _float_list(raw["center"], f"{path}.center", 3)
    try:
        return GaussianSpec(amplitude, width, tuple(center))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_gaussian_lists(raw, path: str, n: int) -> tuple[tuple[GaussianSpec, ...], ...]:
    _expect(isinstance(raw, list) and len(raw) == n, path, f"expected {n} lists of gaussians")
    out = []
    for m, entry in enumerate(raw):
        _expect(isinstance(entry, list), f"{path}[{m}]", "expected a list of gaussians")
        out.append(tuple(_parse_gaussian(gdef, f"{path}[{m}][{i}]") for i, gdef in enumerate(entry)))
    return tuple(out)


def _parse_nonlinearity(raw, path: str, n: int) -> Nonlinearity:
    _expect(isinstance(raw, list) and len(raw) == n, path, f"expected {n} component objects")
    comps = []
    for m, entry in enumerate(raw):
        cpath = f"{path}[{m}]"
        monos_raw = _object(entry, cpath, ("monomials",)).get("monomials", [])
        _expect(isinstance(monos_raw, list), f"{cpath}.monomials", "expected a list")
        monos = []
        for i, mdef in enumerate(monos_raw):
            mpath = f"{cpath}.monomials[{i}]"
            _object(mdef, mpath, ("powers", "coeff"), ("powers", "coeff"))
            powers = mdef["powers"]
            _expect(
                isinstance(powers, list) and len(powers) == n and all(_is_int(p) for p in powers),
                f"{mpath}.powers",
                f"expected a list of {n} integers",
            )
            coeff = _number(mdef["coeff"], f"{mpath}.coeff")
            try:
                monos.append(Monomial(tuple(powers), coeff))
            except ValueError as exc:
                raise ConfigError(mpath, str(exc)) from exc
        comps.append(tuple(monos))
    try:
        return Nonlinearity(tuple(comps))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def load_problem(config_text: str) -> ProblemSpec:
    """Parse and validate a JSON problem configuration.

    Unknown keys are rejected; grid and rho fall back to the defaults
    L=20, n=64, rho=1.
    """
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    _object(raw, "$", _TOP_KEYS, _REQUIRED_KEYS)

    n = raw["N"]
    _expect(_is_int(n) and n >= 1, "N", "expected a positive integer")

    grid_raw = _object(raw.get("grid", {}), "grid", ("L", "n"))
    L = _number(grid_raw.get("L", DEFAULT_BOX_LENGTH), "grid.L")
    npts = grid_raw.get("n", DEFAULT_POINTS)
    _expect(_is_int(npts), "grid.n", "expected an integer")
    try:
        grid = Grid3(L, npts)
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from exc

    orders_raw = _object(raw["orders"], "orders", ("s1", "s2"), ("s1", "s2"))
    s1 = _float_list(orders_raw["s1"], "orders.s1", n)
    s2 = _float_list(orders_raw["s2"], "orders.s2", n)
    try:
        orders = FractionalOrders(tuple(s1), tuple(s2))
    except ValueError as exc:
        raise ConfigError("orders", str(exc)) from exc

    epsilon = _float_list(raw["epsilon"], "epsilon", n)
    kernels = _parse_gaussian_lists(raw["kernels"], "kernels", n)
    influxes = _parse_gaussian_lists(raw["influxes"], "influxes", n)
    nonlinearity = _parse_nonlinearity(raw["g"], "g", n)

    rho = _number(raw.get("rho", DEFAULT_RHO), "rho")

    try:
        return ProblemSpec(
            orders=orders,
            epsilon=tuple(epsilon),
            kernels=kernels,
            influxes=influxes,
            nonlinearity=nonlinearity,
            grid=grid,
            rho=rho,
        )
    except ConfigError:
        raise  # the spec's own field checks name their field
    except ValueError as exc:
        raise ConfigError("$", str(exc)) from exc


def serialize_problem(problem: ProblemSpec) -> str:
    """Emit the JSON configuration for a problem; inverse of :func:`load_problem`."""
    def gauss_dict(g: GaussianSpec) -> dict:
        return {"A": g.amplitude, "a": g.width, "center": list(g.center)}

    doc = {
        "N": problem.n_components,
        "grid": {"L": problem.grid.box_length, "n": problem.grid.points_per_axis},
        "orders": {"s1": list(problem.orders.s1), "s2": list(problem.orders.s2)},
        "epsilon": list(problem.epsilon),
        "kernels": [[gauss_dict(g) for g in ks] for ks in problem.kernels],
        "influxes": [[gauss_dict(g) for g in fs] for fs in problem.influxes],
        "g": [
            {"monomials": [{"powers": list(m.powers), "coeff": m.coeff} for m in comp]}
            for comp in problem.nonlinearity.components
        ],
        "rho": problem.rho,
    }
    return json.dumps(doc, indent=2)


def demo_config_text() -> str:
    """Contents of the bundled two-component demo configuration."""
    return resources.files("dualfrac").joinpath("_data/demo.json").read_text()


def demo_problem() -> ProblemSpec:
    return load_problem(demo_config_text())


def continuity_pairs(g: Nonlinearity) -> list[tuple[str, Nonlinearity, Nonlinearity]]:
    """Deterministic quadratic coupling pairs used by the continuity experiment."""
    n = g.n_components
    cross = (1, 1) + (0,) * (n - 2) if n >= 2 else (2,)
    variants = [
        ("scale_1.10", g.scaled(1.10)),
        ("scale_0.90", g.scaled(0.90)),
        ("scale_1.25", g.scaled(1.25)),
        ("cross_term_first", g.with_monomial(0, cross, 0.05)),
        ("cross_term_last", g.with_monomial(n - 1, cross, 0.10)),
    ]
    return [(label, g, g2) for label, g2 in variants]


@dataclass(frozen=True)
class SweepCase:
    """One box-sweep experiment: orders, influx mixture and the expected regime."""

    label: str
    s1: float
    s2: float
    influx: tuple[GaussianSpec, ...]
    expected_growth: float  # exponent of ||u||_L2^2 in L; 0 means bounded


# Influx mixtures for the box sweep.  The two concentric Gaussians nearly
# cancel in total mass, which keeps the finite-box transient small enough
# for the asymptotic zero-mode behavior to be measurable on L in [10, 40]:
# the growth case keeps a substantial residual mean, the bounded nonzero-mean
# case a small one, and the dipole case none at all.
_SWEEP_MAIN = (GaussianSpec(1.0, 1.0), GaussianSpec(-0.305, 0.5))
_SWEEP_SMALL_MEAN = (GaussianSpec(1.0, 1.0), GaussianSpec(-0.335, 0.5))
_SWEEP_DIPOLE = tuple(
    [g.shifted((0.5, 0.0, 0.0)) for g in _SWEEP_MAIN]
    + [g.shifted((-0.5, 0.0, 0.0)).scaled(-1.0) for g in _SWEEP_MAIN]
)


def solvability_sweep_cases() -> list[SweepCase]:
    """The three bundled regimes: supercritical growth, dipole, subcritical."""
    return [
        SweepCase("supercritical_nonzero_mean", 0.85, 0.95, _SWEEP_MAIN, 0.4),
        SweepCase("supercritical_dipole", 0.85, 0.95, _SWEEP_DIPOLE, 0.0),
        SweepCase("subcritical_nonzero_mean", 0.50, 0.95, _SWEEP_SMALL_MEAN, 0.0),
    ]
