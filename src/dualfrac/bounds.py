"""Explicit constants certifying the contraction: kernel norms, ball radii, thresholds.

Everything here is a closed-form or quadrature-free computation.  The
coupling threshold and the contraction-factor constant share one bracket
B*, a max over the pairings of the extreme first orders that on the
window (1/4, 3/4) always sits at one pairing (see ``_bracket``).  First
orders outside the window are refused there with the ``orders.s1``
ConfigError of :mod:`dualfrac.problems`, which a coupled config already
gets at load; an uncoupled config loads with any orders, so the
certificate is where the solves refuse them.  By construction
``epsilon_max * sigma == rho / (u0_h2 + 1)`` exactly.

rho and u0 are the problem's: rho is ``ProblemSpec.rho``, and u0, the
linear response, enters only through ``||u0||_H2``, which the problem's
:class:`~dualfrac.spectral.SpectralPlan` gives (``u0_h2``), so no function
here takes either as a parameter.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .problems import NONLINEAR_S1_HIGH, NONLINEAR_S1_LOW, ConfigError, Nonlinearity, ProblemSpec, _check_s1_window
from .spectral import spectral_plan

__all__ = [
    "BoundsContext",
    "phi_minimum",
    "kernel_constants",
    "embedding_constant",
    "c2_ball_norm",
    "epsilon_threshold",
    "sigma_value",
    "continuity_rhs",
    "build_bounds_context",
]

# (2*pi)^{-3/2} * (integral of (1+|p|^4)^{-1} over R^3)^{1/2}; the integral
# equals sqrt(2)*pi^2, giving the sup-norm control max|u| <= c_e * ||u||_H2.
EMBEDDING_CONSTANT = (2.0 * math.pi) ** -1.5 * (math.sqrt(2.0) * math.pi**2) ** 0.5


@dataclass(frozen=True)
class BoundsContext:
    """Every constant entering the contraction and continuity estimates.

    Serialized field names are part of the report format; epsilon_max and
    sigma satisfy the duality ``epsilon_max * sigma == rho / (u0_h2 + 1)``.
    """

    u0_h2: float
    M: float
    H: float
    Q: float
    s1_min: float
    S1_max: float
    rho: float
    c_e: float
    I_radius: float
    epsilon_max: float
    sigma: float
    epsilon: float

    def as_dict(self) -> dict:
        return asdict(self)


def phi_minimum(alpha: float, s: float) -> tuple[float, float]:
    """Minimizer and minimum of ``alpha * R^{3-4s} + R^{-4s}`` over R > 0.

    Closed form: the minimum sits at ``R* = (4s / (alpha (3-4s)))^{1/3}``
    with value ``3 (3-4s)^{4s/3-1} (4s)^{-4s/3} alpha^{4s/3}``; it exists
    only for s strictly inside (1/4, 3/4).
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not NONLINEAR_S1_LOW < s < NONLINEAR_S1_HIGH:
        raise ValueError(f"the minimized profile requires s in (1/4, 3/4), got {s}")
    r_star = (4.0 * s / (alpha * (3.0 - 4.0 * s))) ** (1.0 / 3.0)
    phi_star = (
        3.0
        * (3.0 - 4.0 * s) ** (4.0 * s / 3.0 - 1.0)
        * (4.0 * s) ** (-4.0 * s / 3.0)
        * alpha ** (4.0 * s / 3.0)
    )
    return r_star, phi_star


def kernel_constants(problem: ProblemSpec) -> tuple[float, float]:
    """Aggregate kernel constants H and Q.

    H is the root sum of squared kernel L1 norms; Q the root sum of
    squared L2 norms of each kernel filtered by ``(-Lap)^{1-s1_m}``.
    """
    h_const, q_const = spectral_plan(problem).kernel_constants
    if h_const == 0.0 or q_const == 0.0:
        raise ValueError("kernels vanish identically; the aggregate constants must be positive")
    return h_const, q_const


def embedding_constant() -> float:
    """Admissible constant in ``max|u| <= c_e ||u||_H2`` (about 0.23721)."""
    return EMBEDDING_CONSTANT


def c2_ball_norm(g: Nonlinearity, radius: float) -> float:
    """Coefficient-rule upper bound for the C2 norm of g on the ball |z| <= radius.

    A monomial ``c z^p`` of degree d contributes
    ``|c| (r^d + d r^{d-1} + d (d-1) r^{d-2})``: its first-partial powers
    p_j sum to d, and its second-partial counts over ordered index pairs
    (``p_j (p_j - 1)`` on the diagonal, ``p_j p_l`` off it) to d (d - 1).
    The bound is exact for a single monomial restricted to a coordinate
    axis, and 0 for a trivial coupling.  d >= 2 holds for every monomial,
    as :class:`~dualfrac.problems.Nonlinearity` refuses lower degrees.
    """
    if not radius > 0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    total = 0.0
    for mono in (mono for comp in g.components for mono in comp):
        d = mono.degree
        total += abs(mono.coeff) * (radius**d + d * radius ** (d - 1) + d * (d - 1) * radius ** (d - 2))
    return total


def _bracket(ctx: BoundsContext) -> float:
    """Conservative bracket B*: Q^2 plus the max over the extreme first orders' pairings of a kernel term.

    The term ``H^2 u1^{8a/3-2} 3 / ((3-4a) (8 pi^2 b)^{4b/3})``, with
    ``u1 = u0_h2 + 1 >= 1``, grows with a on the window (1/4, 3/4), as
    ``u1^{8a/3}`` and ``3/(3-4a)`` do, and falls with b, as
    ``(8 pi^2 b)^{4b/3}`` grows for b above ``1/(8 pi^2 e)`` (about
    0.0047).  So the max is the one term at (a, b) = (S1_max, s1_min).
    First orders outside the window raise the ConfigError naming
    orders.s1 that a coupled config gets at load
    (:func:`~dualfrac.problems._check_s1_window`); an uncoupled config
    loads with any orders, so this is where it is refused.
    """
    _check_s1_window((ctx.s1_min, ctx.S1_max))
    a, b = ctx.S1_max, ctx.s1_min
    value = ctx.Q**2 + (
        ctx.H**2
        * (ctx.u0_h2 + 1.0) ** (8.0 * a / 3.0 - 2.0)
        * 3.0
        / ((3.0 - 4.0 * a) * (2.0 * math.pi**2) ** (4.0 * b / 3.0) * (4.0 * b) ** (4.0 * b / 3.0))
    )
    if not value > 0:
        raise ArithmeticError("contraction bracket came out nonpositive")
    return value


def epsilon_threshold(ctx: BoundsContext) -> float:
    """Largest coupling for which the solution map is a certified contraction on the ``ctx.rho`` ball."""
    if not 0.0 < ctx.rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {ctx.rho}")
    u1 = ctx.u0_h2 + 1.0
    return ctx.rho / (ctx.M * u1**2 * math.sqrt(_bracket(ctx)))


def sigma_value(ctx: BoundsContext) -> float:
    """Contraction-factor constant: coupling eps contracts with factor eps * sigma."""
    u1 = ctx.u0_h2 + 1.0
    return ctx.M * u1 * math.sqrt(_bracket(ctx))


def continuity_rhs(ctx: BoundsContext, g_diff_c2: float) -> float:
    """Bound on the solution shift caused by perturbing the coupling.

    Evaluates ``eps*sigma / (M (1 - eps*sigma)) * (u0_h2 + 1) * g_diff_c2``;
    valid only in the strict-contraction regime eps*sigma < 1.
    """
    es = ctx.epsilon * ctx.sigma
    if es >= 1.0:
        raise ValueError(f"continuity bound is void outside the contraction regime (eps*sigma={es})")
    return es / (ctx.M * (1.0 - es)) * (ctx.u0_h2 + 1.0) * g_diff_c2


def _ball_radius(problem: ProblemSpec) -> float:
    """Radius ``c_e (||u0||_H2 + 1)`` of the pointwise ball the coupling bound M is sized on."""
    return embedding_constant() * (spectral_plan(problem).u0_h2 + 1.0)


def _in_range(value: float, name: str, field: str) -> float:
    """``value`` if finite; else a ConfigError naming the constant and the config field it is sized by."""
    if not math.isfinite(value):
        raise ConfigError(field, f"certificate constant {name} is outside the float range")
    return value


def build_bounds_context(problem: ProblemSpec, M: float | None = None) -> BoundsContext:
    """Assemble the full constant set for a problem, on its rho ball around its u0.

    The coupling ball radius M defaults to the coefficient-rule bound of the
    problem's own coupling on the ball the solutions live in; pass M to
    share a radius across couplings.  A constant that overflows or is not
    finite raises :class:`~dualfrac.problems.ConfigError` naming it and the
    configuration field it is sized by: ``influxes`` for u0_h2, ``g`` for
    M, ``kernels`` for H and Q, and ``$``, the whole configuration, for
    sigma, their product.
    """
    u0_h2 = _in_range(spectral_plan(problem).u0_h2, "u0_h2", "influxes")
    i_radius = _ball_radius(problem)
    if M is None:
        if problem.nonlinearity.is_trivial:
            raise ValueError("cannot size the coupling ball for a trivial nonlinearity; pass M")
        M = c2_ball_norm(problem.nonlinearity, i_radius)
    try:
        h_const, q_const = kernel_constants(problem)
    except OverflowError:  # a kernel norm squared
        raise ConfigError("kernels", "certificate constant H or Q is outside the float range") from None
    ctx = BoundsContext(
        u0_h2=u0_h2,
        M=_in_range(M, "M", "g"),
        H=_in_range(h_const, "H", "kernels"),
        Q=_in_range(q_const, "Q", "kernels"),
        s1_min=problem.orders.s1_min,
        S1_max=problem.orders.s1_max,
        rho=problem.rho,
        c_e=embedding_constant(),
        I_radius=i_radius,
        epsilon_max=0.0,
        sigma=0.0,
        epsilon=problem.coupling,
    )
    return replace(ctx, epsilon_max=epsilon_threshold(ctx), sigma=_in_range(sigma_value(ctx), "sigma", "$"))
