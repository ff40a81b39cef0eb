"""Explicit constants certifying the contraction: kernel norms, ball radii, thresholds.

Everything here is a closed-form or quadrature-free computation.  The
coupling threshold and the contraction-factor constant share one bracket
B*; it is evaluated under all four pairings of the extreme first orders
and maximized, which can only strengthen the sufficient condition.  By
construction ``epsilon_max * sigma == rho / (u0_h2 + 1)`` exactly.

rho and u0 are the problem's: rho is ``ProblemSpec.rho`` and u0 the linear
response that the problem's :class:`~dualfrac.spectral.SpectralPlan`
holds, so no function here takes either as a parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .problems import Nonlinearity, ProblemSpec
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
        return {
            "u0_h2": self.u0_h2,
            "M": self.M,
            "H": self.H,
            "Q": self.Q,
            "s1_min": self.s1_min,
            "S1_max": self.S1_max,
            "rho": self.rho,
            "c_e": self.c_e,
            "I_radius": self.I_radius,
            "epsilon_max": self.epsilon_max,
            "sigma": self.sigma,
            "epsilon": self.epsilon,
        }


def phi_minimum(alpha: float, s: float) -> tuple[float, float]:
    """Minimizer and minimum of ``alpha * R^{3-4s} + R^{-4s}`` over R > 0.

    Closed form: the minimum sits at ``R* = (4s / (alpha (3-4s)))^{1/3}``
    with value ``3 (3-4s)^{4s/3-1} (4s)^{-4s/3} alpha^{4s/3}``; it exists
    only for s strictly inside (1/4, 3/4).
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.25 < s < 0.75:
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

    Each monomial's sup, first partials and second partials are bounded by
    powers of the radius; mixed partials are counted once per ordered index
    pair.  The bound is exact for a single monomial restricted to a
    coordinate axis.
    """
    if not radius > 0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    n = g.n_components
    total = 0.0
    for comp in g.components:
        for mono in comp:
            if mono.degree < 2:
                raise ValueError("couplings with constant or linear terms are not admissible")
        sup = sum(abs(m.coeff) * radius**m.degree for m in comp)
        first = 0.0
        for j in range(n):
            first += sum(
                abs(m.coeff) * m.powers[j] * radius ** (m.degree - 1)
                for m in comp
                if m.powers[j] > 0
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


def _bracket(ctx: BoundsContext) -> float:
    """Conservative bracket B*: max over the four extreme-order pairings."""
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
    value = best + ctx.Q**2
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
    return embedding_constant() * (spectral_plan(problem).u0_norms.h2 + 1.0)


def build_bounds_context(problem: ProblemSpec, M: float | None = None) -> BoundsContext:
    """Assemble the full constant set for a problem, on its rho ball around its u0.

    The coupling ball radius M defaults to the coefficient-rule bound of the
    problem's own coupling on the ball the solutions live in; pass M to
    share a radius across couplings.
    """
    i_radius = _ball_radius(problem)
    if M is None:
        if problem.nonlinearity.is_trivial:
            raise ValueError("cannot size the coupling ball for a trivial nonlinearity; pass M")
        M = c2_ball_norm(problem.nonlinearity, i_radius)
    h_const, q_const = kernel_constants(problem)
    ctx = BoundsContext(
        u0_h2=spectral_plan(problem).u0_norms.h2,
        M=M,
        H=h_const,
        Q=q_const,
        s1_min=problem.orders.s1_min,
        S1_max=problem.orders.s1_max,
        rho=problem.rho,
        c_e=embedding_constant(),
        I_radius=i_radius,
        epsilon_max=0.0,
        sigma=0.0,
        epsilon=problem.coupling,
    )
    return replace(ctx, epsilon_max=epsilon_threshold(ctx), sigma=sigma_value(ctx))
