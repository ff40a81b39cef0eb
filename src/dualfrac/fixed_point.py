"""Picard iteration for the coupled stationary system.

The solution is assembled as ``u = u0 + u_p``: u0 solves the uncoupled
linear problems for the influxes, and the perturbation u_p is the fixed
point of the map that feeds ``u0 + v`` through the coupling, convolves
with the kernels and inverts the linear operator.  For couplings below
the certified threshold the map contracts on the radius-rho ball in the
product H2 norm and plain Picard iteration converges geometrically.
Both rho and u0 come from the problem: rho is ``ProblemSpec.rho``, whose
constructor rejects values outside (0, 1], and u0 is the problem's plan
u0 (:func:`~dualfrac.poisson.solve_linear_system`).  The Picard path holds
no real-space u0: each ``u0 + v`` is one inverse transform of
``u0_hat + v_hat`` (:meth:`~dualfrac.spectral.SpectralPlan.u0_plus`) from
the iterate's half spectrum.

No function here checks the fractional orders.  A coupled problem's first
orders lie in the window (1/4, 3/4), as :class:`~dualfrac.problems.ProblemSpec`
refuses any other, with or without ``with_epsilon``/``with_nonlinearity``.
An uncoupled problem takes any orders, and its solution map is zero: tau
multiplies by a zero coupling factor or evaluates an empty coupling.  The
solve still refuses such orders, through the certificate it builds
(:func:`~dualfrac.bounds.build_bounds_context`), with the same
``orders.s1`` error.  :func:`apply_tau` and :func:`measure_contraction`
build no certificate: there they give a zero field and ratios of 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    BoundsContext,
    _ball_radius,
    build_bounds_context,
    c2_ball_norm,
    continuity_rhs,
)
from .grid import NormReport, VectorField
from .poisson import solve_linear_system
from .problems import Nonlinearity, ProblemSpec
from .spectral import (  # noqa: F401  (forward_transform stays importable from here)
    SpectralPlan,
    _band_limit,
    _h2_gap,
    _h2_power,
    _irfft,
    _norms_with_h2_terms,
    _relative,
    _rfft,
    _row_slabs,
    _scale_by_shells,
    forward_transform,
    h2_distance,
    nonzero_mode_l2,
    spectral_plan,
    vector_norms,
)

__all__ = [
    "FixedPointResult",
    "apply_tau",
    "solve_fixed_point",
    "measure_contraction",
    "system_residual",
    "continuity_experiment",
    "sample_ball",
]

logger = logging.getLogger(__name__)

DIVERGENCE_STREAK = 5

# Step tolerance of the continuity experiment's fixed-point solves.
CONTINUITY_TOL = 1e-11


@dataclass(frozen=True)
class FixedPointResult:
    """Converged state of the Picard iteration.

    ``u0_norms`` is the plan's ``u0_norms`` of the u0 the solve read,
    ``u_p_norms`` is ``vector_norms(u_p)`` and ``u_norms`` is
    ``vector_norms(u)``.  u_p carries its half spectrum; neither u nor u0
    is stored.  :attr:`u` forms u on request as the solve formed it for its
    residual, and :attr:`u0` builds the plan's u0 afresh.  ``converged``
    implies the final step norm and the relative system residual are both
    at or below the configured tolerance and that u_p stayed inside the
    radius-rho ball.
    """

    plan: SpectralPlan
    u_p: VectorField
    u0_norms: NormReport
    u_p_norms: NormReport
    u_norms: NormReport
    iterations: int
    step_norms: list[float]
    contraction_estimates: list[float]
    final_residual: float
    converged: bool
    bounds: BoundsContext

    @property
    def u0(self) -> VectorField:
        """A fresh build of the plan's u0, values only."""
        return self.plan.u0

    @property
    def u(self) -> VectorField:
        """The assembled solution ``u0 + u_p``, values only: one inverse transform of ``u0_hat + u_p``'s spectrum."""
        return VectorField(self.u_p.grid, self.plan.u0_plus(self.u_p.spectrum))


def _check_field(v: VectorField, problem: ProblemSpec) -> None:
    if v.grid != problem.grid:
        raise ValueError("field does not live on the problem grid")
    if v.n_components != problem.n_components:
        raise ValueError("component count mismatch with the problem")


def apply_tau(v: VectorField, problem: ProblemSpec) -> VectorField:
    """One application of the solution map: v -> solve(eps_m * H_m * g_m(u0 + v)).

    u0 is the problem's plan u0.  The coupling is evaluated pointwise on
    ``u0 + v``, formed from v's carried half spectrum (one transform of v
    when it carries none) by :meth:`~dualfrac.spectral.SpectralPlan.u0_plus`,
    as the Picard loop forms it; convolution with each kernel and inversion of the linear
    operator (drop zero-mode policy) are one multiplication by each
    component's transfer on the half lattice
    (:meth:`~dualfrac.spectral.SpectralPlan.scale_by_transfer`), between one
    batched ``rfftn`` and one ``irfftn`` per component.  The result carries
    its half spectrum.  Logs a warning when the pointwise values leave the
    ball the coupling bound was sized on.  Each full-size intermediate is
    released as soon as it is consumed.
    """
    _check_field(v, problem)
    spectrum = _rfft(v.values) if v.spectrum is None else v.spectrum
    coeff = _tau_spectrum(spectral_plan(problem).u0_plus(spectrum), problem, _ball_radius(problem))
    if not np.isfinite(coeff).all():
        raise ValueError("image of the solution map is not finite")
    return VectorField(problem.grid, _irfft(coeff, problem.grid), coeff)


def _tau_spectrum(z: np.ndarray, problem: ProblemSpec, ball_radius: float) -> np.ndarray:
    """Half spectrum of tau(v), from the pointwise argument ``z = u0 + v``.

    The one Picard step of :func:`apply_tau`, :func:`solve_fixed_point` and
    :func:`measure_contraction`: warns when |z| leaves the coupling ball,
    raises when g(z) is not finite, and multiplies g's spectrum by the
    couplings, then each component by its transfer, which the plan forms
    slab by slab (:meth:`~dualfrac.spectral.SpectralPlan.scale_by_transfer`).
    z is overwritten with g(z) (:func:`_coupling_in_place`), which is
    transformed from that buffer; the caller drops z when the step returns.
    A finite g(z) whose image overflows gives non-finite coefficients, with
    no numpy warning: every caller tests the image.
    """
    max_sq, not_finite = _coupling_in_place(z, problem.nonlinearity)
    max_len = math.sqrt(max_sq)
    if max_len > ball_radius:
        logger.warning(
            "pointwise argument length %.6g left the coupling ball of radius %.6g; "
            "the coefficient bound no longer covers these values",
            max_len,
            ball_radius,
        )
    if not_finite:
        raise ValueError(f"coupling output for component {min(not_finite)} is not finite")
    coeff = _rfft(z)
    plan = spectral_plan(problem)
    # an image that overflows is the callers' to test, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        coeff *= np.asarray(problem.epsilon)[:, None, None, None]
        for m, c in enumerate(coeff):
            plan.scale_by_transfer(c, m)
    return coeff


def _coupling_in_place(z: np.ndarray, nonlinearity: Nonlinearity) -> tuple[float, set[int]]:
    """Overwrite the stacked ``z`` with g(z), slab by slab over x rows.

    Per slab (:func:`~dualfrac.spectral._row_slabs`) it takes |z|^2 and its
    maximum, evaluates every g_m into a slab buffer with the |z|^2 buffer
    as the monomial buffer (:meth:`Nonlinearity.eval_component`), notes the
    components that are not finite, and writes g back over that slab of z:
    bitwise ``eval_components(z)``, with no stacked g(z) beside z.  Returns
    the largest |z|^2 (NaN if any is, as ``np.max`` over the whole array
    gives) and the components whose g is not finite somewhere.  Overflow
    is not warned about: the caller tests what it returns.
    """
    max_sq = 0.0
    not_finite = set()
    for rows in _row_slabs(z.shape[1]):
        z_rows = z[:, rows]
        g_rows = np.empty(z_rows.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            term = np.einsum("i...,i...->...", z_rows, z_rows)
            max_sq = np.maximum(max_sq, np.max(term))
            for m, acc in enumerate(g_rows):
                if not np.isfinite(nonlinearity.eval_component(z_rows, m, acc, term)).all():
                    not_finite.add(m)
        z_rows[...] = g_rows
    return float(max_sq), not_finite


def solve_fixed_point(
    problem: ProblemSpec,
    tol: float = 1e-10,
    max_iter: int = 200,
    v0: VectorField | None = None,
) -> FixedPointResult:
    """Iterate the solution map from v0 (default 0) until the H2 step stalls.

    Stops when the step norm drops to ``tol`` or after ``max_iter`` steps;
    raises if the step norms grow for five consecutive iterations.  The
    ball is the problem's: the bounds are ``build_bounds_context(problem)``
    and u_p must end inside radius ``problem.rho``.  A coupling above the
    certified threshold only logs a warning: the threshold is sufficient,
    not necessary.  A step whose coupling output or step norm is not
    finite raises a ``ValueError`` that names the step and, above the
    threshold, the coupling against it.

    The iterate is its half spectrum alone, and no real-space u0 is held
    through the loop.  The solve reads u0 once, after the bounds, and
    takes the result's ``u0_norms`` from it; from v = 0 that u0's own
    buffer is the first z, and from a v0 start it is dropped once its
    norms are taken.  Every later z is formed by
    :meth:`~dualfrac.spectral.SpectralPlan.u0_plus`, and a step holds z,
    the iterate's spectrum and the new one.  The residual stage holds u,
    formed the same way, u_p's spectrum and one component's transforms;
    u_p's values are built after it.  v0 is read, never written.
    """
    plan = spectral_plan(problem)
    # a trivial coupling leaves nothing to bound; size the ball nominally
    ctx = build_bounds_context(problem, M=1.0 if problem.nonlinearity.is_trivial else None)
    if ctx.epsilon > ctx.epsilon_max:
        logger.warning(
            "coupling %.6e exceeds the certified threshold %.6e; "
            "the contraction guarantee is void for this run",
            ctx.epsilon,
            ctx.epsilon_max,
        )

    grid = problem.grid
    u0 = solve_linear_system(problem)
    u0_norms = plan.u0_norms(u0)
    z = u0.values if v0 is None else None
    del u0
    if v0 is None:
        spectrum = np.zeros((problem.n_components,) + plan.lattice_shape, dtype=np.complex128)
    else:
        _check_field(v0, problem)
        spectrum = _rfft(v0.values) if v0.spectrum is None else v0.spectrum
        start_norm = math.sqrt(sum(_h2_power(spectrum, grid)))
        if not start_norm <= problem.rho:  # a norm that overflowed to nan warns too
            logger.warning(
                "starting point has H2 norm %.6g outside the radius-%s ball; "
                "behavior out there is uncharacterized",
                start_norm,
                problem.rho,
            )

    # The iterate is its half spectrum alone.  Each later z = u0 + v is one
    # inverse transform of u0_hat + v_hat, which the step overwrites with
    # g(z); z is dropped before the step norm is taken, and the previous
    # spectrum once it is.
    step_norms: list[float] = []
    for k in range(1, max_iter + 1):
        if z is None:
            z = plan.u0_plus(spectrum)
        try:
            coeff = _tau_spectrum(z, problem, ctx.I_radius)
        except ValueError as exc:
            raise _step_error(k, str(exc), ctx) from None
        z = None
        step = _h2_gap(coeff, spectrum, grid)
        spectrum = coeff
        if not math.isfinite(step):
            # the weights are positive: the sum is finite when every coefficient is
            raise _step_error(k, "the H2 step norm is not finite", ctx)
        step_norms.append(step)
        if step <= tol:
            break
        if len(step_norms) > DIVERGENCE_STREAK and all(
            step_norms[i] < step_norms[i + 1]
            for i in range(len(step_norms) - DIVERGENCE_STREAK - 1, len(step_norms) - 1)
        ):
            ratio = step_norms[-1] / step_norms[-2]
            raise RuntimeError(
                f"iteration diverged: step norms grew for {DIVERGENCE_STREAK} consecutive "
                f"iterations (last ratio {ratio:.4f} vs certified factor "
                f"eps*sigma = {ctx.epsilon * ctx.sigma:.4f})"
            )

    ratios = [b / a for a, b in zip(step_norms, step_norms[1:]) if a > 0.0]
    # u is formed as each z was, and dropped once its residual and norms are
    # taken, the H2 terms of its norms from the residual's own transforms of
    # u; u_p's values are then built from its spectrum
    u = VectorField(grid, plan.u0_plus(spectrum))
    residual, l2_sq, lap_sq = _residual_and_h2_terms(u, problem)
    u_norms = _norms_with_h2_terms(u, l2_sq, lap_sq)
    del u
    u_p = VectorField(grid, _irfft(spectrum, grid), spectrum)
    u_p_norms = vector_norms(u_p)
    converged = bool(
        step_norms and step_norms[-1] <= tol and residual <= tol and u_p_norms.h2 <= problem.rho * (1 + 1e-12)
    )
    return FixedPointResult(
        plan=plan,
        u_p=u_p,
        u0_norms=u0_norms,
        u_p_norms=u_p_norms,
        u_norms=u_norms,
        iterations=len(step_norms),
        step_norms=step_norms,
        contraction_estimates=ratios,
        final_residual=residual,
        converged=converged,
        bounds=ctx,
    )


def _step_error(k: int, what: str, ctx: BoundsContext) -> ValueError:
    """The error of Picard step ``k``, naming the coupling when it lies above the certified threshold."""
    if ctx.epsilon > ctx.epsilon_max:
        what += f" (coupling {ctx.epsilon:.6g} exceeds the certified threshold {ctx.epsilon_max:.6g})"
    return ValueError(f"Picard step {k}: {what}")


def sample_ball(
    grid, n_components: int, rho: float, rng: np.random.Generator
) -> VectorField:
    """Draw a random band-limited field with H2 norm uniform in (0, rho].

    Gaussian white noise is truncated to |p| at or below half the axis
    Nyquist frequency (so discrete norms stay faithful to continuum ones)
    and rescaled to the target radius.  The transforms are pruned to the
    kept modes (:func:`~dualfrac.spectral._band_limit`), the noise buffer
    becomes the draw's values, and the norm is ``vector_norms(draw).h2``'s
    own expression, from the draw's half spectrum alone.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    while True:
        values = rng.standard_normal((n_components,) + grid.shape)
        coeff = _band_limit(values, grid)
        l2_sq, lap_sq = _h2_power(coeff, grid)
        norm = float(np.sqrt(l2_sq + lap_sq))
        if norm != 0.0:
            break
    scale = rho * (1.0 - rng.random()) / norm  # target radius uniform in (0, rho]
    values *= scale
    coeff *= scale
    return VectorField(grid, values, coeff)


def measure_contraction(problem: ProblemSpec, trials: int, seed: int) -> list[float]:
    """Lipschitz ratios of the solution map on random pairs from the problem's rho ball.

    Both gaps are Plancherel sums on half spectra: the draws' carried ones,
    and the images' from :func:`_tau_spectrum`, so no difference field and
    no image field is built, and no image is transformed back.  Once the
    draws' gap is taken their spectra are dropped, and each z = u0 + v is
    formed in its draw's own values buffer, which the step overwrites and
    the loop drops on return.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    u0 = solve_linear_system(problem)
    grid = problem.grid
    radius = _ball_radius(problem)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        while True:
            v1 = sample_ball(grid, problem.n_components, problem.rho, rng)
            v2 = sample_ball(grid, problem.n_components, problem.rho, rng)
            gap = h2_distance(v1, v2)
            if gap > 0.0:
                break
        z1, z2 = v1.values, v2.values
        del v1, v2  # their spectra are not read again
        t1 = _tau_spectrum(np.add(u0.values, z1, out=z1), problem, radius)
        del z1
        t2 = _tau_spectrum(np.add(u0.values, z2, out=z2), problem, radius)
        del z2
        if not (np.isfinite(t1).all() and np.isfinite(t2).all()):
            raise ValueError("image of the solution map is not finite")
        ratios.append(_h2_gap(t1, t2, grid) / gap)
        del t1, t2
    return ratios


def system_residual(u: VectorField, problem: ProblemSpec) -> float:
    """Relative L2 defect of the full stationary system at u.

    Computes the root sum over components of
    ``|| lin_op u_m - eps_m H_m * g_m(u) - f_m ||_L2`` on the nonzero
    modes (matching the drop zero-mode policy), normalized by the L2 norm
    of the influx vector.  u and g(u) are transformed afresh from their
    real-space values, whatever spectrum u carries, so the residual checks
    the values a report is written from: :func:`solve_fixed_point` forms u,
    as :attr:`FixedPointResult.u` does, by one inverse transform of
    ``u0_hat + u_p_hat``.  It works one component at a
    time: g_m(u) is evaluated slab by slab over x rows, as in
    :func:`_tau_spectrum`, so its monomial buffer is slab-sized
    (:meth:`Nonlinearity.eval_component`), then transformed, and its values
    freed; then u_m is transformed, and the defect
    ``symbol * (u_hat - eps * transfer * g_hat) - f_hat`` is formed in place
    on the two coefficient buffers, the transfer multiplied in slab by slab
    (:meth:`SpectralPlan.scale_by_transfer`), the symbol scaled in by
    :func:`~dualfrac.spectral._scale_by_shells` and f_hat rebuilt into
    g_hat's freed buffer (:meth:`SpectralPlan.influx_spectrum`).
    """
    return _residual_and_h2_terms(u, problem)[0]


def _residual_and_h2_terms(u: VectorField, problem: ProblemSpec) -> tuple[float, float, float]:
    """:func:`system_residual` at u, and the two H2 terms of ``vector_norms(u)``.

    The terms are summed over components, in order, from the transform of
    u_m the residual makes anyway, before the symbol multiplies it: for a u
    that carries no spectrum, ``vector_norms`` adds the same terms, so the
    norms built on it are bitwise ``vector_norms(u)``'s.
    """
    _check_field(u, problem)
    plan = spectral_plan(problem)
    grid = problem.grid
    defect_sq = l2_sq = lap_sq = 0.0
    for m, eps in enumerate(problem.epsilon):
        # symbol * (u_hat - eps * transfer * g_hat) - f_hat
        g_m = np.empty(grid.shape)
        for rows in _row_slabs(grid.points_per_axis):
            problem.nonlinearity.eval_component(u.values[:, rows], m, out=g_m[rows])
        coeff_g = _rfft(g_m)
        del g_m
        coeff = _rfft(u.values[m])
        terms = _h2_power(coeff, grid)
        l2_sq += terms[0]
        lap_sq += terms[1]
        plan.scale_by_transfer(coeff_g, m)
        coeff_g *= eps
        coeff -= coeff_g
        _scale_by_shells(coeff, plan.symbols[m], grid)
        coeff -= plan.influx_spectrum(m, out=coeff_g)
        del coeff_g
        defect_sq += nonzero_mode_l2(coeff, grid) ** 2
        del coeff
    return _relative(math.sqrt(defect_sq), plan.influx_l2), l2_sq, lap_sq


def continuity_experiment(
    problem: ProblemSpec,
    g1: Nonlinearity,
    g2: Nonlinearity,
    max_iter: int = 200,
    threshold_fraction: float | None = None,
) -> tuple[float, float, float]:
    """Solve the system under two couplings and compare the solution gap to its bound.

    Returns ``(epsilon, lhs, rhs)``: the coupling solved at, the measured H2
    distance between the two assembled solutions (they share u0, so it is
    taken by Plancherel from the two perturbations' carried spectra) and the
    continuity bound computed with the shared coupling-ball radius on the
    problem's rho ball.  Both solves run to the step tolerance
    :data:`CONTINUITY_TOL`.  lhs <= rhs must hold whenever the coupling sits
    inside the certified regime.  With ``threshold_fraction`` the coupling
    is first set to that fraction of the shared-ball threshold; the
    threshold does not depend on the coupling, so the bounds are built once.
    """
    i_radius = _ball_radius(problem)
    m_shared = max(c2_ball_norm(g1, i_radius), c2_ball_norm(g2, i_radius))
    diff_c2 = c2_ball_norm(g1 - g2, i_radius)
    if m_shared == 0.0:
        return problem.coupling, 0.0, 0.0

    ctx = build_bounds_context(problem, M=m_shared)
    if threshold_fraction is not None:
        problem = problem.with_epsilon(threshold_fraction * ctx.epsilon_max)
        ctx = replace(ctx, epsilon=problem.coupling)
    if ctx.epsilon > ctx.epsilon_max:
        logger.warning(
            "coupling %.6e exceeds the shared-ball threshold %.6e; "
            "the continuity bound is not certified here",
            ctx.epsilon,
            ctx.epsilon_max,
        )

    spectra = []  # the solutions share u0: keep only each solve's u_p spectrum
    for g_j in (g1, g2):
        res = solve_fixed_point(problem.with_nonlinearity(g_j), tol=CONTINUITY_TOL, max_iter=max_iter)
        if not res.converged:
            raise RuntimeError("fixed point failed to converge during the continuity experiment")
        spectra.append(res.u_p.spectrum)
        del res
    lhs = _h2_gap(*spectra, problem.grid)
    rhs = continuity_rhs(ctx, diff_c2)
    return problem.coupling, lhs, rhs
