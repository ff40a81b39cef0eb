import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from dualfrac import (
    BoundsContext,
    FractionalOrders,
    GaussianSpec,
    Grid3,
    Nonlinearity,
    Monomial,
    ProblemSpec,
    ScalarField,
    Spectrum,
    build_bounds_context,
    c2_ball_norm,
    continuity_rhs,
    embedding_constant,
    epsilon_threshold,
    eval_nonlinearity,
    field_norms,
    forward_transform,
    inverse_transform,
    kernel_constants,
    phi_minimum,
    sigma_value,
    solve_linear_system,
    vector_norms,
)
from dualfrac.bounds import _bracket
from dualfrac.spectral import spectral_plan


def make_context(u0_h2=0.0, M=1.0, H=1.0, Q=1.0, s1=0.5, S1=0.5, rho=1.0, epsilon=0.0):
    ce = embedding_constant()
    ctx = BoundsContext(
        u0_h2=u0_h2, M=M, H=H, Q=Q, s1_min=s1, S1_max=S1, rho=rho,
        c_e=ce, I_radius=ce * (u0_h2 + 1.0),
        epsilon_max=0.0, sigma=0.0, epsilon=epsilon,
    )
    from dataclasses import replace

    return replace(ctx, epsilon_max=epsilon_threshold(ctx), sigma=sigma_value(ctx))


# --- profile minimum -------------------------------------------------------


def test_phi_minimum_balanced_case():
    r, v = phi_minimum(2.0, 0.5)
    assert r == pytest.approx(1.0, rel=1e-14)
    assert v == pytest.approx(3.0, rel=1e-14)


def test_phi_minimum_unit_alpha():
    r, v = phi_minimum(1.0, 0.5)
    assert r == pytest.approx(1.2599210498948732, rel=1e-12)
    assert v == pytest.approx(1.8898815748423097, rel=1e-12)


def test_phi_minimum_low_order():
    # frozen from the brute-force grid oracle
    _, v = phi_minimum(1.0, 0.3)
    assert v == pytest.approx(1.9601317042077895, rel=1e-10)


@pytest.mark.parametrize("alpha,s", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.25), (1.0, 0.75), (1.0, 0.9)])
def test_phi_minimum_rejects_bad_inputs(alpha, s):
    with pytest.raises(ValueError):
        phi_minimum(alpha, s)


def test_phi_minimum_matches_brute_force_and_is_local_min(rng):
    for _ in range(200):
        alpha = float(rng.uniform(0.05, 20.0))
        s = float(rng.uniform(0.26, 0.74))
        r, v = phi_minimum(alpha, s)
        _, v_brute = _oracles.brute_force_phi_minimum(alpha, s)
        assert abs(v - v_brute) <= 1e-8 * v_brute

        def phi(R):
            return alpha * R ** (3 - 4 * s) + R ** (-4 * s)

        delta = 1e-3 * r
        assert phi(r + delta) >= v
        assert phi(r - delta) >= v


# --- kernel constants -------------------------------------------------------


def single_kernel_problem(kernels, s1=0.4, s2=0.8, grid=None):
    grid = grid or Grid3(20.0, 64)
    n = len(kernels)
    return ProblemSpec(
        orders=FractionalOrders(tuple(s1 for _ in range(n)), tuple(s2 for _ in range(n))),
        epsilon=tuple(0.0 for _ in range(n)),
        kernels=tuple((k,) for k in kernels),
        influxes=tuple(((GaussianSpec(1.0, 1.0),),) * n),
        nonlinearity=Nonlinearity(tuple(() for _ in range(n))),
        grid=grid,
    )


def test_kernel_constant_single_gaussian():
    problem = single_kernel_problem([GaussianSpec(1.0, 1.0)])
    H, Q = kernel_constants(problem)
    assert abs(H - np.pi**1.5) <= 1e-8
    assert Q > 0


def test_kernel_constant_duplicated_kernels_scale_sqrt2():
    one = single_kernel_problem([GaussianSpec(1.0, 1.0)])
    two = single_kernel_problem([GaussianSpec(1.0, 1.0), GaussianSpec(1.0, 1.0)])
    H1, Q1 = kernel_constants(one)
    H2, Q2 = kernel_constants(two)
    assert H2 == pytest.approx(np.sqrt(2.0) * H1, rel=1e-12)
    assert Q2 == pytest.approx(np.sqrt(2.0) * Q1, rel=1e-12)


def test_kernel_q_matches_radial_quadrature():
    problem = single_kernel_problem([GaussianSpec(1.0, 1.0)], s1=0.4)
    _, Q = kernel_constants(problem)
    oracle_sq = _oracles.radial_integral(
        lambda p: 4.0 * np.pi * p**2 * p ** (4 * (1 - 0.4)) * np.exp(-p**2 / 2.0) / 8.0,
        0.0,
        40.0,
    )
    assert abs(Q - np.sqrt(oracle_sq)) / np.sqrt(oracle_sq) <= 1e-6


def test_kernel_constants_reject_trivial_kernels():
    problem = single_kernel_problem([GaussianSpec(0.0, 1.0)])
    with pytest.raises(ValueError, match="positive"):
        kernel_constants(problem)


# --- embedding constant -------------------------------------------------------


def test_embedding_constant_value():
    # (2 pi)^{-3/2} sqrt(integral dp / (1 + |p|^4)), integral = sqrt(2) pi^2
    assert embedding_constant() == pytest.approx(0.23721249916439716, rel=1e-14)
    body = _oracles.radial_integral(
        lambda p: 4.0 * np.pi * p**2 / (1.0 + p**4), 0.0, 200.0, n=2_000_001
    )
    tail = 4.0 * np.pi / 200.0  # integrand ~ 4 pi / p^2 beyond the cutoff
    assert embedding_constant() == pytest.approx(
        (2 * np.pi) ** -1.5 * np.sqrt(body + tail), rel=1e-6
    )


def test_embedding_inequality_on_band_limited_fields(grid16, rng):
    ce = embedding_constant()
    pm = grid16.wavenumbers
    for _ in range(100):
        noise = ScalarField(grid16, rng.standard_normal(grid16.shape))
        coeff = forward_transform(noise).coefficients.copy()
        coeff[pm > 0.5 * grid16.nyquist] = 0.0
        f = inverse_transform(Spectrum(grid16, coeff))
        rep = field_norms(f)
        assert rep.linf <= ce * rep.h2 + 1e-6


def test_embedding_trivial_zero_field(grid16):
    rep = field_norms(ScalarField.zeros(grid16))
    assert rep.linf <= embedding_constant() * rep.h2


# --- coupling ball norms -------------------------------------------------------


def test_c2_norm_square_coupling_unit_radius():
    g = Nonlinearity(((Monomial((2,), 1.0),),))
    assert c2_ball_norm(g, 1.0) == pytest.approx(5.0)


def test_c2_norm_trivial_coupling():
    g = Nonlinearity(((), ()))
    assert c2_ball_norm(g, 2.0) == 0.0


def test_c2_norm_cross_term():
    # z1*z2: sup r^2, two first partials r each, two mixed second partials 1 each
    g = Nonlinearity(
        (
            (Monomial((1, 1), 1.0),),
            (),
        )
    )
    for r in (1.0, 2.0):
        assert c2_ball_norm(g, r) == pytest.approx(r**2 + 2 * r + 2)
    assert c2_ball_norm(g, 2.0) == pytest.approx(10.0)


def test_c2_norm_upper_bounds_sampled_norm(demo, rng):
    # sampled sup of |g| + sum |dg| + sum |d2g| over the ball never exceeds
    # the coefficient-rule bound
    g = demo.nonlinearity
    radius = 0.8
    bound = c2_ball_norm(g, radius)
    n = g.n_components
    sampled = 0.0
    for _ in range(500):
        z = rng.standard_normal(n)
        z = z / np.linalg.norm(z) * radius * rng.random()
        value, grad = eval_nonlinearity(g, z)
        # quadratic couplings: second partials are constant in z, so probe
        # them by finite differences of the gradient
        h = 1e-5
        second = 0.0
        for j in range(n):
            zp = z.copy()
            zp[j] += h
            zm = z.copy()
            zm[j] -= h
            _, gp = eval_nonlinearity(g, zp)
            _, gm = eval_nonlinearity(g, zm)
            second += np.sum(np.abs((gp - gm) / (2 * h)))
        total = np.sum(np.abs(value)) + np.sum(np.abs(grad)) + second
        sampled = max(sampled, total)
    assert sampled <= bound * (1 + 1e-6)


def test_c2_norm_rejects_nonpositive_radius(demo):
    with pytest.raises(ValueError):
        c2_ball_norm(demo.nonlinearity, 0.0)


def _random_coupling(rng):
    # N <= 3 components of up to three monomials each, degrees 2 to 8
    n = int(rng.integers(1, 4))
    comps = []
    for _ in range(n):
        terms = {}
        for _ in range(int(rng.integers(0, 4))):
            powers = rng.multinomial(int(rng.integers(2, 9)), [1.0 / n] * n)
            terms[tuple(int(p) for p in powers)] = float(rng.standard_normal())
        comps.append(tuple(Monomial(p, c) for p, c in terms.items()))
    return Nonlinearity(tuple(comps))


def test_c2_norm_closed_form_matches_the_index_pair_sums():
    # per monomial the first-partial powers sum to d and the ordered
    # second-partial counts to d (d - 1)
    rng = np.random.default_rng(27)
    for _ in range(300):
        g = _random_coupling(rng)
        radius = float(rng.uniform(0.05, 3.0))
        expected = _oracles.index_pair_c2_ball_norm(g, radius)
        assert c2_ball_norm(g, radius) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_low_degree_monomials_rejected_at_construction():
    with pytest.raises(ValueError, match="degree"):
        Nonlinearity(((Monomial((1, 0), 1.0),), ()))
    with pytest.raises(ValueError, match="degree"):
        Nonlinearity(((Monomial((0, 0), 2.0),), ()))


# --- threshold and contraction factor ---------------------------------------


def test_threshold_worked_example():
    ctx = make_context()
    # bracket 3/(4 pi^2)^{2/3} + 1
    bracket = 3.0 / (4 * np.pi**2) ** (2.0 / 3.0) + 1.0
    assert ctx.epsilon_max == pytest.approx(1.0 / np.sqrt(bracket), rel=1e-12)
    assert ctx.epsilon_max == pytest.approx(0.8913128095633983, rel=1e-12)
    assert ctx.sigma == pytest.approx(1.1219405681938321, rel=1e-12)
    assert ctx.epsilon_max * ctx.sigma == pytest.approx(1.0, rel=1e-14)


def test_threshold_linear_in_rho():
    from dataclasses import replace

    ctx = make_context()
    half = epsilon_threshold(replace(ctx, rho=0.5))
    assert half == pytest.approx(0.5 * ctx.epsilon_max, rel=1e-13)


@pytest.mark.parametrize("rho", [0.0, 1.5, float("nan")])
def test_threshold_rejects_a_hand_built_rho_outside_unit_interval(rho):
    with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\]"):
        make_context(rho=rho)


def test_threshold_scales_inverse_q_when_h_negligible():
    lo = make_context(H=1e-12, Q=1.0)
    hi = make_context(H=1e-12, Q=10.0)
    assert lo.epsilon_max / hi.epsilon_max == pytest.approx(10.0, rel=1e-9)


def test_sigma_linear_in_m():
    base = make_context(M=1.0)
    double = make_context(M=2.0)
    assert double.sigma == pytest.approx(2.0 * base.sigma, rel=1e-13)


def test_sigma_growth_exponent_in_baseline_norm():
    # with the kernel term dominant, sigma ~ (u0_h2+1)^{4 S1 / 3}
    a = make_context(u0_h2=10.0, Q=1e-9)
    b = make_context(u0_h2=100.0, Q=1e-9)
    measured = np.log(b.sigma / a.sigma) / np.log(101.0 / 11.0)
    assert measured == pytest.approx(4.0 * 0.5 / 3.0, abs=1e-6)


def test_duality_identity_random_contexts(rng):
    for _ in range(50):
        ctx = make_context(
            u0_h2=float(rng.uniform(0.0, 5.0)),
            M=float(rng.uniform(0.1, 10.0)),
            H=float(rng.uniform(0.1, 10.0)),
            Q=float(rng.uniform(0.1, 10.0)),
            s1=float(rng.uniform(0.26, 0.5)),
            S1=float(rng.uniform(0.5, 0.74)),
            rho=float(rng.uniform(0.05, 1.0)),
        )
        target = ctx.rho / (ctx.u0_h2 + 1.0)
        assert abs(ctx.epsilon_max * ctx.sigma - target) <= 1e-12 * target


def test_conservative_bracket_dominates_every_pairing():
    ctx = make_context(u0_h2=2.0, H=3.0, Q=0.5, s1=0.3, S1=0.7)
    u1 = ctx.u0_h2 + 1.0
    sigma_sq = (ctx.sigma / (ctx.M * u1)) ** 2
    for a in (0.3, 0.7):
        for b in (0.3, 0.7):
            term = (
                ctx.H**2 * u1 ** (8 * a / 3 - 2) * 3.0
                / ((3 - 4 * a) * (2 * np.pi**2) ** (4 * b / 3) * (4 * b) ** (4 * b / 3))
            )
            assert sigma_sq >= term + ctx.Q**2 - 1e-12


WINDOW_ORDER = st.floats(0.25, 0.75, exclude_min=True, exclude_max=True)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    orders=st.lists(WINDOW_ORDER, min_size=2, max_size=2).map(sorted),
    u0_h2=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    H=st.floats(1e-3, 1e3),
    Q=st.floats(0.0, 1e3),
)
@example(orders=[0.5, 0.5], u0_h2=0.0, H=1.0, Q=1.0)
@example(orders=[0.3, 0.7], u0_h2=0.0, H=3.0, Q=0.0)
def test_bracket_is_the_four_pairing_max_at_its_maximiser(orders, u0_h2, H, Q):
    # lemma: inside the window the kernel term grows with a and falls with
    # b, so the max over the four pairings is the term at (S1_max, s1_min)
    ctx = make_context(u0_h2=u0_h2, H=H, Q=Q, s1=orders[0], S1=orders[1])
    assert _bracket(ctx) == pytest.approx(_oracles.four_pairing_bracket(ctx), rel=4e-16, abs=0.0)


@pytest.mark.parametrize("s1, S1", [(0.5, 0.75), (0.25, 0.5), (0.2, 0.5), (0.4, 0.8)])
def test_bracket_refuses_first_orders_outside_the_window(s1, S1):
    # at S1_max = 0.75 the term's 3 / (3 - 4a) would divide by zero
    message = r"^orders\.s1: the certificate needs every first order in the open window \(0\.25, 0\.75\); got s1_min="
    with pytest.raises(ValueError, match=message):
        make_context(s1=s1, S1=S1)


# --- continuity right side ---------------------------------------------------


def test_continuity_rhs_hand_example():
    ctx = make_context(u0_h2=1.0, M=2.0)
    from dataclasses import replace

    ctx = replace(ctx, epsilon=0.5, sigma=1.0)
    assert continuity_rhs(ctx, 0.1) == pytest.approx(0.1)


def test_continuity_rhs_trivial_cases():
    ctx = make_context(epsilon=0.0)
    assert continuity_rhs(ctx, 0.0) == 0.0
    assert continuity_rhs(ctx, 0.7) == 0.0


def test_continuity_rhs_void_outside_contraction():
    from dataclasses import replace

    ctx = replace(make_context(), epsilon=5.0, sigma=1.0)
    with pytest.raises(ValueError, match="contraction"):
        continuity_rhs(ctx, 0.1)


# --- assembled context --------------------------------------------------------


def test_build_bounds_context_for_demo(demo32):
    ctx = build_bounds_context(demo32)
    # the plan's u0 H2 norm, taken on u0's division spectrum; a fresh
    # transform of u0's values gives it to rounding
    assert ctx.u0_h2 == spectral_plan(demo32).u0_h2 > 0
    assert abs(ctx.u0_h2 - vector_norms(solve_linear_system(demo32)).h2) <= 1e-15 * ctx.u0_h2
    assert ctx.rho == demo32.rho
    assert ctx.H > 0 and ctx.Q > 0
    assert 0.25 < ctx.s1_min <= ctx.S1_max < 0.75
    assert ctx.I_radius == pytest.approx(ctx.c_e * (ctx.u0_h2 + 1.0), rel=1e-14)
    target = ctx.rho / (ctx.u0_h2 + 1.0)
    assert abs(ctx.epsilon_max * ctx.sigma - target) <= 1e-12 * target
    assert ctx.epsilon == demo32.coupling


def test_context_serialization_keys(demo32):
    ctx = build_bounds_context(demo32)
    assert list(ctx.as_dict().keys()) == [
        "u0_h2", "M", "H", "Q", "s1_min", "S1_max", "rho", "c_e",
        "I_radius", "epsilon_max", "sigma", "epsilon",
    ]
