import random
from fractions import Fraction

import pytest

from padicwave import solver
from padicwave.errors import (
    ConfigError,
    LizorkinError,
    SpectralCompatibilityError,
)
from padicwave.fourier import forward
from padicwave.functions import (
    COMPLEX,
    CosetFunction,
    RadialShellFunction,
    ball_indicator,
    embed_radial,
    equal_exact,
    max_abs_diff,
    regrid,
    scale,
    translate,
)
from padicwave.lattice import enumerate_cosets, sphere_volume, vector_norm_exponent
from padicwave.padic import NEG_INF, PrimeContext
from padicwave.solver import (
    T_ZERO,
    PropagationMultiplier,
    SolutionSlice,
    WaveProblem,
    auto_time_sweep,
    coupling,
    eigen_table,
    eigenfunction,
    kernel_ball_integral,
    kernel_closed_form,
    kernel_oracle,
    l1_bound_check,
    solve_averaging,
    solve_convolution,
    solve_spectral,
    spectral_data,
    time_profile,
)


def eigen_data(ctx, N, C, K):
    return eigen_table(N, C, K, ctx, 1, 0)


# -- propagation multiplier ---------------------------------------------------


def test_multiplier_frozen_values():
    ctx2, ctx3 = PrimeContext(2), PrimeContext(3)
    assert PropagationMultiplier(ctx2, 1).value(0, 0) == 1
    assert PropagationMultiplier(ctx3, 1).value(1, 0) == Fraction(-1, 2)
    assert PropagationMultiplier(ctx2, 2).value(-2, 1) == 1
    assert PropagationMultiplier(ctx2, 1).value(2, 0) == 0
    assert PropagationMultiplier(ctx2, 3).value(-5, 2) == Fraction(-1, 1)  # L = -KN+1, p = 2


def test_multiplier_time_zero_and_origin_mode():
    ctx = PrimeContext(5)
    assert PropagationMultiplier(ctx, 2).value(T_ZERO, 7) == 1
    assert PropagationMultiplier(ctx, 2).value(3, NEG_INF) == 1


# -- eigenfunctions -----------------------------------------------------------


def test_eigenfunction_table_p2():
    ctx = PrimeContext(2)
    r = eigenfunction(0, Fraction(1), 1, ctx)
    assert r.value_at_exponent(NEG_INF) == Fraction(1, 2)
    assert r.value_at_exponent(0) == Fraction(1, 2)
    assert r.value_at_exponent(1) == Fraction(-1, 2)
    assert r.value_at_exponent(2) == 0
    assert r.integrate(1) == 0


def test_eigenfunction_table_p3_scaled_mode():
    ctx = PrimeContext(3)
    r = eigenfunction(1, Fraction(1), 2, ctx)
    assert r.value_at_exponent(-2) == Fraction(6)  # core: |x| <= 1/9
    assert r.value_at_exponent(-1) == Fraction(-3)
    assert r.value_at_exponent(0) == 0
    assert r.integrate(1) == 0


def test_a_widened_eigen_table_holds_the_same_function():
    for p, K, N, n in ((2, 1, 1, 1), (3, 2, 0, 1), (2, 1, -1, 2)):
        ctx = PrimeContext(p)
        tight = eigen_table(N, Fraction(3, 5), K, ctx, n, 0)
        wide = eigen_table(N, Fraction(3, 5), K, ctx, n, 1)
        assert (tight.support_exp, tight.resolution_exp) == (-K * N + 1, K * N)
        assert equal_exact(wide, regrid(tight, -K * N + 2, K * N + 1))
    with pytest.raises(ConfigError):
        eigen_table(1, Fraction(1), 1, ctx, 1, -1)  # too small to hold the datum


def test_eigenfunction_transform_is_one_frequency_sphere():
    for p, K, N, C in ((2, 1, 0, Fraction(1)), (3, 2, 1, Fraction(5, 3))):
        ctx = PrimeContext(p)
        u = eigen_data(ctx, N, C, K)
        sphere = RadialShellFunction(ctx, Fraction(0), (Fraction(1),), K * N)
        want = scale(embed_radial(sphere, K * N, -K * N + 1), C)
        assert equal_exact(forward(u), want)


# -- the propagation kernel ---------------------------------------------------


def test_kernel_spot_values_p5():
    # front boundary at K=3: one shell carries 5/4, the next is flat zero
    ctx = PrimeContext(5)
    assert kernel_closed_form(3, 1, -2, 0, ctx) == Fraction(5, 4)
    assert kernel_closed_form(3, 1, -3, 0, ctx) == Fraction(0)
    assert kernel_oracle(3, 1, -2, ctx).value_at_exponent(0) == Fraction(5, 4)
    assert kernel_oracle(3, 1, -3, ctx).value_at_exponent(0) == Fraction(0)


def test_kernel_closed_form_matches_oracle():
    for p in (2, 3):
        ctx = PrimeContext(p)
        for n in (1, 2):
            for K in (1, 2):
                for L in range(-4, 5):
                    kernel = kernel_oracle(K, n, L, ctx)
                    for M in range(-4, 5):
                        want = kernel.value_at_exponent(M)
                        assert kernel_closed_form(K, n, L, M, ctx) == want, (p, n, K, L, M)


def test_floor_bracket_variant_is_wrong():
    # the plausible alternative bracket disagrees with the direct sum
    ctx = PrimeContext(2)
    good = kernel_closed_form(2, 1, 3, 0, ctx)
    bad = kernel_closed_form(2, 1, 3, 0, ctx, bracket="floor")
    assert good == kernel_oracle(2, 1, 3, ctx).value_at_exponent(0)
    assert bad != good
    with pytest.raises(ConfigError):
        kernel_closed_form(1, 1, 0, 0, ctx, bracket="round")


def test_kernel_constant_deep_inside_the_front():
    ctx = PrimeContext(3)
    for K, L in ((1, 2), (2, 5), (3, 4)):
        m_const = (L - 2) // K
        k_inf = kernel_closed_form(K, 1, L, m_const, ctx)
        for M in range(m_const - 3, m_const + 1):
            assert kernel_closed_form(K, 1, L, M, ctx) == k_inf


def test_kernel_ball_integral_telescopes():
    ctx = PrimeContext(2)
    for K, n, L in ((1, 1, 2), (2, 1, -3), (2, 2, 1), (3, 1, 0)):
        for r in range(-3, 4):
            step = kernel_ball_integral(K, n, L, r, ctx) - kernel_ball_integral(
                K, n, L, r - 1, ctx
            )
            vol = sphere_volume(ctx, n, r)
            assert step == kernel_closed_form(K, n, L, r, ctx) * vol, (K, n, L, r)


def test_kernel_ball_integral_deep_ball_is_constant_mass():
    ctx = PrimeContext(3)
    K, n, L = 2, 1, 6
    m_const = (L - 2) // K
    k_inf = kernel_closed_form(K, n, L, m_const, ctx)
    for r in range(m_const - 2, m_const + 1):
        assert kernel_ball_integral(K, n, L, r, ctx) == k_inf * Fraction(3) ** (n * r)


# -- the Cauchy problem -------------------------------------------------------


def test_time_zero_returns_the_data_exactly():
    ctx = PrimeContext(3)
    u0 = eigen_data(ctx, 1, Fraction(2, 7), 2)
    prob = WaveProblem(ctx=ctx, n=1, alpha=1, K=2, u0=u0)
    for sl in (solve_spectral(prob, T_ZERO), solve_convolution(prob, T_ZERO)):
        assert equal_exact(sl.field, u0)


def test_slices_of_one_mode_scale_by_the_multiplier():
    ctx = PrimeContext(2)
    N, C, K = 1, Fraction(3), 2
    u0 = eigen_data(ctx, N, C, K)
    prob = WaveProblem(ctx=ctx, n=1, alpha=1, K=K, u0=u0)
    for L in auto_time_sweep(prob):
        b = PropagationMultiplier(ctx, K).value(L, K * N)  # frequency sphere exponent K*N
        want = scale(u0, b)
        assert equal_exact(solve_spectral(prob, L).field, want)
        assert equal_exact(solve_convolution(prob, L).field, want)


def test_both_solution_routes_agree_on_mixed_data():
    ctx = PrimeContext(2)
    a = eigen_data(ctx, 0, Fraction(1), 1)
    b = eigen_data(ctx, 1, Fraction(1, 2), 1)
    from padicwave.functions import add

    u0 = add(a, b)
    prob = WaveProblem(ctx=ctx, n=1, alpha=2, K=1, u0=u0)
    for L in auto_time_sweep(prob):
        s1 = solve_spectral(prob, L).field
        s2 = solve_convolution(prob, L).field
        assert equal_exact(s1, s2), L


def test_auto_time_sweep_window():
    ctx = PrimeContext(2)
    u0 = eigen_data(ctx, 1, Fraction(1), 2)  # single frequency sphere at exp 2
    prob = WaveProblem(ctx=ctx, n=1, alpha=1, K=2, u0=u0)
    assert auto_time_sweep(prob) == range(-5, -1)


def test_auto_time_sweep_empty_spectrum_fallback():
    ctx = PrimeContext(2)
    grid = enumerate_cosets(ctx, 1, 1, 1)
    zero = CosetFunction(grid, [Fraction(0) for _ in grid.representatives])
    prob = WaveProblem(ctx=ctx, n=1, alpha=1, K=2, u0=zero)
    assert auto_time_sweep(prob) == range(-3, 5)


def test_dependence_stays_in_the_data_ball():
    ctx = PrimeContext(2)
    base = eigen_data(ctx, 0, Fraction(1), 2)  # supported in |x| <= 2
    u0 = translate(base, Fraction(4))  # move to a coset inside |x| <= 4
    wide = regrid(u0, u0.support_exp + 2, u0.resolution_exp)  # room outside |x| <= 4
    prob = WaveProblem(ctx=ctx, n=1, alpha=1, K=2, u0=wide)
    for L in [*auto_time_sweep(prob), 2, 1]:  # 2 is the boundary label L = K*(N-1)
        field = solve_averaging(prob, L).field
        outside = [v for e, v in zip(field.grid.norm_exponents, field.values) if e > 2]
        assert outside and all(v == 0 for v in outside), L


def test_l1_bound_holds_and_time_zero_is_isometric():
    ctx = PrimeContext(3)
    u0 = eigen_data(ctx, 1, Fraction(1), 1)
    prob = WaveProblem(ctx=ctx, n=1, alpha=1, K=1, u0=u0)
    ratio, _ = l1_bound_check(prob, solve_averaging(prob, T_ZERO).field)
    assert ratio == pytest.approx(1.0)
    for L in auto_time_sweep(prob):
        ratio, bound = l1_bound_check(prob, solve_averaging(prob, L).field)
        assert ratio <= bound * (1 + 1e-12), (L, ratio, bound)


def test_incompatible_orders_are_refused_loudly():
    ctx = PrimeContext(2)
    u0 = eigen_data(ctx, 0, Fraction(1), 1)
    with pytest.raises(SpectralCompatibilityError, match="zero solution"):
        WaveProblem(ctx=ctx, n=1, alpha=1, K=coupling(1, 1.5), u0=u0)
    prob = WaveProblem(ctx=ctx, n=1, alpha=0.5, K=coupling(0.5, 1.5), u0=u0)
    assert prob.K == 3
    assert prob.beta == pytest.approx(1.5)


def test_time_profile_tracks_the_multiplier():
    ctx = PrimeContext(2)
    N, K = 1, 2
    u0 = eigen_data(ctx, N, Fraction(1), K)
    prob = WaveProblem(ctx=ctx, n=1, alpha=1, K=K, u0=u0)
    x = (Fraction(0),)
    profile = time_profile(prob, x)
    ux = u0.values[u0.grid.position(x)]
    assert profile.value_at_exponent(NEG_INF) == ux
    for L in range(-6, 3):
        want = PropagationMultiplier(ctx, K).value(L, K * N) * ux
        assert profile.value_at_exponent(L) == want, L
    assert profile.integrate(1) == 0


def test_time_profile_refuses_a_profile_without_zero_mean(monkeypatch):
    # every slice equal to the data makes t -> u(t, x) constant, whose integral is not zero
    ctx = PrimeContext(3)
    prob = WaveProblem(ctx=ctx, n=1, alpha=1, K=1, u0=eigen_data(ctx, 0, Fraction(1), 1))
    monkeypatch.setattr(solver, "solve_averaging", lambda prob, L: SolutionSlice(L, prob.u0))
    with pytest.raises(LizorkinError, match="fails the zero-mean check: integral = 6"):
        time_profile(prob, (Fraction(0),))


def test_wave_problem_validation():
    ctx = PrimeContext(2)
    u0 = eigen_data(ctx, 0, Fraction(1), 1)
    with pytest.raises(ConfigError):
        WaveProblem(ctx=ctx, n=1, alpha=1, K=0, u0=u0)
    with pytest.raises(ConfigError):
        WaveProblem(ctx=PrimeContext(3), n=1, alpha=1, K=1, u0=u0)
    with pytest.raises(LizorkinError):
        WaveProblem(ctx=ctx, n=1, alpha=1, K=1, u0=ball_indicator(ctx, 1, 0))


COUPLING_ENTRY_POINTS = {
    "multiplier": lambda ctx, u0, K: PropagationMultiplier(ctx, K),
    "eigenfunction": lambda ctx, u0, K: eigenfunction(0, Fraction(1), K, ctx),
    "problem": lambda ctx, u0, K: WaveProblem(ctx=ctx, n=1, alpha=1, K=K, u0=u0),
}


@pytest.mark.parametrize("K", [0, -1, 1.5, True], ids=["zero", "negative", "fractional", "bool"])
@pytest.mark.parametrize("entry", list(COUPLING_ENTRY_POINTS))
def test_every_entry_point_refuses_a_coupling_that_is_not_a_positive_integer(entry, K):
    # True would pass as K = 1 if the rule accepted every int
    ctx = PrimeContext(2)
    u0 = eigen_data(ctx, 0, Fraction(1), 1)
    with pytest.raises(ConfigError, match="coupling K must be a positive integer"):
        COUPLING_ENTRY_POINTS[entry](ctx, u0, K)


# -- the averaging route against the spectral oracle ---------------------------


def _zero_mean_table(rng, ctx, n, M, ell):
    grid = enumerate_cosets(ctx, M, ell, n)
    raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in grid.representatives]
    mean = sum(raw, Fraction(0)) / len(raw)
    return CosetFunction(grid, [v - mean for v in raw])


def _float_copy(f):
    return CosetFunction(f.grid, [float(v) for v in f.values])


# (p, n, M, ell) of the seeded tables: every grid small enough for the O(N^2)
# exact transforms of the spectral oracle
TABLE_GRIDS = (
    (2, 1, 1, 2), (2, 1, 2, 1), (3, 1, 1, 1), (3, 1, 2, 1), (5, 1, 1, 0), (5, 1, 0, 1),
    (2, 2, 1, 1), (3, 2, 1, 0), (3, 2, 0, 1), (5, 2, 0, 1),
)


def _route_problems():
    """Radial built-ins and seeded zero-mean non-radial rational tables."""
    rng = random.Random(20261018)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for n in (1, 2):
            for K in (1, 2, 3):
                # 'sphere-indicator 1' and 'eigen 1 C' profiles, on the narrowest grid
                yield WaveProblem(ctx=ctx, n=n, alpha=1, K=K,
                                  u0=embed_radial(eigenfunction(1, 1, 1, ctx, n), 0, 1, n))
                C = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                yield WaveProblem(ctx=ctx, n=n, alpha=1, K=K,
                                  u0=embed_radial(eigenfunction(1, C, K, ctx, n), 1 - K, K, n))
    for i, (p, n, M, ell) in enumerate(TABLE_GRIDS):
        ctx = PrimeContext(p)
        yield WaveProblem(ctx=ctx, n=n, alpha=1, K=1 + i % 3,
                          u0=_zero_mean_table(rng, ctx, n, M, ell))


ROUTE_PROBLEMS = list(_route_problems())


def _labels(prob):
    """The auto sweep plus labels past both ends, where the levels clamp."""
    sweep = auto_time_sweep(prob)
    return [T_ZERO, sweep.start - 3, *sweep, sweep.stop + 2]


def _transform_sweep(prob):
    """The sweep rule read off the exact transform: spheres where it is nonzero."""
    u0_hat = forward(prob.u0)
    values = u0_hat.complex_values()
    tol = 1e-12 * max(1.0, max(map(abs, values)))
    exact = u0_hat.kind != COMPLEX
    exps = set()
    for rep, v, c in zip(u0_hat.grid.representatives, u0_hat.values, values):
        nonzero = v != 0 if exact else abs(c) > tol
        e = vector_norm_exponent(rep, prob.ctx)
        if nonzero and e != NEG_INF:
            exps.add(int(e))
    if not exps:
        return range(-prob.K - 1, prob.K + 3)
    return range(-prob.K * max(exps) - 1, -prob.K * min(exps) + 3)


def _problem_id(prob):
    return f"p{prob.ctx.p}-n{prob.n}-K{prob.K}-M{prob.u0.support_exp}-ell{prob.u0.resolution_exp}"


@pytest.mark.parametrize("prob", ROUTE_PROBLEMS, ids=_problem_id)
def test_averaging_equals_spectral_exactly(prob):
    u0_hat = spectral_data(prob)
    for L in _labels(prob):
        got = solve_averaging(prob, L).field
        want = solve_spectral(prob, L, u0_hat).field
        assert got.values == want.values, L
        assert all(isinstance(v, Fraction) for v in got.values)


@pytest.mark.parametrize("prob", ROUTE_PROBLEMS, ids=_problem_id)
def test_averaging_sweep_equals_transform_sweep(prob):
    assert auto_time_sweep(prob) == _transform_sweep(prob)
    floats = WaveProblem(ctx=prob.ctx, n=prob.n, alpha=1, K=prob.K, u0=_float_copy(prob.u0))
    assert auto_time_sweep(floats) == _transform_sweep(floats)


@pytest.mark.parametrize("prob", ROUTE_PROBLEMS[::3], ids=_problem_id)
def test_averaging_matches_spectral_on_float_tables(prob):
    u0 = _float_copy(prob.u0)
    floats = WaveProblem(ctx=prob.ctx, n=prob.n, alpha=1, K=prob.K, u0=u0)
    tol = 1e-12 * max(1.0, max(abs(v) for _, v in u0.items()))
    u0_hat = spectral_data(floats)
    for L in _labels(floats):
        got = solve_averaging(floats, L).field
        assert max_abs_diff(got, solve_spectral(floats, L, u0_hat).field) <= tol, L


def test_averaging_at_time_zero_is_the_data():
    prob = ROUTE_PROBLEMS[-1]
    assert solve_averaging(prob, T_ZERO).field is prob.u0


def test_exact_ratio_decides_the_coupling():
    ctx = PrimeContext(2)
    u0 = eigen_data(ctx, 0, Fraction(1), 1)
    third = Fraction(1, 3)
    with pytest.raises(SpectralCompatibilityError, match="not a positive integer"):
        K = coupling(third, Fraction(1000000000001, 1000000000000))
        WaveProblem(ctx=ctx, n=1, alpha=third, K=K, u0=u0)
    assert WaveProblem(ctx=ctx, n=1, alpha=third, K=coupling(third, 1), u0=u0).K == 3
    # float orders keep the 1e-9 relative slack
    assert WaveProblem(ctx=ctx, n=1, alpha=1 / 3, K=coupling(1 / 3, 1.000000000001), u0=u0).K == 3
    with pytest.raises(ConfigError):
        WaveProblem(ctx=ctx, n=1, alpha=0, K=coupling(0, 1), u0=u0)


def test_dimension_must_be_positive():
    ctx = PrimeContext(2)
    u0 = eigen_data(ctx, 0, Fraction(1), 1)
    with pytest.raises(ConfigError, match="dimension"):
        WaveProblem(ctx=ctx, n=0, alpha=1, K=1, u0=u0)
