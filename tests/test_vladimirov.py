import random
from fractions import Fraction

import pytest

from padicwave.errors import ConfigError, LizorkinError
from padicwave.fourier import forward
from padicwave.functions import (
    RATIONAL,
    CosetFunction,
    add,
    ball_indicator,
    embed_radial,
    equal_exact,
    integrate,
    max_abs_diff,
    scale,
    translate,
)
from padicwave.lattice import enumerate_cosets, vector_norm_exponent
from padicwave.padic import PrimeContext
from padicwave.phases import PhaseSum
from padicwave.solver import eigen_table, eigenfunction
from padicwave.vladimirov import (
    apply_hypersingular,
    apply_hypersingular_field,
    apply_spectral,
    eigen_error,
    power_of_p,
)


def test_integral_alpha_keeps_tables_rational():
    assert power_of_p(3, 2, 2) == Fraction(81)  # p**(2*alpha)
    assert power_of_p(3, 2, -2) == Fraction(1, 81)
    # the prefactor too: the form of a rational table is a Fraction
    f = ball_indicator(PrimeContext(3), 1, 0)
    assert isinstance(apply_hypersingular(2, f, (Fraction(1, 3),)), Fraction)
    # a whole float or Fraction order is the integer order: the same rational tables
    g = CosetFunction.from_values(PrimeContext(3), 1, 1, 1, [3, -1, 0, 2, -4, 1, 0, 0, -1])
    want = (apply_spectral(2, g), apply_hypersingular_field(2, g))
    assert all(t.kind == RATIONAL for t in want)
    for alpha in (2.0, Fraction(2)):
        assert power_of_p(3, alpha, -2) == Fraction(1, 81)
        got = (apply_spectral(alpha, g), apply_hypersingular_field(alpha, g))
        for t, ref in zip(got, want):
            assert t.kind == RATIONAL and equal_exact(t, ref), alpha


def test_fractional_alpha_degrades_to_float():
    assert isinstance(power_of_p(3, 0.5, 2), float)
    assert power_of_p(3, 0.5, 2) == pytest.approx(3.0)


def test_eigenfunction_is_scaled_by_power_of_p():
    # core-plus-shell data with transform on one sphere: exact eigenvalue p^(K*alpha*N)
    for p, K, N, alpha in ((2, 1, 0, 1), (3, 2, 1, 2), (2, 2, -1, 3)):
        ctx = PrimeContext(p)
        u = embed_radial(eigenfunction(N, Fraction(1), K, ctx), -K * N + 1, K * N, 1)
        got = apply_spectral(alpha, u)
        lam = Fraction(p) ** (K * alpha * N)
        want = CosetFunction(got.grid, [lam * v for v in u.values])
        assert equal_exact(got, want)


def test_eigen_error_rounds_each_reference_once():
    # exact data and an integral order: both forms are exact, so the error is exactly 0
    for p, K, N, C, alpha in ((3, 1, -2, Fraction(1), 1), (3, 1, 2, Fraction(2, 7), 1),
                              (2, 2, 1, Fraction(1), 2), (5, 3, -1, Fraction(-3, 4), 1)):
        ctx = PrimeContext(p)
        f = eigen_table(N, C, K, ctx, 1, 0)
        assert eigen_error(alpha, f, K * N) == 0.0
    # a fractional order rounds, and a wrong eigenvalue is seen on both forms
    ctx = PrimeContext(3)
    f = eigen_table(1, Fraction(1), 1, ctx, 1, 0)
    assert 0.0 < eigen_error(Fraction(1, 2), f, 1) <= 1e-15
    assert eigen_error(1, f, 2) == pytest.approx(2 / 3)


def test_hypersingular_agrees_with_spectral_on_eigenfunctions():
    ctx = PrimeContext(3)
    alpha = 2
    u = embed_radial(eigenfunction(1, Fraction(1), 2, ctx), -1, 2, 1)
    spec = apply_spectral(alpha, u)
    for rep, want in zip(u.grid.representatives, spec.values):
        direct = apply_hypersingular(alpha, u, rep)
        assert direct == want


def test_unit_ball_indicator_pointwise_closed_form():
    # outside the ball (|x| = p**gamma, gamma >= 1) a negative power tail
    p = 2
    ctx = PrimeContext(p)
    for alpha in (1, 2):
        f = ball_indicator(ctx, 1, 0, 3, 3)
        pref = Fraction(1 - p**alpha) / (1 - Fraction(p) ** (-alpha - 1))
        for gamma in (1, 2, 3):
            x = (Fraction(1, p**gamma),)
            want = pref * Fraction(p) ** (-gamma * (alpha + 1))
            assert apply_hypersingular(alpha, f, x) == want


def test_unit_ball_frozen_values_alpha_one():
    ctx = PrimeContext(2)
    alpha = 1
    f = ball_indicator(ctx, 1, 0, 3, 3)
    assert apply_hypersingular(alpha, f, (Fraction(1, 2),)) == Fraction(-1, 3)
    assert apply_hypersingular(alpha, f, (Fraction(1, 4),)) == Fraction(-1, 12)
    assert apply_hypersingular(alpha, f, (Fraction(1, 8),)) == Fraction(-1, 48)


def test_unit_ball_fractional_alpha_close_to_closed_form():
    p = 2
    ctx = PrimeContext(p)
    alpha = 0.5
    f = ball_indicator(ctx, 1, 0, 4, 4)
    pref = (1 - p**alpha) / (1 - p ** (-alpha - 1))
    for gamma in (1, 2):
        x = (Fraction(1, p**gamma),)
        want = pref * p ** (-gamma * (alpha + 1))
        assert apply_hypersingular(alpha, f, x) == pytest.approx(want, abs=1e-12)


def test_constant_background_kills_the_operator():
    # constants sit in the kernel once the table is read as a restriction
    ctx = PrimeContext(3)
    alpha = 2
    grid = enumerate_cosets(ctx, 1, 1, 1)
    c = Fraction(7, 2)
    f = CosetFunction(grid, [c for _ in grid.representatives])
    out = apply_hypersingular_field(alpha, f, background=c)
    assert all(v == 0 for v in out.values)


def test_field_application_matches_transform_side():
    ctx = PrimeContext(2)
    alpha = 1
    rng = random.Random(5)
    grid = enumerate_cosets(ctx, 1, 1, 1)
    f = CosetFunction(
        grid, [Fraction(rng.randint(-4, 4)) for _ in grid.representatives]
    )
    f = add(f, scale(translate(f, Fraction(1, 2)), Fraction(-1)))  # zero mean, keeps it admissible
    by_field = apply_hypersingular_field(alpha, f, support_exp=1)
    by_spec = apply_spectral(alpha, f)
    assert max_abs_diff(by_field, by_spec) == 0


def test_duality_against_brute_multiplier():
    # transform of D f equals |xi|^alpha times transform of f
    ctx = PrimeContext(3)
    alpha = 2
    rng = random.Random(11)
    grid = enumerate_cosets(ctx, 1, 1, 2)
    f = CosetFunction(
        grid, [Fraction(rng.randint(-3, 3)) for _ in grid.representatives]
    )
    f = add(f, scale(translate(f, (Fraction(1, 3), Fraction(0))), Fraction(-1)))
    lhs = forward(apply_spectral(alpha, f))
    fhat = forward(f)
    rhs_values = []
    for rep, v in fhat.items():
        if not any(rep):
            rhs_values.append(Fraction(0))
            continue
        w = power_of_p(ctx.p, alpha, vector_norm_exponent(rep, ctx))
        rhs_values.append(v.scaled(w) if isinstance(v, PhaseSum) else v * w)
    rhs = CosetFunction(fhat.grid, rhs_values)
    # phase sums built along two different routes: equal as numbers only
    assert max_abs_diff(lhs, rhs) <= 1e-12


def test_rejects_tables_outside_the_admissible_class():
    ctx = PrimeContext(2)
    alpha = 1
    f = ball_indicator(ctx, 1, 0)
    assert integrate(f) != 0
    with pytest.raises(LizorkinError):
        apply_spectral(alpha, f)


def test_field_application_refuses_to_shrink_support():
    ctx = PrimeContext(2)
    alpha = 1
    f = ball_indicator(ctx, 1, 0, 2, 2)
    with pytest.raises(ConfigError):
        apply_hypersingular_field(alpha, f, support_exp=1)


@pytest.mark.parametrize("n, M, ell", [(1, 3, 3), (2, 2, 1)])
@pytest.mark.parametrize("alpha", [1, 2])
def test_averaging_equals_hypersingular_exactly_at_729_cosets(n, M, ell, alpha):
    ctx = PrimeContext(3)
    rng = random.Random(f"729 {n} {alpha}")
    grid = enumerate_cosets(ctx, M, ell, n)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(len(grid))]
    mean = sum(values) / len(values)
    f = CosetFunction(grid, [v - mean for v in values])
    by_spec = apply_spectral(alpha, f)
    assert len(grid) == 729 and by_spec.kind == "rational"
    assert by_spec.values == apply_hypersingular_field(alpha, f).values


_ORDER_REFUSALS = [
    (0, "the operator order must be positive, got 0"),
    (-1, "the operator order must be positive, got -1"),
    (10**400, f"the operator order {10**400} is too large for a float"),
    (1e-320, "the operator order 1e-320 is too small for a float: p**-alpha rounds to 1"),
]


@pytest.mark.parametrize(
    "alpha, message", _ORDER_REFUSALS, ids=["zero", "negative", "huge", "tiny"]
)
@pytest.mark.parametrize(
    "form",
    [
        apply_spectral,
        apply_hypersingular_field,
        lambda alpha, f: apply_hypersingular(alpha, f, (Fraction(0),)),
        lambda alpha, f: eigen_error(alpha, f, 1),
    ],
    ids=["spectral", "hypersingular-field", "hypersingular", "eigen-error"],
)
def test_every_form_refuses_a_bad_order(form, alpha, message):
    # a zero-mean table, so the order is the only thing refused
    f = eigen_table(1, Fraction(1), 1, PrimeContext(3), 1, 0)
    with pytest.raises(ConfigError) as excinfo:
        form(alpha, f)
    assert str(excinfo.value) == message
