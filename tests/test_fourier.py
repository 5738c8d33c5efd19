import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicwave.errors import ConfigError
from padicwave.fourier import forward, inverse
from padicwave.functions import (
    COMPLEX,
    CosetFunction,
    RadialShellFunction,
    add,
    ball_indicator,
    embed_radial,
    equal_exact,
    is_in_Phi,
    is_in_Psi,
    max_abs_diff,
    radial_inverse,
    radial_profile,
    scale,
    translate,
)
from padicwave.lattice import enumerate_cosets
from padicwave.padic import PrimeContext, fractional_part, phase_to_complex
from padicwave.phases import PhaseSum
from padicwave.solver import eigenfunction


def test_unit_ball_indicator_is_a_fixed_point():
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        f = ball_indicator(ctx, 1, 0)
        assert equal_exact(forward(f), f)
        assert equal_exact(inverse(forward(f)), f)


def test_wider_ball_transforms_to_scaled_smaller_ball():
    for p in (2, 3):
        ctx = PrimeContext(3) if p == 3 else PrimeContext(2)
        f = ball_indicator(ctx, 1, 1)
        g = forward(f)
        want = scale(ball_indicator(ctx, 1, -1, 1, 1), Fraction(p))
        assert equal_exact(g, want)


def test_transform_swaps_support_and_resolution():
    ctx = PrimeContext(2)
    grid = enumerate_cosets(ctx, 2, 1, 1)
    f = CosetFunction(grid, [Fraction(1) for _ in grid.representatives])
    g = forward(f)
    assert g.support_exp == 1 and g.resolution_exp == 2


def test_zero_mean_maps_to_zero_at_origin():
    ctx = PrimeContext(3)
    rng = random.Random(2)
    grid = enumerate_cosets(ctx, 1, 1, 1)
    f = CosetFunction(
        grid, [Fraction(rng.randint(-5, 5)) for _ in grid.representatives]
    )
    g = add(f, scale(translate(f, Fraction(1, 3)), Fraction(-1)))
    assert is_in_Phi(g)
    assert is_in_Psi(forward(g))


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 3, 5]))
def test_round_trip_is_exact_on_rational_tables(seed, p):
    ctx = PrimeContext(p)
    rng = random.Random(seed)
    grid = enumerate_cosets(ctx, 1, 1, 1)
    f = CosetFunction(
        grid,
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in grid.representatives
        ],
    )
    assert equal_exact(inverse(forward(f)), f)
    assert equal_exact(forward(inverse(f)), f)


def test_round_trip_in_two_dimensions():
    ctx = PrimeContext(2)
    rng = random.Random(1)
    grid = enumerate_cosets(ctx, 1, 1, 2)
    f = CosetFunction(
        grid, [Fraction(rng.randint(-4, 4)) for _ in grid.representatives]
    )
    assert equal_exact(inverse(forward(f)), f)


def test_float_tables_round_trip_within_tolerance():
    ctx = PrimeContext(3)
    rng = random.Random(8)
    grid = enumerate_cosets(ctx, 1, 1, 1)
    f = CosetFunction(
        grid,
        [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in grid.representatives
        ],
    )
    assert max_abs_diff(inverse(forward(f)), f) <= 1e-10


def test_sphere_spectrum_inverts_to_the_canonical_eigenfunction():
    # transform-side sphere indicator comes back as core + single shell
    for p, K, N in ((2, 1, 0), (3, 2, 1), (2, 2, -1)):
        ctx = PrimeContext(p)
        sphere = RadialShellFunction(ctx, Fraction(0), (Fraction(1),), K * N)
        spec = embed_radial(sphere, K * N, -K * N + 1)
        got = inverse(spec)
        want = embed_radial(
            eigenfunction(N, Fraction(1), K, ctx), -K * N + 1, K * N, 1
        )
        a, b = got, want
        if got.support_exp != want.support_exp or got.resolution_exp != want.resolution_exp:
            from padicwave.functions import regrid

            M = max(got.support_exp, want.support_exp)
            ell = max(got.resolution_exp, want.resolution_exp)
            a, b = regrid(got, M, ell), regrid(want, M, ell)
        assert equal_exact(a, b)


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3, 5) for n in (1, 2)])
def test_radial_inverse_matches_the_grid_transform(p, n):
    # radial closed form against the full table transform, on the two spectra
    # the package inverts: a sphere indicator (the eigenfunction) and a
    # multiplier profile, 1 on a ball and -1/(p - 1) or 0 on the sphere above
    ctx = PrimeContext(p)
    spectra = [RadialShellFunction(ctx, 0, (1,), lo) for lo in (-1, 0, 1)] + [
        RadialShellFunction(ctx, 1, (edge,), lo)
        for edge in (Fraction(-1, p - 1), 0)
        for lo in (-1, 0, 1)
    ]
    for r in spectra:
        by_grid = radial_profile(inverse(embed_radial(r, r.shell_hi, 1 - r.shell_lo, n)))
        by_formula = radial_inverse(r, n)
        for gamma in range(-4, 5):
            assert by_grid.value_at_exponent(gamma) == by_formula.value_at_exponent(gamma), (
                r.core_value, r.shells, r.shell_lo, gamma)


def test_radial_inverse_unit_ball_fixed_point():
    ctx = PrimeContext(5)
    r = radial_profile(ball_indicator(ctx, 1, 0))
    out = radial_inverse(r, 1)
    assert out.value_at_exponent(0) == 1
    assert out.value_at_exponent(1) == 0
    assert out.value_at_exponent(-2) == 1


def test_transform_requires_matching_space():
    ctx = PrimeContext(2)
    f = ball_indicator(ctx, 1, 0)
    with pytest.raises(ConfigError):
        add(f, ball_indicator(PrimeContext(3), 1, 0))


def _phase_terms(v: PhaseSum) -> list:
    """The terms in their stored order, each as (Fraction phase mod 1, coefficient)."""
    return [(Fraction(k, v.q), c) for k, c in v.coeffs.items()]


def _reference_transform(f: CosetFunction, sign: int) -> CosetFunction:
    """The transform with one Fraction phase {xi . x}_p per coset pair."""
    p = f.ctx.p
    out_grid = enumerate_cosets(f.ctx, f.resolution_exp, f.support_exp, f.n)
    vol = f.grid.coset_volume
    exact = f.kind != COMPLEX
    cache = {}

    def phase(xi, x):
        total = Fraction(0)
        for u, v in zip(xi, x):
            if (u, v) not in cache:
                cache[u, v] = fractional_part(u * v, f.ctx)
            total += cache[u, v]
        return (sign * total) % 1

    out_values = []
    for xi in out_grid.representatives:
        if exact:
            acc = {}
            for x, val in f.items():
                if val == 0:
                    continue
                ph = phase(xi, x)
                terms = _phase_terms(val) if isinstance(val, PhaseSum) else [(Fraction(0), val)]
                for t, c in terms:
                    key = (t + ph) % 1
                    acc[key] = acc.get(key, Fraction(0)) + c
            q = max((ph.denominator for ph in acc), default=1)
            total = PhaseSum(p, q, {ph.numerator * (q // ph.denominator): c for ph, c in acc.items()})
            total = total.scaled(vol)
            rational = total.as_rational()
            out_values.append(total if rational is None else rational)
        else:
            acc_c = 0j
            for x, val in f.items():
                acc_c += val * phase_to_complex(phase(xi, x))
            out_values.append(acc_c * float(vol))
    return CosetFunction(out_grid, out_values)


def _transform_cases(p: int, n: int):
    """Rational, PhaseSum (grid, finer and mixed moduli) and complex tables on
    every grid with M, ell in [-2, 2] and at most 64 cosets."""
    rng = random.Random(p * 10 + n)
    for M in range(-2, 3):
        for ell in range(-2, 3):
            width = M + ell
            if width < 0 or p ** (n * width) > 64:
                continue
            grid = enumerate_cosets(PrimeContext(p), M, ell, n)

            def value(extra: int):
                if rng.random() < 0.3:
                    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                q = p ** (width + extra)
                return PhaseSum(p, q, {
                    rng.randrange(q): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 3))
                })

            yield CosetFunction(
                grid, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(len(grid))]
            )
            yield CosetFunction(grid, [value(0) for _ in range(len(grid))])
            yield CosetFunction(grid, [value(2) for _ in range(len(grid))])
            yield CosetFunction(grid, [value(rng.randrange(3)) for _ in range(len(grid))])
            yield CosetFunction(
                grid, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(grid))]
            )


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_transform_matches_the_fraction_phase_reference(p, n):
    # same type and value per coset; a PhaseSum keeps the very same terms, in
    # the same order, so its complex value is the same float as well
    for f in _transform_cases(p, n):
        for transform, sign in ((forward, 1), (inverse, -1)):
            got, want = transform(f), _reference_transform(f, sign)
            assert got.grid == want.grid
            for g, w in zip(got.values, want.values):
                assert type(g) is type(w)
                if isinstance(w, PhaseSum):
                    assert _phase_terms(g) == _phase_terms(w)
                else:
                    assert g == w
