"""The package's oracles against literal Fraction references.

The three reference functions below are per-term Fraction versions of
``kernel_oracle``, ``solve_convolution`` and ``apply_hypersingular``.  The
last two oracles run on integer digit coordinates, and their references are
kept as written before they moved there.  ``kernel_oracle`` returns the
time-L kernel as a radial function, the closed-form inverse transform of
the multiplier; its reference sums the multiplier series on one sphere, a
short head plus a geometric tail.  Rational results must be equal Fraction
for Fraction, float results bitwise: the integer oracles keep the
references' summation order and round each exact value where the
references did.
"""

import random
from fractions import Fraction

import pytest

from padicwave.functions import CosetFunction
from padicwave.lattice import (
    as_fraction_vector,
    digit_reversal,
    digit_valuations,
    enumerate_cosets,
    sphere_representatives,
    vector_norm_exponent,
)
from padicwave.padic import NEG_INF, PrimeContext
from padicwave.solver import (
    PropagationMultiplier,
    WaveProblem,
    _ceil_div,
    kernel_ball_integral,
    kernel_closed_form,
    kernel_oracle,
    solve_convolution,
)
from padicwave.vladimirov import (
    apply_hypersingular,
    apply_hypersingular_field,
    power_of_p,
)


def _add(a, b):
    """a + b: exact for two rationals, else in complex arithmetic."""
    if isinstance(a, complex) or isinstance(b, complex):
        return complex(a) + complex(b)
    return a + b


def _scale(v, s):
    """v * s: exact for a rational v and a rational s, else in complex arithmetic."""
    if isinstance(s, float):
        return complex(v) * complex(s)
    if isinstance(v, complex):
        return v * float(s)
    return v * s


def reference_kernel_oracle(K, n, L, M, ctx):
    p = ctx.p
    b = PropagationMultiplier(ctx, K)
    j1 = max(0, _ceil_div(L - K * M, K))
    head = Fraction(0)
    for j in range(j1):
        head += b.value(L, -M - j) * Fraction(p) ** (-j * n)
    tail = Fraction(p) ** (-j1 * n) / (1 - Fraction(p) ** (-n))
    result = (1 - Fraction(p) ** (-n)) * Fraction(p) ** (-M * n) * (head + tail)
    result -= Fraction(p) ** (-M * n) * b.value(L, -M + 1)
    return result


def reference_convolution(prob, L):
    f = prob.u0
    K, n, ctx = prob.K, prob.n, prob.ctx
    ell = f.resolution_exp
    coset_vol = Fraction(ctx.p) ** (-n * ell)
    diag_mass = kernel_ball_integral(K, n, L, -ell, ctx)
    kernel_cache = {}

    def k_at(e):
        if e not in kernel_cache:
            kernel_cache[e] = kernel_closed_form(K, n, L, e, ctx)
        return kernel_cache[e]

    items = list(f.items())
    values = []
    for x, fx in items:
        acc = _scale(fx, diag_mass)
        for y, fy in items:
            if y == x:
                continue
            e = vector_norm_exponent(tuple(a - b for a, b in zip(x, y)), ctx)
            w = k_at(int(e)) * coset_vol
            if w:
                acc = _add(acc, _scale(fy, w))
        values.append(acc)
    return values


def _evaluate_extended(grid, values, vec, background):
    i = grid.position(vec)
    return background if i is None else values[i]


def _prefactor(p, n, alpha):
    """(1 - p**alpha) / (1 - p**(-alpha-n)), exact when alpha is integral."""
    if isinstance(power_of_p(p, alpha, 1), Fraction):
        a = int(alpha)
        return (1 - Fraction(p) ** a) / (1 - Fraction(p) ** (-a - n))
    af = float(alpha)
    return (1.0 - float(p) ** af) / (1.0 - float(p) ** (-af - n))


def reference_hypersingular(alpha, f, x, background=Fraction(0)):
    ctx, n = f.ctx, f.n
    p = ctx.p
    background = Fraction(background) if isinstance(background, int) else background
    vec = as_fraction_vector(x, n)
    e_x = vector_norm_exponent(vec, ctx)
    gamma_top = f.support_exp if e_x == NEG_INF else max(f.support_exp, int(e_x))
    ell = f.resolution_exp
    values = f.values  # built on each read, so read once
    fx = _evaluate_extended(f.grid, values, vec, background)
    coset_vol = Fraction(p) ** (-n * ell)
    total = Fraction(0)
    for gamma in range(-ell + 1, gamma_top + 1):
        shell_w = power_of_p(p, alpha, -gamma)
        if isinstance(shell_w, Fraction):
            shell_w = shell_w * Fraction(p) ** (-gamma * n) * coset_vol
        else:
            shell_w = shell_w * float(p) ** (-gamma * n) * float(coset_vol)
        for yrep in sphere_representatives(ctx, gamma, ell, n):
            y = tuple(a - b for a, b in zip(vec, yrep))
            fy = _evaluate_extended(f.grid, values, y, background)
            diff = _add(fy, _scale(fx, -1))
            total = _add(total, _scale(diff, shell_w))
    a = power_of_p(p, alpha, -(gamma_top + 1))
    if isinstance(a, Fraction):
        tail_sum = a / (1 - power_of_p(p, alpha, -1))
        tail_w = (1 - Fraction(p) ** (-n)) * tail_sum
    else:
        tail_sum = a / (1.0 - power_of_p(p, alpha, -1))
        tail_w = (1.0 - float(p) ** (-n)) * tail_sum
    diff = _add(background, _scale(fx, -1))
    total = _add(total, _scale(diff, tail_w))
    return _scale(total, _prefactor(p, n, alpha))


def assert_same(got, want):
    """Equal Fractions, or floats equal to the bit (signed zeros included)."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, complex):
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    else:
        assert got == want


# (p, n, M, ell): one- and two-dimensional grids, and a support below the unit ball
SHAPES = [
    (2, 1, 1, 1), (2, 1, 2, 2), (3, 1, 1, 1), (3, 1, 0, 2),
    (5, 1, 1, 1), (2, 2, 1, 1), (3, 2, 0, 1), (2, 1, -1, 3),
]


def _table(shape, kind, seed, zero_mean=False):
    p, n, M, ell = shape
    rng = random.Random(seed)
    grid = enumerate_cosets(PrimeContext(p), M, ell, n)
    if kind == "rational":
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(len(grid))]
    else:
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(grid))]
    if zero_mean:
        mean = sum(values) / len(values)
        values = [v - mean for v in values]
    return CosetFunction(grid, values)


def test_digit_tables():
    for p, width in ((2, 0), (2, 3), (3, 2), (5, 1)):
        grid = enumerate_cosets(PrimeContext(p), width, 0, 1)
        rev = digit_reversal(p, width)
        assert grid.digits == tuple((a,) for a in rev)
        assert [rev[a] for a in rev] == list(range(p**width))
        assert all(grid.position(rep) == rev[a] for rep, (a,) in zip(grid.representatives, grid.digits))
        val = digit_valuations(p, width)
        assert val[0] == width
        assert all(p ** val[a] * (a // p ** val[a]) == a and (a // p ** val[a]) % p for a in range(1, p**width))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_oracle_matches_the_fraction_reference(p):
    ctx = PrimeContext(p)
    for n in (1, 2, 3):
        for K in range(1, 5):
            for L in range(-9, 10):
                kernel = kernel_oracle(K, n, L, ctx)
                for M in range(-9, 10):
                    assert kernel.value_at_exponent(M) == reference_kernel_oracle(K, n, L, M, ctx)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("kind", ["rational", "complex"])
def test_convolution_matches_the_fraction_reference(shape, kind):
    p, n = shape[0], shape[1]
    ctx = PrimeContext(p)
    u0 = _table(shape, kind, seed=SHAPES.index(shape) * 2 + (kind == "complex"), zero_mean=True)
    for K in (1, 2, 3):
        prob = WaveProblem(ctx=ctx, n=n, alpha=1, K=K, u0=u0)
        for L in range(-5, 6):
            got = solve_convolution(prob, L).field.values
            want = reference_convolution(prob, L)
            for g, w in zip(got, want, strict=True):
                assert_same(g, w)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("kind", ["rational", "complex"])
def test_hypersingular_matches_the_fraction_reference(shape, kind):
    # integral and fractional orders, a widened output support, a nonzero
    # background, and points inside, outside and at the origin
    p, n, M, ell = shape
    f = _table(shape, kind, seed=SHAPES.index(shape) * 2 + (kind == "complex") + 100)
    points = [Fraction(1, 3), Fraction(5, p ** (M + 2)), Fraction(0)]
    for alpha in (1, 2, Fraction(1, 2), 1.5):
        for support, bg in ((None, Fraction(0)), (None, Fraction(3, 7)), (M + 1, Fraction(3, 7))):
            field = apply_hypersingular_field(alpha, f, support, bg)
            for rep, g in zip(field.grid.representatives, field.values, strict=True):
                assert_same(g, reference_hypersingular(alpha, f, rep, bg))
        for c in points:
            x = (c,) * n
            assert_same(apply_hypersingular(alpha, f, x), reference_hypersingular(alpha, f, x))
