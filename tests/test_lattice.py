from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicwave.errors import ConfigError, GridCapError
from padicwave.lattice import (
    as_fraction_vector,
    ball_character_integral,
    ball_volume,
    enumerate_cosets,
    sphere_character_integral,
    sphere_representatives,
    sphere_volume,
    vector_norm_exponent,
)
from padicwave.padic import NEG_INF, PrimeContext, fractional_part, valuation
from padicwave.phases import PhaseSum


def test_ball_volumes():
    assert ball_volume(PrimeContext(2), 1, 2) == 4
    assert ball_volume(PrimeContext(3), 2, 0) == 1
    assert ball_volume(PrimeContext(5), 1, -1) == Fraction(1, 5)


def test_sphere_volumes():
    assert sphere_volume(PrimeContext(3), 1, 0) == Fraction(2, 3)
    assert sphere_volume(PrimeContext(2), 1, 1) == 1
    assert sphere_volume(PrimeContext(2), 2, 0) == Fraction(3, 4)


def test_ball_character_integral_values():
    ctx = PrimeContext(2)
    assert ball_character_integral(ctx, 1, 0, (Fraction(1),)) == 1
    assert ball_character_integral(ctx, 1, 0, (Fraction(1, 2),)) == 0
    ctx3 = PrimeContext(3)
    assert ball_character_integral(ctx3, 1, 2, (Fraction(0),)) == 9


def test_sphere_character_integral_values():
    ctx = PrimeContext(3)
    assert sphere_character_integral(ctx, 1, 0, (Fraction(1),)) == Fraction(2, 3)
    assert sphere_character_integral(ctx, 1, 0, (Fraction(1, 3),)) == Fraction(-1, 3)
    assert sphere_character_integral(ctx, 1, 0, (Fraction(1, 9),)) == 0


@pytest.mark.parametrize("n", [0, -1])
def test_volumes_and_character_integrals_refuse_dimension_below_one(n):
    ctx = PrimeContext(2)
    for call in (
        lambda: ball_volume(ctx, n, 1),
        lambda: sphere_volume(ctx, n, 1),
        lambda: ball_character_integral(ctx, n, 1, ()),
        lambda: sphere_character_integral(ctx, n, 1, ()),
    ):
        with pytest.raises(ConfigError, match="dimension must be >= 1"):
            call()


def test_a_point_must_have_n_coordinates():
    assert as_fraction_vector("1/2", 1) == (Fraction(1, 2),)
    assert as_fraction_vector([1, "1/3"], 2) == (Fraction(1), Fraction(1, 3))
    with pytest.raises(ConfigError, match="expected an 2-vector, got a scalar"):
        as_fraction_vector(Fraction(1, 2), 2)
    with pytest.raises(ConfigError, match="expected an 3-vector, got 2 coordinates"):
        as_fraction_vector((1, 2), 3)


def _brute_ball_sum(ctx, gamma, xi):
    """Exact direct sum over cosets fine enough for the character."""
    e = vector_norm_exponent((xi,), ctx)
    ell = max(-gamma, 0 if e == NEG_INF else int(e))
    grid = enumerate_cosets(ctx, gamma, ell, 1)
    acc = {}
    for (rep,) in grid.representatives:
        ph = fractional_part(xi * rep, ctx)
        acc[ph] = acc.get(ph, Fraction(0)) + 1
    q = max(ph.denominator for ph in acc)  # one index mod q per Fraction phase
    total = PhaseSum(ctx.p, q, {ph.numerator * (q // ph.denominator): c for ph, c in acc.items()})
    total = total.as_rational()
    assert total is not None
    return total * grid.coset_volume


@given(
    st.sampled_from([2, 3]),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([1, 3, 5]),
)
def test_character_integrals_match_direct_sums(p, gamma, e, unit):
    if unit % p == 0:
        unit += 1
    ctx = PrimeContext(p)
    xi = Fraction(unit) * Fraction(p) ** (-e)
    brute_ball = _brute_ball_sum(ctx, gamma, xi)
    assert ball_character_integral(ctx, 1, gamma, (xi,)) == brute_ball
    want_sphere = sphere_character_integral(ctx, 1, gamma, (xi,))
    assert want_sphere == brute_ball - _brute_ball_sum(ctx, gamma - 1, xi)


def test_enumerate_cosets_small_grids():
    assert [r for (r,) in enumerate_cosets(PrimeContext(2), 0, 1, 1).representatives] == [
        Fraction(0),
        Fraction(1),
    ]
    reps3 = [r for (r,) in enumerate_cosets(PrimeContext(3), 1, 0, 1).representatives]
    assert reps3 == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    assert len(enumerate_cosets(PrimeContext(2), 0, 1, 2)) == 4


def test_each_grid_is_new_and_equals_any_grid_of_its_shape():
    a, b = (enumerate_cosets(PrimeContext(3), 1, 2, 2) for _ in range(2))
    assert a is not b and a == b
    assert a != enumerate_cosets(PrimeContext(3), 2, 1, 2)
    assert a.norm_exponents == b.norm_exponents


def test_grid_cardinality_rejects_negative_width():
    with pytest.raises(ConfigError):
        enumerate_cosets(PrimeContext(2), 0, -1, 1)


def test_grid_cap_env_override(monkeypatch):
    monkeypatch.setenv("PADICWAVE_GRID_CAP", "8")
    with pytest.raises(GridCapError) as err:
        enumerate_cosets(PrimeContext(3), 1, 1, 1)
    assert "9" in str(err.value)
    enumerate_cosets(PrimeContext(2), 1, 1, 1)  # 4 points, still fine


@pytest.mark.parametrize("raw, message", [("x", "must be an integer"), ("0", "must be positive")])
def test_grid_cap_env_must_be_a_positive_integer(raw, message, monkeypatch):
    monkeypatch.setenv("PADICWAVE_GRID_CAP", raw)
    with pytest.raises(ConfigError, match=f"PADICWAVE_GRID_CAP {message}"):
        enumerate_cosets(PrimeContext(2), 1, 1, 1)


def test_grid_cap_refuses_a_huge_dimension_without_building_the_count():
    # p**(n*W) would have 30 million bits; the refusal names it as a power
    with pytest.raises(GridCapError, match=r"2\*\*30000000 points"):
        enumerate_cosets(PrimeContext(2), 1, 2, 10**7)


@given(
    st.sampled_from([2, 5]),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
    st.lists(
        st.fractions(min_value=-40, max_value=40, max_denominator=50),
        min_size=1,
        max_size=2,
    ),
)
def test_position_names_the_coset_holding_the_point(p, M, ell, x):
    if M + ell < 0:
        ell = -M
    ctx = PrimeContext(p)
    grid = enumerate_cosets(ctx, M, ell, len(x))
    pos = grid.position(tuple(x))
    if any(valuation(q, ctx) < -M for q in x):
        assert pos is None
        return
    # each coordinate's difference from the representative sits below the resolution
    for q, r in zip(x, grid.representatives[pos]):
        if q != r:
            assert valuation(q - r, ctx) >= ell


def test_position_of_each_representative_is_its_index():
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for n in (1, 2):
            for M in range(-2, 3):
                for ell in range(-M, 3):
                    if p ** (n * (M + ell)) > 4000:
                        continue
                    grid = enumerate_cosets(ctx, M, ell, n)
                    for i, rep in enumerate(grid.representatives):
                        assert grid.position(rep) == i, (p, n, M, ell, rep)


@pytest.mark.parametrize("n", [1, 2])
def test_coordinates_render_each_digit_once_and_lazily_at_n_1(n):
    grid = enumerate_cosets(PrimeContext(3), 2, 1, n)
    calls = []

    def render(a):
        calls.append(a)
        return -a

    coords = grid.coordinates(render)
    first = next(coords)
    # at n = 1 the first coset renders one digit, not all p**W of them
    assert len(calls) == (1 if n == 1 else 27)
    assert [first, *coords] == [tuple(-a for a in d) for d in grid.digits]
    assert len(calls) == 27


def test_enumerate_cosets_rejects_dimension_below_one():
    with pytest.raises(ConfigError):
        enumerate_cosets(PrimeContext(2), 1, 1, 0)


def test_norm_exponents_are_the_norms_of_the_representatives():
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            for M in range(-2, 3):
                for ell in range(-M, 3):
                    if p ** (n * (M + ell)) > 4000:
                        continue
                    ctx = PrimeContext(p)
                    grid = enumerate_cosets(ctx, M, ell, n)
                    want = tuple(vector_norm_exponent(rep, ctx) for rep in grid.representatives)
                    assert grid.norm_exponents == want, (p, n, M, ell)


def test_sphere_representatives_have_the_stated_norm():
    ctx = PrimeContext(3)
    reps = sphere_representatives(ctx, 1, 1, 1)
    assert len(reps) > 0
    for rep in reps:
        assert vector_norm_exponent(rep, ctx) == 1
    # ball = disjoint union of spheres plus the origin coset
    grid = enumerate_cosets(ctx, 1, 1, 1)
    total = sum(len(sphere_representatives(ctx, g, 1, 1)) for g in (-1, 0, 1))
    assert total + 1 == len(grid)
