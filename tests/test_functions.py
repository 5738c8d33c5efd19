import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicwave.errors import ConfigError, LizorkinError, NonRadialError
from padicwave.functions import (
    COMPLEX,
    CosetAverages,
    CosetFunction,
    RadialShellFunction,
    add,
    ball_indicator,
    embed_radial,
    equal_exact,
    evaluate,
    from_json_dict,
    integrate,
    is_in_Phi,
    is_in_Psi,
    l1_norm,
    load_coset_function,
    max_abs_diff,
    radial_profile,
    regrid,
    save_coset_function,
    scale,
    to_json_dict,
    translate,
)
from padicwave.lattice import enumerate_cosets
from padicwave.padic import NEG_INF, PrimeContext
from padicwave.solver import WaveProblem, eigenfunction

GOLDEN = Path(__file__).parent / "data" / "golden"


def _rng_table(seed, ctx, n, M, ell):
    import random

    rng = random.Random(seed)
    grid = enumerate_cosets(ctx, M, ell, n)
    return CosetFunction(
        grid,
        [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in grid.representatives],
    )


def test_missing_values_default_to_zero_and_off_grid_keys_fail():
    ctx = PrimeContext(2)
    f = CosetFunction.from_values(ctx, 1, 0, 1, {(Fraction(1),): Fraction(2)})
    assert f.values == (Fraction(0), Fraction(2))
    with pytest.raises(ConfigError):  # outside B_0
        CosetFunction.from_values(ctx, 1, 0, 1, {(Fraction(1, 2),): Fraction(1)})
    with pytest.raises(ConfigError):  # inside B_0, in the coset of 1, but not its representative
        CosetFunction.from_values(ctx, 1, 0, 1, {(Fraction(3),): Fraction(1)})


def test_table_length_must_match_the_grid():
    grid = enumerate_cosets(PrimeContext(2), 0, 1, 1)
    with pytest.raises(ConfigError):
        CosetFunction(grid, [Fraction(1)])


def test_unit_ball_indicator_evaluation():
    ctx = PrimeContext(2)
    ball = ball_indicator(ctx, 1, 0)
    assert evaluate(ball, Fraction(1, 2)) == 0
    assert evaluate(ball, Fraction(6)) == 1
    assert evaluate(ball, Fraction(0)) == 1


def test_integration_of_basic_shapes():
    for p, n, gamma in ((2, 1, 2), (3, 2, 1), (5, 1, -1)):
        ctx = PrimeContext(p)
        ball = ball_indicator(ctx, n, gamma)
        assert integrate(ball) == Fraction(p) ** (n * gamma)
    ctx = PrimeContext(3)
    zero = scale(ball_indicator(ctx, 1, 1), Fraction(0))
    assert integrate(zero) == 0


def test_eigen_data_has_zero_mean():
    for p, K, N in ((2, 1, 0), (3, 2, 1), (5, 1, -1)):
        ctx = PrimeContext(p)
        table = embed_radial(eigenfunction(N, Fraction(1), K, ctx), -K * N + 1, K * N, 1)
        assert integrate(table) == 0
        assert is_in_Phi(table)


def test_origin_vanishing_flag():
    ctx = PrimeContext(2)
    sphere = RadialShellFunction(ctx, Fraction(0), (Fraction(1),), 0)
    assert is_in_Psi(embed_radial(sphere, 0, 1))
    assert not is_in_Psi(ball_indicator(ctx, 1, 0))
    assert is_in_Psi(scale(ball_indicator(ctx, 1, 0), Fraction(0)))


def test_zero_mean_flag_judges_exact_tables_exactly():
    ctx = PrimeContext(2)
    tiny = CosetFunction.from_values(ctx, 1, 0, 1, [1 + Fraction(2, 3 * 10**12), -1])
    assert integrate(tiny) == Fraction(1, 3 * 10**12)
    assert not is_in_Phi(tiny)
    with pytest.raises(LizorkinError):
        WaveProblem(ctx=ctx, n=1, alpha=1, K=1, u0=tiny)


def test_zero_mean_flag_scales_with_float_data():
    # zero mean up to the rounding of values near 1e7
    grid = enumerate_cosets(PrimeContext(3), 1, 1, 1)
    rng = random.Random(5)
    raw = [rng.uniform(-1e7, 1e7) for _ in grid.representatives]
    mean = sum(raw) / len(raw)
    f = CosetFunction(grid, [v - mean for v in raw])
    assert 1e-10 < abs(integrate(f)) < 1e-8
    assert is_in_Phi(f)
    WaveProblem(ctx=grid.ctx, n=1, alpha=1, K=1, u0=f)
    off = CosetFunction(grid, [v - mean + 1.0 for v in raw])
    assert not is_in_Phi(off)


def test_zero_mean_flag_on_translation_differences():
    ctx = PrimeContext(3)
    f = _rng_table(11, ctx, 1, 1, 1)
    g = add(f, scale(translate(f, Fraction(1, 3)), Fraction(-1)))
    assert is_in_Phi(g)
    assert not is_in_Phi(ball_indicator(ctx, 1, 0))


def test_radial_profile_of_the_unit_ball():
    ctx = PrimeContext(2)
    r = radial_profile(ball_indicator(ctx, 1, 0, 2, 0))
    assert r.core_value == 1
    for gamma in (1, 2, 3):
        assert r.value_at_exponent(gamma) == 0


def test_radial_profile_of_the_canonical_eigenfunction():
    ctx = PrimeContext(2)
    table = embed_radial(eigenfunction(0, Fraction(1), 1, ctx), 1, 0, 1)
    r = radial_profile(table)
    assert r.value_at_exponent(0) == Fraction(1, 2)
    assert r.value_at_exponent(1) == Fraction(-1, 2)
    assert r.value_at_exponent(2) == 0


def test_radial_profile_rejects_angular_dependence():
    ctx = PrimeContext(3)
    grid = enumerate_cosets(ctx, 0, 1, 1)
    values = [Fraction(0)] * len(grid)
    values[1] = Fraction(1)  # the cosets of 1 and 2 share the unit sphere
    with pytest.raises(NonRadialError):
        radial_profile(CosetFunction(grid, values))


@pytest.mark.parametrize("shift, radial", [(5e-13, True), (1e-11, False)])
def test_radial_profile_of_a_complex_table_allows_rounding_only(shift, radial):
    # values on one sphere may differ by 1e-12 times max(1, the largest magnitude)
    ctx = PrimeContext(3)
    f = ball_indicator(ctx, 1, 0, 1, 1)
    values = [complex(v) for v in f.values]
    values[-1] += shift  # the last coset shares the sphere |x| = 3 with five others
    table = CosetFunction(f.grid, values)
    if radial:
        r = radial_profile(table)
        assert not r.exact and r.core_value == 1 and r.value_at_exponent(1) == 0
    else:
        with pytest.raises(NonRadialError, match=r"\|x\| = p\*\*1"):
            radial_profile(table)


def test_embed_constant_is_a_ball_indicator():
    ctx = PrimeContext(3)
    r = RadialShellFunction(ctx=ctx, core_value=Fraction(7), shells=(), shell_lo=1)
    f = embed_radial(r, 0, 1, 1)
    assert equal_exact(f, scale(ball_indicator(ctx, 1, 0, 0, 1), Fraction(7)))


def test_embed_radial_refuses_a_grid_too_narrow_or_too_coarse():
    ctx = PrimeContext(3)
    wide = RadialShellFunction(ctx, Fraction(0), (Fraction(1),), 2)  # 1 on |x| = 9
    with pytest.raises(ConfigError, match=r"nonzero on \|x\| = p\*\*2, outside .* exponent 1"):
        embed_radial(wide, 1, 0, 1)
    assert evaluate(embed_radial(wide, 2, 0, 1), Fraction(1, 9)) == 1
    fine = RadialShellFunction(ctx, Fraction(1), (Fraction(0),), -1)  # 0 on |x| = 1/3
    with pytest.raises(ConfigError, match=r"varies on \|x\| = p\*\*-1, below .* exponent 1"):
        embed_radial(fine, 0, 1, 1)
    assert evaluate(embed_radial(fine, 0, 2, 1), Fraction(3)) == 0


def test_l1_norms():
    ctx = PrimeContext(2)
    assert l1_norm(ball_indicator(ctx, 1, 2)) == 4
    table = embed_radial(eigenfunction(0, Fraction(1), 1, ctx), 1, 0, 1)
    assert l1_norm(table) == 1
    assert l1_norm(scale(table, Fraction(2))) == 2


@pytest.mark.parametrize("p, n, M, ell", [(2, 1, 1, 2), (3, 2, 0, 1), (5, 1, -1, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_l1_norm_of_a_rational_table_is_the_fraction_sum(seed, p, n, M, ell):
    f = _rng_table(seed, PrimeContext(p), n, M, ell)
    got = l1_norm(f)
    assert isinstance(got, Fraction)
    assert got == sum((abs(v) for v in f.values), Fraction(0)) * f.grid.coset_volume


@given(st.integers(min_value=0, max_value=10_000))
def test_translation_preserves_integral_and_l1(seed):
    ctx = PrimeContext(2)
    f = _rng_table(seed, ctx, 1, 1, 1)
    g = translate(f, Fraction(5, 4))
    assert integrate(g) == integrate(f)
    assert l1_norm(g) == l1_norm(f)


def test_regrid_preserves_values_and_refuses_to_shrink():
    ctx = PrimeContext(2)
    f = _rng_table(3, ctx, 1, 0, 1)
    wide = regrid(f, 2, 2)
    for rep, v in f.items():
        assert evaluate(wide, rep[0]) == v
    assert integrate(wide) == integrate(f)
    with pytest.raises(ConfigError):
        regrid(f, -1, 1)


def test_pointwise_algebra_round_trip():
    ctx = PrimeContext(3)
    f = _rng_table(5, ctx, 1, 1, 1)
    g = _rng_table(6, ctx, 1, 0, 2)
    s = add(f, g)
    assert equal_exact(add(s, scale(g, Fraction(-1))), regrid(f, 1, 2))
    # a float factor, or a complex operand, gives a complex table
    h = scale(g, 0.5)
    assert h.kind == COMPLEX and max_abs_diff(h, scale(g, Fraction(1, 2))) == 0.0
    back = add(add(f, h), scale(h, Fraction(-1)))
    assert back.kind == COMPLEX and max_abs_diff(back, regrid(f, 1, 2)) <= 1e-12


def test_json_round_trip_is_exact(tmp_path):
    ctx = PrimeContext(5)
    f = _rng_table(9, ctx, 2, 1, 0)
    doc = to_json_dict(f)
    json.dumps(doc)  # must be serializable as-is
    g = from_json_dict(doc)
    assert equal_exact(f, g)
    path = tmp_path / "table.json"
    save_coset_function(f, path)
    assert equal_exact(load_coset_function(path), f)


def test_a_transform_with_irrational_values_saves_and_loads_as_complex(tmp_path):
    from padicwave.fourier import forward

    # the indicator of 1 + 3Z_3 has the cube roots of unity over 3 as its transform
    f_hat = forward(CosetFunction.from_values(PrimeContext(3), 1, 0, 1, {1: 1}))
    assert f_hat.kind == "phase"
    assert any(v.as_rational() is None for v in f_hat.values if not isinstance(v, Fraction))
    path = tmp_path / "transform.json"
    save_coset_function(f_hat, path)
    back = load_coset_function(path)
    assert back.kind == COMPLEX
    assert back.cells == tuple(map(complex, f_hat.values))


def test_an_exact_entry_with_an_imaginary_part_loads_as_complex():
    f = _rng_table(4, PrimeContext(3), 1, 1, 1)
    doc = to_json_dict(f)
    doc["values"][1].update(re="1/2", im="1/3")
    g = from_json_dict(doc)
    assert g.kind == COMPLEX
    assert g.values[1] == complex(0.5, 1 / 3)
    assert g.values[0] == complex(f.values[0])


def test_a_rational_phase_sum_saves_as_an_exact_string():
    from padicwave.phases import PhaseSum

    # 2 + zeta_3 + zeta_3^2 = 1, from int coefficients
    s = PhaseSum(3, 3, {0: 2, 1: 1, 2: 1})
    f = CosetFunction(enumerate_cosets(PrimeContext(3), 0, 1, 1), [s, 0, 0])
    assert to_json_dict(f)["values"][0] == {"re": "1", "im": "0", "digits": [[0]]}


def test_loader_names_a_coset_listed_twice():
    doc = to_json_dict(_rng_table(4, PrimeContext(3), 1, 1, 1))
    doc["values"][1]["digits"] = doc["values"][0]["digits"]
    with pytest.raises(ConfigError, match="listed twice"):
        from_json_dict(doc)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "complex"])
@pytest.mark.parametrize("part, value", [("re", math.inf), ("im", -math.inf),
                                         ("re", math.nan), ("im", True), ("re", False)])
def test_loader_names_an_entry_that_is_not_a_finite_number(exact, part, value):
    f = _rng_table(4, PrimeContext(3), 1, 1, 1)
    doc = to_json_dict(f if exact else scale(f, 1j))
    doc["values"][1][part] = value
    with pytest.raises(ConfigError, match=r"malformed coset table entry .*not a finite number"):
        from_json_dict(doc)


@pytest.mark.parametrize(
    "name", ["table-p3-n1-M2-ell1.json", "table-p3-n2-M1-ell1-complex.json"]
)
def test_saved_tables_load_and_save_byte_for_byte(name, tmp_path):
    path = tmp_path / name
    save_coset_function(load_coset_function(GOLDEN / name), path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def test_radial_shell_function_normalize_trims_and_absorbs():
    ctx = PrimeContext(2)
    r = RadialShellFunction(
        ctx=ctx,
        core_value=Fraction(3),
        shells=(Fraction(3), Fraction(1), Fraction(0), Fraction(0)),
        shell_lo=0,
    )
    t = r.normalize()
    assert t.core_value == 3
    assert t.shells == (Fraction(1),)
    assert t.shell_lo == 1
    for gamma in (-5, 0, 1, 2, 9):
        assert t.value_at_exponent(gamma) == r.value_at_exponent(gamma)


def test_each_table_has_one_value_kind_fixed_when_built():
    from padicwave.phases import PhaseSum

    grid = enumerate_cosets(PrimeContext(2), 1, 1, 1)
    f = CosetFunction(grid, [1, Fraction(1, 2), Fraction(-3, 4), 0])
    assert (f.kind, f.den, f.cells) == ("rational", 4, (4, 2, -3, 0))
    assert f.values == (1, Fraction(1, 2), Fraction(-3, 4), 0)
    assert all(type(v) is Fraction for v in f.values)
    # numerators over a common multiple are brought to the least denominator
    g = CosetFunction(grid, [8, 4, -6, 0], 8)
    assert (g.den, g.cells) == (4, (4, 2, -3, 0)) and g.values == f.values
    # one float makes the whole table complex, exact cells included
    h = CosetFunction(grid, [1, Fraction(1, 2), 0.25, 0])
    assert h.kind == "complex" and h.values == (1 + 0j, 0.5 + 0j, 0.25 + 0j, 0j)
    assert all(type(v) is complex for v in h.values)
    s = PhaseSum(2, 4, {1: Fraction(1)})
    assert CosetFunction(grid, [s, 1, 0, 0]).kind == "phase"
    assert CosetFunction(grid, [s, 1.0, 0, 0]).kind == "complex"
    r = RadialShellFunction(PrimeContext(2), 1, (Fraction(1, 2), 0.5), 0)
    assert not r.exact and r.core_value == 1 + 0j and type(r.shells[0]) is complex
    for bad, message in ((True, "boolean"), ("1", "unsupported")):
        with pytest.raises(ConfigError, match=message):
            CosetFunction(grid, [bad, 0, 0, 0])
        with pytest.raises(ConfigError, match=message):
            RadialShellFunction(PrimeContext(2), bad, (), 0)


def _grid_shapes():
    """(p, n, M, ell) with M, ell in [-2, 2] and at most 125 cosets."""
    for p in (2, 3, 5):
        for n in (1, 2):
            for M in range(-2, 3):
                for ell in range(max(-2, -M), 3):
                    if p ** (n * (M + ell)) <= 125:
                        yield p, n, M, ell


def _run_weights(rng, M: int, ell: int, pool) -> dict:
    """A weight per frequency level (NEG_INF at the origin), in runs, zeros included."""
    w, x = {}, rng.choice(pool)
    for e in [NEG_INF, *range(-M + 1, ell + 1)]:
        if rng.random() < 0.5:
            x = rng.choice(pool)
        w[e] = x
    return w


INT_WEIGHTS = (0, 1, -2)  # exact too, on both routes
WEIGHT_POOL = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(5, 3), Fraction(7), *INT_WEIGHTS)


@pytest.mark.parametrize("p, n, M, ell", list(_grid_shapes()))
def test_radial_weights_equal_the_fourier_route(p, n, M, ell):
    from padicwave.fourier import forward, inverse, multiply_radial

    rng = random.Random(f"radial {p} {n} {M} {ell}")
    f = _rng_table(rng.randrange(10**6), PrimeContext(p), n, M, ell)
    g = CosetFunction(f.grid, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in f.cells])
    hats = {h: forward(h) for h in (f, g)}
    for pool in (WEIGHT_POOL, WEIGHT_POOL, INT_WEIGHTS):
        w = _run_weights(rng, M, ell, pool)
        got = CosetAverages(f).radial(w.__getitem__)
        via = inverse(multiply_radial(hats[f], w.__getitem__))
        assert got.kind == via.kind == "rational"
        assert got.values == via.values
        # float weights, on a rational and on a complex table
        wf = {e: float(x) * 1.25 for e, x in w.items()}
        for h, h_hat in hats.items():
            got = CosetAverages(h).radial(wf.__getitem__)
            assert got.kind == "complex"
            assert max_abs_diff(got, inverse(multiply_radial(h_hat, wf.__getitem__))) <= 1e-12


@pytest.mark.parametrize("p, n, M, ell", [*_grid_shapes(), (2, 3, 1, 1), (3, 3, 0, 1)])
def test_spread_repeats_each_coset_value_over_the_cosets_it_holds(p, n, M, ell):
    avg = CosetAverages(_rng_table(5, PrimeContext(p), n, M, ell))
    for hi in range(-M, ell + 1):
        side = p ** (M + hi)
        coords = list(itertools.product(range(side), repeat=n))  # row-major, as the grid
        # the level -M - 1 sentinel is one coset, spread like level -M
        assert list(avg._spread(iter([5]), -M - 1, hi)) == [5] * len(coords)
        for lo in range(-M, hi + 1):
            q, per_side = p ** (hi - lo), p ** (M + lo)
            want = [sum(a // q * per_side**k for k, a in enumerate(reversed(c))) for c in coords]
            # the level-lo coset ids, passed as an iterator: each is repeated, not grouped
            assert list(avg._spread(iter(range(per_side**n)), lo, hi)) == want
