"""One test per top-level acceptance check, each printing its verdict line,
plus the fast ball-sum oracle against its one-Fraction-per-coset reference.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
with their detail strings; the whole file is the release gate.
"""

import math
from fractions import Fraction

import pytest

from padicwave import acceptance, solver, vladimirov
from padicwave.functions import CosetFunction
from padicwave.lattice import enumerate_cosets, vector_norm_exponent
from padicwave.padic import NEG_INF, PrimeContext, rational_fractional_part
from padicwave.phases import PhaseSum


def report(r):
    print(f"{'PASS' if r.passed else 'FAIL'} {r.name} - {r.detail}")
    assert r.passed, f"{r.name}: {r.detail}"


def test_integration_formulas():
    report(acceptance.check_integration_formulas())


def test_fourier_round_trip():
    report(acceptance.check_fourier_round_trip())


def test_eigenrelation():
    report(acceptance.check_eigenrelation())


def test_operator_duality():
    report(acceptance.check_operator_duality())


def test_kernel_identity():
    report(acceptance.check_kernel_identity())


def test_solver_duality():
    report(acceptance.check_solver_duality())


def test_time_pde():
    report(acceptance.check_time_pde())


def test_finite_dependence():
    report(acceptance.check_finite_dependence())


def test_l1_bound():
    report(acceptance.check_l1_bound())


def test_uniqueness():
    report(acceptance.check_uniqueness())


def test_refusal_path():
    report(acceptance.check_refusal())


def test_kernel_identity_catches_an_injected_fault():
    # the floor-bracket variant must be caught, or the check proves nothing
    r = acceptance.check_kernel_identity(bracket="floor")
    assert not r.passed
    assert "mismatch" in r.detail


def _nan_table(f):
    return CosetFunction(f.grid, [math.nan] * len(f.grid))


def _nan_hypersingular(alpha, f, *args, **kwargs):
    return _nan_table(f)


def _nan_convolution(prob, L):
    real = solver.solve_convolution(prob, L)
    return real if L == solver.T_ZERO else solver.SolutionSlice(L, _nan_table(real.field))


@pytest.mark.parametrize(
    "module, route, replacement, check",
    [
        (vladimirov, "apply_hypersingular_field", _nan_hypersingular, "check_eigenrelation"),
        (acceptance, "solve_convolution", _nan_convolution, "check_solver_duality"),
    ],
    ids=["eigenrelation", "solver-duality"],
)
def test_a_route_that_returns_nan_fails_its_check(module, route, replacement, check, monkeypatch):
    # max() drops a nan that does not come first, so a fold with it would pass
    monkeypatch.setattr(module, route, replacement)
    r = getattr(acceptance, check)()
    assert not r.passed, r.detail
    assert "nan" in r.detail


def _leaky_spectral(prob, L):
    grid = prob.u0.grid
    return solver.SolutionSlice(L, CosetFunction(grid, [1e-13] + [0] * (len(grid) - 1)))


def test_uniqueness_fails_on_any_nonzero_value(monkeypatch):
    # 1e-13 is under LEAK_TOL, but zero data must stay exactly zero
    monkeypatch.setattr(acceptance, "solve_spectral", _leaky_spectral)
    r = acceptance.check_uniqueness()
    assert not r.passed, r.detail
    assert "1.000e-13" in r.detail


def _reference_ball_sum_1d(ctx, gamma, xi):
    """The 1-dim coset sum with one Fraction phase {xi*x}_p per representative."""
    e = vector_norm_exponent((xi,), ctx.p)
    ell = max(-gamma, 0 if e == NEG_INF else int(e))
    grid = enumerate_cosets(ctx, gamma, ell, 1)
    acc = {}
    for (rep,) in grid.representatives:
        ph = rational_fractional_part(xi * rep, ctx.p)
        acc[ph] = acc.get(ph, Fraction(0)) + 1
    total = PhaseSum(ctx.p, acc).as_rational()
    return None if total is None else total * grid.coset_volume


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ball_sum_matches_the_fraction_phase_reference(p):
    # the frequencies of check_integration_formulas, and xi = 0; the reference
    # sums over p**max(0, gamma + e) cosets, so the largest p=5 sums are left out
    ctx = PrimeContext(p)
    for gamma in range(-3, 4):
        xis = [Fraction(0)] + [
            u * Fraction(p) ** -e
            for e in range(-4, 5)
            if p ** max(0, gamma + e) <= 5**5
            for u in (Fraction(1), Fraction(p + 1))
        ]
        for xi in xis:
            got = acceptance._ball_sum_1d(ctx, gamma, xi)
            assert got == _reference_ball_sum_1d(ctx, gamma, xi)
            assert isinstance(got, Fraction)
