"""One test per top-level acceptance check, each printing its verdict line,
plus the fast ball-sum oracle against its one-Fraction-per-coset reference, and
every failure detail that a patch of one input can reach.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
with their detail strings; the whole file is the release gate.
"""

import math
from fractions import Fraction

import pytest

from padicwave import acceptance, fourier, solver, vladimirov
from padicwave.errors import SpectralCompatibilityError
from padicwave.functions import CosetFunction
from padicwave.lattice import enumerate_cosets, vector_norm_exponent
from padicwave.padic import NEG_INF, PrimeContext, fractional_part
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



# ---------------------------------------------------------------------------
# every failure detail that a patch of one input can reach, as the report prints it


def _returns(value):
    return lambda real: lambda *args, **kwargs: value


def _raises(exc):
    def raiser(*args, **kwargs):
        raise exc

    return lambda real: raiser


def _plus_one(f):
    return CosetFunction(f.grid, [v + 1 for v in f.values])


def _shifted(route, when=lambda *args: True):
    """route, with 1 added to each value of the table or slice it returns when when(*args)."""

    def shifted(*args):
        out = route(*args)
        if not when(*args):
            return out
        if isinstance(out, solver.SolutionSlice):
            return solver.SolutionSlice(out.L, _plus_one(out.field))
        return _plus_one(out)

    return shifted


def _kernel_moved(move):
    """The kernel oracle and the closed form moved alike, each value v read as move(v)."""

    class Moved:
        def __init__(self, kernel):
            self.kernel = kernel

        def value_at_exponent(self, M):
            return move(self.kernel.value_at_exponent(M))

    return [
        (acceptance, "kernel_oracle", lambda real: lambda *args: Moved(real(*args))),
        (acceptance, "kernel_closed_form", lambda real: lambda *a, **k: move(real(*a, **k))),
    ]


FAILURES = [
    pytest.param(
        "check_integration_formulas",
        [(acceptance, "ball_character_integral", _returns(Fraction(-1)))],
        "ball mismatch at p=2 n=1 gamma=-3 xi=16: closed -1, brute 1/8",
        id="ball",
    ),
    pytest.param(
        "check_integration_formulas",
        [(acceptance, "sphere_character_integral", _returns(Fraction(-1)))],
        "sphere mismatch at p=2 n=1 gamma=-3 xi=16: closed -1, brute 1/16",
        id="sphere",
    ),
    pytest.param(
        "check_integration_formulas",
        [(acceptance, "_ball_sum_direct", _returns(None))],
        "factorized sum disagrees with direct 2-dim sum at p=2 gamma=-1 exps=(1, 0)",
        id="factorized",
    ),
    pytest.param(
        "check_fourier_round_trip",
        [(fourier, "inverse", _shifted)],
        "max error 1.000e+00 over 104 tables, 52 exact-path failures",
        id="round-trip",
    ),
    pytest.param(
        "check_fourier_round_trip",
        [(acceptance, "is_in_Psi", lambda real: lambda f: not real(f))],
        "flag errors: zero-mean table p=2 n=1; constant table p=2 n=1; "
        "zero-mean table p=3 n=2; constant table p=3 n=2",
        id="mapping-flags",
    ),
    pytest.param(
        "check_eigenrelation",
        [(vladimirov, "eigen_error", _returns(1.0))],
        "135 (p,K,N,alpha) combos, worst shell-wise relative error 1.000e+00",
        id="eigenrelation",
    ),
    pytest.param(
        "check_operator_duality",
        [(vladimirov, "apply_hypersingular_field", _shifted)],
        "input 0: the routes differ",
        id="routes-differ",
    ),
    pytest.param(
        "check_operator_duality",
        [(vladimirov, "apply_hypersingular_field",
          lambda real: _shifted(real, lambda alpha, f: isinstance(alpha, float)))],
        "52 random zero-mean inputs, max pointwise gap 1.000e+00",
        id="operator-gap",
    ),
    pytest.param(
        "check_kernel_identity",
        _kernel_moved(lambda v: v or 1),
        "case-1a row not zero at p=2 n=1 K=1 L=-6 M=-5",
        id="case-1a",
    ),
    pytest.param(
        "check_kernel_identity",
        _kernel_moved(lambda v: v + 1),
        "case-1b row wrong at p=2 n=1 K=1 L=-6 M=-6",
        id="case-1b",
    ),
    pytest.param(
        "check_solver_duality",
        [(acceptance, "solve_spectral", _shifted)],
        "t = 0 slice differs from the data",
        id="t-zero",
    ),
    pytest.param(
        "check_solver_duality",
        [(acceptance, "solve_spectral",
          lambda real: _shifted(real, lambda prob, L, *rest: L != solver.T_ZERO))],
        "averaging and spectral slices differ at L=-2 on rational data",
        id="averaging-spectral",
    ),
    pytest.param(
        "check_time_pde",
        [(vladimirov, "apply_spectral", _shifted)],
        "5 single-sphere modes, worst relative defect 4.050e+01",
        id="time-pde",
    ),
    pytest.param(
        "check_finite_dependence",
        [(acceptance, "solve_averaging", _shifted)],
        "leak 1.000e+00 outside the ball at p=2 K=1 N=0 (swept (-2, -1))",
        id="leak",
    ),
    pytest.param(
        "check_l1_bound",
        [(acceptance, "l1_bound_check", _returns((2.0, 1.0)))],
        "ratio 2 exceeds bound 1 at L=-2",
        id="l1-bound",
    ),
    pytest.param(
        "check_refusal",
        [(acceptance, "coupling", lambda real: lambda a, b: 2 if a == 0.5 else real(a, b))],
        "integer ratio mis-parsed",
        id="mis-parsed",
    ),
    pytest.param(
        "check_refusal",
        [(acceptance, "coupling", _raises(SpectralCompatibilityError("no")))],
        "diagnostic does not explain the refusal: 'no'",
        id="diagnostic",
    ),
    pytest.param(
        "check_refusal",
        [(acceptance, "coupling", _returns(1))],
        "beta/alpha = 1.5 was not refused",
        id="not-refused",
    ),
]


@pytest.mark.parametrize("check, patches, detail", FAILURES)
def test_each_failure_path_reports_its_detail(check, patches, detail, monkeypatch):
    # each patch is (module, name, make), make(original) being the replacement
    for module, name, make in patches:
        monkeypatch.setattr(module, name, make(getattr(module, name)))
    r = getattr(acceptance, check)()
    assert r.passed is False
    assert r.detail == detail
