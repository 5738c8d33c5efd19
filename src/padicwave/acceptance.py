"""One-shot verification suite.

Each check function exercises one advertised guarantee of the package at
desk scale and returns a CheckResult.  A check names itself once, with
``@_check(name)``; its body returns the detail line of a pass, or raises
``_Failed`` with the detail of its first failing case.  ``run_all`` runs the
lot in a fixed order with a fixed seed so the suite is deterministic.  The
checks lean on independent computations (direct coset sums, the kernel
summed from the multiplier, two operator forms, two solver routes) rather
than re-evaluating the code under test, so a passing run means the closed
forms agree with brute force everywhere sampled.

``run_all(bracket="floor")`` exists for mutation testing: it threads the
deliberately wrong bracket variant into the kernel closed form and must
make the kernel check fail.

The transform, cyclotomic and operator layers are imported by the checks
that use them, so a process that runs one other check never compiles them.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import compress

from .errors import SpectralCompatibilityError
from .functions import (
    COMPLEX,
    CosetFunction,
    ball_indicator,
    embed_radial,
    equal_exact,
    is_in_Phi,
    is_in_Psi,
    max_abs_diff,
    nan_max,
    regrid,
)
from .lattice import (
    ball_character_integral,
    enumerate_cosets,
    sphere_character_integral,
    vector_norm_exponent,
)
from .padic import NEG_INF, PrimeContext, fractional_part
from .solver import (
    DUALITY_TOL,
    EIGEN_TOL,
    LEAK_TOL,
    T_ZERO,
    WaveProblem,
    auto_time_sweep,
    coupling,
    eigen_table,
    kernel_closed_form,
    kernel_oracle,
    l1_bound_check,
    solve_averaging,
    solve_convolution,
    solve_spectral,
    spectral_data,
    time_profile,
)

DEFAULT_SEED = 20260819


class CheckResult:
    """Outcome of one check; treat as immutable."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail


class _Failed(Exception):
    """A check's first failing case; its argument is the report detail."""


def _check(name: str):
    """Declare a check by its report name: the body's detail becomes a passing
    CheckResult, and a raised ``_Failed`` a failing one."""

    def declare(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            try:
                passed, detail = True, body(*args, **kwargs)
            except _Failed as failed:
                passed, detail = False, str(failed)
            return CheckResult(name, passed, detail)

        return check

    return declare


def _within(worst: float, tol: float, detail: str) -> str:
    """detail, raised as a failure unless worst <= tol (which a nan fails)."""
    if not worst <= tol:
        raise _Failed(detail)
    return detail


# ---------------------------------------------------------------------------
# brute-force helpers, deliberately naive


def _ball_sum_1d(ctx: PrimeContext, gamma: int, xi: Fraction):
    """Direct coset sum of chi(xi*x) over the 1-dim ball |x| <= p**gamma.

    Resolution is chosen fine enough that the character is constant on each
    coset; the sum is then exact by construction.  The representatives are
    x = a * p**-gamma for integers a in [0, p**W), W = gamma + ell, so the
    phase {xi*x}_p is a * {xi * p**-gamma}_p mod 1: with that step written
    s / Q, coset a contributes exp(2*pi*i * (a*s mod Q) / Q).  Returns a
    Fraction (the closed forms are rational, so a sum that fails to reduce
    is a failure).
    """
    from .phases import rational_value

    p = ctx.p
    e = vector_norm_exponent((xi,), ctx)
    ell = max(-gamma, 0 if e == NEG_INF else int(e))
    step = fractional_part(xi * Fraction(p) ** -gamma, ctx)
    big_q, s = step.denominator, step.numerator
    acc: dict[int, int] = {}
    for a in range(p ** (gamma + ell)):
        k = a * s % big_q
        acc[k] = acc.get(k, 0) + 1
    total = rational_value(acc, big_q, p)
    if total is None:
        return None
    return total * Fraction(p) ** -ell


def _ball_sum(ctx: PrimeContext, gamma: int, xi_vec, sums: dict) -> Fraction | None:
    """n-dim direct sum, organized coordinate by coordinate.

    The character of a dot product splits as a product of one-dimensional
    characters, so the coset sum over the product grid factors exactly into
    the per-coordinate sums.  Each factor is still a brute-force sum, made
    once per (p, gamma, xi) and kept in sums.
    """
    total = Fraction(1)
    for c in xi_vec:
        key = (ctx.p, gamma, c)
        if key not in sums:
            sums[key] = _ball_sum_1d(ctx, gamma, c)
        if sums[key] is None:
            return None
        total *= sums[key]
    return total


def _ball_sum_direct(ctx: PrimeContext, n: int, gamma: int, xi_vec):
    """Fully naive n-dim sum (no factorization); small cases only."""
    from .phases import PhaseSum

    e = vector_norm_exponent(tuple(xi_vec), ctx)
    ell = max(-gamma, 0 if e == NEG_INF else int(e))
    grid = enumerate_cosets(ctx, gamma, ell, n)
    acc: dict[Fraction, Fraction] = {}
    for rep in grid.representatives:
        ph = Fraction(0)
        for c, r in zip(xi_vec, rep):
            ph = (ph + fractional_part(c * r, ctx)) % 1
        acc[ph] = acc.get(ph, Fraction(0)) + 1
    q = max(ph.denominator for ph in acc)  # the phases' denominators are powers of p
    total = PhaseSum(ctx.p, q, {ph.numerator * (q // ph.denominator): c for ph, c in acc.items()})
    total = total.as_rational()
    if total is None:
        return None
    return total * grid.coset_volume


def _random_table(rng: random.Random, ctx, n, M, ell, exact: bool) -> CosetFunction:
    grid = enumerate_cosets(ctx, M, ell, n)
    values = []
    for _ in range(len(grid)):
        if exact:
            values.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        else:
            values.append(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return CosetFunction(grid, values)


def _zero_mean(f: CosetFunction) -> CosetFunction:
    """Project a rational table onto the zero-mean class, exactly."""
    total = sum(f.values, Fraction(0))
    shift = total / len(f.grid)
    return CosetFunction(f.grid, [v - shift for v in f.values])


# ---------------------------------------------------------------------------
# the eleven checks


@_check("integration-formulas")
def check_integration_formulas() -> str:
    """Ball and sphere character integrals vs direct coset sums, exactly."""
    sums = {}  # (p, gamma, xi) -> its 1-dim sum, made once for all the factors that share it
    cases = 0
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        units = (Fraction(1), Fraction(p + 1))
        for gamma in range(-3, 4):
            for e in range(-4, 5):
                for u in units:
                    xi = u * Fraction(p) ** (-e)
                    for n in (1, 2):
                        vec = (xi,) + (Fraction(0),) * (n - 1)
                        want_ball = ball_character_integral(ctx, n, gamma, vec)
                        got_ball = _ball_sum(ctx, gamma, vec, sums)
                        if got_ball != want_ball:
                            raise _Failed(
                                f"ball mismatch at p={p} n={n} gamma={gamma} "
                                f"xi={xi}: closed {want_ball}, brute {got_ball}"
                            )
                        want_sph = sphere_character_integral(ctx, n, gamma, vec)
                        got_sph = got_ball - _ball_sum(ctx, gamma - 1, vec, sums)
                        if got_sph != want_sph:
                            raise _Failed(
                                f"sphere mismatch at p={p} n={n} gamma={gamma} "
                                f"xi={xi}: closed {want_sph}, brute {got_sph}"
                            )
                        cases += 2
    # validate the coordinate factorization itself on genuinely 2-dim sums
    for p in (2, 3):
        ctx = PrimeContext(p)
        for gamma in (-1, 0, 1):
            for exps in ((1, 0), (2, 1), (0, -1)):
                vec = tuple(Fraction(p) ** (-e) for e in exps)
                direct = _ball_sum_direct(ctx, 2, gamma, vec)
                split = _ball_sum(ctx, gamma, vec, sums)
                if direct != split:
                    raise _Failed(
                        f"factorized sum disagrees with direct 2-dim sum at "
                        f"p={p} gamma={gamma} exps={exps}"
                    )
                cases += 1
    return f"{cases} exact rational identities"


@_check("fourier-round-trip")
def check_fourier_round_trip(seed: int = DEFAULT_SEED) -> str:
    """inverse(forward(f)) = f on random tables; zero-mean/zero-at-origin flags."""
    from .fourier import forward, inverse

    rng = random.Random(seed)
    shapes = [
        (2, 1, 0, 2), (2, 1, 1, 1), (2, 2, 1, 1), (3, 1, 0, 1),
        (3, 1, 1, 1), (3, 2, 0, 1), (5, 1, 0, 1), (5, 1, 1, 0),
    ]
    gaps = []
    exact_failures = 0
    for i in range(104):
        p, n, M, ell = shapes[i % len(shapes)]
        ctx = PrimeContext(p)
        exact = i % 2 == 0
        f = _random_table(rng, ctx, n, M, ell, exact)
        g = inverse(forward(f))
        if exact and not equal_exact(f, g):
            exact_failures += 1
        gaps.append(max_abs_diff(f, g))
    worst, count = nan_max(gaps), len(gaps)
    if exact_failures or not worst <= EIGEN_TOL:
        raise _Failed(
            f"max error {worst:.3e} over {count} tables, "
            f"{exact_failures} exact-path failures"
        )
    # mapping flags: zero mean <-> transform vanishing at the origin
    flag_fail = []
    for p, n in ((2, 1), (3, 2)):
        ctx = PrimeContext(p)
        f = _zero_mean(_random_table(random.Random(seed + p + n), ctx, n, 1, 1, True))
        if not (is_in_Phi(f) and is_in_Psi(forward(f))):
            flag_fail.append(f"zero-mean table p={p} n={n}")
        grid = enumerate_cosets(ctx, 1, 1, n)
        one = CosetFunction(grid, [Fraction(1)] * len(grid))
        if is_in_Phi(one) or is_in_Psi(forward(one)):
            flag_fail.append(f"constant table p={p} n={n}")
    if flag_fail:
        raise _Failed("flag errors: " + "; ".join(flag_fail))
    return f"{count} round trips, max error {worst:.3e}, mapping flags correct"


@_check("eigenrelation")
def check_eigenrelation() -> str:
    """Both operator forms reproduce the eigenvalue on the canonical family."""
    from .vladimirov import eigen_error

    errors = []
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for K in (1, 2, 3):
            for N in range(-2, 3):
                f = eigen_table(N, Fraction(1), K, ctx, 1, 0)
                for alpha in (Fraction(1, 2), 1, 2):
                    errors.append(eigen_error(alpha, f, K * N))
    combos, worst = len(errors), nan_max(errors)
    return _within(
        worst, EIGEN_TOL,
        f"{combos} (p,K,N,alpha) combos, worst shell-wise relative error {worst:.3e}",
    )


@_check("operator-duality")
def check_operator_duality(seed: int = DEFAULT_SEED) -> str:
    """Averaging, Fourier and hypersingular forms agree on zero-mean tables; exact if rational."""
    from .fourier import forward, inverse, multiply_radial
    from .vladimirov import apply_hypersingular_field, apply_spectral, symbol

    rng = random.Random(seed + 1)
    shapes = [(2, 1, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1), (3, 1, 0, 2), (5, 1, 1, 1)]
    alphas = (1, 2, Fraction(1, 2), 1.5)
    gaps = []
    count = 0
    for i in range(52):
        p, n, M, ell = shapes[i % len(shapes)]
        ctx = PrimeContext(p)
        f = _zero_mean(_random_table(rng, ctx, n, M, ell, True))
        alpha = alphas[i % len(alphas)]
        spect = apply_spectral(alpha, f)
        for g in (inverse(multiply_radial(forward(f), symbol(p, alpha))),
                  apply_hypersingular_field(alpha, f)):
            if spect.kind != COMPLEX and not equal_exact(spect, g):
                raise _Failed(f"input {i}: the routes differ")
            gaps.append(max_abs_diff(spect, g))
        count += 1
    worst = nan_max(gaps)
    return _within(
        worst, DUALITY_TOL, f"{count} random zero-mean inputs, max pointwise gap {worst:.3e}"
    )


@_check("kernel-identity")
def check_kernel_identity(bracket: str = "ceil") -> str:
    """Closed-form kernel vs the inverse transform of the multiplier, exact rationals."""
    checked = case_1a = case_1b = 0
    for p in (2, 3):
        ctx = PrimeContext(p)
        for n in (1, 2):
            for K in (1, 2, 3):
                for L in range(-6, 7):
                    kernel = kernel_oracle(K, n, L, ctx)
                    for M in range(-6, 7):
                        got = kernel_closed_form(K, n, L, M, ctx, bracket=bracket)
                        want = kernel.value_at_exponent(M)
                        if got != want:
                            raise _Failed(
                                f"kernel-oracle mismatch at p={p} n={n} K={K} "
                                f"L={L} M={M}: closed {got}, oracle {want}"
                            )
                        if L <= K * (M - 1):
                            case_1a += 1
                            if want != 0:
                                raise _Failed(
                                    f"case-1a row not zero at p={p} n={n} K={K} L={L} M={M}"
                                )
                        elif L == K * (M - 1) + 1:
                            case_1b += 1
                            if want != Fraction(p, p - 1) * Fraction(p) ** (-n * M):
                                raise _Failed(
                                    f"case-1b row wrong at p={p} n={n} K={K} L={L} M={M}"
                                )
                        checked += 1
    return f"{checked} exact identities ({case_1a} case-1a zeros, {case_1b} case-1b rows)"


def _duality_problems(seed: int = DEFAULT_SEED):
    rng = random.Random(seed + 2)
    ctx2, ctx3 = PrimeContext(2), PrimeContext(3)
    return [
        WaveProblem(ctx=ctx2, n=1, alpha=1, K=1, u0=eigen_table(1, Fraction(1), 1, ctx2, 1, 1)),
        WaveProblem(ctx=ctx3, n=1, alpha=Fraction(1, 2), K=2, u0=eigen_table(0, Fraction(2), 2, ctx3, 1, 1)),
        WaveProblem(ctx=ctx2, n=2, alpha=1, K=2, u0=_zero_mean(_random_table(rng, ctx2, 2, 1, 1, True))),
        WaveProblem(ctx=ctx3, n=1, alpha=2, K=3, u0=_zero_mean(_random_table(rng, ctx3, 1, 1, 1, True))),
    ]


@_check("solver-duality")
def check_solver_duality(seed: int = DEFAULT_SEED) -> str:
    """The three solver routes agree; t = 0 returns the data exactly.

    Averaging must equal the spectral route exactly on rational data, and
    the convolution route to within DUALITY_TOL.
    """
    gaps = []
    slices = 0
    for prob in _duality_problems(seed):
        u0_hat = spectral_data(prob)
        zero_slices = (
            solve_averaging(prob, T_ZERO),
            solve_spectral(prob, T_ZERO, u0_hat),
            solve_convolution(prob, T_ZERO),
        )
        if not all(equal_exact(sl.field, prob.u0) for sl in zero_slices):
            raise _Failed("t = 0 slice differs from the data")
        exact = prob.u0.kind != COMPLEX
        for L in auto_time_sweep(prob):
            a = solve_averaging(prob, L).field
            s = solve_spectral(prob, L, u0_hat).field
            if exact and not equal_exact(a, s):
                raise _Failed(f"averaging and spectral slices differ at L={L} on rational data")
            gaps.append(max_abs_diff(a, s))
            gaps.append(max_abs_diff(a, solve_convolution(prob, L).field))
            slices += 1
    worst = nan_max(gaps)
    return _within(
        worst, DUALITY_TOL,
        f"{slices} slices on three routes (averaging, spectral, convolution), "
        f"averaging = spectral exactly on rational data, max gap {worst:.3e}; t=0 exact",
    )


@_check("time-pde")
def check_time_pde() -> str:
    """The time profile of a single-sphere mode is an eigenfunction in t.

    With spectral data on the sphere |xi| = p**N, the temporal operator of
    order alpha acting on t -> u(t, x) must multiply it by p**(K*alpha*N).
    """
    from .vladimirov import apply_spectral, power_of_p

    errors = []
    combos = 0
    for p, K, N, alpha in (
        (2, 1, 1, 1),
        (2, 2, 1, Fraction(1, 2)),
        (3, 1, 0, 2),
        (3, 2, -1, 1),
        (5, 1, 1, Fraction(1, 2)),
    ):
        ctx = PrimeContext(p)
        u0 = eigen_table(N, Fraction(1), 1, ctx, 1, 0)  # transform = sphere-N indicator
        prob = WaveProblem(ctx=ctx, n=1, alpha=alpha, K=K, u0=u0)
        x = next(rep for rep, v in u0.items() if v != 0)
        profile = time_profile(prob, x)
        lo, hi = profile.shell_lo, profile.shell_hi
        table = embed_radial(profile, hi, 1 - lo, 1)
        applied = apply_spectral(alpha, table)
        lam = power_of_p(p, alpha, K * N)
        lam_c = complex(float(lam), 0.0) if isinstance(lam, Fraction) else complex(lam)
        scale_ref = max(map(abs, table.complex_values()), default=1.0)
        for v, w in zip(applied.complex_values(), table.complex_values()):
            err = abs(v - w * lam_c)
            errors.append(err / max(abs(lam_c) * scale_ref, 1e-30))
        combos += 1
    worst = nan_max(errors)
    return _within(
        worst, EIGEN_TOL, f"{combos} single-sphere modes, worst relative defect {worst:.3e}"
    )


@_check("finite-dependence")
def check_finite_dependence() -> str:
    """Data in a ball stays in the ball for every early-enough slice.

    Zero-mean data in |x| <= p**N makes the kernel tail outside that ball
    integrate to zero, so every slice up to L = K*(N - 1) is again supported
    in it.  The data sits on a grid two support exponents wider, so there
    is room outside the ball to observe a leak if one existed.
    """
    worst = 0.0
    combos = 0
    for p in (2, 3):
        ctx = PrimeContext(p)
        for K in (1, 2):
            for N in (0, 1, 2):
                f = regrid(_zero_mean(ball_indicator(ctx, 1, N - 1, N, 1 - N)), N + 2, 1 - N)
                prob = WaveProblem(ctx=ctx, n=1, alpha=1, K=K, u0=f)
                top = K * (N - 1)
                swept = sorted({L for L in auto_time_sweep(prob) if L <= top} | {top, top - 1})
                outside = [e > N for e in f.grid.norm_exponents]  # the origin's is -inf
                leak = nan_max(
                    abs(c)
                    for L in swept
                    for c in compress(solve_averaging(prob, L).field.complex_values(), outside)
                )
                worst = max(worst, leak)
                if not leak <= LEAK_TOL:
                    raise _Failed(
                        f"leak {leak:.3e} outside the ball at "
                        f"p={p} K={K} N={N} (swept {tuple(swept)})"
                    )
                combos += 1
    return f"{combos} (p,K,N) combos confined, max leak {worst:.3e}"


@_check("l1-bound")
def check_l1_bound(seed: int = DEFAULT_SEED) -> str:
    """Every swept slice respects the universal L1 growth bound."""
    worst_ratio = 0.0
    slices = 0
    for prob in _duality_problems(seed):
        for L in auto_time_sweep(prob):
            ratio, bound = l1_bound_check(prob, solve_averaging(prob, L).field)
            worst_ratio = max(worst_ratio, ratio)
            if not ratio <= bound * (1 + 1e-12):
                raise _Failed(f"ratio {ratio:.6g} exceeds bound {bound:.6g} at L={L}")
            slices += 1
    return f"{slices} slices, observed max ratio {worst_ratio:.6g}"


@_check("uniqueness")
def check_uniqueness() -> str:
    """Zero data stays zero along all three solver routes."""
    routes = (solve_averaging, solve_spectral, solve_convolution)
    for p, n in ((2, 1), (3, 1), (2, 2)):
        ctx = PrimeContext(p)
        grid = enumerate_cosets(ctx, 1, 1, n)
        zero = CosetFunction(grid, [Fraction(0)] * len(grid))
        prob = WaveProblem(ctx=ctx, n=n, alpha=1, K=1, u0=zero)
        values = [
            v for L in (-3, -1, 0, 1, 2) for route in routes for v in route(prob, L).field.values
        ]
        if any(v != 0 for v in values):
            worst = nan_max(abs(complex(v)) for v in values)
            raise _Failed(f"zero data grew to {worst:.3e}")
    return "zero data stays exactly zero on all three routes"


@_check("refusal-path")
def check_refusal() -> str:
    """Incompatible operator orders are rejected with the right diagnostic."""
    ctx = PrimeContext(3)
    u0 = eigen_table(0, Fraction(1), 1, ctx, 1, 0)
    try:
        WaveProblem(ctx=ctx, n=1, alpha=1.0, K=coupling(1.0, 1.5), u0=u0)
    except SpectralCompatibilityError as exc:
        msg = str(exc)
    else:
        raise _Failed("beta/alpha = 1.5 was not refused")
    if not ("zero" in msg and "1.5" in msg):
        raise _Failed(f"diagnostic does not explain the refusal: {msg!r}")
    if WaveProblem(ctx=ctx, n=1, alpha=0.5, K=coupling(0.5, 1.5), u0=u0).K != 3:
        raise _Failed("integer ratio mis-parsed")
    return "non-integer ratio refused, integer ratio accepted"


def run_all(bracket: str = "ceil", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [
        check_integration_formulas(),
        check_fourier_round_trip(seed),
        check_eigenrelation(),
        check_operator_duality(seed),
        check_kernel_identity(bracket),
        check_solver_duality(seed),
        check_time_pde(),
        check_finite_dependence(),
        check_l1_bound(seed),
        check_uniqueness(),
        check_refusal(),
    ]
