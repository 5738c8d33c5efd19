"""Evolution of zero-mean data under the fractional pseudo-differential flow.

The time variable t ranges over Q_p and only |t|_p matters; a time slice is
labeled by the integer L with |t| = p**L, or by ``T_ZERO`` (minus infinity)
for t = 0.  The frequency side is diagonal: a mode on the sphere |xi| = p**N
is carried by the multiplier

    b(L, N) = 1            if L <= -K*N,
            = -1/(p - 1)   if L == -K*N + 1,
            = 0            if L >= -K*N + 2,

where K = beta/alpha is the integer coupling between the temporal and
spatial operator orders (non-integer ratios admit only the zero solution,
and construction refuses them).

The multiplier is radial in xi, and multiplying a transform by the
indicator of the frequency ball B_r is the same as averaging the table over
the cosets x + B_{-r} (the inverse transform of 1_{B_r} is p**(n*r) times
1_{B_{-r}}).  So a slice is a sum of coset averages of the data, and
``solve_averaging``, the production route, builds it (``CosetAverages.radial``)
from one pyramid of block sums in O(N*(M + ell)) additions for N cosets.  Two
independent routes stay as oracles for the verification suite:
``solve_spectral`` damps the exact Fourier transform sphere by sphere and
inverts it, and ``solve_convolution`` convolves the data with the explicit
radial kernel.  All three agree, exactly on rational data.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from operator import mul

from .errors import ConfigError, LizorkinError, SpectralCompatibilityError
from .functions import (
    PHI_TOL,
    RATIONAL,
    CosetAverages,
    CosetFunction,
    RadialShellFunction,
    embed_radial,
    evaluate,
    integrate,
    is_in_Phi,
    l1_norm,
    radial_inverse,
    _over_common_den,
)
from .lattice import digit_valuations, sphere_volume
from .padic import NEG_INF, PrimeContext, order_float

T_ZERO = NEG_INF  # time label for t = 0: |t| = 0, every mode multiplier is 1

DUALITY_TOL = 1e-9  # pass bar of the gap between two operator or solver routes
EIGEN_TOL = 1e-10  # of the relative error of an eigenvalue relation or a Fourier round trip
LEAK_TOL = 1e-12  # of a slice's values outside the ball of its data


def __getattr__(name: str):
    # Only the spectral oracle transforms, so the Fourier layer is imported on
    # first use and ``padicwave solve`` never loads it; ``solver.forward`` and
    # ``solver.inverse`` stay available as module attributes.
    if name in ("forward", "inverse"):
        from . import fourier

        return getattr(fourier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for positive b, in exact integer arithmetic."""
    return -((-a) // b)


def _check_coupling(K) -> None:
    """Refuse a coupling K that is not a positive integer; a bool is refused too."""
    if type(K) is not int or K < 1:
        raise ConfigError(f"the coupling K must be a positive integer, got {K}")


class PropagationMultiplier:
    """The diagonal symbol b(|t|, |xi|) for one coupling constant K; treat as immutable."""

    __slots__ = ("ctx", "K")

    def __init__(self, ctx: PrimeContext, K: int):
        _check_coupling(K)
        self.ctx = ctx
        self.K = K

    def value(self, L, N) -> Fraction:
        """b at |t| = p**L, |xi| = p**N.  L or N may be minus infinity."""
        if N == NEG_INF or L == NEG_INF:
            return Fraction(1)  # zero frequency, or t = 0
        threshold = -self.K * int(N)
        L = int(L)
        if L <= threshold:
            return Fraction(1)
        if L == threshold + 1:
            return Fraction(-1, self.ctx.p - 1)
        return Fraction(0)


def eigenfunction(
    N: int, C, K: int, ctx: PrimeContext, n: int = 1
) -> RadialShellFunction:
    """Radial eigenfunction of the spatial operator with eigenvalue p**(K*alpha*N).

    The inverse transform of C times the indicator of the sphere
    |xi| = p**(K*N): constant C*(1 - p**-n)*p**(K*N*n) on the ball of radius
    p**(-K*N), one negative shell just above it, zero beyond.
    """
    _check_coupling(K)
    return radial_inverse(RadialShellFunction(ctx, 0, (C,), K * N), n)


def eigen_table(N: int, C, K: int, ctx: PrimeContext, n: int, widen: int) -> CosetFunction:
    """The eigenfunction of exponent N tabulated on B_(-K*N + 1 + widen) at
    resolution K*N + widen: the smallest grid that holds it when widen is 0."""
    return embed_radial(eigenfunction(N, C, K, ctx, n), -K * N + 1 + widen, K * N + widen, n)


# ---------------------------------------------------------------------------
# the propagation kernel


def kernel_closed_form(K: int, n: int, L: int, M: int, ctx: PrimeContext,
                       bracket: str = "ceil") -> Fraction:
    """Value of the time-L kernel on the sphere |x| = p**M.

    Piecewise in (L, M); the deep-time branch uses ceil(L/K), and the
    correction term appears only when K divides L - 1.  ``bracket`` exists
    solely so the self-test harness can inject the plausible-but-wrong
    floor variant; leave it at the default.
    """
    if bracket not in ("ceil", "floor"):
        raise ConfigError(f"unknown bracket mode {bracket!r}")
    p = ctx.p
    if L <= K * (M - 1):
        return Fraction(0)
    if L == K * (M - 1) + 1:
        return Fraction(p, p - 1) * Fraction(p) ** (-n * M)
    if L <= K * M:
        return Fraction(p) ** (-n * M)
    if L == K * M + 1:
        return Fraction(p) ** (-n * M) * (Fraction(p) ** (1 - n) - 1) / (p - 1)
    # L >= K*M + 2: below the moving front the value no longer depends on M
    if bracket == "ceil":
        lead = Fraction(p) ** (-n * _ceil_div(L, K))
    else:
        lead = Fraction(p) ** (-n * (L // K))
    if (L - 1) % K == 0:
        lead -= (1 - Fraction(p) ** (-n)) * Fraction(1, p - 1) * Fraction(p) ** (
            -n * ((L - 1) // K)
        )
    return lead


def kernel_oracle(K: int, n: int, L: int, ctx: PrimeContext) -> RadialShellFunction:
    """The time-L kernel as a radial function of x, summed from the multiplier.

    b(L, .) is 1 on the frequency ball |xi| <= p**(-L//K) and takes one more
    value, -1/(p - 1) or 0, on the sphere just above it, so the kernel is the
    closed-form inverse transform of that profile.  It shares no code with
    the closed form above; ``value_at_exponent(M)`` reads it on |x| = p**M.
    """
    b = PropagationMultiplier(ctx, K)
    top = -L // K + 1
    return radial_inverse(RadialShellFunction(ctx, 1, (b.value(L, top),), top), n)


def kernel_ball_integral(
    K: int, n: int, L: int, radius_exp: int, ctx: PrimeContext
) -> Fraction:
    """Integral of the kernel over the ball |x| <= p**radius_exp.

    Needed for the convolution path: the coset containing y = x must
    contribute the kernel's true mass over that coset, not a sampled value
    (the kernel is unbounded near 0 for L < 0 and sampling at the
    representative is simply wrong there).  The closed form does not depend
    on M for M <= (L - 2)//K, so the spheres deep inside the front carry one
    constant value and their infinite sum collapses to it times a ball volume.
    """
    p = ctx.p
    m_const = (L - 2) // K  # kernel constant on spheres with M <= this
    r = radius_exp
    total = Fraction(0)
    deep = min(r, m_const)
    k_inf = kernel_closed_form(K, n, L, m_const, ctx)
    total += k_inf * Fraction(p) ** (n * deep)  # ball of radius p**deep, exactly
    for m in range(deep + 1, r + 1):
        vol = sphere_volume(ctx, n, m)
        total += kernel_closed_form(K, n, L, m, ctx) * vol
    return total


# ---------------------------------------------------------------------------
# the Cauchy problem


def coupling(alpha, beta) -> int:
    """K = beta/alpha from raw operator orders, refusing incompatible pairs.

    The separated modes force the ratio beta/alpha to be a positive
    integer; anything else admits only the zero solution, so we refuse
    loudly instead of computing garbage.
    """
    if not order_float(alpha, "the temporal order") > 0:
        raise ConfigError(f"the temporal order must be positive, got {alpha}")
    order_float(beta, "the spatial order")
    if isinstance(alpha, (int, Fraction)) and isinstance(beta, (int, Fraction)):
        ratio = Fraction(beta) / Fraction(alpha)
        shown, integral = str(ratio), ratio.denominator == 1
    else:
        ratio = float(beta) / float(alpha)
        shown = f"{ratio:.6g}"
        # a tiny alpha can make the ratio overflow to inf, which has no round()
        integral = math.isfinite(ratio) and (
            abs(ratio - round(ratio)) <= 1e-9 * max(1.0, abs(ratio))
        )
    K = round(ratio) if integral else 0
    if K < 1:
        raise SpectralCompatibilityError(
            f"beta/alpha = {shown} is not a positive integer; the "
            "separated modes then all collapse and the problem admits "
            "only the zero solution. Choose beta = K*alpha."
        )
    return K


class WaveProblem:
    """Zero-mean initial data plus the operator orders driving its evolution.

    Treat as immutable; the instance dictionary holds only the cached
    properties below.
    """

    def __init__(self, ctx: PrimeContext, n: int, alpha, K: int, u0: CosetFunction):
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"the dimension n must be a positive integer, got {n}")
        _check_coupling(K)
        if not order_float(alpha, "the temporal order") > 0:
            raise ConfigError(f"the temporal order must be positive, got {alpha}")
        if u0.ctx != ctx or u0.n != n:
            raise ConfigError("initial data lives on a different space")
        if not is_in_Phi(u0):
            raise LizorkinError(
                "initial data must have zero mean: integral = "
                f"{complex(integrate(u0)):.3e}"
            )
        self.ctx = ctx
        self.n = n
        self.alpha = alpha
        self.K = K
        self.u0 = u0

    @property
    def beta(self):
        return self.K * self.alpha

    @cached_property
    def averages(self) -> CosetAverages:
        """The coset averages of the data, built once per problem."""
        return CosetAverages(self.u0)

    @cached_property
    def u0_l1(self):
        """||u0||_1, computed once per problem."""
        return l1_norm(self.u0)


class SolutionSlice:
    """The spatial field at one time magnitude; treat as immutable."""

    __slots__ = ("L", "field")

    def __init__(self, L, field: CosetFunction):
        self.L = L  # int, or T_ZERO
        self.field = field


def solve_averaging(prob: WaveProblem, L) -> SolutionSlice:
    """Slice at |t| = p**L: the data's coset averages weighted by b(L, .) sphere by sphere."""
    if L == T_ZERO:
        return SolutionSlice(L=L, field=prob.u0)
    b = PropagationMultiplier(prob.ctx, prob.K)
    return SolutionSlice(L=L, field=prob.averages.radial(lambda N: b.value(L, N)))


def spectral_data(prob: WaveProblem) -> CosetFunction:
    """Fourier transform of the initial data (compute once, reuse per slice)."""
    from .fourier import forward

    return forward(prob.u0)


def solve_spectral(
    prob: WaveProblem, L, u0_hat: CosetFunction | None = None
) -> SolutionSlice:
    """Slice at |t| = p**L by damping each frequency sphere and inverting (oracle)."""
    from .fourier import inverse, multiply_radial

    if u0_hat is None:
        u0_hat = spectral_data(prob)
    b = PropagationMultiplier(prob.ctx, prob.K)
    return SolutionSlice(L=L, field=inverse(multiply_radial(u0_hat, lambda N: b.value(L, N))))


def solve_convolution(prob: WaveProblem, L) -> SolutionSlice:
    """Slice at |t| = p**L by convolving the data with the radial kernel (oracle).

    Off-diagonal cosets sample the kernel at the representative difference,
    which is exact because the kernel is radial and a coset never straddles
    two spheres.  The diagonal coset (y in the same coset as x) instead
    integrates the kernel over a ball at the grid resolution.  A pair is
    read on integer digit coordinates: |x - y| = p**(M - v), v the least
    valuation of a_j(x) - a_j(y) mod p**W.  A rational table is summed on
    its numerators, any other as complex numbers.
    """
    if L == T_ZERO:
        return SolutionSlice(L=L, field=prob.u0)
    L = int(L)
    f = prob.u0
    K, n, ctx = prob.K, prob.n, prob.ctx
    M, ell = f.support_exp, f.resolution_exp
    width = M + ell
    q = ctx.p**width
    coset_vol = Fraction(ctx.p) ** (-n * ell)
    diag_mass = kernel_ball_integral(K, n, L, -ell, ctx)
    # the pair weight by v; v = W only on the diagonal, whose mass is diag_mass
    weights = [kernel_closed_form(K, n, L, M - v, ctx) * coset_vol for v in range(width)]
    val = digit_valuations(ctx.p, width)
    digits = f.grid.digits
    cols = list(zip(*digits))
    exact = f.kind == RATIONAL
    if exact:
        nums = f.cells
        wden, (diag, *ints) = _over_common_den([diag_mass, *weights, Fraction(0)])
    else:
        cs = f.complex_values()
        floats = [float(w) if w else None for w in weights] + [None]
        fdiag = float(diag_mass)
    values = []
    for i, x in enumerate(digits):
        vs = None
        for a, col in zip(x, cols):
            part = [val[(a - b) % q] for b in col]
            vs = part if vs is None else list(map(min, vs, part))
        if exact:
            values.append(nums[i] * diag + sum(map(mul, nums, map(ints.__getitem__, vs))))
            continue
        acc = cs[i] * fdiag
        for c, v in zip(cs, vs):
            w = floats[v]
            if w is not None:
                acc += c * w
        values.append(acc)
    return SolutionSlice(L=L, field=CosetFunction(f.grid, values, f.den * wden if exact else None))


def auto_time_sweep(prob: WaveProblem) -> range:
    """Every time label where a slice can differ from its neighbors.

    The multiplier changes behavior only at L = -K*N + 1 and -K*N + 2 for
    frequency spheres N actually present in the data, so sweeping
    [-K*N_max - 1, -K*N_min + 2] (one step of slack below) captures every
    transition plus one fully-propagated and one fully-frozen slice.  The
    sphere N is present iff A_N u0 != A_{N-1} u0: exactly for a rational
    table, beyond 1e-12 * max(1, max|u0|) otherwise.
    """
    avg = prob.averages
    tol = 0.0
    if prob.u0.kind != RATIONAL:
        tol = 1e-12 * max(1.0, max(map(abs, prob.u0.complex_values())))
    exps = [
        N
        for N in range(-prob.u0.support_exp + 1, prob.u0.resolution_exp + 1)
        if avg.differs(N, tol)
    ]
    if not exps:
        return range(-prob.K - 1, prob.K + 3)
    lo = -prob.K * max(exps) - 1
    hi = -prob.K * min(exps) + 2
    return range(lo, hi + 1)


def l1_bound_check(prob: WaveProblem, field: CosetFunction) -> tuple[float, float]:
    """The growth ||u(t)||_1 / ||u0||_1 of one slice ``field``, and its bound.

    Every slice must satisfy ||u(t)||_1 <= p**(2*n*gamma) * ||u0||_1 with
    gamma = max(1, ceil(2/K)).  The kernel's L1 mass on any slice is bounded
    by a constant depending only on (p, n, K); this is the crude but
    universal version of that bound.
    """
    gamma = max(1, _ceil_div(2, prob.K))
    bound = float(prob.ctx.p) ** (2 * prob.n * gamma)
    base_f, grown_f = float(prob.u0_l1), float(l1_norm(field))
    if base_f == 0.0:
        return (0.0 if grown_f == 0.0 else math.inf), bound
    return grown_f / base_f, bound


def time_profile(prob: WaveProblem, x) -> RadialShellFunction:
    """u(t, x) as a radial function of t, for fixed x.

    Below the sweep window every multiplier equals 1, so the profile's core
    is u0(x); above it every mode present in the data is dead.  The result
    is checked to have zero mean in t (with the 1-dimensional measure),
    which is the time-side Lizorkin property the duality argument needs.
    """
    sweep = auto_time_sweep(prob)
    core = evaluate(prob.u0, x)
    shells = [evaluate(solve_averaging(prob, L).field, x) for L in sweep]
    profile = RadialShellFunction(
        ctx=prob.ctx, core_value=core, shells=tuple(shells), shell_lo=sweep.start
    ).normalize()
    total = profile.integrate(1)
    if profile.exact:
        bad = total != 0
    else:
        bad = abs(total) > PHI_TOL * max(1.0, float(profile.l1_norm(1)))
    if bad:
        raise LizorkinError(
            f"time profile at x = {x} fails the zero-mean check: integral = "
            f"{complex(total):.3e}"
        )
    return profile
