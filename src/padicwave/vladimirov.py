"""The Vladimirov-Taibleson fractional operator of order alpha on Q_p^n.

Two independent routes compute the same thing:

* spectral: conjugate the multiplier |xi|_p**alpha by the Fourier transform
  (requires the input to have zero mean, so the multiplier is harmless at
  the origin);
* hypersingular: the normalized difference integral
  prefactor * integral of |y|**(-alpha-n) * (f(x-y) - f(x)) dy with
  prefactor (1 - p**alpha) / (1 - p**(-alpha-n)), evaluated shell by shell
  with the infinite outer tail summed as an exact geometric series.

Keeping both honest against each other is the main correctness story for
everything built on top.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul

from .errors import ConfigError, LizorkinError
from .fourier import forward, inverse
from .functions import PHI_TOL, CosetFunction, integrate, is_in_Phi
from .lattice import (
    as_fraction_vector,
    digit_valuations,
    enumerate_cosets,
    vector_norm_exponent,
)
from .padic import NEG_INF, PrimeContext, order_float
from .phases import value_scale, value_to_complex


def _integral_order(alpha) -> int | None:
    """int(alpha) when alpha is a whole number, else None."""
    if isinstance(alpha, int):
        return alpha
    if isinstance(alpha, Fraction) and alpha.denominator == 1:
        return int(alpha)
    if isinstance(alpha, float) and alpha.is_integer():
        return int(alpha)
    return None


class OperatorParams:
    """Order and ambient dimension of one fractional operator instance; treat as immutable."""

    __slots__ = ("ctx", "n", "alpha")

    def __init__(self, ctx: PrimeContext, n: int, alpha):
        if n < 1:
            raise ConfigError(f"dimension must be >= 1, got {n}")
        if not order_float(alpha, "the operator order") > 0:
            raise ConfigError(f"the operator order must be positive, got {alpha}")
        self.ctx = ctx
        self.n = n
        self.alpha = alpha  # positive int, Fraction, or float

    def power_of_p(self, exponent_times_alpha):
        """p**(k*alpha) exactly when alpha is integral, as float otherwise."""
        a = _integral_order(self.alpha)
        k = exponent_times_alpha
        if a is not None:
            return Fraction(self.ctx.p) ** (k * a)
        return float(self.ctx.p) ** (k * float(self.alpha))

    def prefactor(self):
        """(1 - p**alpha) / (1 - p**(-alpha-n)), exact when alpha is integral."""
        p, n = self.ctx.p, self.n
        a = _integral_order(self.alpha)
        if a is not None:
            return (1 - Fraction(p) ** a) / (1 - Fraction(p) ** (-a - n))
        af = float(self.alpha)
        return (1.0 - float(p) ** af) / (1.0 - float(p) ** (-af - n))


def apply_spectral(
    params: OperatorParams, f: CosetFunction, phi_tol: float = PHI_TOL
) -> CosetFunction:
    """Multiply the transform by |xi|**alpha and come back.

    The input must have zero mean (Lizorkin condition); otherwise the
    operator has no consistent spectral meaning on tables and this raises
    LizorkinError.
    """
    if f.ctx != params.ctx or f.n != params.n:
        raise ConfigError("operator and function live on different spaces")
    if not is_in_Phi(f, phi_tol):
        raise LizorkinError(
            f"input is not in the zero-mean (Lizorkin) class: integral = "
            f"{value_to_complex(integrate(f)):.3e} exceeds tol {phi_tol:g}"
        )
    g = forward(f)
    values = []
    for rep, v in g.items():
        e = vector_norm_exponent(rep, params.ctx.p)
        if e == NEG_INF:
            values.append(Fraction(0))  # |0|**alpha = 0 kills the origin coset
        else:
            values.append(value_scale(v, params.power_of_p(int(e))))
    return inverse(CosetFunction(g.grid, values))


def _hypersingular(params: OperatorParams, f: CosetFunction, background, top: int):
    """The hypersingular form at points of B_top, top >= f.support_exp.

    Returns the grid of B_top at f's resolution, and the form as a function
    of a point's digit coordinates X_j = x_j * p**top in that grid.  The
    per-table work is done here once: f extended by the background to that
    grid, its spheres (in ``sphere_representatives`` order, which the grid
    order keeps), and the shell and tail weights.  For a sphere point y,
    x - y has the digit coordinates (X_j - Y_j) mod p**(top + ell); the
    extended table is laid out by those coordinates, read as base-p**(top
    + ell) digits, so the cell of x - y is plain integer arithmetic.
    """
    if f.ctx != params.ctx or f.n != params.n:
        raise ConfigError("operator and function live on different spaces")
    p, n = params.ctx.p, params.n
    M, ell = f.support_exp, f.resolution_exp
    background = Fraction(background) if isinstance(background, int) else background
    big = enumerate_cosets(params.ctx, top, ell, n)
    q = p ** (top + ell)
    val = digit_valuations(p, top + ell)
    place = [q ** (n - 1 - j) for j in range(n)]
    # f on B_top, plus one last cell holding the background for the outer tail
    ext = [background] * (len(big) + 1)
    step = p ** (top - M)
    for a, v in zip(f.grid.digits, f.values):
        ext[sum(map(mul, place, a)) * step] = v
    spheres = {g: [] for g in range(-ell + 1, top + 1)}
    for y in big.digits:
        g = top - min(map(val.__getitem__, y))
        if g > -ell:  # the origin coset adds nothing by local constancy
            spheres[g].append(y)
    spheres = {g: tuple(zip(*ys)) for g, ys in spheres.items()}

    # |y|**(-alpha-n) on each shell times the coset volume, and the outer
    # tail past each possible top shell G, where every y sees the background
    coset_vol = Fraction(p) ** (-n * ell)
    pref = params.prefactor()
    shell_w, tail_w = {}, {}
    for g in spheres:
        w = params.power_of_p(-g)
        if isinstance(w, Fraction):
            shell_w[g] = w * Fraction(p) ** (-g * n) * coset_vol
        else:
            shell_w[g] = w * float(p) ** (-g * n) * float(coset_vol)
    for G in range(M, top + 1):
        a = params.power_of_p(-(G + 1))
        if isinstance(a, Fraction):
            tail_w[G] = (1 - Fraction(p) ** (-n)) * (a / (1 - params.power_of_p(-1)))
        else:
            tail_w[G] = (1.0 - float(p) ** (-n)) * (a / (1.0 - params.power_of_p(-1)))

    def terms(X, shell_w, tail_w):
        """x's cell, and (weight, cells of x - y) per shell up to x's top shell, then the tail."""
        G = max(M, top - min(map(val.__getitem__, X)))
        out = []
        for g in range(-ell + 1, G + 1):
            idx = None
            for s, x, col in zip(place, X, spheres[g]):
                part = [(x - y) % q * s for y in col]
                idx = part if idx is None else list(map(add, idx, part))
            out.append((shell_w[g], idx))
        out.append((tail_w[G], [len(big)]))
        return sum(map(mul, place, X)), out

    exact = isinstance(pref, Fraction)
    rational = isinstance(background, Fraction) and all(isinstance(v, Fraction) for v in f.values)
    if rational:  # integer numerators over one common denominator
        den = math.lcm(background.denominator, *(v.denominator for v in f.values))
        nums = [v.numerator * (den // v.denominator) for v in ext]
    if rational and exact:
        # the weights times the prefactor, as integers over one denominator
        shell_w = {g: w * pref for g, w in shell_w.items()}
        tail_w = {G: w * pref for G, w in tail_w.items()}
        wden = math.lcm(*(w.denominator for w in (*shell_w.values(), *tail_w.values())))
        shell_n = {g: w.numerator * (wden // w.denominator) for g, w in shell_w.items()}
        tail_n = {G: w.numerator * (wden // w.denominator) for G, w in tail_w.items()}

        def at(X):
            ix, shells = terms(X, shell_n, tail_n)
            total = sum(w * (sum(map(nums.__getitem__, idx)) - len(idx) * nums[ix])
                        for w, idx in shells)
            return Fraction(total, den * wden)

        return big, at

    if rational:  # float weights: each exact difference rounds once, as value_scale does
        def diffs(ix, idx):
            return [complex((nums[i] - nums[ix]) / den) for i in idx]
    else:
        cext = [value_to_complex(v) for v in ext]

        def diffs(ix, idx):
            neg = value_to_complex(value_scale(ext[ix], -1))
            return [cext[i] + neg for i in idx]

    scalar = float if exact else complex

    def at(X):
        ix, shells = terms(X, shell_w, tail_w)
        acc = 0j
        for w, idx in shells:
            w = scalar(w)
            for d in diffs(ix, idx):
                acc += d * w
        return acc * scalar(pref)

    return big, at


def apply_hypersingular(
    params: OperatorParams, f: CosetFunction, x, background=Fraction(0)
):
    """Pointwise hypersingular form at x.

    ``f`` models a bounded locally constant function: the table inside its
    support ball and the constant ``background`` outside (0 for compactly
    supported data).  Shells at or below the resolution contribute nothing
    by local constancy; shells past max(support, |x|) see only the
    background and sum to an exact geometric tail.  A rational table with
    an integral order gives a Fraction, summed as integers over one common
    denominator; anything else gives a complex number.
    """
    vec = as_fraction_vector(x, params.n)
    e_x = vector_norm_exponent(vec, params.ctx.p)
    top = f.support_exp if e_x == NEG_INF else max(f.support_exp, int(e_x))
    grid, at = _hypersingular(params, f, background, top)
    return at(grid.digits[grid.position(vec)])


def apply_hypersingular_field(
    params: OperatorParams,
    f: CosetFunction,
    support_exp: int | None = None,
    background=Fraction(0),
) -> CosetFunction:
    """Tabulate the hypersingular form on a grid.

    The result keeps f's resolution; pass a larger support exponent to see
    the decay outside the support of f (the operator does not preserve
    compact support unless f has zero mean).
    """
    M = f.support_exp if support_exp is None else support_exp
    if M < f.support_exp:
        raise ConfigError("output support cannot be smaller than the input's")
    grid, at = _hypersingular(params, f, background, M)
    return CosetFunction(grid, [at(X) for X in grid.digits])
