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

from fractions import Fraction

from .errors import ConfigError, LizorkinError
from .fourier import forward, inverse
from .functions import PHI_TOL, CosetFunction, integrate, is_in_Phi
from .lattice import (
    as_fraction_vector,
    enumerate_cosets,
    sphere_representatives,
    vector_norm_exponent,
)
from .padic import NEG_INF, PrimeContext
from .phases import reduce_value, value_add, value_scale, value_to_complex


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
        if not float(alpha) > 0:
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


def _evaluate_extended(f: CosetFunction, vec, background):
    """Table value inside the support ball, the background constant outside."""
    i = f.grid.position(vec)
    return background if i is None else f.values[i]


def apply_hypersingular(
    params: OperatorParams, f: CosetFunction, x, background=Fraction(0)
):
    """Pointwise hypersingular form at x.

    ``f`` models a bounded locally constant function: the table inside its
    support ball and the constant ``background`` outside (0 for compactly
    supported data).  Shells at or below the resolution contribute nothing
    by local constancy; shells past max(support, |x|) see only the
    background and sum to an exact geometric tail.
    """
    if f.ctx != params.ctx or f.n != params.n:
        raise ConfigError("operator and function live on different spaces")
    ctx, n = params.ctx, params.n
    p = ctx.p
    background = Fraction(background) if isinstance(background, int) else background
    vec = as_fraction_vector(x, n)
    e_x = vector_norm_exponent(vec, p)
    gamma_top = f.support_exp if e_x == NEG_INF else max(f.support_exp, int(e_x))
    ell = f.resolution_exp
    fx = _evaluate_extended(f, vec, background)
    coset_vol = Fraction(p) ** (-n * ell)

    total = Fraction(0)
    for gamma in range(-ell + 1, gamma_top + 1):
        # |y|**(-alpha-n) on the shell, times the coset volume
        shell_w = params.power_of_p(-gamma)
        if isinstance(shell_w, Fraction):
            shell_w = shell_w * Fraction(p) ** (-gamma * n) * coset_vol
        else:
            shell_w = shell_w * float(p) ** (-gamma * n) * float(coset_vol)
        for yrep in sphere_representatives(ctx, gamma, ell, n):
            fy = _evaluate_extended(
                f, tuple(a - b for a, b in zip(vec, yrep)), background
            )
            diff = value_add(fy, value_scale(fx, -1))
            total = value_add(total, value_scale(diff, shell_w))

    # outer tail: every y there sees the background
    a = params.power_of_p(-(gamma_top + 1))
    if isinstance(a, Fraction):
        tail_sum = a / (1 - params.power_of_p(-1))
        tail_w = (1 - Fraction(p) ** (-n)) * tail_sum
    else:
        tail_sum = a / (1.0 - params.power_of_p(-1))
        tail_w = (1.0 - float(p) ** (-n)) * tail_sum
    diff = value_add(background, value_scale(fx, -1))
    total = value_add(total, value_scale(diff, tail_w))
    return reduce_value(value_scale(total, params.prefactor()))


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
    grid = enumerate_cosets(params.ctx, M, f.resolution_exp, params.n)
    values = [
        apply_hypersingular(params, f, rep, background) for rep in grid.representatives
    ]
    return CosetFunction(grid, values)
