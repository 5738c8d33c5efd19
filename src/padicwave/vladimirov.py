"""The Vladimirov-Taibleson fractional operator of order alpha on Q_p^n.

Two independent routes compute the same thing:

* spectral: the multiplier |xi|_p**alpha on the coset averages of the input
  (``CosetAverages.radial``, the transform's multiplier without the transform;
  requires zero mean, so the multiplier is harmless at the origin);
* hypersingular: the normalized difference integral
  prefactor * integral of |y|**(-alpha-n) * (f(x-y) - f(x)) dy with
  prefactor (1 - p**alpha) / (1 - p**(-alpha-n)), evaluated shell by shell
  with the infinite outer tail summed as an exact geometric series.

Keeping both honest against each other is the main correctness story for
everything built on top.  The space is the table's: each form takes the
order alpha and reads p and n from f.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul

from .errors import ConfigError, LizorkinError
from .functions import (
    PHI_TOL,
    RATIONAL,
    CosetAverages,
    CosetFunction,
    integrate,
    is_in_Phi,
    nan_max,
    _over_common_den,
)
from .lattice import (
    as_fraction_vector,
    enumerate_cosets,
    vector_norm_exponent,
)
from .padic import NEG_INF, order_float


def _integral_order(alpha) -> int | None:
    """int(alpha) when alpha is a whole number, else None."""
    if isinstance(alpha, int):
        return alpha
    if isinstance(alpha, Fraction) and alpha.denominator == 1:
        return int(alpha)
    if isinstance(alpha, float) and alpha.is_integer():
        return int(alpha)
    return None


def validate_order(p: int, alpha) -> None:
    """Refuse an operator order that is not positive or that a float cannot carry."""
    order = order_float(alpha, "the operator order")
    if not order > 0:
        raise ConfigError(f"the operator order must be positive, got {alpha}")
    if float(p) ** -order == 1.0:  # the tail weight divides by 1 - p**-alpha
        raise ConfigError(f"the operator order {alpha} is too small for a float: "
                          "p**-alpha rounds to 1")


def power_of_p(p: int, alpha, k):
    """p**(k*alpha) exactly when alpha is integral, as float otherwise."""
    a = _integral_order(alpha)
    if a is not None:
        return Fraction(p) ** (k * a)
    return float(p) ** (k * float(alpha))


def symbol(p: int, alpha):
    """The weight N -> |xi|**alpha on the sphere |xi| = p**N, 0 at the origin (N = -inf)."""
    return lambda N: Fraction(0) if N == NEG_INF else power_of_p(p, alpha, N)


def apply_spectral(alpha, f: CosetFunction) -> CosetFunction:
    """Multiply the transform by |xi|**alpha and come back, on coset averages.

    The input must have zero mean (Lizorkin condition); otherwise the
    operator has no consistent spectral meaning on tables and this raises
    LizorkinError.
    """
    validate_order(f.ctx.p, alpha)
    if not is_in_Phi(f):
        raise LizorkinError(
            f"input is not in the zero-mean (Lizorkin) class: integral = "
            f"{complex(integrate(f)):.3e} exceeds tol {PHI_TOL:g}"
        )
    return CosetAverages(f).radial(symbol(f.ctx.p, alpha))


def _hypersingular(alpha, f: CosetFunction, background, top: int):
    """The hypersingular form at points of B_top, top >= f.support_exp.

    Returns the grid of B_top at f's resolution, the form as a function of
    a point's index in that grid, whose digit coordinates are X_j = x_j *
    p**top, and the denominator of its integer values (None when they are
    complex).  The
    per-table work is done here once: f extended by the background to that
    grid, its spheres (in ``sphere_representatives`` order, which the grid
    order keeps), and the shell and tail weights.  For a sphere point y,
    x - y has the digit coordinates (X_j - Y_j) mod p**(top + ell); the
    extended table is laid out by those coordinates, read as base-p**(top
    + ell) digits, so the cell of x - y is plain integer arithmetic.
    """
    p, n = f.ctx.p, f.n
    validate_order(p, alpha)
    M, ell = f.support_exp, f.resolution_exp
    background = Fraction(background) if isinstance(background, int) else background
    big = enumerate_cosets(f.ctx, top, ell, n)
    q = p ** (top + ell)
    place = [q ** (n - 1 - j) for j in range(n)]
    # f on B_top, plus one last cell holding the background for the outer
    # tail: numerators over one denominator when f and the background are
    # rational, complex numbers otherwise
    rational = f.kind == RATIONAL and isinstance(background, Fraction)
    if rational:
        den = math.lcm(f.den, background.denominator)
        cells = [v * (den // f.den) for v in f.cells]
        ext = [background.numerator * (den // background.denominator)] * (len(big) + 1)
    else:
        den, cells = None, f.complex_values()
        ext = [complex(background)] * (len(big) + 1)
    step = p ** (top - M)
    for a, v in zip(f.grid.digits, cells):
        ext[sum(map(mul, place, a)) * step] = v
    spheres = {g: [] for g in range(-ell + 1, top + 1)}
    for y, g in zip(big.digits, big.norm_exponents):
        if g > -ell:  # the origin coset adds nothing by local constancy
            spheres[g].append(y)
    spheres = {g: tuple(zip(*ys)) for g, ys in spheres.items()}

    # |y|**(-alpha-n) on each shell times the coset volume, and the outer
    # tail past each possible top shell G, where every y sees the background
    # (exact for an integral order, floats otherwise, as the prefactor is)
    a = _integral_order(alpha)
    exact = a is not None
    P, A = (Fraction(p), a) if exact else (float(p), float(alpha))
    pref = (1 - P ** A) / (1 - P ** (-A - n))
    coset_vol = Fraction(p) ** (-n * ell) if exact else float(Fraction(p) ** (-n * ell))
    shell_w = {g: power_of_p(p, alpha, -g) * P ** (-g * n) * coset_vol for g in spheres}
    tail_w = {
        G: (1 - P ** (-n)) * (power_of_p(p, alpha, -(G + 1)) / (1 - power_of_p(p, alpha, -1)))
        for G in range(M, top + 1)
    }

    def terms(i, shell_w, tail_w):
        """x's cell, and (weight, cells of x - y) per shell up to x's top shell, then the tail."""
        X, G = big.digits[i], max(M, big.norm_exponents[i])
        out = []
        for g in range(-ell + 1, G + 1):
            idx = None
            for s, x, col in zip(place, X, spheres[g]):
                part = [(x - y) % q * s for y in col]
                idx = part if idx is None else list(map(add, idx, part))
            out.append((shell_w[g], idx))
        out.append((tail_w[G], [len(big)]))
        return sum(map(mul, place, X)), out

    if rational and exact:
        # the weights times the prefactor, as integers over one denominator
        wden, nums = _over_common_den([w * pref for w in (*shell_w.values(), *tail_w.values())])
        shell_n, tail_n = dict(zip(shell_w, nums)), dict(zip(tail_w, nums[len(shell_w):]))

        def at(i):
            ix, shells = terms(i, shell_n, tail_n)
            return sum(w * (sum(map(ext.__getitem__, idx)) - len(idx) * ext[ix])
                       for w, idx in shells)

        return big, at, den * wden

    if rational:  # float weights: each exact difference rounds once
        def diffs(ix, idx):
            return [complex((ext[i] - ext[ix]) / den) for i in idx]
    else:
        def diffs(ix, idx):
            neg = ext[ix] * -1.0
            return [ext[i] + neg for i in idx]

    scalar = float if exact else complex

    def at(i):
        ix, shells = terms(i, shell_w, tail_w)
        acc = 0j
        for w, idx in shells:
            w = scalar(w)
            for d in diffs(ix, idx):
                acc += d * w
        return acc * scalar(pref)

    return big, at, None


def apply_hypersingular(alpha, f: CosetFunction, x, background=Fraction(0)):
    """Pointwise hypersingular form at x.

    ``f`` models a bounded locally constant function: the table inside its
    support ball and the constant ``background`` outside (0 for compactly
    supported data).  Shells at or below the resolution contribute nothing
    by local constancy; shells past max(support, |x|) see only the
    background and sum to an exact geometric tail.  A rational table with
    an integral order gives a Fraction, summed as integers over one common
    denominator; anything else gives a complex number.
    """
    vec = as_fraction_vector(x, f.n)
    e_x = vector_norm_exponent(vec, f.ctx)
    top = f.support_exp if e_x == NEG_INF else max(f.support_exp, int(e_x))
    grid, at, den = _hypersingular(alpha, f, background, top)
    v = at(grid.position(vec))
    return v if den is None else Fraction(v, den)


def apply_hypersingular_field(
    alpha,
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
    grid, at, den = _hypersingular(alpha, f, background, M)
    return CosetFunction(grid, [at(i) for i in range(len(grid))], den)


def eigen_error(alpha, f: CosetFunction, k) -> float:
    """The worst relative error of both operator forms against p**(k*alpha) * f.

    Each reference value is computed exactly when f and the eigenvalue are,
    and rounded once; a nan from either form makes the result nan.
    """
    # the forms refuse a bad order before p**(k*alpha) is built
    forms = (apply_spectral(alpha, f), apply_hypersingular_field(alpha, f))
    lam = power_of_p(f.ctx.p, alpha, k)
    refs = [complex(w * lam) for w in f.values]
    return nan_max(
        abs(complex(v) - ref) / max(abs(ref), 1e-30)
        for got in forms
        for v, ref in zip(got.values, refs)
    )
