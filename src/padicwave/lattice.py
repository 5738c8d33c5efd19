"""Coset lattices, Haar volumes, and character integrals on Q_p^n.

Haar measure is normalized so the unit ball has volume 1.  Balls B_gamma
(|x|_p <= p**gamma) and spheres S_gamma (|x|_p = p**gamma) are centered at
the origin and use the max norm across coordinates.  Each coordinate's
norm comes from ``padic.valuation(x, ctx)``, the one form of the valuation,
so ``vector_norm_exponent(vec, ctx)`` takes a PrimeContext.

A coset grid with support exponent M and resolution exponent ell covers
B_M^n by cosets of B_{-ell}^n.  Its representatives are the points whose
canonical digits vanish outside positions -M..ell-1; they are enumerated in
lexicographic digit order, coordinate by coordinate, so every run of the
package lists them identically.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction

from .errors import ConfigError, GridCapError
from .padic import NEG_INF, PrimeContext, valuation

DEFAULT_GRID_CAP = 10**6
GRID_CAP_ENV = "PADICWAVE_GRID_CAP"


def grid_cap() -> int:
    raw = os.environ.get(GRID_CAP_ENV)
    if raw is None:
        return DEFAULT_GRID_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{GRID_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ConfigError(f"{GRID_CAP_ENV} must be positive, got {cap}")
    return cap


def as_fraction_vector(x, n: int) -> tuple[Fraction, ...]:
    """Normalize a point of Q_p^n to a tuple of Fractions."""
    if isinstance(x, (int, Fraction, str)):
        if n != 1:
            raise ConfigError(f"expected an {n}-vector, got a scalar")
        return (Fraction(x),)
    coords = tuple(Fraction(c) for c in x)
    if len(coords) != n:
        raise ConfigError(f"expected an {n}-vector, got {len(coords)} coordinates")
    return coords


def vector_norm_exponent(vec: tuple[Fraction, ...], ctx: PrimeContext):
    """e with max_j |x_j|_p = p**e; -inf for the zero vector."""
    best = NEG_INF
    for q in vec:
        v = valuation(q, ctx)
        if -v > best:  # v = +inf for a zero coordinate never wins
            best = -v
    return best


def _require_dimension(n: int) -> None:
    if n < 1:
        raise ConfigError(f"dimension must be >= 1, got {n}")


class CosetGrid:
    """The cosets of B_M^n modulo B_{-ell}^n, in grid order.

    A grid holds only its shape; its one-dimensional order, digit
    coordinates, norm exponents and representatives are built on first use
    and kept, so they go with the grid.  Treat as immutable.  Two grids are
    equal when their (ctx, n, support_exp, resolution_exp) are: those fix
    the cosets and their order.
    """

    __slots__ = ("ctx", "n", "support_exp", "resolution_exp",
                 "_order", "_digits", "_norms", "_reps")

    def __init__(self, ctx: PrimeContext, n: int, support_exp: int, resolution_exp: int):
        self.ctx = ctx
        self.n = n
        self.support_exp = support_exp
        self.resolution_exp = resolution_exp
        self._order = self._digits = self._norms = self._reps = None

    def _key(self) -> tuple:
        return (self.ctx, self.n, self.support_exp, self.resolution_exp)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    @property
    def coset_volume(self) -> Fraction:
        return Fraction(self.ctx.p) ** (-self.n * self.resolution_exp)

    def __len__(self) -> int:
        return self.ctx.p ** (self.n * (self.support_exp + self.resolution_exp))

    def coordinates(self, render=None):
        """Each coset's n coordinates, in grid order, as an iterator of tuples.

        A coordinate is its digit coordinate a = x * p**M, an integer in
        [0, p**W) with W = M + ell, or render(a) when render is given.  Grid
        order is the n-fold product of the one-dimensional ``digit_reversal``
        order, so render runs once for each of the p**W values of a; at n = 1
        it runs as each coset is reached, and no rendered list is kept.
        """
        one_d = self._one_d_order()
        if render is not None:
            one_d = map(render, one_d)
        return zip(one_d) if self.n == 1 else itertools.product(one_d, repeat=self.n)

    def _one_d_order(self) -> tuple[int, ...]:
        """The one-dimensional grid order, ``digit_reversal`` of width W, built once."""
        if self._order is None:
            self._order = digit_reversal(self.ctx.p, self.support_exp + self.resolution_exp)
        return self._order

    @property
    def digits(self) -> tuple[tuple[int, ...], ...]:
        """Each coset's integer digit coordinates a_j = x_j * p**M, in grid order."""
        if self._digits is None:
            self._digits = tuple(self.coordinates())
        return self._digits

    @property
    def representatives(self) -> tuple[tuple[Fraction, ...], ...]:
        """Each coset's representative, the n-vector of x_j = a_j * p**-M, in grid order."""
        if self._reps is None:
            scale = Fraction(self.ctx.p) ** -self.support_exp
            self._reps = tuple(self.coordinates(lambda a: a * scale))
        return self._reps

    @property
    def norm_exponents(self) -> tuple:
        """Each coset's norm exponent e (|x| = p**e, -inf at the origin), in grid order.

        Built on first use from the digits and kept: |a_j * p**-M| is
        p**(M - v_p(a_j)), and the norm is the largest over the coordinates.
        """
        if self._norms is None:
            M, width = self.support_exp, self.support_exp + self.resolution_exp
            val = digit_valuations(self.ctx.p, width)  # v_p(0) = width: below any a != 0
            norms = one_d = [M - val[a] for a in self._one_d_order()]
            for _ in range(self.n - 1):
                norms = [e if e > d else d for e in norms for d in one_d]
            self._norms = (NEG_INF, *norms[1:])  # position 0 is the origin coset
        return self._norms

    def position(self, x) -> int | None:
        """Index in grid order of the coset holding the n-vector x.

        None when x lies outside B_M.  Coordinate j has the digit coordinate
        a_j = x_j * p**M mod p**W with W = M + ell; read lowest first, the W
        base-p digits of a_j are its place value, and the first coordinate
        is the most significant.
        """
        p = self.ctx.p
        width = self.support_exp + self.resolution_exp
        modulus = p**width
        scale = Fraction(p) ** self.support_exp
        index = 0
        for q in x:
            s = q * scale
            if s.denominator % p == 0:
                return None
            a = s.numerator * pow(s.denominator, -1, modulus) % modulus
            for _ in range(width):
                a, d = divmod(a, p)
                index = index * p + d
        return index


def ball_volume(ctx: PrimeContext, n: int, radius_exp: int) -> Fraction:
    """Volume of B_gamma^n = {x : |x|_p <= p**gamma}, gamma = radius_exp."""
    _require_dimension(n)
    return Fraction(ctx.p) ** (n * radius_exp)


def sphere_volume(ctx: PrimeContext, n: int, radius_exp: int) -> Fraction:
    """Volume of S_gamma^n = {x : |x|_p = p**gamma}, gamma = radius_exp."""
    _require_dimension(n)
    p = Fraction(ctx.p)
    return (1 - p ** (-n)) * p ** (n * radius_exp)


def ball_character_integral(ctx: PrimeContext, n: int, radius_exp: int, xi) -> Fraction:
    """Integral of chi_p(xi . x) over the ball B_gamma^n, exactly.

    Nonzero (= the ball volume) precisely when the character is trivial on
    the ball, i.e. |xi|_p <= p**-gamma.
    """
    _require_dimension(n)
    e = vector_norm_exponent(as_fraction_vector(xi, n), ctx)
    return ball_volume(ctx, n, radius_exp) if e <= -radius_exp else Fraction(0)


def sphere_character_integral(ctx: PrimeContext, n: int, radius_exp: int, xi) -> Fraction:
    """Integral of chi_p(xi . x) over the sphere S_gamma^n, exactly.

    Equals the sphere volume while the character is trivial on B_gamma,
    a single negative value one shell further out, and 0 beyond.
    """
    _require_dimension(n)
    e = vector_norm_exponent(as_fraction_vector(xi, n), ctx)
    if e <= -radius_exp:
        return sphere_volume(ctx, n, radius_exp)
    if e == 1 - radius_exp:
        return -(Fraction(ctx.p) ** (n * (radius_exp - 1)))
    return Fraction(0)


def enumerate_cosets(
    ctx: PrimeContext, support_exp: int, resolution_exp: int, n: int = 1
) -> CosetGrid:
    """Build the coset grid for (support_exp, resolution_exp) in n dimensions.

    Raises GridCapError when p**(n*(M+ell)) exceeds the cap (default 10**6,
    override via the PADICWAVE_GRID_CAP environment variable).  A count far
    past the cap is judged on its logarithm, so it is never built.
    """
    _require_dimension(n)
    if support_exp + resolution_exp < 0:
        raise ConfigError(
            f"support exponent {support_exp} below resolution exponent "
            f"{-resolution_exp}: empty digit window"
        )
    cap = grid_cap()
    power = n * (support_exp + resolution_exp)
    far = power * math.log2(ctx.p) > cap.bit_length() + 1
    count = None if far else ctx.p**power
    if far or count > cap:
        shown = f"{ctx.p}**{power}" + ("" if far else f" = {count}")
        raise GridCapError(f"coset grid would hold {shown} points, above the cap of {cap}")
    return CosetGrid(ctx, n, support_exp, resolution_exp)


def digit_reversal(p: int, width: int) -> tuple[int, ...]:
    """The width-digit base-p reversal of each integer in [0, p**width).

    Entry i is the digit coordinate of the i-th coset of a one-dimensional
    grid of that width; the reversal is an involution, so entry a is also
    the position of digit coordinate a.
    """
    out = [0]
    for i in range(width):
        # digit i of the coordinate is the next, less significant position digit
        out = [a + d * p**i for a in out for d in range(p)]
    return tuple(out)


def digit_valuations(p: int, width: int) -> tuple[int, ...]:
    """v_p(a) for each integer a in [0, p**width), with width standing for v_p(0)."""
    val = [0] * p**width
    for k in range(1, width + 1):
        val[:: p**k] = [k] * p ** (width - k)
    return tuple(val)


def sphere_representatives(
    ctx: PrimeContext, radius_exp: int, resolution_exp: int, n: int = 1
) -> tuple[tuple[Fraction, ...], ...]:
    """Representatives of S_gamma^n modulo B_{-ell}^n."""
    grid = enumerate_cosets(ctx, radius_exp, resolution_exp, n)
    return tuple(r for r, e in zip(grid.representatives, grid.norm_exponents) if e == radius_exp)
