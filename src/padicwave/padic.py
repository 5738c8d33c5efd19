"""Core p-adic arithmetic over the rationals.

A rational number x != 0 factors uniquely as p**v * (a/b) with p dividing
neither a nor b; v is the valuation and |x|_p = p**-v the norm.  Everything
here works on exact ``fractions.Fraction`` values.  Each primitive has one
form, a function of (x, ctx); it also accepts an int or a str for x.  A norm
is a float only where a caller asks for one, as ``float(norm_exact(x, ctx))``;
all control flow inside the package is driven by integer valuations.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ConfigError

#: Extended-integer infinity used for valuation(0).
INF = math.inf
#: Extended-integer negative infinity, the norm exponent of 0: -valuation(0).
NEG_INF = -math.inf


# Miller-Rabin with the prime bases up to 41 decides every integer below
# this bound exactly (it is the least strong pseudoprime to all of them)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p below PRIME_BOUND."""
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def order_float(x, what: str) -> float:
    """float(x) for an operator order, refusing one too large for a float."""
    try:
        return float(x)
    except OverflowError:
        raise ConfigError(f"{what} {x} is too large for a float") from None


class PrimeContext:
    """Fixes the prime p for every operation downstream; treat as immutable.

    Two contexts are equal, and hash alike, when their primes are: a context
    is compared wherever two tables meet.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if isinstance(p, int) and p >= PRIME_BOUND:
            raise ConfigError(
                f"p = {p} is not below {PRIME_BOUND}, the bound up to which primality is exact"
            )
        if not isinstance(p, int) or not _is_prime(p):
            raise ConfigError(f"p must be a prime integer, got {p!r}")
        self.p = p

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)


def phase_to_complex(phase: Fraction | float) -> complex:
    """exp(2*pi*i*phase) with a couple of exact special cases.

    A phase k/q may come as the float k / q, which is float(Fraction(k, q)).
    """
    if phase == 0:
        return complex(1.0, 0.0)
    if 2 * phase == 1:
        return complex(-1.0, 0.0)
    return cmath.exp(2j * math.pi * float(phase))


def valuation(x, ctx: PrimeContext):
    """Exponent of p in x: valuation(p**k * a/b) = k.  valuation(0) = +inf."""
    q, p = Fraction(x), ctx.p
    if q == 0:
        return INF
    v = 0
    num = q.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def norm_exact(x, ctx: PrimeContext) -> Fraction:
    """|x|_p as an exact power of p (Fraction); 0 for x = 0."""
    v = valuation(x, ctx)
    if v == INF:
        return Fraction(0)
    return Fraction(ctx.p) ** (-v)


def canonical_digits(x, count: int, ctx: PrimeContext):
    """First ``count`` digits of the canonical expansion of x != 0.

    Writes x = p**v * (x0 + x1*p + x2*p**2 + ...) with x0 != 0 and digits in
    [0, p).  Returns (v, [x0, ..., x_{count-1}]).

    Examples:
        canonical_digits(Fraction(1, 2), 3, PrimeContext(5)) -> (0, [3, 2, 2])
    """
    q, p = Fraction(x), ctx.p
    if q == 0:
        raise ConfigError("the zero scalar has no canonical digit expansion")
    if count < 1:
        raise ConfigError(f"count must be positive, got {count}")
    v = valuation(q, ctx)
    unit = q / Fraction(p) ** v  # p divides neither side of this fraction
    modulus = p**count
    residue = unit.numerator * pow(unit.denominator, -1, modulus) % modulus
    digits = []
    for _ in range(count):
        residue, d = divmod(residue, p)
        digits.append(d)
    return v, digits


def fractional_part(x, ctx: PrimeContext) -> Fraction:
    """{x}_p: the sum of the terms of the canonical expansion with negative
    exponent, a rational in [0, 1) with denominator p**max(0, -valuation).

    x - {x}_p always has nonnegative valuation, and {x+y}_p differs from
    {x}_p + {y}_p by an integer.
    """
    q, p = Fraction(x), ctx.p
    den, pk = q.denominator, 1
    while den % p == 0:
        den //= p
        pk *= p
    # x = a / (pk * den) with gcd(a, p * den) = 1; pow(den, -1, 1) is 0
    return Fraction(q.numerator * pow(den, -1, pk) % pk, pk)


def character(x, ctx: PrimeContext):
    """Additive character value chi_p(x) = exp(2*pi*i*{x}_p).

    Returns (complex value, phase), the phase {x}_p being an exact Fraction in
    [0, 1) whose denominator is a power of p; use it whenever downstream
    arithmetic wants to stay rational.
    """
    phase = fractional_part(x, ctx)
    return phase_to_complex(phase), phase
