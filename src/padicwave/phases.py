"""Exact accumulation of character sums.

A finite sum of terms c * exp(2*pi*i*k/q), with rational coefficients c,
integer indices k mod q and q a power of one prime p, lives in a cyclotomic
field.  PhaseSum(p, q, coeffs) stores it as the map k -> c and can decide -
exactly - whether the sum is rational (and what rational it is).  This is
what lets integrals of characters over coset grids be checked by brute force
with no floating point in the loop.

The rationality test walks down the tower Q(zeta_{p^m}) > Q(zeta_{p^{m-1}})
> ... > Q.  For m >= 2 the powers zeta^r, r = 0..p-1, form a basis over the
next field down, so the sum is rational iff every nonzero-residue component
vanishes and the zero-residue component is rational one level down.  At the
bottom (m = 1) the only relation is 1 + zeta + ... + zeta^{p-1} = 0.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigError
from .padic import phase_to_complex

_ZERO = Fraction(0)


class PhaseSum:
    """Immutable sum of coeffs[k] * exp(2*pi*i*k/q), q a power of p, k in range(q)."""

    __slots__ = ("p", "q", "coeffs")

    def __init__(self, p: int, q: int, coeffs: dict[int, Fraction] | None = None):
        m = q
        while m > 1 and p > 1 and m % p == 0:
            m //= p
        if m != 1:
            raise ConfigError(f"phase modulus {q} is not a power of {p}")
        self.p, self.q = p, q
        self.coeffs = {k: c for k, c in coeffs.items() if c} if coeffs else {}

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        if self.p != other.p:
            raise ConfigError("cannot mix primes in one phase sum")
        q = max(self.q, other.q)
        lift = q // self.q
        merged = {k * lift: c for k, c in self.coeffs.items()}
        lift = q // other.q
        for k, c in other.coeffs.items():
            k *= lift
            merged[k] = merged.get(k, _ZERO) + c
        return PhaseSum(self.p, q, merged)

    def scaled(self, c) -> "PhaseSum":
        c = Fraction(c)
        return PhaseSum(self.p, self.q, {k: v * c for k, v in self.coeffs.items()})

    def __complex__(self) -> complex:
        q = self.q
        return sum(
            (float(c) * phase_to_complex(k / q) for k, c in self.coeffs.items()),
            complex(0.0),
        )

    def as_rational(self) -> Fraction | None:
        """The exact rational value of the sum, or None if it is irrational."""
        return rational_value(self.coeffs, self.q, self.p)

    def __eq__(self, other) -> bool:
        if isinstance(other, PhaseSum):
            return (self + other.scaled(-1)).as_rational() == 0
        if isinstance(other, (int, Fraction)):
            return self.as_rational() == other
        return NotImplemented

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*e({k}/{self.q})" for k, c in sorted(self.coeffs.items()))
        return f"PhaseSum(p={self.p}, {body or '0'})"


def rational_value(coeffs: dict, big_q: int, p: int):
    """The rational value of sum_a coeffs[a] * zeta**a, or None if it is irrational.

    zeta = exp(2*pi*i/big_q) with big_q a power of p, and the keys a are
    integers in [0, big_q).  The coefficients may be ints or Fractions;
    the value is exact, an int or a Fraction.
    """
    if big_q == 1:
        return coeffs.get(0, _ZERO)
    if big_q == p:
        common = None
        for r in range(1, p):
            c = coeffs.get(r, _ZERO)
            if common is None:
                common = c
            elif c != common:
                return None
        common = common if common is not None else _ZERO
        return coeffs.get(0, _ZERO) - common
    smaller = big_q // p
    parts: list[dict[int, Fraction]] = [{} for _ in range(p)]
    for a, c in coeffs.items():
        parts[a % p][a // p] = c
    for r in range(1, p):
        if rational_value(parts[r], smaller, p) != 0:
            return None
    return rational_value(parts[0], smaller, p)
