"""Exact accumulation of character sums.

A finite sum of terms c * exp(2*pi*i*k/q), with rational coefficients c,
integer indices k mod q and q a power of one prime p, lives in a cyclotomic
field.  PhaseSum(p, q, coeffs) stores it as the map k -> c and can decide -
exactly - whether the sum is rational (and what rational it is).  This is
what lets integrals of characters over coset grids be checked by brute force
with no floating point in the loop.

The rationality test is one pass.  As Phi_q(x) = Phi_p(x**(q/p))
(Washington, Introduction to Cyclotomic Fields, ch. 2), the relations among
the powers of zeta = exp(2*pi*i/q) are spanned by the sums over the fibres
{b + t*q/p : 0 <= t < p}, so sum_a c_a zeta**a is the rational c_0 - s
exactly when each fibre with b != 0 holds p equal coefficients or none, and
fibre 0's indices t*q/p (0 < t < p) share one s (s = 0 if none is held).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigError
from .padic import phase_to_complex

_ZERO = Fraction(0)


class PhaseSum:
    """Immutable sum of coeffs[k] * exp(2*pi*i*k/q), q a power of p, each int index k read mod q."""

    __slots__ = ("p", "q", "coeffs")

    def __init__(self, p: int, q: int, coeffs: dict[int, Fraction] | None = None):
        m = q
        while m > 1 and p > 1 and m % p == 0:
            m //= p
        if m != 1:
            raise ConfigError(f"phase modulus {q} is not a power of {p}")
        self.p, self.q = p, q
        merged: dict[int, Fraction] = {}
        for k, c in (coeffs or {}).items():
            if type(k) is not int:
                raise ConfigError(f"phase index {k!r} is not an int")
            k %= q
            merged[k] = merged[k] + c if k in merged else c
        self.coeffs = {k: c for k, c in merged.items() if c}

    def _combined(self, other: "PhaseSum", sign: int) -> tuple[int, dict[int, Fraction]]:
        """The finer modulus of the two, and the coefficients of self + sign * other on it."""
        if self.p != other.p:
            raise ConfigError("cannot mix primes in one phase sum")
        q = max(self.q, other.q)
        merged = {k * (q // self.q): c for k, c in self.coeffs.items()}
        for k, c in other.coeffs.items():
            k *= q // other.q
            merged[k] = merged.get(k, _ZERO) + sign * c
        return q, merged

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        return PhaseSum(self.p, *self._combined(other, 1))

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
            q, diff = self._combined(other, -1)
            return rational_value(diff, q, self.p) == 0
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
    step = big_q // p  # the fibre of a is its residue mod step
    fibres: dict[int, list] = {}  # residue -> [its one coefficient, how many indices hold it]
    for a, c in coeffs.items():
        if c and a:
            fibre = fibres.setdefault(a % step, [c, 0])
            if fibre[0] != c:
                return None
            fibre[1] += 1
    s, held = fibres.pop(0, (_ZERO, p - 1))
    if held != p - 1 or any(n != p for _, n in fibres.values()):
        return None
    return coeffs.get(0, _ZERO) - s
