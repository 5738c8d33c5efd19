"""Exact accumulation of character sums.

A finite sum of terms c * exp(2*pi*i*q), with rational coefficients c and
phases q whose denominators are powers of one prime p, lives in a cyclotomic
field.  PhaseSum stores the terms exactly and can decide - exactly - whether
the sum is rational (and what rational it is).  This is what lets integrals
of characters over coset grids be checked by brute force with no floating
point in the loop.

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
    """Immutable sum of c * exp(2*pi*i*q) terms with p-power phases."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[Fraction, Fraction] | None = None):
        self.p = p
        clean: dict[Fraction, Fraction] = {}
        if terms:
            for phase, coeff in terms.items():
                if coeff == 0:
                    continue
                phase = phase % 1
                _check_phase(phase, p)
                clean[phase] = clean.get(phase, _ZERO) + coeff
                if clean[phase] == 0:
                    del clean[phase]
        self.terms = clean

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        if self.p != other.p:
            raise ConfigError("cannot mix primes in one phase sum")
        merged = dict(self.terms)
        for phase, coeff in other.terms.items():
            merged[phase] = merged.get(phase, _ZERO) + coeff
        return PhaseSum(self.p, merged)

    def scaled(self, c) -> "PhaseSum":
        c = Fraction(c)
        if c == 0:
            return PhaseSum(self.p)
        return PhaseSum(self.p, {q: v * c for q, v in self.terms.items()})

    def to_complex(self) -> complex:
        return sum(
            (float(c) * phase_to_complex(q) for q, c in self.terms.items()),
            complex(0.0),
        )

    __complex__ = to_complex

    def as_rational(self) -> Fraction | None:
        """The exact rational value of the sum, or None if it is irrational."""
        if not self.terms:
            return _ZERO
        m = max(_p_power_exponent(q.denominator, self.p) for q in self.terms)
        if m == 0:
            return self.terms.get(_ZERO, _ZERO)
        big_q = self.p**m
        coeffs = {q.numerator * (big_q // q.denominator): c for q, c in self.terms.items()}
        return rational_value(coeffs, big_q, self.p)

    def is_zero(self) -> bool:
        return self.as_rational() == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, PhaseSum):
            diff = self + other.scaled(-1)
            return diff.is_zero()
        if isinstance(other, (int, Fraction)):
            return self.as_rational() == other
        return NotImplemented

    def __hash__(self):  # pragma: no cover - PhaseSum is not meant to be a key
        raise TypeError("PhaseSum is unhashable")

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*e({q})" for q, c in sorted(self.terms.items()))
        return f"PhaseSum(p={self.p}, {body or '0'})"


def _check_phase(phase: Fraction, p: int) -> None:
    den = phase.denominator
    if p ** _p_power_exponent(den, p) != den:
        raise ConfigError(f"phase {phase} is not over a power of {p}")


def _p_power_exponent(den: int, p: int) -> int:
    m = 0
    while den % p == 0:
        den //= p
        m += 1
    return m


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
