import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicwave.errors import ConfigError
from padicwave.padic import (
    INF,
    NEG_INF,
    PRIME_BOUND,
    PrimeContext,
    _is_prime,
    canonical_digits,
    character,
    fractional_part,
    norm_exact,
    valuation,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60
)
primes = st.sampled_from([2, 3, 5, 7])


def test_valuation_values():
    assert valuation(Fraction(9, 2), PrimeContext(3)) == 2
    assert valuation(Fraction(0), PrimeContext(5)) == INF
    assert valuation(Fraction(3, 4), PrimeContext(2)) == -2


def test_norm_values():
    assert norm_exact(Fraction(9, 2), PrimeContext(3)) == Fraction(1, 9)
    assert norm_exact(Fraction(3, 4), PrimeContext(2)) == 4
    assert norm_exact(Fraction(0), PrimeContext(7)) == 0
    assert -valuation(Fraction(0), PrimeContext(7)) == NEG_INF


@given(rationals, rationals, primes)
def test_norm_is_ultrametric(x, y, p):
    ctx = PrimeContext(p)
    left = norm_exact(x + y, ctx)
    assert left <= max(norm_exact(x, ctx), norm_exact(y, ctx))


@given(rationals, rationals, primes)
def test_norm_is_multiplicative(x, y, p):
    ctx = PrimeContext(p)
    assert norm_exact(x * y, ctx) == norm_exact(x, ctx) * norm_exact(y, ctx)


def test_canonical_digits_values():
    assert canonical_digits(Fraction(3, 4), 2, PrimeContext(2)) == (-2, [1, 1])
    assert canonical_digits(Fraction(5, 9), 2, PrimeContext(3)) == (-2, [2, 1])
    assert canonical_digits(Fraction(1, 2), 3, PrimeContext(5)) == (0, [3, 2, 2])
    for count in (0, -1):
        with pytest.raises(ConfigError, match=f"count must be positive, got {count}"):
            canonical_digits(Fraction(1, 2), count, PrimeContext(5))


@given(rationals, primes, st.integers(min_value=1, max_value=6))
def test_digits_reconstruct_to_stated_precision(x, p, count):
    ctx = PrimeContext(p)
    if x == 0:
        with pytest.raises(ConfigError):
            canonical_digits(x, count, ctx)
        return
    v, digits = canonical_digits(x, count, ctx)
    assert len(digits) == count and digits[0] != 0
    approx = sum(d * Fraction(p) ** (v + i) for i, d in enumerate(digits))
    # leftover must be divisible by p**(v+count)
    diff = x - approx
    if diff != 0:
        assert valuation(diff, ctx) >= v + count


def test_fractional_part_values():
    assert fractional_part(Fraction(7), PrimeContext(3)) == 0
    assert fractional_part(Fraction(3, 4), PrimeContext(2)) == Fraction(3, 4)
    assert fractional_part(Fraction(5, 9), PrimeContext(3)) == Fraction(5, 9)
    assert fractional_part(Fraction(0), PrimeContext(5)) == 0
    # 5/12 = 5/(4*3): the residue of 5 * 3**-1 mod 4 is 3
    assert fractional_part(Fraction(5, 12), PrimeContext(2)) == Fraction(3, 4)


@given(rationals, primes)
def test_fractional_part_splits_off_an_integer_part(x, p):
    ctx = PrimeContext(p)
    fp = fractional_part(x, ctx)
    assert 0 <= fp < 1
    rest = x - fp
    if rest != 0:
        # what remains is a p-adic integer
        assert valuation(rest, ctx) >= 0


def test_character_values():
    val, _ = character(Fraction(1, 2), PrimeContext(2))
    assert val == -1  # exact, not approximate
    val, _ = character(Fraction(12), PrimeContext(5))
    assert val == 1
    val, _ = character(Fraction(1, 3), PrimeContext(3))
    assert cmath.isclose(val, cmath.exp(2j * cmath.pi / 3))


@given(rationals, primes)
def test_character_lies_on_the_unit_circle(x, p):
    val, phase = character(x, PrimeContext(p))
    assert math.isclose(abs(val), 1.0)
    assert 0 <= phase < 1


@given(rationals, rationals, primes)
def test_character_is_additive(x, y, p):
    ctx = PrimeContext(p)
    a, _ = character(x, ctx)
    b, _ = character(y, ctx)
    c, _ = character(x + y, ctx)
    assert cmath.isclose(a * b, c, abs_tol=1e-12)


def test_prime_context_rejects_composites():
    for bad in (0, 1, 4, 6, 9, -3):
        with pytest.raises(ConfigError):
            PrimeContext(bad)
    PrimeContext(2), PrimeContext(97)


def test_primality_is_exact_up_to_the_bound():
    def by_trial_division(k):
        return k >= 2 and all(k % d for d in range(2, math.isqrt(k) + 1))

    assert [k for k in range(3000) if _is_prime(k)] == [k for k in range(3000) if by_trial_division(k)]
    # Carmichael numbers, and strong pseudoprimes to the smallest bases
    for composite in (561, 1105, 2047, 1373653, 3215031751, 3825123056546413051, (2**61 - 1) * 3):
        assert not _is_prime(composite)
    for prime in (998244353, 2**31 - 1, 2**61 - 1):
        assert _is_prime(prime)
    # the bound is the least composite that every base passes
    assert 1287836182261 * 2575672364521 == PRIME_BOUND and _is_prime(PRIME_BOUND)
    PrimeContext(2**61 - 1)
    with pytest.raises(ConfigError, match="bound"):
        PrimeContext(PRIME_BOUND)


def test_scalar_wrapper_round_trips_through_context():
    ctx = PrimeContext(3)
    a = Fraction(9, 2)
    assert valuation(a, ctx) == 2
    assert norm_exact(a, ctx) == Fraction(1, 9)
    assert canonical_digits(a, 2, ctx) == (2, [2, 1])  # 9/2 = 9 * (1/2), 1/2 = 2 + 1*3 + ...
    assert fractional_part(a, ctx) == 0
