import cmath
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicwave.errors import ConfigError
from padicwave.phases import PhaseSum


def test_sum_of_conjugate_cube_roots_is_rational():
    s = PhaseSum(3, 3, {1: Fraction(1), 2: Fraction(1)})
    assert s.as_rational() == -1


def test_full_root_sum_vanishes():
    for p in (2, 3, 5):
        s = PhaseSum(p, p, {k: Fraction(1) for k in range(p)})
        assert s == 0
        assert s.as_rational() == 0


def test_fourth_root_is_not_rational():
    i_unit = PhaseSum(2, 4, {1: Fraction(1)})
    assert i_unit.as_rational() is None
    assert i_unit != 0
    # but i + i^3 collapses
    s = PhaseSum(2, 4, {1: Fraction(1), 3: Fraction(1)})
    assert s == 0


def test_rationality_needs_equal_coefficients_on_nontrivial_roots():
    # 2*zeta_3 + zeta_3^2 is irrational, zeta_3 + zeta_3^2 is not
    s = PhaseSum(3, 3, {1: Fraction(2), 2: Fraction(1)})
    assert s.as_rational() is None
    t = s + PhaseSum(3, 3, {2: Fraction(1)})
    assert t.as_rational() == -2


def test_deep_tower_reduction():
    # sum over all primitive 8th-root phases with equal weight: zeta_8 sums to 0
    s = PhaseSum(2, 8, {k: Fraction(1) for k in (1, 3, 5, 7)})
    assert s == 0
    # mixed levels: full 4th roots plus a constant
    t = PhaseSum(2, 4, {0: Fraction(3), 1: Fraction(1), 2: Fraction(1), 3: Fraction(1)})
    assert t.as_rational() == 2  # 3 + (i - 1 - i)


def test_phase_validation_and_normalization():
    for q in (3, 0, -4, 6):  # not a power of 2
        with pytest.raises(ConfigError, match="not a power of 2"):
            PhaseSum(2, q, {0: Fraction(1)})
    # one phase at two moduli is one value, and + lifts to the finer one
    coarse, fine = PhaseSum(2, 2, {1: Fraction(1)}), PhaseSum(2, 8, {4: Fraction(1)})
    assert coarse == fine == Fraction(-1)
    assert (coarse + fine).q == 8 and (coarse + fine).coeffs == {4: 2}


def test_mixed_primes_are_refused():
    two, three = PhaseSum(2, 2, {1: Fraction(1)}), PhaseSum(3, 3, {1: Fraction(1)})
    for combine in (lambda: two + three, lambda: two == three):
        with pytest.raises(ConfigError, match="cannot mix primes"):
            combine()


phase_dicts = st.integers(min_value=0, max_value=2).flatmap(
    lambda m: st.tuples(
        st.just(2**m),
        st.dictionaries(
            st.integers(min_value=0, max_value=2**m - 1),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            max_size=4,
        ),
    )
)


@given(phase_dicts)
def test_rational_reduction_matches_complex_evaluation(q_coeffs):
    s = PhaseSum(2, *q_coeffs)
    r = s.as_rational()
    if r is not None:
        assert cmath.isclose(complex(r), complex(s), abs_tol=1e-9)
    assert (s == 0) == (r == 0)


@given(phase_dicts, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_scaling_acts_on_the_complex_value(q_coeffs, c):
    s = PhaseSum(2, *q_coeffs)
    assert cmath.isclose(
        complex(s.scaled(c)), complex(c) * complex(s), abs_tol=1e-9
    )


def test_equality_between_phase_sums():
    # compares the exact value of the difference, not the stored terms
    assert PhaseSum(3, 3, {1: 1, 2: 1}) == PhaseSum(3, 1, {0: -1})
    assert PhaseSum(2, 4, {1: 1}) != PhaseSum(2, 4, {3: 1})
    # equal sums need not hold equal terms, so a sum cannot be a key
    with pytest.raises(TypeError, match="unhashable"):
        hash(PhaseSum(3, 1, {0: -1}))


def test_equality_against_plain_numbers():
    s = PhaseSum(2, 1, {0: Fraction(5, 7)})
    assert s == Fraction(5, 7)
    assert PhaseSum(2, 1) == 0
    assert s != Fraction(2, 7)
