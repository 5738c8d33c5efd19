import cmath
import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicwave.errors import ConfigError
from padicwave.phases import PhaseSum, rational_value


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


def reference_rational_value(coeffs: dict, big_q: int, p: int):
    """The tower recursion Q(zeta_{p^m}) > Q(zeta_{p^{m-1}}) > ... > Q, as an independent reference.

    For m >= 2 the powers zeta**r, r = 0..p-1, form a basis over the next
    field down, so the sum is rational iff every nonzero-residue component
    vanishes and the zero-residue component is rational one level down.  At
    the bottom (m = 1) the only relation is 1 + zeta + ... + zeta**(p-1) = 0.
    """
    if big_q == 1:
        return coeffs.get(0, Fraction(0))
    if big_q == p:
        common = [coeffs.get(r, Fraction(0)) for r in range(1, p)]
        if any(c != common[0] for c in common):
            return None
        return coeffs.get(0, Fraction(0)) - common[0]
    parts: list[dict] = [{} for _ in range(p)]
    for a, c in coeffs.items():
        parts[a % p][a // p] = c
    if any(reference_rational_value(part, big_q // p, p) != 0 for part in parts[1:]):
        return None
    return reference_rational_value(parts[0], big_q // p, p)


def _agree(coeffs: dict, q: int, p: int):
    got, want = rational_value(coeffs, q, p), reference_rational_value(coeffs, q, p)
    assert (got is None) == (want is None) and got == want, (p, q, coeffs)
    return got


@pytest.mark.parametrize("p, q", [(2, 2), (2, 4), (2, 8), (3, 3), (3, 9)])
def test_fibre_test_matches_the_tower_on_every_small_vector(p, q):
    rational = 0
    for vec in itertools.product((-1, 0, 1), repeat=q):
        # zero coefficients held or left out are the same sum
        dense = dict(enumerate(vec))
        r = _agree(dense, q, p)
        assert _agree({a: c for a, c in dense.items() if c}, q, p) == r
        rational += r is not None
    assert 0 < rational < 3**q or q == 2  # zeta_2 = -1, so every sum at q = 2 is rational


@st.composite
def fibre_sums(draw):
    """A coefficient dict at p in {5, 7}, q <= p**3: whole fibres of one value, then a few edits."""
    p = draw(st.sampled_from((5, 7)))
    q = p ** draw(st.integers(min_value=0, max_value=3))
    step, small = q // p, st.integers(min_value=-2, max_value=2)
    coeffs = {}
    for b in draw(st.sets(st.integers(min_value=0, max_value=max(step - 1, 0)), max_size=4)):
        coeffs.update(dict.fromkeys(range(b, q, step) if step else (0,), draw(small)))
    coeffs.update(draw(st.dictionaries(st.integers(min_value=0, max_value=q - 1), small, max_size=3)))
    return p, q, coeffs


@given(fibre_sums())
def test_fibre_test_matches_the_tower_at_larger_primes(p_q_coeffs):
    p, q, coeffs = p_q_coeffs
    r = _agree(coeffs, q, p)
    if r is not None:
        assert cmath.isclose(complex(r), complex(PhaseSum(p, q, coeffs)), abs_tol=1e-9)


def test_indices_are_read_mod_q():
    # zeta_3 + zeta_3**2 = -1, 1 + zeta_9 is irrational, exp(-i*pi) = -1
    for args, want in [
        ((3, 3, {4: 1, 2: 1}), -1),
        ((3, 9, {10: 1, 0: 1}), None),
        ((2, 2, {-1: 1}), -1),
    ]:
        s = PhaseSum(*args)
        assert s.as_rational() == want
        if want is None:
            assert abs(complex(s).imag) > 0.5
        else:
            assert cmath.isclose(complex(s), want, abs_tol=1e-12)
    # coefficients landing on one index add, and a sum that cancels is dropped
    assert PhaseSum(3, 3, {1: 1, 4: Fraction(1, 2), 5: 2}).coeffs == {1: Fraction(3, 2), 2: 2}
    assert PhaseSum(2, 4, {1: 1, -3: -1}).coeffs == {}
    # an index already in range keeps its place in the term order
    assert list(PhaseSum(5, 25, {7: 1, 3: 2, 24: 1}).coeffs) == [7, 3, 24]


@pytest.mark.parametrize("index", [Fraction(1, 2), 1.0, "1", True, None])
def test_a_non_int_index_is_refused(index):
    with pytest.raises(ConfigError, match="is not an int"):
        PhaseSum(2, 4, {index: Fraction(1)})
