"""Tests for credit counters and the K approximation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.credits import CreditCounter, approximate_k
from repro.errors import ConfigError


def test_k_approximation_matches_paper():
    # B_MS$ = 102.4, B_MM = 38.4 -> K = 8/3 ~ 11/4 in quarters.
    assert approximate_k(102.4, 38.4) == Fraction(11, 4)


def test_k_exact_when_representable():
    assert approximate_k(102.4, 51.2) == Fraction(2, 1)


def test_k_validation():
    with pytest.raises(ConfigError):
        approximate_k(0, 38.4)
    with pytest.raises(ConfigError):
        approximate_k(102.4, 38.4, denominator=0)


def test_counter_basic_load_take():
    c = CreditCounter(bits=8)
    c.load(3)
    assert c.take() and c.take() and c.take()
    assert not c.take()
    assert c.value == 0


def test_counter_saturates_at_width():
    c = CreditCounter(bits=8)
    c.load(1000)
    assert c.value == 255


def test_counter_floors_at_zero():
    c = CreditCounter(bits=8)
    c.load(-5)
    assert c.value == 0
    assert not c.take()


def test_scaled_counter_implements_k_plus_1_arithmetic():
    # (K+1) * N_WB with K = 11/4: cost per application is 15/4.
    k = Fraction(11, 4)
    c = CreditCounter(cost=k + 1)
    n_wb = 4
    c.load(n_wb)
    assert c.value == 15  # (K+1) * N_WB whole units
    applications = 0
    while c.take():
        applications += 1
    assert applications == n_wb


def test_nonzero_credit_allows_one_more_application():
    # The paper applies a technique while credits are non-zero, so a
    # fractional remainder still allows a final application.
    k = Fraction(11, 4)
    c = CreditCounter(cost=k + 1)
    c.load(0.5)  # half an application's cost
    assert c.take()
    assert not c.take()


def test_bool_and_repr():
    c = CreditCounter()
    assert not c
    c.load(1)
    assert c
    assert "CreditCounter" in repr(c)


def test_invalid_construction():
    with pytest.raises(ConfigError):
        CreditCounter(bits=0)
    with pytest.raises(ConfigError):
        CreditCounter(cost=0)


@given(st.integers(min_value=0, max_value=500),
       st.integers(min_value=1, max_value=32),
       st.sampled_from([1, 2, 4]))
@settings(max_examples=100, deadline=None)
def test_takes_equal_loaded_credit(budget, num, denom):
    """Property: takes == loaded applications, up to saturation.

    Costs are K+1-style quarters (approximate_k's default denominator),
    so the float budget arithmetic is exact; a unit cost saturates at
    255 applications."""
    cost = Fraction(num, denom)
    c = CreditCounter(cost=cost)
    c.load(budget)
    takes = 0
    while c.take():
        takes += 1
        assert takes <= 256 * 4  # safety
    saturation = -(-255 * cost.denominator // cost.numerator)
    assert takes == min(budget, saturation)
    if cost == 1:
        assert takes == min(budget, 255)


@given(st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_k_approximation_error_bounded(b_cache, b_mm):
    """Property: quarter-rounding error of K is at most 1/8."""
    k = approximate_k(b_cache, b_mm)
    assert abs(float(k) - b_cache / b_mm) <= 1 / 8 + 1e-9
