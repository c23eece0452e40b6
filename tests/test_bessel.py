import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from psdalign.fading import j0


def series_oracle(x, terms=50):
    """Independent 50-term power series, plain-Python arithmetic."""
    q = x * x / 4.0
    term = 1.0
    parts = [1.0]
    for k in range(1, terms + 1):
        term = term * (-q) / (k * k)
        parts.append(term)
    return math.fsum(parts)


def test_matches_power_series_below_eight():
    xs = np.linspace(0.0, 8.0, 1601)
    worst = max(abs(j0(float(x)) - series_oracle(float(x))) for x in xs)
    assert worst < 1e-12


def test_matches_mpmath_globally():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    # up to 2.6e4 ~ 2*pi * F * P at F = 1/2, P = 8192: every argument the Clarke model forms
    xs = np.concatenate([np.linspace(0.0, 30.0, 301), np.geomspace(30.0, 2.6e4, 120)])
    worst = max(abs(j0(float(x)) - float(mp.besselj(0, mp.mpf(float(x))))) for x in xs)
    assert worst < 1e-12


def test_special_values():
    assert j0(0.0) == 1.0
    # 2*pi*F*v with F=0.002, v=100 (value frozen from a 30-digit evaluation)
    assert abs(j0(2 * np.pi * 0.002 * 100) - 0.642511836577573026) < 1e-12


def test_vectorized_and_even():
    x = np.linspace(-20, 20, 401)
    out = j0(x)
    assert out.shape == x.shape
    assert np.allclose(out, j0(-x))


@given(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
def test_bounded_by_one(x):
    assert abs(j0(x)) <= 1.0 + 1e-12
