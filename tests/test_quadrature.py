import numpy as np
from hypothesis import given, strategies as st

from psdalign.quadrature import adaptive_gl, fixed_gl, oscillatory_nodes


def test_polynomial_exact():
    assert abs(fixed_gl(lambda x: x**6, -1, 2, n=8) - (2**7 + 1) / 7) < 1e-12


def test_adaptive_handles_peaked_integrand():
    # narrow Gaussian, analytic value
    val = adaptive_gl(lambda x: np.exp(-((x - 0.3) ** 2) * 1e4), -1, 1, tol=1e-12)
    assert abs(val - np.sqrt(np.pi) / 100) < 1e-10


def test_oscillatory_rule_resolves_all_frequencies():
    omega = 2 * np.pi * 4096
    x, w = oscillatory_nodes(-0.002, 0.002, omega)
    for v in (1, 100, 4096):
        got = np.sum(w * np.exp(1j * 2 * np.pi * v * x))
        want = 0.004 * np.sinc(0.004 * v)
        assert abs(got - want) < 1e-12


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=6))
def test_adaptive_matches_numpy_polynomial_integral(coeffs):
    p = np.polynomial.Polynomial(coeffs)
    q = p.integ()
    val = adaptive_gl(p, -1.0, 1.5, tol=1e-11)
    assert abs(val - (q(1.5) - q(-1.0))) < 1e-8
