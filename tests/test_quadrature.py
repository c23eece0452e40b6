from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from psdalign import estimation
from psdalign.fading import DopplerSpectrum
from psdalign.pilots import plan_alignment
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


def single_rule(f, a, b, n=20):
    """One n-point Gauss-Legendre rule as `fixed_gl` computed it on its own (oracle)."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * np.sum(w * f(mid + half * x))


def recursive_adaptive_gl(f, a, b, tol=1e-10, n=20, max_depth=40):
    """The recursion with one rule per call of f, three calls for the first panel (oracle)."""
    if b <= a:
        return 0.0
    total_width = b - a

    def recurse(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left = single_rule(f, lo, mid, n)
        right = single_rule(f, mid, hi, n)
        if depth >= max_depth or abs(left + right - whole) <= tol * max(
            1.0, (hi - lo) / total_width
        ):
            return left + right
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    return recurse(a, b, single_rule(f, a, b, n), 0)


class Counted:
    """An integrand that records the node sets it is called on."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x):
        self.calls.append(np.array(x))
        return self.f(x)


SMOOTH = {
    "peaked": (lambda x: np.exp(-((x - 0.3) ** 2) * 1e4), -1.0, 1.0),
    "runge": (lambda x: 1.0 / (1.0 + 400.0 * x * x), -1.0, 1.5),
    "oscillating": (lambda x: np.sin(60.0 * x) * np.exp(x), 0.0, 3.0),
    "steep sqrt": (lambda x: np.sqrt(1.0 + x), -0.999, 1.0),
}


@pytest.mark.parametrize("name", sorted(SMOOTH))
@pytest.mark.parametrize("tol, n", [(1e-10, 20), (1e-14, 8), (1e-15, 24)])
def test_bit_identical_to_the_recursion(name, tol, n):
    f, a, b = SMOOTH[name]
    counted, oracle = Counted(f), Counted(f)
    got = adaptive_gl(counted, a, b, tol=tol, n=n)
    assert got == recursive_adaptive_gl(oracle, a, b, tol=tol, n=n)
    # the first panel in one call instead of three, each later one in one call instead of two
    assert len(counted.calls) == 1 + (len(oracle.calls) - 3) // 2
    assert np.concatenate(counted.calls).size == np.concatenate(oracle.calls).size


def test_depth_limit_is_the_recursions():
    f = SMOOTH["peaked"][0]
    for max_depth in (0, 1, 3):
        counted, oracle = Counted(f), Counted(f)
        got = adaptive_gl(counted, -1.0, 1.0, tol=1e-16, n=4, max_depth=max_depth)
        assert got == recursive_adaptive_gl(oracle, -1.0, 1.0, tol=1e-16, n=4, max_depth=max_depth)
        assert len(counted.calls) == 1 + (len(oracle.calls) - 3) // 2
    assert len(counted.calls) > 1


@pytest.mark.parametrize("name", sorted(SMOOTH))
@pytest.mark.parametrize("n", [4, 20, 24])
def test_fixed_rule_is_the_single_rule(name, n):
    f, a, b = SMOOTH[name]
    assert fixed_gl(f, a, b, n) == single_rule(f, a, b, n)


def test_accepted_panel_calls_the_integrand_once():
    counted = Counted(lambda x: x**3 - 2.0 * x)
    val = adaptive_gl(counted, -1.0, 2.0, n=8)
    assert abs(val - (2.0**4 / 4 - 4.0 - 0.25 + 1.0)) < 1e-12
    # the panel and its two halves, in one call
    assert [c.size for c in counted.calls] == [3 * 8]


def test_constant_integrand_returning_a_scalar():
    assert adaptive_gl(lambda x: 2.0, 0.0, 3.0) == recursive_adaptive_gl(lambda x: 2.0, 0.0, 3.0)


def bench_like_scene(seed):
    """One user of a planned 40-user mixed-Doppler set against the other 39 and the contamination.

    Even seeds take the plan's shifts (supports apart, one panel per user); odd
    seeds squeeze the shifts together so interferer edges split the panel.
    """
    rng = np.random.default_rng(seed)
    P, band = 4096, (-0.375, 0.375)
    dopplers = rng.uniform(0.001, 0.004, 40).tolist()
    plan = plan_alignment(dopplers, [band], P)
    spectra = [DopplerSpectrum.clarke(F) for F in dopplers]
    shifts = [tau / P for tau in plan.shifts] if seed % 2 == 0 else [0.003 * g for g in range(40)]
    k = int(rng.integers(40))
    interferers = [(spectra[g], shifts[g] - shifts[k], 1.0) for g in range(40) if g != k]
    interferers.append((DopplerSpectrum.flat_band(*band, power=0.5), -shifts[k], 1.0))
    return spectra[k], interferers


@pytest.mark.parametrize("seed", range(20))
def test_asymptotic_mse_bit_identical_to_the_recursion(seed):
    spectrum, interferers = bench_like_scene(seed)
    got = estimation.asymptotic_mse(spectrum, 1.0, 0.1, interferers)
    with mock.patch.object(estimation, "adaptive_gl", recursive_adaptive_gl):
        expected = estimation.asymptotic_mse(spectrum, 1.0, 0.1, interferers)
    assert got == expected


@pytest.mark.parametrize("seed", range(20))
def test_asymptotic_mse_pruned_bit_identical_to_every_interferer(seed):
    spectrum, interferers = bench_like_scene(seed)
    got = estimation.asymptotic_mse(spectrum, 1.0, 0.1, interferers)
    with mock.patch.object(estimation, "_meeting", lambda bands, interferers: interferers):
        expected = estimation.asymptotic_mse(spectrum, 1.0, 0.1, interferers)
    assert got == expected
    if seed % 2 == 0:
        # a planned user meets at most its two neighbours and the contamination band
        assert len(estimation._meeting(spectrum.support(), interferers)) <= 3
