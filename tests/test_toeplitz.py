"""The structured Toeplitz product and solver against the dense oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve, toeplitz

from psdalign import estimation, pilots
from psdalign.fading import DopplerSpectrum
from psdalign.simkit import CirculantModel, ExactModel
from psdalign.toeplitz import HermitianToeplitz, ToeplitzInverse, ToeplitzProducts

REL_TOL = 1e-9


def rel_err(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


@st.composite
def scenes(draw):
    """(column, dense matrix) of E[y y^H] for a random ramp-pilot scene.

    1-8 users at fractional shifts with one common unit-modulus phase, mixed
    powers, flat-band contamination on or off, either channel model.
    """
    P = draw(st.integers(8, 512))
    model = draw(st.sampled_from([CirculantModel, ExactModel]))
    user = model(DopplerSpectrum.clarke(draw(st.floats(0.002, 0.2))), P)
    phase = np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))
    shifts = draw(st.lists(st.floats(0.0, P, exclude_max=True), min_size=1, max_size=8))
    powers = draw(st.lists(st.floats(0.1, 10.0), min_size=len(shifts), max_size=len(shifts)))
    ramps = [phase * pilots.fft_pilot(shift, P).values for shift in shifts]
    sources = [(power, user, x) for power, x in zip(powers, ramps)]
    if draw(st.booleans()):
        lo = draw(st.floats(-0.5, 0.4))
        hi = draw(st.floats(lo + 0.05, 0.5))
        sources.append((1.0, model(DopplerSpectrum.flat_band(lo, hi, draw(st.floats(0.1, 5.0))), P), None))
    noise_var = draw(st.floats(0.05, 2.0))
    column = estimation.observation_column(P, noise_var, ((p, m.column(), x) for p, m, x in sources))
    A = estimation.observation_matrix(P, noise_var, ((p, m.covariance(), x) for p, m, x in sources))
    return column, A


@given(scenes(), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_structured_matches_dense_oracle(scene, M, seed):
    column, A = scene
    P = column.size
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((P, M)) + 1j * rng.standard_normal((P, M))
    # the first column determines the whole observation covariance
    assert np.max(np.abs(toeplitz(column) - A)) <= REL_TOL * np.max(np.abs(A))
    inverse = ToeplitzInverse(column)
    assert rel_err(inverse.solve(Y), cho_solve(cho_factor(A, lower=True), Y)) <= REL_TOL
    dense_trace = np.trace(np.linalg.inv(A)).real
    assert abs(inverse.trace() - dense_trace) <= REL_TOL * dense_trace
    assert rel_err(HermitianToeplitz(column).matvec(Y), toeplitz(column) @ Y) <= REL_TOL


def pd_column(P, kind, rng):
    """A positive definite Hermitian Toeplitz column: a sample autocorrelation plus a ridge."""
    x = rng.standard_normal(2 * P) + (1j * rng.standard_normal(2 * P) if kind == "complex" else 0.0)
    column = np.array([np.vdot(x[k:], x[: 2 * P - k]) for k in range(P)]) / (2 * P)
    column[0] += 0.1
    return column.real if kind == "real" else column


@pytest.mark.parametrize("P", [1, 2, 3, 8, 97, 128, 255])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("block", [False, True])
def test_length_p_transforms_match_dense(P, kind, block, fft_lengths):
    rng = np.random.default_rng(P)
    column = pd_column(P, kind, rng)
    A = toeplitz(column)
    Y = rng.standard_normal((P, 3) if block else P) + 1j * rng.standard_normal((P, 3) if block else P)
    inverse, T = ToeplitzInverse(column), HermitianToeplitz(column)
    built = len(fft_lengths)
    assert rel_err(inverse.solve(Y), cho_solve(cho_factor(A, lower=True), Y)) <= REL_TOL
    assert len(fft_lengths) - built == 6
    assert rel_err(T.matvec(Y), A @ Y) <= REL_TOL
    assert len(fft_lengths) - built == 10
    dense_trace = np.trace(np.linalg.inv(A)).real
    assert abs(inverse.trace() - dense_trace) <= REL_TOL * dense_trace
    # no circulant embedding: every transform, set-up included, is of length P
    assert set(fft_lengths) == {P}


@pytest.mark.parametrize("P", [1, 2, 3, 8, 97, 128, 255])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_ramp_modulated_columns_share_transforms(P, kind, fft_lengths):
    # R Diag(conj x) = Diag(conj x) T(r x) for a ramp x(n) = exp(2j*pi*tau*n/P),
    # integer or fractional tau; every such product starts from the same
    # fft(Z) and fft(D Z), and takes two inverse FFTs of its own
    rng = np.random.default_rng(P)
    r = pd_column(P, kind, rng)
    shifts = (float(int(0.3 * P)), int(0.3 * P) + 0.37, P - 0.5)
    ramps = [pilots.fft_pilot(shift, P).values for shift in shifts]
    products = ToeplitzProducts([r * x for x in ramps])
    Z = rng.standard_normal((3, P)) + 1j * rng.standard_normal((3, P))
    built = len(fft_lengths)
    spectra = products.spectra(Z)
    assert len(fft_lengths) - built == 2
    for k, x in enumerate(ramps):
        want = (toeplitz(r) @ (np.conj(x)[:, None] * Z.T)).T
        assert rel_err(np.conj(x) * products.product(k, spectra), want) <= REL_TOL
    assert len(fft_lengths) - built == 2 + 2 * len(ramps)
    assert set(fft_lengths) == {P}


def test_vectors_and_blocks_agree():
    column = np.array([3.0, 1.0 - 0.5j, 0.25j, 0.1])
    Y = np.arange(8.0).reshape(4, 2) + 1j
    inverse, T = ToeplitzInverse(column), HermitianToeplitz(column)
    np.testing.assert_allclose(inverse.solve(Y[:, 1]), inverse.solve(Y)[:, 1], rtol=1e-14)
    np.testing.assert_allclose(T.matvec(Y[:, 0]), T.matvec(Y)[:, 0], rtol=1e-14)
    np.testing.assert_allclose(T.matvec(inverse.solve(Y)), Y, rtol=1e-12)


def test_buffered_solve_allocates_under_one_block():
    # the trial's layout: the (P, M) transpose of a C-contiguous (M, P) block,
    # solved in two blocks of that shape
    P, M = 1024, 16
    terms = [(1.0, CirculantModel(DopplerSpectrum.clarke(0.002), P).column(), pilots.fft_pilot(37.5, P).values)]
    inverse = ToeplitzInverse(estimation.observation_column(P, 1.0, terms))
    X = np.random.default_rng(1).standard_normal((M, 2 * P)).view(complex)
    buffers = np.empty((2, M, P), dtype=complex)
    inverse.solve(X.T, buffers)
    tracemalloc.start()
    try:
        Z = inverse.solve(X.T, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes
    assert np.shares_memory(Z, buffers[0])
    assert np.array_equal(Z, inverse.solve(X.T))


def test_indefinite_matrix_rejected():
    for column in (
        # eigenvalues -1 and 3: the inverse's first column starts with -1/3
        [1.0, 2.0],
        # eigenvalues -0.8, 1, 1, 2.8, yet the inverse's first column starts with +0.277
        [1.0, 0.9, 0.0, 0.9],
        [0.0],
        [-1.0, 0.0],
        [np.nan, 0.0],
    ):
        with pytest.raises(np.linalg.LinAlgError):
            ToeplitzInverse(column)


@given(
    st.integers(1, 12),
    st.floats(-0.5, 3.0),
    st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=11, max_size=11),
)
@settings(max_examples=200, deadline=None)
def test_rejected_exactly_when_not_positive_definite(P, t0, tail):
    column = np.array([t0, *tail[: P - 1]], dtype=complex)
    eigenvalues = np.linalg.eigvalsh(toeplitz(column))
    # near-singular draws could fall either way in floating point
    assume(abs(eigenvalues[0]) > 1e-6 * max(1.0, np.max(np.abs(eigenvalues))))
    if eigenvalues[0] > 0:
        inverse = ToeplitzInverse(column)
        assert inverse.u0 == pytest.approx(np.linalg.inv(toeplitz(column))[0, 0].real, rel=1e-6)
    else:
        with pytest.raises(np.linalg.LinAlgError):
            ToeplitzInverse(column)
