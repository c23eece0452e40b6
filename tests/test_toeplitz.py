"""The structured Toeplitz solver against the dense oracle on random scenes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve, toeplitz

from psdalign import estimation, pilots
from psdalign.fading import DopplerSpectrum
from psdalign.simkit import CirculantModel, ExactModel
from psdalign.toeplitz import HermitianToeplitz, ToeplitzInverse

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


def test_vectors_and_blocks_agree():
    column = np.array([3.0, 1.0 - 0.5j, 0.25j, 0.1])
    Y = np.arange(8.0).reshape(4, 2) + 1j
    inverse, T = ToeplitzInverse(column), HermitianToeplitz(column)
    np.testing.assert_allclose(inverse.solve(Y[:, 1]), inverse.solve(Y)[:, 1], rtol=1e-14)
    np.testing.assert_allclose(T.matvec(Y[:, 0]), T.matvec(Y)[:, 0], rtol=1e-14)
    np.testing.assert_allclose(T.matvec(inverse.solve(Y)), Y, rtol=1e-12)


def test_indefinite_matrix_rejected():
    # eigenvalues -1 and 3: the inverse's first column starts with -1/3
    with pytest.raises(np.linalg.LinAlgError):
        ToeplitzInverse([1.0, 2.0])
