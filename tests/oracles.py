"""Dense reference routines that the package's fast paths are checked against."""

import math

import numpy as np
from scipy.linalg import cho_solve

from psdalign.estimation import _factor_observation


def mmse_estimate(y, noise_var, terms, k):
    """Linear MMSE estimate of the channel of term k from observation(s) y.

    `terms` are the (power, R, x) terms of `estimation.observation_matrix`,
    with dense P x P covariances R; term k is the estimated source and carries
    a pilot. y may be a length-P vector or a (P, M) block of per-antenna
    observations; the estimate has the same shape. The observation covariance
    is factored by Cholesky, as `estimation.error_covariance` factors it.
    """
    power, R, x = terms[k]
    y = np.asarray(y, dtype=complex)
    single = y.ndim == 1
    Y = y[:, None] if single else y
    if Y.shape[0] != len(R):
        raise ValueError("observation length does not match the scene")
    Z = cho_solve(_factor_observation(noise_var, terms), Y)
    est = math.sqrt(power) * (R @ (np.conj(x)[:, None] * Z))
    return est[:, 0] if single else est
