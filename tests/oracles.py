"""Dense reference routines that the package's fast paths are checked against."""

import math

import numpy as np
from scipy.linalg import cho_solve

from psdalign.estimation import _factor_observation
from psdalign.fading import ARC_MARGIN, arc_gaps


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


def rows_meeting(bands, interferers):
    """The interferers `estimation._meeting` keeps, found from one row per interferer band.

    A row (g, lo + shift_g, hi + shift_g) is built for each band of each
    `support()`; interferer g is kept when one of its rows comes within
    `ARC_MARGIN` of one of the closed `bands` on the circle, or when it has
    no rows at all.
    """
    rows = [(g, lo + shift, hi + shift) for g, (sp, shift, _) in enumerate(interferers) for lo, hi in sp.support()]
    if not rows:
        return interferers
    owners, lo, hi = (np.array(column) for column in zip(*rows))
    own = np.array(bands, dtype=float).reshape(-1, 2)
    meets = (arc_gaps(own[:, :1], own[:, 1:], lo, hi) <= ARC_MARGIN).any(axis=0)
    keep = np.ones(len(interferers), dtype=bool)
    keep[owners] = False
    keep[owners[meets]] = True
    return [i for i, k in zip(interferers, keep.tolist()) if k]
