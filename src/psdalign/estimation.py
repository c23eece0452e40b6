"""Linear MMSE channel estimation and its mean-square-error analytics.

A sounding scene is a list of (power, covariance, pilot) terms, one per
source: `observation_matrix` sums them densely and `observation_column`
gives the Toeplitz first column the simulator's solver takes.
`error_covariance` on those terms (Cholesky of the P x P observation
covariance) is the dense reference for that solver's MSE; the dense MMSE
estimate itself lives with the tests, as their oracle.

Three routes to the per-element MSE cross-check each other: that exact
finite-P matrix evaluation, the eigenvalue-domain expression the large-P
analysis rests on, and closed forms for the bathtub spectrum.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .fading import ARC_MARGIN, arc_gaps, stacked_psd
from .quadrature import adaptive_gl


class SingularSceneError(np.linalg.LinAlgError):
    """Noise-free scene with rank-deficient covariances; caller must regularize."""


def observation_matrix(P, noise_var, terms):
    """noise_var * I plus power * Diag(x) R Diag(x)^H for each (power, R, x) term.

    A term with x = None adds power * R unmodulated.
    """
    A = noise_var * np.eye(P, dtype=complex)
    for power, R, x in terms:
        if x is not None:
            R = R * np.outer(x, np.conj(x))
        A += power * R
    return A


def observation_column(P, noise_var, terms):
    """First column of observation_matrix, for exponential-ramp pilots.

    Each (power, r, x) term carries the first column r of its Hermitian
    Toeplitz covariance. With x(n) = c exp(2j*pi*tau*n/P), |c| = 1, the term
    Diag(x) R Diag(x)^H is Hermitian Toeplitz again, with first column
    x * conj(x[0]) * r; so is the sum. For other pilots the result is only
    the first column of a matrix that is not Toeplitz.
    """
    a = np.zeros(P, dtype=complex)
    a[0] = noise_var
    for power, r, x in terms:
        if x is not None:
            r = r * (x * np.conj(x[0]))
        a += power * r
    return a


def _factor_observation(noise_var, terms):
    A = observation_matrix(len(terms[0][1]), noise_var, terms)
    try:
        return cho_factor(A, lower=True)
    except np.linalg.LinAlgError as exc:
        if noise_var == 0:
            raise SingularSceneError(
                "observation covariance is singular at zero noise; add noise or "
                "use full-rank covariances"
            ) from exc
        raise


def error_covariance(noise_var, terms, k):
    """Exact error covariance of the MMSE estimate of term k and its trace/P.

    Evaluates R - rho R X^H (E[y y^H])^{-1} X R on the (power, R, x) terms of
    `observation_matrix`, with dense P x P covariances R. With term k alone,
    `error_covariance(noise_var, [terms[k]], 0)`, this is the
    interference-free expression.
    """
    power, R, x = terms[k]
    B = x[:, None] * R  # X R; its adjoint is R X^H
    E = R - power * (B.conj().T @ cho_solve(_factor_observation(noise_var, terms), B))
    # symmetrize away factorization round-off
    E = 0.5 * (E + E.conj().T)
    return E, float(np.real(np.trace(E))) / len(R)


def mse_from_eigenvalues(lam, power, noise_var, interference=None):
    """Per-element MSE in the eigenvalue domain.

    `lam` are the channel covariance eigenvalues of the estimated user on the
    P-point grid; `interference` is the aggregated eigenvalue profile of
    everything else the estimator must fight (already shifted onto the same
    grid), or None. This is the finite-P form of the limit integral: averaging
    lam - rho*lam^2/(rho*lam + interference + noise) over the grid.
    """
    lam = np.asarray(lam, dtype=float)
    delta = np.zeros_like(lam) if interference is None else np.asarray(interference, dtype=float)
    denom = power * lam + delta + noise_var
    num = lam * (delta + noise_var)
    out = np.divide(num, denom, out=np.zeros_like(lam), where=denom > 0)
    return float(out.mean())


def asymptotic_mse(spectrum, power, noise_var, interferers=()):
    """Large-P per-element MSE: 1 - integral of S^2 rho / (S rho + I + noise).

    `interferers` is an iterable of (spectrum, shift_cycles, power) triples;
    each interfering spectrum is translated by its shift on the frequency
    circle. Bathtub band edges are integrated under the arcsine substitution,
    and every band edge becomes a panel breakpoint, so the quadrature sees
    only smooth integrands.

    Only the interferers that can be nonzero on the user's own support enter
    (`_meeting`): one whose shifted bands all lie more than `ARC_MARGIN` away
    from the user's closed bands on the circle is 0.0 at every quadrature node,
    since the nodes lie on the user's support, and none of its edges falls
    inside a panel; so dropping it changes no bit, and under a valid plan the
    quadrature sees only the touching neighbours and the bands that meet.

    The kept interferers are evaluated at a node set in one (interferer, node)
    broadcast (`fading.stacked_psd`: the bathtub ones together, flat ones
    through their own `psd`), and their terms are summed in the given order
    with the floating-point operations of adding them one at a time, so the
    integrand is bit for bit that of a per-interferer loop.
    """
    own = spectrum.support()
    interferers = _meeting(own, list(interferers))
    interference = _interference(interferers)

    def integrand(xi):
        S = spectrum.psd(_wrap(xi))
        denom = S * power + interference(xi) + noise_var
        # a node that rounds onto the user's own bathtub edge reads inf/inf;
        # it counts 0 rather than a nan that no panel around it could converge
        # on, which costs one node's weight of a bounded value (S half cos(theta)
        # stays finite under the arcsine substitution)
        finite = (denom > 0) & (denom < np.inf)
        return np.divide(S * S * power, denom, out=np.zeros_like(S), where=finite)

    edges = {e for band in own for e in band}
    shifted = [e + shift for sp, shift, _ in interferers for band in sp.support() for e in band]
    if shifted:
        edges.update(_wrap(np.array(shifted, dtype=float)).tolist())

    total = 0.0
    for lo, hi in own:
        # arcsine substitution absorbs the user's own singular edges
        theta_lo, theta_hi = -np.pi / 2, np.pi / 2
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)

        def theta_integrand(theta):
            xi = center + half * np.sin(theta)
            return integrand(xi) * half * np.cos(theta)

        theta_breaks = []
        for e in edges:
            u = (e - center) / half if half > 0 else 2.0
            if -1.0 < u < 1.0:
                t = math.asin(u)
                theta_breaks.extend([t])
        pts = sorted({theta_lo, theta_hi, *theta_breaks})
        for a, b in zip(pts, pts[1:]):
            total += adaptive_gl(theta_integrand, a, b, tol=1e-10, n=24)

    # outside the user's own support S vanishes and the integrand with it
    return 1.0 - total


def _meeting(bands, interferers):
    """The (S_g, shift_g, rho_g) interferers, in order, that can be nonzero on the closed `bands`.

    One is kept when one of S_g's closed bands, shifted by shift_g, comes within
    `ARC_MARGIN` of one of `bands` on the circle (touching counts), and when
    S_g has no band at all: a powerless bathtub still reads 0 * inf = nan on
    its edges.
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


def _interference(interferers):
    """xi -> sum of rho_g * S_g(xi - shift_g) over (S_g, shift_g, rho_g) in order."""
    if not interferers:
        return lambda xi: 0.0
    spectra, shifts, weights = zip(*interferers)
    density = stacked_psd(spectra)
    shifts = np.array(shifts, dtype=float)[:, None]
    weights = np.array(weights, dtype=float)[:, None]

    def interference(xi):
        x = _wrap(np.asarray(xi, dtype=float) - shifts)
        # row 0 stays 0.0: accumulating from it adds the terms one at a time,
        # exactly as total = total + rho_g * psd_g would
        terms = np.zeros((len(weights) + 1, *x.shape[1:]))
        np.multiply(weights, density(x), out=terms[1:])
        return np.add.accumulate(terms, axis=0)[-1]

    return interference


def _wrap(xi):
    """Map frequencies to the principal interval (-1/2, 1/2]."""
    out = np.mod(np.asarray(xi, dtype=float) + 0.5, 1.0) - 0.5
    return np.where(out == -0.5, 0.5, out) if np.ndim(out) else (0.5 if out == -0.5 else float(out))


def clarke_closed_form(alpha):
    """Large-P bathtub-spectrum MSE as a function of alpha = pi*F*noise/power."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if alpha == 1.0:
        return 1.0 - 2.0 / np.pi
    if alpha < 1.0:
        root = math.sqrt(1.0 - alpha * alpha)
        return 1.0 - (4.0 / (np.pi * root)) * math.atan(math.sqrt((1.0 - alpha) / (1.0 + alpha)))
    root = math.sqrt(alpha * alpha - 1.0)
    ratio = abs((alpha - 1.0 + root) / (alpha - 1.0 - root))
    return 1.0 - (2.0 / (np.pi * root)) * math.log(ratio)


def small_alpha_mse(max_doppler, snr):
    """First-order MSE 2F/(rho/sigma^2), valid for pi*F << rho/sigma^2."""
    if max_doppler <= 0 or snr <= 0:
        raise ValueError("max Doppler and SNR must be positive")
    return 2.0 * max_doppler / snr


def processing_gain_db(max_doppler, snr):
    """SNR improvement 10*log10(1/(2F) - 1/snr) of the estimate over the observation.

    Returns None (the explicit no-gain signal) when the argument is not
    positive, i.e. when 1/(2F) <= sigma^2/rho.
    """
    if max_doppler <= 0 or snr <= 0:
        raise ValueError("max Doppler and SNR must be positive")
    arg = 1.0 / (2.0 * max_doppler) - 1.0 / snr
    if arg <= 0:
        return None
    return 10.0 * math.log10(arg)


def taylor_series_mse(alpha):
    """Cubic small-alpha expansion 2a/pi - a^2/2 + 4a^3/(3pi) of the closed form."""
    return 2.0 * alpha / np.pi - 0.5 * alpha**2 + 4.0 * alpha**3 / (3.0 * np.pi)


def taylor_check(alpha):
    """(exact, cubic series) pair for the small-alpha expansion check."""
    if not 0 < alpha < 1:
        raise ValueError("the expansion check needs 0 < alpha < 1")
    return clarke_closed_form(alpha), taylor_series_mse(alpha)


@dataclass(frozen=True)
class EstimationReport:
    """Per-user summary tying the finite-P, asymptotic, and empirical numbers together."""

    finite_p_mse: float
    interference_free_mse: float
    asymptotic_mse: float
    closed_form_mse: float | None
    small_alpha_mse: float | None
    processing_gain_db: float | None
    empirical_nmse: float | None = None
    empirical_halfwidth: float | None = None
