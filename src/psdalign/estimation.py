"""Linear MMSE channel estimation and its mean-square-error analytics.

Three routes to the per-element MSE coexist and cross-check each other:
exact finite-P matrix evaluation, the eigenvalue-domain expression the
large-P analysis rests on, and closed forms for the bathtub spectrum.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .quadrature import adaptive_gl


class SingularSceneError(np.linalg.LinAlgError):
    """Noise-free scene with rank-deficient covariances; caller must regularize."""


@dataclass(frozen=True)
class UplinkUser:
    """A sounded user: transmit power, pilot sequence, channel covariance."""

    power: float
    pilot: object
    covariance: object

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("user power must be nonnegative")


@dataclass(frozen=True)
class Interferer:
    """A process received without being estimated (e.g. other-cell sounding).

    `pilot` is optional: contamination that is not pilot-modulated enters the
    observation covariance directly.
    """

    power: float
    covariance: object
    pilot: object = None


@dataclass(frozen=True)
class UplinkScene:
    """Everything the base station knows about one sounding occasion."""

    users: tuple
    noise_var: float
    interferers: tuple = ()

    def __post_init__(self):
        if self.noise_var < 0:
            raise ValueError("noise variance must be nonnegative")
        lengths = {u.pilot.P for u in self.users} | {u.covariance.P for u in self.users}
        lengths |= {i.covariance.P for i in self.interferers}
        if len(lengths) != 1:
            raise ValueError(f"inconsistent lengths in scene: {sorted(lengths)}")

    @property
    def P(self):
        return self.users[0].pilot.P


def observation_matrix(P, noise_var, terms):
    """noise_var * I plus power * Diag(x) R Diag(x)^H for each (power, R, x) term.

    A term with x = None adds power * R unmodulated. Terms are consumed one at
    a time, so a generator keeps only one P x P covariance alive besides the sum.
    """
    A = noise_var * np.eye(P, dtype=complex)
    for power, R, x in terms:
        if x is not None:
            R = R * np.outer(x, np.conj(x))
        # at unit power, skip a P x P temporary that would only copy R
        A += R if power == 1.0 else power * R
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


def observation_covariance(scene):
    """E[y y^H]: noise + every pilot-modulated user + interferers."""
    sources = (*scene.users, *scene.interferers)
    terms = ((u.power, u.covariance.toeplitz(), None if u.pilot is None else u.pilot.values) for u in sources)
    return observation_matrix(scene.P, scene.noise_var, terms)


def _factor_observation(scene):
    A = observation_covariance(scene)
    try:
        return cho_factor(A, lower=True)
    except np.linalg.LinAlgError as exc:
        if scene.noise_var == 0:
            raise SingularSceneError(
                "observation covariance is singular at zero noise; add noise or "
                "use full-rank covariances"
            ) from exc
        raise


def mmse_estimate(y, scene, k):
    """Linear MMSE estimate of user k's channel vector from observation(s) y.

    y may be a length-P vector or a (P, M) block of per-antenna observations;
    the estimate has the same shape.
    """
    y = np.asarray(y, dtype=complex)
    single = y.ndim == 1
    Y = y[:, None] if single else y
    if Y.shape[0] != scene.P:
        raise ValueError("observation length does not match the scene")
    factor = _factor_observation(scene)
    user = scene.users[k]
    Z = cho_solve(factor, Y)
    W = np.conj(user.pilot.values)[:, None] * Z
    est = math.sqrt(user.power) * (user.covariance.toeplitz() @ W)
    return est[:, 0] if single else est


def error_covariance(scene, k):
    """Exact error covariance of user k's MMSE estimate and its trace/P.

    Evaluates R - rho R X^H (E[y y^H])^{-1} X R on the exact Toeplitz
    covariances. With no other users and no interferers this is the
    interference-free expression.
    """
    user = scene.users[k]
    R = user.covariance.toeplitz()
    factor = _factor_observation(scene)
    B = user.pilot.values[:, None] * R  # X R; its adjoint is R X^H
    E = R - user.power * (B.conj().T @ cho_solve(factor, B))
    # symmetrize away factorization round-off
    E = 0.5 * (E + E.conj().T)
    return E, float(np.real(np.trace(E))) / scene.P


def interference_free_scene(scene, k):
    """The same scene reduced to user k alone (no other users, no interferers)."""
    return UplinkScene(users=(scene.users[k],), noise_var=scene.noise_var)


def interference_free_mse(scene, k):
    """trace/P of the single-user error covariance for user k."""
    _, mse = error_covariance(interference_free_scene(scene, k), 0)
    return mse


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
    """

    def interference(xi):
        total = 0.0
        for sp, shift, rho_g in interferers:
            total = total + rho_g * sp.psd(_wrap(xi - shift))
        return total

    def integrand(xi):
        S = spectrum.psd(_wrap(xi))
        denom = S * power + interference(xi) + noise_var
        return np.divide(S * S * power, denom, out=np.zeros_like(S), where=denom > 0)

    edges = set()
    for lo, hi in spectrum.support():
        edges |= {lo, hi}
    for sp, shift, _ in interferers:
        for lo, hi in sp.support():
            edges |= {_wrap(lo + shift), _wrap(hi + shift)}

    total = 0.0
    for lo, hi in spectrum.support():
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
