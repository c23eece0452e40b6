"""Monte-Carlo harness: multi-user uplink sounding with inter-cell
contamination, per-user estimation quality, and TDD downlink beamforming.

Two channel models share one trial path, which works in the (M, P) layout:
one row of P window slots per antenna, so every FFT runs along the contiguous
axis. A model draws a process's window and its downlink sample together with
the draw in its own basis. It also provides its covariance, as the first
column of the Hermitian Toeplitz matrix or as the P x P matrix, for the
observation covariance. Users share one model on the Clarke spectrum;
contamination is a second instance of the same class on the flat-band
spectrum.

The configured scheme alone picks the window, the pilots and the solver
(`_setup`). The PSD-aligned scheme sends cyclic-shift (exponential-ramp)
pilots at the per-user shifts of `user_shifts`, in slots, so the observation
covariance is Hermitian Toeplitz, and trials solve with its inverse written
through circulant and skew-circulant factors (`psdalign.toeplitz`): no P x P
array is formed, and every transform has length P. The Hadamard scheme sends
the rows of a Hadamard matrix over a window of one slot per user and factors
the dense matrix by Cholesky. The scheme and the model together pick the
trial's estimate stage, which turns the solved block z into every user's
error power and last-slot estimate h_hat_k = sqrt(rho) R (conj(x_k) z).

- `CirculantModel` (the default) draws the window-stationary process whose
  covariance is the circulant picture the large-P analysis works in, and lets
  the estimator use exactly that model, so desk-scale runs converge to the
  asymptotic formulas. That covariance is diagonal on the DFT grid, so the
  model keeps each draw's spectrum and estimates there, on the few bins of
  the user's Doppler band where its eigenvalues are nonzero: the window and
  the estimator's spectrum are the inverse DFT and the DFT restricted to
  those bins (an inverse FFT and an FFT when there are more than
  `DFT_MAX_SUPPORT`), the error power follows by Parseval, and the last-slot
  estimate is one row of the inverse DFT.
- `ExactModel` draws samples with the exact Toeplitz statistics of the
  underlying continuous-time process; its window-averaged error converges to
  the same limit but visibly slower, which is itself one of the toolkit's
  cross-checks. A draw sums complex exponentials at the nodes of a quadrature
  of the spectral measure, h = Phi c, through the type-1 NUFFT of
  `psdalign.nufft` (directly for the few nodes of a narrow Clarke band): no
  P x Q matrix is kept for a wide band. The same nodes give the window's
  covariance, R = Phi_P A Phi_P^H with A the squared amplitudes, so with
  ramp pilots a user with few nodes (below `NODE_BASIS_PER_OCTAVE`, the
  default user at every P) keeps c, (M, Q), and estimates as the circulant
  model does on its bins: R W = (W conj(Phi_P) A) Phi_P^T, an (M, P) @ (P, Q)
  product, the error power a Q x Q form with the Gram matrix of Phi_P, and
  the last-slot estimate one row of Phi_P. The trial then takes no transform
  beyond the solve's six and the contamination's grid. A user with more
  nodes estimates in the time domain, against what each user sent,
  sqrt(rho) x_k h_k, which the trial forms for the observation anyway. With
  T(c) the Hermitian Toeplitz matrix of first column c, R = T(r), and a ramp
  pilot, R Diag(conj(x_k)) = Diag(conj(x_k)) T(r x_k), so
  sqrt(rho) x_k h_hat_k is z times a Hermitian Toeplitz matrix of the user's
  own, whose split symbols the set-up builds once: all K products start
  from the same fft(z) and fft(D z) and take two inverse FFTs each
  (`_shared_transforms`), 2 + 2K transforms against 4K for separate
  products. Hadamard pilots, on their window of K slots, take a dense
  product with the K x K covariance (`_dense_products`) at any node count:
  one batched product there is faster than node coordinates user by user.

`run_experiment` gives each worker a contiguous block of trials and one
`Workspace`, which its first trial fills with the blocks every trial reuses:
the white draws (`complex_normal` with `out=`) and their float scratch plane,
the observation, the window, the solve's two blocks and the bases. The
circulant model's FFTs and the solve's six run in place there, so after the
first trial a circulant trial allocates no (M, P) block. The exact model's
draws write their sums, and a gridded NUFFT its grid, into the workspace,
and its estimates allocate only (M, Q) blocks; its shared transforms run in
the solve's blocks and in those of the observation and the noise, which
nothing reads once the solve returns. What an exact trial still allocates
is the (G, 2M) float block of the gridded NUFFT's sparse spreading product.
"""

import functools
import json
import logging
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve, circulant
from scipy.linalg.blas import zgemm

from . import estimation, pilots
from .config import ExperimentConfig  # noqa: F401  (re-exported: psdalign.simkit.ExperimentConfig)
from .fading import DopplerSpectrum, build_covariance, complex_normal, grid_frequencies
from .nufft import Type1
from .toeplitz import HermitianToeplitz, ToeplitzInverse, ToeplitzProducts

log = logging.getLogger(__name__)

CSV_SCHEMA = "psdalign.csv.v1"
MANIFEST_SCHEMA = "psdalign.manifest.v1"

# staggered ladder clearing the default contamination band: 3/8 + k/36
PRESET_SHIFT_GRID = tuple(3.0 / 8.0 + (k + 1) / 36.0 for k in range(8))


@dataclass(frozen=True)
class RunResult:
    """Per-user outcomes of one (scheme, P) run plus the replay seeds."""

    scheme: str
    P: int
    nmse_empirical: tuple
    nmse_halfwidth: tuple
    nmse_analytic: float
    nmse_model: float
    gain_empirical_db: tuple
    gain_halfwidth_db: tuple
    gain_analytic_db: float | None
    dl_se_per_user: tuple | None
    dl_se_sum: float | None
    dl_se_halfwidth: float | None
    rx_power_per_antenna: float
    trial_seeds: tuple


def user_shifts(config, P):
    """Per-user cyclic shifts of the PSD-aligned scheme, in slots in [0, P).

    `auto` takes the planner's shifts as they are; `preset` and an explicit
    list give fractions of the window, taken modulo 1.
    """
    if config.shifts == "auto":
        bands = [config.contamination_band] if config.contamination_band else []
        return pilots.plan_alignment([config.max_doppler] * config.users, bands, P).shifts
    if config.shifts == "preset":
        cycles = [PRESET_SHIFT_GRID[k % 8] + (k // 8) / 36.0 for k in range(config.users)]
    else:
        cycles = config.shifts
    return tuple((float(c) % 1.0 * P) % P for c in cycles)


def alignment_plan(config, P=None):
    """The alignment plan implied by the configuration (PSD-aligned scheme)."""
    if config.scheme == "hadamard":
        raise ValueError("the conventional scheme has no alignment plan")
    P = P or config.observation_length
    bands = (config.contamination_band,) if config.contamination_band else ()
    plan = pilots.AlignmentPlan(
        dopplers=(config.max_doppler,) * config.users,
        shifts=user_shifts(config, P),
        P=P,
        forbidden=bands,
    )
    problems = plan.validate()
    if problems:
        raise pilots.PlanInfeasibleError(
            "alignment plan violates its invariants:\n  " + "\n  ".join(problems),
            width_deficit=float("nan"),
        )
    return plan


def _model_eigenvalues(spectrum, P):
    """Clamped circulant eigenvalues renormalized to the exact process power."""
    cov = build_covariance(spectrum, P)
    lam = cov.eigenvalues.copy()
    total = lam.sum()
    if total > 0:
        lam *= P * spectrum.power / total
    return lam


class Workspace:
    """The arrays one worker's trials reuse, by name.

    `get` returns a C-contiguous view of the named buffer in the shape asked
    for; each name holds one dtype. A buffer is allocated only when its name
    asks for more than it holds, so after a worker's first trial its trials
    allocate no block.
    """

    def __init__(self):
        self._buffers = {}

    def get(self, name, shape, dtype=complex):
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _white(rng, shape, ws):
    """complex_normal(rng, shape) in the workspace's white block."""
    return complex_normal(rng, shape, out=ws.get("white", shape), scratch=ws.get("plane", shape, float))


class ChannelDraw(NamedTuple):
    """One draw of M antennas, in the (M, P) layout.

    `window` holds the P window slots, `downlink` the (M,) sample `dl_lag`
    slots past them, and `basis` the draw as the trial keeps it for its
    estimate stage: the spectrum on the support bins for the circulant model;
    the strengths c of the synthesis nodes, (M, Q), for a nodal exact model;
    otherwise the window itself, which the trial then modulates in place into
    what the user sent, sqrt(rho) x_k h_k. A draw into a `Workspace` may keep
    its arrays there, until the next draw into the same workspace.
    """

    window: np.ndarray
    downlink: np.ndarray
    basis: np.ndarray


# support bins up to which the restricted inverse DFT, (M, S) @ (S, P), and
# its transpose beat an inverse FFT and an FFT of the whole spectrum (measured
# with M = 16 at P = 512-4096 on one BLAS thread: 0.6-0.8 of the FFTs' time
# at S = 32, 1.1-1.2 at S = 37)
DFT_MAX_SUPPORT = 32


def _inverse_dft_row(P, n):
    """Row n of the inverse DFT: slot n of ifft(c) is this row dotted with c."""
    return np.exp(2j * np.pi * np.arange(P) * n / P) / P


def _dft_phases(bins, slots, P):
    """exp(2j*pi*f*n/P) for each bin f and slot n, from the integer f*n reduced modulo P."""
    return np.exp((2j * np.pi / P) * (np.multiply.outer(bins, slots) % P))


class CirculantModel:
    """Window-stationary draws from the renormalized circulant eigenvalues.

    A draw's spectrum is c = sqrt(P lam) g for white g, the DFT of the window
    h = ifft(c). It is zero off the support of the clamped eigenvalues, which
    for a Doppler band of width 2F holds about 2FP of the P bins, so the basis
    is c on the support only, (M, S). With few support bins the window and the
    estimator's spectrum are the restricted inverse DFT and DFT, (M, S) @ (S, P)
    and (M, P) @ (P, S); with more than `DFT_MAX_SUPPORT` they are an inverse
    FFT of the whole spectrum, taken in place, and an FFT gathered on the
    support. The downlink sample lies `dl_lag` slots past the window, on the
    periodic extension. The P x P covariance is built on request and not
    kept: only the dense observation covariance needs it.
    """

    def __init__(self, spectrum, P, dl_lag=0):
        self.P = P
        self.lam = _model_eigenvalues(spectrum, P)
        self.support = np.flatnonzero(self.lam)
        self._support_lam = self.lam[self.support]
        self._last = _inverse_dft_row(P, P - 1)[self.support]
        self._dl = _inverse_dft_row(P, P - 1 + dl_lag)[self.support]
        self._synthesis = self._analysis = None
        # sqrt(P lam) on the bins a draw scales, complex so that its product
        # with the white block casts nothing: the support bins, and on the
        # FFT branch every bin
        self._support_scale = np.sqrt(P * self._support_lam).astype(complex)
        if self.support.size <= DFT_MAX_SUPPORT:
            slots = np.arange(P)
            self._synthesis = _dft_phases(self.support, slots, P) / P
            self._analysis = _dft_phases(slots, -self.support, P)
        else:
            self._scale = np.sqrt(P * self.lam).astype(complex)

    def column(self):
        """First column of the circulant covariance."""
        return np.fft.ifft(self.lam)

    def covariance(self):
        return circulant(self.column())

    def window(self, rng, M, ws=None):
        """The (M, P) window of one draw, without its downlink sample; the FFT branch forms no basis."""
        return self._window(rng, M, Workspace() if ws is None else ws)[0]

    def draw(self, rng, M, ws=None):
        """A ChannelDraw; the basis is the window's DFT on the support, (M, S)."""
        ws = Workspace() if ws is None else ws
        window, basis = self._window(rng, M, ws)
        if basis is None:
            # the FFT branch formed the window without it: gather it from the
            # white block, still in the workspace
            basis = self._basis(ws.get("white", (self.P, M)), ws)
        return ChannelDraw(window, basis @ self._dl, basis)

    def _window(self, rng, M, ws):
        """The (M, P) window of one draw, and the basis it was formed from (None on the FFT branch)."""
        # the full (P, M) draw, transposed: the random stream of the (P, M) layout
        white = _white(rng, (self.P, M), ws)
        window = ws.get("window", (M, self.P))
        if self._synthesis is not None:
            basis = self._basis(white, ws)
            np.matmul(basis, self._synthesis, out=window)
            return window, basis
        # the spectrum, zero off the support, becomes the window in place;
        # a product straight from the transposed white block would take
        # numpy two iteration buffers, as large as the block at M=16, P=1024
        np.copyto(window, white.T)
        window *= self._scale
        np.fft.ifft(window, out=window)
        return window, None

    def _basis(self, white, ws):
        """The spectrum of the draw with (P, M) white block `white` on the support bins, (M, S)."""
        basis = ws.get("basis", (white.shape[1], self.support.size))
        return np.multiply(white[self.support].T, self._support_scale, out=basis)

    def estimate(self, basis, W, ws=None):
        """Error power and (M,) last-slot estimate of h_hat = R W for an (M, P) block W.

        The error power is the mean of |h - h_hat|^2 over the window, with h
        the draw whose basis is given: by Parseval, ||c - fft(h_hat)||^2 / (P^2 M),
        summed over the support alone, since off it both spectra are zero. On
        the FFT branch the transform of W goes into `ws` when one is given.
        """
        if self._analysis is not None:
            E = W @ self._analysis
        else:
            E = np.fft.fft(W, out=None if ws is None else ws.get("spectrum", W.shape))[:, self.support]
        E *= self._support_lam
        last = E @ self._last
        E -= basis
        return float(np.vdot(E, E).real) / (W.size * self.P), last

    def mse(self, power, noise_var):
        """Interference-free per-element MSE of the estimator under this model."""
        return estimation.mse_from_eigenvalues(self.lam, power, noise_var)


# synthesis nodes per octave of 2(P + dl_lag) up to which the exact model with
# ramp pilots estimates in the coordinates of its nodes, an (M, P) @ (P, Q)
# product and a Q x Q form a user, rather than on shared transforms, two
# inverse FFTs a user (measured on default trials, M = 16 and K = 8, on one
# BLAS thread: the two break even at Q = 80, 92-111 and 117 for P = 512, 1024
# and 4096, where this gives 80, 88 and 104); half of `nufft.Type1`'s rule, so
# below it the synthesis holds its phases
NODE_BASIS_PER_OCTAVE = 8


class ExactModel:
    """Exact Toeplitz statistics, drawn from a quadrature of the spectral measure.

    Draws as CirculantModel does. One draw synthesizes the window and the
    `dl_lag` slots after it, so the downlink sample is exactly as correlated
    with the window as in the process: h = Phi c, sum_q c_q exp(2j*pi*n*xi_q)
    for n = 0..P-1+dl_lag with c = amp * g for white g, a type-1 NUFFT of the
    nodes xi_q (`nufft.Type1`, which keeps the direct sum for few nodes). The
    P x P covariance is a read-only view handed out on request
    (`covariance`), and `toeplitz`, the product with R alone, serves
    criterion 10a.

    The same nodes reproduce the autocorrelation on the window, so
    R = Phi_P A Phi_P^H with A = Diag(amp^2) and Phi_P the window's P rows of
    Phi. With `node_basis` and at most `NODE_BASIS_PER_OCTAVE`
    log2(2(P + dl_lag)) nodes the model is `nodal`: the basis of a draw is c,
    (M, Q), and `estimate` and `mse` work in node coordinates, on the Gram
    matrix of Phi_P, built when first used. Otherwise the basis is the
    window, and the trial's estimate stage forms each user's product with R
    together with the user's pilot (`_shared_transforms`, `_dense_products`).
    """

    def __init__(self, spectrum, P, dl_lag=0, node_basis=True):
        self.P = P
        self.cov = build_covariance(spectrum, P)
        self.toeplitz = HermitianToeplitz(self.column())
        xi, self.amp = spectrum.synthesis_nodes(max_lag=P - 1 + dl_lag)
        self.synthesis = Type1(xi, P + dl_lag)
        few = xi.size <= NODE_BASIS_PER_OCTAVE * math.log2(2 * (P + dl_lag))
        self.nodal = node_basis and few and self.synthesis.phases is not None

    @functools.cached_property
    def _gram(self):
        """The Gram matrix Phi_P^T conj(Phi_P): |Phi_P e|^2 = e G e^H for a row e."""
        window = self.synthesis.phases[: self.P]
        return window.T @ np.conj(window)

    def column(self):
        """First column of the Toeplitz covariance: the autocorrelation at lags 0..P-1."""
        return np.asarray(self.cov.values, dtype=complex)

    def covariance(self):
        """The P x P Toeplitz covariance, as a read-only view (`ChannelCovariance.toeplitz`).

        The view takes O(P) memory; `.copy()` gives a writable matrix.
        """
        return self.cov.toeplitz()

    def window(self, rng, M, ws=None):
        """The (M, P) window of one draw: `draw`'s window, with nothing left out."""
        return self.draw(rng, M, ws).window

    def draw(self, rng, M, ws=None):
        """A ChannelDraw; the basis is c, (M, Q), when the model is nodal, and the window otherwise."""
        ws = Workspace() if ws is None else ws
        strengths = _white(rng, (self.amp.size, M), ws)
        np.multiply(self.amp[:, None], strengths, out=strengths)
        synthesis = self.synthesis
        grid = None if synthesis.grid_size is None else ws.get("grid", (M * synthesis.grid_size,))
        block = synthesis(strengths, out=ws.get("synthesis", (M * synthesis.N,)), grid=grid)
        window = block[:, : self.P]
        return ChannelDraw(window, block[:, -1], strengths.T if self.nodal else window)

    def estimate(self, basis, W, ws=None):
        """Error power and (M,) last-slot estimate of h_hat = R W for an (M, P) block W, in node coordinates.

        h_hat = a Phi_P^T with a = (W conj(Phi_P)) A, so the error against the
        draw whose basis c is given is (c - a) Phi_P^T, and its mean power over
        the window is sum_m e_m G e_m^H / (M P) with e = c - a. Only a nodal
        model estimates; `ws` is not used.
        """
        window = self.synthesis.phases[: self.P]
        # W conj(Phi_P) in one BLAS product with the conjugate transpose of
        # Phi_P^T, so that no conjugate copy of the phases is kept
        a = zgemm(1.0, W.T, window.T, trans_a=1, trans_b=2)
        a *= self.amp**2
        last = a @ window[-1]
        a -= basis
        return float(np.vdot(a, a @ self._gram).real) / W.size, last

    def mse(self, power, noise_var):
        """Interference-free per-element MSE: sigma^2 (P - sigma^2 tr(B^{-1})) / (rho P).

        B = sigma^2 I + rho R is the single-user observation covariance; a
        unit-modulus pilot cancels from the error covariance
        R - rho R B^{-1} R = (sigma^2 / rho)(I - sigma^2 B^{-1}). A nodal model
        sums over the nonzero eigenvalues mu of R, those of A^(1/2) G A^(1/2):
        sigma^2 sum mu / (sigma^2 + rho mu) / P, which does not cancel. Each
        mu is taken as |Phi_P A^(1/2) conj(v)|^2 for its eigenvector v: the
        Gram form's own eigenvalues are each off by about eps * P, which moved
        the MSE by 3e-9 at 60 dB and P = 32. Otherwise the trace comes from
        the Toeplitz inverse of B.
        """
        if self.nodal:
            vectors = np.linalg.eigh(self.amp[:, None] * self._gram * self.amp)[1]
            images = self.synthesis.phases[: self.P] @ np.conj(self.amp[:, None] * vectors)
            mu = np.sum(images.real**2 + images.imag**2, axis=0)
            return noise_var * float(np.sum(mu / (noise_var + power * mu))) / self.P
        B = estimation.observation_column(self.P, noise_var, [(power, self.column(), None)])
        inverse = ToeplitzInverse(B)
        return noise_var * (self.P - noise_var * inverse.trace()) / (power * self.P)


_MODELS = {"circulant": CirculantModel, "exact": ExactModel}


def _contamination_spectrum(config):
    """Flat-band spectrum of the inter-cell contamination; None when it is off."""
    if not config.contamination_power > 0:
        return None
    lo, hi = config.contamination_band
    return DopplerSpectrum.flat_band(lo, hi, power=config.contamination_power)


def _scene(config, P, pilot_matrix):
    """The powers, the (K, P) pilots and the channel models of one run."""
    model = _MODELS[config.channel_model]
    cont = _contamination_spectrum(config)
    s = SimpleNamespace(P=P, K=config.users, M=config.antennas, perfect_csi=config.perfect_csi)
    s.rho, s.sigma2 = config.user_power, config.noise_var
    s.sigma2_dl = s.sigma2 if config.dl_snr_db is None else s.rho / 10.0 ** (config.dl_snr_db / 10.0)
    s.pilot_matrix = pilot_matrix
    # what a trial sends, sqrt(rho) x_k, and its estimator weights, sqrt(rho) conj(x_k)
    s.tx = math.sqrt(s.rho) * pilot_matrix
    s.weights = np.conj(s.tx)
    # Hadamard pilots keep the exact model's window at any node count: on
    # their window of K slots one batched dense product is faster than node
    # coordinates user by user
    options = {"node_basis": config.scheme != "hadamard"} if config.channel_model == "exact" else {}
    s.user = model(DopplerSpectrum.clarke(config.max_doppler), P, config.dl_lag, **options)
    s.cont = None if cont is None else model(cont, P)
    # the exact model above its node-basis crossover, or with Hadamard
    # pilots, estimates in the time domain, together with each user's pilot
    s.in_time = config.channel_model == "exact" and not s.user.nodal
    return s


def _setup(config, P):
    """Precompute everything shared by all trials of one (scheme, P) run.

    The scheme alone picks the window length, the pilots and the solver.
    Cyclic-shift pilots are exponential ramps, so E[y y^H] is Hermitian
    Toeplitz and its first column determines it. Hadamard pilots take a window
    of one slot per user and factor the dense matrix by Cholesky. Each builder
    takes a (power, covariance, pilot) term per user, then the contamination's
    unmodulated term, whose power is part of its spectrum. A model that
    estimates on its own basis, the circulant model or a nodal exact model
    (ramp pilots, few nodes), takes the users one at a time (`_each_user`);
    any other exact model forms each user's product with R and its pilot in
    the time domain.
    """
    if config.scheme == "hadamard":
        P = config.users
        s = _scene(config, P, np.stack([p.values for p in pilots.hadamard_pilots(P)]))
        R = s.user.covariance()
        terms = [(s.rho, R, x) for x in s.pilot_matrix]
        if s.cont is not None:
            terms.append((1.0, s.cont.covariance(), None))
        factor = cho_factor(estimation.observation_matrix(P, s.sigma2, terms), lower=True)
        s.solve = lambda y, buffers: cho_solve(factor, y)
        if s.in_time:
            # Diag(sqrt(rho) x_k) R Diag(conj(sqrt(rho) x_k)), transposed for the (M, P) layout
            s.products = s.weights[:, :, None] * R.T * s.tx[:, None, :]
            s.estimate = _dense_products
    else:
        s = _scene(config, P, np.stack([pilots.fft_pilot(tau, P).values for tau in user_shifts(config, P)]))
        r = s.user.column()
        terms = [(s.rho, r, x) for x in s.pilot_matrix]
        if s.cont is not None:
            terms.append((1.0, s.cont.column(), None))
        s.solve = ToeplitzInverse(estimation.observation_column(P, s.sigma2, terms)).solve
        if s.in_time:
            # a user's own term, rho Diag(x_k) R Diag(x_k)^H, is Hermitian Toeplitz
            s.products = ToeplitzProducts(estimation.observation_column(P, 0.0, [term]) for term in terms[: s.K])
            s.estimate = _shared_transforms
    if not s.in_time:
        s.estimate = _each_user
    s.nmse_model = s.user.mse(s.rho, s.sigma2)
    snr = s.rho / s.sigma2
    s.nmse_analytic = estimation.small_alpha_mse(config.max_doppler, snr)
    s.gain_analytic_db = estimation.processing_gain_db(config.max_doppler, snr)
    return s


def _sound(s, rng, ws):
    """One trial's uplink: per-user error power, received power, and the
    (K, M) downlink truths and the estimates that steer the beams.

    Its blocks live in the workspace `ws`, which it overwrites.
    """
    # fixed draw order: users, then contamination, then noise; each user's
    # window is added to y as soon as it is drawn, and only its basis is kept
    y = ws.get("y", (s.M, s.P))
    y.fill(0)
    truths = np.empty((s.K, s.M), dtype=complex)
    window_ends = np.empty_like(truths)
    for k in range(s.K):
        window, truths[k], basis = s.user.draw(rng, s.M, ws)
        if k == 0:
            kept = ws.get("bases", (s.K, *basis.shape))
        if s.perfect_csi:
            window_ends[k] = window[:, -1]
        y += np.multiply(s.tx[k], window, out=window)
        # a basis that is the window (the exact model in the time domain)
        # keeps the term the user sent
        kept[k] = basis
    if s.cont is not None:
        y += s.cont.window(rng, s.M, ws)
    noise = _white(rng, (s.P, s.M), ws)
    noise *= math.sqrt(s.sigma2)
    y += noise.T

    rx_power = float(np.vdot(y, y).real) / y.size

    blocks = ws.get("solve", (2, s.M, s.P))
    Z = s.solve(y.T, blocks).T
    nmse, last = s.estimate(s, Z, blocks, kept, ws)
    return nmse, rx_power, truths, window_ends if s.perfect_csi else last


def _each_user(s, Z, blocks, kept, ws):
    """The estimate stage that hands the model each user's weights times the solve's output.

    The model's `estimate` turns that (M, P) block into the user's error
    power and last-slot estimate against the basis the trial kept.
    """
    W = blocks[1]  # the solve's work block, free once it returns
    nmse = np.empty(s.K)
    last = np.empty((s.K, s.M), dtype=complex)
    for k in range(s.K):
        # per-element error power == ||err||^2 / (P * r0) per antenna with r0 = 1
        nmse[k], last[k] = s.user.estimate(kept[k], np.multiply(s.weights[k], Z, out=W), ws)
    return nmse, last


def _sent_errors(s, estimates, kept):
    """Per-user error power and (K, M) last-slot estimates from E_k = sqrt(rho) x_k h_hat_k.

    `estimates` yields each E_k, which this overwrites, and `kept` holds what
    each user sent, sqrt(rho) x_k h_k. A pilot of unit modulus leaves
    |E_k - sent_k|^2 / rho = |h_hat_k - h_k|^2, and the estimator weight
    conj(sqrt(rho) x_k) over rho turns E_k's last slot into h_hat_k's.
    """
    nmse = np.empty(s.K)
    last = np.empty((s.K, s.M), dtype=complex)
    for k, (E, sent) in enumerate(zip(estimates, kept)):
        np.multiply(E[:, -1], s.weights[k, -1] / s.rho, out=last[k])
        E -= sent
        nmse[k] = float(np.vdot(E, E).real) / (s.rho * E.size)
    return nmse, last


def _shared_transforms(s, Z, blocks, kept, ws):
    """The exact model's estimate stage for ramp pilots: every user from the same two forward FFTs.

    sqrt(rho) x_k h_hat_k = rho Diag(x_k) R Diag(x_k)^H z, and for a ramp x_k
    that matrix is Hermitian Toeplitz, `s.products`' k-th. Its products with
    z share fft(z) and fft(D z), taken in place in the solve's blocks, and
    take two inverse FFTs each, in the blocks of y and of the noise's white
    draw, which nothing reads once the solve returns.
    """
    spectra = s.products.spectra(Z, out=blocks)  # Z is blocks[0]
    E, work = ws.get("y", Z.shape), ws.get("white", Z.shape)
    return _sent_errors(s, (s.products.product(k, spectra, E, work) for k in range(s.K)), kept)


def _dense_products(s, Z, blocks, kept, ws):
    """The exact model's estimate stage for Hadamard pilots, on their window of one slot per user.

    sqrt(rho) x_k h_hat_k = Diag(sqrt(rho) x_k) R Diag(conj(sqrt(rho) x_k)) z,
    a dense product with the P x P covariance: in the (M, P) layout, Z times
    the transpose of that matrix, `s.products[k]`.
    """
    return _sent_errors(s, np.matmul(Z, s.products), kept)


def _matched_filter_se(s, truths, estimates):
    """Per-user downlink SE of matched-filter beams steered by the (K, M) estimates.

    A user whose estimate is exactly zero gets no beam: its SE is 0 and it
    interferes with no one.
    """
    norms = np.linalg.norm(estimates, axis=1)
    for k in np.flatnonzero(norms == 0.0):
        log.warning("zero-norm estimate for user %d; skipping its beam", k)
    active = norms != 0.0
    beams = estimates[active] / norms[active, None]
    # gain[k, g] = rho |h_k^H w_g|^2 between the active users: the downlink
    # sends at the users' uplink power
    gain = s.rho * np.abs(np.conj(truths[active]) @ beams.T) ** 2
    signal = np.diag(gain)
    interference = (gain - np.diag(signal)).sum(axis=1)
    se = np.zeros(s.K)
    se[active] = np.log2(1.0 + signal / (interference + s.sigma2_dl))
    return se


def _halfwidth(samples):
    """95% confidence half-width of the mean over axis 0; zero below two samples."""
    if len(samples) < 2:
        return np.zeros(samples.shape[1:])
    return 1.96 * samples.std(axis=0, ddof=1) / math.sqrt(len(samples))


def _with_none(values, keep):
    """values as a tuple of floats, None where keep is False."""
    return tuple(float(v) if k else None for v, k in zip(values, keep))


def run_experiment(config, P=None, include_dl=True):
    """Run one (scheme, P) experiment; returns a RunResult.

    Trials use independent, replayable random streams seeded by
    (config.seed, scheme, P, trial). Each of `jobs` workers runs a contiguous
    block of trials in one `Workspace` of its own, on a thread pool when there
    is more than one; results come back in trial order and the reduction order
    is fixed, so they do not depend on `jobs`.
    """
    P = int(P or config.observation_length)
    s = _setup(config, P)
    scheme_tag = 0 if config.scheme == "psd_align" else 1
    seeds = [(config.seed, scheme_tag, s.P, t) for t in range(config.trials)]

    def run_block(trials):
        ws = Workspace()
        outs = []
        for t in trials:
            nmse, rx_power, truths, estimates = _sound(s, np.random.default_rng(list(seeds[t])), ws)
            outs.append((nmse, rx_power, _matched_filter_se(s, truths, estimates) if include_dl else None))
        return outs

    workers = min(config.jobs, config.trials)
    if workers > 1:
        blocks = [range(w * config.trials // workers, (w + 1) * config.trials // workers) for w in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outs = [out for block in pool.map(run_block, blocks) for out in block]
    else:
        outs = run_block(range(config.trials))
    nmse_outs, rx_outs, se_outs = zip(*outs)

    nmse_trials = np.stack(nmse_outs)
    snr = s.rho / s.sigma2
    gain_trials = (1.0 / nmse_trials - 1.0) / snr
    gain_mean = gain_trials.mean(axis=0)
    # a mean gain <= 0 has no dB value; such users get None, written as nan
    has_gain = gain_mean > 0
    if not has_gain.all():
        log.warning(
            "no processing gain (mean gain <= 0) for users %s at P=%d; gain written as nan",
            np.flatnonzero(~has_gain).tolist(), s.P,
        )
    gain_mean = np.where(has_gain, gain_mean, 1.0)
    gain_db = 10.0 * np.log10(gain_mean)
    gain_hw_db = 10.0 / math.log(10.0) * _halfwidth(gain_trials) / gain_mean

    dl_per_user = dl_se_sum = dl_se_hw = None
    if include_dl:
        se_trials = np.stack(se_outs)
        se_sum_trials = se_trials.sum(axis=1)
        dl_per_user = tuple(se_trials.mean(axis=0).tolist())
        dl_se_sum = float(se_sum_trials.mean())
        dl_se_hw = float(_halfwidth(se_sum_trials))

    return RunResult(
        scheme=config.scheme,
        P=s.P,
        nmse_empirical=tuple(nmse_trials.mean(axis=0).tolist()),
        nmse_halfwidth=tuple(_halfwidth(nmse_trials).tolist()),
        nmse_analytic=float(s.nmse_analytic),
        nmse_model=float(s.nmse_model),
        gain_empirical_db=_with_none(gain_db, has_gain),
        gain_halfwidth_db=_with_none(gain_hw_db, has_gain),
        gain_analytic_db=s.gain_analytic_db,
        dl_se_per_user=dl_per_user,
        dl_se_sum=dl_se_sum,
        dl_se_halfwidth=dl_se_hw,
        rx_power_per_antenna=float(np.mean(rx_outs)),
        trial_seeds=tuple(seeds),
    )


def run_uplink(config, P=None):
    """Uplink sounding run: per-user nMSE and processing gain."""
    return run_experiment(config, P=P, include_dl=False)


def _shifted_psd_samples(spectrum, P, shift_cycles):
    """Grid samples of a spectrum translated on the frequency circle."""
    xi = estimation._wrap(grid_frequencies(P) - shift_cycles)
    vals = np.atleast_1d(spectrum.psd(xi))
    # a singular band edge landing exactly on a bin carries no mass
    return np.where(np.isfinite(vals), vals, 0.0)


def user_reports(config, result=None, P=None):
    """Per-user EstimationReport tying together every MSE route for one run.

    Finite-P values use the grid-sampled spectra (the eigenvalue picture of
    the estimator); the asymptotic value integrates the same configuration.
    Empirical fields are filled from `result` when provided.
    """
    P = result.P if result is not None else int(P or config.observation_length)
    rho, sigma2, F = config.user_power, config.noise_var, config.max_doppler
    snr = rho / sigma2
    spectrum = DopplerSpectrum.clarke(F)
    lam = spectrum.sample_eigenvalues(P)
    shifts = user_shifts(config, P) if config.scheme == "psd_align" else (0.0,) * config.users
    cycles = [tau / P for tau in shifts]
    cont = _contamination_spectrum(config)
    alpha = math.pi * F / snr
    reports = []
    for k in range(config.users):
        interference = np.zeros(P)
        interferers = []
        for g in range(config.users):
            if g == k:
                continue
            delta = cycles[g] - cycles[k]
            interference += rho * _shifted_psd_samples(spectrum, P, delta)
            interferers.append((spectrum, delta, rho))
        if cont is not None:
            interference += _shifted_psd_samples(cont, P, -cycles[k])
            interferers.append((cont, -cycles[k], 1.0))
        reports.append(
            estimation.EstimationReport(
                finite_p_mse=estimation.mse_from_eigenvalues(lam, rho, sigma2, interference),
                interference_free_mse=estimation.mse_from_eigenvalues(lam, rho, sigma2),
                asymptotic_mse=estimation.asymptotic_mse(spectrum, rho, sigma2, interferers),
                closed_form_mse=estimation.clarke_closed_form(alpha),
                small_alpha_mse=estimation.small_alpha_mse(F, snr),
                processing_gain_db=estimation.processing_gain_db(F, snr),
                empirical_nmse=result.nmse_empirical[k] if result is not None else None,
                empirical_halfwidth=result.nmse_halfwidth[k] if result is not None else None,
            )
        )
    return reports


def run_downlink(config, P=None):
    """Uplink sounding plus TDD downlink matched-filter beamforming."""
    return run_experiment(config, P=P, include_dl=True)


# ---------------------------------------------------------------------------
# file outputs


def atomic_write_text(path, text):
    """Write text to path atomically (temp file in the same directory + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fmt(x):
    if x is None:
        return "nan"
    return format(float(x), ".12g")


def write_mse_csv(results, path):
    lines = [f"# schema: {CSV_SCHEMA}", "scheme,P,user,empirical,analytic,ci_halfwidth"]
    for r in results:
        for k, (emp, hw) in enumerate(zip(r.nmse_empirical, r.nmse_halfwidth)):
            lines.append(f"{r.scheme},{r.P},{k},{_fmt(emp)},{_fmt(r.nmse_analytic)},{_fmt(hw)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_gain_csv(results, path):
    lines = [f"# schema: {CSV_SCHEMA}", "scheme,P,user,empirical_db,analytic_db,ci_halfwidth_db"]
    for r in results:
        for k, (emp, hw) in enumerate(zip(r.gain_empirical_db, r.gain_halfwidth_db)):
            lines.append(
                f"{r.scheme},{r.P},{k},{_fmt(emp)},{_fmt(r.gain_analytic_db)},{_fmt(hw)}"
            )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_dlse_csv(results, path):
    lines = [f"# schema: {CSV_SCHEMA}", "scheme,P,user,empirical,analytic,ci_halfwidth"]
    for r in results:
        if r.dl_se_per_user is None:
            continue
        for k, se in enumerate(r.dl_se_per_user):
            lines.append(f"{r.scheme},{r.P},{k},{_fmt(se)},nan,{_fmt(r.dl_se_halfwidth)}")
        lines.append(f"{r.scheme},{r.P},sum,{_fmt(r.dl_se_sum)},nan,{_fmt(r.dl_se_halfwidth)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_aggregate_dat(results, path):
    """Gnuplot-friendly aggregate: one row per (P), one column block per scheme."""
    by_p = {}
    schemes = []
    for r in results:
        if r.scheme not in schemes:
            schemes.append(r.scheme)
        entry = by_p.setdefault(r.P, {})
        entry[r.scheme] = r
    cols = ["P"]
    for sch in schemes:
        cols += [f"{sch}_nmse", f"{sch}_gain_db", f"{sch}_dl_se_sum"]
    lines = [f"# schema: {CSV_SCHEMA}", "# " + " ".join(cols)]
    for P in sorted(by_p):
        row = [str(P)]
        for sch in schemes:
            r = by_p[P].get(sch)
            if r is None:
                row += ["nan", "nan", "nan"]
            else:
                row += [
                    _fmt(np.mean(r.nmse_empirical)),
                    _fmt(None if None in r.gain_empirical_db else np.mean(r.gain_empirical_db)),
                    _fmt(r.dl_se_sum),
                ]
        lines.append(" ".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_manifest(config, results, path):
    doc = {
        "schema": MANIFEST_SCHEMA,
        "config": config.to_dict(),
        "runs": [
            {
                "scheme": r.scheme,
                "P": r.P,
                "trial_seeds": [list(t) for t in r.trial_seeds],
            }
            for r in results
        ],
    }
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
