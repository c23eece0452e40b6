"""Monte-Carlo harness: multi-user uplink sounding with inter-cell
contamination, per-user estimation quality, and TDD downlink beamforming.

Two channel models share one trial path, in the (M, P) layout: one row of P
window slots per antenna, so every FFT runs along the contiguous axis. Both
draw a process as a sum of complex exponentials at their nodes,
h(n) = sum_q b_q exp(2j*pi*n*xi_q), with the (Q, M) strengths b as its basis,
and provide the covariance as a first column or as the P x P matrix. Users
share one model on the Clarke spectrum; contamination is a second instance of
the same class on the flat-band spectrum.

The configured scheme alone picks the window, the pilots and the solver
(`_setup`). The PSD-aligned scheme sends ramp pilots
x_k(n) = exp(2j*pi*tau_k*n/P) at the shifts of `user_shifts`, so the
observation covariance is Hermitian Toeplitz, and trials solve through its
circulant and skew-circulant factors (`psdalign.toeplitz`) with no P x P
array. A ramp moves user k's nodes to xi_q + tau_k/P, so what the K users
send is one sum over the stacked nodes, formed by one gridded type-1 NUFFT
(`psdalign.nufft`); its adjoint applied to the solve's output z gives every
user's sums Phi^H (conj(x_k) z), whose multiples by sqrt(rho) R's node gains
are the coordinates of h_hat_k = sqrt(rho) R (conj(x_k) z)
(`_node_coordinates`). A default trial takes the solve's six transforms, the
contamination's one and the users' two of length 2P. The Hadamard scheme
sends the rows of a Hadamard matrix over a window of one slot per user,
factors the dense matrix by Cholesky and estimates by dense products with the
K x K covariance (`_dense_products`).

- `CirculantModel` (the default) draws the window-stationary process whose
  covariance is the circulant picture the large-P analysis works in, and lets
  the estimator use exactly that model, so desk-scale runs converge to the
  asymptotic formulas. Its nodes are the bins f/P of the Doppler band where
  the eigenvalues are nonzero; R is diagonal there, with gains lam/P.
- `ExactModel` draws samples with the exact Toeplitz statistics of the
  underlying continuous-time process; its window-averaged error converges to
  the same limit but visibly slower, which is itself one of the toolkit's
  cross-checks. Its nodes are those of a quadrature of the spectral measure,
  R = Phi_P A Phi_P^H on the window. A user with more nodes than
  `NODE_BASIS_PER_OCTAVE` allows estimates against what each user sent,
  sqrt(rho) x_k h_k, synthesized user by user: for a ramp x_k,
  R Diag(conj(x_k)) = Diag(conj(x_k)) T(r x_k) with T(c) Hermitian Toeplitz
  of first column c, so all K products start from the same fft(z) and
  fft(D z) and take two inverse FFTs each (`_shared_transforms`).

`run_experiment` gives each worker a contiguous block of trials and one
`Workspace`, which its first trial fills with the blocks every trial reuses,
so after the first trial a trial allocates no (M, P) block: FFTs run in place
there, and the NUFFTs spread and interpolate a chunk of antennas at a time.
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


def _nufft_buffers(transform, M, P, ws):
    """The grid and the work of a transform on M columns: the white block, free whenever one runs,
    which grows to hold every column's nodes at once when they outnumber the grid's points."""
    if transform.grid_size is None:
        return {}
    size, Q = transform.grid_size, transform.nodes.size
    return {"grid": ws.get("grid", (M * size,)), "work": ws.get("white", (max(P, size + Q if Q > size else 0) * M,))}


def _white(rng, shape, ws, out=None):
    """complex_normal(rng, shape) into `out`, or the workspace's white block when it is not given."""
    out = ws.get("white", shape) if out is None else out
    return complex_normal(rng, shape, out=out, scratch=ws.get("plane", shape, float))


class ChannelDraw(NamedTuple):
    """One draw of M antennas: the (M, P) window, the (M,) sample `dl_lag` slots past it, the (Q, M) basis.

    A draw into a `Workspace` may keep its arrays there, until the next draw into the same workspace.
    """

    window: np.ndarray
    downlink: np.ndarray
    basis: np.ndarray


class CirculantModel:
    """Window-stationary draws from the renormalized circulant eigenvalues.

    A draw's spectrum is c = sqrt(P lam) g for white g, the DFT of the window
    h = ifft(c). It is zero off the support of the clamped eigenvalues, about
    2FP of the P bins for a band of width 2F, so the basis is c/P there,
    (S, M), at the `nodes` f/P; R is diagonal, with `gain` lam/P. The
    downlink sample lies `dl_lag` slots past the window, on the periodic
    extension. The P x P covariance is built on request and not kept.
    """

    def __init__(self, spectrum, P, dl_lag=0):
        self.P, self.nodal = P, True
        self.lam = _model_eigenvalues(spectrum, P)
        self.support = np.flatnonzero(self.lam)
        self.nodes = self.support / P
        self.gain = self.lam[self.support] / P
        # the phases of slots P-1 and P-1+dl_lag
        self.rows = np.exp(2j * np.pi * (self.support * np.array([[P - 1], [P - 1 + dl_lag]]) % P) / P)
        # sqrt(P lam) on every bin, complex so that its product with the
        # white block casts nothing, and sqrt(P lam) / P on the support
        self._scale = np.sqrt(P * self.lam).astype(complex)
        self._basis_scale = np.sqrt(self.gain)[:, None]

    def column(self):
        """First column of the circulant covariance."""
        return np.fft.ifft(self.lam)

    def covariance(self):
        return circulant(self.column())

    def window(self, rng, M, ws=None):
        """The (M, P) window of one draw, without its downlink sample or basis."""
        ws = Workspace() if ws is None else ws
        # the spectrum becomes the window in place, in the grid buffer, which
        # no trial uses then (a product straight from the transposed white
        # block would take numpy two iteration buffers as large as the block)
        window = ws.get("grid", (M, self.P))
        np.copyto(window, _white(rng, (self.P, M), ws).T)
        window *= self._scale
        return np.fft.ifft(window, out=window)

    def draw(self, rng, M, ws=None):
        """A ChannelDraw, its basis gathered from the white block the window was formed from."""
        ws = Workspace() if ws is None else ws
        window = self.window(rng, M, ws)
        basis = self._gather(ws.get("white", (self.P, M)), ws.get("basis", (self.support.size, M)))
        return ChannelDraw(window, self.slots(basis)[1], basis)

    def basis(self, rng, M, out, ws):
        """The (S, M) basis of one draw, into `out`: the random stream of the whole (P, M) draw."""
        return self._gather(_white(rng, (self.P, M), ws), out)

    def _gather(self, white, out):
        np.take(white, self.support, axis=0, out=out, mode="wrap")  # in range: no buffer
        out *= self._basis_scale
        return out

    def slots(self, basis):
        """(2, M): slot P-1 and the downlink sample of the draw with this basis, one row product."""
        return self.rows @ basis

    def errors(self, D):
        """Mean power over the window of the sums with each (S, M) block d of D: ||d||^2 / M, by Parseval."""
        return np.array([np.vdot(d, d).real for d in D]) / D.shape[-1]

    def mse(self, power, noise_var):
        """Interference-free per-element MSE of the estimator under this model."""
        return estimation.mse_from_eigenvalues(self.lam, power, noise_var)


# synthesis nodes per octave of 2(P + dl_lag) up to which the exact model with
# ramp pilots estimates in node coordinates rather than on shared transforms
# (even at Q = 80, 92-111 and 117 for P = 512-4096, M = 16, K = 8, when node
# coordinates took an (M, P) @ (P, Q) product a user); half of Type1's rule
NODE_BASIS_PER_OCTAVE = 8


class ExactModel:
    """Exact Toeplitz statistics, drawn from a quadrature of the spectral measure.

    A draw sums h = Phi b for n = 0..P-1+dl_lag, with the basis b = amp * g
    for white g, through a type-1 NUFFT of the `nodes` (`nufft.Type1`), so
    the downlink sample is exactly as correlated with the window as in the
    process. The P x P covariance is a read-only view handed out on request,
    and `toeplitz`, the product with R alone, serves criterion 10a. On the
    window R = Phi_P A Phi_P^H, with A = Diag(amp^2) the `gain`. With
    `node_basis` and at most `NODE_BASIS_PER_OCTAVE` log2(2(P + dl_lag))
    nodes the model is `nodal`: the trial estimates in node coordinates, and
    the error power and `mse` are forms in the Gram matrix of Phi_P.
    """

    def __init__(self, spectrum, P, dl_lag=0, node_basis=True):
        self.P = P
        self.cov = build_covariance(spectrum, P)
        self.toeplitz = HermitianToeplitz(self.column())
        xi, self.amp = spectrum.synthesis_nodes(max_lag=P - 1 + dl_lag)
        self.synthesis = Type1(xi, P + dl_lag)
        self.nodes = self.synthesis.nodes
        self.gain = self.amp**2
        self.rows = np.exp(2j * np.pi * np.outer([P - 1, P - 1 + dl_lag], self.nodes))
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
        """A ChannelDraw; the window is a view of the workspace's sums."""
        ws = Workspace() if ws is None else ws
        basis = self.basis(rng, M, ws.get("basis", (self.amp.size, M)), ws)
        return ChannelDraw(self.synthesize(basis, ws), self.slots(basis)[1], basis)

    def basis(self, rng, M, out, ws):
        """The (Q, M) basis amp * g of one draw, into `out`."""
        _white(rng, out.shape, ws, out)
        return np.multiply(self.amp[:, None], out, out=out)

    def synthesize(self, basis, ws):
        """The (M, P) window of the draw with this basis, in the workspace."""
        synthesis, M = self.synthesis, basis.shape[1]
        buffers = _nufft_buffers(synthesis, M, self.P, ws)
        return synthesis(basis, out=ws.get("synthesis", (M * synthesis.N,)), **buffers)[:, : self.P]

    def slots(self, basis):
        """(2, M): slot P-1 and the downlink sample of the draw with this basis, one row product."""
        return self.rows @ basis

    def errors(self, D):
        """Mean power over the window of the sums with each (Q, M) block d of D: sum_m d_m^H G^T d_m / (M P)."""
        form = self._gram.T
        return np.array([np.vdot(d, form @ d).real for d in D]) / (D.shape[-1] * self.P)

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
    # what a trial sends, sqrt(rho) x_k; its estimator weights are the conjugates
    s.tx = math.sqrt(s.rho) * pilot_matrix
    # Hadamard pilots estimate by a dense product at any node count (`_setup`),
    # so the exact model there is not nodal and its `mse` takes the Toeplitz route
    options = {"node_basis": config.scheme != "hadamard"} if config.channel_model == "exact" else {}
    s.user = model(DopplerSpectrum.clarke(config.max_doppler), P, config.dl_lag, **options)
    s.cont = None if cont is None else model(cont, P)
    return s


def _setup(config, P):
    """Precompute everything shared by all trials of one (scheme, P) run.

    The scheme alone picks the window length, the pilots and the solver.
    Cyclic-shift pilots are exponential ramps, so E[y y^H] is Hermitian
    Toeplitz and its first column determines it, and the users' part of y is
    one transform over their shifted nodes (`stacked`). Hadamard pilots take a
    window of one slot per user and factor the dense matrix by Cholesky. Each
    builder takes a (power, covariance, pilot) term per user, then the
    contamination's term. A trial `in_time` keeps what each user sent.
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
        # Diag(sqrt(rho) x_k) R Diag(conj(sqrt(rho) x_k)), transposed for the (M, P) layout
        s.products = np.conj(s.tx)[:, :, None] * R.T * s.tx[:, None, :]
        s.stacked, s.in_time, s.estimate = None, True, _dense_products
    else:
        shifts = np.array(user_shifts(config, P))
        s = _scene(config, P, np.stack([pilots.fft_pilot(tau, P).values for tau in shifts]))
        r = s.user.column()
        terms = [(s.rho, r, x) for x in s.pilot_matrix]
        if s.cont is not None:
            terms.append((1.0, s.cont.column(), None))
        s.solve = ToeplitzInverse(estimation.observation_column(P, s.sigma2, terms)).solve
        # gridded at any node count: its direct sum would keep a P x KQ phase matrix
        # each node tau_k/P + xi_q as a double and the remainder of the sum (Knuth's two-sum)
        a, b = (shifts / P)[:, None], s.user.nodes
        nodes = a + b
        low = (a - (nodes - (nodes - a))) + (b - (nodes - a))
        s.stacked = Type1(nodes.ravel(), P, gridded=True, low=low.ravel())
        s.in_time = not s.user.nodal
        if s.in_time:
            # a user's own term, rho Diag(x_k) R Diag(x_k)^H, is Hermitian Toeplitz
            s.products = ToeplitzProducts(estimation.observation_column(P, 0.0, [term]) for term in terms[: s.K])
            s.estimate = _shared_transforms
        else:
            s.gain = math.sqrt(s.rho) * s.user.gain[:, None]
            s.estimate = _node_coordinates
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
    # fixed draw order: users, then contamination, then noise
    truths = np.empty((s.K, s.M), dtype=complex)
    window_ends = np.empty_like(truths)
    if s.stacked is None:
        # each user's window becomes what it sent as soon as it is drawn
        y = ws.get("y", (s.M, s.P))
        y.fill(0)
        kept = ws.get("sent", (s.K, s.M, s.P))
        for k in range(s.K):
            window, truths[k], _ = s.user.draw(rng, s.M, ws)
            window_ends[k] = window[:, -1]
            y += np.multiply(s.tx[k], window, out=kept[k])
    else:
        kept = bases = ws.get("bases", (s.K, s.user.nodes.size, s.M))
        for k in range(s.K):
            window_ends[k], truths[k] = s.user.slots(s.user.basis(rng, s.M, bases[k], ws))
        # what the users sent, sqrt(rho) x_k h_k: one transform of their strengths
        strengths = np.multiply(bases, math.sqrt(s.rho), out=ws.get("strengths", bases.shape))
        buffers = _nufft_buffers(s.stacked, s.M, s.P, ws)
        y = s.stacked(strengths.reshape(-1, s.M), out=ws.get("y", (s.M * s.P,)), **buffers)
        if s.in_time:
            kept = ws.get("sent", (s.K, s.M, s.P))
            for k in range(s.K):
                # copied first: numpy buffers a product that reads a strided window
                np.copyto(kept[k], s.user.synthesize(bases[k], ws))
                np.multiply(s.tx[k], kept[k], out=kept[k])
    if s.cont is not None:
        y += s.cont.window(rng, s.M, ws)
    noise = _white(rng, (s.P, s.M), ws)
    noise *= math.sqrt(s.sigma2)
    y += noise.T

    rx_power = float(np.vdot(y, y).real) / y.size

    # the solve works in place in y, with a second block in the grid buffer
    blocks = (y, ws.get("grid", (s.M, s.P)))
    Z = s.solve(y.T, blocks).T
    nmse, last = s.estimate(s, Z, blocks, kept, ws)
    return nmse, rx_power, truths, window_ends if s.perfect_csi else last


def _node_coordinates(s, Z, blocks, bases, ws):
    """The estimate stage for ramp pilots in node coordinates: every user from one adjoint NUFFT.

    h_hat_k = sqrt(rho) R (conj(x_k) z) has node coordinates sqrt(rho) gain times the sums of
    z at user k's shifted nodes, which the stacked transform's adjoint gives, into the strengths' block.
    """
    buffers = _nufft_buffers(s.stacked, s.M, s.P, ws)
    E = s.stacked.adjoint(Z, out=ws.get("strengths", (bases.size,)), **buffers).reshape(bases.shape)
    E *= s.gain
    last = np.matmul(s.user.rows[0], E)
    E -= bases
    return s.user.errors(E), last


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
        np.multiply(E[:, -1], np.conj(s.tx[k, -1]) / s.rho, out=last[k])
        E -= sent
        nmse[k] = float(np.vdot(E, E).real) / (s.rho * E.size)
    return nmse, last


def _shared_transforms(s, Z, blocks, kept, ws):
    """The exact model's estimate stage for ramp pilots: every user from the same two forward FFTs.

    sqrt(rho) x_k h_hat_k = rho Diag(x_k) R Diag(x_k)^H z, and for a ramp x_k
    that matrix is Hermitian Toeplitz, `s.products`' k-th. Its products with
    z share fft(z) and fft(D z), taken in place in the solve's blocks, and
    take two inverse FFTs each, in the grid buffer's second block and the
    noise's white draw, which nothing reads once the solve returns.
    """
    spectra = s.products.spectra(Z, out=blocks)  # Z is blocks[0]
    E, work = ws.get("grid", (2, *Z.shape))[1], ws.get("white", Z.shape)
    return _sent_errors(s, (s.products.product(k, spectra, E, work) for k in range(s.K)), kept)


def _dense_products(s, Z, blocks, kept, ws):
    """The estimate stage for Hadamard pilots, on their window of one slot per user.

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
