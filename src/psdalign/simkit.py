"""Monte-Carlo harness: multi-user uplink sounding with inter-cell
contamination, per-user estimation quality, and TDD downlink beamforming.

Two channel models share one trial path. A model draws a process's window
and its downlink sample, applies its covariance to a block of estimator
weights, and provides that covariance, as the first column of the Hermitian
Toeplitz matrix or as the P x P matrix, for the observation covariance. Users
share one model on the Clarke spectrum; contamination is a second instance of
the same class on the flat-band spectrum.

With exponential-ramp (PSD-aligned) pilots the observation covariance is
Hermitian Toeplitz, and trials solve with its Gohberg-Semencul inverse
(`psdalign.toeplitz`): no P x P array is formed. Other pilots (Hadamard)
factor the dense matrix by Cholesky.

- `CirculantModel` (the default) draws the window-stationary process whose
  covariance is the circulant picture the large-P analysis works in, and lets
  the estimator use exactly that model, so desk-scale runs converge to the
  asymptotic formulas.
- `ExactModel` draws samples with the exact Toeplitz statistics of the
  underlying continuous-time process; its window-averaged error converges to
  the same limit but visibly slower, which is itself one of the toolkit's
  cross-checks.
"""

import json
import logging
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, circulant

from . import estimation, pilots
from .config import ExperimentConfig  # noqa: F401  (re-exported: psdalign.simkit.ExperimentConfig)
from .fading import DopplerSpectrum, build_covariance, complex_normal, grid_frequencies
from .toeplitz import HermitianToeplitz, ToeplitzInverse

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


def user_shift_cycles(config, P):
    """Per-user cyclic shifts as fractions of the window (tau_k / P)."""
    if config.scheme == "hadamard":
        return None
    if isinstance(config.shifts, str):
        if config.shifts == "preset":
            grid = [PRESET_SHIFT_GRID[k % 8] + (k // 8) / 36.0 for k in range(config.users)]
            return tuple(g % 1.0 for g in grid)
        bands = [config.contamination_band] if config.contamination_band else []
        plan = pilots.plan_alignment([config.max_doppler] * config.users, bands, P, guard=0.0)
        return tuple(s / P for s in plan.shifts)
    return tuple(float(s) % 1.0 for s in config.shifts)


def alignment_plan(config, P=None):
    """The alignment plan implied by the configuration (PSD-aligned scheme)."""
    P = P or config.observation_length
    cycles = user_shift_cycles(config, P)
    if cycles is None:
        raise ValueError("the conventional scheme has no alignment plan")
    bands = (config.contamination_band,) if config.contamination_band else ()
    plan = pilots.AlignmentPlan(
        dopplers=(config.max_doppler,) * config.users,
        shifts=tuple(c * P for c in cycles),
        P=P,
        forbidden=bands,
        guard=0.0,
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


class CirculantModel:
    """Window-stationary draws from the renormalized circulant eigenvalues.

    The downlink sample lies `dl_lag` slots past the window, on the periodic
    extension. The P x P covariance is built on request and not kept: only
    the dense observation covariance needs it.
    """

    def __init__(self, spectrum, P, dl_lag=0):
        self.P = P
        self.lam = _model_eigenvalues(spectrum, P)
        # row of the inverse unitary DFT at the downlink slot
        self.dl_phase = np.exp(2j * np.pi * np.arange(P) * (P - 1 + dl_lag) / P) / math.sqrt(P)

    def column(self):
        """First column of the circulant covariance."""
        return np.fft.ifft(self.lam)

    def covariance(self):
        return circulant(self.column())

    def draw(self, rng, M):
        """(P, M) window and (M,) downlink sample of M independent antennas."""
        coeff = np.sqrt(self.lam)[:, None] * complex_normal(rng, (self.P, M))
        return math.sqrt(self.P) * np.fft.ifft(coeff, axis=0), self.dl_phase @ coeff

    def apply(self, W):
        """The covariance times a (P, M) block."""
        return np.fft.ifft(self.lam[:, None] * np.fft.fft(W, axis=0), axis=0)

    def mse(self, power, noise_var):
        """Interference-free per-element MSE of the estimator under this model."""
        return estimation.mse_from_eigenvalues(self.lam, power, noise_var)


class ExactModel:
    """Exact Toeplitz statistics, drawn from a quadrature of the spectral measure.

    Same interface as CirculantModel. One draw synthesizes the window and the
    `dl_lag` slots after it, so the downlink sample is exactly as correlated
    with the window as in the process. The P x P covariance is built on
    request only.
    """

    def __init__(self, spectrum, P, dl_lag=0):
        self.P = P
        self.cov = build_covariance(spectrum, P)
        self.toeplitz = HermitianToeplitz(self.column())
        xi, self.amp = spectrum.synthesis_nodes(max_lag=P - 1 + dl_lag)
        self.phases = np.exp(2j * np.pi * np.outer(np.arange(P + dl_lag), xi))

    def column(self):
        """First column of the Toeplitz covariance: the autocorrelation at lags 0..P-1."""
        return np.asarray(self.cov.acf.values, dtype=complex)

    def covariance(self):
        return self.cov.toeplitz()

    def draw(self, rng, M):
        block = self.phases @ (self.amp[:, None] * complex_normal(rng, (self.amp.size, M)))
        return block[: self.P], block[-1]

    def apply(self, W):
        return self.toeplitz.matvec(W)

    def mse(self, power, noise_var):
        """Interference-free per-element MSE: sigma^2 (P - sigma^2 tr(B^{-1})) / (rho P).

        B = sigma^2 I + rho R is the single-user observation covariance; a
        unit-modulus pilot cancels from the error covariance
        R - rho R B^{-1} R = (sigma^2 / rho)(I - sigma^2 B^{-1}).
        """
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


def _observation_terms(s, part):
    """The (power, covariance, pilot) terms of E[y y^H].

    `part` names the model method giving each covariance: "column" for
    estimation.observation_column, "covariance" for observation_matrix.
    """
    R = getattr(s.user, part)()
    for x in s.pilot_matrix:
        yield s.rho, R, x
    del R  # so that a circulant model holds one P x P covariance at a time
    if s.cont is not None:
        yield 1.0, getattr(s.cont, part)(), None  # its power is part of its spectrum


def _ramp_pilots(sequences):
    """Whether every pilot is an exponential ramp over a constant base.

    Then E[y y^H] is Hermitian Toeplitz and its first column determines it.
    """
    return all(p.shift is not None and np.all(p.base == p.base[0]) for p in sequences)


def _setup(config, P):
    """Precompute everything shared by all trials of one (scheme, P) run."""
    if config.scheme == "hadamard":
        P = config.users
        sequences = pilots.hadamard_pilots(P)
    else:
        sequences = [pilots.fft_pilot((c * P) % P, P) for c in user_shift_cycles(config, P)]
    model = _MODELS[config.channel_model]
    cont = _contamination_spectrum(config)
    s = SimpleNamespace(P=P, K=config.users, M=config.antennas, perfect_csi=config.perfect_csi)
    s.rho = s.rho_dl = config.user_power
    s.sigma2 = config.noise_var
    s.sigma2_dl = s.sigma2 if config.dl_snr_db is None else s.rho_dl / 10.0 ** (config.dl_snr_db / 10.0)
    s.pilot_matrix = np.stack([p.values for p in sequences])  # (K, P)
    s.user = model(DopplerSpectrum.clarke(config.max_doppler), P, config.dl_lag)
    s.cont = None if cont is None else model(cont, P)
    if _ramp_pilots(sequences):
        column = estimation.observation_column(P, s.sigma2, _observation_terms(s, "column"))
        s.solve = ToeplitzInverse(column).solve
    else:
        A = estimation.observation_matrix(P, s.sigma2, _observation_terms(s, "covariance"))
        factor = cho_factor(A, lower=True)
        s.solve = lambda y: cho_solve(factor, y)
    s.nmse_model = s.user.mse(s.rho, s.sigma2)
    snr = s.rho / s.sigma2
    s.nmse_analytic = estimation.small_alpha_mse(config.max_doppler, snr)
    s.gain_analytic_db = estimation.processing_gain_db(config.max_doppler, snr)
    return s


def _trial(s, rng, include_dl):
    # fixed draw order: users, then contamination, then noise
    draws = [s.user.draw(rng, s.M) for _ in range(s.K)]
    y = np.zeros((s.P, s.M), dtype=complex)
    for x, (h, _) in zip(s.pilot_matrix, draws):
        y += math.sqrt(s.rho) * x[:, None] * h
    if s.cont is not None:
        y += s.cont.draw(rng, s.M)[0]
    y += math.sqrt(s.sigma2) * complex_normal(rng, (s.P, s.M))

    rx_power = float(np.mean(np.abs(y) ** 2))

    Z = s.solve(y)
    nmse = np.empty(s.K)
    estimates_dl = []
    for k, (x, (h, _)) in enumerate(zip(s.pilot_matrix, draws)):
        h_hat = math.sqrt(s.rho) * s.user.apply(np.conj(x)[:, None] * Z)
        # per-element error power == ||err||^2 / (P * r0) per antenna with r0 = 1
        nmse[k] = float(np.mean(np.abs(h - h_hat) ** 2))
        estimates_dl.append(h[-1] if s.perfect_csi else h_hat[-1])

    out = {"nmse": nmse, "rx_power": rx_power}
    if include_dl:
        truths = np.stack([h_dl for _, h_dl in draws])
        out["se"] = _matched_filter_se(s, truths, np.stack(estimates_dl))
    return out


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
    # gain[k, g] = rho_dl |h_k^H w_g|^2 between the active users
    gain = s.rho_dl * np.abs(np.conj(truths[active]) @ beams.T) ** 2
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
    (config.seed, scheme, P, trial). With jobs > 1 the trials run on a thread
    pool; the reduction order is fixed, so results do not depend on `jobs`.
    """
    P = int(P or config.observation_length)
    s = _setup(config, P)
    scheme_tag = 0 if config.scheme == "psd_align" else 1
    seeds = [(config.seed, scheme_tag, s.P, t) for t in range(config.trials)]

    def one(t):
        return _trial(s, np.random.default_rng(list(seeds[t])), include_dl)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outs = list(pool.map(one, range(config.trials)))
    else:
        outs = [one(t) for t in range(config.trials)]

    nmse_trials = np.stack([o["nmse"] for o in outs])
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
        se_trials = np.stack([o["se"] for o in outs])
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
        rx_power_per_antenna=float(np.mean([o["rx_power"] for o in outs])),
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
    cycles = user_shift_cycles(config, P) or (0.0,) * config.users
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
