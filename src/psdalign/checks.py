"""The acceptance checks: one registry, shared by `psdalign validate` and the acceptance suite.

Each `REGISTRY` entry measures one numbered acceptance criterion and yields
its `Check` records at the criterion's stated tolerance. `run_checks` scales
the upper bounds only. Monte-Carlo draws are seeded and go through
`simkit.ExactModel`.
"""

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import estimation
from .fading import DopplerSpectrum, build_covariance, complex_normal
from .pilots import (
    EIGENVALUE_FLOOR_REL,
    _runs_overlap,
    _support_runs,
    fft_pilot,
    orthogonality_residual,
    plan_alignment,
    shift_orthogonal,
)
from .simkit import ExactModel
from .toeplitz import ToeplitzInverse

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """`measured` against `target` under `relation`, one of the keys of `_RELATIONS`."""

    name: str
    measured: float
    relation: str
    target: float

    @property
    def ok(self):
        return bool(_RELATIONS[self.relation](self.measured, self.target))

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.name:<44s} measured={self.measured:12.5e}  target{self.relation}{self.target:.3e}"


def _holds(name, condition):
    """A structural condition, measured as 1 (holds) or 0."""
    return Check(name, float(condition), "==", 1.0)


def criterion_01_closed_form_consistency():
    F = 0.01
    for alpha in (0.05, 0.2, 1.0, 5.0):
        quad = estimation.asymptotic_mse(DopplerSpectrum.clarke(F), 1.0, alpha / (math.pi * F))
        diff = abs(quad - estimation.clarke_closed_form(alpha))
        yield Check(f"limit_integral_vs_closed_form[a={alpha}]", diff, "<", 1e-6)


def criterion_02_boundary_value():
    ref = 1.0 - 2.0 / math.pi
    yield Check("closed_form_boundary_value", abs(estimation.clarke_closed_form(1.0) - ref), "<", 1e-12)
    for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
        diff = abs(estimation.clarke_closed_form(alpha) - ref)
        yield Check(f"closed_form_branch[a={alpha!r}]", diff, "<", 1e-4)


def criterion_03_taylor_residual():
    for alpha, bound in ((0.1, 0.2), (0.01, 0.02)):
        exact, series = estimation.taylor_check(alpha)
        yield Check(f"taylor_residual[a={alpha}]", abs(exact - series) / alpha**3, "<=", bound)


def criterion_04_small_alpha_formula():
    F, snr = 0.002, 1.0
    approx = estimation.small_alpha_mse(F, snr)
    rel = abs(estimation.clarke_closed_form(math.pi * F) - approx) / approx
    gain_err = abs(estimation.processing_gain_db(F, snr) - 10.0 * math.log10(249.0))
    yield Check("small_alpha_value", approx, "==", 0.004)
    yield Check("small_alpha_vs_closed_form", rel, "<", 0.01)
    yield Check("processing_gain_value", gain_err, "<", 1e-6)


def criterion_05_finite_p_convergence():
    # eigenvalue-domain (grid-sampled spectrum) evaluation of the error trace,
    # the pre-limit form of the limit integral, over the doubling ladder
    F = 0.002
    limit = estimation.clarke_closed_form(math.pi * F)
    lams = (DopplerSpectrum.clarke(F).sample_eigenvalues(P) for P in (512, 1024, 2048, 4096))
    values = [estimation.mse_from_eigenvalues(lam, 1.0, 1.0) for lam in lams]
    yield _holds("finite_p_mse_decreasing", all(b < a for a, b in zip(values, values[1:])))
    yield Check("finite_p_mse_min_above_limit", min(values) - limit, ">", 0.0)
    yield Check("finite_p_gap[P=4096]", (values[-1] - limit) / limit, "<", 0.05)


def criterion_06_orthogonality_decay():
    F = 0.002
    residuals = []
    for P in (512, 1024, 2048, 4096):
        R = build_covariance(DopplerSpectrum.clarke(F), P).toeplitz()
        d = np.exp(2j * np.pi * (P // 2) * np.arange(P) / P)
        residuals.append(orthogonality_residual(R, R, d))
    # R, P and the eigenvalues below are those of the last rung, P=4096
    residual_same = orthogonality_residual(R, R, np.ones(P))
    lam = DopplerSpectrum.clarke(F).sample_eigenvalues(P)
    yield _holds("orthogonality_residual_decreasing", all(b < a for a, b in zip(residuals, residuals[1:])))
    yield Check("orthogonality_residual_final[P=4096]", residuals[-1], "<", 1e-3)
    yield Check("orthogonality_residual_unshifted[P=4096]", residual_same, ">", 0.1)
    yield _holds("shift_orthogonal_half_window", shift_orthogonal(lam, lam, P // 2))
    yield _holds("shift_orthogonal_rejects_zero_shift", not shift_orthogonal(lam, lam, 0))


def criterion_09_capacity_rule():
    F, P, K = 0.002, 4096, 249
    plan = plan_alignment([F] * K, [], P)
    lam = DopplerSpectrum.clarke(F).sample_eigenvalues(P)
    # shift_orthogonal for every pair k < g at once: each pair of support runs
    # against all the shift differences shifts[g] - shifts[k]
    k, g = np.triu_indices(K, 1)
    shifts = np.array(plan.shifts)
    runs = _support_runs(lam, EIGENVALUE_FLOOR_REL)
    pairwise = not any(_runs_overlap(a, b, shifts[g] - shifts[k], P).any() for a in runs for b in runs)
    yield Check("capacity_users_packed[P=4096]", float(plan.K), ">=", 249)
    yield _holds("capacity_plan_valid", plan.is_valid() and plan.pairwise_orthogonal())
    yield _holds("capacity_pairs_shift_orthogonal", pairwise)


def criterion_10a_orthogonality_principle():
    """Monte-Carlo: the MMSE error is uncorrelated with the observation (max |z| over entries).

    The estimate is the simulator's: the Toeplitz solve of `simkit._setup`'s
    PSD-aligned branch, then the exact model's Toeplitz product.
    """
    P, draws = 16, 500
    model = ExactModel(DopplerSpectrum.clarke(0.05), P)
    x0, x1 = (fft_pilot(shift, P).values for shift in (0, P // 2))
    r = model.column()
    inverse = ToeplitzInverse(estimation.observation_column(P, 1.0, [(1.0, r, x0), (1.0, r, x1)]))
    acc = np.zeros((P, P), dtype=complex)
    acc2 = np.zeros((P, P))
    for t in range(draws):
        h0, h1 = (model.draw(np.random.default_rng((50, t, k)), 1).window[0] for k in (0, 1))
        y = x0 * h0 + x1 * h1 + complex_normal(np.random.default_rng((50, t, 2)), (P,))
        outer = np.outer(h0 - model.toeplitz.matvec(np.conj(x0) * inverse.solve(y)), np.conj(y))
        acc += outer
        acc2 += np.abs(outer) ** 2
    mean = acc / draws
    var = np.maximum(acc2 / draws - np.abs(mean) ** 2, 1e-300)
    z = np.abs(mean) / np.sqrt(var / draws)
    yield Check("mmse_orthogonality_principle_4se", float(z.max()), "<", 4.0)


def criterion_10b_synthesis_autocorrelation():
    """Monte-Carlo: the synthesized sample autocorrelation at lags 0-10 against J0 (max |z|)."""
    F, P, M, seeds = 0.002, 1024, 128, 100
    model = ExactModel(DopplerSpectrum.clarke(F), P)
    lags = np.arange(0, 11)
    per_seed = np.empty((seeds, lags.size))
    for sidx in range(seeds):
        # (P, M): the slots n < P - v of every antenna are one contiguous block, so
        # each lag's sum of h[n] conj(h[n + v]) is one vdot with no temporaries
        h = np.ascontiguousarray(model.draw(np.random.default_rng((60, sidx)), M).window.T)
        per_seed[sidx] = [np.vdot(h[v:], h[: P - v]).real for v in lags]
    per_seed /= M * (P - lags)
    se = per_seed.std(axis=0, ddof=1) / math.sqrt(seeds)
    z = np.abs(per_seed.mean(axis=0) - DopplerSpectrum.clarke(F).autocorrelation(lags)) / se
    yield Check("synthesis_autocorrelation_3se", float(z.max()), "<", 3.0)


REGISTRY = (
    criterion_01_closed_form_consistency,
    criterion_02_boundary_value,
    criterion_03_taylor_residual,
    criterion_04_small_alpha_formula,
    criterion_05_finite_p_convergence,
    criterion_06_orthogonality_decay,
    criterion_09_capacity_rule,
    criterion_10a_orthogonality_principle,
    criterion_10b_synthesis_autocorrelation,
)


def run_checks(tolerance_scale=1.0):
    """Every registry check, in registry order, with the upper bounds (relations < and <=) scaled."""
    checks = [check for criterion in REGISTRY for check in criterion()]
    return [replace(c, target=c.target * tolerance_scale) if c.relation in ("<", "<=") else c for c in checks]
