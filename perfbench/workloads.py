"""The benchmark's workloads: generated inputs, the timed op, and its checks.

Every op returns an ``Outcome``: the op's wall time and the list of problems
the output checks found. An op with any problem, or one that raises, is a
failed op; it is counted, never dropped.

Monte-Carlo workloads run ``psdalign sweep-dl`` / ``sweep-mse`` in-process
through ``psdalign.cli.main`` on a generated config file and check the CSVs
the op wrote. The planning workload calls the public ``pilots`` and
``estimation`` functions on seeded random user sets.
"""

import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np
import yaml

from psdalign import cli, estimation, fading, pilots
from psdalign.simkit import ExperimentConfig

HERE = os.path.dirname(os.path.abspath(__file__))

# run.seed of the shipped default scenario; outputs at this seed are also
# compared with the values stored in reference.json
REFERENCE_SEED = 20260810
# kept out of every run made while the benchmark was written, for later claims
HELD_OUT_SEED = 918273

# criterion 7: aligned nMSE within 10% of the analytic value
NMSE_REL_TOL = 0.10
# reference values: loose enough for a different solver's rounding, tight
# enough that a wrong solve (a change in the third digit or earlier) fails
REFERENCE_RTOL = 1e-6
# one trial's downlink sum-SE spreads by about 1 bit/s/Hz per scheme, close
# to the expected aligned-vs-conventional gap, so the downlink ordering is
# only checked on ops with at least this many trials
DL_ORDER_MIN_TRIALS = 16

_DEFAULTS = ExperimentConfig()


@dataclass(frozen=True)
class Outcome:
    elapsed: float
    problems: tuple


def attempt(op):
    """Run op() -> Outcome; an op that raises becomes a failed Outcome."""
    start = time.perf_counter()
    try:
        return op()
    except Exception as exc:  # the benchmark counts every failure and goes on
        return Outcome(time.perf_counter() - start, (f"raised {exc!r}",))


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps


@functools.cache
def circulant_model_nmse(P):
    """Interference-free nMSE of the default user under the circulant model.

    The finite-P analytic value the circulant simulator converges to: the
    eigenvalue-domain MSE of the renormalized circulant eigenvalues.
    """
    spectrum = fading.DopplerSpectrum.clarke(_DEFAULTS.max_doppler)
    lam = fading.build_covariance(spectrum, P).eigenvalues.copy()
    lam *= P * spectrum.power / lam.sum()
    return estimation.mse_from_eigenvalues(lam, _DEFAULTS.user_power, _DEFAULTS.noise_var)


def _read_groups(path):
    """CSV rows grouped by consecutive (scheme, P), in file order."""
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    groups = []
    for row in rows:
        key = (row["scheme"], int(row["P"]))
        if not groups or groups[-1]["key"] != key:
            groups.append({"key": key, "rows": []})
        groups[-1]["rows"].append(row)
    return groups


def read_outputs(out_dir, downlink):
    """Per (scheme, P) run, in file order: nMSE, its CI, and downlink sum-SE."""
    runs = []
    for group in _read_groups(os.path.join(out_dir, "mse.csv")):
        runs.append(
            {
                "scheme": group["key"][0],
                "P": group["key"][1],
                "nmse": [float(r["empirical"]) for r in group["rows"]],
                "nmse_hw": [float(r["ci_halfwidth"]) for r in group["rows"]],
                "dl_se_sum": None,
            }
        )
    if downlink:
        dl_groups = _read_groups(os.path.join(out_dir, "dlse.csv"))
        if len(dl_groups) != len(runs):
            raise ValueError("dlse.csv and mse.csv list different runs")
        for run, group in zip(runs, dl_groups):
            sums = [r for r in group["rows"] if r["user"] == "sum"]
            if group["key"] != (run["scheme"], run["P"]) or len(sums) != 1:
                raise ValueError(f"dlse.csv run {group['key']} does not match mse.csv")
            run["dl_se_sum"] = float(sums[0]["empirical"])
    return runs


@dataclass(frozen=True)
class SweepWorkload:
    """A Monte-Carlo sweep run through the CLI on a generated config.

    Its set-up time is the op at trials: 1, run in the measuring process.
    """

    setup_in_fresh_process = False

    name: str
    command: str  # "sweep-dl" or "sweep-mse"
    sweep_lengths: tuple
    channel_model: str
    trials: int

    @property
    def downlink(self):
        return self.command == "sweep-dl"

    @property
    def extra_units(self):
        """Trials the full op runs beyond its trials: 1 variant."""
        return self.trials - 1

    def run_config(self, seed, trials):
        return {
            "sweep_lengths": list(self.sweep_lengths),
            "channel_model": self.channel_model,
            "trials": trials,
            "seed": seed,
            "jobs": 1,
        }

    def run_program(self, run, out_dir, timed=None):
        """Write the config, run the CLI on it; returns (seconds, exit code).

        Only the CLI call is timed (and traced, when ``timed`` is a tracer op).
        """
        os.makedirs(out_dir, exist_ok=True)
        config_path = os.path.join(out_dir, "bench-config.yaml")
        with open(config_path, "w") as fh:
            yaml.safe_dump({"run": run}, fh)
        argv = [self.command, "--config", config_path, "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()), timed or contextlib.nullcontext():
            start = time.perf_counter()
            code = cli.main(argv)
            return time.perf_counter() - start, code

    def op(self, seed, index, out_dir, full=True, timed=None):
        """Run and check the sweep (at trials: 1 when not full)."""
        run = self.run_config(seed, self.trials if full else 1)
        elapsed, code = self.run_program(run, out_dir, timed)
        if code != 0:
            return Outcome(elapsed, (f"psdalign {self.command} exited with {code}",))
        return Outcome(elapsed, tuple(self.check(out_dir, run)))

    def check(self, out_dir, run):
        """Criterion-7 and criterion-8 rules on the CSVs; reference values at the reference seed."""
        runs = read_outputs(out_dir, self.downlink)
        expected = [
            (scheme, P if scheme == "psd_align" else _DEFAULTS.users)
            for P in self.sweep_lengths
            for scheme in ("psd_align", "hadamard")
        ]
        got = [(r["scheme"], r["P"]) for r in runs]
        if got != expected:
            return [f"runs {got} differ from the expected {expected}"]
        problems = []
        for r in runs:
            values = r["nmse"] + r["nmse_hw"] + ([r["dl_se_sum"]] if self.downlink else [])
            if len(r["nmse"]) != _DEFAULTS.users or not all(math.isfinite(v) for v in values):
                problems.append(f"{r['scheme']} P={r['P']}: missing or non-finite values")
        if problems:
            return problems
        for aligned, conventional in zip(runs[0::2], runs[1::2]):
            P = aligned["P"]
            if self.channel_model == "circulant":
                model = circulant_model_nmse(P)
                mean = float(np.mean(aligned["nmse"]))
                if abs(mean - model) > NMSE_REL_TOL * model:
                    problems.append(f"P={P}: aligned nMSE {mean:.5g} not within 10% of {model:.5g}")
            gap = min(conventional["nmse"]) - max(
                e + h for e, h in zip(aligned["nmse"], aligned["nmse_hw"])
            )
            if not gap > max(conventional["nmse_hw"]):
                problems.append(f"P={P}: conventional nMSE is not worse than aligned")
            if self.downlink and run["trials"] >= DL_ORDER_MIN_TRIALS:
                if not conventional["dl_se_sum"] < aligned["dl_se_sum"]:
                    problems.append(f"P={P}: conventional downlink sum-SE is not below aligned")
        if run["seed"] == REFERENCE_SEED:
            problems += compare_reference(self.name, run, runs)
        return problems


def _reference_entries():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def compare_reference(name, run, runs):
    """Per-user nMSE and downlink sum-SE against the stored reference-seed values."""
    for entry in _reference_entries().get(name, []):
        if entry["run"] != run:
            continue
        problems = []
        for got, want in zip(runs, entry["runs"]):
            pairs = list(zip(got["nmse"], want["nmse"]))
            if got["dl_se_sum"] is not None or want["dl_se_sum"] is not None:
                pairs.append((got["dl_se_sum"], want["dl_se_sum"]))
            if not all(
                g is not None and w is not None and math.isclose(g, w, rel_tol=REFERENCE_RTOL)
                for g, w in pairs
            ):
                problems.append(f"{got['scheme']} P={got['P']}: differs from reference.json")
        return problems
    return []


# ---------------------------------------------------------------------------
# alignment planning and analytics


@dataclass(frozen=True)
class PlanWorkload:
    """Plan, validate and analyse a seeded mixed-Doppler user set; no Monte-Carlo.

    Its set-up time is the psdalign import plus the first op, in a fresh process.
    """

    setup_in_fresh_process = True

    name: str
    users: int
    P: int
    residual_P: int
    doppler_lo: float
    doppler_hi: float

    @property
    def extra_units(self):
        """Users the full op plans beyond its two-user variant."""
        return self.users - 2

    def draw(self, seed, index, users):
        """Seeded normalized Dopplers; a set wider than the free band is redrawn."""
        rng = np.random.default_rng([seed, index])
        lo, hi = _DEFAULTS.contamination_band
        free = 1.0 - (hi - lo)
        while True:
            dopplers = rng.uniform(self.doppler_lo, self.doppler_hi, users)
            if 2.0 * dopplers.sum() <= free:
                return [float(F) for F in dopplers]

    def op(self, seed, index, out_dir=None, full=True, timed=None):
        """Plan and check one seeded user set (two users when not full)."""
        dopplers = self.draw(seed, index, self.users if full else 2)
        with timed or contextlib.nullcontext():
            start = time.perf_counter()
            problems = self.plan_and_check(dopplers)
            elapsed = time.perf_counter() - start
        return Outcome(elapsed, tuple(problems))

    def setup_op(self, seed, index, out_dir=None):
        """Time to first result in a fresh process: import psdalign, then the op on draw ``index``."""
        cmd = [
            sys.executable,
            os.path.join(HERE, "cold_start.py"),
            json.dumps({"workload": asdict(self), "seed": seed, "index": index}),
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            problem = f"cold start exited with {proc.returncode}: {proc.stderr[-500:]}"
            return Outcome(time.perf_counter() - start, (problem,))
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        return Outcome(doc["elapsed"], tuple(doc["problems"]))

    def plan_and_check(self, dopplers):
        P = self.P
        band = _DEFAULTS.contamination_band
        rho, noise = _DEFAULTS.user_power, _DEFAULTS.noise_var
        plan = pilots.plan_alignment(dopplers, [band], P)
        problems = list(plan.validate())
        if not plan.pairwise_orthogonal():
            problems.append("plan supports share grid bins")
        spectra = [fading.DopplerSpectrum.clarke(F) for F in dopplers]
        lams = [sp.sample_eigenvalues(P) for sp in spectra]
        K = len(dopplers)
        for k in range(K):
            for g in range(k + 1, K):
                if not pilots.shift_orthogonal(lams[k], lams[g], plan.shifts[g] - plan.shifts[k]):
                    problems.append(f"users {k},{g}: shifted supports overlap")
        # criterion 7 in the limit: with supports apart, every user's
        # asymptotic MSE equals its interference-free closed form
        contamination = fading.DopplerSpectrum.flat_band(*band, power=_DEFAULTS.contamination_power)
        for k in range(K):
            interferers = [
                (spectra[g], (plan.shifts[g] - plan.shifts[k]) / P, rho) for g in range(K) if g != k
            ]
            interferers.append((contamination, -plan.shifts[k] / P, 1.0))
            mse = estimation.asymptotic_mse(spectra[k], rho, noise, interferers)
            closed = estimation.clarke_closed_form(math.pi * dopplers[k] * noise / rho)
            if not abs(mse - closed) <= 1e-6:
                problems.append(f"user {k}: asymptotic MSE {mse:.9g} != closed form {closed:.9g}")
        # criterion-6 cost: the dense finite-P residual between the two users
        # whose shifts lie furthest apart (checked finite; its size depends on
        # the gap, and first fit packs neighbours edge to edge)
        order = sorted(range(K), key=lambda k: plan.shifts[k])
        k, g = order[0], order[-1]
        Pr = self.residual_P
        x_k = pilots.fft_pilot(plan.shifts[k] * Pr / P, Pr)
        x_g = pilots.fft_pilot(plan.shifts[g] * Pr / P, Pr)
        R_k = fading.build_covariance(spectra[k], Pr).toeplitz()
        R_g = fading.build_covariance(spectra[g], Pr).toeplitz()
        residual = pilots.orthogonality_residual(R_k, R_g, np.conj(x_k.values) * x_g.values)
        if not math.isfinite(residual):
            problems.append(f"users {k},{g}: orthogonality residual {residual} at P={Pr}")
        return problems


# why each workload exists: README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="dl_circulant_p4096",
            command="sweep-dl",
            sweep_lengths=(4096,),
            channel_model="circulant",
            trials=40,
        ),
        SweepWorkload(
            name="ul_circulant_short",
            command="sweep-mse",
            sweep_lengths=(512, 1024),
            channel_model="circulant",
            trials=64,
        ),
        SweepWorkload(
            name="dl_exact_p1024",
            command="sweep-dl",
            sweep_lengths=(1024,),
            channel_model="exact",
            trials=24,
        ),
        PlanWorkload(
            name="plan_mixed_doppler",
            users=40,
            P=4096,
            residual_P=1024,
            doppler_lo=0.001,
            doppler_hi=0.004,
        ),
    )
}
