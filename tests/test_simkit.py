import json
import logging
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from psdalign import estimation, fading, pilots, simkit
from psdalign.fading import DopplerSpectrum
from psdalign.simkit import (
    ExperimentConfig,
    run_downlink,
    run_experiment,
    run_uplink,
    user_shifts,
    write_aggregate_dat,
    write_dlse_csv,
    write_gain_csv,
    write_manifest,
    write_mse_csv,
)

from oracles import mmse_estimate


def array_bytes(obj, seen=None):
    """Bytes of the arrays an object holds, through its attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if sparse.issparse(obj):
        return obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(item, seen) for item in obj)
    return sum(array_bytes(value, seen) for value in getattr(obj, "__dict__", {}).values())


def small_config(**overrides):
    base = dict(
        observation_length=256,
        sweep_lengths=(128, 256),
        antennas=2,
        trials=12,
        users=4,
        shifts="auto",
        seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_lte_style_numerology(self):
        cfg = ExperimentConfig()
        assert cfg.sampling_frequency_hz == pytest.approx(5000.0, rel=1e-4)
        assert cfg.max_doppler == pytest.approx(0.002, rel=1e-4)

    def test_doppler_cap(self):
        with pytest.raises(ValueError):
            ExperimentConfig(doppler_hz=3000.0)

    def test_shift_list_length_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(shifts=(0.1, 0.2))

    def test_round_trip_dict(self):
        cfg = small_config(shifts=(0.1, 0.3, 0.5, 0.7))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_preset_shift_grid(self):
        shifts = user_shifts(ExperimentConfig(), 4096)
        assert shifts[0] == pytest.approx(4096 * (3 / 8 + 1 / 36))
        assert shifts[7] == pytest.approx(4096 * (3 / 8 + 8 / 36))

    def test_auto_shifts_are_the_planner_shifts(self):
        # slots -> cycles -> slots would turn the planner's 389.0 into 388.99999999999994
        cfg = ExperimentConfig(shifts="auto", users=30, observation_length=777)
        planned = pilots.plan_alignment([cfg.max_doppler] * 30, [cfg.contamination_band], 777).shifts
        assert 389.0 in planned
        assert simkit.alignment_plan(cfg).shifts == planned
        pilot_matrix = simkit._setup(cfg, 777).pilot_matrix
        assert np.array_equal(pilot_matrix, [pilots.fft_pilot(tau, 777).values for tau in planned])


class TestDeterminism:
    def test_bit_identical_replay(self):
        cfg = small_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    # at P=256 the default Clarke user's circulant support holds 246 bins
    # (the FFT branch), at 40 Hz 19 (the restricted DFT)
    @pytest.mark.parametrize("jobs", [2, 5, 13])
    @pytest.mark.parametrize(
        "model", [dict(), dict(doppler_hz=40.0), dict(channel_model="exact")], ids=["fft", "dft", "exact"]
    )
    def test_jobs_do_not_change_results(self, model, jobs):
        # downlink runs of 12 trials; each worker takes a contiguous block of
        # them in its own workspace and shares the set-up read-only, so every
        # field is bit-identical. 5 workers do not divide the trials, and 13
        # are more workers than trials.
        a = run_experiment(small_config(**model))
        b = run_experiment(small_config(jobs=jobs, **model))
        assert a.nmse_empirical == b.nmse_empirical
        assert a.dl_se_sum == b.dl_se_sum
        assert a == b

    def test_seed_changes_results(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(seed=100))
        assert a.nmse_empirical != b.nmse_empirical


class TestWorkspace:
    """Every trial of a worker runs in one workspace, allocated by its first trial."""

    # the default user's circulant support: 21 bins at P=512 (the restricted
    # DFT) and 37 at P=1024 (the FFT branch); the exact model's eight users
    # share the spectra of the solve's output, taken in the solve's blocks
    @pytest.mark.parametrize(
        "channel_model,P,S",
        [("circulant", 512, 21), ("circulant", 1024, 37), ("exact", 512, None), ("exact", 1024, None)],
    )
    def test_dirty_workspace_gives_the_fresh_trial(self, channel_model, P, S):
        s = simkit._setup(ExperimentConfig(channel_model=channel_model, antennas=4), P)
        if S is not None:
            assert s.user.support.size == S
        ws = simkit.Workspace()
        for seed in (1, 2):
            simkit._sound(s, np.random.default_rng(seed), ws)
        dirty = simkit._sound(s, np.random.default_rng(3), ws)
        fresh = simkit._sound(s, np.random.default_rng(3), simkit.Workspace())
        for a, b in zip(dirty, fresh):
            assert np.array_equal(a, b)

    # at P=1024 the user's support holds 17 bins at 40 Hz, 37 at the default 10 Hz
    @pytest.mark.parametrize("doppler_hz,S", [(40.0, 17), (10.0, 37)])
    def test_steady_state_trial_allocates_under_one_block(self, doppler_hz, S):
        # tracemalloc sees numpy's data allocations: after the first trial a
        # default-size trial (M=16, K=8, contamination on) allocates no (M, P) block
        s = simkit._setup(ExperimentConfig(doppler_hz=doppler_hz), 1024)
        assert s.user.support.size == S
        ws = simkit.Workspace()
        simkit._sound(s, np.random.default_rng(0), ws)
        tracemalloc.start()
        try:
            simkit._sound(s, np.random.default_rng(1), ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s.M * s.P * np.dtype(complex).itemsize

    def test_exact_estimate_stage_allocates_under_one_block(self):
        # after the first trial the exact model's estimate stage forms every
        # user's product in the workspace; its draws' NUFFT output still allocates
        s = simkit._setup(ExperimentConfig(channel_model="exact"), 1024)
        ws = simkit.Workspace()
        simkit._sound(s, np.random.default_rng(0), ws)
        stage, peaks = s.estimate, []

        def traced(*args):
            tracemalloc.start()
            try:
                return stage(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        s.estimate = traced
        simkit._sound(s, np.random.default_rng(1), ws)
        assert len(peaks) == 1
        assert peaks[0] < s.M * s.P * np.dtype(complex).itemsize

    def test_contamination_leaves_no_basis(self):
        # the contamination's window is all a trial reads of it: its FFT-branch
        # draw would gather a 16 x 4096 basis (1 MB) into the workspace
        s = simkit._setup(ExperimentConfig(), 4096)
        assert s.cont._synthesis is None
        ws = simkit.Workspace()
        simkit._sound(s, np.random.default_rng(0), ws)
        assert ws._buffers["basis"].size == s.M * s.user.support.size


class TestUplinkStatistics:
    def test_single_user_matches_matrix_oracle(self):
        # no contamination, one user: empirical nMSE vs the model expression
        cfg = small_config(
            users=1, contamination_inr_db=None, trials=40, antennas=4, observation_length=512
        )
        r = run_uplink(cfg)
        assert abs(r.nmse_empirical[0] - r.nmse_model) / r.nmse_model < 0.05

    def test_energy_accounting(self):
        cfg = small_config(trials=30, observation_length=512)
        r = run_uplink(cfg)
        expected = cfg.users * cfg.user_power + cfg.contamination_power + cfg.noise_var
        assert abs(r.rx_power_per_antenna - expected) / expected < 0.05

    def test_confidence_halfwidth_shrinks_with_trials(self):
        cfg100 = small_config(trials=100, observation_length=128)
        cfg400 = small_config(trials=400, observation_length=128)
        hw100 = np.mean(run_uplink(cfg100).nmse_halfwidth)
        hw400 = np.mean(run_uplink(cfg400).nmse_halfwidth)
        assert 1.7 < hw100 / hw400 < 2.3

    def test_contamination_model_is_flat_with_low_leakage(self):
        P = 512
        lam = simkit._model_eigenvalues(DopplerSpectrum.flat_band(-0.375, 0.375), P)
        xi = np.arange(P) / P
        xi = np.where(xi > 0.5, xi - 1, xi)
        in_band = np.abs(xi) <= 0.375 - 2 / P
        out_band = np.abs(xi) > 0.375
        height = 1.0 / 0.75
        assert np.all(np.abs(lam[in_band] - height) / height < 0.10)
        # leakage: fraction of total power landing outside the band
        assert lam[out_band].sum() / lam.sum() < 0.01

    def test_contamination_periodogram_over_trials(self):
        # average periodogram of the synthesized contamination process; the
        # per-bin estimate needs ~thousands of draws for a 10% max deviation
        P, M, trials = 256, 2, 1600
        lam = simkit._model_eigenvalues(DopplerSpectrum.flat_band(-0.375, 0.375), P)
        acc = np.zeros(P)
        for t in range(trials):
            rng = np.random.default_rng((7, t))
            g = (rng.standard_normal((P, M)) + 1j * rng.standard_normal((P, M))) / np.sqrt(2)
            c = math.sqrt(P) * np.fft.ifft(np.sqrt(lam)[:, None] * g, axis=0)
            acc += np.mean(np.abs(np.fft.fft(c, axis=0) / math.sqrt(P)) ** 2, axis=1)
        acc /= trials
        xi = np.arange(P) / P
        xi = np.where(xi > 0.5, xi - 1, xi)
        in_band = np.abs(xi) <= 0.375 - 2 / P
        out_band = np.abs(xi) > 0.375
        assert np.all(np.abs(acc[in_band] - 4 / 3) / (4 / 3) < 0.10)
        assert acc[out_band].sum() / acc.sum() < 0.01


class TestDownlink:
    def test_array_gain_doubles_with_antennas(self):
        # perfect CSI, single user, no contamination: +3 dB per doubling
        def mean_sinr_db(M):
            cfg = ExperimentConfig(
                users=1,
                shifts=(0.0,),
                contamination_inr_db=None,
                observation_length=128,
                antennas=M,
                trials=300,
                dl_lag=0,
                perfect_csi=True,
                seed=5,
            )
            r = run_downlink(cfg)
            # invert sum SE = E log2(1 + SINR) is awkward; compare SE shift
            return r.dl_se_sum

        se32, se64 = mean_sinr_db(32), mean_sinr_db(64)
        # at high SINR, +3 dB is +1 bit of spectral efficiency
        assert se64 - se32 == pytest.approx(1.0, abs=0.17)

    def test_uninformative_estimates_match_random_beams(self):
        cfg = small_config(pilot_snr_db=-60.0, trials=60, observation_length=128, antennas=8)
        r = run_downlink(cfg)
        # random-beam baseline with matched dimensions
        rng = np.random.default_rng(17)
        ses = []
        for _ in range(cfg.trials):
            h = (rng.standard_normal((cfg.users, 8)) + 1j * rng.standard_normal((cfg.users, 8))) / np.sqrt(2)
            w = rng.standard_normal((cfg.users, 8)) + 1j * rng.standard_normal((cfg.users, 8))
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            se = 0.0
            for k in range(cfg.users):
                sig = abs(np.vdot(h[k], w[k])) ** 2
                interf = sum(abs(np.vdot(h[k], w[g])) ** 2 for g in range(cfg.users) if g != k)
                se += math.log2(1 + sig / (interf + cfg.noise_var))
            ses.append(se)
        baseline = float(np.mean(ses))
        hw_base = 1.96 * float(np.std(ses, ddof=1)) / math.sqrt(len(ses))
        assert abs(r.dl_se_sum - baseline) < (r.dl_se_halfwidth + hw_base) * 1.5

    def test_no_gain_users_get_none_not_nan(self, caplog):
        # at -60 dB pilot SNR some users' mean gain over 3 trials is negative
        with caplog.at_level(logging.WARNING, logger="psdalign.simkit"):
            r = run_uplink(ExperimentConfig(pilot_snr_db=-60.0, trials=3, antennas=4), 256)
        no_gain = [k for k, g in enumerate(r.gain_empirical_db) if g is None]
        assert no_gain, "the scene no longer produces a non-positive mean gain"
        assert all(r.gain_halfwidth_db[k] is None for k in no_gain)
        assert all(math.isfinite(g) for g in r.gain_empirical_db + r.gain_halfwidth_db if g is not None)
        warnings = [rec.message for rec in caplog.records if "no processing gain" in rec.message]
        assert len(warnings) == 1 and str(no_gain) in warnings[0]

    def test_zero_norm_estimate_skipped_with_warning(self, caplog):
        cfg = small_config(users=2, trials=1, observation_length=64)
        s = simkit._setup(cfg, 64)
        s.weights = np.zeros_like(s.weights)  # forces exactly-zero estimates
        with caplog.at_level(logging.WARNING, logger="psdalign.simkit"):
            _, _, truths, estimates = simkit._sound(s, np.random.default_rng(0), simkit.Workspace())
            se = simkit._matched_filter_se(s, truths, estimates)
        assert np.all(se == 0.0)
        assert any("zero-norm" in rec.message for rec in caplog.records)


class TestSchemes:
    def test_conventional_window_is_user_count(self):
        r = run_uplink(small_config(scheme="hadamard", users=4))
        assert r.P == 4

    def test_scheme_ordering_small_scale(self):
        # the full-scale ordering (including downlink) is an acceptance
        # criterion; at desk scale only the nMSE gap is statistically solid
        psd = run_uplink(small_config(users=8, observation_length=1024, trials=15))
        conv = run_uplink(small_config(scheme="hadamard", users=8, trials=15))
        assert np.mean(conv.nmse_empirical) > 1.5 * np.mean(psd.nmse_empirical)

    def test_exact_channel_model_runs(self):
        cfg = small_config(channel_model="exact", observation_length=128, trials=5)
        r = run_uplink(cfg)
        assert r.nmse_model > 0
        assert all(v > 0 for v in r.nmse_empirical)

    def test_infeasible_plan_aborts(self):
        cfg = small_config(users=200, observation_length=64, trials=1, shifts="auto")
        with pytest.raises(Exception) as err:
            run_uplink(cfg)
        assert "width" in str(err.value) or "feasible" in str(err.value)


class TestStructuredSolver:
    @staticmethod
    def dense_calls(monkeypatch, config):
        """Names of the dense builders and factorizations _setup calls."""
        calls = []
        for owner, name in ((fading.ChannelCovariance, "toeplitz"), (simkit, "circulant"), (simkit, "cho_factor")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        simkit._setup(config, config.observation_length)
        return calls

    @pytest.mark.parametrize("channel_model", ["circulant", "exact"])
    def test_ramp_pilots_build_no_dense_matrix(self, monkeypatch, channel_model):
        cfg = small_config(channel_model=channel_model, observation_length=256)
        assert self.dense_calls(monkeypatch, cfg) == []

    @pytest.mark.parametrize("channel_model", ["circulant", "exact"])
    def test_hadamard_pilots_factor_densely(self, monkeypatch, channel_model):
        cfg = small_config(channel_model=channel_model, scheme="hadamard")
        assert self.dense_calls(monkeypatch, cfg).count("cho_factor") == 1

    def test_exact_trial_shares_its_forward_transforms(self, fft_lengths):
        # fft(z) and fft(D z) serve all K users' products, two inverse FFTs
        # each, beside the solve's six; the contamination's NUFFT grids on a
        # longer grid (the users' narrow bands take the direct sum)
        s = simkit._setup(ExperimentConfig(channel_model="exact"), 1024)
        assert s.K == 8
        ws = simkit.Workspace()
        simkit._sound(s, np.random.default_rng(0), ws)
        built = len(fft_lengths)
        simkit._sound(s, np.random.default_rng(1), ws)
        trial = fft_lengths[built:]
        assert trial.count(s.P) == 2 + 2 * s.K + 6 == 24
        assert len(trial) == 25

    def test_exact_model_holds_no_synthesis_matrix(self):
        # the phase matrix of a direct synthesis of the contamination band
        # alone would be 4096 x 5706 complex (374 MB)
        s = simkit._setup(ExperimentConfig(channel_model="exact"), 4096)
        assert array_bytes(s.user) + array_bytes(s.cont) < 32e6

    def test_circulant_bases_hold_the_support_alone(self):
        # a full-spectrum basis of the default P=4096 scene would be 16 x 4096
        # complex (1 MB) a user; the two (P, S) phase matrices take 2.2 MB
        s = simkit._setup(ExperimentConfig(), 4096)
        S = s.user.support.size
        assert S <= simkit.DFT_MAX_SUPPORT
        assert s.user.draw(np.random.default_rng(0), s.M).basis.shape == (s.M, S)
        assert array_bytes(s.user) < 3e6

    @pytest.mark.parametrize("pilot_snr_db", [-10.0, 0.0, 20.0])
    def test_exact_model_mse_matches_dense_error_covariance(self, pilot_snr_db):
        cfg = ExperimentConfig(pilot_snr_db=pilot_snr_db)
        P = 128
        spectrum = DopplerSpectrum.clarke(cfg.max_doppler)
        R = fading.build_covariance(spectrum, P).toeplitz()
        dense = estimation.error_covariance(cfg.noise_var, [(cfg.user_power, R, pilots.fft_pilot(37.5, P).values)], 0)[1]
        mse = simkit.ExactModel(spectrum, P).mse(cfg.user_power, cfg.noise_var)
        assert mse == pytest.approx(dense, rel=1e-9)


def time_domain_draw(model, rng, M, dl_lag):
    """(P, M) window and (M,) downlink sample of one draw, as the time-domain formulas give them."""
    if isinstance(model, simkit.CirculantModel):
        coeff = np.sqrt(model.lam)[:, None] * fading.complex_normal(rng, (model.P, M))
        dl_phase = np.exp(2j * np.pi * np.arange(model.P) * (model.P - 1 + dl_lag) / model.P)
        return math.sqrt(model.P) * np.fft.ifft(coeff, axis=0), dl_phase @ coeff / math.sqrt(model.P)
    block = model.synthesis(model.amp[:, None] * fading.complex_normal(rng, (model.amp.size, M))).T
    return block[: model.P], block[-1]


class TestChannelDraws:
    @pytest.mark.parametrize("name", ["circulant", "exact"])
    @pytest.mark.parametrize("dl_lag", [0, 2])
    def test_window_and_downlink_match_time_domain_formulas(self, name, dl_lag):
        # checks.py and tests/test_fading.py read draw(...).window as the (M, P) transpose of these
        P, M = 64, 3
        model = simkit._MODELS[name](DopplerSpectrum.clarke(0.05), P, dl_lag)
        draw = model.draw(np.random.default_rng(8), M)
        window, downlink = time_domain_draw(model, np.random.default_rng(8), M, dl_lag)
        assert draw.window.shape == (M, P)
        np.testing.assert_allclose(draw.window.T, window, rtol=0, atol=1e-14)
        np.testing.assert_allclose(draw.downlink, downlink, rtol=0, atol=1e-14)
        if name == "exact":
            assert np.array_equal(draw.window.T, window)


# at P=512 a Clarke user of F=0.03 has 31 support bins (the restricted DFT), of F=0.0315 33 (the FFTs)
@pytest.mark.parametrize("name,F,fft", [("circulant", 0.03, False), ("circulant", 0.0315, True), ("exact", 0.03, False)])
def test_window_alone_is_the_draws_window(name, F, fft):
    P, M = 512, 3
    model = simkit._MODELS[name](DopplerSpectrum.clarke(F), P, 1)
    if name == "circulant":
        assert (model._synthesis is None) == fft
    rng, other = np.random.default_rng(9), np.random.default_rng(9)
    window = model.window(rng, M).copy()
    assert np.array_equal(window, model.draw(other, M).window)
    # the same random stream, to the last draw
    assert rng.random() == other.random()


class TestCirculantSupport:
    """The circulant model draws and estimates on the support of its clamped eigenvalues."""

    # Clarke users at P=512 whose supports hold 31 and 33 bins, either side of the crossover
    BELOW, ABOVE = 0.03, 0.0315

    @pytest.mark.parametrize("F,power", [(0.002, 1.0), (ABOVE, 1.0), (0.05, 0.0)])
    def test_draw_takes_the_full_random_stream(self, F, power):
        P, M = 512, 3
        model = simkit.CirculantModel(DopplerSpectrum.clarke(F, power=power), P)
        rng, bare = np.random.default_rng(3), np.random.default_rng(3)
        model.draw(rng, M)
        fading.complex_normal(bare, (P, M))
        assert rng.random() == bare.random()

    @pytest.mark.parametrize("F,below", [(BELOW, True), (ABOVE, False)])
    def test_branches_agree_at_the_crossover(self, monkeypatch, F, below):
        P, M = 512, 3
        spectrum = DopplerSpectrum.clarke(F)
        model = simkit.CirculantModel(spectrum, P, dl_lag=1)
        assert (model.support.size <= simkit.DFT_MAX_SUPPORT) == below
        assert abs(model.support.size - simkit.DFT_MAX_SUPPORT) <= 1
        # the same model forced onto the other branch
        monkeypatch.setattr(simkit, "DFT_MAX_SUPPORT", 0 if below else P)
        other = simkit.CirculantModel(spectrum, P, dl_lag=1)
        assert (model._synthesis is None, other._synthesis is None) == (not below, below)
        a, b = (m.draw(np.random.default_rng(4), M) for m in (model, other))
        assert np.array_equal(a.basis, b.basis)
        np.testing.assert_allclose(a.window, b.window, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.downlink, b.downlink, rtol=0, atol=1e-12)
        W = fading.complex_normal(np.random.default_rng(5), (M, P))
        (error_a, last_a), (error_b, last_b) = model.estimate(a.basis, W), other.estimate(b.basis, W)
        assert error_a == pytest.approx(error_b, rel=1e-12)
        np.testing.assert_allclose(last_a, last_b, rtol=0, atol=1e-12)

    def test_empty_support_draws_zeros(self):
        P, M = 32, 2
        model = simkit.CirculantModel(DopplerSpectrum.clarke(0.05, power=0.0), P)
        assert model.support.size == 0
        draw = model.draw(np.random.default_rng(6), M)
        assert draw.basis.shape == (M, 0)
        assert np.all(draw.window == 0) and np.all(draw.downlink == 0)
        error, last = model.estimate(draw.basis, fading.complex_normal(np.random.default_rng(7), (M, P)))
        assert error == 0.0 and np.all(last == 0)


class TestTrialAgainstDenseOracle:
    """The trial's per-user error power and downlink estimates against dense matrices.

    The dense route is `oracles.mmse_estimate` on the trial's own terms: it
    solves E[y y^H] z = y by Cholesky and estimates h_hat_k = sqrt(rho) R
    (conj(x_k) z) with the model's P x P covariance.
    Ramp pilots take the structured solver; Hadamard pilots, on a window of
    one slot per user, the dense one. Dopplers from 10 to 1250 Hz (F from
    0.002 to 0.25) put circulant supports on both sides of the crossover
    between the restricted DFT and the FFTs.
    """

    @given(
        hadamard_users=st.one_of(st.none(), st.sampled_from([2, 4])),
        channel_model=st.sampled_from(["circulant", "exact"]),
        P=st.integers(8, 256),
        shifts=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4),
        M=st.integers(1, 3),
        contamination=st.booleans(),
        perfect_csi=st.booleans(),
        dl_lag=st.integers(0, 2),
        doppler_hz=st.floats(10.0, 1250.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_route(
        self, hadamard_users, channel_model, P, shifts, M, contamination, perfect_csi, dl_lag, doppler_hz, seed
    ):
        if hadamard_users is None:
            users = dict(users=len(shifts), shifts=tuple(shifts))
        else:
            users = dict(scheme="hadamard", users=hadamard_users)
        cfg = ExperimentConfig(
            observation_length=P,
            **users,
            antennas=M,
            contamination_inr_db=0.0 if contamination else None,
            perfect_csi=perfect_csi,
            dl_lag=dl_lag,
            doppler_hz=doppler_hz,
            channel_model=channel_model,
            trials=1,
        )
        s = simkit._setup(cfg, P)
        P = s.P
        nmse, rx_power, truths, estimates = simkit._sound(s, np.random.default_rng(seed), simkit.Workspace())

        # the same draws again, in the (P, M) layout
        rng = np.random.default_rng(seed)
        draws = [s.user.draw(rng, M) for _ in range(s.K)]
        y = sum(np.sqrt(s.rho) * x[:, None] * d.window.T for x, d in zip(s.pilot_matrix, draws))
        if contamination:
            y = y + s.cont.draw(rng, M).window.T
        y = y + np.sqrt(s.sigma2) * fading.complex_normal(rng, (P, M))
        R = s.user.covariance()
        terms = [(s.rho, R, x) for x in s.pilot_matrix]
        if contamination:
            terms.append((1.0, s.cont.covariance(), None))
        for k, d in enumerate(draws):
            h_hat = mmse_estimate(y, s.sigma2, terms, k)
            error = np.mean(np.abs(d.window.T - h_hat) ** 2)
            assert abs(nmse[k] - error) <= 1e-9 * error
            want = d.window[:, -1] if perfect_csi else h_hat[-1]
            assert np.linalg.norm(estimates[k] - want) <= 1e-9 * np.linalg.norm(want)
            assert np.array_equal(truths[k], d.downlink)
        assert rx_power == pytest.approx(np.mean(np.abs(y) ** 2), rel=1e-12)


class TestUserReports:
    def test_reports_tie_all_routes_together(self):
        cfg = small_config(trials=8, observation_length=256)
        result = run_uplink(cfg)
        reports = simkit.user_reports(cfg, result)
        assert len(reports) == cfg.users
        for rep in reports:
            # interference-free estimation can only be easier
            assert rep.interference_free_mse <= rep.finite_p_mse + 1e-12
            assert 0 <= rep.finite_p_mse <= 1.0
            # dodged interferers leave the asymptotic value at the clean one
            assert rep.asymptotic_mse == pytest.approx(rep.closed_form_mse, rel=1e-5)
            # F carries the rounded 66.67us symbol duration, so not exactly 0.002
            assert rep.small_alpha_mse == pytest.approx(0.004, rel=1e-4)
            assert rep.empirical_nmse is not None and rep.empirical_halfwidth is not None

    def test_overlapping_shifts_raise_finite_p_mse(self):
        cfg = small_config(users=2, shifts=(0.25, 0.25), contamination_inr_db=None, trials=1)
        reports = simkit.user_reports(cfg, P=256)
        assert reports[0].finite_p_mse > 2 * reports[0].interference_free_mse

    def test_aligned_finite_p_tracks_asymptotic_at_full_scale(self):
        # default scenario, full window: the finite-P error trace of every
        # aligned user sits within 5% of its large-P limit
        reports = simkit.user_reports(ExperimentConfig(), P=4096)
        for rep in reports:
            gap = abs(rep.finite_p_mse - rep.asymptotic_mse) / rep.asymptotic_mse
            assert gap < 0.05


class TestOutputs:
    @pytest.fixture
    def results(self):
        cfg = small_config(trials=4)
        return cfg, [
            run_downlink(cfg, P=P_)
            for P_ in cfg.sweep_lengths
        ]

    def test_mse_csv_shape_and_schema(self, results, tmp_path):
        cfg, runs = results
        path = tmp_path / "mse.csv"
        write_mse_csv(runs, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# schema: psdalign.csv.v1")
        assert lines[1] == "scheme,P,user,empirical,analytic,ci_halfwidth"
        assert len(lines) == 2 + len(runs) * cfg.users

    def test_gain_and_dlse_csv(self, results, tmp_path):
        _, runs = results
        write_gain_csv(runs, tmp_path / "gain.csv")
        write_dlse_csv(runs, tmp_path / "dlse.csv")
        gain = (tmp_path / "gain.csv").read_text().splitlines()
        dlse = (tmp_path / "dlse.csv").read_text().splitlines()
        assert "empirical_db" in gain[1]
        assert any(line.split(",")[2] == "sum" for line in dlse[2:])

    def test_aggregate_dat(self, results, tmp_path):
        _, runs = results
        write_aggregate_dat(runs, tmp_path / "agg.dat")
        lines = (tmp_path / "agg.dat").read_text().splitlines()
        assert len(lines) == 2 + len({r.P for r in runs})

    def test_manifest_round_trips_config(self, results, tmp_path):
        cfg, runs = results
        path = tmp_path / "manifest.json"
        write_manifest(cfg, runs, path)
        doc = json.loads(path.read_text())
        assert ExperimentConfig.from_dict(doc["config"]) == cfg
        assert doc["runs"][0]["trial_seeds"] == [list(t) for t in runs[0].trial_seeds]

    def test_outputs_byte_identical_on_rerun(self, tmp_path):
        cfg = small_config(trials=3)
        for name in ("a", "b"):
            runs = [run_uplink(cfg, P=128)]
            write_mse_csv(runs, tmp_path / f"{name}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        simkit.atomic_write_text(tmp_path / "x.txt", "hello")
        assert (tmp_path / "x.txt").read_text() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]


# (per-user nMSE, downlink sum-SE, received power per antenna) of
# pinned_config(), recorded at commit 1f6f6ef, before both channel models
# shared one trial path. Every draw feeds these, so a change in draw order or
# in what a trial computes moves them far beyond the tolerance.
PINNED_TRIALS = {
    ("circulant", "psd_align"): (
        (0.004877720720862047, 0.012501868040329026, 0.006326762608057041, 0.008635953021563473),
        2.221931420377295,
        5.574443862533067,
    ),
    ("circulant", "hadamard"): (
        (0.3291069186553313, 0.1546061324814637, 0.3816478913526709, 0.1478426730914762),
        1.919882198219332,
        4.382231683443965,
    ),
    ("exact", "psd_align"): (
        (0.02713836453915275, 0.0669541107138928, 0.0891254730335566, 0.05609655690684164),
        1.942537947461248,
        5.8372930648922585,
    ),
    ("exact", "hadamard"): (
        (0.30093239602239796, 0.23426938074291803, 0.3030548222545518, 0.14371067494713957),
        2.149285737148406,
        6.056266218978898,
    ),
}


def pinned_config(channel_model, scheme):
    # contamination (default band) and downlink both on
    return ExperimentConfig(
        observation_length=128,
        antennas=2,
        trials=3,
        users=4,
        shifts="auto",
        seed=4242,
        channel_model=channel_model,
        scheme=scheme,
    )


@pytest.mark.parametrize("channel_model,scheme", sorted(PINNED_TRIALS))
def test_trial_path_matches_recorded_values(channel_model, scheme):
    nmse, dl_se_sum, rx_power = PINNED_TRIALS[channel_model, scheme]
    r = run_experiment(pinned_config(channel_model, scheme))
    np.testing.assert_allclose(r.nmse_empirical, nmse, rtol=1e-9)
    np.testing.assert_allclose(r.dl_se_sum, dl_se_sum, rtol=1e-9)
    np.testing.assert_allclose(r.rx_power_per_antenna, rx_power, rtol=1e-9)
