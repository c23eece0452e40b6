import json
import logging
import math
import os

import numpy as np
import pytest

from psdalign import estimation, fading, pilots, simkit
from psdalign.fading import DopplerSpectrum
from psdalign.simkit import (
    ExperimentConfig,
    run_downlink,
    run_experiment,
    run_uplink,
    user_shift_cycles,
    write_aggregate_dat,
    write_dlse_csv,
    write_gain_csv,
    write_manifest,
    write_mse_csv,
)


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
        cycles = user_shift_cycles(ExperimentConfig(), 4096)
        assert cycles[0] == pytest.approx(3 / 8 + 1 / 36)
        assert cycles[7] == pytest.approx(3 / 8 + 8 / 36)


class TestDeterminism:
    def test_bit_identical_replay(self):
        cfg = small_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    def test_jobs_do_not_change_results(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(jobs=2))
        assert a.nmse_empirical == b.nmse_empirical
        assert a.dl_se_sum == b.dl_se_sum

    def test_seed_changes_results(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(seed=100))
        assert a.nmse_empirical != b.nmse_empirical


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
        s.rho = 0.0  # forces exactly-zero estimates
        with caplog.at_level(logging.WARNING, logger="psdalign.simkit"):
            out = simkit._trial(s, np.random.default_rng(0), include_dl=True)
        assert np.all(out["se"] == 0.0)
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

    def test_only_constant_base_ramps_are_toeplitz(self):
        P = 16
        ramps = [pilots.fft_pilot(s, P, np.full(P, 1j)) for s in (0.5, 3.25)]
        assert simkit._ramp_pilots(ramps)
        base = np.exp(2j * np.pi * np.arange(P) ** 2 / P)
        assert not simkit._ramp_pilots([pilots.fft_pilot(0.5, P, base)])
        assert not simkit._ramp_pilots(pilots.hadamard_pilots(4))

    @pytest.mark.parametrize("pilot_snr_db", [-10.0, 0.0, 20.0])
    def test_exact_model_mse_matches_dense_error_covariance(self, pilot_snr_db):
        cfg = ExperimentConfig(pilot_snr_db=pilot_snr_db)
        P = 128
        spectrum = DopplerSpectrum.clarke(cfg.max_doppler)
        user = estimation.UplinkUser(cfg.user_power, pilots.fft_pilot(37.5, P), fading.build_covariance(spectrum, P))
        scene = estimation.UplinkScene(users=(user,), noise_var=cfg.noise_var)
        dense = estimation.error_covariance(scene, 0)[1]
        mse = simkit.ExactModel(spectrum, P).mse(cfg.user_power, cfg.noise_var)
        assert mse == pytest.approx(dense, rel=1e-9)


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
