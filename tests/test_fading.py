import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import toeplitz

from psdalign.fading import (
    EIGENVALUE_FLOOR_REL,
    DopplerSpectrum,
    SampledPsd,
    build_covariance,
    complex_normal,
    grid_frequencies,
    stacked_psd,
    support_runs,
)
from psdalign.simkit import CirculantModel, ExactModel


def clarke_autocorrelation(F, lag):
    return DopplerSpectrum.clarke(F).autocorrelation(lag)


def clarke_psd(F, xi):
    return DopplerSpectrum.clarke(F).psd(xi)


def flat_psd(band, power, xi):
    return DopplerSpectrum.flat_band(*band, power=power).psd(xi)


class TestClarkeAutocorrelation:
    def test_zero_lag(self):
        assert clarke_autocorrelation(0.002, 0) == 1.0

    def test_lte_style_numerology(self):
        # 55 Hz Doppler sampled at 5 kHz
        f_d, f_s = 55.0, 1.0 / (3 * 66.67e-6)
        F = f_d / f_s
        assert abs(F - 0.011) < 1e-4
        assert clarke_autocorrelation(F, 0) == 1.0

    def test_frozen_value_against_series_oracle(self):
        # independent oracle: power series evaluated with fsum
        x = 2 * np.pi * 0.002 * 100
        q, term, parts = x * x / 4, 1.0, [1.0]
        for k in range(1, 51):
            term = term * (-q) / (k * k)
            parts.append(term)
        assert abs(clarke_autocorrelation(0.002, 100) - math.fsum(parts)) < 1e-12

    def test_even_in_lag(self):
        v = np.arange(-50, 51)
        r = clarke_autocorrelation(0.1, v)
        assert np.allclose(r, r[::-1])

    @pytest.mark.parametrize("F", [0.0, -0.1, 0.51])
    def test_rejects_bad_doppler(self, F):
        with pytest.raises(ValueError):
            clarke_autocorrelation(F, 1)


class TestClarkePsd:
    def test_outside_band_is_zero(self):
        assert clarke_psd(0.002, 0.01) == 0.0

    def test_center_value(self):
        assert abs(clarke_psd(0.002, 0.0) - 1.0 / (np.pi * 0.002)) < 1e-9

    def test_singular_at_edges(self):
        assert clarke_psd(0.002, 0.002) == np.inf

    def test_unit_power_by_singularity_aware_quadrature(self):
        # substitute xi = F sin(theta); the transformed density is 1/pi
        F = 0.002
        val, _ = quad(lambda t: clarke_psd(F, F * math.sin(t)) * F * math.cos(t), -np.pi / 2, np.pi / 2)
        assert abs(val - 1.0) < 1e-3  # comfortably 1e-12 in practice

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            clarke_psd(0.002, 0.7)


class TestFlatPsd:
    def test_in_band_height(self):
        assert abs(flat_psd((-0.375, 0.375), 1.0, 0.0) - 4.0 / 3.0) < 1e-12

    def test_outside_band(self):
        assert flat_psd((-0.375, 0.375), 1.0, 0.4) == 0.0

    def test_zero_power(self):
        assert flat_psd((-0.375, 0.375), 0.0, 0.1) == 0.0

    def test_inverted_band_rejected(self):
        with pytest.raises(ValueError):
            flat_psd((0.2, 0.1), 1.0, 0.0)

    def test_unit_power_quadrature(self):
        sp = DopplerSpectrum.flat_band(-0.375, 0.375)
        val, _ = quad(lambda x: sp.psd(x), -0.5, 0.5, points=[-0.375, 0.375])
        assert abs(val - 1.0) < 1e-6


@pytest.mark.parametrize(
    "spectrum",
    [DopplerSpectrum.clarke(0.125, power=2.0), DopplerSpectrum.flat_band(-0.125, 0.25, power=2.0)],
    ids=["clarke", "flat"],
)
def test_psd_is_a_float_for_a_scalar_and_an_array_otherwise(spectrum):
    for xi in (0.0, 0.125, 0.3, np.float64(0.1), np.array(0.25)):
        value = spectrum.psd(xi)
        assert type(value) is float
        assert value == spectrum.psd(np.array([xi]))[0]
    for xi in ([0.0], np.array([0.1, 0.125, -0.3]), np.zeros((2, 3))):
        value = spectrum.psd(xi)
        assert isinstance(value, np.ndarray) and value.shape == np.shape(xi)
    # a powerless bathtub edge is nan (0 * inf) with no numpy warning
    assert math.isnan(DopplerSpectrum.clarke(0.125, power=0.0).psd(0.125))


class TestSpectrumInvariants:
    @given(
        F=st.floats(min_value=1e-3, max_value=0.5),
        power=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_autocorrelation_bounded_by_power(self, F, power):
        sp = DopplerSpectrum.clarke(F, power=power)
        r = np.asarray(sp.autocorrelation(np.arange(200)))
        assert abs(r[0] - power) < 1e-12 * power
        assert np.all(np.abs(r) <= power * (1 + 1e-12))

    def test_flat_autocorrelation_conjugate_symmetry(self):
        sp = DopplerSpectrum.flat_band(0.1, 0.3)
        v = np.arange(1, 50)
        assert np.allclose(sp.autocorrelation(-v), np.conj(sp.autocorrelation(v)))


def test_stacked_psd_rows_match_psd_bit_for_bit():
    spectra = [
        DopplerSpectrum.flat_band(-0.1, 0.2, power=2.0),
        DopplerSpectrum.clarke(0.125, power=0.5),
        DopplerSpectrum.flat_band(-0.5, 0.25, power=0.5),
        DopplerSpectrum.clarke(0.3),
    ]
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.49, 0.5, (4, 40))
    x[1, :2] = [-0.125, 0.125]  # singular bathtub edges
    x[3, 0] = 0.3
    rows = stacked_psd(spectra)(x)
    for sp, xg, row in zip(spectra, x, rows):
        assert np.array_equal(row, sp.psd(xg))
    assert np.isinf(rows[1, :2]).all() and np.isinf(rows[3, 0])
    with pytest.raises(ValueError):
        stacked_psd(spectra)(x + 0.6)


class TestReadOnlyOutputs:
    """Eigenvalue samples and grids are shared by identity, so writing into them raises."""

    @pytest.mark.parametrize(
        "spectrum", [DopplerSpectrum.clarke(0.01), DopplerSpectrum.flat_band(-0.1, 0.2)], ids=["clarke", "flat"]
    )
    def test_sample_eigenvalues(self, spectrum):
        lam = spectrum.sample_eigenvalues(256)
        assert isinstance(lam, SampledPsd) and not lam.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lam[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            lam *= 2.0
        # neither the sample nor the buffer under it can be made writable again
        for array in (lam, lam.base):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.flags.writeable = True
        copy = lam.copy()
        copy[0] = 1.0
        assert copy.runs is None and lam.runs is not None
        assert spectrum.sample_eigenvalues(256) is not lam
        # reductions give numpy scalars, as on a plain array
        for value in (lam.max(), lam.sum(), np.mean(lam), lam @ lam):
            assert type(value) is np.float64

    @pytest.mark.parametrize("P", [2, 7, 100, 4096])
    def test_grid_frequencies(self, P):
        xi = grid_frequencies(P)
        assert grid_frequencies(P) is xi
        with pytest.raises(ValueError, match="read-only"):
            xi[0] = 1.0
        # the values of the uncached construction
        fresh = np.arange(P) / P
        assert np.array_equal(xi, np.where(fresh > 0.5, fresh - 1.0, fresh))
        assert grid_frequencies.cache_info().maxsize is not None


def full_grid_samples(spectrum, P):
    """The full-grid evaluation that `sample_eigenvalues` narrowed to a window of bins (oracle)."""
    xi = grid_frequencies(P)
    if spectrum.kind == "flat":
        lo, hi = spectrum.band
        return np.where((xi >= lo) & (xi <= hi), spectrum.power / (hi - lo), 0.0)
    F = spectrum.max_doppler
    lam = np.zeros(P)
    inside = np.abs(xi) < F
    lam[inside] = spectrum.power / (np.pi * np.sqrt(F**2 - xi[inside] ** 2))
    for i in np.flatnonzero(np.abs(np.abs(xi) - F) < 1e-15):
        a = np.clip(xi[i] - 0.5 / P, -F, F)
        b = np.clip(xi[i] + 0.5 / P, -F, F)
        lam[i] = P * (spectrum.power * (np.arcsin(b / F) - np.arcsin(a / F)) / np.pi)
    return lam


@st.composite
def sampled_spectra(draw):
    """(spectrum, P): bathtubs with F anywhere, on multiples of 1/P or at 1/2 less 0, 1e-15 or half a bin; flat bands
    with edges anywhere, on multiples of 1/P or at +-1/2; powers of 0 and more."""
    P = draw(st.one_of(st.sampled_from([1, 2, 3, 4, 512, 4096]), st.integers(1, 4096)))
    power = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 10.0)))
    case = draw(st.sampled_from(["any", "on bins", "near half", "flat"]))
    if case == "flat":
        edge = st.one_of(
            st.sampled_from([-0.5, 0.5]), st.integers(-(P // 2), P // 2).map(lambda m: m / P), st.floats(-0.5, 0.5)
        )
        lo, hi = sorted((draw(edge), draw(edge)))
        # a band too narrow for a finite density is rejected (test_band_too_narrow_for_a_finite_density_rejected)
        assume(lo < hi and math.isfinite(power / (hi - lo)))
        return DopplerSpectrum.flat_band(lo, hi, power=power), P
    if case == "any":
        F = draw(st.floats(1e-9, 0.5))
    elif case == "on bins":
        F = min(0.5, draw(st.integers(1, max(1, P // 2))) / P)
    else:
        F = 0.5 - draw(st.sampled_from([0.0, 1e-15, 0.5 / P]))
    return DopplerSpectrum.clarke(F if F > 0 else 0.5, power=power), P


class TestSampledPsd:
    @given(sampled_spectra())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_the_full_grid_with_their_runs(self, case):
        spectrum, P = case
        lam = spectrum.sample_eigenvalues(P)
        assert type(lam) is SampledPsd and lam.shape == (P,)
        assert lam.tobytes() == full_grid_samples(spectrum, P).tobytes()
        plain = np.array(lam)
        assert lam.runs == support_runs(plain, EIGENVALUE_FLOOR_REL)
        # every bin that carries power clears the floor, so the runs are the support
        peak = plain.max()
        assert np.array_equal(plain > 0.0, plain > EIGENVALUE_FLOOR_REL * peak)

    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match="power must be finite and nonnegative"):
            DopplerSpectrum.clarke(0.01, power=power)
        with pytest.raises(ValueError, match="power must be finite and nonnegative"):
            DopplerSpectrum.flat_band(-0.1, 0.1, power=power)

    def test_band_too_narrow_for_a_finite_density_rejected(self):
        # a finite power on a band so narrow that its density overflows
        with pytest.raises(ValueError, match="too narrow for a finite density"):
            DopplerSpectrum.flat_band(0.0, 1e-310)


class TestBuildCovariance:
    def test_trace_is_r0(self):
        cov = build_covariance(DopplerSpectrum.clarke(0.002), 1024)
        assert cov.circulant_column[0].real == 1.0
        R = cov.toeplitz()
        assert abs(np.trace(R).real / 1024 - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "spectrum, dtype",
        [(DopplerSpectrum.clarke(0.01), np.float64), (DopplerSpectrum.flat_band(0.05, 0.2), np.complex128)],
        ids=["clarke", "asymmetric flat band"],
    )
    def test_toeplitz_is_real_for_a_real_autocorrelation(self, spectrum, dtype):
        cov = build_covariance(spectrum, 64)
        R = cov.toeplitz()
        assert R.dtype == dtype
        assert np.array_equal(R, toeplitz(np.asarray(cov.values, dtype=complex)))

    def test_eigenvalues_match_bin_averaged_psd(self):
        # interior bins of a well-resolved bathtub agree with P * (bin mass)
        F, P = 0.05, 4096
        sp = DopplerSpectrum.clarke(F)
        cov = build_covariance(sp, P)
        xi = grid_frequencies(P)
        interior = np.abs(xi) <= 0.85 * F
        rel_errs = []
        for i in np.nonzero(interior)[0]:
            lo, hi = xi[i] - 0.5 / P, xi[i] + 0.5 / P
            mass, _ = quad(
                lambda t: sp.psd(F * math.sin(t)) * F * math.cos(t),
                math.asin(max(lo, -F) / F),
                math.asin(min(hi, F) / F),
            )
            rel_errs.append(abs(cov.eigenvalues[i] - P * mass) / (P * mass))
        assert max(rel_errs) < 0.05

    def test_eigenvalues_nonnegative(self):
        cov = build_covariance(DopplerSpectrum.clarke(0.002), 512)
        assert np.all(cov.eigenvalues >= 0)

    def test_rejects_short_window(self):
        with pytest.raises(ValueError):
            build_covariance(DopplerSpectrum.clarke(0.01), 1)


@pytest.mark.parametrize("shape", [(), (1024,), (1024, 16)])
def test_complex_normal_bits_unchanged(shape):
    # the expression it replaced: every seeded draw in the simulator depends on these bits
    rng = np.random.default_rng(2024)
    old = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    new = complex_normal(np.random.default_rng(2024), shape)
    assert np.shape(new) == shape
    assert np.array_equal(np.atleast_1d(new).view(float), np.atleast_1d(old).view(float))


def test_complex_normal_fills_given_buffers():
    # the trials draw into reused blocks: the same bits as a fresh draw, whatever the blocks held
    out, scratch = np.full((64, 3), np.nan, dtype=complex), np.full((64, 3), np.nan)
    drawn = complex_normal(np.random.default_rng(7), (64, 3), out=out, scratch=scratch)
    assert drawn is out
    assert np.array_equal(out.view(float), complex_normal(np.random.default_rng(7), (64, 3)).view(float))


def window(model, rng_seed, M):
    """The (P, M) window of one model draw."""
    return model.draw(np.random.default_rng(rng_seed), M).window.T


class TestSynthesis:
    """Channel draws through the simulator's models."""

    def test_zero_spectrum_gives_zero_realization(self):
        P = 32
        h = window(CirculantModel(DopplerSpectrum.clarke(0.05, power=0.0), P), 3, 1)
        assert np.all(h == 0)

    def test_constant_channel_columns_constant(self):
        # the constant-channel limit: at a vanishing Doppler every slot of a
        # window carries the same antenna gains, up to phases below 1e-6
        P = 64
        h = window(ExactModel(DopplerSpectrum.clarke(1e-9), P), 5, 4)
        assert np.allclose(h, h[0:1, :])
        assert not np.allclose(h[0], 0)

    def test_deterministic_given_seed(self):
        model = ExactModel(DopplerSpectrum.clarke(0.01), 128)
        a = window(model, 11, 3)
        b = window(model, 11, 3)
        assert np.array_equal(a, b)
        c = window(model, 12, 3)
        assert not np.array_equal(a, c)

    def test_exact_synthesis_matches_bathtub_autocorrelation(self):
        # Monte-Carlo sample autocorrelation vs J0 with an analytic SE bound
        F, P, M, seeds = 0.002, 1024, 32, 24
        model = ExactModel(DopplerSpectrum.clarke(F), P)
        lags = np.arange(0, 11)
        per_seed = []
        for s in range(seeds):
            h = window(model, (101, s), M)
            per_seed.append(
                [np.mean((h[: P - v] * np.conj(h[v:])).real) if v else np.mean(np.abs(h) ** 2) for v in lags]
            )
        per_seed = np.asarray(per_seed)
        mean = per_seed.mean(axis=0)
        se = per_seed.std(axis=0, ddof=1) / math.sqrt(seeds)
        target = clarke_autocorrelation(F, lags)
        assert np.all(np.abs(mean - target) < 3.2 * se + 1e-12)

    def test_whiteness_of_full_band(self):
        P, M = 2048, 4
        h = window(ExactModel(DopplerSpectrum.flat_band(-0.5, 0.5), P), 21, M)
        n_samples = P * M
        for v in range(1, 21):
            r = np.mean(h[: P - v] * np.conj(h[v:]))
            assert abs(r) < 4.0 / math.sqrt(n_samples)

    def test_synthesis_covariance_matches_toeplitz_for_offset_band(self):
        # the quadrature nodes realize exactly the materialized covariance,
        # including for spectra without even symmetry (complex autocorrelation)
        P = 48
        sp = DopplerSpectrum.flat_band(0.05, 0.3, power=1.5)
        cov = build_covariance(sp, P)
        xi, amp = sp.synthesis_nodes(P - 1)
        n = np.arange(P)
        phases = np.exp(2j * np.pi * np.outer(n, xi))
        realized = (phases * amp**2) @ phases.conj().T  # E[h h^H] of the node model
        assert np.max(np.abs(realized - cov.toeplitz())) < 1e-10

    def test_circulant_method_available(self):
        # circulant synthesis is the simulator's default channel model
        assert window(CirculantModel(DopplerSpectrum.clarke(0.05), 256), 9, 2).shape == (256, 2)

    def test_mean_power_converges(self):
        h = window(ExactModel(DopplerSpectrum.clarke(0.05), 512), 31, 64)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.05

    def test_antenna_columns_independent(self):
        # cross-antenna correlation over many draws stays at the noise floor
        P, seeds = 256, 60
        model = ExactModel(DopplerSpectrum.clarke(0.01), P)
        cross = []
        for s in range(seeds):
            h = window(model, (41, s), 2)
            cross.append(np.mean(h[:, 0] * np.conj(h[:, 1])))
        cross = np.asarray(cross)
        se = cross.std(ddof=1) / math.sqrt(seeds)
        assert abs(cross.mean()) < 4 * se
        # while same-antenna power is pinned at r0 (a narrowband window holds
        # few coherence intervals, so the per-draw spread is wide)
        powers = [np.mean(np.abs(window(model, (42, s), 1)) ** 2) for s in range(60)]
        assert abs(np.mean(powers) - 1.0) < 0.2
