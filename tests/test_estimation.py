import math
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import toeplitz
from hypothesis import given, settings, strategies as st

from psdalign.estimation import (
    SingularSceneError,
    asymptotic_mse,
    clarke_closed_form,
    error_covariance,
    mse_from_eigenvalues,
    processing_gain_db,
    small_alpha_mse,
    taylor_check,
)
from psdalign import estimation, quadrature
from psdalign.fading import ChannelCovariance, DopplerSpectrum, build_covariance, complex_normal
from psdalign.pilots import fft_pilot, hadamard_pilots
from psdalign.quadrature import adaptive_gl
from psdalign.simkit import ExactModel

from oracles import mmse_estimate


def clarke_terms(F, P, shifts=(0,), power=1.0):
    """One (power, R, x) term per cyclic shift, all on the dense Clarke covariance."""
    R = build_covariance(DopplerSpectrum.clarke(F), P).toeplitz()
    return [(power, R, fft_pilot(s % P, P).values) for s in shifts]


def complex_toeplitz(cov):
    """The covariance built complex whatever its autocorrelation (the former `toeplitz`)."""
    return toeplitz(np.asarray(cov.values, dtype=complex))


class TestRealToeplitzCovariance:
    """Estimates from the real Clarke covariance match those of its complex build."""

    @pytest.mark.parametrize("scheme", ["ramp", "hadamard"])
    def test_matches_complex_build(self, scheme):
        P = 16
        clarke = build_covariance(DopplerSpectrum.clarke(0.05), P)
        flat = build_covariance(DopplerSpectrum.flat_band(0.1, 0.3), P)
        pilots = [fft_pilot(0, P), fft_pilot(5.5, P)] if scheme == "ramp" else hadamard_pilots(P)[:2]

        def terms(dense):
            R = dense(clarke)
            return [(1.0, R, pilots[0].values), (0.7, R, pilots[1].values), (0.5, dense(flat), None)]

        y = complex_normal(np.random.default_rng(3), (P, 3))
        got, expected = (
            [(error_covariance(0.3, scene, k), mmse_estimate(y, 0.3, scene, k)) for k in range(2)]
            for scene in (terms(ChannelCovariance.toeplitz), terms(complex_toeplitz))
        )
        for ((E, mse), est), ((E_ref, mse_ref), est_ref) in zip(got, expected):
            np.testing.assert_allclose(E, E_ref, rtol=0, atol=1e-12)
            assert abs(mse - mse_ref) <= 1e-12
            np.testing.assert_allclose(est, est_ref, rtol=0, atol=1e-12 * np.abs(est_ref).max())

class TestMmseEstimate:
    def test_noise_free_full_rank_recovers_exactly(self):
        P = 32
        R = build_covariance(DopplerSpectrum.flat_band(-0.5, 0.5), P).toeplitz()
        x = fft_pilot(5, P).values
        rng = np.random.default_rng(0)
        h = complex_normal(rng, (P,))
        y = math.sqrt(2.0) * x * h
        est = mmse_estimate(y, 0.0, [(2.0, R, x)], 0)
        assert np.linalg.norm(est - h) / np.linalg.norm(h) < 1e-8

    def test_vanishing_power_gives_prior_mean(self):
        base = np.linalg.norm(mmse_estimate(np.ones(64), 1.0, clarke_terms(0.05, 64), 0))
        tiny = np.linalg.norm(
            mmse_estimate(np.ones(64), 1.0, clarke_terms(0.05, 64, power=1e-12), 0)
        )
        assert tiny < 1e-5 * base

    def test_singular_noise_free_scene_raises(self):
        terms = clarke_terms(0.002, 64)
        with pytest.raises(SingularSceneError):
            mmse_estimate(np.ones(64), 0.0, terms, 0)

    def test_two_aligned_users_reach_interference_free_mse(self):
        # Monte-Carlo against the matrix expression, > 500 antenna draws
        F, P, M, trials = 0.002, 1024, 500, 4
        terms = clarke_terms(F, P, shifts=(0, P // 2))
        reference = error_covariance(1.0, terms[:1], 0)[1]
        model = ExactModel(DopplerSpectrum.clarke(F), P)
        total = 0.0
        for t in range(trials):
            rng = np.random.default_rng((2024, t))
            h0 = model.draw(np.random.default_rng((1, t)), M).window.T
            h1 = model.draw(np.random.default_rng((2, t)), M).window.T
            w = complex_normal(rng, (P, M))
            y = terms[0][2][:, None] * h0 + terms[1][2][:, None] * h1 + w
            est = mmse_estimate(y, 1.0, terms, 0)
            total += np.mean(np.abs(est - h0) ** 2)
        empirical = total / trials
        assert abs(empirical - reference) / reference < 0.02

    def test_batched_matches_vector_calls(self):
        terms = clarke_terms(0.05, 32)
        rng = np.random.default_rng(3)
        Y = complex_normal(rng, (32, 5))
        block = mmse_estimate(Y, 0.5, terms, 0)
        for m in range(5):
            assert np.allclose(block[:, m], mmse_estimate(Y[:, m], 0.5, terms, 0))


class TestErrorCovariance:
    def test_zero_power_returns_prior(self):
        terms = clarke_terms(0.05, 64, power=0.0)
        E, mse = error_covariance(1.0, terms, 0)
        assert abs(mse - 1.0) < 1e-12
        assert np.allclose(E, terms[0][1])

    def test_constant_channel_orthogonal_pair_is_interference_free(self):
        P = 8
        R = ChannelCovariance(np.ones(P)).toeplitz()  # r(v) = 1 for all v
        ps = hadamard_pilots(8)
        terms = [(1.0, R, ps[0].values), (1.0, R, ps[1].values)]
        _, mse_pair = error_covariance(1.0, terms, 0)
        _, mse_single = error_covariance(1.0, terms[:1], 0)
        assert abs(mse_pair - mse_single) < 1e-10

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_interference_never_helps(self, data):
        P = 24
        F = data.draw(st.floats(0.01, 0.2))
        shift = data.draw(st.integers(0, P - 1))
        power = data.draw(st.floats(0.1, 5.0))
        base = clarke_terms(F, P)
        crowded = [*base, (power, base[0][1], fft_pilot(shift, P).values)]
        _, alone = error_covariance(1.0, base, 0)
        _, with_interf = error_covariance(1.0, crowded, 0)
        assert with_interf >= alone - 1e-12

    def test_unestimated_interferer_raises_mse(self):
        P = 64
        R = build_covariance(DopplerSpectrum.clarke(0.05), P).toeplitz()
        cont = build_covariance(DopplerSpectrum.flat_band(-0.375, 0.375), P).toeplitz()
        clean = [(1.0, R, fft_pilot(0, P).values)]
        raw = [*clean, (2.0, cont, None)]
        piloted = [*clean, (2.0, cont, fft_pilot(7, P).values)]
        base = error_covariance(1.0, clean, 0)[1]
        assert error_covariance(1.0, raw, 0)[1] > base
        assert error_covariance(1.0, piloted, 0)[1] > base

    def test_monotone_in_noise_and_power(self):
        terms = clarke_terms(0.05, 48)
        _, m_lo = error_covariance(0.5, terms, 0)
        _, m_hi = error_covariance(2.0, terms, 0)
        assert m_hi > m_lo
        strong = clarke_terms(0.05, 48, power=4.0)
        weak = clarke_terms(0.05, 48, power=0.25)
        assert error_covariance(1.0, strong, 0)[1] < error_covariance(1.0, weak, 0)[1]

    def test_matches_eigendomain_form_for_circulant_scene(self):
        # a circulant covariance (autocorrelation: the inverse DFT of lam) with
        # integer-shift pilots is exactly diagonal in the Fourier basis, so the
        # dense finite-P trace must reproduce the eigenvalue-domain expression
        P = 64
        lam = np.zeros(P)
        lam[:6] = [3.0, 8.0, 6.0, 1.0, 0.5, 2.5]
        lam *= P / lam.sum()
        R = ChannelCovariance(np.fft.ifft(lam)).toeplitz()
        dtau = 17
        terms = [(1.3, R, fft_pilot(0, P).values), (0.7, R, fft_pilot(dtau, P).values)]
        _, dense = error_covariance(0.8, terms, 0)
        eig = mse_from_eigenvalues(lam, 1.3, 0.8, interference=0.7 * np.roll(lam, dtau))
        assert abs(dense - eig) < 1e-10


class TestAsymptoticMse:
    def test_flat_band_closed_form(self):
        sp = DopplerSpectrum.flat_band(-0.002, 0.002)
        assert abs(asymptotic_mse(sp, 1.0, 1.0) - 1.0 / 251.0) < 1e-9

    def test_noise_free_limit(self):
        assert asymptotic_mse(DopplerSpectrum.clarke(0.002), 1.0, 0.0) < 1e-9

    def test_matches_closed_form(self):
        F = 0.002
        got = asymptotic_mse(DopplerSpectrum.clarke(F), 1.0, 1.0)
        assert abs(got - clarke_closed_form(math.pi * F)) < 1e-6

    def test_shifted_interferer_is_harmless(self):
        sp = DopplerSpectrum.clarke(0.002)
        clean = asymptotic_mse(sp, 1.0, 1.0)
        dodged = asymptotic_mse(sp, 1.0, 1.0, interferers=[(sp, 0.5, 1.0)])
        overlapped = asymptotic_mse(sp, 1.0, 1.0, interferers=[(sp, 0.0, 1.0)])
        assert abs(dodged - clean) < 1e-8
        assert overlapped > 2 * clean

    def test_flat_contamination_band_avoided(self):
        sp = DopplerSpectrum.clarke(0.002)
        cont = DopplerSpectrum.flat_band(-0.375, 0.375)
        shifted = asymptotic_mse(sp, 1.0, 1.0, interferers=[(cont, 0.0, 1.0)])
        # user sits inside the contamination band at shift 0
        assert shifted > asymptotic_mse(sp, 1.0, 1.0)

    def test_node_on_own_edge_converges(self):
        # the interferer's band edge lies 2e-9 inside -F, so the panel between
        # them has nodes that round onto the user's own bathtub edge, where S
        # reads inf; a nan there bisected every panel at the edge to max_depth
        F = 0.023830728817048952
        interferer = (DopplerSpectrum.flat_band(-0.22049251290232347, 0.5), -0.5238307268170489, 1.0)
        rule_sums, calls = quadrature._rule_sums, []

        def counted(*args):
            calls.append(None)
            if len(calls) > 1000:
                raise AssertionError("more than 1000 quadrature rule calls")
            return rule_sums(*args)

        with mock.patch.object(quadrature, "_rule_sums", counted):
            got = asymptotic_mse(DopplerSpectrum.clarke(F), 1.0, 1.0, [interferer])
        assert abs(got - clarke_closed_form(math.pi * F)) < 1e-7


def loop_asymptotic_mse(spectrum, power, noise_var, interferers):
    """The per-interferer loop: one psd call per interferer, summed in order."""
    wrap = estimation._wrap

    def interference(xi):
        total = 0.0
        for sp, shift, rho_g in interferers:
            total = total + rho_g * sp.psd(wrap(xi - shift))
        return total

    def integrand(xi):
        S = spectrum.psd(wrap(xi))
        denom = S * power + interference(xi) + noise_var
        return np.divide(S * S * power, denom, out=np.zeros_like(S), where=(denom > 0) & (denom < np.inf))

    edges = set()
    for lo, hi in spectrum.support():
        edges |= {lo, hi}
    for sp, shift, _ in interferers:
        for lo, hi in sp.support():
            edges |= {wrap(lo + shift), wrap(hi + shift)}

    total = 0.0
    for lo, hi in spectrum.support():
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)

        def theta_integrand(theta):
            xi = center + half * np.sin(theta)
            return integrand(xi) * half * np.cos(theta)

        breaks = [math.asin((e - center) / half) for e in edges if -1.0 < (e - center) / half < 1.0]
        pts = sorted({-np.pi / 2, np.pi / 2, *breaks})
        for a, b in zip(pts, pts[1:]):
            total += adaptive_gl(theta_integrand, a, b, tol=1e-10, n=24)
    return 1.0 - total


def random_interferer(rng, kind):
    """One (spectrum, shift, weight) triple; shifts reach past +-1/2, weights may be 0."""
    if kind == "clarke":
        sp = DopplerSpectrum.clarke(rng.uniform(0.001, 0.08), power=rng.uniform(0.2, 2.0))
    else:
        lo = rng.uniform(-0.5, 0.4)
        sp = DopplerSpectrum.flat_band(lo, min(0.5, lo + rng.uniform(0.01, 0.3)), power=rng.uniform(0.2, 2.0))
    weight = 0.0 if rng.random() < 0.15 else rng.uniform(0.1, 3.0)
    return sp, rng.uniform(-1.5, 1.5), weight


class RecordingSpectrum:
    """A spectrum that keeps every node set its density is asked for."""

    def __init__(self, spectrum):
        self.spectrum = spectrum
        self.nodes = []

    def psd(self, xi):
        self.nodes.append(np.array(xi))
        return self.spectrum.psd(xi)

    def support(self):
        return self.spectrum.support()


def unpruned():
    """asymptotic_mse with every interferer kept, as before interferers were pruned."""
    return mock.patch.object(estimation, "_meeting", lambda bands, interferers: interferers)


def dyadic(rng, lo, hi):
    """A multiple of 2^-16 in [lo, hi]: sums of a few of them are exact."""
    return float(rng.integers(math.ceil(lo * 2**16), math.floor(hi * 2**16) + 1)) / 2**16


def edge_case_interferer(rng, F, case):
    """One (spectrum, shift, weight) triple at the edges of the pruning rule, for a user of half-width F.

    F and the touching geometry are multiples of 2^-16, so that supports that
    touch do so exactly: an edge one rounding inside the user's band would put
    quadrature nodes on the user's singular edge.
    """
    if case == "touch":
        # a bathtub that touches the user's band at a point, from either side, a turn away or not
        Fg = dyadic(rng, 0.001, 0.05)
        shift = rng.choice([-1.0, 1.0]) * (F + Fg) + rng.choice([0.0, 1.0, -1.0])
        return DopplerSpectrum.clarke(Fg, power=rng.uniform(0.2, 2.0)), shift, rng.uniform(0.1, 3.0)
    if case == "straddle":
        # a flat band at the top of the axis, shifted across +-1/2, or onto the user's lower edge
        width = dyadic(rng, 0.01, 0.2)
        shift = rng.choice([width / 2, 0.5 - F, rng.uniform(-1.0, 1.0)])
        return DopplerSpectrum.flat_band(0.5 - width, 0.5, power=rng.uniform(0.2, 2.0)), shift, rng.uniform(0.1, 3.0)
    if case == "wide":
        # a flat band wider than half the circle
        lo = rng.uniform(-0.5, -0.1)
        sp = DopplerSpectrum.flat_band(lo, min(0.5, lo + rng.uniform(0.55, 0.95)), power=rng.uniform(0.2, 2.0))
        return sp, rng.uniform(-1.5, 1.5), rng.uniform(0.1, 3.0)
    if case == "powerless":
        # zero weight, or a spectrum of zero power (no support, nan on its edges)
        Fg = dyadic(rng, 0.001, 0.05)
        shift = rng.choice([F + Fg, rng.uniform(-1.0, 1.0)])
        if rng.random() < 0.5:
            return DopplerSpectrum.clarke(Fg), shift, 0.0
        return DopplerSpectrum.clarke(Fg, power=0.0), shift, rng.uniform(0.1, 3.0)
    return random_interferer(rng, rng.choice(["clarke", "flat"]))


class TestPrunedInterferers:
    """Dropping the interferers that do not meet the user's support changes no bit."""

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_every_interferer_kept(self, seed, count):
        rng = np.random.default_rng(seed)
        F = dyadic(rng, 0.001, 0.05)
        user = DopplerSpectrum.clarke(F)
        cases = rng.choice(["touch", "straddle", "wide", "powerless", "random"], count)
        interferers = [edge_case_interferer(rng, F, case) for case in cases]
        noise = rng.uniform(0.05, 2.0)
        with np.errstate(invalid="ignore"):  # 0 times an inf density
            got = asymptotic_mse(user, 1.0, noise, interferers)
            with unpruned():
                want = asymptotic_mse(user, 1.0, noise, interferers)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_keeps_touching_and_powerless_interferers_in_order(self):
        F = 0.01
        touching = (DopplerSpectrum.clarke(0.02), F + 0.02, 1.0)
        apart = (DopplerSpectrum.clarke(0.02), F + 0.02 + 1e-6, 1.0)
        across = (DopplerSpectrum.flat_band(0.4, 0.5), 0.5 - F, 1.0)  # [0.9 - F, 1 - F]: touches -F
        powerless = (DopplerSpectrum.clarke(0.02, power=0.0), 0.3, 1.0)
        wide = (DopplerSpectrum.flat_band(-0.5, 0.1), 0.45, 0.0)  # [-0.05, 0.55]: covers the user
        kept = estimation._meeting([(-F, F)], [apart, touching, across, apart, powerless, wide])
        assert kept == [touching, across, powerless, wide]
        assert estimation._meeting([], [touching, powerless]) == [powerless]


class TestBatchedInterference:
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_per_interferer_loop(self, seed, count):
        rng = np.random.default_rng(seed)
        user = DopplerSpectrum.clarke(rng.uniform(0.001, 0.05))
        # kinds interleaved in random order
        kinds = rng.choice(["clarke", "flat"], count)
        interferers = [random_interferer(rng, kind) for kind in kinds]
        noise = rng.uniform(0.05, 2.0)
        assert asymptotic_mse(user, 1.0, noise, interferers) == loop_asymptotic_mse(user, 1.0, noise, interferers)

    def test_plan_scale_mix_is_bit_identical(self):
        # 40 bathtub users and the contamination band, the shape of a planning check
        rng = np.random.default_rng(7)
        spectra = [DopplerSpectrum.clarke(F) for F in rng.uniform(0.001, 0.004, 40)]
        interferers = [(sp, rng.uniform(-0.5, 0.5), 1.0) for sp in spectra[1:]]
        interferers.insert(17, (DopplerSpectrum.flat_band(-0.375, 0.375), 0.43, 1.0))
        assert asymptotic_mse(spectra[0], 1.0, 1.0, interferers) == loop_asymptotic_mse(
            spectra[0], 1.0, 1.0, interferers
        )

    def test_band_edge_on_a_node(self):
        user = DopplerSpectrum.clarke(0.01)
        others = [
            (DopplerSpectrum.clarke(0.004), 0.013, 1.0),
            (DopplerSpectrum.flat_band(-0.2, 0.1), 0.6, 0.5),
        ]
        recording = RecordingSpectrum(user)
        asymptotic_mse(recording, 1.0, 0.5, others)
        node = float(recording.nodes[0][5])
        # a powerless bathtub adds no panel breakpoint, so the node stays a
        # node, and the node sits exactly on its band edge: inf density there
        shift = node - 0.3
        F = float(estimation._wrap(node - shift))
        interferers = [others[0], (DopplerSpectrum.clarke(F, power=0.0), shift, 0.7), others[1]]
        recording = RecordingSpectrum(user)
        with np.errstate(invalid="ignore"):  # 0 power times the inf density
            got = asymptotic_mse(recording, 1.0, 0.5, interferers)
            want = loop_asymptotic_mse(user, 1.0, 0.5, interferers)
        assert any(node in nodes for nodes in recording.nodes)
        assert got == want

    def test_inf_density_at_nodes(self):
        # nodes on bathtub edges, wrapped past +-1/2, with a zero weight
        interferers = [
            (DopplerSpectrum.clarke(0.125), 0.625, 2.0),
            (DopplerSpectrum.flat_band(-0.25, 0.25, power=0.5), -0.75, 1.0),
            (DopplerSpectrum.clarke(0.2), -0.25, 0.0),
            (DopplerSpectrum.flat_band(-0.5, 0.1, power=2.0), 1.0, 0.3),
        ]
        xi = np.array([-0.5, -0.375, -0.25, 0.0, 0.25, 0.5, 0.75, 0.1])
        total = 0.0
        for sp, shift, rho_g in interferers:
            total = total + rho_g * sp.psd(estimation._wrap(xi - shift))
        got = estimation._interference(interferers)(xi)
        assert np.isinf(got).any()
        assert np.array_equal(got, total)

    def test_overlapping_supports_sum_in_order(self):
        # every interferer covers the user's band, so each node sums ~25
        # nonzero terms and any other summation order changes low bits
        rng = np.random.default_rng(11)
        user = DopplerSpectrum.clarke(0.01)
        interferers = []
        for g in range(25):
            if g % 5 == 2:
                sp = DopplerSpectrum.flat_band(-0.05, rng.uniform(0.02, 0.05), power=rng.uniform(0.1, 1.0))
            else:
                sp = DopplerSpectrum.clarke(rng.uniform(0.02, 0.2), power=rng.uniform(0.1, 1.0))
            interferers.append((sp, rng.uniform(-0.005, 0.005), rng.uniform(0.01, 0.3)))
        assert asymptotic_mse(user, 1.0, 0.3, interferers) == loop_asymptotic_mse(user, 1.0, 0.3, interferers)
        # the integral rounds away last-bit differences of the density; the density itself may not differ
        xi = np.linspace(-0.0099, 0.0099, 301)
        total = 0.0
        for sp, shift, rho_g in interferers:
            total = total + rho_g * sp.psd(estimation._wrap(xi - shift))
        assert np.array_equal(estimation._interference(interferers)(xi), total)

    def test_generator_and_list_agree(self):
        sp = DopplerSpectrum.clarke(0.01)
        from_list = asymptotic_mse(sp, 1.0, 1.0, [(sp, 0.0, 1.0)])
        from_generator = asymptotic_mse(sp, 1.0, 1.0, ((sp, 0.0, 1.0) for _ in range(1)))
        assert from_generator == from_list
        assert from_list > 10 * asymptotic_mse(sp, 1.0, 1.0)
        # an interferer whose edges are panel breakpoints inside the user's band
        mixed = [(sp, 0.0, 1.0), (DopplerSpectrum.clarke(0.004), 0.003, 0.5)]
        assert asymptotic_mse(sp, 1.0, 1.0, iter(mixed)) == asymptotic_mse(sp, 1.0, 1.0, mixed)


class TestClosedForm:
    def test_boundary_value(self):
        assert clarke_closed_form(1.0) == pytest.approx(1 - 2 / math.pi, abs=1e-15)

    def test_branches_agree_near_boundary(self):
        for eps in (-1e-6, 1e-6):
            assert abs(clarke_closed_form(1 + eps) - (1 - 2 / math.pi)) < 1e-4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            clarke_closed_form(0.0)

    def test_small_alpha_limit(self):
        assert clarke_closed_form(1e-9) < 1e-8

    @given(st.floats(0.01, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bounded(self, alpha):
        val = clarke_closed_form(alpha)
        assert 0 < val < 1
        assert clarke_closed_form(alpha * 1.1) > val


class TestSmallAlphaAndGain:
    def test_values_at_default_scenario(self):
        assert small_alpha_mse(0.002, 1.0) == pytest.approx(0.004, abs=1e-15)
        assert processing_gain_db(0.002, 1.0) == pytest.approx(10 * math.log10(249), abs=1e-12)

    def test_lte_numerology_value(self):
        assert small_alpha_mse(0.011, 1.0) == pytest.approx(0.022, abs=1e-15)

    def test_no_gain_signal(self):
        # boundary: 1/(2F) equals the inverse SNR exactly at snr = 2F
        assert processing_gain_db(0.25, 0.6) is not None
        assert processing_gain_db(0.25, 0.5) is None
        assert processing_gain_db(0.25, 0.4) is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            small_alpha_mse(0.0, 1.0)
        with pytest.raises(ValueError):
            processing_gain_db(0.01, 0.0)


class TestTaylorCheck:
    def test_residual_ratios(self):
        for alpha, bound in ((0.1, 0.2), (0.01, 0.02)):
            exact, series = taylor_check(alpha)
            assert abs(exact - series) / alpha**3 < bound

    def test_leading_term_dominates(self):
        alpha = 1e-5
        exact, _ = taylor_check(alpha)
        assert exact / (2 * alpha / math.pi) == pytest.approx(1.0, rel=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            taylor_check(1.5)


class TestEigendomainMse:
    def test_riemann_ladder_converges_to_integral(self):
        sp = DopplerSpectrum.clarke(0.002)
        limit = clarke_closed_form(math.pi * 0.002)
        gaps = []
        for P in (512, 1024, 2048, 4096):
            mse = mse_from_eigenvalues(sp.sample_eigenvalues(P), 1.0, 1.0)
            gaps.append(mse - limit)
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)

    def test_zero_eigenvalues_no_error(self):
        assert mse_from_eigenvalues(np.zeros(16), 1.0, 0.0) == 0.0
