import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import toeplitz

from psdalign import fading, pilots
from psdalign.fading import DopplerSpectrum, arc_gaps, build_covariance, grid_frequencies
from psdalign.pilots import (
    AlignmentPlan,
    PlanInfeasibleError,
    fft_pilot,
    hadamard_pilots,
    orthogonality_residual,
    plan_alignment,
    shift_orthogonal,
    uniform_capacity,
)


def clarke_toeplitz(F, P):
    """The P x P covariance of the bathtub spectrum of half-width F."""
    return build_covariance(DopplerSpectrum.clarke(F), P).toeplitz()


class TestFftPilot:
    def test_zero_shift_is_base(self):
        p = fft_pilot(0, 8)
        assert np.allclose(p.values, np.ones(8))

    def test_half_length_shift_alternates(self):
        p = fft_pilot(4, 8)
        assert np.allclose(p.values, (-1.0) ** np.arange(8))

    def test_unit_modulus(self):
        p = fft_pilot(3.7, 64)
        assert np.max(np.abs(np.abs(p.values) - 1.0)) < 1e-12

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError):
            fft_pilot(8, 8)
        with pytest.raises(ValueError):
            fft_pilot(-1, 8)

    @given(st.integers(0, 63), st.integers(4, 64))
    @settings(max_examples=40, deadline=None)
    def test_always_unit_modulus(self, tau, P):
        if tau >= P:
            tau = tau % P
        p = fft_pilot(tau, P)
        assert np.max(np.abs(np.abs(p.values) - 1.0)) < 1e-12


class TestHadamard:
    def test_k1(self):
        (p,) = hadamard_pilots(1)
        assert np.allclose(p.values, [1.0])

    def test_k2(self):
        a, b = hadamard_pilots(2)
        assert np.allclose(a.values, [1, 1]) and np.allclose(b.values, [1, -1])

    def test_k8_pairwise_orthogonal(self):
        ps = hadamard_pilots(8)
        for i in range(8):
            for j in range(i + 1, 8):
                assert abs(np.vdot(ps[i].values, ps[j].values)) < 1e-12

    @pytest.mark.parametrize("K", [0, 3, 6, 12])
    def test_rejects_non_power_of_two(self, K):
        with pytest.raises(ValueError):
            hadamard_pilots(K)


def fourier_cross(a, b):
    """Theta = F X_a^H X_b F^H, with F the unitary DFT matrix: DFT the columns, inverse-DFT the rows."""
    return np.fft.ifft(np.fft.fft(np.diag(np.conj(a.values) * b.values), axis=0), axis=1)


class TestCrossMatrix:
    """For two ramps at integer relative shift d, Theta is the cyclic permutation by d."""

    def test_same_pilot_gives_identity(self):
        a = fft_pilot(5, 16)
        assert np.allclose(fourier_cross(a, a), np.eye(16), atol=1e-12)

    def test_relative_shift_permutation_column(self):
        a, b = fft_pilot(0, 8), fft_pilot(3, 8)
        expected = np.zeros(8)
        expected[3] = 1.0
        assert np.allclose(fourier_cross(a, b)[:, 0], expected, atol=1e-12)

    def test_theta_is_unitary_permutation(self):
        a, b = fft_pilot(2, 32), fft_pilot(9, 32)
        Theta = fourier_cross(a, b)
        mags = np.abs(Theta)
        assert np.allclose(np.sort(mags, axis=1)[:, :-1], 0.0, atol=1e-10)
        assert np.allclose(np.max(mags, axis=1), 1.0, atol=1e-10)
        assert np.allclose(Theta @ Theta.conj().T, np.eye(32), atol=1e-10)


class TestOrthogonalityResidual:
    def test_constant_channel_traceless_pair_vanishes(self):
        ones = np.ones((8, 8))
        ps = hadamard_pilots(8)
        d = np.conj(ps[0].values) * ps[1].values
        assert orthogonality_residual(ones, ones, d) < 1e-10

    def test_same_user_positive(self):
        R = clarke_toeplitz(0.05, 64)
        assert orthogonality_residual(R, R, np.ones(64)) > 1e-3

    def test_half_circle_shift_decays(self):
        vals = []
        for P in (256, 512, 1024):
            R = clarke_toeplitz(0.002, P)
            d = np.exp(2j * np.pi * (P // 2) * np.arange(P) / P)
            vals.append(orthogonality_residual(R, R, d))
        assert vals[0] > vals[1] > vals[2]


def hermitian_toeplitz(rng, P, complex_column):
    """A random Hermitian Toeplitz matrix from its first column."""
    t = rng.standard_normal(P)
    if complex_column:
        t = t + 1j * rng.standard_normal(P)
        t[0] = t[0].real
    return toeplitz(t)


def loop_structured_norm(R_k, R_g, pkg):
    """The row recurrence with per-row temporaries that `_structured_norm` replaced (oracle)."""
    P = R_k.shape[0]
    cpkg = np.conj(pkg)
    first_col = pilots._matvec(R_k, pkg * R_g[:, 0] * cpkg[0])
    row = pilots._matvec(R_g.T, R_k[0, :] * pkg) * cpkg
    row = row.astype(np.result_type(row, first_col))
    b_first = (pkg[0] * R_g[0, 1:] * cpkg[1:]).astype(row.dtype)
    b_last = (pkg[-1] * R_g[-1, :-1] * cpkg[:-1]).astype(row.dtype)
    a_first, a_last = R_k[:, 0], R_k[:, -1]
    total = np.vdot(row, row).real
    nxt = np.empty_like(row)
    for i in range(P - 1):
        nxt[0] = first_col[i + 1]
        np.multiply(b_first, a_first[i + 1], out=nxt[1:])
        nxt[1:] += row[:-1]
        nxt[1:] -= a_last[i] * b_last
        total += np.vdot(nxt, nxt).real
        row, nxt = nxt, row
    return float(np.sqrt(total))


def counting_dense():
    """The dense product, wrapped to count its calls."""
    return mock.patch.object(pilots, "_dense_norm", wraps=pilots._dense_norm)


class TestStructuredResidual:
    @given(
        P=st.integers(2, 1024),
        seed=st.integers(0, 2**32 - 1),
        complex_k=st.booleans(),
        complex_g=st.booleans(),
        ramp=st.sampled_from(["integer", "fractional", "scaled", "ones"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_oracle(self, P, seed, complex_k, complex_g, ramp):
        rng = np.random.default_rng(seed)
        R_k = hermitian_toeplitz(rng, P, complex_k)
        R_g = R_k if rng.random() < 0.25 else hermitian_toeplitz(rng, P, complex_g)
        if ramp == "ones":
            pkg = np.ones(P)  # criterion 6 at dtau = 0: a real all-ones diagonal
        else:
            tau_k, tau_g = rng.uniform(0, P, 2)
            if ramp == "integer":
                tau_k, tau_g = np.floor(tau_k), np.floor(tau_g)
            pkg = np.conj(fft_pilot(tau_k, P).values) * fft_pilot(tau_g, P).values
            if ramp == "scaled":
                pkg = pkg * rng.uniform(0.2, 3.0) * np.exp(2j * np.pi * rng.random())
        with counting_dense() as dense:
            got = orthogonality_residual(R_k, R_g, pkg)
        assert dense.call_count == 0
        want = pilots._dense_norm(R_k, R_g, pkg) / P**1.5
        assert abs(got - want) <= 1e-12 * want
        assert pilots._structured_norm(R_k, R_g, pkg) == loop_structured_norm(R_k, R_g, pkg)

    @pytest.mark.parametrize("shift", [0, 512, 300.5])
    def test_criterion_6_norm_bit_identical_to_the_loop(self, shift):
        P = 1024
        R = clarke_toeplitz(0.002, P)
        pkg = np.ones(P) if shift == 0 else fft_pilot(shift, P).values
        assert pilots._structured_norm(R, R, pkg) == loop_structured_norm(R, R, pkg)

    def test_non_toeplitz_hermitian_falls_back(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        R = A @ A.conj().T
        with counting_dense() as dense:
            orthogonality_residual(R, R, fft_pilot(3, 16).values)
        assert dense.call_count == 1

    def test_views_are_proved_toeplitz_by_their_strides(self):
        R_k, R_g = clarke_toeplitz(0.003, 256), clarke_toeplitz(0.002, 256)
        pkg = np.conj(fft_pilot(10.5, 256).values) * fft_pilot(100.25, 256).values
        want = orthogonality_residual(R_k.copy(), R_g.copy(), pkg)
        with mock.patch.object(pilots.np, "array_equal", wraps=np.array_equal) as compare, counting_dense() as dense:
            got = orthogonality_residual(R_k, R_g, pkg)
            assert pilots._is_toeplitz(R_k.T)
        assert compare.call_count == 0 and dense.call_count == 0
        assert got == want
        # an array with other strides is compared entry for entry
        with mock.patch.object(pilots.np, "array_equal", wraps=np.array_equal) as compare:
            assert pilots._is_toeplitz(R_k.copy())
        assert compare.call_count == 1

    def test_non_ramp_diagonal_falls_back(self):
        R = clarke_toeplitz(0.05, 16)
        rows = hadamard_pilots(16)
        pkg = np.conj(rows[1].values) * rows[2].values
        with counting_dense() as dense:
            orthogonality_residual(R, R, pkg)
        assert dense.call_count == 1

    def test_rejects_anything_but_the_diagonal(self):
        R = clarke_toeplitz(0.05, 16)
        for pkg in (np.diag(fft_pilot(8, 16).values), np.ones(15), np.ones((1, 16))):
            with pytest.raises(ValueError, match="cross-product diagonal"):
                orthogonality_residual(R, R, pkg)

    def test_criterion_6_and_validate_never_form_the_dense_product(self, registry_run):
        assert any(c.name.startswith("orthogonality_residual") for c in registry_run.checks)
        assert registry_run.dense_calls == 0


@given(
    P=st.integers(1, 512),
    seed=st.integers(0, 2**32 - 1),
    complex_matrix=st.booleans(),
    complex_vector=st.booleans(),
    hermitian=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_fft_toeplitz_product_matches_dense(P, seed, complex_matrix, complex_vector, hermitian):
    rng = np.random.default_rng(seed)

    def draw(complex_values):
        return rng.standard_normal(P) + (1j * rng.standard_normal(P) if complex_values else 0.0)

    column = draw(complex_matrix)
    if hermitian:
        column[0] = column[0].real
        A = toeplitz(column)
    else:
        A = toeplitz(column, draw(complex_matrix))
    x = draw(complex_vector)
    got, want = pilots._matvec(A, x), A @ x
    assert got.dtype == want.dtype
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestShiftOrthogonal:
    def test_full_overlap_false(self):
        lam = DopplerSpectrum.clarke(0.002).sample_eigenvalues(1000)
        assert shift_orthogonal(lam, lam, 0) is False

    def test_half_circle_true(self):
        lam = DopplerSpectrum.clarke(0.002).sample_eigenvalues(1000)
        assert shift_orthogonal(lam, lam, 500) is True

    def test_zero_spectrum_always_true(self):
        lam = DopplerSpectrum.clarke(0.002).sample_eigenvalues(256)
        assert shift_orthogonal(lam, np.zeros(256), 3) is True

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_integer_shift_matches_rolled_mask_semantics(self, data):
        P = data.draw(st.integers(8, 48))
        # sparse random supports
        lam_k = np.zeros(P)
        lam_g = np.zeros(P)
        for lam in (lam_k, lam_g):
            for idx in data.draw(st.lists(st.integers(0, P - 1), min_size=1, max_size=6)):
                lam[idx] = data.draw(st.floats(0.5, 2.0))
        dtau = data.draw(st.integers(-P, P))
        expected = not np.any((lam_k > 0) & (np.roll(lam_g > 0, dtau)))
        assert shift_orthogonal(lam_k, lam_g, dtau) == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_run_overlap_of_an_array_of_shifts_matches_each_shift(self, data):
        """`runs_overlap` over an array of shifts, as criterion 9 batches it, against `shift_orthogonal` per shift."""
        P = data.draw(st.integers(8, 64))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # a few runs each, some across bin 0, or no support at all
        lam_k, lam_g = (rng.uniform(0.5, 2.0, P) * (rng.random(P) < data.draw(st.floats(0.0, 0.4))) for _ in range(2))
        shape = data.draw(st.sampled_from([(0,), (7,), (3, 5)]))
        dtau = np.where(rng.random(shape) < 0.5, rng.integers(-P, P, shape), rng.uniform(-P, P, shape))
        overlap = np.zeros(shape, dtype=bool)
        for run_k in pilots._support_runs(lam_k, pilots.EIGENVALUE_FLOOR_REL):
            for run_g in pilots._support_runs(lam_g, pilots.EIGENVALUE_FLOOR_REL):
                overlap |= pilots.runs_overlap(run_k, run_g, dtau, P)
        expected = [shift_orthogonal(lam_k, lam_g, d) for d in dtau.ravel().tolist()]
        assert (~overlap).ravel().tolist() == expected


class TestPlanAlignment:
    def test_uniform_shift_ladder(self):
        plan = plan_alignment([0.002] * 8, [], 4096)
        assert plan.shifts == tuple(float(17 * k) for k in range(8))
        assert plan.is_valid() and plan.pairwise_orthogonal()

    def test_single_user_gets_zero_shift(self):
        assert plan_alignment([0.3], [], 64).shifts == (0.0,)

    def test_preset_fractional_plan_accepted_by_checker(self):
        P = 4096
        plan = AlignmentPlan(
            dopplers=(0.002,) * 8,
            shifts=tuple(P * (3 / 8 + (k + 1) / 36) for k in range(8)),
            P=P,
            forbidden=((-3 / 8, 3 / 8),),
        )
        assert plan.is_valid()
        assert plan.pairwise_orthogonal()
        # neighbouring supports, in shift order around the circle, stay a slot apart
        sup = np.array(sorted(plan.supports()))
        gaps = arc_gaps(sup[:, 0], sup[:, 1], np.roll(sup[:, 0], -1), np.roll(sup[:, 1], -1))
        assert (gaps >= 1 / P).all()

    def test_capacity_formula(self):
        assert uniform_capacity(0.002) == 250

    def test_tight_packing_beyond_integer_ladder(self):
        plan = plan_alignment([0.002] * 249, [], 4096)
        assert plan.K == 249
        assert plan.is_valid()
        assert plan.pairwise_orthogonal()

    def test_infeasible_reports_deficit(self):
        with pytest.raises(PlanInfeasibleError) as err:
            plan_alignment([0.002] * 300, [], 4096)
        assert err.value.width_deficit == pytest.approx(300 * 0.004 - 1.0)

    def test_forbidden_band_respected(self):
        plan = plan_alignment([0.002] * 8, [(-3 / 8, 3 / 8)], 4096)
        assert plan.is_valid()
        for lo, hi in plan.supports():
            assert not (lo < 3 / 8 and hi > -3 / 8 and (lo % 1.0) < 0.375)

    def test_heterogeneous_dopplers(self):
        plan = plan_alignment([0.01, 0.002, 0.05, 0.003], [(0.4, 0.5)], 512)
        assert plan.is_valid()
        assert plan.pairwise_orthogonal()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_feasible_plans_always_validate(self, data):
        K = data.draw(st.integers(1, 6))
        dopplers = [data.draw(st.floats(0.001, 0.02)) for _ in range(K)]
        bands = data.draw(st.lists(band_strategy(0.3), max_size=2))
        try:
            plan = plan_alignment(dopplers, bands, 512)
        except PlanInfeasibleError:
            return
        assert plan.is_valid()
        assert plan.pairwise_orthogonal()

    def test_serialization_round_trip(self):
        plan = plan_alignment([0.002] * 4, [(-0.1, 0.1)], 1024)
        clone = AlignmentPlan.from_dict(plan.to_dict())
        assert clone == plan


def band_strategy(max_width):
    """Forbidden bands starting in [-1, 1]: some straddle 0, some wrap past 1."""
    return st.tuples(st.floats(-1.0, 1.0), st.floats(1e-3, max_width)).map(
        lambda b: (b[0], b[0] + b[1])
    )


def circular_gap(int_a, int_b):
    """The scalar gap between two closed arcs that `fading.arc_gaps` broadcasts (oracle)."""
    lo_a, hi_a = int_a
    lo_b, hi_b = int_b
    width_a = hi_a - lo_a
    width_b = hi_b - lo_b
    if width_a + width_b >= 1.0:
        return -1.0
    rel = (lo_b - lo_a) % 1.0
    fwd = rel - width_a            # from a's end forward to b's start
    bwd = (1.0 - rel) - width_b    # from b's end forward to a's start
    return min(fwd, bwd)


def scan_first_fit(F, placed, forbidden, P):
    """The integer-scan first fit that the candidate-arc planner replaced (oracle)."""

    def feasible(tau):
        center = tau / P
        sup = (center - F, center + F)
        for other in placed:
            if circular_gap(sup, other) < 1e-15:
                return False
        for band in forbidden:
            if circular_gap(sup, band) <= 0.0:
                return False
        return True

    if not placed and not forbidden:
        return 0.0
    for tau in range(P):
        if feasible(float(tau)):
            return float(tau)
    candidates = []
    for lo, hi in list(placed) + list(forbidden):
        start = (hi + F) % 1.0
        candidates.append((start * P) % P)
    for tau in sorted(candidates):
        if 0 <= tau < P and feasible(tau):
            return tau
    return None


def plan_outcome(dopplers, bands, P):
    """Shift tuple of the plan, or the infeasibility it raised."""
    try:
        return plan_alignment(dopplers, bands, P).shifts
    except PlanInfeasibleError as err:
        return ("infeasible", str(err), err.width_deficit)


def scan_support_runs(lam, floor_rel):
    """Bin-by-bin run finder that `_support_runs` replaced (oracle)."""
    lam = np.asarray(lam, dtype=float)
    P = lam.size
    peak = lam.max(initial=0.0)
    if peak <= 0.0:
        return []
    centered = (lam > floor_rel * peak)[(np.arange(P) - P // 2) % P]
    runs = []
    start = None
    for i, m in enumerate(centered):
        if m and start is None:
            start = i
        elif not m and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, P - 1))
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == P - 1:
        first = runs.pop(0)
        last = runs.pop()
        runs.append((last[0], first[1] + P))
    return [(lo - P // 2, hi - P // 2) for lo, hi in runs]


class TestFirstFit:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_integer_scan(self, data):
        P = data.draw(st.integers(16, 4096))
        K = data.draw(st.integers(1, 40))
        # cap the Doppler range so that most user sets fit on the circle
        hi = data.draw(st.floats(5e-4, max(5e-4, min(0.05, 0.5 / K))))
        dopplers = data.draw(st.lists(st.floats(5e-4, hi), min_size=K, max_size=K))
        bands = data.draw(st.lists(band_strategy(0.4), max_size=3))
        got = plan_outcome(dopplers, bands, P)
        with mock.patch.object(pilots, "_first_fit", scan_first_fit):
            expected = plan_outcome(dopplers, bands, P)
        assert got == expected

    @pytest.mark.parametrize(
        "dopplers, bands, P, shifts",
        [
            # recorded from the integer scan; one user takes the fractional fallback
            (
                [0.0461, 0.038, 0.0135, 0.0316, 0.0082, 0.0451, 0.0155, 0.0235],
                [(0.45, 0.785), (-0.174, -0.104)],
                50,
                (47.105000000000004, 13.0, 2.0, 9.0, 0.0, 18.0, 4.0, 6.0),
            ),
            (
                [0.0058, 0.0153, 0.014, 0.017, 0.0286, 0.0132, 0.0017, 0.0044, 0.0116, 0.0128, 0.0118, 0.0276, 0.0233,
                 0.0108, 0.0078, 0.0113, 0.0219, 0.0106, 0.0094, 0.0115, 0.0116, 0.0325, 0.0229, 0.0019, 0.0012, 0.0207],
                [(-0.228, -0.067), (0.15, 0.222)],
                512,
                (14.0, 213.0, 197.0, 230.0, 375.0, 183.0, 2.0, 8.0, 132.0, 169.0, 156.0, 346.0, 319.0,
                 52.0, 21.0, 64.0, 272.0, 41.0, 30.0, 120.0, 144.0, 494.336, 295.0, 4.0, 0.0, 250.0),
            ),
        ],
    )
    def test_pinned_mixed_doppler_plans(self, dopplers, bands, P, shifts):
        plan = plan_alignment(dopplers, bands, P)
        assert plan.shifts == shifts
        assert any(not tau.is_integer() for tau in plan.shifts)
        assert plan.is_valid()
        with mock.patch.object(pilots, "_first_fit", scan_first_fit):
            assert plan_alignment(dopplers, bands, P).shifts == shifts

    def test_plans_without_scanning_the_circle(self, monkeypatch):
        """First fit tests a few shifts per user, not the circle; validate makes two broadcast calls."""
        shapes = []
        original = pilots.arc_gaps

        def counted(*arcs):
            gaps = original(*arcs)
            shapes.append(gaps.shape)
            return gaps

        monkeypatch.setattr(pilots, "arc_gaps", counted)
        P, band = 4096, (-0.375, 0.375)
        for K in (100, 200, 400):
            dopplers = np.random.default_rng(K).uniform(5e-5, 1.5e-4, K).tolist()
            shapes.clear()
            plan = plan_alignment(dopplers, [band], P)
            assert all(tau.is_integer() for tau in plan.shifts)
            # one call per shift test, of up to three shifts against every
            # blocker; the candidate-arc planner tested 3K shifts a user
            shifts_tested = sum(rows for rows, _ in shapes)
            assert shifts_tested <= 6 * K
            shapes.clear()
            assert plan.is_valid()
            assert len(shapes) == 2  # validate: the user pairs, then the bands

    @pytest.mark.parametrize("K", [200, 400])
    def test_large_mixed_doppler_sets_match_the_scan(self, K):
        """First fit against the integer scan at sampled steps of a 200- and a 400-user plan.

        Each sampled step gives the scan the supports placed so far; the scan
        costs O(K^2) a step, so the whole plan would take seconds.
        """
        P, bands = 4096, ((0.45, 0.55),)
        dopplers = np.random.default_rng(K).uniform(5e-5, 1.5e-4, K).tolist()
        sampled = set(range(0, K, K // 8)) | {K - 2, K - 1}
        steps = []
        original = pilots._first_fit

        def recording(F, placed, forbidden, P):
            tau = original(F, placed, forbidden, P)
            if len(placed) in sampled:
                steps.append((F, list(placed), tau))
            return tau

        with mock.patch.object(pilots, "_first_fit", recording):
            plan = plan_alignment(dopplers, bands, P)
        assert plan.is_valid() and len(steps) == len(sampled)
        for F, placed, tau in steps:
            assert scan_first_fit(F, placed, bands, P) == tau

    def test_occupancy_merges_wrapping_bands(self):
        # bands that overlap, nest, touch and wrap past 1 become disjoint arcs
        occupied = pilots._Occupancy(((0.9, 1.05), (-0.02, 0.01), (0.2, 0.3), (0.25, 0.28), (0.3, 0.35)))
        assert list(zip(occupied._starts, occupied._ends)) == pytest.approx([(0.2, 0.35), (0.9, 1.05)])
        assert len(occupied) == 0 and list(occupied) == []
        # the free arcs (0.05, 0.2) and (0.35, 0.9), as the integer shifts whose supports may fit
        assert occupied.rooms(0.01, 100) == [(6, 19), (36, 89)]


class TestSupportRuns:
    @given(st.lists(st.booleans(), min_size=1, max_size=64), st.floats(0.5, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_bin_scan(self, mask, level):
        lam = np.array(mask, dtype=float) * level
        assert pilots._support_runs(lam, 1e-6) == scan_support_runs(lam, 1e-6)

    @pytest.mark.parametrize("P", [7, 8])
    def test_edge_masks(self, P):
        half = P // 2
        masks = {
            "all true": np.ones(P),
            "all zero": np.zeros(P),
            "bin 0": np.eye(P)[0],
            "bin P-1": np.eye(P)[P - 1],
            # the centered axis ends at bins P-1-half and P-half: one circular run
            "wrap-around": np.eye(P)[P - 1 - half] + np.eye(P)[P - half] + np.eye(P)[0],
        }
        for name, lam in masks.items():
            assert pilots._support_runs(lam, 1e-6) == scan_support_runs(lam, 1e-6), name
        assert pilots._support_runs(masks["wrap-around"], 1e-6) == [(0, 0), (P - 1 - half, P - half)]


@st.composite
def run_masks(draw, max_P=4096):
    """Eigenvalue vectors of length 1..max_P: a few random runs, or a dense random mask."""
    P = draw(st.integers(1, max_P))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        lam = np.zeros(P)
        for _ in range(draw(st.integers(0, 5))):
            start, length = int(rng.integers(P)), int(rng.integers(1, P + 1))
            lam[(start + np.arange(length)) % P] = rng.uniform(0.5, 2.0)
    else:
        lam = rng.uniform(0.5, 2.0, P) * (rng.random(P) < draw(st.floats(0.0, 1.0)))
    # a sprinkle of entries just under and over the floor
    lam[rng.integers(P, size=3)] *= draw(st.sampled_from([1.0, 1e-7, 1e-5]))
    return lam


class TestSupportRunsMemo:
    """A sample carries the runs it was built with; every other vector finds them afresh. Every answer stays exact."""

    @given(run_masks())
    @settings(max_examples=100, deadline=None)
    def test_matches_bin_scan_up_to_4096(self, lam):
        assert pilots._support_runs(lam, 1e-6) == scan_support_runs(lam, 1e-6)
        # a read-only copy finds the same runs
        frozen = lam.copy()
        frozen.flags.writeable = False
        assert pilots._support_runs(frozen, 1e-6) == scan_support_runs(lam, 1e-6)

    def test_in_place_mutation_between_calls(self):
        P = 512
        # sample_eigenvalues hands out read-only vectors; a copy takes writes
        lam = DopplerSpectrum.clarke(0.01).sample_eigenvalues(P).copy()
        other = lam.copy()
        # supports cover bins -5..5, so a shift of 20 keeps them apart
        assert shift_orthogonal(lam, other, 20) is True
        lam[15] = 1.0
        assert shift_orthogonal(lam, other, 20) is False
        assert shift_orthogonal(lam, other, 20) == shift_orthogonal(lam.copy(), other, 20)
        lam[15] = 0.0
        assert shift_orthogonal(lam, other, 20) is True
        # a new peak lifts the floor above every other bin
        lam[0] = 1e20
        assert pilots._support_runs(lam, 1e-10) == scan_support_runs(lam, 1e-10) == [(0, 0)]
        assert shift_orthogonal(lam, other, 20) is True
        assert shift_orthogonal(lam, other, 5) is False
        lam[:] = 0.0
        assert pilots._support_runs(lam, 1e-10) == []
        assert shift_orthogonal(lam, other, 0) is True

    def test_runs_found_once_per_vector(self):
        """Sampling a 40-user set finds each vector's runs once, on its window of at most 39 bins; its 780 pair checks
        find none."""
        P = 4096
        dopplers = np.random.default_rng(5).uniform(0.001, 0.004, 40).tolist()
        plan = plan_alignment(dopplers, [(-0.375, 0.375)], P)
        with mock.patch.object(fading, "support_runs", wraps=fading.support_runs) as sampled:
            lams = [DopplerSpectrum.clarke(F).sample_eigenvalues(P) for F in dopplers]
        assert sampled.call_count == 40
        # 2 ceil(F P) + 3 bins for F <= 0.004
        assert all(call.args[0].size <= 39 for call in sampled.call_args_list)
        with mock.patch.object(pilots, "support_runs", wraps=pilots.support_runs) as found:
            for k in range(40):
                for g in range(k + 1, 40):
                    assert shift_orthogonal(lams[k], lams[g], plan.shifts[g] - plan.shifts[k])
        assert found.call_count == 0

    def test_vector_made_writable_and_mutated_gets_fresh_runs(self):
        lam = DopplerSpectrum.clarke(0.01).sample_eigenvalues(512)
        other = DopplerSpectrum.clarke(0.01).sample_eigenvalues(512)
        assert shift_orthogonal(lam, other, 20) is True
        # the sample, and the buffer under it, cannot be made writable again,
        # so its carried runs cannot go stale
        for array in (lam, lam.base):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.flags.writeable = True
        # a copy takes the write and finds its runs afresh
        copy = lam.copy()
        copy[15] = 1.0
        assert copy.runs is None
        assert pilots._support_runs(copy, 1e-10) == scan_support_runs(copy, 1e-10) == [(-5, 5), (15, 15)]
        assert shift_orthogonal(copy, other, 20) is False
        assert shift_orthogonal(np.array(copy), other, 20) is False
        assert shift_orthogonal(lam, other, 20) is True

    def test_floor_and_views(self):
        lam = DopplerSpectrum.flat_band(-0.1, 0.1).sample_eigenvalues(64)
        # a floor other than the one the runs were found at finds them afresh
        with mock.patch.object(pilots, "support_runs", wraps=pilots.support_runs) as found:
            assert pilots._support_runs(lam, 1e-6) == scan_support_runs(lam, 1e-6)
            assert pilots._support_runs(lam, pilots.EIGENVALUE_FLOOR_REL) == list(lam.runs)
        assert found.call_count == 1
        lam = np.r_[np.zeros(10), 1e-7, 1.0, 1e-7, np.zeros(10)]
        assert pilots._support_runs(lam, 1e-6) == [(11, 11)]
        assert pilots._support_runs(lam, 1e-8) == [(10, 12)]
        # views, copies, arithmetic and unpickled copies of a sample carry no runs
        sample = DopplerSpectrum.clarke(0.01).sample_eigenvalues(512)
        for derived in (sample[1:], sample[::2], sample.copy(), sample * 1.0, pickle.loads(pickle.dumps(sample))):
            assert derived.runs is None
            for floor in (1e-8, pilots.EIGENVALUE_FLOOR_REL):
                assert pilots._support_runs(derived, floor) == scan_support_runs(derived, floor)

    @pytest.mark.parametrize(
        "lam",
        [np.zeros(64), -np.ones(64), np.array([-1.0, 0.0, -2.0]), np.zeros(0)],
        ids=["all zero", "all negative", "non-positive peak", "empty"],
    )
    def test_no_positive_peak_has_no_runs(self, lam):
        assert pilots._support_runs(lam, 1e-10) == scan_support_runs(lam, 1e-10) == []
        if lam.size:
            assert shift_orthogonal(lam, lam.copy(), 0) is True

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_peak_raises(self, bad):
        clean = DopplerSpectrum.clarke(0.002).sample_eigenvalues(1000)
        lam = clean.copy()
        lam[3] = bad
        with pytest.raises(ValueError, match="non-finite peak"):
            shift_orthogonal(lam, lam, 0)
        lam = clean.copy()
        lam[0] = bad
        with pytest.raises(ValueError, match="non-finite peak"):
            shift_orthogonal(lam, clean, 0)
        # read-only: raised again on every lookup
        frozen = np.array(lam)
        frozen.flags.writeable = False
        for _ in range(2):
            with pytest.raises(ValueError, match="non-finite peak"):
                shift_orthogonal(clean, frozen, 0)
        assert shift_orthogonal(clean, clean, 0) is False


def support_masks(plan):
    """(K, P) boolean matrix of grid bins carrying each shifted spectrum, from the plan's windows."""
    bins, hit = plan._support_bins()
    masks = np.zeros((plan.K, plan.P), dtype=bool)
    np.put_along_axis(masks, bins, hit, axis=1)
    return masks


def loop_support_masks(plan):
    """The per-user loop that `support_masks` replaced (oracle)."""
    xi = grid_frequencies(plan.P)
    masks = np.zeros((plan.K, plan.P), dtype=bool)
    for k, (lo, hi) in enumerate(plan.supports()):
        rel = (xi - lo) % 1.0
        masks[k] = rel <= (hi - lo) + 1e-15
    return masks


@st.composite
def windowed_plans(draw):
    """Plans whose supports wrap bin 0 or 1, end exactly on bins, or nearly fill the circle."""
    P = draw(st.one_of(st.sampled_from([2, 3, 8, 64, 1024, 4096]), st.integers(2, 4096)))
    K = draw(st.integers(1, 8))
    dopplers, shifts = [], []
    for _ in range(K):
        case = draw(st.sampled_from(["wrap", "on bins", "nearly full", "any"]))
        if case == "wrap":
            # centred within a few bins of 0 or of P, so the support runs across bin 0
            F = draw(st.floats(min(1.0 / P, 0.2), 0.2))
            shift = draw(st.sampled_from([0.0, 1.0, 0.5, P - 1.0, P - 0.5, P - 1e-9]))
        elif case == "on bins":
            # an integer half-width in bins at an integer shift: both ends are multiples of 1/P
            F = draw(st.integers(1, max(1, P // 2))) / P
            shift = float(draw(st.integers(0, P - 1)))
        elif case == "nearly full":
            # a full turn wide, or short of it by a bin or two, or by a rounding
            F = 0.5 - draw(st.sampled_from([0.0, 1e-15, 1e-12, 0.5 / P, 1.0 / P, 1.5 / P, 2.0 / P]))
            shift = draw(st.one_of(st.floats(0.0, P, exclude_max=True), st.integers(0, P - 1).map(float)))
        else:
            F = draw(st.floats(1e-4, 0.5))
            shift = draw(st.floats(0.0, P, exclude_max=True))
        dopplers.append(F)
        shifts.append(shift)
    return AlignmentPlan(dopplers=tuple(dopplers), shifts=tuple(shifts), P=P)


class TestSupportMasks:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_the_loop(self, data):
        P = data.draw(st.integers(2, 4096))
        K = data.draw(st.integers(0, 12))
        # grid-aligned Dopplers and shifts put support ends exactly on bins
        doppler = st.one_of(st.floats(1e-4, 0.5), st.integers(1, P // 2).map(lambda m: m / P))
        shift = st.one_of(st.floats(0.0, P, exclude_max=True), st.integers(0, P - 1).map(float))
        dopplers = data.draw(st.lists(doppler, min_size=K, max_size=K))
        shifts = data.draw(st.lists(shift, min_size=K, max_size=K))
        plan = AlignmentPlan(dopplers=tuple(dopplers), shifts=tuple(shifts), P=P)
        got = support_masks(plan)
        assert got.dtype == bool and got.shape == (K, P)
        assert np.array_equal(got, loop_support_masks(plan))

    @given(windowed_plans())
    @settings(max_examples=150, deadline=None)
    def test_windows_bit_identical_at_the_edges(self, plan):
        masks = loop_support_masks(plan)
        assert np.array_equal(support_masks(plan), masks)
        assert plan.pairwise_orthogonal() == (not (masks.sum(axis=0) > 1).any())

    @pytest.mark.parametrize(
        "dopplers, shifts",
        [
            ((np.nan, 0.01), (3.0, 10.0)),
            ((np.inf, 0.01), (3.0, 10.0)),
            ((0.01, 0.02), (np.nan, 50.0)),
            ((0.01, 0.02), (1e18, 50.0)),
            ((0.01, 0.02), (-3e3 * 64, 50.0)),
            ((0.5, 0.01), (0.0, 32.0)),
            ((0.75, 0.01), (17.0, 32.0)),
        ],
    )
    def test_non_finite_and_far_supports_take_the_whole_grid(self, dopplers, shifts):
        plan = AlignmentPlan(dopplers=dopplers, shifts=shifts, P=64)
        with np.errstate(invalid="ignore"):
            masks = loop_support_masks(plan)
            assert np.array_equal(support_masks(plan), masks)
            assert plan.pairwise_orthogonal() == (not (masks.sum(axis=0) > 1).any())

    def test_planned_mixed_doppler_set(self):
        dopplers = np.random.default_rng(5).uniform(0.001, 0.004, 40).tolist()
        plan = plan_alignment(dopplers, [(-0.375, 0.375)], 4096)
        assert np.array_equal(support_masks(plan), loop_support_masks(plan))
        assert plan.pairwise_orthogonal()

    def test_empty_plan(self):
        plan = AlignmentPlan(dopplers=(), shifts=(), P=16)
        assert support_masks(plan).shape == (0, 16)
        assert plan.pairwise_orthogonal()

def gap(int_a, int_b):
    """`arc_gaps` of two single arcs, as a float."""
    return float(arc_gaps(*int_a, *int_b))


@st.composite
def arc_pairs(draw):
    """Two arcs that touch, overlap by 1e-12, wrap past 1, cover the circle together, or lie anywhere."""
    lo_a = draw(st.floats(-1.0, 1.0))
    wa = draw(st.floats(0.0, 0.9))
    wb = draw(st.floats(0.0, 0.9))
    case = draw(st.sampled_from(["touch after", "touch before", "overlap", "wrap", "full", "any"]))
    if case == "touch after":
        lo_b = lo_a + wa
    elif case == "touch before":
        lo_b = lo_a - wb
    elif case == "overlap":
        lo_b = lo_a + wa - 1e-12
    elif case == "wrap":
        lo_b = draw(st.floats(0.9, 1.0))
        wb = draw(st.floats(0.1, 0.5))
    elif case == "full":
        wb = 1.0 - wa + draw(st.floats(0.0, 0.5))
        lo_b = draw(st.floats(-1.0, 1.0))
    else:
        lo_b = draw(st.floats(-1.0, 1.0))
    return (lo_a, lo_a + wa), (lo_b, lo_b + wb)


def loop_validate(plan):
    """The pairwise loop that `AlignmentPlan.validate` replaced (oracle)."""
    problems = []
    sup = plan.supports()
    for k, (F, tau) in enumerate(zip(plan.dopplers, plan.shifts)):
        if not 0.0 < F <= 0.5:
            problems.append(f"user {k}: max Doppler {F} outside (0, 1/2]")
        if not 0 <= tau < plan.P:
            problems.append(f"user {k}: shift {tau} outside [0, P)")
    for k in range(plan.K):
        for g in range(k + 1, plan.K):
            gap_kg = circular_gap(sup[k], sup[g])
            if gap_kg < -1e-15:
                problems.append(f"users {k},{g}: supports overlap (gap {gap_kg:.3e})")
    for k in range(plan.K):
        for band in plan.forbidden:
            if circular_gap(sup[k], band) <= 0.0:
                problems.append(f"user {k}: support intersects forbidden band {band}")
    return problems


@st.composite
def plans(draw):
    """Plans with overlapping, touching and out-of-range supports and forbidden-band hits."""
    P = draw(st.integers(2, 4096))
    K = draw(st.integers(0, 10))
    if draw(st.booleans()):
        # a ladder of equal supports that touch: half-width m/P at shifts 2mk
        m = draw(st.integers(1, max(1, P // (2 * max(K, 1)))))
        dopplers = [m / P] * K
        shifts = [float(2 * m * k % P) for k in range(K)]
    else:
        doppler = st.one_of(
            st.floats(1e-4, 0.5), st.integers(1, max(1, P // 2)).map(lambda m: m / P), st.sampled_from([0.0, 0.75])
        )
        shift = st.one_of(
            st.floats(0.0, P, exclude_max=True), st.integers(0, P - 1).map(float), st.sampled_from([-1.0, float(P)])
        )
        dopplers = draw(st.lists(doppler, min_size=K, max_size=K))
        shifts = draw(st.lists(shift, min_size=K, max_size=K))
    return AlignmentPlan(
        dopplers=tuple(dopplers),
        shifts=tuple(shifts),
        P=P,
        forbidden=tuple(draw(st.lists(band_strategy(0.3), max_size=3))),
    )


class TestCircularGeometry:
    @given(
        lo_a=st.floats(0.0, 1.0),
        wa=st.floats(0.01, 0.45),
        lo_b=st.floats(0.0, 1.0),
        wb=st.floats(0.01, 0.45),
    )
    # overlap of exactly 1e-12, the touching band's edge: the two directions
    # land a few 1e-17 apart on either side of it
    @example(lo_a=0.125, wa=0.25, lo_b=1e-12, wb=0.125)
    @settings(max_examples=80, deadline=None)
    def test_gap_against_dense_sampling(self, lo_a, wa, lo_b, wb):
        gap_ab = gap((lo_a, lo_a + wa), (lo_b, lo_b + wb))
        # brute force: dense points of b, distance-to-a on the circle
        t = lo_b + np.linspace(0, wb, 4001)
        rel = (t - lo_a) % 1.0
        overlap = np.any(rel <= wa + 1e-12)
        if gap_ab > 1e-3:
            assert not overlap
        elif gap_ab < -1e-3:
            assert overlap
        # separation is symmetric; the overlap deficit is sign-symmetric only,
        # and exact touching may land a rounding ulp on either side of zero
        mirror = gap((lo_b, lo_b + wb), (lo_a, lo_a + wa))
        if gap_ab > 1e-12:
            assert mirror == pytest.approx(gap_ab, abs=1e-12)
        elif gap_ab < -1e-12:
            assert mirror < 1e-12
        else:
            # near touching both directions evaluate the same two differences
            # (the arcs' starts differ by at least a width), up to rounding
            assert abs(mirror - gap_ab) <= 1e-15

    @given(st.lists(arc_pairs(), min_size=1, max_size=6))
    @example([((0.125, 0.375), (1e-12, 1e-12 + 0.125))])
    @settings(max_examples=150, deadline=None)
    def test_gaps_equal_the_scalar_oracle(self, pairs):
        # every arc of the first column against every arc of the second, the
        # drawn pairs on the diagonal, as `validate` broadcasts them
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        got = arc_gaps(a[:, :1], a[:, 1:], b[:, 0], b[:, 1])
        want = [[circular_gap(int_a, int_b) for int_b in b.tolist()] for int_a in a.tolist()]
        assert got.tolist() == want
        assert [gap(int_a, int_b) for int_a, int_b in pairs] == np.diag(want).tolist()

    @given(plans())
    @settings(max_examples=150, deadline=None)
    def test_validate_messages_equal_the_pairwise_loop(self, plan):
        assert plan.validate() == loop_validate(plan)

    def test_validate_messages_on_a_crowded_plan(self):
        # a planned 40-user set with every shift moved: overlaps and band hits,
        # in the loop's order
        dopplers = np.random.default_rng(5).uniform(0.001, 0.004, 40).tolist()
        planned = plan_alignment(dopplers, [(-0.375, 0.375)], 4096)
        shifts = np.random.default_rng(6).uniform(0, 4096, 40).tolist()
        plan = AlignmentPlan(planned.dopplers, tuple(shifts), 4096, planned.forbidden)
        problems = plan.validate()
        assert any(p.startswith("users ") for p in problems)
        assert any("forbidden band" in p for p in problems)
        assert problems == loop_validate(plan)
        assert planned.validate() == loop_validate(planned) == []


class TestPlanPilotsIntegration:
    def test_plan_pilots_are_shift_orthogonal(self):
        plan = plan_alignment([0.002] * 4, [], 2048)
        lam = DopplerSpectrum.clarke(0.002).sample_eigenvalues(2048)
        for k in range(4):
            for g in range(k + 1, 4):
                assert shift_orthogonal(lam, lam, plan.shifts[g] - plan.shifts[k])
