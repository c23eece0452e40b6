"""Pilot sequence construction and spectral alignment planning.

Cyclic-shift pilots are complex exponential ramps; in the Fourier picture the
shift slides the user's Doppler spectrum around the frequency circle. Users
whose shifted spectra occupy disjoint supports become asymptotically
non-interfering, so alignment planning is interval packing on the circle.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .fading import ARC_MARGIN, EIGENVALUE_FLOOR_REL, SampledPsd, arc_gaps, grid_frequencies, support_runs

_UNIT_MODULUS_TOL = 1e-9
# consecutive-ratio spread, per slot of length, below which pkg counts as a ramp
_RAMP_TOL_PER_SLOT = 1e-13


class PlanInfeasibleError(ValueError):
    """Raised when the requested supports cannot be packed on the circle."""

    def __init__(self, message, width_deficit):
        super().__init__(message)
        self.width_deficit = width_deficit


@dataclass(frozen=True)
class PilotSequence:
    """Length-P unit-modulus pilot sequence."""

    values: np.ndarray

    def __post_init__(self):
        dev = np.max(np.abs(np.abs(self.values) - 1.0))
        if dev > _UNIT_MODULUS_TOL:
            raise ValueError(f"pilot entries must have unit modulus (max deviation {dev:.2e})")


def fft_pilot(shift, P):
    """Cyclic-shift pilot x(n) = exp(2j*pi*shift*n/P).

    Parameters
    ----------
    shift : float
        Cyclic shift in slots, 0 <= shift < P; may be fractional, as staggered
        shift grids generally are.
    P : int
        Sequence length.
    """
    if not 0 <= shift < P:
        raise ValueError(f"shift must satisfy 0 <= shift < P, got {shift}")
    n = np.arange(P)
    return PilotSequence(values=np.exp(2j * np.pi * shift * n / P))


def hadamard_pilots(K):
    """The K rows of the Sylvester Hadamard matrix as +-1 pilot sequences."""
    if K < 1 or K & (K - 1):
        raise ValueError(f"Hadamard construction needs a power-of-2 length, got {K}")
    H = np.ones((1, 1))
    while H.shape[0] < K:
        H = np.block([[H, H], [H, -H]])
    return [PilotSequence(values=row.astype(complex)) for row in H]


def orthogonality_residual(R_k, R_g, pkg):
    """Size of R_k P R_g P^H on the per-slot RMS scale; 0 means non-interfering.

    The Frobenius norm is normalized by P^(3/2): one factor sqrt(P) converts
    the norm to the RMS-eigenvalue scale, the remaining factor P normalizes
    like the per-element MSE quantities it feeds.

    `pkg` is the diagonal of the cross product X_k^H X_g, as a 1-D array: the
    cross product of two diagonal pilots is diagonal.

    When R_k and R_g are Toeplitz (checked entry for entry) and the diagonal
    `pkg` is a constant-modulus exponential ramp (equal consecutive ratios, to
    the rounding of computed phases), the product has displacement rank 2 and
    its norm takes O(P^2) time and O(P) memory (`_structured_norm`); that
    covers the cyclic-shift pilots of criterion 6, the one caller in the
    package. Every other input forms the dense O(P^3) product (`_dense_norm`,
    also the tests' oracle).
    """
    R_k = np.asarray(R_k)
    R_g = np.asarray(R_g)
    if R_k.shape != R_g.shape or R_k.shape[0] != R_k.shape[1]:
        raise ValueError("covariance shapes are incompatible")
    P = R_k.shape[0]
    pkg = np.asarray(pkg)
    if pkg.shape != (P,):
        raise ValueError(f"cross-product diagonal must have shape ({P},), got {pkg.shape}")
    structured = _is_ramp(pkg) and _is_toeplitz(R_k) and (R_g is R_k or _is_toeplitz(R_g))
    norm = _structured_norm(R_k, R_g, pkg) if structured else _dense_norm(R_k, R_g, pkg)
    return norm / P**1.5


def _dense_norm(R_k, R_g, pkg):
    """Frobenius norm of the dense product R_k D R_g D^H, D = diag(pkg)."""
    # scale columns, one dense product
    prod = R_k * pkg[None, :]
    if np.iscomplexobj(prod) and np.isrealobj(R_g):
        # two real GEMMs, written back in place, instead of upcasting R_g
        # to one complex GEMM
        prod.real = prod.real @ R_g
        prod.imag = prod.imag @ R_g
    else:
        prod = prod @ R_g
    prod *= np.conj(pkg)[None, :]
    return float(np.linalg.norm(prod, "fro"))


def _is_toeplitz(R):
    return np.array_equal(R[1:, 1:], R[:-1, :-1])


def _is_ramp(pkg):
    """Whether pkg[n] = c z^n with |z| = 1, to the rounding of computed phases.

    A phase 2*pi*tau*n/P evaluated in floating point is off by a few ulps of
    its size, up to about 2*pi*P, so the tolerance grows with the length.
    """
    P = pkg.size
    if P < 2:
        return False
    tol = _RAMP_TOL_PER_SLOT * P
    modulus = np.abs(pkg)
    if not (modulus[0] > 0 and np.abs(modulus - modulus[0]).max() <= tol * modulus[0]):
        return False
    ratios = pkg[1:] / pkg[:-1]
    return bool(np.abs(ratios - ratios[0]).max() <= tol)


def _matvec(A, x):
    """A @ x without upcasting a real A to complex."""
    if np.isrealobj(A) and np.iscomplexobj(x):
        return A @ x.real + 1j * (A @ x.imag)
    return A @ x


def _structured_norm(R_k, R_g, pkg):
    """Frobenius norm of C = R_k B, B = D R_g D^H, for Toeplitz R_k, R_g and a ramp D.

    B is Toeplitz, so C has displacement rank 2 (Kailath & Sayed, SIAM Review
    37, 1995): C[i+1, j+1] = C[i, j] + R_k[i+1, 0] B[0, j+1] - R_k[i, P-1] B[P-1, j].
    C's first row and column take one matrix-vector product each; every later
    row follows from the one before in O(P), and the norm accumulates row by row.
    The rows alternate between two buffers, whose slices are taken once, and
    the correction term goes through one scratch row, so a row allocates nothing.
    """
    P = R_k.shape[0]
    cpkg = np.conj(pkg)
    first_col = _matvec(R_k, pkg * R_g[:, 0] * cpkg[0])
    row = _matvec(R_g.T, R_k[0, :] * pkg) * cpkg
    row = row.astype(np.result_type(row, first_col))
    b_first = (pkg[0] * R_g[0, 1:] * cpkg[1:]).astype(row.dtype)
    b_last = (pkg[-1] * R_g[-1, :-1] * cpkg[:-1]).astype(row.dtype)
    a_first, a_last, c_first = R_k[:, 0].tolist(), R_k[:, -1].tolist(), first_col.tolist()
    total = np.vdot(row, row).real
    scratch = np.empty_like(b_last)
    # (buffer, head [:-1], tail [1:]) of the current row and of the next
    cur = (row, row[:-1], row[1:])
    nxt = np.empty_like(row)
    new = (nxt, nxt[:-1], nxt[1:])
    for i in range(P - 1):
        buf, _, tail = new
        buf[0] = c_first[i + 1]
        np.multiply(b_first, a_first[i + 1], out=tail)
        tail += cur[1]
        np.multiply(a_last[i], b_last, out=scratch)
        tail -= scratch
        total += np.vdot(buf, buf).real
        cur, new = new, cur
    return float(np.sqrt(total))


def _support_runs(lam, floor_rel):
    """Contiguous above-floor runs of an eigenvalue vector, as a list of `fading.support_runs` intervals.

    A `SampledPsd` from `DopplerSpectrum.sample_eigenvalues` carries its runs
    at `EIGENVALUE_FLOOR_REL`, and they are read there; any other input, or
    another floor, finds its runs from the mask on every call.
    """
    runs = lam.runs if isinstance(lam, SampledPsd) and floor_rel == EIGENVALUE_FLOOR_REL else None
    if runs is None:
        runs = support_runs(np.asarray(lam, dtype=float), floor_rel)
    return list(runs)


def shift_orthogonal(lam_k, lam_g, dtau, floor_rel=EIGENVALUE_FLOOR_REL):
    """True when the supports of lam_k and the dtau-shifted lam_g are disjoint.

    Supports are the closed bin intervals where eigenvalues exceed
    floor_rel * max. For integer dtau this coincides with elementwise
    disjointness of the rolled eigenvalue masks; fractional shifts compare the
    same intervals translated on the circle. A vector whose largest entry is
    nan or inf raises ValueError. Samples from
    `DopplerSpectrum.sample_eigenvalues` carry their runs (`_support_runs`),
    so checking every pair of K users finds no runs beyond those K.
    """
    if np.shape(lam_k) != np.shape(lam_g):
        raise ValueError("eigenvalue vectors must have equal length")
    P = np.size(lam_k)
    runs_k = _support_runs(lam_k, floor_rel)
    # one spectrum against itself (equal-Doppler users): its runs once
    runs_g = runs_k if lam_g is lam_k else _support_runs(lam_g, floor_rel)
    for run_k in runs_k:
        for run_g in runs_g:
            if runs_overlap(run_k, run_g, dtau, P):
                return False
    return True


def runs_overlap(run_k, run_g, dtau, P):
    """Circular closed-interval overlap of bin run_k and bin run_g shifted by dtau (scalar or array)."""
    lo_k, hi_k = run_k
    lo, hi = run_g[0] + dtau, run_g[1] + dtau
    delta = (lo - lo_k) % P
    return (delta <= (hi_k - lo_k)) | ((P - delta) <= (hi - lo))


@dataclass(frozen=True)
class AlignmentPlan:
    """Per-user cyclic shifts placing Doppler supports apart on the circle.

    Shifts are in slots (fractional allowed), supports in cycles. User
    supports may touch but not overlap; every support must be strictly
    disjoint from every forbidden band.
    """

    dopplers: tuple
    shifts: tuple
    P: int
    forbidden: tuple = ()

    @property
    def K(self):
        return len(self.dopplers)

    def supports(self):
        """Per-user closed supports [shift/P - F, shift/P + F] (cycles, unwrapped)."""
        return [
            (tau / self.P - F, tau / self.P + F)
            for tau, F in zip(self.shifts, self.dopplers)
        ]

    def validate(self):
        """Check all plan invariants; returns a list of violation messages."""
        problems = []
        for k, (F, tau) in enumerate(zip(self.dopplers, self.shifts)):
            if not 0.0 < F <= 0.5:
                problems.append(f"user {k}: max Doppler {F} outside (0, 1/2]")
            if not 0 <= tau < self.P:
                problems.append(f"user {k}: shift {tau} outside [0, P)")
        # every support against every support and band; np.nonzero walks the
        # (user, user) pairs above the diagonal and the (user, band) pairs in
        # row-major order, the order of nested loops over k, then g or band
        sup = np.array(self.supports(), dtype=float).reshape(-1, 2)
        lo, hi = sup[:, :1], sup[:, 1:]
        gaps = arc_gaps(lo, hi, sup[:, 0], sup[:, 1])
        # touching passes, to the rounding of the gap; interior overlap fails
        for k, g in zip(*np.nonzero(np.triu(gaps < -1e-15, 1))):
            problems.append(f"users {k},{g}: supports overlap (gap {gaps[k, g]:.3e})")
        bands = np.array(self.forbidden, dtype=float).reshape(-1, 2)
        hits = arc_gaps(lo, hi, bands[:, 0], bands[:, 1]) <= 0.0
        for k, b in zip(*np.nonzero(hits)):
            problems.append(f"user {k}: support intersects forbidden band {self.forbidden[b]}")
        return problems

    def is_valid(self):
        return not self.validate()

    def _support_bins(self):
        """A window of grid bins around each support, (K, w), and which of them carry it.

        Bin p carries support [lo, hi] when d - floor(d) <= (hi - lo) + 1e-15
        for d = xi_p - lo. Rounding moves d by far less than a bin, so every
        such bin lies within one bin of [lo, hi]: row k's window runs w bins on
        from the bin below floor(lo * P), w covering the widest support and a
        bin past each of its ends. A window of P bins is the whole grid; so is
        every row's when a support end is not finite or lies outside [-2, 2]
        cycles, where the rounding of d is no longer small.
        """
        P = self.P
        sup = np.array(self.supports(), dtype=float).reshape(-1, 2)
        lo, hi = sup[:, :1], sup[:, 1:]
        if np.abs(sup).max(initial=0.0) <= 2.0:
            first = np.floor(lo * P) - 1.0
            width = int(min(P, (np.floor(hi * P) - first).max(initial=0.0) + 2.0))
        else:
            first, width = np.zeros_like(lo), P
        bins = (first.astype(np.intp) + np.arange(width)) % P
        d = grid_frequencies(P)[bins] - lo
        # d % 1.0 rounds the exact d - floor(d), as this subtraction does, so
        # the bits agree; floor costs a fraction of numpy's float remainder
        return bins, d - np.floor(d) <= (hi - lo) + 1e-15

    def pairwise_orthogonal(self):
        """True when every user pair occupies disjoint grid bins."""
        # a row's window holds each bin once, so some pair shares a bin
        # exactly when some bin is carried twice
        bins, hit = self._support_bins()
        return not (np.bincount(bins[hit]) > 1).any()

    def to_dict(self):
        return {
            "P": self.P,
            "dopplers": list(self.dopplers),
            "shifts": list(self.shifts),
            "forbidden": [list(b) for b in self.forbidden],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            dopplers=tuple(d["dopplers"]),
            shifts=tuple(d["shifts"]),
            P=int(d["P"]),
            forbidden=tuple(tuple(b) for b in d.get("forbidden", ())),
        )


def uniform_capacity(max_doppler):
    """How many equal-Doppler users fit on the circle: floor(1/(2F))."""
    return int(math.floor(1.0 / (2.0 * max_doppler))) if max_doppler > 0 else 0


def plan_alignment(dopplers, forbidden, P):
    """Pack user Doppler supports onto the frequency circle.

    Users are placed in increasing-Doppler order by first fit, preferring
    integer shifts; when an integer grid position does not exist the support
    goes to the earliest feasible fractional position. With equal Dopplers and
    no forbidden bands the plan is the evenly spaced shift ladder
    {k * ceil(2*F*P)} (or the tight real-valued spacing P/K when the integer
    ladder no longer fits).

    Raises PlanInfeasibleError with the width deficit when the total demanded
    support width exceeds the available circle.
    """
    if P < 2:
        raise ValueError("P must be >= 2")
    dopplers = [float(F) for F in dopplers]
    for F in dopplers:
        if not 0.0 < F <= 0.5:
            raise ValueError(f"max Doppler {F} outside (0, 1/2]")
    forbidden = tuple(tuple(b) for b in forbidden)
    for lo, hi in forbidden:
        if not hi > lo:
            raise ValueError(f"forbidden band [{lo}, {hi}] is empty")
    K = len(dopplers)
    if K == 0:
        return AlignmentPlan(dopplers=(), shifts=(), P=P, forbidden=forbidden)

    demanded = sum(2 * F for F in dopplers)
    available = 1.0 - sum(hi - lo for lo, hi in forbidden)
    if demanded > available + 1e-12:
        raise PlanInfeasibleError(
            f"supports demand width {demanded:.6f} but only {available:.6f} is free",
            width_deficit=demanded - available,
        )

    uniform = len(set(dopplers)) == 1 and not forbidden
    if uniform:
        F = dopplers[0]
        spacing = math.ceil(2 * F * P)
        if spacing <= 2 * F * P:
            spacing += 1  # strict disjointness when 2FP lands on an integer
        if K * spacing <= P:
            shifts = tuple(float(k * spacing) for k in range(K))
        else:
            shifts = tuple(k * P / K for k in range(K))
        return AlignmentPlan(dopplers=tuple(dopplers), shifts=shifts, P=P, forbidden=forbidden)

    order = sorted(range(K), key=lambda k: dopplers[k])
    placed = _Occupancy(forbidden)
    shifts = [None] * K
    for k in order:
        F = dopplers[k]
        tau = _first_fit(F, placed, forbidden, P)
        if tau is None:
            raise PlanInfeasibleError(
                f"no feasible shift for user {k} (F={F}); free width insufficient",
                width_deficit=2 * F,
            )
        shifts[k] = tau
        center = tau / P
        placed.add((center - F, center + F))
    return AlignmentPlan(dopplers=tuple(dopplers), shifts=tuple(shifts), P=P, forbidden=forbidden)


class _Occupancy:
    """The placed supports and the forbidden bands, as disjoint arcs sorted around the circle.

    An occupied arc is kept as (start, end): start = lo % 1.0 and end = start +
    width, so an arc across 1 ends past it. Bands that overlap or touch are
    merged into one arc. Free arc i runs from the end of occupied arc i to the
    start of the next. Iterating yields the placed supports, as (lo, hi) in
    cycles, in the order they were added.
    """

    def __init__(self, forbidden):
        self._placed = []
        merged = _merged_arcs(forbidden)
        self._starts = [start for start, _ in merged]
        self._ends = [end for _, end in merged]

    def __iter__(self):
        return iter(self._placed)

    def __len__(self):
        return len(self._placed)

    def add(self, support):
        """Occupy one placed support (lo, hi)."""
        lo, hi = support
        start = lo % 1.0
        i = bisect.bisect(self._starts, start)
        self._starts.insert(i, start)
        self._ends.insert(i, start + (hi - lo))
        self._placed.append(support)

    def rooms(self, F, P):
        """Integer shift ranges (first, last), ascending, holding every shift whose support may fit.

        A support of half-width F fits a free arc [a, b] when its center lies in
        [a + F, b - F]; each range holds the integers of that interval widened
        by `ARC_MARGIN`, as shifts in [0, P).
        """
        a = np.array(self._ends)
        b = np.array(self._starts[1:] + [self._starts[0] + 1.0])
        first = np.ceil((a + (F - ARC_MARGIN)) * P)
        last = np.floor((b - (F - ARC_MARGIN)) * P)
        room = first <= last
        first, last = first[room], np.minimum(last[room], first[room] + (P - 1))
        # a room may start past P, or run across it
        turns = np.floor_divide(first, P) * P
        first, last = (first - turns).astype(int).tolist(), (last - turns).astype(int).tolist()
        rooms = [(lo, min(hi, P - 1)) for lo, hi in zip(first, last)]
        rooms += [(0, hi - P) for hi in last if hi >= P]
        return sorted(rooms)


def _merged_arcs(arcs):
    """Closed arcs (lo, hi) merged where they overlap or touch, as sorted [start, end] with start = lo % 1.0."""
    merged = []
    for start, end in sorted((lo % 1.0, lo % 1.0 + (hi - lo)) for lo, hi in arcs):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    # the last arc may run past 1 onto the first ones
    while len(merged) > 1 and merged[-1][1] >= merged[0][0] + 1.0:
        merged[-1][1] = max(merged[-1][1], merged.pop(0)[1] + 1.0)
    return merged


def _first_fit(F, placed, forbidden, P):
    """Earliest shift whose support clears every placed support and band.

    `placed` is the `_Occupancy` of the supports placed so far and the bands.
    Integer shifts come first. Every integer whose support could clear lies in
    one of the rooms of the free arcs (`_Occupancy.rooms`), and in a room the
    first clear integer is among its first three (the room's margin and the
    rounding at the arc's end each cost at most one), so first fit tests a
    room's integers three at a time, in order, and stops at the first room that
    holds a clear one. Each test runs `_clears` against every placed support
    and band, so a user costs a few tests of three shifts, not a scan of the
    circle. When no integer clears, the support goes to the earliest clear
    position just past a blocking interval's end.
    """
    if not len(placed) and not forbidden:
        return 0.0
    blockers = np.array(list(placed) + list(forbidden), dtype=float)
    best = None
    for first, last in placed.rooms(F, P):
        if best is not None:
            if first >= best:
                break
            last = min(last, best - 1)
        for lo in range(first, last + 1, 3):
            taus = np.arange(lo, min(lo + 2, last) + 1, dtype=float)
            clear = _clears(taus, F, blockers, len(placed), P)
            if clear.any():
                best = int(taus[clear.argmax()])
                break
    if best is not None:
        return float(best)
    # where the user's support would start, just past each blocking arc
    start = (blockers[:, 1] + F) % 1.0
    fractional = np.sort((start * P) % P)
    clear = _clears(fractional, F, blockers, len(placed), P)
    return float(fractional[clear.argmax()]) if clear.any() else None


def _clears(taus, F, blockers, n_placed, P):
    """Which shifts put [tau/P - F, tau/P + F] clear of every blocking arc.

    The first `n_placed` blockers are placed supports, which need a gap of
    1e-15 at least (a rounding margin past touching); the rest are forbidden
    bands, which the support must not touch.
    """
    center = taus[:, None] / P
    gap = arc_gaps(center - F, center + F, blockers[:, 0], blockers[:, 1])
    placed_clear = (gap[:, :n_placed] >= 1e-15).all(axis=1)
    return placed_clear & (gap[:, n_placed:] > 0.0).all(axis=1)
