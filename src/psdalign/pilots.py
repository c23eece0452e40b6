"""Pilot sequence construction and spectral alignment planning.

Cyclic-shift pilots are complex exponential ramps; in the Fourier picture the
shift slides the user's Doppler spectrum around the frequency circle. Users
whose shifted spectra occupy disjoint supports become asymptotically
non-interfering, so alignment planning is interval packing on the circle.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fading import grid_frequencies

# support detection threshold, relative to the largest eigenvalue
EIGENVALUE_FLOOR_REL = 1e-10
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

    @property
    def P(self):
        return len(self.values)


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
    covers the cyclic-shift pilots of criterion 6 and `validate`. Every other
    input forms the dense O(P^3) product (`_dense_norm`, also the tests' oracle).
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
    """
    P = R_k.shape[0]
    cpkg = np.conj(pkg)
    first_col = _matvec(R_k, pkg * R_g[:, 0] * cpkg[0])
    row = _matvec(R_g.T, R_k[0, :] * pkg) * cpkg
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


def _support_runs(lam, floor_rel):
    """Contiguous above-floor runs of an eigenvalue vector, as bin intervals.

    Runs are found on the centered (fftshift) axis so a support straddling
    frequency zero forms one interval; intervals are (lo, hi) in bin units on
    the circle of circumference P.

    The runs depend on the above-floor mask alone, so they are memoized on its
    packed bits: a vector mutated in place gets a new key, and equal masks
    share an entry.
    """
    lam = np.asarray(lam, dtype=float)
    peak = lam.max(initial=0.0)
    if peak <= 0.0:
        return []
    mask = lam > floor_rel * peak
    return list(_mask_runs(lam.size, np.packbits(mask).tobytes()))


# bounded: a planning op looks up a few dozen distinct masks, each dozens of times
@lru_cache(maxsize=256)
def _mask_runs(P, packed):
    """The runs of the length-P mask whose `np.packbits` bytes are `packed`."""
    mask = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=P).astype(bool)
    # unwrap to a centered axis so a support straddling bin 0 stays contiguous,
    # padded with a clear bin at each end so every run has a start and an end
    half = P // 2
    padded = np.concatenate(([False], mask[P - half :], mask[: P - half], [False]))
    # a boolean diff is True where the mask changes: run starts, and one past run ends
    change = np.flatnonzero(np.diff(padded))
    runs = list(zip(change[::2].tolist(), (change[1::2] - 1).tolist()))
    # wrap-around merge: run touching both ends is one circular run
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == P - 1:
        first = runs.pop(0)
        last = runs.pop()
        runs.append((last[0], first[1] + P))
    # back to absolute bin coordinates
    return tuple((lo - half, hi - half) for lo, hi in runs)


def shift_orthogonal(lam_k, lam_g, dtau, floor_rel=EIGENVALUE_FLOOR_REL):
    """True when the supports of lam_k and the dtau-shifted lam_g are disjoint.

    Supports are the closed bin intervals where eigenvalues exceed
    floor_rel * max. For integer dtau this coincides with elementwise
    disjointness of the rolled eigenvalue masks; fractional shifts compare the
    same intervals translated on the circle.
    """
    same = lam_g is lam_k
    lam_k = np.asarray(lam_k, dtype=float)
    lam_g = np.asarray(lam_g, dtype=float)
    if lam_k.shape != lam_g.shape:
        raise ValueError("eigenvalue vectors must have equal length")
    P = lam_k.size
    runs_k = _support_runs(lam_k, floor_rel)
    # one spectrum against itself (equal-Doppler users): its runs once
    runs_g = runs_k if same else _support_runs(lam_g, floor_rel)
    for lo_k, hi_k in runs_k:
        for lo_g, hi_g in runs_g:
            lo, hi = lo_g + dtau, hi_g + dtau
            # circular closed-interval overlap test
            delta = (lo - lo_k) % P
            if delta <= (hi_k - lo_k) or (P - delta) <= (hi - lo):
                return False
    return True


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
        gaps = _gaps(lo, hi, sup[:, 0], sup[:, 1])
        # touching passes, to the rounding of the gap; interior overlap fails
        for k, g in zip(*np.nonzero(np.triu(gaps < -1e-15, 1))):
            problems.append(f"users {k},{g}: supports overlap (gap {gaps[k, g]:.3e})")
        bands = np.array(self.forbidden, dtype=float).reshape(-1, 2)
        hits = _gaps(lo, hi, bands[:, 0], bands[:, 1]) <= 0.0
        for k, b in zip(*np.nonzero(hits)):
            problems.append(f"user {k}: support intersects forbidden band {self.forbidden[b]}")
        return problems

    def is_valid(self):
        return not self.validate()

    def support_masks(self):
        """(K, P) boolean matrix of grid bins carrying each shifted spectrum."""
        xi = grid_frequencies(self.P)
        sup = np.array(self.supports(), dtype=float).reshape(-1, 2)
        lo, hi = sup[:, :1], sup[:, 1:]
        d = xi - lo
        # d % 1.0 rounds the exact d - floor(d), as this subtraction does, so
        # the bits agree; floor costs a fraction of numpy's float remainder
        return d - np.floor(d) <= (hi - lo) + 1e-15

    def pairwise_orthogonal(self):
        """True when every user pair occupies disjoint grid bins."""
        # some pair shares a bin exactly when some bin is covered twice
        return not (self.support_masks().sum(axis=0) > 1).any()

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


def _gaps(lo_a, hi_a, lo_b, hi_b):
    """Minimal gaps (cycles) between closed arcs [lo_a, hi_a] and [lo_b, hi_b] on the unit circle.

    The arguments broadcast against each other. Positive: clear separation
    (symmetric in the arcs). Zero: the arcs touch at a point. Negative: they
    overlap; only the sign is meaningful then (the magnitude is a
    direction-dependent deficit), and arcs whose widths add up to a full turn
    get -1.
    """
    width_a = hi_a - lo_a
    width_b = hi_b - lo_b
    rel = (lo_b - lo_a) % 1.0
    fwd = rel - width_a            # from a's end forward to b's start
    bwd = (1.0 - rel) - width_b    # from b's end forward to a's start
    return np.where(width_a + width_b >= 1.0, -1.0, np.minimum(fwd, bwd))


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
    placed = []  # (lo, hi) occupied support intervals in cycles
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
        placed.append((center - F, center + F))
    return AlignmentPlan(dopplers=tuple(dopplers), shifts=tuple(shifts), P=P, forbidden=forbidden)


def _first_fit(F, placed, forbidden, P):
    """Earliest shift whose support clears every placed support and band.

    Integer shifts come first. The earliest clear integer is 0 or the first
    integer past the end of some blocked arc (a placed support or a band,
    widened by the user's half-width), so only those candidates are tested,
    +-1 for rounding at the arc ends. When no integer clears, the support goes
    to the earliest clear position just past a blocking interval's end.
    """
    if not placed and not forbidden:
        return 0.0
    blockers = np.array(list(placed) + list(forbidden), dtype=float)
    # where the user's support would start, just past each blocking arc
    start = (blockers[:, 1] + F) % 1.0
    edge = np.ceil(start * P)
    integers = np.unique(np.append((edge[:, None] + [-1.0, 0.0, 1.0]) % P, 0.0))
    fractional = np.sort((start * P) % P)
    # first clear shift in order: the integers, then the fractional fallback
    taus = np.concatenate((integers, fractional))
    clear = _clears(taus, F, blockers, len(placed), P)
    return float(taus[clear.argmax()]) if clear.any() else None


def _clears(taus, F, blockers, n_placed, P):
    """Which shifts put [tau/P - F, tau/P + F] clear of every blocking arc.

    The first `n_placed` blockers are placed supports, which need a gap of
    1e-15 at least (a rounding margin past touching); the rest are forbidden
    bands, which the support must not touch.
    """
    center = taus[:, None] / P
    gap = _gaps(center - F, center + F, blockers[:, 0], blockers[:, 1])
    placed_clear = (gap[:, :n_placed] >= 1e-15).all(axis=1)
    return placed_clear & (gap[:, n_placed:] > 0.0).all(axis=1)
