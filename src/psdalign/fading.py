"""Doppler spectra, channel covariances, and the ingredients of fading synthesis.

The spectral model lives on the normalized frequency interval (-1/2, 1/2].
A bathtub spectrum with normalized maximum Doppler F describes isotropic
scattering; its autocorrelation is J0(2*pi*F*v). Flat bands model band-limited
interference.

`arc_gaps` measures the gap between closed arcs of that circle, for the
alignment planner and for the interferers the limit integral keeps.
`DopplerSpectrum.sample_eigenvalues` samples a spectrum on the P-point grid
as a read-only `SampledPsd`, which carries its support runs (`support_runs`),
so the shift-orthogonality checks of `psdalign.pilots` find them once.

Channels are drawn only by the models of `psdalign.simkit`: the exact one from
`DopplerSpectrum.synthesis_nodes`, the circulant one from the clamped
`ChannelCovariance.eigenvalues`, both through `complex_normal`.

Sign convention (matters only for spectra without even symmetry): the
autocorrelation is r(v) = integral S(xi) exp(+2j*pi*xi*v) dxi, equivalently
r(v) = E[h(n+v) conj(h(n))], so a positive-frequency tone has a positively
rotating autocorrelation. Covariances pair as E[h h^H](l, l') = r(l - l').
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import j0

from .quadrature import oscillatory_nodes


def _bathtub(F, F2, x):
    """The bathtub density at x for half-widths F (with F2 = F**2) broadcast against x."""
    out = np.zeros_like(x)
    distance = np.abs(x)
    inside = distance < F
    if np.ndim(F2):
        F2 = np.broadcast_to(F2, x.shape)[inside]
    out[inside] = 1.0 / (np.pi * np.sqrt(F2 - x[inside] ** 2))
    out[distance == F] = np.inf
    return out


def stacked_psd(spectra):
    """Densities of several spectra, one row each, as a function of a (G, N) array.

    Row g of the result is spectra[g].psd(x[g]), bit for bit. The bathtub rows
    are evaluated in one broadcast, and the frequency domain is checked once.
    """
    spectra = list(spectra)
    bathtubs = [g for g, sp in enumerate(spectra) if sp.kind == "clarke"]
    others = [g for g, sp in enumerate(spectra) if sp.kind != "clarke"]
    # F**2 as the scalar path squares it, a Python float power
    F = np.array([spectra[g].max_doppler for g in bathtubs])[:, None]
    F2 = np.array([spectra[g].max_doppler ** 2 for g in bathtubs])[:, None]
    power = np.array([spectra[g].power for g in bathtubs], dtype=float)[:, None]

    def density(x):
        x = np.asarray(x, dtype=float)
        _check_frequency_domain(x)
        out = np.empty_like(x)
        if bathtubs:
            out[bathtubs] = power * _bathtub(F, F2, x[bathtubs])
        for g in others:
            out[g] = spectra[g].psd(x[g])
        return out

    return density


def _check_frequency_domain(x):
    if (x <= -0.5).any() or (x > 0.5).any():
        raise ValueError("normalized frequency must lie in (-1/2, 1/2]")


# bounded: a run asks for a few grid lengths, each many times
@lru_cache(maxsize=32)
def grid_frequencies(P):
    """DFT bin frequencies p/P wrapped into (-1/2, 1/2], in DFT order.

    The grid of each length is built once and shared: the array is read-only.
    """
    xi = np.arange(P) / P
    xi = np.where(xi > 0.5, xi - 1.0, xi)
    xi.flags.writeable = False
    return xi


# slack (cycles) for arc tests that must err one way under rounding: far
# above the rounding of shifted arc ends (a few 1e-16 on values of order 1)
# and far below any support width or slot, so rounding can only add to what
# is tested (an interferer kept, a candidate shift tried), never take away
ARC_MARGIN = 1e-9


def arc_gaps(lo_a, hi_a, lo_b, hi_b):
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


# support detection threshold, relative to the largest eigenvalue
EIGENVALUE_FLOOR_REL = 1e-10


def support_runs(lam, floor_rel):
    """Contiguous runs of bins where the float array lam exceeds floor_rel * max(lam), as a tuple.

    Runs are found on the centered (fftshift) axis so a support straddling
    frequency zero forms one interval; intervals are (lo, hi) in bin units on
    the circle of circumference P. A vector whose largest entry is nan or inf
    has no meaningful floor and raises ValueError.
    """
    P = lam.size
    peak = lam.max(initial=0.0)
    if not math.isfinite(peak):
        raise ValueError(f"eigenvalue vector has a non-finite peak ({peak})")
    if peak <= 0.0:
        return ()
    mask = lam > floor_rel * peak
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


class SampledPsd(np.ndarray):
    """PSD samples on the P-point grid, as `DopplerSpectrum.sample_eigenvalues` returns them.

    A float array with one attribute added, `runs`: on a sample, its
    `support_runs` at `EIGENVALUE_FLOOR_REL`, found as the sample was built.
    A sample lies on an immutable buffer, so neither it nor its base can be
    made writable, and its runs cannot go stale. A view, copy, arithmetic
    result or unpickled copy of a sample has runs None.
    """

    runs = None

    def __array_wrap__(self, array, context=None, return_scalar=False):
        # a reduction gives a numpy scalar, as on a plain array, not a 0-d sample
        if return_scalar:
            return array[()]
        return super().__array_wrap__(array, context, return_scalar)


@dataclass(frozen=True)
class DopplerSpectrum:
    """Normalized power spectral density of a stationary channel process.

    One of two kinds: "clarke" (bathtub of half-width `max_doppler`) or
    "flat" (uniform on `band`). `power` is the total process power.
    """

    kind: str
    max_doppler: float | None = None
    band: tuple[float, float] | None = None
    power: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.power) and self.power >= 0):
            raise ValueError(f"power must be finite and nonnegative, got {self.power}")
        if self.kind == "clarke":
            if not 0.0 < self.max_doppler <= 0.5:
                raise ValueError(f"normalized max Doppler must be in (0, 1/2], got {self.max_doppler}")
        elif self.kind == "flat":
            lo, hi = self.band
            # lo = -1/2 is admitted for the full band: that endpoint is the same
            # circle point as +1/2 and carries no mass
            if not (-0.5 <= lo < hi <= 0.5):
                raise ValueError(f"band must satisfy -1/2 <= lo < hi <= 1/2, got [{lo}, {hi}]")
            if not math.isfinite(self.power / (hi - lo)):
                raise ValueError(f"band [{lo}, {hi}] is too narrow for a finite density at power {self.power}")
        else:
            raise ValueError(f"unknown spectrum kind {self.kind!r}")

    @classmethod
    def clarke(cls, max_doppler, power=1.0):
        return cls(kind="clarke", max_doppler=float(max_doppler), power=float(power))

    @classmethod
    def flat_band(cls, lo, hi, power=1.0):
        return cls(kind="flat", band=(float(lo), float(hi)), power=float(power))

    def psd(self, xi):
        """Spectral density at normalized frequency xi in (-1/2, 1/2].

        A float for a scalar xi, an array otherwise. The bathtub density is
        (power/pi)/sqrt(F^2 - xi^2) inside the band, 0 outside, and inf at the
        band edges where it is singular; the flat one is power/width on the
        closed band.
        """
        x = np.asarray(xi, dtype=float)
        _check_frequency_domain(x)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if self.kind == "clarke":
            out = _bathtub(self.max_doppler, self.max_doppler**2, x)
        else:
            lo, hi = self.band
            out = np.where((x >= lo) & (x <= hi), self.power / (hi - lo), 0.0)
        out = float(out[0]) if scalar else out
        # the bathtub's power scales a Python float for a scalar xi, as 0 * inf
        # at a powerless edge must give nan without numpy's warning
        return self.power * out if self.kind == "clarke" else out

    def autocorrelation(self, lag):
        """Autocorrelation at (possibly fractional) lags; r(0) = power."""
        v = np.asarray(lag, dtype=float)
        if self.kind == "clarke":
            return self.power * j0(2.0 * np.pi * self.max_doppler * v)
        lo, hi = self.band
        return self.power * np.exp(1j * np.pi * (lo + hi) * v) * np.sinc((hi - lo) * v)

    def support(self):
        """Closed frequency interval(s) carrying power, as (lo, hi) pairs."""
        if self.power == 0:
            return []
        if self.kind == "clarke":
            return [(-self.max_doppler, self.max_doppler)]
        return [self.band]

    def sample_eigenvalues(self, P):
        """PSD samples on the P-point grid (the large-P eigenvalue picture), as a `SampledPsd`.

        Bins hit exactly by a singular bathtub edge get the bin-averaged mass
        instead of the (infinite) pointwise value: P times the arcsine mass
        (power/pi)(arcsin(b/F) - arcsin(a/F)) of the bin [a, b] clipped to the band.
        The bathtub is evaluated only on the bins within ceil(F P) + 1 of bin 0
        (the whole grid when that window covers it): no other bin lies within
        1e-15 of the band.

        The samples are read-only and carry their support runs; take a copy
        to change them.
        """
        xi = grid_frequencies(P)
        if self.kind == "clarke":
            F = self.max_doppler
            lam = np.zeros(P)
            reach = math.ceil(F * P) + 1
            bins = np.arange(-reach, reach + 1) % P if 2 * reach + 1 < P else np.arange(P)
            x = xi[bins]
            inside = np.abs(x) < F
            lam[bins[inside]] = self.power / (np.pi * np.sqrt(F**2 - x[inside] ** 2))
            for i in bins[np.abs(np.abs(x) - F) < 1e-15].tolist():
                a = np.clip(xi[i] - 0.5 / P, -F, F)
                b = np.clip(xi[i] + 0.5 / P, -F, F)
                lam[i] = P * (self.power * (np.arcsin(b / F) - np.arcsin(a / F)) / np.pi)
        else:
            lo, hi = self.band
            lam = np.where((xi >= lo) & (xi <= hi), self.power / (hi - lo), 0.0)
        sample = np.frombuffer(lam.tobytes()).view(SampledPsd)
        sample.runs = support_runs(lam, EIGENVALUE_FLOOR_REL)
        return sample

    def synthesis_nodes(self, max_lag):
        """Quadrature of the spectral measure: frequencies and amplitudes.

        Returns (xi_q, amp_q) with sum_q amp_q^2 * exp(2j*pi*xi_q*v) matching
        the autocorrelation to near machine precision for all |v| <= max_lag.
        The bathtub singularity is removed by the arcsine substitution
        xi = F*sin(theta), under which the spectral measure is uniform.
        """
        if self.kind == "clarke":
            F = self.max_doppler
            theta, w = oscillatory_nodes(-np.pi / 2, np.pi / 2, 2 * np.pi * F * max_lag)
            return F * np.sin(theta), np.sqrt(self.power * w / np.pi)
        lo, hi = self.band
        xi, w = oscillatory_nodes(lo, hi, 2 * np.pi * max_lag)
        return xi, np.sqrt(self.power * w / (hi - lo))


@dataclass
class ChannelCovariance:
    """Toeplitz covariance of P successive channel samples plus its circulant picture.

    `values` holds the autocorrelation r(0), ..., r(P-1), so P is its length;
    the Toeplitz matrix has entries R[l, l'] = r(l - l'). The circulant
    approximation wraps the autocorrelation tail into the first column; its
    eigenvalues (the DFT of that column) are stored clamped to >= 0 so they
    can drive the circulant model's draws.
    """

    values: np.ndarray

    @cached_property
    def circulant_column(self):
        r = np.asarray(self.values)
        c = r.astype(complex)
        # column entry l is r(l) plus the wrapped tail r(l - P) = conj(r(P-l))
        c[1:] = r[1:] + np.conj(r[:0:-1])
        return c

    @cached_property
    def eigenvalues(self):
        return np.clip(np.fft.fft(self.circulant_column).real, 0.0, None)

    def toeplitz(self):
        """Materialize the exact P x P Toeplitz covariance E[h h^H].

        Real (float64) when the autocorrelation is real, as for the bathtub
        spectrum, and complex otherwise; the entries are the same either way.
        """
        # first column r(l), first row conj(r(l)) = r(-l)
        return toeplitz(np.asarray(self.values))


def build_covariance(spectrum, P):
    """Covariance of P successive samples of a process with the given spectrum."""
    if P < 2:
        raise ValueError("observation length P must be >= 2")
    return ChannelCovariance(np.asarray(spectrum.autocorrelation(np.arange(P))))


def complex_normal(rng, shape, out=None, scratch=None):
    """Standard circular complex Gaussians, unit variance per entry.

    Bit-identical to (a + 1j * b) / sqrt(2) for a then b drawn by
    rng.standard_normal(shape), without that expression's temporaries.
    `out` (complex) and `scratch` (float), both C-contiguous of `shape`,
    receive the draw and each plane of it in turn; either is allocated when
    not given, and the numbers are the same.
    """
    if out is None:
        out = np.empty(shape, dtype=complex)
    if scratch is None:
        scratch = np.empty(shape)
    # numpy divides a complex array by a real scalar as a product with its
    # reciprocal; the same product on the float parts is bit for bit that
    # division, at a fraction of its cost
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(rng.standard_normal(out=scratch), scale, out=out.real)
    np.multiply(rng.standard_normal(out=scratch), scale, out=out.imag)
    return out
