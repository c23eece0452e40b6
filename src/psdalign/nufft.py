"""Type-1 nonuniform FFT: sums of complex exponentials at integer outputs.

    f_n = sum_q c_q exp(2j*pi*n*xi_q),    n = 0, ..., N-1,

for fixed real nodes xi_q and a block of strengths c (one column per
independent sum). The direct sum costs N*Q multiply-adds a column. Gaussian
gridding (Greengard & Lee 2004, SIAM Rev. 46(3)) costs O(Q*SPREAD + N log N):
spread each strength onto `2 * SPREAD` points of a uniform grid of size
G >= 2N with a Gaussian, take one FFT of the grid, and divide the Gaussian's
Fourier transform out of the N wanted coefficients. With
tau = pi * SPREAD / (G * (G - N/2)) the kernel's truncation and the grid's
aliasing balance, and each output is off by about exp(-2*pi*SPREAD/3) of
sum_q |c_q| (to within the rounding of the direct sum itself).

The outputs are centred first, k = n - N//2, so that the deconvolution
exp(k^2 tau) stays below exp(pi * SPREAD / 12), about 30; the centring phase
exp(2j*pi*(N//2)*xi_q) multiplies the strengths, so the spreading weights
stay real and spread the real and imaginary parts together.
"""

import math

import numpy as np

# grid points a node spreads to on each side: about 1.5e-12 of sum_q |c_q|
SPREAD = 13


def _phases(nodes, N):
    return np.exp(2j * np.pi * np.outer(np.arange(N), nodes))


class Type1:
    """f = T(c), (M, N), for a (Q, M) block of strengths c at the nodes given at construction.

    The direct sum is cheaper for few nodes: it is used, with its N x Q phase
    matrix `phases` built once, when Q <= 16 log2(2N) (the measured crossover
    with 16 columns on one BLAS thread); otherwise `phases` is None, the
    spreading weights and the deconvolution are built once, and each call
    grids on `grid_size` points.
    """

    def __init__(self, nodes, N):
        xi = np.asarray(nodes, dtype=float)
        if xi.ndim != 1 or N < 1:
            raise ValueError("nodes must be a 1-D array and N a positive length")
        # the sum has period 1 in each node; subtracting the nearest integer
        # is exact and keeps the phase arguments small
        self.nodes = xi - np.round(xi)
        self.N = N
        self.phases = self.grid_size = self._spread = None
        if self.nodes.size <= 16 * math.log2(2 * N):
            self.phases = _phases(self.nodes, N)
        else:
            self._grid()

    @property
    def gridded(self):
        """Whether calls grid; otherwise they take the direct sum."""
        return self._spread is not None

    def _grid(self):
        # loaded only when a transform grids, so the other paths import neither
        from scipy.fft import next_fast_len
        from scipy.sparse import csr_array

        N, Q = self.N, self.nodes.size
        self.grid_size = size = next_fast_len(2 * N)
        tau = math.pi * SPREAD / (size * (size - N / 2))
        centre = N // 2
        x = self.nodes % 1.0
        rows = np.floor(x * size).astype(np.int64)[:, None] + np.arange(1 - SPREAD, SPREAD + 1)
        weights = np.exp(-(math.pi**2 / tau) * (rows / size - x[:, None]) ** 2)
        self._centre = np.exp(2j * np.pi * centre * self.nodes)[:, None]
        # real weights: duplicate (row, node) pairs, on grids shorter than 2 * SPREAD, are summed
        self._spread = csr_array(
            (weights.ravel(), (rows.ravel() % size, np.repeat(np.arange(Q), 2 * SPREAD))), shape=(size, Q)
        )
        k = np.arange(N) - centre
        self._gather = k % size
        self._deconvolve = math.sqrt(math.pi / tau) * np.exp(tau * k**2)

    def __call__(self, c, out=None, grid=None):
        """(M, N) sums for a (Q, M) block of strengths: one row of N outputs per column of c.

        `out` and `grid` are 1-D complex buffers of at least M * N and
        M * `grid_size` elements, which receive the sums and the grid; each is
        allocated when not given. The direct sum is written as the (N, M)
        product, bit for bit that of `dense`, so its result is a column-major
        view; the gridded sums are C-contiguous.
        """
        N, M = self.N, c.shape[1]
        out = np.empty(N * M, dtype=complex) if out is None else out[: N * M]
        if self._spread is None:
            return np.matmul(self.phases, c, out=out.reshape(N, M)).T
        size, Q = self.grid_size, c.shape[0]
        grid = np.empty(M * size, dtype=complex) if grid is None else grid[: M * size]
        # the centred strengths, in the grid's memory while they fit: the grid
        # is written only once they have been spread
        centred = grid[: Q * M].reshape(Q, M) if Q <= size else np.empty((Q, M), dtype=complex)
        np.multiply(c, self._centre, out=centred)
        # the real weights spread their real and imaginary parts as 2M real
        # columns; one grid row per column of c, so the inverse FFT runs along
        # the contiguous axis
        spread = self._spread @ centred.view(float)
        grid = grid.reshape(M, size)
        np.copyto(grid, spread.view(complex).T)
        del spread
        np.fft.ifft(grid, out=grid)
        # the gather indices are in range: "wrap" writes into out without the
        # buffer np.take makes for out= in its default mode
        out = np.take(grid, self._gather, axis=1, out=out.reshape(M, N), mode="wrap")
        out *= self._deconvolve
        return out

    def dense(self, c):
        """The direct sum as (M, N), whichever way the transform evaluates: the reference for tests."""
        phases = self.phases if self.phases is not None else _phases(self.nodes, self.N)
        return (phases @ c).T
