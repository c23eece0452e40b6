"""Type-1 nonuniform FFT: sums of complex exponentials at integer outputs, and its adjoint.

    f_n = sum_q c_q exp(2j*pi*n*xi_q),  n = 0..N-1;   g_q = sum_n f_n exp(-2j*pi*n*xi_q),

for fixed real nodes xi_q and a block of strengths c (one column per
independent sum). The direct sum costs N*Q multiply-adds a column. Gaussian
gridding (Greengard & Lee 2004, SIAM Rev. 46(3)) costs O(Q*SPREAD + N log N):
spread each strength onto `2 * SPREAD` points of a uniform grid of size
G >= 2N with a Gaussian, take one FFT of the grid, and divide the Gaussian's
Fourier transform out of the N wanted coefficients; the adjoint takes the
same steps in reverse, with one forward FFT. With
tau = pi * SPREAD / (G * (G - N/2)) the kernel's truncation and the grid's
aliasing balance, and each output is off by about exp(-2*pi*SPREAD/3) of
sum_q |c_q| (of sum_n |f_n| for the adjoint), to within the rounding of the
direct sum itself.

The outputs are centred first, k = n - N//2, so that the deconvolution
exp(k^2 tau) stays below exp(pi * SPREAD / 12), about 50; the centring phase
exp(2j*pi*(N//2)*xi_q) multiplies the strengths, so the spreading weights
stay real and spread the real and imaginary parts together, a chunk of
columns at a time into the caller's buffer.
"""

import math

import numpy as np

# grid points a node spreads to on each side: about 2.3e-14 of sum_q |c_q|
SPREAD = 15
# complex elements of the work a transform allocates for its chunks of columns (512 KB)
CHUNK = 2**15


def _phases(nodes, N):
    return np.exp(2j * np.pi * np.outer(np.arange(N), nodes))


def _fast_length(n):
    """The least 11-smooth integer >= n, as scipy.fft.next_fast_len gives it (whose import costs 0.55 MB of RSS)."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class Type1:
    """f = T(c), (M, N), for a (Q, M) block of strengths c at the nodes given at construction, and T^H.

    Unless `gridded` says otherwise, the direct sum, with its N x Q `phases`
    built once, serves Q <= 16 log2(2N) nodes (the measured crossover with 16
    columns on one BLAS thread); otherwise calls grid on `grid_size` points.
    A gridded transform takes each node as `nodes` plus `low`, the rounding
    of a sum that formed it: an error e in a node turns the phase at n by 2*pi*n*e.
    """

    def __init__(self, nodes, N, gridded=None, low=None):
        xi = np.asarray(nodes, dtype=float)
        if xi.ndim != 1 or N < 1:
            raise ValueError("nodes must be a 1-D array and N a positive length")
        # the sum has period 1 in each node; subtracting the nearest integer
        # is exact and keeps the phase arguments small
        self.nodes = xi - np.round(xi)
        self.N = N
        self.phases = self.grid_size = self._spread = None
        if gridded is None:
            gridded = self.nodes.size > 16 * math.log2(2 * N)
        if gridded:
            self._grid(np.zeros(xi.size) if low is None else np.asarray(low, dtype=float))
        else:
            self.phases = _phases(self.nodes, N)

    @property
    def gridded(self):
        """Whether calls grid; otherwise they take the direct sum."""
        return self._spread is not None

    def _grid(self, low):
        N, Q, x = self.N, self.nodes.size, self.nodes
        self.grid_size = size = _fast_length(2 * N)
        tau = math.pi * SPREAD / (size * (size - N / 2))
        centre = N // 2
        rows = np.floor(x * size).astype(np.int64)[:, None] + np.arange(1 - SPREAD, SPREAD + 1)
        # rows / size - x is exact on a grid of 2^j points
        weights = np.exp(-(math.pi**2 / tau) * (rows / size - x[:, None] - low[:, None]) ** 2)
        turns = centre * x
        self._centre = np.exp(2j * np.pi * (turns - np.round(turns) + centre * low))[:, None]
        self._uncentre = np.conj(self._centre)
        # the spread, (G, Q), as compressed sparse rows (indptr, indices,
        # data): each grid point's nodes in order (pairs that repeat on grids
        # shorter than 2 * SPREAD stay apart and add up)
        rows = rows.ravel() % size
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=size))))
        self._spread = (indptr.astype(np.int32), (order // (2 * SPREAD)).astype(np.int32), weights.ravel()[order])
        k = np.arange(N) - centre
        self._gather = k % size
        # complex, so that products with it cast nothing: numpy buffers a cast
        self._deconvolve = (math.sqrt(math.pi / tau) * np.exp(tau * k**2)).astype(complex)

    def _chunks(self, M, grid, work):
        """The (M, G) grid, and each chunk of w columns: its slice, a (Q, w) block and a (G, w) block.

        The (Q, w) block lies in the chunk's grid rows while they hold nothing else, or in `work` if Q > G.
        """
        size, Q = self.grid_size, self.nodes.size
        grid = (np.empty(M * size, dtype=complex) if grid is None else grid)[: M * size].reshape(M, size)
        extra = Q if Q > size else 0
        if work is None or work.size < size + extra:
            work = np.empty(CHUNK + size + extra, dtype=complex)
        width = min(M, work.size // (size + extra))
        chunks = []
        for a in range(0, M, width):
            w = min(width, M - a)
            nodes = (work[size * w : (size + Q) * w] if extra else grid[a : a + w].reshape(-1)[: Q * w]).reshape(Q, w)
            chunks.append((slice(a, a + w), nodes, work[: size * w].reshape(size, w)))
        return grid, chunks

    def _product(self, x, y, transpose=False):
        """y = S x, or S^T x, for the real spread S acting on the real and imaginary parts of complex x."""
        from scipy.sparse import _sparsetools  # scipy's kernels, into y; S's CSR arrays are S^T's CSC ones

        y.fill(0)
        product = _sparsetools.csc_matvecs if transpose else _sparsetools.csr_matvecs
        product(y.shape[0], x.shape[0], 2 * x.shape[1], *self._spread, x.view(float).ravel(), y.view(float).ravel())

    def __call__(self, c, out=None, grid=None, work=None):
        """(M, N) sums for a (Q, M) block of strengths: one row of N outputs per column of c.

        `out` and `grid` are 1-D complex buffers of at least M * N and
        M * `grid_size` elements for the sums and the grid, and `work` one that
        takes as many columns at a time as it holds G (G + Q if Q > G) elements
        for; each is allocated when not given or too small. The direct sum is
        the (N, M) product, bit for bit that of `dense`, so it is column-major.
        """
        N, M = self.N, c.shape[1]
        out = np.empty(N * M, dtype=complex) if out is None else out[: N * M]
        if self._spread is None:
            return np.matmul(self.phases, c, out=out.reshape(N, M)).T
        grid, chunks = self._chunks(M, grid, work)
        # one grid row per column of c, so the inverse FFT runs along the contiguous axis
        for columns, centred, spread in chunks:
            # copied first: numpy buffers a product that reads strided columns
            np.copyto(centred, c[:, columns])
            np.multiply(centred, self._centre, out=centred)
            self._product(centred, spread)
            np.copyto(grid[columns], spread.T)
        np.fft.ifft(grid, out=grid)
        # the gather indices are in range: "wrap" writes into out without the
        # buffer np.take makes for out= in its default mode
        out = np.take(grid, self._gather, axis=1, out=out.reshape(M, N), mode="wrap")
        out *= self._deconvolve
        return out

    def adjoint(self, f, out=None, grid=None, work=None):
        """(Q, M) sums at the nodes, T^H f, for an (M, N) block f; `out` holds Q * M, the rest as for a call."""
        (M, N), Q = f.shape, self.nodes.size
        out = np.empty((Q, M), dtype=complex) if out is None else out[: Q * M].reshape(Q, M)
        if self._spread is None:
            return np.matmul(np.conj(self.phases).T, f.T, out=out)
        grid, chunks = self._chunks(M, grid, work)
        # the deconvolved inputs at the gather indices (n - N//2) mod G, row
        # by row: numpy buffers a product over strided rows
        centre, size = N // 2, self.grid_size
        for row, grid_row in zip(f, grid):
            np.multiply(row[centre:], self._deconvolve[centre:], out=grid_row[: N - centre])
            grid_row[N - centre : size - centre] = 0
            np.multiply(row[:centre], self._deconvolve[:centre], out=grid_row[size - centre :])
        # the adjoint of the forward call's inverse FFT, 1/G included
        np.fft.fft(grid, out=grid, norm="forward")
        for columns, sums, rows in chunks:
            np.copyto(rows, grid[columns].T)
            self._product(rows, sums, transpose=True)
            sums *= self._uncentre
            np.copyto(out[:, columns], sums)
        return out

    def dense(self, c):
        """The direct sum as (M, N), whichever way the transform evaluates: the reference for tests."""
        phases = self.phases if self.phases is not None else _phases(self.nodes, self.N)
        return (phases @ c).T
