"""Hermitian Toeplitz matrices held by their first column.

A Hermitian Toeplitz matrix T is fixed by its first column t: T[m, n] = t[m - n]
below the diagonal and conj(t[n - m]) above it. Products with T take FFTs of
its length-2P circulant embedding. The inverse of a positive definite T takes
one Levinson solve for its first column u = T^{-1} e_0; with v the reversed
conjugate of u shifted down by one slot, (0, conj(u[P-1]), ..., conj(u[1])),
the Gohberg-Semencul formula

    T^{-1} = (L(u) L(u)^H - L(v) L(v)^H) / u[0]

writes it through lower-triangular Toeplitz factors L(.) named by their first
column, each applied by FFT. Set-up is O(P^2), a solve O(P log P) per column,
and the trace O(P). The formula is not backward stable in general; on the
well-conditioned observation covariances of the simulator it agrees with a
dense Cholesky solve to about 1e-11 relative (tests/test_toeplitz.py).
"""

import numpy as np
from scipy.linalg import solve_toeplitz


def _column(column):
    t = np.asarray(column, dtype=complex)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("a Toeplitz first column must be a non-empty 1-D array")
    return t


def _rows(X):
    """X with its length-P axis last and contiguous; FFTs along it run about twice as fast."""
    return np.ascontiguousarray(np.asarray(X).T)


class HermitianToeplitz:
    """T X by FFT of the circulant embedding of T."""

    def __init__(self, column):
        t = _column(column)
        self.P = t.size
        # circulant of size 2P whose leading P x P block is T
        embedding = np.concatenate([t, [0.0], np.conj(t[:0:-1])])
        self._spectrum = np.fft.fft(embedding)

    def matvec(self, X):
        """T @ X for a length-P vector or a (P, M) block."""
        product = np.fft.ifft(self._spectrum * np.fft.fft(_rows(X), 2 * self.P))
        return product[..., : self.P].T


class ToeplitzInverse:
    """Gohberg-Semencul form of the inverse of a Hermitian positive definite Toeplitz T."""

    def __init__(self, column):
        t = _column(column)
        self.P = P = t.size
        e0 = np.zeros(P, dtype=complex)
        e0[0] = 1.0
        u = solve_toeplitz((t, np.conj(t)), e0)
        self.u0 = float(u[0].real)
        if not self.u0 > 0:
            raise np.linalg.LinAlgError("Toeplitz matrix is not positive definite")
        v = np.zeros(P, dtype=complex)
        v[1:] = np.conj(u[:0:-1])
        self._u = u
        self._v = v
        self._U = np.fft.fft(u, 2 * P)
        self._V = np.fft.fft(v, 2 * P)

    def solve(self, Y):
        """T^{-1} Y for a length-P vector or a (P, M) block."""
        P, n = self.P, 2 * self.P
        Yf = np.fft.fft(_rows(Y), n)
        # L(a)^H Y is a correlation with a; the part past P wraps into zeros
        a = np.fft.ifft(np.conj(self._U) * Yf)[..., :P]
        b = np.fft.ifft(np.conj(self._V) * Yf)[..., :P]
        Z = np.fft.ifft(self._U * np.fft.fft(a, n) - self._V * np.fft.fft(b, n))[..., :P]
        return Z.T / self.u0

    def trace(self):
        """tr(T^{-1}) in O(P): the diagonal of L(a) L(a)^H sums to sum_j (P - j) |a_j|^2."""
        weights = self.P - np.arange(self.P)
        return float(weights @ (np.abs(self._u) ** 2 - np.abs(self._v) ** 2)) / self.u0
