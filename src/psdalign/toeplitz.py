"""Hermitian Toeplitz matrices held by their first column.

A Hermitian Toeplitz matrix T is fixed by its first column t: T[m, n] = t[m - n]
below the diagonal and conj(t[n - m]) above it. Products with T and with its
inverse go through circulant and skew-circulant matrices named by their first
column, and so take FFTs of length P only:

    C(h) x = ifft(fft(h) fft(x)),    S(h) = D^H C(D h) D,    D = diag(exp(1j*pi*n/P)),

where S(h) has h[m - n] on and below the diagonal and -h[P + m - n] above it.

- T = C(c) + S(d) with c_0 = d_0 = t_0 / 2 and c_j, d_j = (t_j +- conj(t_{P-j})) / 2,
  so a product costs four FFTs a column: fft(x) and fft(D x), then one
  inverse FFT for each term. Products of one x with several T of the same
  size share the two forward transforms (`ToeplitzProducts`).
- The inverse of a positive definite T starts from its first column
  u = T^{-1} e_0, by the Durbin recursion in O(P^2). T is positive definite
  exactly when the prediction-error power of every order stays positive, and
  the recursion checks that as it goes. With v the reversed conjugate of u
  shifted down by one slot, (0, conj(u[P-1]), ..., conj(u[1])), T^{-1} has
  displacement rank 2 for the circulant and skew-circulant shifts, and
  (Ammar & Gader, "A variant of the Gohberg-Semencul formula involving
  circulant matrices", SIAM J. Matrix Anal. Appl. 12(3), 1991)

      T^{-1} = (C(u) S(u)^H - C(v + u_0 e_0) S(v - u_0 e_0)^H) / (2 u_0),

  so a solve costs six FFTs a column, with S(h)^H y = D^H ifft(conj(fft(D h)) fft(D y)).
  The trace comes in O(P) from the Gohberg-Semencul form of the same inverse,
  T^{-1} = (L(u) L(u)^H - L(v) L(v)^H) / u_0, with L(.) lower-triangular Toeplitz.

The formula is not backward stable in general; on the observation
covariances of the simulator it agrees with a dense Cholesky solve to 1e-10
relative or better (tests/test_toeplitz.py).
"""

import numpy as np

_NOT_POSITIVE_DEFINITE = "Toeplitz matrix is not positive definite"


def _column(column):
    t = np.asarray(column, dtype=complex)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("a Toeplitz first column must be a non-empty 1-D array")
    return t


def _rows(X):
    """X with its length-P axis last and contiguous; FFTs along it run about twice as fast."""
    return np.ascontiguousarray(np.asarray(X).T)


def _reflect(x):
    """(0, conj(x[P-1]), ..., conj(x[1])): x reversed, conjugated and shifted down one slot."""
    r = np.zeros_like(x)
    r[1:] = np.conj(x[:0:-1])
    return r


def _skew(P):
    """The diagonal of D, which turns a skew-circulant product into a circulant one."""
    return np.exp(1j * np.pi * np.arange(P) / P)


def _durbin(t):
    """u = T^{-1} e_0 by the Durbin recursion on the prediction-error filter a.

    Order k solves T_k a = (E_k, 0, ..., 0); T is positive definite exactly
    when every E_k > 0, and then u = a / E_{P-1}. With E_0 = t_0 and
    E_k = E_{k-1} (1 - |kappa_k|^2), that is E_0 > 0 and every reflection
    coefficient |kappa_k| = |delta_k| / E_{k-1} < 1, tested before the division.
    """
    P = t.size
    reversed_t = t[::-1].copy()  # t[k:0:-1] as a forward slice
    a = np.zeros(P, dtype=complex)
    a[0] = 1.0
    power = t[0].real
    for k in range(1, P):
        delta = np.dot(reversed_t[P - 1 - k : P - 1], a[:k])
        if not abs(delta) < power:
            raise np.linalg.LinAlgError(_NOT_POSITIVE_DEFINITE)
        kappa = -delta / power
        head = a[: k + 1]
        head += kappa * np.conj(head[::-1])
        power *= 1.0 - (kappa.real**2 + kappa.imag**2)
    if not power > 0:
        raise np.linalg.LinAlgError(_NOT_POSITIVE_DEFINITE)
    return a / power


class ToeplitzProducts:
    """Products X -> T_k X with Hermitian Toeplitz matrices T_k of one size, from shared transforms.

    Each T_k = C(c_k) + S(d_k) is held by its split symbols fft(c_k) and
    fft(D d_k), so that

        T_k X = ifft(fft(c_k) fft(X)) + D^H ifft(fft(D d_k) fft(D X)):

    the two forward transforms of X (`spectra`) serve every T_k, and each
    product takes two inverse FFTs more.
    """

    def __init__(self, columns):
        columns = [_column(column) for column in columns]
        P = columns[0].size
        self._D = D = _skew(P)
        self._Dc = np.conj(D)
        self._C = np.empty((len(columns), P), dtype=complex)
        self._S = np.empty_like(self._C)
        for C, S, t in zip(self._C, self._S, columns):
            wrapped = _reflect(t)  # conj(t[P - j]) at j >= 1
            C[:] = np.fft.fft((t + wrapped) / 2)
            S[:] = np.fft.fft(D * (t - wrapped) / 2)

    def spectra(self, X, out=None):
        """fft(X) and fft(D X) along the last axis of X, into out[0] and out[1].

        `out` is a complex block of shape (2, *X.shape), allocated when not
        given; X may be out[0], which it then overwrites.
        """
        out = np.empty((2, *X.shape), dtype=complex) if out is None else out
        np.fft.fft(np.multiply(X, self._D, out=out[1]), out=out[1])
        np.fft.fft(X, out=out[0])
        return out

    def product(self, k, spectra, out=None, work=None):
        """T_k X from `spectra(X)`, into `out`; `work` is a second block of its shape.

        Both are complex, shaped like X, and allocated when not given.
        """
        out = np.empty_like(spectra[0]) if out is None else out
        work = np.empty_like(out) if work is None else work
        np.multiply(self._S[k], spectra[1], out=work)
        np.fft.ifft(work, out=work)
        work *= self._Dc
        np.multiply(self._C[k], spectra[0], out=out)
        np.fft.ifft(out, out=out)
        out += work
        return out


class HermitianToeplitz(ToeplitzProducts):
    """T X through its circulant plus skew-circulant split."""

    def __init__(self, column):
        super().__init__([column])

    def matvec(self, X):
        """T @ X for a length-P vector or a (P, M) block."""
        return self.product(0, self.spectra(_rows(X))).T


class ToeplitzInverse:
    """Ammar-Gader form of the inverse of a Hermitian positive definite Toeplitz T."""

    def __init__(self, column):
        t = _column(column)
        self.P = P = t.size
        u = _durbin(t)
        self.u0 = u0 = float(u[0].real)
        self._u = u
        self._v = v = _reflect(u)
        self._D = D = _skew(P)
        self._Dc = np.conj(D)
        # S(u)^H, S(v - u0 e0)^H and C(u), C(v + u0 e0) / (2 u0) on the transform grid
        u0e0 = np.zeros(P)
        u0e0[0] = u0
        self._Su = np.conj(np.fft.fft(D * u))
        self._Sv = np.conj(np.fft.fft(D * (v - u0e0)))
        self._Cu = np.fft.fft(u) / (2 * u0)
        self._Cv = np.fft.fft(v + u0e0) / (2 * u0)

    def solve(self, Y, buffers=None):
        """T^{-1} Y for a length-P vector or a (P, M) block.

        The six FFTs run in place in two complex blocks shaped like Y.T and
        C-contiguous, `buffers[0]` and `buffers[1]` when given (the result is
        a view of the first), allocated otherwise.
        """
        Y = _rows(Y)
        Z, B = np.empty((2, *Y.shape), dtype=complex) if buffers is None else buffers
        fft, ifft = np.fft.fft, np.fft.ifft
        fft(np.multiply(Y, self._D, out=Z), out=Z)
        # B = C(v + u0 e0) S(v - u0 e0)^H Y / (2 u0), still on the transform grid
        np.multiply(self._Sv, Z, out=B)
        ifft(B, out=B)
        B *= self._Dc
        fft(B, out=B)
        B *= self._Cv
        # the same with u, over fft(D Y), which nothing reads after this
        # (numpy's complex product is not bitwise commutative: the factors
        # keep their order)
        np.multiply(self._Su, Z, out=Z)
        ifft(Z, out=Z)
        Z *= self._Dc
        fft(Z, out=Z)
        Z *= self._Cu
        Z -= B
        return ifft(Z, out=Z).T

    def trace(self):
        """tr(T^{-1}) in O(P): the diagonal of L(a) L(a)^H sums to sum_j (P - j) |a_j|^2."""
        weights = self.P - np.arange(self.P)
        return float(weights @ (np.abs(self._u) ** 2 - np.abs(self._v) ** 2)) / self.u0
