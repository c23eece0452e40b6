"""The type-1 transform against its direct sum on random node sets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from psdalign.nufft import SPREAD, Type1

# relative to sum_q |c_q|: strengths that cancel can make the sum itself
# arbitrarily small, but not the error, which each node adds in proportion to |c_q|
TOL = 1e-11

# the circle's seam (+-1/2 and their images one period away), the default
# contamination band's edges, the default Clarke user's band edges, and zero
SPECIAL_NODES = (0.5, -0.5, np.nextafter(0.5, 0.0), 1.5, -2.5, 0.375, -0.375, 0.0020001, -0.0020001, 0.0)


def node_set(Q, special, scale, panels, rng):
    """Q nodes: the drawn special values, then uniform nodes and clustered panels.

    A panel's nodes crowd towards its ends as Gauss-Legendre nodes do
    (Chebyshev points, which are as crowded and cost nothing to make).
    """
    special = np.asarray(special[:Q], dtype=float)
    counts = rng.multinomial(Q - special.size, np.full(panels + 1, 1.0 / (panels + 1)))
    parts = [special, rng.uniform(-scale, scale, counts[0])]
    for n in counts[1:]:
        centre, half = rng.uniform(-scale, scale), rng.uniform(0.0, 0.1)
        parts.append(centre + half * np.cos(np.pi * (np.arange(n) + 0.5) / max(n, 1)))
    return np.concatenate(parts)


@given(
    Q=st.integers(1, 3000),
    N=st.integers(1, 4097),
    M=st.integers(1, 4),
    special=st.lists(st.sampled_from(SPECIAL_NODES), max_size=len(SPECIAL_NODES)),
    scale=st.sampled_from([0.5, 4.0, 1e6]),
    panels=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
# the default scene at P = 1024: the Clarke user (direct) and the contamination (gridded)
@example(Q=48, N=1025, M=4, special=[0.0020001, -0.0020001], scale=0.002, panels=1, seed=0)
@example(Q=1479, N=1024, M=4, special=[0.375, -0.375], scale=0.375, panels=2, seed=1)
@settings(max_examples=30, deadline=None)
def test_transform_matches_direct_sum(Q, N, M, special, scale, panels, seed):
    rng = np.random.default_rng(seed)
    nodes = node_set(Q, special, scale, panels, rng)
    c = (rng.standard_normal((Q, M)) + 1j * rng.standard_normal((Q, M))) * 10.0 ** rng.uniform(-3, 3, (Q, 1))
    transform = Type1(nodes, N)
    f = transform(c)
    assert f.shape == (M, N)
    error = np.max(np.abs(f - transform.dense(c)), axis=1)
    assert np.all(error <= TOL * np.sum(np.abs(c), axis=0))


@pytest.mark.parametrize(("Q", "N", "gridded"), [(48, 1025, False), (1479, 1024, True), (92, 4097, False), (5706, 4096, True)])
def test_direct_sum_for_few_nodes(Q, N, gridded):
    # the property test's two examples sit on either side of the crossover
    assert Type1(np.linspace(-0.4, 0.4, Q), N).gridded is gridded


def test_direct_branch_is_the_phase_product():
    # bit for bit the product the exact channel model drew with before gridding
    rng = np.random.default_rng(7)
    nodes, c = rng.uniform(-0.5, 0.5, 40), rng.standard_normal((40, 3)) + 0j
    phases = np.exp(2j * np.pi * np.outer(np.arange(300), nodes))
    assert np.array_equal(Type1(nodes, 300)(c), (phases @ c).T)


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Type1(np.zeros((2, 2)), 8)
    with pytest.raises(ValueError):
        Type1(np.zeros(3), 0)


# a direct sum, a grid that holds the centred strengths, and one that does not (Q > G = 16)
@pytest.mark.parametrize(("Q", "N"), [(48, 1025), (1479, 1024), (3000, 8)])
def test_writes_into_given_buffers(Q, N):
    rng = np.random.default_rng(3)
    nodes, c = rng.uniform(-0.5, 0.5, Q), rng.standard_normal((Q, 4)) + 1j * rng.standard_normal((Q, 4))
    transform = Type1(nodes, N)
    out = np.full(4 * N + 5, np.nan, dtype=complex)
    grid = None if transform.grid_size is None else np.full(4 * transform.grid_size + 5, np.nan, dtype=complex)
    f = transform(c, out=out, grid=grid)
    assert f.shape == (4, N) and np.shares_memory(f, out)
    assert np.array_equal(f, transform(c))
    # the adjoint in the same buffers, dirty from the call
    sums = np.full(Q * 4 + 5, np.nan, dtype=complex)
    g = transform.adjoint(f, out=sums, grid=grid)
    assert g.shape == (Q, 4) and np.shares_memory(g, sums)
    assert np.array_equal(g, transform.adjoint(f))


# the adjoint's bound, the forward's with the roles of strengths and outputs swapped
ADJOINT_TOL = 1.1 * math.exp(-2 * math.pi * SPREAD / 3)


@given(
    Q=st.integers(1, 600),
    N=st.integers(1, 512),
    M=st.integers(1, 4),
    special=st.lists(st.sampled_from(SPECIAL_NODES), max_size=len(SPECIAL_NODES)),
    scale=st.sampled_from([0.5, 4.0]),
    cluster=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
# as many nodes as the default exact scene stacks for its users at P=1024, and
# eight nodes a cell on the circle's seam
@example(Q=384, N=512, M=4, special=[], scale=0.5, cluster=1, seed=0)
@example(Q=40, N=16, M=2, special=[0.5, -0.5, np.nextafter(0.5, 0.0)], scale=0.5, cluster=8, seed=1)
@settings(max_examples=40, deadline=None)
def test_adjoint_matches_direct_sum(Q, N, M, special, scale, cluster, seed):
    # gridded at any node count; `cluster` nodes share each grid cell
    rng = np.random.default_rng(seed)
    cells = node_set(-(-Q // cluster), special, scale, 1, rng)
    nodes = (np.repeat(cells, cluster) + rng.uniform(0.0, 0.4 / (2 * N), cluster * cells.size))[:Q]
    transform = Type1(nodes, N, gridded=True)
    X = (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))) * 10.0 ** rng.uniform(-3, 3, (M, 1))
    g = transform.adjoint(X)
    assert g.shape == (Q, M)
    dense = (X @ np.conj(np.exp(2j * np.pi * np.outer(np.arange(N), transform.nodes)))).T
    error = np.max(np.abs(g - dense), axis=0)
    assert np.all(error <= ADJOINT_TOL * np.sum(np.abs(X), axis=1))


@given(
    Q=st.integers(1, 600),
    N=st.integers(1, 512),
    M=st.integers(1, 4),
    gridded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_adjoint_is_the_adjoint(Q, N, M, gridded, seed):
    # <T c, X> = <c, T^H X> for the transform as computed, gridded or direct
    rng = np.random.default_rng(seed)
    transform = Type1(rng.uniform(-0.5, 0.5, Q), N, gridded=gridded)
    c = rng.standard_normal((Q, M)) + 1j * rng.standard_normal((Q, M))
    X = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
    lhs, rhs = np.vdot(transform(c), X), np.vdot(c, transform.adjoint(X))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(transform(c)) * np.linalg.norm(X)



def test_low_parts_keep_summed_nodes_exact():
    # nodes tau/N + f/N, as the simulator stacks a ramp's shift onto a user's
    # bins: the double sum rounds where it passes 1, and `low` carries the
    # rounding, so the adjoint meets the sums at the exact nodes, whose phases
    # are reduced here as fractions, (f + tau) n mod N
    N, tau = 512, 123.456
    f = np.arange(0, N, 8)
    a, b = tau / N, f / N
    nodes = a + b
    low = (a - (nodes - (nodes - a))) + (b - (nodes - a))
    assert np.any(low != 0)
    X = np.random.default_rng(2).standard_normal((2, N)) + 1j * np.random.default_rng(3).standard_normal((2, N))
    turns = np.array([[float((fi + Fraction(tau)) * n % N) for n in range(N)] for fi in f])
    exact = np.exp(-2j * np.pi * turns / N) @ X.T
    g = Type1(nodes, N, gridded=True, low=low).adjoint(X)
    assert np.linalg.norm(g - exact) <= 1e-14 * np.linalg.norm(exact)

@pytest.mark.parametrize("transpose", [False, True])
def test_spread_runs_on_scipys_sparse_kernels(transpose):
    # the spread calls scipy's private CSR kernels
    # (scipy.sparse._sparsetools.csr_matvecs and csc_matvecs) by position;
    # a scipy that moves them or changes their arguments fails here first
    rng = np.random.default_rng(11)
    transform = Type1(rng.uniform(-0.5, 0.5, 300), 64, gridded=True)
    indptr, indices, data = transform._spread
    S = np.zeros((transform.grid_size, 300))
    for row in range(transform.grid_size):
        np.add.at(S[row], indices[indptr[row] : indptr[row + 1]], data[indptr[row] : indptr[row + 1]])
    S = S.T if transpose else S
    x = rng.standard_normal((S.shape[1], 3)) + 1j * rng.standard_normal((S.shape[1], 3))
    y = np.full((S.shape[0], 3), np.nan, dtype=complex)
    transform._product(x, y, transpose=transpose)
    np.testing.assert_allclose(y, S @ x, rtol=1e-13, atol=1e-13 * np.abs(x).max(), err_msg="scipy's CSR kernels changed")


def test_fast_length_is_scipys():
    from scipy.fft import next_fast_len

    from psdalign.nufft import _fast_length

    for n in [*range(1, 3000), 2**20 + 1, 10**6 + 1, 3**13 + 1, 11**6 + 1, 2**31 - 1]:
        assert _fast_length(n) == next_fast_len(n, real=False), n
