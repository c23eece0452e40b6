"""The type-1 transform against its direct sum on random node sets."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from psdalign.nufft import Type1

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
