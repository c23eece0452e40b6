"""Gauss-Legendre quadrature helpers.

Fixed-order composite rules plus a bisection-adaptive driver. Integrands with
inverse-square-root band edges are handled upstream by a trigonometric change
of variable (see :mod:`psdalign.fading`), so everything here assumes the
integrand is smooth on the interior of each panel.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gl_rule(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def fixed_gl(f, a, b, n=20):
    """Integrate f over [a, b] with a single n-point Gauss-Legendre rule."""
    x, w = gl_rule(n)
    return _rule_sums(f, x, w, [(a, b)])[0]


def adaptive_gl(f, a, b, tol=1e-10, n=20, max_depth=40):
    """Adaptive bisection Gauss-Legendre integration of f over [a, b].

    A panel is accepted when one rule and the sum of the rule on its two
    halves agree to the (area-prorated) tolerance.

    f must be elementwise over an arbitrary 1-D node array: one call covers
    several panels, the whole interval and its two halves first, then the two
    halves of each bisected panel. A panel accepted at once costs one call.
    """
    if b <= a:
        return 0.0
    x, w = gl_rule(n)
    total_width = b - a

    def halves(lo, hi):
        """The rule on the two halves of [lo, hi], from one call of f."""
        mid = 0.5 * (lo + hi)
        return _rule_sums(f, x, w, [(lo, mid), (mid, hi)])

    def recurse(lo, hi, whole, left, right, depth):
        if depth >= max_depth or abs(left + right - whole) <= tol * max(
            1.0, (hi - lo) / total_width
        ):
            return left + right
        mid = 0.5 * (lo + hi)
        return recurse(lo, mid, left, *halves(lo, mid), depth + 1) + recurse(
            mid, hi, right, *halves(mid, hi), depth + 1
        )

    mid = 0.5 * (a + b)
    return recurse(a, b, *_rule_sums(f, x, w, [(a, b), (a, mid), (mid, b)]), 0)


def _rule_sums(f, x, w, intervals):
    """The n-point rule (nodes x, weights w) on each (lo, hi) interval, from one call of f."""
    lo, hi = np.array(intervals, dtype=float).T
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * x
    values = np.broadcast_to(f(nodes.ravel()), nodes.size).reshape(nodes.shape)
    # a row sum along the contiguous axis adds in the order np.sum takes on each row alone
    return list(half * np.sum(w * values, axis=1))


def oscillatory_nodes(a, b, omega_max):
    """Composite Gauss-Legendre rule on [a, b] for integrands f(x)*exp(j*w*x).

    Accurate for every |w| <= omega_max when f is smooth. Node count follows
    the resolution requirement for analytic oscillatory integrands (about half
    a node per radian of phase per panel, plus a safety margin); wide panels
    are split so individual rule orders stay moderate.
    """
    span_phase = 0.5 * abs(omega_max) * (b - a)
    panels = max(1, int(np.ceil(span_phase / 1200.0)))
    edges = np.linspace(a, b, panels + 1)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        ph = 0.5 * abs(omega_max) * (hi - lo)
        n = int(np.ceil(0.5 * ph + 8.0 * ph ** (1.0 / 3.0) + 16)) if ph > 0 else 16
        x, w = gl_rule(n)
        half = 0.5 * (hi - lo)
        xs.append(0.5 * (lo + hi) + half * x)
        ws.append(half * w)
    return np.concatenate(xs), np.concatenate(ws)
