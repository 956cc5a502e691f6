"""The array-valued moment primitive against mpmath quadrature, the
piecewise-Chebyshev table against closed forms, the Lagrange matrix's mirror
symmetry, and the graded and phase-resolving panels."""

import mpmath
import numpy as np
import pytest

from carleman.errors import DomainError
from carleman.oscquad import (_ChebTable, exp_monomial_moments, gauss_rule, graded_edges,
                              lagrange_coeff_matrix, phase_panels)

COUNT = 10
# Re(mu) >= 0, on both sides of the series / recurrence switch at |z| = 4
MU_RIGHT = [2.0j, -13.0j, 3.0 + 8.0j, 6.0, 15.0j, -45.0j, 12.0 - 30.0j, 25.0]
MU_LEFT = [-mu for mu in MU_RIGHT]
T_QUERIES = [-0.7, 0.1, 0.93]
# (mu, t): mu = 0; |z| = |mu| (1 + t) / 2 one step either side of the
# switch from the Taylor series to the recurrence at |z| = 4, on whole panels
# and on [-1, 0]; Re(mu) > 0 just inside it and |z| = 2.1 well inside; a
# short partial panel; a long one at |mu| = 13.33
BELOW = np.nextafter(4.0, 0.0)
REGIMES = [(0.0, 1.0), (0.0, -0.3),
           (BELOW * 1j, 1.0), (4j, 1.0),
           (BELOW, 1.0), (4.0, 1.0),
           *((-4 * np.exp(2.2j) * (1 + e), 1.0) for e in (-1e-15, 1e-15)),
           (2 * BELOW * 1j, 0.0), (8j, 0.0),
           (3.9, 1.0), (3.0 + 2.5j, 1.0), (1.5 - 1.5j, 1.0),
           (30j, -1.0 + 1e-9), (13.33j, 0.988)]


def oracle(mu, anchor, lo, hi, count=COUNT, dps=20):
    """m_l = int_lo^hi u^l exp(mu (u - anchor)) du, split every ~3 radians."""
    pieces = int(abs(mu) * (hi - lo) / 3.0) + 2
    with mpmath.workdps(dps):
        m, a = mpmath.mpc(mu), mpmath.mpf(anchor)
        nodes = mpmath.linspace(mpmath.mpf(lo), mpmath.mpf(hi), pieces)
        return np.array([complex(mpmath.quad(
            lambda u, l=l: u ** l * mpmath.exp(m * (u - a)), nodes,
            method="gauss-legendre"))
            for l in range(count)])


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mu", MU_RIGHT + MU_LEFT)
def test_full_panel(mu):
    # Re(mu) < 0 is the downward sweep, anchored at -1: the mirror image
    # (-1)^l m_l(-mu, 1) of the upward one
    if np.real(mu) >= 0:
        assert_close(exp_monomial_moments(mu, 1.0, COUNT), oracle(mu, 1.0, -1.0, 1.0))
    else:
        got = (-1.0) ** np.arange(COUNT) * exp_monomial_moments(-mu, 1.0, COUNT)
        assert_close(got, oracle(mu, -1.0, -1.0, 1.0))


@pytest.mark.parametrize("mu", MU_RIGHT)
def test_partial_panels_anchored_at_the_query(mu):
    for t in T_QUERIES:
        assert_close(exp_monomial_moments(mu, t, COUNT), oracle(mu, t, -1.0, t))


@pytest.mark.parametrize("count", [8, 10])
def test_series_and_recurrence_regimes(count):
    """Each REGIMES case in one batched call against 30-digit quadrature and
    bitwise equal to its own scalar call; the two sides of the switch agree."""
    mu, t = map(np.array, zip(*REGIMES))
    got = exp_monomial_moments(mu, t, count)
    assert got.shape == (len(REGIMES), count)
    for m, case in zip(got, zip(mu, t)):
        want = oracle(case[0], case[1], -1.0, case[1], count=count, dps=30)
        assert np.max(np.abs(m - want)) <= 1e-14 * np.max(np.abs(want)), case
        assert np.array_equal(exp_monomial_moments(*case, count), m)
    for below in (2, 4, 6, 8):
        a, b = got[below], got[below + 1]
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))


def test_shapes_of_scalar_and_empty_inputs():
    assert exp_monomial_moments(2.0j, 1.0, COUNT).shape == (COUNT,)
    empty = np.zeros(0)
    assert exp_monomial_moments(empty, empty, 8).shape == (0, 8)


def test_broadcast_panels_by_queries():
    """(panels, 1) frequencies by (1, queries) points give (panels, queries,
    degree), each element equal to its own scalar call."""
    mu = np.array(MU_RIGHT)[:, None]
    t = np.array(T_QUERIES)[None, :]
    got = exp_monomial_moments(mu, t, COUNT)
    assert got.shape == (len(MU_RIGHT), len(T_QUERIES), COUNT)
    for i, m in enumerate(MU_RIGHT):
        for j, tq in enumerate(T_QUERIES):
            want = exp_monomial_moments(m, tq, COUNT)
            assert np.max(np.abs(got[i, j] - want)) <= 1e-14 * np.max(np.abs(want))
    assert_close(got[-1, 1], oracle(MU_RIGHT[-1], T_QUERIES[1], -1.0, T_QUERIES[1]))


def _at_points(f):
    """A table's sample of f: its values at the points c + h t of each panel."""
    return lambda c, h, t: f(c + h * t)


def test_table_carries_the_known_oscillations():
    """e^{ikx} a(x) + e^{-ikx} b(x) with slow a, b on geometric panels: the
    basis e^{+-ik(x - c)} T_j reproduces it, the plain Chebyshev one cannot.
    The panels span k h = 1.2..59, across the counts where one grid of
    Chebyshev points aliases the two waves."""
    k = 1.3
    edges = np.geomspace(10.0, 600.0, 26)

    def f(x):
        a = 1.0 + 3.0 / x + 0.1j * np.log(x)
        b = (0.3 - 0.2j) * np.sqrt(5.0 / x)
        return np.exp(1j * k * x) * a + np.exp(-1j * k * x) * b

    x = np.linspace(10.0, 600.0, 20001).reshape(3, -1)
    table = _ChebTable(_at_points(lambda x: np.stack((f(x), 2j * f(x)))), edges, (k, -k),
                       points=12)
    got = table(x)
    assert got.shape == (2,) + x.shape
    scale = np.max(np.abs(f(x)))
    assert np.max(np.abs(got[0] - f(x))) <= 1e-12 * scale
    assert np.max(np.abs(got[1] - 2j * f(x))) <= 2e-12 * scale
    plain = _ChebTable(_at_points(f), edges, points=24)
    assert np.max(np.abs(plain(x) - f(x))) > 1e-3 * scale


def test_table_refuses_points_outside_its_edges():
    table = _ChebTable(_at_points(np.cos), np.linspace(-1.0, 3.0, 5), points=16)
    assert abs(table(np.array(3.0)) - np.cos(3.0)) < 1e-13
    for bad in (-1.001, 3.5, np.nan):
        with pytest.raises(DomainError, match="table covers"):
            table(np.array([0.0, bad]))


@pytest.mark.parametrize("p", [8, 10, 14])
def test_lagrange_coeff_matrix_is_mirror_exact(p):
    # on the symmetric Gauss nodes l_r(-u) = l_{p-1-r}(u), so
    # (-1)^l C[l, r] = C[l, p-1-r], bit for bit
    C = lagrange_coeff_matrix(gauss_rule(p)[0])
    assert np.array_equal((-1.0) ** np.arange(p)[:, None] * C, C[:, ::-1])


def test_graded_edges_grow_to_the_cap_and_clip_at_the_end():
    edges = graded_edges(1.0, 10.0, 0.5, 2.0, 3.0)
    assert np.array_equal(edges, [1.0, 1.5, 2.5, 4.5, 7.5, 10.0])
    assert np.array_equal(graded_edges(0.0, 2.0, 0.5, 3.0), [0.0, 0.5, 2.0])


# a rate monotone on each panel and one whose minimum lies inside the second,
# each with its antiderivative, on the panels [0, 0.7] and [0.7, 3]
PHASE_EDGES = np.array([0.0, 0.7, 3.0])
PHASE_RATES = {"monotone": (lambda x: 5.0 + 40.0 * x, lambda x: 5.0 * x + 20.0 * x ** 2),
               "v_shaped": (lambda x: np.abs(40.0 * (x - 1.0)),
                            lambda x: 20.0 * (x - 1.0) * np.abs(x - 1.0))}


def parts_of(rate):
    """The Gauss parts phase_panels cuts, as (lo, hi) from each part's nodes
    (the 20-point rule is symmetric, its weights sum to the width)."""
    nodes, weights = phase_panels(PHASE_EDGES, rate)
    assert nodes.shape == weights.shape and nodes.size % 20 == 0
    mid, width = nodes.reshape(-1, 20).mean(axis=1), weights.reshape(-1, 20).sum(axis=1)
    return mid - 0.5 * width, mid + 0.5 * width


@pytest.mark.parametrize("which", sorted(PHASE_RATES))
def test_phase_panels_tile_the_edges(which):
    lo, hi = parts_of(PHASE_RATES[which][0])
    assert np.all(hi > lo)
    assert abs(lo[0]) <= 1e-15 and abs(hi[-1] - 3.0) <= 1e-15
    assert np.max(np.abs(lo[1:] - hi[:-1])) <= 1e-15
    # a part ends exactly where the first panel does
    assert np.min(np.abs(hi - 0.7)) <= 1e-15


@pytest.mark.parametrize("which", sorted(PHASE_RATES))
def test_phase_panels_parts_span_at_most_8pi(which):
    rate, phase = PHASE_RATES[which]
    lo, hi = parts_of(rate)
    assert np.max(phase(hi) - phase(lo)) <= 8.0 * np.pi * (1.0 + 1e-12)


@pytest.mark.parametrize("which", sorted(PHASE_RATES))
def test_phase_panels_cut_each_panel_into_its_part_count(which):
    rate = PHASE_RATES[which][0]
    lo, hi = parts_of(rate)
    mid, r = 0.5 * (lo + hi), rate(PHASE_EDGES)
    want = np.ceil(np.maximum(r[:-1], r[1:]) * np.diff(PHASE_EDGES) / (8.0 * np.pi))
    got = np.histogram(mid, PHASE_EDGES)[0]
    assert np.array_equal(got, want), (got, want)


def test_one_phase_part_integrates_the_exponential_to_rounding():
    # e^{i a u} u^l, l <= 2, on [-1, 1] spans 2a <= 8 pi: one part of the
    # rule.  Its sums read <= 5.3e-15 off mpmath's (numpy's Gauss-20 weights
    # are 1.2e-15 off), where Gauss-12 over 8 pi reads >= 1.5e-5
    def error(x, w, a):
        want = oracle(1j * a, 0.0, -1.0, 1.0, count=3)
        return np.abs((w * np.exp(1j * a * x)) @ np.vander(x, 3, increasing=True) - want)

    for a in (np.pi, 2.0 * np.pi, 4.0 * np.pi):
        nodes, weights = phase_panels(np.array([-1.0, 1.0]), lambda x: np.full_like(x, a))
        assert nodes.size == 20 and np.max(error(nodes, weights, a)) <= 1e-14, a
    assert np.min(error(*gauss_rule(12), 4.0 * np.pi)) > 1e-6
