"""The array-valued moment primitive against mpmath quadrature, and the
piecewise-Chebyshev table against closed forms."""

import mpmath
import numpy as np
import pytest

from carleman.errors import DomainError
from carleman.oscquad import _ChebTable, exp_monomial_moments

COUNT = 10
# Re(mu) >= 0, on both sides of the Gauss / recursion switch at |mu| = 14
MU_RIGHT = [2.0j, -13.0j, 3.0 + 8.0j, 6.0, 15.0j, -45.0j, 12.0 - 30.0j, 25.0]
MU_LEFT = [-mu for mu in MU_RIGHT]
T_QUERIES = [-0.7, 0.1, 0.93]
# (mu, lo, hi): mu = 0; |z| = |mu| (hi - lo) / 2 one step either side of the
# switch from the Taylor series to the recurrence at |z| = 4; Re(mu) > 0 just
# inside it and |z| = 2.1 well inside; two short sub-intervals; a long one
# at |mu| = 13.33
BELOW = np.nextafter(4.0, 0.0)
REGIMES = [(0.0, -1.0, 1.0), (0.0, -0.3, 0.7),
           (BELOW * 1j, -1.0, 1.0), (4j, -1.0, 1.0),
           (-BELOW, -1.0, 1.0), (-4.0, -1.0, 1.0),
           *((4 * np.exp(2.2j) * (1 + e), -1.0, 1.0) for e in (-1e-15, 1e-15)),
           (3.9, -1.0, 1.0), (3.0 + 2.5j, -1.0, 1.0), (-1.5 + 1.5j, -1.0, 1.0),
           (20j, 0.8617, 0.8630), (-20.0 + 5j, 0.8617, 0.8630), (30j, -1.0, -1.0 + 1e-9),
           (13.33j, -0.988, 1.0)]


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
    anchor = float(np.sign(np.real(mu)))
    got = exp_monomial_moments(mu, anchor, -1.0, 1.0, COUNT)
    assert_close(got, oracle(mu, anchor, -1.0, 1.0))


@pytest.mark.parametrize("mu", MU_RIGHT)
def test_partial_panels_anchored_at_the_query(mu):
    for t in T_QUERIES:
        # [-1, t] needs Re(mu) >= 0 and [t, 1] needs Re(mu) <= 0
        assert_close(exp_monomial_moments(mu, t, -1.0, t, COUNT),
                     oracle(mu, t, -1.0, t))
        assert_close(exp_monomial_moments(-mu, t, t, 1.0, COUNT),
                     oracle(-mu, t, t, 1.0))


@pytest.mark.parametrize("count", [8, 10])
def test_series_and_recurrence_regimes(count):
    """Each REGIMES case in one batched call against 30-digit quadrature and
    bitwise equal to its own scalar call; the two sides of the switch agree."""
    mu, lo, hi = map(np.array, zip(*REGIMES))
    anchor = np.where(mu.real >= 0, hi, lo)
    got = exp_monomial_moments(mu, anchor, lo, hi, count)
    assert got.shape == (len(REGIMES), count)
    for m, case in zip(got, zip(mu, anchor, lo, hi)):
        want = oracle(*case, count=count, dps=30)
        assert np.max(np.abs(m - want)) <= 1e-14 * np.max(np.abs(want)), case
        assert np.array_equal(exp_monomial_moments(*case, count), m)
    for below in (2, 4, 6):
        a, b = got[below], got[below + 1]
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))


def test_shapes_of_scalar_and_empty_inputs():
    assert exp_monomial_moments(2.0j, 1.0, -1.0, 1.0, COUNT).shape == (COUNT,)
    empty = np.zeros(0)
    assert exp_monomial_moments(empty, empty, empty, empty, 8).shape == (0, 8)


def test_broadcast_panels_by_queries():
    """(panels, 1) frequencies by (1, queries) points give (panels, queries,
    degree), each element equal to its own scalar call."""
    mu = np.array(MU_RIGHT)[:, None]
    t = np.array(T_QUERIES)[None, :]
    got = exp_monomial_moments(mu, t, -1.0, t, COUNT)
    assert got.shape == (len(MU_RIGHT), len(T_QUERIES), COUNT)
    for i, m in enumerate(MU_RIGHT):
        for j, tq in enumerate(T_QUERIES):
            want = exp_monomial_moments(m, tq, -1.0, tq, COUNT)
            assert np.max(np.abs(got[i, j] - want)) <= 1e-14 * np.max(np.abs(want))
    assert_close(got[-1, 1], oracle(MU_RIGHT[-1], T_QUERIES[1], -1.0, T_QUERIES[1]))


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
    table = _ChebTable(lambda x: np.stack((f(x), 2j * f(x))), edges, (k, -k), points=12)
    got = table(x)
    assert got.shape == (2,) + x.shape
    scale = np.max(np.abs(f(x)))
    assert np.max(np.abs(got[0] - f(x))) <= 1e-12 * scale
    assert np.max(np.abs(got[1] - 2j * f(x))) <= 2e-12 * scale
    plain = _ChebTable(f, edges, points=24)
    assert np.max(np.abs(plain(x) - f(x))) > 1e-3 * scale


def test_table_refuses_points_outside_its_edges():
    table = _ChebTable(np.cos, np.linspace(-1.0, 3.0, 5), points=16)
    assert abs(table(np.array(3.0)) - np.cos(3.0)) < 1e-13
    for bad in (-1.001, 3.5, np.nan):
        with pytest.raises(DomainError, match="table covers"):
            table(np.array([0.0, bad]))
