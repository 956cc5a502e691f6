"""The array-valued moment primitive against mpmath quadrature."""

import mpmath
import numpy as np
import pytest

from carleman.oscquad import exp_monomial_moments

COUNT = 10
# Re(mu) >= 0, on both sides of the Gauss / recursion switch at |mu| = 14
MU_RIGHT = [2.0j, -13.0j, 3.0 + 8.0j, 6.0, 15.0j, -45.0j, 12.0 - 30.0j, 25.0]
MU_LEFT = [-mu for mu in MU_RIGHT]
T_QUERIES = [-0.7, 0.1, 0.93]


def oracle(mu, anchor, lo, hi):
    """m_l = int_lo^hi u^l exp(mu (u - anchor)) du, split every ~3 radians."""
    pieces = int(abs(mu) * (hi - lo) / 3.0) + 2
    with mpmath.workdps(20):
        m, a = mpmath.mpc(mu), mpmath.mpf(anchor)
        nodes = mpmath.linspace(mpmath.mpf(lo), mpmath.mpf(hi), pieces)
        return np.array([complex(mpmath.quad(
            lambda u, l=l: u ** l * mpmath.exp(m * (u - a)), nodes,
            method="gauss-legendre"))
            for l in range(COUNT)])


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
