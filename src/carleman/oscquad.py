"""Oscillatory quadrature building blocks.

Three tools shared by the scattering solver, the stationary-phase engine and
the Hankel eigenfunction integrals:

* exact moments of exp(mu u) against monomials on intervals, batched over
  arrays of frequencies and intervals and anchored so no exponential ever
  exceeds unit modulus (Filon-type product integration with geometric panels
  stays legitimate for any frequency);
* phase-equidistributed Gauss panels for integrands written as
  amplitude * exp(i phase) with an explicitly known phase;
* a two-term integration-by-parts boundary series for truncated tails
  int_X^inf exp(i phi) A dx, with jets supplying the derivatives.
"""

from __future__ import annotations

import numpy as np

from ._jets import Jet

_GL_CACHE: dict = {}


def gauss_rule(p):
    if p not in _GL_CACHE:
        _GL_CACHE[p] = np.polynomial.legendre.leggauss(p)
    return _GL_CACHE[p]


def gauss_panels(edges, p):
    """Gauss-p nodes and weights, each of shape (panels, p), on the panels
    between consecutive edges."""
    x, w = gauss_rule(p)
    c, s = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return c[:, None] + s[:, None] * x, s[:, None] * w


def lagrange_coeff_matrix(nodes):
    """C with l_r(u) = sum_l C[l, r] u^l for the Lagrange basis on `nodes`."""
    V = np.vander(nodes, increasing=True)
    return np.linalg.inv(V)


def exp_monomial_moments(mu, anchor, lo, hi, count):
    """m_l = int_lo^hi u^l exp(mu (u - anchor)) du for l = 0..count-1.

    Broadcasts over mu, anchor, lo and hi and returns shape (..., count).
    The caller must pick `anchor` so Re(mu (u - anchor)) <= 0 on [lo, hi];
    every intermediate then has modulus <= |hi - lo| and the upward recursion
    is safe once |mu| max(|lo|, |hi|, 1) >= 14.  Elements below that switch
    use 32-point Gauss quadrature instead.
    """
    mu, anchor, lo, hi = np.broadcast_arrays(np.asarray(mu, dtype=complex),
                                             np.asarray(anchor, dtype=float),
                                             np.asarray(lo, dtype=float),
                                             np.asarray(hi, dtype=float))
    out = np.empty(mu.shape + (count,), dtype=complex)
    gauss = np.abs(mu) * np.maximum(np.maximum(np.abs(hi), np.abs(lo)), 1.0) < 14.0
    if np.any(gauss):
        x, w = gauss_rule(32)
        g_lo, g_hi = lo[gauss][:, None], hi[gauss][:, None]
        c, s = 0.5 * (g_lo + g_hi), 0.5 * (g_hi - g_lo)
        u = c + s * x
        e = np.exp(mu[gauss][:, None] * (u - anchor[gauss][:, None])) * (s * w)
        moments = []
        for _ in range(count):
            moments.append(e.sum(axis=-1))
            e = e * u
        out[gauss] = np.stack(moments, axis=-1)
    rec = ~gauss
    if np.any(rec):
        r_mu, r_lo, r_hi, r_anchor = mu[rec], lo[rec], hi[rec], anchor[rec]
        elo = np.exp(r_mu * (r_lo - r_anchor))
        ehi = np.exp(r_mu * (r_hi - r_anchor))
        m = (ehi - elo) / r_mu
        moments = [m]
        for l in range(1, count):
            m = (r_hi ** l * ehi - r_lo ** l * elo) / r_mu - (l / r_mu) * m
            moments.append(m)
        out[rec] = np.stack(moments, axis=-1)
    return out


def equidistribute_edges(x_samples, phase_samples, max_dphase):
    """Panel edges along x_samples so each panel spans <= max_dphase of phase.

    phase_samples need not be monotone; the arc length of the phase is used.
    """
    x_samples = np.asarray(x_samples, dtype=float)
    arc = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(phase_samples)))))
    total = arc[-1]
    n_panels = max(int(np.ceil(total / max_dphase)), 1)
    targets = np.linspace(0.0, total, n_panels + 1)
    edges = np.interp(targets, arc, x_samples)
    edges[0], edges[-1] = x_samples[0], x_samples[-1]
    return np.unique(edges)


def integrate_panels(f, edges, p=12):
    """sum of Gauss-p integrals of f over consecutive [edges[i], edges[i+1]]."""
    x, w = gauss_rule(p)
    lo, hi = edges[:-1], edges[1:]
    c, s = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = c[:, None] + s[:, None] * x[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return np.sum((vals @ w) * s)


def ibp_boundary(amp_jet: Jet, phase_jet: Jet, order: int = 2):
    """Antiderivative boundary series S(y) of int exp(i phi) A dx by parts.

    int_c^d exp(i phi) A dx = S(d) - S(c) + remainder, where S collects
    `order` integration-by-parts terms evaluated from the jets at one point.
    Returns (S, magnitude of the first neglected amplitude ratio).
    """
    phip = phase_jet.shift()
    e = np.exp(1j * phase_jet.value)
    term = amp_jet
    total = 0.0 + 0.0j
    last = 0.0
    for _ in range(order):
        ratio = term / (phip * 1j)
        total = total + ratio.value * e
        # next round integrates -(A/(i phi'))' by parts again
        term = -ratio.shift()
        if term.order >= 0:
            last = float(np.max(np.abs(term.value / phip.truncated(term.order).value)))
    return total, last
