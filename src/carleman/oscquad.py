"""Oscillatory quadrature building blocks.

Four tools shared by the scattering solver, the stationary-phase engine and
the Hankel eigenfunction integrals:

* exact moments of exp(mu u) against monomials on intervals, batched over
  arrays of frequencies and intervals and anchored so no exponential ever
  exceeds unit modulus (Filon-type product integration with geometric panels
  stays legitimate for any frequency);
* phase-equidistributed Gauss panels for integrands written as
  amplitude * exp(i phase) with an explicitly known phase;
* a two-term integration-by-parts boundary series for truncated tails
  int_X^inf exp(i phi) A dx, with jets supplying the derivatives;
* a piecewise-Chebyshev table whose basis carries known oscillations
  e^{i nu x} (the solver's b~ coefficients, psi for the Hankel integrals).
"""

from __future__ import annotations

import numpy as np

from ._jets import Jet
from .errors import DomainError

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
    nodes, weights = gauss_panels(edges, p)
    return np.sum(f(nodes.ravel()) * weights.ravel())


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


class _ChebTable:
    """Piecewise-Chebyshev table of `sample` (1-D x -> (components..., x.size))
    between `edges`: on the panel with centre c and half-width h the basis is
    e^{i nu (x - c)} T_j((x - c) / h), j < points, nu in `nus` (m functions).
    One nu is fitted at m first-kind Chebyshev points; several by one batched
    QR at those and the m + 1 points, as one grid aliases the waves once nu h
    nears a multiple of its size (Lebesgue constants up to 5e5 for m = 24) and
    the two only near nu h = m (m + 1).  A call locates points by one
    searchsorted, sums by Clenshaw and refuses points outside the edges.
    """

    def __init__(self, sample, edges, nus=(0.0,), points=20):
        e = self.edges = np.asarray(edges, dtype=float)
        self.nus = np.asarray(nus, dtype=float)
        m = points * self.nus.size
        sizes = (m,) if self.nus.size == 1 else (m, m + 1)
        t = np.concatenate([np.cos(np.pi * (np.arange(n) + 0.5) / n) for n in sizes])
        self._c, self._h = 0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e)
        vals = np.asarray(sample((self._c[:, None] + self._h[:, None] * t).ravel()))
        self.shape = vals.shape[:-1]
        vals = vals.reshape(-1, e.size - 1, t.size).transpose(1, 2, 0)  # (panel, node, comp)
        cheb = np.cos(np.outer(np.arccos(t), np.arange(points)))
        phase = np.exp(1j * self.nus * (self._h[:, None, None] * t[:, None]))  # (panel, node, nu)
        if self.nus.size == 1:  # divide the one wave out: one Chebyshev fit serves every panel
            coef = np.linalg.inv(cheb) @ (vals / phase)
        else:
            q, r = np.linalg.qr((phase[..., None] * cheb[:, None]).reshape(-1, t.size, m))
            coef = np.linalg.solve(r, q.conj().swapaxes(1, 2) @ vals)
        self.coef = coef.reshape(e.size - 1, self.nus.size, points, -1).transpose(2, 1, 3, 0)

    def __call__(self, x):
        """The components at the points x, shape (components...,) + x.shape."""
        x = np.asarray(x, dtype=float)
        e = self.edges
        if x.size and not (e[0] <= x.min() and x.max() <= e[-1]):
            raise DomainError(f"table covers [{e[0]:g}, {e[-1]:g}], "
                              f"not [{x.min():g}, {x.max():g}]")
        q = np.clip(np.searchsorted(e, x.ravel(), side="right") - 1, 0, e.size - 2)
        s = x.ravel() - self._c[q]
        t, coef = s / self._h[q], self.coef[..., q]           # coef: (j, nu, comp, point)
        b1 = b2 = 0.0
        for c in coef[:0:-1]:
            b1, b2 = c + 2.0 * t * b1 - b2, b1
        out = (coef[0] + t * b1 - b2) * np.exp(1j * np.multiply.outer(self.nus, s))[:, None]
        return out.sum(axis=0).reshape(self.shape + x.shape)
