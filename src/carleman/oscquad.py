"""Oscillatory quadrature building blocks.

Four tools shared by the scattering solver, the stationary-phase engine and
the Hankel eigenfunction integrals:

* exact moments of exp(mu u) against monomials on sub-intervals of [-1, 1],
  from a short Taylor series or a three-term recurrence, batched over arrays
  of frequencies and intervals and anchored so no exponential ever exceeds
  unit modulus (Filon-type product integration with geometric panels stays
  legitimate for any frequency);
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
# exp_monomial_moments' series steps 1 / (2j (2j + 1)): 17 terms keep the first
# one left out, z^34 / 34!, below 1e-18 while |z| < 4
_STEP = 1.0 / (np.arange(2.0, 33.0, 2.0) * np.arange(3.0, 34.0, 2.0))


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
    Every caller passes reference coordinates -1 <= lo <= hi <= 1 and must
    pick `anchor` so Re(mu (u - anchor)) <= 0 on [lo, hi]: no exponential
    then exceeds unit modulus.  With c, s the centre and half-width of
    [lo, hi] and z = mu s, G_i = int_-1^1 x^i e^{mu (c + s x - anchor)} dx
    comes from its Taylor series in z while |z| < 4 (one exponential per
    element, exact at mu = 0), else from z G_i = E+ - (-1)^i E- - i G_(i-1)
    upward, E+- = e^{mu (hi - anchor)}, e^{mu (lo - anchor)}; errors grow by
    at most prod(i / |z|), 1.4 for count 10.  Raising the degree by c + s x
    one step at a time turns G into m.  Each element's value is the same
    whatever batch it comes in.
    """
    mu, anchor, lo, hi = np.broadcast_arrays(np.asarray(mu, dtype=complex),
                                             np.asarray(anchor, dtype=float),
                                             np.asarray(lo, dtype=float),
                                             np.asarray(hi, dtype=float))
    shape = mu.shape
    mu, anchor, lo, hi = (v.ravel() for v in (mu, anchor, lo, hi))
    c, s = 0.5 * (lo + hi), 0.5 * (hi - lo)
    z = mu * s
    G = np.empty((count, z.size), dtype=complex)
    small = np.abs(z) < 4.0
    if np.any(small):
        zs = z[small]
        q = np.empty((_STEP.size + 1, zs.size), dtype=complex)
        q[0] = 1.0
        np.multiply.outer(_STEP, zs * zs, out=q[1:])
        for j in range(1, q.shape[0]):  # q_j = z^(2j) / (2j + 1)!
            q[j] = q[j] * q[j - 1]  # not *=: numpy rounds a length-1 one differently
        j, i = np.arange(q.shape[0]), np.arange(count)[:, None]
        series = np.where(i % 2, 2.0 / (2 * j + i + 2), (4 * j + 2.0) / (2 * j + i + 1))
        # einsum, not BLAS, whose sums depend on the column's place in the batch
        S = np.einsum("ij,jk->ik", series, q.view(float)).view(complex)
        S[1::2] = S[1::2] * zs
        G[:, small] = S * np.exp(mu[small] * (c[small] - anchor[small]))
    big = ~small
    if np.any(big):
        rz, a = 1.0 / z[big], anchor[big]
        e_hi, e_lo = np.exp(mu[big] * (hi[big] - a)), np.exp(mu[big] * (lo[big] - a))
        ends = (e_hi - e_lo, e_hi + e_lo)
        B = np.empty((count, rz.size), dtype=complex)
        B[0] = ends[0] * rz
        for i in range(1, count):
            B[i] = (ends[i % 2] - i * B[i - 1]) * rz
        G[:, big] = B
    # step l leaves row r >= l holding int x^(r-l) (c + s x)^l e^{...} dx;
    # |c| + s <= 1 keeps every step bounded by max |G|
    R, c2, s2 = G.view(float), np.repeat(c, 2), np.repeat(s, 2)
    for l in range(1, count):
        raised = c2 * R[l - 1:-1]
        R[l:] *= s2
        R[l:] += raised
    R *= s2
    return np.ascontiguousarray(G.T).reshape(shape + (count,))


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
