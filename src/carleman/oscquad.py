"""Oscillatory quadrature building blocks.

Tools shared by the scattering solver, the stationary-phase engine and the
Hankel eigenfunction integrals:

* exact moments of exp(mu u) against monomials on the upward partial panel
  [-1, t] (the downward one [t, 1] is its mirror image), from a short Taylor
  series or a three-term recurrence, batched over arrays of frequencies and
  points and anchored at t so no exponential ever exceeds unit modulus
  (Filon-type product integration with geometric panels stays legitimate for
  any frequency);
* graded panel edges, each panel a fixed factor wider than the last, and
  Gauss nodes resolving exp(i phase) at a known phase rate: each panel cut
  into equal parts spanning <= 8 pi of phase (theta's integrals and J(N));
* an integration-by-parts boundary series, `order` terms summed from jets
  at one point, for the ends of int exp(i phi) A dx cut off at X;
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
# phase_panels' rule, Gauss-20 on parts spanning <= 8 pi: on e^{iax} over [-1, 1] Gauss-p errs by
# 2^(2p+1) (p!)^4 a^(2p) / ((2p+1) ((2p)!)^3) (Davis & Rabinowitz 4.3), 3.2e-16 at a = 4 pi
PHASE_NODES, PHASE_SPAN = 20, 8.0 * np.pi


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
    """C with l_r(u) = sum_l C[l, r] u^l for the Lagrange basis on the mirrored
    `nodes` u_r = -u_{p-1-r}; (-1)^l C[l, r] = C[l, p-1-r] holds exactly (the
    inverse Vandermonde alone keeps it only to rounding), so a downward sweep's
    (-1)^l-signed product is the upward one reversed, bit for bit."""
    C = np.linalg.inv(np.vander(nodes, increasing=True))
    return 0.5 * (C + (-1.0) ** np.arange(C.shape[0])[:, None] * C[:, ::-1])


def exp_monomial_moments(mu, t, count):
    """m_l = int_-1^t u^l exp(mu (u - t)) du, l < count: the upward partial-panel
    moments, a whole panel at t = 1; the downward int_t^1 ones are (-1)^l m_l at
    (-mu, -t) (u -> -u).  Broadcasts over mu and t to shape (..., count).
    Callers keep -1 <= t <= 1 and Re(mu) >= 0: no exponential exceeds unit
    modulus.  With c, s the centre and half-width of [-1, t] and z = mu s,
    G_i = int_-1^1 x^i e^{mu (c + s x - t)} dx comes from its Taylor series in
    z while |z| < 4 (one exponential per element, exact at mu = 0), else from
    z G_i = 1 - (-1)^i E - i G_(i-1) upward, E = e^{-mu (1 + t)}; errors grow
    by at most prod(i / |z|), 1.4 for count 10.  Raising the degree by c + s x
    one step at a time turns G into m.  An element's value does not depend on
    the batch it comes in: no sum goes through BLAS.
    test_series_and_recurrence_regimes holds m within 1e-14 of 30-digit
    quadrature on both sides of the switch, a panel as short as t = -1 + 1e-9
    included.
    """
    mu, t = np.broadcast_arrays(np.asarray(mu, dtype=complex), np.asarray(t, dtype=float))
    shape = mu.shape
    mu, t = mu.ravel(), t.ravel()
    c, s = 0.5 * (t - 1.0), 0.5 * (t + 1.0)
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
        G[:, small] = S * np.exp(mu[small] * (c[small] - t[small]))
    big = ~small
    if np.any(big):
        rz, e = 1.0 / z[big], np.exp(mu[big] * (-1.0 - t[big]))
        ends = (1.0 - e, 1.0 + e)
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


def graded_edges(start, stop, h, grow, h_max=np.inf):
    """Edges from start to stop: the first panel min(h, h_max) wide, each next
    one grow times the last up to h_max, the last clipped at stop."""
    edges, h = [start], min(h, h_max)
    while edges[-1] < stop:
        edges.append(min(edges[-1] + h, stop))
        h = min(grow * h, h_max)
    return np.array(edges)


def phase_parts(edges, rate):
    """The parts each panel between `edges` is cut into, at least one:
    ceil(max(rate at its ends) * width / PHASE_SPAN), `rate` the phase rate at
    the edges.  With it monotone on each panel, every part spans <= PHASE_SPAN."""
    return np.maximum(np.ceil(np.maximum(rate[:-1], rate[1:]) * np.diff(edges) / PHASE_SPAN), 1.0)


def phase_panels(edges, rate):
    """Gauss-PHASE_NODES nodes and weights, flat, on the equal parts
    (`phase_parts`) of the panels between `edges`."""
    m, width = phase_parts(edges, rate).astype(int), np.diff(edges)
    i = np.repeat(np.arange(m.size), m)
    j = np.arange(i.size) - np.repeat(np.cumsum(m) - m, m)
    nodes, weights = gauss_panels(np.append(edges[i] + width[i] * j / m[i], edges[-1]), PHASE_NODES)
    return nodes.ravel(), weights.ravel()


def ibp_boundary(amp_jet: Jet, phase_jet: Jet, order: int = 2):
    """Antiderivative boundary series S(y) of int exp(i phi) A dx by parts.

    int_c^d exp(i phi) A dx = S(d) - S(c) + remainder, where S collects
    `order` integration-by-parts terms evaluated from the jets at one point.
    """
    phip = phase_jet.shift()
    e = np.exp(1j * phase_jet.value)
    term = amp_jet
    total = 0.0 + 0.0j
    for _ in range(order):
        ratio = term / (phip * 1j)
        total = total + ratio.value * e
        # next round integrates -(A/(i phi'))' by parts again
        term = -ratio.shift()
    return total


def _clenshaw(coef, t):
    """sum_j coef[j] T_j(t) by Clenshaw's recurrence, 2t formed once."""
    t2, b1, b2 = 2.0 * t, 0.0, 0.0
    for c in coef[:0:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return coef[0] + t * b1 - b2


class _ChebTable:
    """Piecewise-Chebyshev table of `sample` ((c, h, t) -> (components...,
    panels, t.size) at c + h t, or those values at `grid`) between `edges`: on
    the panel with centre c and half-width h the basis is e^{i nu (x - c)}
    T_j((x - c) / h), j < points, nu in `nus` (m functions).  One nu is fitted
    at m first-kind Chebyshev points; several by one batched QR at those and
    the m + 1 points, as one grid aliases the waves once nu h nears a multiple
    of its size (Lebesgue constants up to 5e5 for m = 24) and the two only
    near nu h = m (m + 1).  A call locates points by one searchsorted, sums by
    Clenshaw and refuses points outside the edges.
    """

    def __init__(self, sample, edges, nus=(0.0,), points=20):
        e = self.edges = np.asarray(edges, dtype=float)
        self.nus = np.asarray(nus, dtype=float)
        m, t = points * self.nus.size, self.grid(self.nus.size, points)
        self._c, self._h = 0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e)
        vals = np.asarray(sample(self._c[:, None], self._h[:, None], t)
                          if callable(sample) else sample)
        self.shape, comps = vals.shape[:-2], int(np.prod(vals.shape[:-2]))
        vals = vals.reshape(comps, e.size - 1, t.size).transpose(1, 2, 0)  # (panel, node, comp)
        cheb = np.cos(np.outer(np.arccos(t), np.arange(points)))
        phase = np.exp(1j * self.nus * (self._h[:, None, None] * t[:, None]))  # (panel, node, nu)
        if self.nus.size == 1:  # divide the one wave out: one Chebyshev fit serves every panel
            coef = np.linalg.inv(cheb) @ (vals / phase)
        else:
            q, r = np.linalg.qr((phase[..., None] * cheb[:, None]).reshape(-1, t.size, m))
            coef = np.linalg.solve(r, q.conj().swapaxes(1, 2) @ vals)
        self.coef = coef.reshape(e.size - 1, self.nus.size, points, comps).transpose(2, 1, 3, 0)

    @staticmethod
    def grid(waves, points):  # the reference points t of a table of `waves` nus
        return np.concatenate([np.cos(np.pi * (np.arange(n) + 0.5) / n) for n in
                               range(points * waves, points * waves + 1 + (waves > 1))])

    def __call__(self, x):
        """The components at the points x, shape (components...,) + x.shape."""
        x = np.asarray(x, dtype=float)
        e = self.edges
        if x.size and not (e[0] <= x.min() and x.max() <= e[-1]):
            raise DomainError(f"table covers [{e[0]:g}, {e[-1]:g}], "
                              f"not [{x.min():g}, {x.max():g}]")
        q = np.clip(np.searchsorted(e, x.ravel(), side="right") - 1, 0, e.size - 2)
        s = x.ravel() - self._c[q]
        # coef: (j, nu, comp, point)
        out = _clenshaw(self.coef[..., q], s / self._h[q]) \
            * np.exp(1j * np.multiply.outer(self.nus, s))[:, None]
        return out.sum(axis=0).reshape(self.shape + x.shape)
