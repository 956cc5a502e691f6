"""Hankel kernel, Mellin-side transform, and the eigenfunction integral.

The continuum eigenfunction of the Hankel operator with kernel P(ln t)/t is,
in log coordinates N = ln t,

    theta(t, k) = (2 pi)^{-1/2} t^{-1/2} I(N, k),
    I(N, k)     = int e^{-i xi(x) N} zeta(x) psi(x, k) dx,
    zeta(x)     = e^{i rho(x)} xi'(x)^{1/2},
    rho(x)      = eta(xi(x)) - q_{n-1} xi(x) / n,

with psi the gauged short-range eigenfunction.  The integral converges only
conditionally: a core (psi from the Nystrom field via splined envelopes)
plus oscillating tails (psi from its r_+/- envelopes), closed by integration
by parts.  Stationary points sit at |x| ~ n|N|/(pi |k|), so the core radius
bounds the reachable |N|.  Only e^{-i xi(x) N} depends on N, so the Gauss
nodes resolve the phase at that largest |N| once, and I(N) is one fixed
exponential sum over them plus the closures.

The large-|N| model uses the explicit phase

    gamma(N, k) = N gamma0(|N/k|) + gamma1(|N/k|) + sgn(N) (pi/4 + a1 |k|),
    omega(t, k) = gamma(ln t, k),

and the scattering entries of the gauged operator pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from ._jets import Jet
from .coeffmap import RealPolynomial
from .errors import DomainError, ResolutionError
from .oscquad import equidistribute_edges, gauss_rule, ibp_boundary
from .profile import ChangeOfVariables
from .specfun import _LANCZOS_C, _LANCZOS_G, eta_phase

# ---------------------------------------------------------------------------
# kernel, rho, zeta
# ---------------------------------------------------------------------------


def hankel_kernel(t, P: RealPolynomial):
    """h(t) = P(ln t) / t for t > 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("the Hankel kernel needs t > 0")
    return P(np.log(t)) / t


def _rho_of_xi(xi, Q: RealPolynomial):
    """rho as a function of xi = xi(x)."""
    n = Q.degree
    return eta_phase(xi) - Q.coeffs[n - 1] * xi / n


def _zeta_of_xi(xi, Q: RealPolynomial, cov: ChangeOfVariables):
    """zeta as a function of xi = xi(x): xi'(x)^{1/2} = v(xi)^{1/n}."""
    return np.exp(1j * _rho_of_xi(xi, Q) + cov.profile.log_v(xi) / cov.n)


def varrho(x, Q: RealPolynomial, cov: ChangeOfVariables):
    """rho(x) = eta(xi(x)) - q_{n-1} xi(x) / n (odd in x)."""
    return _rho_of_xi(cov.xi_of_x(np.asarray(x, dtype=float)), Q)


def zeta_amplitude(x, Q: RealPolynomial, cov: ChangeOfVariables):
    """zeta(x) = e^{i rho(x)} xi'(x)^{1/2}; modulus^2 equals xi'(x)."""
    return _zeta_of_xi(cov.xi_of_x(np.asarray(x, dtype=float)), Q, cov)


def _eta_jet(xi0, order=3):
    """Jet of eta = -Im log Gamma(1/2 - i xi) at xi0 from the Lanczos series
    of specfun in jet arithmetic; the value is eta_phase(xi0)."""
    zp = Jet.variable(float(xi0), order) * -1j - 0.5       # z - 1
    t = zp + (_LANCZOS_G + 0.5)
    a = sum(c / (zp + i) for i, c in enumerate(_LANCZOS_C[1:], 1)) + _LANCZOS_C[0]
    c = -((zp + 0.5) * t.log() - t + a.log()).c.imag
    c[0] = eta_phase(xi0)
    return Jet(c)


def _xi_zeta_jets(x0, Q, cov, order=3):
    """Jets at x0 of xi(x) and of the tail amplitude zeta(x)."""
    n = Q.degree
    xi_jet = cov.xi_jet_of_x(np.asarray([x0]), order)
    xi_jet = Jet(xi_jet.c[:, 0])
    eta_j = xi_jet.compose(_eta_jet(float(xi_jet.value), order).c)
    rho_j = eta_j - xi_jet * (Q.coeffs[n - 1] / n)
    zeta_j = (rho_j * 1j).exp() * xi_jet.shift().truncated(order - 1).pow(0.5)
    return xi_jet, zeta_j


# ---------------------------------------------------------------------------
# explicit phase model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseModel:
    """The closed-form phase pieces gamma0, gamma1, gamma(N,k) and omega."""

    n: int
    q_n1: float
    a0: float
    a1: float

    @staticmethod
    def from_problem(Q: RealPolynomial, cov: ChangeOfVariables):
        return PhaseModel(n=Q.degree, q_n1=float(Q.coeffs[Q.degree - 1]),
                          a0=cov.a0, a1=cov.a1)

    def gamma0(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s <= 0):
            raise DomainError("gamma0 needs s > 0")
        n = self.n
        return -n / np.pi * np.log((2 * np.pi) ** (1.0 / n) * s) + n / np.pi

    def gamma1(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s <= 0):
            raise DomainError("gamma1 needs s > 0")
        n = self.n
        L = np.log((2 * np.pi) ** (1.0 / n) * s)
        return L / np.pi * (n * np.log(np.abs(n / np.pi * L)) - n - self.q_n1)

    def gamma(self, N, k):
        N = np.asarray(N, dtype=float)
        if np.any(N == 0) or k == 0:
            raise DomainError("gamma(N, k) needs N != 0 and k != 0")
        s = np.abs(N / k)
        return (N * self.gamma0(s) + self.gamma1(s)
                + np.sign(N) * (np.pi / 4 + self.a1 * abs(k)))

    def omega(self, t, k):
        """omega(t, k) = gamma(ln t, k)."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("omega needs t > 0")
        return self.gamma(np.log(t), k)


# ---------------------------------------------------------------------------
# the eigenfunction integral
# ---------------------------------------------------------------------------


def _panel_nodes(x_samples, arc, p=12):
    """Gauss-p nodes and weights on panels spanning <= pi/2 of `arc` each."""
    edges = equidistribute_edges(x_samples, arc, np.pi / 2)
    x, w = gauss_rule(p)
    c, s = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return (c[:, None] + s[:, None] * x).ravel(), (s[:, None] * w).ravel()


class ThetaEvaluator:
    """Shared machinery to evaluate I(N, k) for many N at one field.

    Splines of the slow envelopes r_+(x), r_-(x) and of psi_dec, and Gauss
    panels resolving the phase at the largest |N| the core admits, are built
    once; each theta evaluation is then one fixed sum of e^{-i xi_j N} amp_j
    over core and tail nodes plus the closures beyond +-x_tail.
    """

    def __init__(self, field, Q: RealPolynomial, cov: ChangeOfVariables,
                 x_split=None, x_tail=2000.0, grid_h=None):
        self.field = field
        self.Q = Q
        self.cov = cov
        self.n = Q.degree
        self.k = k = field.k
        self.x_split = float(x_split if x_split is not None else field.X0)
        self.x_tail = float(min(x_tail, field.X))
        if grid_h is None:
            grid_h = 0.35 / max(1.0, abs(self.k))
        # graded core grid: the envelopes inherit the coefficients' sharp
        # structure near the origin, so sample at h/7 there
        h_fine = grid_h / 7.0
        fine = np.arange(-6.0, 6.0 + h_fine, h_fine)
        coarse_r = np.arange(fine[-1] + grid_h, self.x_split + grid_h, grid_h)
        xs_core = np.concatenate((-coarse_r[::-1], fine, coarse_r))
        xs_core = xs_core[np.abs(xs_core) <= self.x_split + 2 * grid_h]
        rp, rm = field.r_plus(xs_core), field.r_minus(xs_core)
        dec = field.psi_at(xs_core) - (np.exp(1j * k * xs_core) * rp
                                       + np.exp(-1j * k * xs_core) * rm)
        self._rp = CubicSpline(xs_core, rp)
        self._rm = CubicSpline(xs_core, rm)
        self._dec = CubicSpline(xs_core, dec)
        # tail envelopes: limits per (side, wave sign) and the deviations
        # from them on a log grid; odd n keeps the outgoing wave only
        lims = field.r_limits()
        if self.n % 2 == 1:
            self._lim = {(+1, +1): lims["r+inf"], (-1, +1): lims["r-inf"]}
        else:
            self._lim = {(+1, +1): lims["r++inf"], (-1, +1): lims["r+-inf"],
                         (+1, -1): lims["r-+inf"], (-1, -1): lims["r--inf"]}
        u = np.geomspace(self.x_split, self.x_tail, 400)
        self._dev = {(s, w): CubicSpline(u, (field.r_plus if w > 0 else
                                             field.r_minus)(s * u) - lim)
                     for (s, w), lim in self._lim.items()}
        # one node set for every admissible N: the core on [-x_split, x_split]
        # and the tails x = +-u, u in [x_split, x_tail], where xi is odd
        self._shift = cov.a1 if cov.profile.family == "cosh" else 0.0
        n_lim = max(self.x_split / 1.35 - self._shift, 0.0) * np.pi * abs(k) / self.n
        arc_x = np.linspace(-self.x_split, self.x_split, 4097)
        xc, wc = _panel_nodes(arc_x, n_lim * cov.xi_of_x(arc_x) + abs(k) * arc_x)
        xt, wt = _panel_nodes(u, n_lim * cov.xi_of_x(u) + abs(k) * u)
        xi_t = cov.xi_of_x(xt)
        self._xi = np.concatenate((cov.xi_of_x(xc), xi_t, -xi_t))
        psi = np.concatenate((self._psi(xc), self._tail_psi(xt, +1),
                              self._tail_psi(xt, -1)))
        self._amp = (np.concatenate((wc, wt, wt)) * psi
                     * _zeta_of_xi(self._xi, Q, cov))
        self._end_jets = {s: _xi_zeta_jets(s * self.x_tail, Q, cov) for s in (+1, -1)}

    # -- pieces ---------------------------------------------------------------

    def _psi(self, x):
        """psi on the core from the spline envelopes."""
        k = self.k
        return (np.exp(1j * k * x) * self._rp(x)
                + np.exp(-1j * k * x) * self._rm(x) + self._dec(x))

    def _tail_psi(self, u, side):
        """psi at x = side * u from the r_+/- envelopes, u >= x_split."""
        return sum((self._lim[side, w] + self._dev[side, w](u))
                   * np.exp(1j * w * self.k * side * u)
                   for w in (+1, -1) if (side, w) in self._lim)

    def _closure(self, N):
        """IBP closures beyond +-x_tail with the constant limit amplitudes:
        int_{x_tail}^{+inf} = -S(x_tail), int_{-inf}^{-x_tail} = +S(-x_tail)."""
        total = 0.0 + 0.0j
        for (side, w), lim in self._lim.items():
            if abs(lim) > 0:
                xi_j, zeta_j = self._end_jets[side]
                x_j = Jet.variable(side * self.x_tail, 3)
                phase_j = xi_j * (-N) + x_j * (w * self.k)
                S, _ = ibp_boundary(zeta_j * lim, phase_j, order=2)
                total -= side * S
        return total

    def _check_resolution(self, N):
        """Raise at the largest |N| whose stationary point leaves the core."""
        x_stat = self.n * np.max(np.abs(N), initial=0.0) / (np.pi * abs(self.k)) \
            + self._shift
        if 1.35 * x_stat > self.x_split:
            raise ResolutionError(
                f"stationary point at |x| ~ {x_stat:.1f} too close to the "
                f"resolved core |x| <= {self.x_split:.1f}",
                suggested_x_core=1.6 * x_stat)

    def I(self, N):
        """The conditionally convergent integral I(N, k) for a scalar or an
        array of N, one row e^{-i xi N} at a time: a value does not depend
        on its batch."""
        N = np.asarray(N, dtype=float)
        self._check_resolution(N)
        out = np.empty(N.shape, dtype=complex)
        for i, Ni in np.ndenumerate(N):
            out[i] = np.exp(-1j * Ni * self._xi) @ self._amp + self._closure(Ni)
        return out[()]

    def theta_scaled(self, N):
        """sqrt(t) * theta(t, k) = (2 pi)^{-1/2} I(ln t, k)."""
        return self.I(N) / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# asymptotic predictor
# ---------------------------------------------------------------------------


def theta_asymptotic(N, k, model: PhaseModel, entries):
    """Leading sqrt(t) theta(t,k) as N -> +/-inf from the scattering entries.

    `entries`: {"s": ...} for odd n, or {"s11","s12","s21","s22"} for even n.
    Returns 0 for the complete-reflection sectors of odd n.
    """
    n = model.n
    N = float(N)
    if N == 0 or k == 0:
        raise DomainError("need N != 0 and k != 0")
    amp = np.sqrt(n / (np.pi * abs(k)))
    w = model.gamma(N, k)
    if n % 2 == 1:
        if N * k > 0:
            s = entries["s"]
            return amp * (s * np.exp(1j * w) + np.exp(-1j * w))
        return 0.0 + 0.0j
    if k > 0:
        if N > 0:
            return amp * (entries["s11"] * np.exp(1j * w) + np.exp(-1j * w))
        return amp * entries["s21"] * np.exp(-1j * w)
    if N > 0:
        return amp * entries["s12"] * np.exp(1j * w)
    return amp * (np.exp(1j * w) + entries["s22"] * np.exp(-1j * w))


@dataclass
class HankelEigenfunction:
    """sqrt(t) theta(t,k) on a grid of N = ln t, with the asymptotic model."""

    k: float
    N: np.ndarray
    values: np.ndarray
    asymptotic: np.ndarray
    relative_residual: np.ndarray


def theta_profile(N_grid, field, Q, cov, entries=None, **kw) -> HankelEigenfunction:
    """Evaluate sqrt(t) theta over an N-grid plus the asymptotic comparison."""
    ev = ThetaEvaluator(field, Q, cov, **kw)
    model = PhaseModel.from_problem(Q, cov)
    vals = ev.theta_scaled(np.asarray(N_grid, dtype=float))
    if entries is None:
        asym = np.full(len(N_grid), np.nan, dtype=complex)
        rel = np.full(len(N_grid), np.nan)
    else:
        asym = np.array([theta_asymptotic(N, field.k, model, entries)
                         for N in N_grid])
        rel = np.abs(vals - asym) / np.maximum(1.0, np.abs(asym))
    return HankelEigenfunction(k=field.k, N=np.asarray(N_grid, dtype=float),
                               values=vals, asymptotic=asym,
                               relative_residual=rel)


# ---------------------------------------------------------------------------
# Mellin transform and the quadratic-form identity
# ---------------------------------------------------------------------------


def mellin_F(tau, g, xi):
    """(F u)(xi) for u(t) = t^{-1/2} g(ln t): e^{-i eta(xi)} ghat(-xi).

    tau must be a uniform grid carrying g to machine-level decay at the ends;
    the Fourier integral ghat(xi) = (2 pi)^{-1/2} int g e^{-i xi tau} dtau is
    then spectrally accurate as a plain Riemann sum.
    """
    tau = np.asarray(tau, dtype=float)
    g = np.asarray(g)
    d = tau[1] - tau[0]
    xi = np.asarray(xi, dtype=float)
    ghat_neg = d / np.sqrt(2 * np.pi) * (g @ np.exp(1j * np.outer(tau, xi)))
    return np.exp(-1j * eta_phase(xi)) * ghat_neg


def hankel_quadratic_form(tau, g, P: RealPolynomial):
    """(H u, u) for u(t) = t^{-1/2} g(ln t), as a 2-D log-variable quadrature.

    (H u, u) = int int P(ln(e^s + e^t)) / (2 cosh((t - s)/2)) g(s) conj(g(t)).
    """
    tau = np.asarray(tau, dtype=float)
    g = np.asarray(g)
    d = tau[1] - tau[0]
    T, S = np.meshgrid(tau, tau, indexing="ij")
    M = np.maximum(T, S)
    lnsum = M + np.log1p(np.exp(-np.abs(T - S)))
    kern = P(lnsum) / (2.0 * np.cosh(0.5 * (T - S)))
    return d * d * np.einsum("ts,s,t->", kern, g, np.conj(g))


def operator_quadratic_form(xi, Fu, Q: RealPolynomial, profile):
    """(A F u, F u) with A = v Q(D) v, via FFT spectral derivatives of v*Fu."""
    xi = np.asarray(xi, dtype=float)
    d = xi[1] - xi[0]
    phi = profile.v(xi) * np.asarray(Fu)
    m = xi.size
    freq = 2.0 * np.pi * np.fft.fftfreq(m, d=d)
    phi_hat = np.fft.fft(phi)
    total = 0.0 + 0.0j
    for mdeg, q in enumerate(Q.coeffs):
        if q == 0.0:
            continue
        dphi = np.fft.ifft(phi_hat * freq ** mdeg)  # D^m phi, D = -i d/dxi
        total += q * d * np.vdot(phi, dphi)  # vdot conjugates the first factor
    return total


def quadratic_form_check(P: RealPolynomial, profile, sigma=1.2, xi0=0.4,
                         n_tau=2049, L_tau=16.0, n_xi=4096, L_xi=40.0):
    """Relative residual |(Hu,u) - (A Fu, Fu)| / |(A Fu, Fu)|.

    The test function is u(t) = t^{-1/2 + i xi0} exp(-(ln t)^2 / (2 sigma^2)),
    i.e. a gaussian in ln t, so every integral converges rapidly.
    """
    from .coeffmap import p_to_q

    tau = np.linspace(-L_tau, L_tau, n_tau)
    g = np.exp(1j * xi0 * tau - tau ** 2 / (2 * sigma ** 2))
    H_form = hankel_quadratic_form(tau, g, P)
    xi = np.linspace(-L_xi, L_xi, n_xi, endpoint=False)
    Fu = mellin_F(tau, g, xi)
    Q = p_to_q(P)
    A_form = operator_quadratic_form(xi, Fu, Q, profile)
    norm_u = np.sqrt(np.sum(np.abs(g) ** 2) * (tau[1] - tau[0]))
    norm_F = np.sqrt(np.sum(np.abs(Fu) ** 2) * (xi[1] - xi[0]))
    return {
        "H_form": complex(H_form),
        "A_form": complex(A_form),
        "relative_residual": abs(H_form - A_form) / abs(A_form),
        "parseval_defect": abs(norm_u - norm_F) / norm_u,
    }
