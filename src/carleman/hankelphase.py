"""Hankel kernel, Mellin-side transform, and the eigenfunction integral.

The continuum eigenfunction of the Hankel operator with kernel P(ln t)/t is,
in log coordinates N = ln t,

    theta(t, k) = (2 pi)^{-1/2} t^{-1/2} I(N, k),
    I(N, k)     = int e^{-i xi(x) N} zeta(x) psi(x, k) dx,
    zeta(x)     = e^{i rho(x)} xi'(x)^{1/2},
    rho(x)      = eta(xi(x)) - q_{n-1} xi(x) / n,

with psi the gauged short-range eigenfunction.  The integral converges only
conditionally; it is evaluated as a phase-resolved core (where psi comes from
the Nystrom field via splined envelopes) plus oscillating tails where psi is
replaced by its r_+/- envelope representation, closed by integration by
parts.  Stationary points sit at |x| ~ n|N|/(pi |k|), so the core radius
bounds the reachable |N|.

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
from .oscquad import equidistribute_edges, ibp_boundary, integrate_panels
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


def _zeta_phase_jets(x0, N, k_sign_term, Q, cov, order=3):
    """Jets at x0 of the tail amplitude zeta(x) and phase -xi(x) N + s k x."""
    n = Q.degree
    xi_jet = cov.xi_jet_of_x(np.asarray([x0]), order)
    xi_jet = Jet(xi_jet.c[:, 0])
    eta_j = xi_jet.compose(_eta_jet(float(xi_jet.value), order).c)
    rho_j = eta_j - xi_jet * (Q.coeffs[n - 1] / n)
    zeta_j = (rho_j * 1j).exp() * xi_jet.shift().truncated(order - 1).pow(0.5)
    xvar = Jet.variable(float(x0), order)
    phase_j = xi_jet * (-N) + xvar * k_sign_term
    return zeta_j, phase_j


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


class ThetaEvaluator:
    """Shared machinery to evaluate I(N, k) for many N at one field.

    Splines of the slow envelopes r_+(x), r_-(x) and of psi_dec are built once
    on a phase-resolving grid; each theta evaluation then costs one
    phase-panel sweep (core) plus four oscillating tails.
    """

    def __init__(self, field, Q: RealPolynomial, cov: ChangeOfVariables,
                 x_split=None, x_tail=2000.0, grid_h=None):
        self.field = field
        self.Q = Q
        self.cov = cov
        self.n = Q.degree
        self.k = field.k
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
        rp = field.r_plus(xs_core)
        rm = field.r_minus(xs_core)
        psi = field.psi_at(xs_core)
        dec = psi - (np.exp(1j * self.k * xs_core) * rp
                     + np.exp(-1j * self.k * xs_core) * rm)
        self._rp = CubicSpline(xs_core, rp)
        self._rm = CubicSpline(xs_core, rm)
        self._dec = CubicSpline(xs_core, dec)
        lims = field.r_limits()
        if self.n % 2 == 1:
            self._lim_p = {+1: lims["r+inf"], -1: lims["r-inf"]}
            self._lim_m = {+1: 0.0 + 0.0j, -1: 0.0 + 0.0j}
        else:
            self._lim_p = {+1: lims["r++inf"], -1: lims["r+-inf"]}
            self._lim_m = {+1: lims["r-+inf"], -1: lims["r--inf"]}
        # tail envelope deviations from the limits, on log grids per side
        u = np.geomspace(self.x_split, self.x_tail, 400)
        self._tail_u, self._tail_xi = u, cov.xi_of_x(u)
        # the grid on which each N's core phase panels are equidistributed
        self._arc_x = np.linspace(-self.x_split, self.x_split, 4097)
        self._arc_xi = cov.xi_of_x(self._arc_x)
        self._dev_p = {s: CubicSpline(u, field.r_plus(s * u) - self._lim_p[s])
                       for s in (+1, -1)}
        self._dev_m = {s: CubicSpline(u, field.r_minus(s * u) - self._lim_m[s])
                       for s in (+1, -1)}

    # -- pieces ---------------------------------------------------------------

    def _core(self, N):
        k, xs = self.k, self._arc_x
        arc = np.abs(N) * self._arc_xi + abs(k) * xs
        edges = equidistribute_edges(xs, arc, np.pi / 2)

        def f(x):
            xi = self.cov.xi_of_x(x)
            psi = (np.exp(1j * k * x) * self._rp(x)
                   + np.exp(-1j * k * x) * self._rm(x) + self._dec(x))
            return _zeta_of_xi(xi, self.Q, self.cov) * psi * np.exp(-1j * xi * N)

        return integrate_panels(f, edges, p=12)

    def _tail(self, N, side, wave_sign):
        """int over side*[x_split, x_tail] of e^{-i xi N + i wave_sign k x} zeta r."""
        k = self.k
        lim = self._lim_p[side] if wave_sign > 0 else self._lim_m[side]
        dev = self._dev_p[side] if wave_sign > 0 else self._dev_m[side]
        xs = side * self._tail_u
        # phase along the tail (signed coordinate; xi is odd)
        phase = -side * self._tail_xi * N + wave_sign * k * xs
        order = np.argsort(xs)
        edges = equidistribute_edges(xs[order], phase[order], np.pi / 2)

        def f(x):
            xi = self.cov.xi_of_x(x)
            amp = _zeta_of_xi(xi, self.Q, self.cov) * (lim + dev(np.abs(x)))
            return amp * np.exp(1j * (-xi * N + wave_sign * k * x))

        val = integrate_panels(f, edges, p=12)
        # IBP closure beyond x_tail with the constant limit amplitude:
        # int_{x_end}^{+inf} = -S(x_end), int_{-inf}^{x_end} = +S(x_end)
        if abs(lim) > 0:
            x_end = side * self.x_tail
            zeta_j, phase_j = _zeta_phase_jets(x_end, N, wave_sign * k,
                                               self.Q, self.cov)
            S, _ = ibp_boundary(zeta_j * lim, phase_j, order=2)
            val += -S if side > 0 else S
        return val

    def _check_resolution(self, N):
        x_stat = self.n * abs(N) / (np.pi * abs(self.k)) + \
            (self.cov.a1 if self.cov.profile.family == "cosh" else 0.0)
        if 1.35 * x_stat > self.x_split:
            raise ResolutionError(
                f"stationary point at |x| ~ {x_stat:.1f} too close to the "
                f"resolved core |x| <= {self.x_split:.1f}",
                suggested_x_core=1.6 * x_stat)

    def I(self, N):
        """The conditionally convergent integral I(N, k)."""
        N = float(N)
        self._check_resolution(N)
        total = self._core(N)
        for side in (+1, -1):
            for wave_sign in (+1, -1):
                if self.n % 2 == 1 and wave_sign < 0:
                    continue
                total += self._tail(N, side, wave_sign)
        return total

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
    vals = np.array([ev.theta_scaled(N) for N in N_grid])
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
