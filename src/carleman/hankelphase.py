"""Hankel kernel, Mellin-side transform, and the eigenfunction integral.

The continuum eigenfunction of the Hankel operator with kernel P(ln t)/t is,
in log coordinates N = ln t,

    theta(t, k) = (2 pi)^{-1/2} t^{-1/2} I(N, k),
    I(N, k)     = int e^{-i xi(x) N} zeta(x) psi(x, k) dx,
    zeta(x)     = e^{i rho(x)} xi'(x)^{1/2},
    rho(x)      = eta(xi(x)) - q_{n-1} xi(x) / n,

with psi the gauged short-range eigenfunction.  The integral converges only
conditionally: a core plus oscillating tails, with psi read from the Nystrom
field once per Chebyshev grid (test_panel_read_matches_direct_panel_sums)
into oscquad tables on its panels, the outer sides' basis carrying e^{+-ikx},
closed by integration by parts at +-x_tail with each wave's envelope r_w
there as its amplitude.  Stationary points sit at |x| ~ n|N|/(pi |k|),
so x_split (120 whatever the core radius, or x_tail if smaller: a closure
admits none) bounds the reachable |N|.  Only e^{-i xi(x) N} depends on N, so
the Gauss nodes resolve the phase at that largest |N| once: each psi table
panel is cut into equal parts spanning <= 8 pi of it, 20 nodes each
(`oscquad.phase_panels`), and I(N) is one fixed sum over them plus closures.

The large-|N| model uses the explicit phase

    gamma(N, k) = N gamma0(|N/k|) + gamma1(|N/k|) + sgn(N) (pi/4 + a1 |k|),
    omega(t, k) = gamma(ln t, k),

and the scattering entries of the gauged operator pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._jets import Jet
from .coeffmap import RealPolynomial, p_to_q
from .errors import ConfigurationError, DomainError, ResolutionError
from .oscquad import _ChebTable, ibp_boundary, phase_panels
from .profile import ChangeOfVariables
from .specfun import eta_phase

# theta at N resolves while its stationary point |x| ~ n|N|/(pi |k|) lies
# within x_split / _STATIONARY_MARGIN
_STATIONARY_MARGIN = 1.35

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


def _xi_zeta_jets(x, Q, cov, order=3, xi=None):
    """Jets at the points x of xi(x), seeded with xi if given, and of zeta(x)."""
    xi_jet = cov.xi_jet_of_x(np.asarray(x, dtype=float), order, xi)
    zeta_j = ((_rho_of_xi(xi_jet, Q) * 1j).exp()
              * xi_jet.shift().truncated(order - 1).pow(0.5))
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


class ThetaEvaluator:
    """Shared machinery to evaluate I(N, k) for many N at one field.

    psi is read from the field (`field.sample`) into tables on its panels: the
    core's on [-X0, X0], graded toward x = 0, and the outer sides' out to
    +-x_tail >= X0, with 0 < x_split <= x_tail.  The Gauss nodes are built
    once on the tables' panels, each cut into parts spanning <= 8 pi of the
    phase at the largest |N| that x_split admits, so no Gauss panel straddles
    a table edge; each theta is then one fixed sum of e^{-i xi_j N} amp_j over
    core and tail nodes plus the closures beyond +-x_tail.
    """

    def __init__(self, field, Q: RealPolynomial, cov: ChangeOfVariables,
                 x_split=None, x_tail=2000.0):
        self.Q, self.cov, self.n = Q, cov, Q.degree
        self.k = k = field.k
        self.x_tail = float(min(x_tail, field.X))
        self.x_split = float(min(120.0, self.x_tail) if x_split is None else x_split)
        if not (field.X0 <= self.x_tail and 0.0 < self.x_split <= self.x_tail):
            raise ConfigurationError(f"need X0 = {field.X0:g} <= x_tail = {self.x_tail:g} "
                                     f"and 0 < x_split = {self.x_split:g} <= x_tail")
        # every table panel is, or (the last tail one) lies in, a field panel; the
        # tails in u = |x| (x = side u) carry the waves, even n's sides in one fit
        edges, u, waves = field.edges, np.abs(field.edges), len(field.waves)
        core = edges[u <= field.X0]
        tail = np.append(np.unique(u[(u >= field.X0) & (u < self.x_tail)]), self.x_tail)
        ends = np.array([self.x_tail, -self.x_tail])  # each closure's amplitude: r_w there
        # one field read per Chebyshev grid: the core's 12 points, which also read the
        # ends as panels of zero width, and the tails' +-u, 12 (odd n: one read) or 49
        (cc, hc), (ct, ht) = ((0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e)) for e in (core, tail))
        rows, psi, env = [(cc, hc), (ends, 0.0 * ends), (ct, ht), (-ct, -ht)], [], []
        for read in [rows] if waves == 1 else [rows[:2], rows[2:]]:
            c, h = (np.concatenate(v)[:, None] for v in zip(*read))
            p, r = field.sample(c, h, _ChebTable.grid(waves if env else 1, 12))
            psi, env = psi + np.split(p, np.cumsum([v.size for v, _ in read])[:-1]), env + [r]
        self._psi = _ChebTable(psi[0], core, points=12)
        self._tails = [_ChebTable(np.stack([psi[2 + (1 - s) // 2] for s in g]), tail, np.multiply(
            field.waves, k * g[0]), points=12) for g in np.reshape([1, -1], (-1, waves))]
        self._side, self._wave = np.tile([1, -1], waves), np.repeat(field.waves, 2)
        self._r = np.concatenate([r[cc.size:cc.size + 2, 0] for r in env[0].values()])
        # one node set for every admissible N: the core on [-X0, X0] and the
        # tails x = +-u, u in [X0, x_tail], where xi is odd
        self._shift = cov.a1 if cov.profile.family == "cosh" else 0.0
        n_lim = max(self.x_split / _STATIONARY_MARGIN - self._shift, 0.0) \
            * np.pi * abs(k) / self.n
        rate = n_lim / cov.x_prime(cov.xi_of_x(np.concatenate((core, tail)))) + abs(k)
        (xc, wc), (xt, wt) = map(phase_panels, (core, tail), np.split(rate, [core.size]))
        xi = cov.xi_of_x(np.concatenate((xc, xt, ends)))
        self._x = np.concatenate((xc, xt, -xt))
        self._xi = np.concatenate((xi[:-2], -xi[xc.size:-2]))
        self._w = np.concatenate((wc, wt, wt))
        psi = np.concatenate([self._psi(xc)] + [fit(xt).ravel() for fit in self._tails])
        self._amp = self._w * psi * _zeta_of_xi(self._xi, Q, cov)
        self._end_jets = _xi_zeta_jets(ends, Q, cov, xi=xi[-2:])  # at [x_tail, -x_tail]

    # -- pieces ---------------------------------------------------------------

    def _closure(self, N):
        """IBP closures beyond +-x_tail with the envelopes r_w(+-x_tail) as
        constant amplitudes, N a trailing jet axis, the (side, wave) pairs a jet
        axis: int_{x_tail}^{+inf} = -S(x_tail), int_{-inf}^{-x_tail} = +S(-x_tail)."""
        xi_j, zeta_j = (Jet(j.c[:, (1 - self._side) // 2, None]) for j in self._end_jets)
        x_j = Jet.variable(self._side[:, None] * self.x_tail, 3)
        phase_j = xi_j * -np.ravel(N) + x_j * (self._wave[:, None] * self.k)
        S = ibp_boundary(zeta_j * self._r[:, None], phase_j, order=2)
        return -np.sum(self._side[:, None] * S, axis=0).reshape(np.shape(N))

    def _check_resolution(self, N):
        """Raise at the largest |N| whose stationary point leaves |x| <= x_split."""
        # in Python floats, |N| near the largest double gives inf, not a warning
        N_max = float(np.max(np.abs(N), initial=0.0))
        x_stat = self.n * N_max / (np.pi * abs(float(self.k))) + self._shift
        if _STATIONARY_MARGIN * x_stat > self.x_split:
            raise ResolutionError(
                f"stationary point at |x| ~ {x_stat:.1f} too close to the edge of "
                f"the resolved region |x| <= x_split = {self.x_split:.1f}",
                suggested_x_split=1.6 * x_stat)

    def I(self, N):
        """The conditionally convergent integral I(N, k) for a scalar or an
        array of N: the exponential sums one row e^{-i xi N} at a time by
        numpy's pairwise sum, not a BLAS dot (a value depends neither on its
        batch nor on the thread count), the closures in one pass."""
        N = np.asarray(N, dtype=float)
        if not np.all(np.isfinite(N)):
            raise DomainError("N = ln t must be finite")
        self._check_resolution(N)
        out = np.empty(N.shape, dtype=complex)
        for i, Ni in np.ndenumerate(N):
            out[i] = np.sum(np.exp(-1j * Ni * self._xi) * self._amp)
        return (out + self._closure(N))[()]

    def theta_scaled(self, N):
        """sqrt(t) * theta(t, k) = (2 pi)^{-1/2} I(ln t, k)."""
        return self.I(N) / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# asymptotic predictor
# ---------------------------------------------------------------------------


def theta_asymptotic(N, k, model: PhaseModel, entries):
    """Leading sqrt(t) theta(t,k) as N -> +/-inf from the scattering entries.

    `entries`: {"s": ...} for odd n, or {"s11","s12","s21","s22"} for even n.
    With d = sgn(k^{n-1}) the direction the incident wave leaves by, the
    sector N k > 0 carries the transmitted and the incident wave,
    amp (T e^{i d gamma} + e^{-i d gamma}), and the other the reflected one,
    amp R e^{-i d gamma}; odd n has no reflection (R = 0).
    """
    n = model.n
    N = float(N)
    if N == 0 or k == 0:
        raise DomainError("need N != 0 and k != 0")
    amp = np.sqrt(n / (np.pi * abs(k)))
    w = model.gamma(N, k)
    d = 1 if k ** (n - 1) > 0 else -1
    if n % 2 == 1:
        T, R = entries["s"], 0.0
    else:
        T, R = (entries["s11"], entries["s21"]) if d > 0 else \
            (entries["s22"], entries["s12"])
    if N * k > 0:
        return amp * (T * np.exp(1j * d * w) + np.exp(-1j * d * w))
    # + 0.0 turns the signed zeros of R = 0 into +0
    return amp * R * np.exp(-1j * d * w) + 0.0


@dataclass
class HankelEigenfunction:
    """sqrt(t) theta(t,k) on a grid of N = ln t, with the asymptotic model."""

    k: float
    N: np.ndarray
    values: np.ndarray
    asymptotic: np.ndarray
    relative_residual: np.ndarray


def theta_profile(N_grid, field, Q, cov, entries=None) -> HankelEigenfunction:
    """Evaluate sqrt(t) theta over an N-grid plus the asymptotic comparison."""
    ev = ThetaEvaluator(field, Q, cov)
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
    # one pairwise sum per xi along its contiguous row, never a BLAS product, so a
    # value does not depend on the other xi of the call; 16 rows at a time stay in cache
    rows = np.split(xi, range(16, xi.size, 16))
    ghat_neg = d / np.sqrt(2 * np.pi) * np.concatenate(
        [(np.exp(1j * np.outer(x, tau)) * g).sum(axis=1) for x in rows])
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


def quadratic_form_check(P: RealPolynomial, profile):
    """Relative residual |(Hu,u) - (A Fu, Fu)| / |(A Fu, Fu)|.

    The test function is u(t) = t^{-1/2 + i xi0} exp(-(ln t)^2 / (2 sigma^2))
    with sigma = 1.2 and xi0 = 0.4, i.e. a gaussian in ln t, so every integral
    converges rapidly: on 2049 points of ln t in [-16, 16], and F u on 4096
    points of xi in [-40, 40).
    """
    sigma, xi0 = 1.2, 0.4
    tau = np.linspace(-16.0, 16.0, 2049)
    g = np.exp(1j * xi0 * tau - tau ** 2 / (2 * sigma ** 2))
    H_form = hankel_quadratic_form(tau, g, P)
    xi = np.linspace(-40.0, 40.0, 4096, endpoint=False)
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
