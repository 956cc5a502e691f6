"""Generalized Liouville transform: coefficients of B = L* (v Q(D) v) L.

With phi = x'(xi) = v^(-2/n) and psi = v^(1-1/n), chain-rule bookkeeping gives

    i^j (d/dxi)^j f(x(xi)) = sum_{l=1..j} tau_{j,l}(xi) f^(l)(x(xi)),

where each tau_{j,l} is an integer-coefficient sum of products
phi^(k1) ... phi^(kl) with k1+...+kl = j-l.  Matching the coefficients of
f^(l) in v sum_m q_m D^m (psi f(x(xi))) = v^(-1/n) sum i^-m b_m f^(m) yields

    b_0 = v^(1+1/n) sum_m q_m i^-m psi^(m),
    b_l = i^l v^(1+1/n) sum_{m>=l} q_m i^-m sum_{j=l..m} C(m,j) psi^(m-j) tau_{j,l}.

The tau table is kept as exact formal sums; floating point enters only at
evaluation.  A gauge e^{i beta} with beta = -q_{n-1} xi(x)/n removes the
D^{n-1} term; the conjugated coefficients are obtained by expanding
sum_m b_m (D + beta')^m with jet-valued operator algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from ._jets import Jet
from .coeffmap import RealPolynomial
from .errors import ConfigurationError, DomainError
from .profile import ChangeOfVariables, WeightProfile

# -- tau table -----------------------------------------------------------


@dataclass(frozen=True)
class TauTable:
    """tau[j][l] maps sorted derivative-order tuples to integer coefficients."""

    j_max: int
    table: tuple  # table[j][l] is a dict {(k1<=...<=kl): int}; j,l from 1

    def entry(self, j, l):
        return self.table[j][l]

    def evaluate_jet(self, j, l, phi_jet_derivs):
        """Same, but with jets so x-derivatives can be chained later."""
        out = None
        for mono, coef in self.table[j][l].items():
            term = None
            for k in mono:
                term = phi_jet_derivs[k] if term is None else term * phi_jet_derivs[k]
            term = term * float(coef) if term is not None else None
            out = term if out is None else out + term
        return out


def tau_table(j_max: int) -> TauTable:
    """Build tau_{j,l} for 1 <= l <= j <= j_max by the derivative recursion."""
    if j_max < 1 or j_max > 10:
        raise DomainError("tau table supported for 1 <= j_max <= 10")
    rows = [None, {1: {(0,): 1}}]
    for j in range(1, j_max):
        prev = rows[j]
        new = {}
        for l in range(1, j + 2):
            acc = {}
            if l <= j:  # derivative of tau_{j,l}
                for mono, coef in prev[l].items():
                    for i in range(len(mono)):
                        bumped = tuple(sorted(mono[:i] + (mono[i] + 1,) + mono[i + 1:]))
                        acc[bumped] = acc.get(bumped, 0) + coef
            if l - 1 >= 1:  # tau_{j,l-1} * phi
                for mono, coef in prev[l - 1].items():
                    ext = tuple(sorted(mono + (0,)))
                    acc[ext] = acc.get(ext, 0) + coef
            new[l] = {m: c for m, c in acc.items() if c != 0}
        rows.append(new)
    # structural invariants: tau_{j,j} = phi^j and the degree bookkeeping
    for j in range(1, j_max + 1):
        for l in range(1, j + 1):
            for mono in rows[j][l]:
                assert sum(mono) == j - l, "tau degree bookkeeping violated"
        assert rows[j][j] == {(0,) * j: 1}
    return TauTable(j_max=j_max, table=tuple(rows))


# -- operator coefficients -------------------------------------------------


class _DiffOp:
    """sum_p coeffs[p] D^p with jet-valued coefficients (all same jet order)."""

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    def times(self, other):
        """Composition self o other; consumes jet orders of other's coefficients."""
        deg = (len(self.coeffs) - 1) + (len(other.coeffs) - 1)
        out = [None] * (deg + 1)
        for p, a in enumerate(self.coeffs):
            if a is None:
                continue
            for q, b in enumerate(other.coeffs):
                if b is None:
                    continue
                for j in range(p + 1):
                    # D^j b = (-i)^j b^(j); jet shift gives b^(j)/j! scaling handled
                    term = a * float(comb(p, j)) * ((-1j) ** j) * _jet_derivative(b, j)
                    r = p - j + q
                    out[r] = term if out[r] is None else out[r] + term
        return _DiffOp(out)


def _jet_derivative(jet, j):
    out = jet
    for _ in range(j):
        out = out.shift()
    return out


class OperatorCoefficients:
    """Evaluators for b_m(x) of B = L* A L and the gauged b~_m(x) of B~.

    For n = 0 the transform degenerates to the Carleman baseline A = q_0 v^2
    with x = xi; only b_0 is defined there.
    """

    def __init__(self, Q: RealPolynomial, cov: ChangeOfVariables | None,
                 profile: WeightProfile | None = None):
        self.Q = Q
        self.n = Q.degree
        if self.n == 0:
            if profile is None and cov is not None:
                profile = cov.profile
            if profile is None:
                raise ConfigurationError("n = 0 needs the weight profile")
            self.profile = profile
            self.cov = None
            return
        if cov is None:
            raise ConfigurationError("n >= 1 needs a ChangeOfVariables")
        if cov.n != self.n:
            raise ConfigurationError("polynomial degree and cov order disagree")
        self.cov = cov
        self.profile = cov.profile
        self._tau = tau_table(self.n)
        self._spline_cache = {}

    # -- pointwise jets ------------------------------------------------------

    def b_jets(self, x, derivs: int = 0):
        """Jets (in x, to order `derivs`) of b_0..b_n at the points x."""
        if self.n == 0:
            xx = np.asarray(x, dtype=float)
            vj = self.profile.v_jet(xx, derivs)
            return [vj * vj * self.Q.coeffs[0]]
        n = self.n
        K = derivs
        xi_jet = self.cov.xi_jet_of_x(x, max(K, 1))
        xi0 = xi_jet.value
        # xi-side jets to order K + n (enough derivatives for the tau/psi terms)
        order_xi = K + n
        phi = self.cov.phi_jet(xi0, order_xi)
        psi = self.cov.psi_jet(xi0, order_xi)
        v = self.profile.v_jet(xi0, order_xi)
        vpow = v.pow(1.0 + 1.0 / n)
        phi_d = [_jet_derivative(phi, k).truncated(K + 1) for k in range(n)]
        psi_d = [_jet_derivative(psi, k).truncated(K + 1) for k in range(n + 1)]
        # now compose every xi-side jet with xi(x)
        def to_x(jet_xi):
            return xi_jet.truncated(K).compose(jet_xi.truncated(K).c)

        q = self.Q.coeffs
        out = []
        b0 = None
        for m in range(n + 1):
            term = psi_d[m] * (q[m] * (-1j) ** m)
            b0 = term if b0 is None else b0 + term
        out.append(to_x(vpow.truncated(K)) * to_x(b0.truncated(K)))
        for l in range(1, n + 1):
            acc = None
            for m in range(l, n + 1):
                if q[m] == 0.0:
                    continue
                inner = None
                for j in range(l, m + 1):
                    tau = self._tau.evaluate_jet(j, l, phi_d)
                    t = tau * float(comb(m, j)) * psi_d[m - j]
                    inner = t if inner is None else inner + t
                inner = inner * (q[m] * (-1j) ** m)
                acc = inner if acc is None else acc + inner
            acc = acc * (1j) ** l
            out.append(to_x(vpow.truncated(K)) * to_x(acc.truncated(K)))
        return out

    def b_values(self, x):
        """b_0(x)..b_n(x) as a complex array of shape (n+1,) + x.shape."""
        return np.stack([j.value for j in self.b_jets(np.asarray(x, dtype=float), 0)])

    def beta(self, x):
        """Gauge phase beta(x) = -q_{n-1} xi(x) / n (zero for n = 0)."""
        if self.n == 0:
            return np.zeros_like(np.asarray(x, dtype=float))
        return -self.Q.coeffs[self.n - 1] * self.cov.xi_of_x(x) / self.n

    def beta_prime_jet(self, x, order):
        xi_jet = self.cov.xi_jet_of_x(x, order + 1)
        return xi_jet.shift().truncated(order) * (-self.Q.coeffs[self.n - 1] / self.n)

    def gauged_jets(self, x, derivs: int = 0):
        """Jets of b~_0..b~_n for B~ = J* B J, with b~_{n-1} forced to 0.

        The conjugation replaces D by D + beta'; expanding with jet-valued
        operator algebra keeps every x-derivative exact.  The (n-1) entry is
        checked to vanish to rounding before being zeroed.
        """
        n = self.n
        if n == 0:
            return self.b_jets(x, derivs)
        K = derivs + n  # composing n first-order factors consumes n jet orders
        b = self.b_jets(x, K)
        bp = self.beta_prime_jet(x, K)
        one = Jet.constant(np.ones_like(bp.value, dtype=complex), K)
        G = _DiffOp([bp, one])  # (beta') + D
        acc = _DiffOp([b[n]])
        for m in range(n - 1, -1, -1):
            acc = acc.times(G)
            acc.coeffs[0] = (acc.coeffs[0] + b[m]) if acc.coeffs[0] is not None else b[m]
        out = []
        scale = max(float(np.max(np.abs(b[0].value), initial=0.0)), 1.0)
        for m in range(n + 1):
            j = acc.coeffs[m] if acc.coeffs[m] is not None else \
                Jet.constant(np.zeros_like(bp.value, dtype=complex), K)
            out.append(j.truncated(derivs))
        resid = float(np.max(np.abs(out[n - 1].value), initial=0.0))
        if resid > 1e-8 * scale:
            raise ConfigurationError(
                f"gauge failed to remove the D^(n-1) coefficient (residual {resid:.2e})")
        out[n - 1] = Jet.constant(np.zeros_like(out[n - 1].c[0]), derivs)
        return out

    def gauged_values(self, x):
        return np.stack([j.value for j in self.gauged_jets(np.asarray(x, dtype=float), 0)])

    # -- fast spline evaluators (for the scattering solver) ------------------

    def btilde_splines(self, x_max: float, pts: int = 3000):
        """Cubic splines of b~_m (m = 0..n-2) on |x| <= x_max, asinh-spaced
        (the module's only use of scipy)."""
        key = (round(float(x_max), 6), pts)
        if key in self._spline_cache:
            return self._spline_cache[key]
        from scipy.interpolate import CubicSpline

        u = np.linspace(-np.arcsinh(x_max), np.arcsinh(x_max), pts)
        x = np.sinh(u)
        vals = self.gauged_values(x)
        splines = [CubicSpline(u, vals[m]) for m in range(max(self.n - 1, 0))]

        def make(spl):
            return lambda xx: spl(np.arcsinh(np.asarray(xx, dtype=float)))

        fns = [make(s) for s in splines]
        self._spline_cache[key] = fns
        return fns


# -- checks ---------------------------------------------------------------


def _fornberg_weights(z, x, m):
    """Finite-difference weights for derivatives 0..m at z from nodes x."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def operator_apply_check(Q: RealPolynomial, cov: ChangeOfVariables, f, fderiv,
                         xgrid, h: float = 0.02):
    """Residual of the defining identity of the transform on a grid.

    Left side: v(xi) sum_m q_m D_xi^m (psi(xi) f(x(xi))) with the xi-derivatives
    taken by a 13-point Fornberg stencil of step h (the independent oracle).
    Right side: v^(-1/n) sum_m i^-m b_m(x) f^(m)(x) with b_m from the tau-table
    machinery and f^(m) supplied in closed form by `fderiv(x, m)`.
    """
    n = Q.degree
    xgrid = np.asarray(xgrid, dtype=float)
    co = OperatorCoefficients(Q, cov)
    worst = 0.0
    offsets = h * np.arange(-6, 7)
    for x0 in xgrid:
        xi0 = float(cov.xi_of_x(x0))
        xs = xi0 + offsets
        g = cov.psi_jet(xs, 0).value * f(cov.x_of_xi(xs))
        wts = _fornberg_weights(xi0, xs, n)
        lhs = 0.0 + 0.0j
        v0 = co.profile.v(xi0)
        for m in range(n + 1):
            dm = complex(np.dot(wts[:, m], g + 0.0j))
            lhs += Q.coeffs[m] * (-1j) ** m * dm
        lhs *= v0
        b = co.b_values(np.array([x0]))[:, 0]
        rhs = v0 ** (-1.0 / n) * sum(
            (-1j) ** m * b[m] * fderiv(x0, m) for m in range(n + 1))
        worst = max(worst, abs(lhs - rhs))
    return worst


def decay_report(Q: RealPolynomial, cov: ChangeOfVariables, p_max: int = 1,
                 x_lo: float = 10.0, x_hi: float = 1.0e4, npts: int = 40):
    """Fitted decay slopes of |b_m^(p)| on [x_lo, x_hi] vs the predicted ones.

    Prediction: slope(m, p) = -(n - m) gamma - p gamma (1 + delta n / 2) with
    (gamma, delta) fitted from the profile.  Entries whose coefficient is
    numerically zero are reported as None.
    """
    from .profile import _fit_slope, decay_parameters

    n = Q.degree
    gamma, delta = decay_parameters(cov.profile, n)
    x = np.geomspace(x_lo, x_hi, npts)
    jets = OperatorCoefficients(Q, cov).b_jets(x, p_max)
    rows = []
    logx = np.log(x)
    for m in range(n + 1):
        dv = jets[m].derivative_values()
        for p in range(p_max + 1):
            y = np.abs(dv[p])
            slope = None if np.max(y) < 1e-13 else float(_fit_slope(logx, np.log(y)))
            rows.append({
                "m": m, "p": p, "slope": slope,
                "predicted": -(n - m) * gamma - p * gamma * (1.0 + delta * n / 2.0)
                if m < n else 0.0,
            })
    return {"gamma": gamma, "delta": delta, "rows": rows}
