"""Generalized Liouville transform: coefficients of B = L* (v Q(D) v) L.

With phi = x'(xi) = v^(-2/n) and psi = v^(1-1/n), the chain rule reads
D_xi (f o x) = (phi D f) o x with D = -i d/dx, so the defining identity

    v Q(D_xi) (psi f(x(xi))) = v^(-1/n) sum_m b_m (D^m f)(x(xi))

says that, with phi, psi and v taken as functions of x,

    B = sum_m b_m D^m = v^(1+1/n) Q(phi D) o psi.

The product is expanded by Horner's scheme, acc = q_m + (phi D) o acc, in
jet-valued operator algebra, which keeps every x-derivative exact; each
phi D consumes one jet order, so phi, psi and v^(1+1/n) are carried n orders
beyond the derivatives asked for.

A gauge e^{i beta} with beta = -q_{n-1} xi(x)/n removes the D^{n-1} term.
Since xi'(x) = 1/phi, phi beta' = -q_{n-1}/n is a constant, so
e^{-i beta} (phi D) e^{i beta} = phi D - q_{n-1}/n and the gauged operator is
the same product for the shifted polynomial:

    B~ = v^(1+1/n) Q(phi D - q_{n-1}/n) o psi.
"""

from __future__ import annotations

from math import comb

import numpy as np

from ._jets import Jet
from .coeffmap import RealPolynomial
from .errors import ConfigurationError
from .oscquad import _ChebTable
from .profile import ChangeOfVariables, WeightProfile, decay_parameters


class _DiffOp:
    """sum_p coeffs[p] D^p with jet-valued coefficients (None for zero)."""

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
                for j in range(p + 1):  # D^j b = (-i)^j b^(j), b^(j) by shifts
                    term = a * float(comb(p, j)) * ((-1j) ** j) * b
                    r = p - j + q
                    out[r] = term if out[r] is None else out[r] + term
                    b = b.shift()
        return _DiffOp(out)


class OperatorCoefficients:
    """Evaluators for b_m(x) of B = L* A L and the gauged b~_m(x) of B~.

    Q must be monic for n >= 1.  For n = 0 the transform degenerates to the
    Carleman baseline A = q_0 v^2 with x = xi; only b_0 is defined there.
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
        if Q.coeffs[-1] != 1.0:  # B~ = D^n + ... (p_to_q keeps q_n = p_n)
            raise ConfigurationError(f"Q must be monic: q_{self.n} = {Q.coeffs[-1]:g}, not 1")
        if cov is None:
            raise ConfigurationError("n >= 1 needs a ChangeOfVariables")
        if cov.n != self.n:
            raise ConfigurationError("polynomial degree and cov order disagree")
        self.cov = cov
        self.profile = cov.profile

    # -- pointwise jets ------------------------------------------------------

    def _product(self, coeffs, x, derivs):
        """x-jets, to order `derivs`, of the coefficients of
        v^(1+1/n) C(phi D) o psi for C = sum_m coeffs[m] X^m (degree n)."""
        n = self.n
        K = derivs + n  # each phi D consumes one jet order
        xi_jet = self.cov.xi_jet_of_x(x, K)
        v = self.profile.v_jet(xi_jet.value, K)
        phi, psi, vpow = (xi_jet.compose(v.pow(a).c)
                          for a in (-2.0 / n, 1.0 - 1.0 / n, 1.0 + 1.0 / n))
        phi_D = _DiffOp([None, phi])
        acc = _DiffOp([Jet.constant(float(coeffs[n]), K, xi_jet.value.shape)])
        for q in coeffs[n - 1::-1]:
            acc = phi_D.times(acc)
            acc.coeffs[0] = acc.coeffs[0] + q
        acc = acc.times(_DiffOp([psi]))
        return [(vpow * c).truncated(derivs) for c in acc.coeffs]

    def b_jets(self, x, derivs: int = 0):
        """Jets (in x, to order `derivs`) of b_0..b_n at the points x."""
        if self.n == 0:
            xx = np.asarray(x, dtype=float)
            vj = self.profile.v_jet(xx, derivs)
            return [vj * vj * self.Q.coeffs[0]]
        return self._product(self.Q.coeffs, x, derivs)

    def b_values(self, x):
        """b_0(x)..b_n(x) as a complex array of shape (n+1,) + x.shape."""
        return np.stack([j.value for j in self.b_jets(np.asarray(x, dtype=float), 0)])

    def beta(self, x):
        """Gauge phase beta(x) = -q_{n-1} xi(x) / n (zero for n = 0)."""
        if self.n == 0:
            return np.zeros_like(np.asarray(x, dtype=float))
        return -self.Q.coeffs[self.n - 1] * self.cov.xi_of_x(x) / self.n

    def gauged_jets(self, x, derivs: int = 0):
        """Jets of b~_0..b~_n for B~ = J* B J, with b~_{n-1} forced to 0.

        B~ is the product for Q(X - q_{n-1}/n) (module docstring); its
        (n-1) entry is checked to vanish to rounding before being zeroed.
        """
        n = self.n
        if n == 0:
            return self.b_jets(x, derivs)
        out = self._product(self.Q.shifted(-self.Q.coeffs[n - 1] / n).coeffs,
                            x, derivs)
        scale = max(float(np.max(np.abs(out[0].value), initial=0.0)), 1.0)
        resid = float(np.max(np.abs(out[n - 1].value), initial=0.0))
        if resid > 1e-8 * scale:
            raise ConfigurationError(
                f"gauge failed to remove the D^(n-1) coefficient (residual {resid:.2e})")
        out[n - 1] = Jet.constant(np.zeros_like(out[n - 1].c[0]), derivs)
        return out

    def gauged_values(self, x):
        return np.stack([j.value for j in self.gauged_jets(np.asarray(x, dtype=float), 0)])

    # -- b~ table (for the scattering solver) -------------------------------

    def btilde_splines(self, x_max: float):
        """The table of b~_m (m = 0..n-2) past |x| = x_max: 20 points on whole panels
        of one grid in u = asinh x, u_i = i step - U with U = asinh(2.6e4), step =
        2U/150 (linspace's, i = 0..150), so a wider table repeats this one's bits."""
        U, step = np.arcsinh(2.6e4), 2.0 * np.arcsinh(2.6e4) / 150
        m = np.ceil(np.arcsinh(x_max) / step) + 1
        edges = np.sinh((75.0 + np.arange(-m, m + 1)) * step - U)
        lo, hi = np.searchsorted(edges, -x_max) - 1, np.searchsorted(edges, x_max, "right")
        return _ChebTable(lambda c, h, t: self.gauged_values(c + h * t)[:self.n - 1],
                          edges[lo:hi + 1])


# -- checks ---------------------------------------------------------------


def operator_apply_check(Q: RealPolynomial, cov: ChangeOfVariables, f, fderiv, xgrid):
    """Residual of the defining identity of the transform on a grid.

    Left side: v(xi) sum_m q_m D_xi^m (psi(xi) f(x(xi))) with the
    xi-derivatives taken from the degree-40 Chebyshev interpolant of
    psi f(x(xi)) on [xi0 - 1/2, xi0 + 1/2], uncut, since chopping its
    coefficients costs high-order digits: the independent oracle, with
    neither jets nor finite differences.  Right side: v^(-1/n) sum_m i^-m
    b_m(x) f^(m)(x) with b_m from the jets of the operator product
    v^(1+1/n) Q(phi D) o psi and f^(m) in closed form from `fderiv(x, m)`.
    """
    n = Q.degree
    co = OperatorCoefficients(Q, cov)
    worst = 0.0
    for x0 in np.asarray(xgrid, dtype=float):
        xi0 = float(cov.xi_of_x(x0))
        g = np.polynomial.Chebyshev.interpolate(
            lambda xi: co.profile.v(xi) ** (1.0 - 1.0 / n) * f(cov.x_of_xi(xi)),
            40, [xi0 - 0.5, xi0 + 0.5])
        v0 = co.profile.v(xi0)
        lhs = v0 * sum(Q.coeffs[m] * (-1j) ** m * g.deriv(m)(xi0) for m in range(n + 1))
        b = co.b_values(np.array([x0]))[:, 0]
        rhs = v0 ** (-1.0 / n) * sum(
            (-1j) ** m * b[m] * fderiv(x0, m) for m in range(n + 1))
        worst = max(worst, abs(lhs - rhs))
    return worst


def decay_report(Q: RealPolynomial, cov: ChangeOfVariables, p_max: int = 1,
                 x_hi: float = 1.0e4):
    """Fitted decay slopes of |b_m^(p)| at 40 geometric points of [10, x_hi]
    vs the predicted ones.

    Prediction: slope(m, p) = -(n - m) gamma - p gamma (1 + delta n / 2) with
    (gamma, delta) fitted from the profile.  Entries whose coefficient is
    numerically zero are reported as None.
    """
    n = Q.degree
    gamma, delta = decay_parameters(cov.profile, n)
    x = np.geomspace(10.0, x_hi, 40)
    jets = OperatorCoefficients(Q, cov).b_jets(x, p_max)
    rows = []
    logx = np.log(x)
    for m in range(n + 1):
        dv = jets[m].derivative_values()
        for p in range(p_max + 1):
            y = np.abs(dv[p])
            slope = None if np.max(y) < 1e-13 else float(np.polyfit(logx, np.log(y), 1)[0])
            rows.append({
                "m": m, "p": p, "slope": slope,
                "predicted": -(n - m) * gamma - p * gamma * (1.0 + delta * n / 2.0)
                if m < n else 0.0,
            })
    return {"gamma": gamma, "delta": delta, "rows": rows}
