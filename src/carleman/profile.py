"""Weight profiles v(xi), the change of variables x(xi), and its inverse.

Built-in families (all even, positive, decaying):

    cosh:                v(xi) = sqrt(pi) / sqrt(cosh(pi xi))
    power_law(alpha):    v(xi) = (1 + xi^2)^(-alpha/2)
    stretched_exp(a,b):  v(xi) = exp(-b (1 + xi^2)^(a/2))

The map x(xi) = int_0^xi v^(-2/n) is strictly increasing and odd.  It is cached
at the edges of cells of width 1/8; inside a cell it adds (xi - lo) times a
Chebyshev series of the running mean of v^(-2/n), built per call from the
cell's 16 Gauss values, and the Newton inversion xi(x) iterates on the series
of the root's cell.  Derivatives of everything come from Taylor-mode jets on
the closed forms, never from finite differences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._jets import Jet, solve_autonomous_ode
from .errors import ConfigurationError, DomainError
from .oscquad import gauss_panels, gauss_rule

_FAMILIES = ("cosh", "power_law", "stretched_exp")

# reference Gauss-Legendre rule used for the cumulative cache cells
_GL_NODES, _GL_WEIGHTS = gauss_rule(16)


def _mean_matrix(g):
    """M[k, j]: Chebyshev coefficient k of (t + 1)^-1 int_{-1}^t l_j, l_j the Lagrange
    polynomial of node g[j]; built in long double, rounded once to double."""
    g, m, k = g.astype(np.longdouble), g.size, np.arange(1, g.size + 1)
    th = (np.arange(m) + np.longdouble(0.5)) * np.arccos(np.longdouble(-1)) / m
    c, d = np.cos(th), np.cos(th)[:, None] - g
    lag = np.prod(d, axis=1)[:, None] / d / np.prod(g[:, None] - g + np.eye(m), axis=1)
    dct = 2 * np.cos(np.outer(np.arange(m), th)) / m   # values -> 2a_0, a_1, ...
    a = np.vstack((dct @ lag, np.zeros((2, m))))
    run = (np.cos(np.outer(th, k)) - (-1.0) ** k) @ ((a[:-2] - a[2:]) / (2 * k[:, None]))
    dct[0] /= 2
    return (dct @ (run / (c + 1)[:, None])).astype(float)


_MEAN = _mean_matrix(_GL_NODES)


@dataclass(frozen=True)
class WeightProfile:
    """One of the built-in weights; alpha/beta only used by the parametric families."""

    family: str = "cosh"
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(f"unknown profile family {self.family!r}")
        if self.family != "cosh" and not 0 < self.alpha < np.inf:
            raise ConfigurationError("alpha must be positive and finite")
        if self.family == "stretched_exp" and not 0 < self.beta < np.inf:
            raise ConfigurationError("beta must be positive and finite")

    def v_jet(self, xi, order):
        """Jet of v at xi (xi may be an array)."""
        x = Jet.variable(np.asarray(xi, dtype=float), order)
        if self.family == "cosh":
            return (np.pi * x).cosh().pow(-0.5) * np.sqrt(np.pi)
        if self.family == "power_law":
            return (x * x + 1.0).pow(-self.alpha / 2.0)
        u = (x * x + 1.0).pow(self.alpha / 2.0)
        return (u * (-self.beta)).exp()

    def v(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.family == "cosh":
            # sqrt(pi) exp(-pi|xi|/2) / sqrt((1+exp(-2 pi |xi|))/2), overflow-safe
            a = np.abs(xi)
            return np.sqrt(2.0 * np.pi) * np.exp(-np.pi * a / 2.0) / np.sqrt(
                1.0 + np.exp(-2.0 * np.pi * a))
        if self.family == "power_law":
            return (1.0 + xi ** 2) ** (-self.alpha / 2.0)
        return np.exp(-self.beta * (1.0 + xi ** 2) ** (self.alpha / 2.0))

    def log_v(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.family == "cosh":
            a = np.abs(xi)
            return 0.5 * (np.log(2.0 * np.pi) - np.log1p(np.exp(-2 * np.pi * a))) \
                - np.pi * a / 2.0
        if self.family == "power_law":
            return -self.alpha / 2.0 * np.log1p(xi ** 2)
        return -self.beta * (1.0 + xi ** 2) ** (self.alpha / 2.0)

    def xi_guard(self, n):
        """Largest |xi| for which v^(-2/n) stays far from overflow."""
        if self.family == "cosh":
            return 200.0 / np.pi
        if self.family == "power_law":
            return 1e8 ** (n / (2.0 * self.alpha)) if self.alpha else np.inf
        return (600.0 * n / (2.0 * self.beta)) ** (1.0 / self.alpha)


def v_derivatives(profile: WeightProfile, xi, order: int):
    """Values [v, v', ..., v^(order)] at xi, exact to rounding."""
    if order > 12:
        raise DomainError("derivative order > 12 not supported")
    return profile.v_jet(xi, order).derivative_values()


class ChangeOfVariables:
    """Monotone map x(xi) = int_0^xi v^(-2/n), its inverse and jets: cached at
    cell edges, summed inside a cell from its Chebyshev series."""

    CELL = 0.125
    MAX_CELLS = 2 ** 20   # cosh needs ~510 cells, stretched_exp ~4800 (n = 2)
    CHUNK = 4096          # cells per batch of Gauss nodes in _extend (~0.5 MB)

    def __init__(self, profile: WeightProfile, n: int, xi_max: float = 64.0):
        if n < 1:
            raise ConfigurationError("operator order n must be >= 1")
        self.profile = profile
        self.n = int(n)
        self.guard = profile.xi_guard(n)
        self._grid = np.array([0.0])
        self._cum = np.array([0.0])
        self._extend(min(xi_max, self.guard))

    # -- cache ------------------------------------------------------------

    def _integrand(self, xi):
        # v^(-2/n), evaluated through log v for overflow headroom
        return np.exp(-2.0 / self.n * self.profile.log_v(xi))

    def _extend(self, xi_max):
        if xi_max <= self._grid[-1]:
            return
        if xi_max > self.guard + 1e-12:
            raise DomainError(
                f"xi = {xi_max:g} beyond overflow guard {self.guard:g} "
                f"for family {self.profile.family!r}")
        n_new = int(np.ceil((xi_max - self._grid[-1]) / self.CELL)) + 1
        if self._grid.size - 1 + n_new > self.MAX_CELLS:
            raise DomainError(
                f"xi = {xi_max:g} needs more than {self.MAX_CELLS} cache cells "
                f"of x(xi) for family {self.profile.family!r}")
        edges = self._grid[-1] + self.CELL * np.arange(n_new + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * self.CELL
        cells = half * np.concatenate([
            self._integrand(m[:, None] + half * _GL_NODES) @ _GL_WEIGHTS
            for m in np.split(mid, np.arange(self.CHUNK, mid.size, self.CHUNK))])
        self._grid = np.concatenate((self._grid, edges[1:]))
        self._cum = np.concatenate((self._cum, self._cum[-1] + np.cumsum(cells)))

    def _series(self, idx):
        """Series (16, points) of each point's cell: Gauss values once per cell."""
        cells, inv = np.unique(idx, return_inverse=True)
        half = 0.5 * self.CELL
        vals = self._integrand(self._grid[cells, None] + half + half * _GL_NODES)
        return np.take(_MEAN @ vals.T, inv, axis=1)   # C-contiguous rows for Clenshaw

    def _x_in_cell(self, a, idx, coef):
        """Edge value of cell idx + (a - lo) * running mean (Clenshaw on coef)."""
        da = a - self._grid[idx]
        t = da / (0.5 * self.CELL) - 1.0
        t2, b1, b2 = 2.0 * t, 0.0, 0.0
        for ck in coef[:0:-1]:
            b1, b2 = ck + t2 * b1 - b2, b1
        return self._cum[idx] + da * (coef[0] + t * b1 - b2)

    def _cum_at(self, a):
        """Cumulative integral from 0 to a >= 0 (vectorized)."""
        self._extend(float(np.max(a, initial=0.0)))
        idx = np.minimum(np.searchsorted(self._grid, a, side="right") - 1,
                         self._grid.size - 2)
        return self._x_in_cell(a, idx, self._series(idx))

    # -- forward / inverse maps -------------------------------------------

    def x_of_xi(self, xi):
        xi = np.asarray(xi, dtype=float)
        if not np.all(np.isfinite(xi)):
            raise DomainError("xi must be finite")
        scalar = xi.ndim == 0
        a = np.atleast_1d(xi)
        out = np.sign(a) * self._cum_at(np.abs(a))
        return out[0] if scalar else out

    def x_prime(self, xi):
        return self._integrand(np.asarray(xi, dtype=float))

    def xi_of_x(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise DomainError("x must be finite")
        scalar = x.ndim == 0
        ax = np.abs(np.atleast_1d(x))
        self._extend(min(12.0, self.guard))
        # seed: bracketing cell of the cached cumulative, linear interpolation
        hi = self._cum[-1]
        while np.any(ax > hi) and self._grid[-1] < self.guard:
            self._extend(min(self._grid[-1] * 2.0, self.guard))
            hi = self._cum[-1]
        if np.any(ax > hi):
            raise DomainError("x outside the invertible cached range")
        idx = np.minimum(np.searchsorted(self._cum, ax) - 1, self._cum.size - 2)
        idx = np.maximum(idx, 0)
        c0, c1 = self._cum[idx], self._cum[idx + 1]
        g0, g1 = self._grid[idx], self._grid[idx + 1]
        xi = g0 + (ax - c0) * (g1 - g0) / np.maximum(c1 - c0, 1e-300)
        coef = self._series(idx)   # Newton runs on the root cell's series
        for _ in range(60):
            f = self._x_in_cell(xi, idx, coef) - ax
            step = f / self._integrand(xi)
            xi = np.clip(xi - step, 0.0, self.guard)
            if np.max(np.abs(step), initial=0.0) \
                    < 1e-13 * max(1.0, np.max(xi, initial=0.0)):
                break
        out = np.sign(np.atleast_1d(x)) * xi
        return out[0] if scalar else out

    # -- derivative machinery -----------------------------------------------

    def psi_jet(self, xi, order):
        """Jet of psi = v^(1 - 1/n) along xi."""
        return self.profile.v_jet(xi, order).pow(1.0 - 1.0 / self.n)

    def xi_jet_of_x(self, x, order):
        """Jet of xi(x) at the points x; xi' = v(xi)^(2/n)."""
        xi0 = self.xi_of_x(x)

        def rate(yjet):
            outer = self.profile.v_jet(yjet.value, yjet.order).pow(2.0 / self.n)
            return yjet.compose(outer.c)

        return solve_autonomous_ode(rate, np.asarray(x, dtype=float), xi0, order)

    # -- cosh-family asymptotic constants -----------------------------------

    @property
    def a0(self):
        if self.profile.family != "cosh":
            raise DomainError("a0 is defined for the cosh family only")
        return np.pi * (2.0 * np.pi) ** (1.0 / self.n) / self.n

    @functools.cached_property
    def a1(self):
        if self.profile.family != "cosh":
            raise DomainError("a1 is defined for the cosh family only")
        return a1_constant(self.n)

    def asymptotic_shift(self, xi):
        """x(xi) - a0^-1 exp(pi xi/n), cancellation-free (cosh family).

        Direct subtraction loses everything once x(xi) ~ 1e9; this integrates
        the difference of the integrands instead, so the xi -> inf limit (= a1)
        is resolved in full double precision.
        """
        if self.profile.family != "cosh":
            raise DomainError("asymptotic_shift is defined for the cosh family only")
        xi = float(xi)
        if xi < 0:
            raise DomainError("xi must be >= 0")
        xs, wts = gauss_panels(
            np.linspace(0.0, xi, max(2, int(np.ceil(xi / 0.25)) + 1)), 16)
        pref = (2.0 * np.pi) ** (-1.0 / self.n)
        integral = float(np.sum(wts * _a1_integrand(xs, self.n)))
        return pref * integral - 1.0 / self.a0


def _a1_integrand(xi, n):
    # (2 cosh(pi xi))^(1/n) - exp(pi xi / n), written cancellation-free
    return np.exp(np.pi * xi / n) * np.expm1(np.log1p(np.exp(-2.0 * np.pi * xi)) / n)


def _adaptive_simpson(f, a, b, tol, depth=24):
    def simps(a, fa, m, fm, b, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, fa, m, fm, b, fb, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simps(a, fa, lm, flm, m, fm)
        right = simps(m, fm, rm, frm, b, fb)
        if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, fa, lm, flm, m, fm, left, tol / 2.0, depth - 1)
                + rec(m, fm, rm, frm, b, fb, right, tol / 2.0, depth - 1))

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return rec(a, fa, m, fm, b, fb, simps(a, fa, m, fm, b, fb), tol, depth)


def a1_constant(n: int, rule: str = "gauss") -> float:
    """Shift constant of the large-xi expansion x(xi) ~ a0^-1 e^(pi xi/n) + a1.

    a1 = (2 pi)^(-1/n) int_0^inf ((2 cosh pi xi)^(1/n) - e^(pi xi/n)) dxi
         - n (2 pi)^(-1/n) / pi.

    The integrand decays like e^(-pi xi (2 - 1/n)); truncation at xi = 16
    is below 1e-14 for every n >= 1.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    L = 16.0
    if rule == "gauss":
        # composite 20-point Gauss-Legendre on [0, L] in 32 cells
        xs, wts = gauss_panels(np.linspace(0.0, L, 33), 20)
        integral = float(np.sum(wts * _a1_integrand(xs, n)))
    elif rule == "simpson":
        integral = _adaptive_simpson(lambda x: _a1_integrand(x, n), 0.0, L, 1e-13)
    else:
        raise ConfigurationError(f"unknown quadrature rule {rule!r}")
    pref = (2.0 * np.pi) ** (-1.0 / n)
    return pref * integral - pref * n / np.pi


def _fit_slope(logx, logy):
    A = np.vstack([logx, np.ones_like(logx)]).T
    slope, _ = np.linalg.lstsq(A, logy, rcond=None)[0]
    return slope


def decay_parameters(profile: WeightProfile, n: int = 2):
    """Fitted admissibility exponents (gamma, delta) on the window xi in [5, 50].

    gamma from v(xi)^2 <= C |x(xi)|^(-n gamma); delta from |v'| <= C v^(1+delta).
    """
    cov = ChangeOfVariables(profile, n)
    xi_hi = min(50.0, 0.9 * profile.xi_guard(n))
    xi = np.linspace(5.0, xi_hi, 60)
    logv = profile.log_v(xi)
    x = cov.x_of_xi(xi)
    gamma = -_fit_slope(np.log(np.abs(x)), 2.0 * logv) / n
    d1 = v_derivatives(profile, xi, 1)[1]
    delta = max(_fit_slope(logv, np.log(np.abs(d1))) - 1.0, 0.0)
    return float(gamma), float(delta)
