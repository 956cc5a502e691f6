"""Truncated power-series (Taylor-mode) arithmetic.

A jet stores the Taylor coefficients c[0..K] of a function at a point, so
c[j] = f^(j)(x0)/j!.  Arithmetic on jets propagates derivatives exactly (to
rounding), which is what the profile/Liouville machinery needs for derivative
orders where finite differences would lose most digits.

Coefficients may carry trailing array axes, so a single jet can hold the
expansions at a whole grid of points at once.

exp, log, pow and division (u / w = u * w**-1) share one recurrence, `_ode`;
cosh is the mean of exp(u) and exp(-u).  Jets give the derivatives of the
weight, the change of variables, every coefficient and the Mellin phase eta
(the Lanczos log Gamma that gives eta, evaluated on a jet).  They are one of
the library's two ways to take derivatives; the other is the degree-40
Chebyshev interpolant of the independent oracle
`liouville.operator_apply_check`, which shares no code with the jets it
checks.  Finite differences appear only in the tests.
"""

from __future__ import annotations

import numpy as np

_FACTORIALS = [1.0]
while len(_FACTORIALS) < 40:
    _FACTORIALS.append(_FACTORIALS[-1] * len(_FACTORIALS))


class Jet:
    """Taylor coefficients c[j], j = 0..order, with optional trailing axes."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def variable(x0, order):
        """Jet of the identity function at x0."""
        x0 = np.asarray(x0, dtype=float)
        c = np.zeros((order + 1,) + x0.shape)
        c[0] = x0
        if order >= 1:
            c[1] = 1.0
        return Jet(c)

    @staticmethod
    def constant(value, order, shape=()):
        value = np.asarray(value)
        c = np.zeros((order + 1,) + np.broadcast_shapes(value.shape, shape),
                     dtype=value.dtype)
        c[0] = value
        return Jet(c)

    # -- basic queries -------------------------------------------------------

    @property
    def order(self):
        return self.c.shape[0] - 1

    @property
    def value(self):
        return self.c[0]

    def derivative_values(self):
        """Return [f, f', f'', ...] (plain derivatives, not Taylor coeffs)."""
        return np.stack([self.c[j] * _FACTORIALS[j] for j in range(self.order + 1)])

    def truncated(self, order):
        return Jet(self.c[: order + 1])

    def shift(self):
        """Jet of the derivative f' (one order shorter)."""
        k = np.arange(1, self.c.shape[0]).reshape((-1,) + (1,) * (self.c.ndim - 1))
        return Jet(self.c[1:] * k)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            K = min(self.order, other.order)
            return Jet(self.c[: K + 1] + other.c[: K + 1])
        c = self.c.copy()
        c = c.astype(np.result_type(c.dtype, np.asarray(other).dtype))
        c[0] = c[0] + other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * np.asarray(other))
        K = min(self.order, other.order)
        a, b = self.c[: K + 1], other.c[: K + 1]
        out = np.zeros((K + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]),
                       dtype=np.result_type(a.dtype, b.dtype))
        for k in range(K + 1):
            for j in range(k + 1):
                out[k] += a[j] * b[k - j]
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c / np.asarray(other))
        return self * other.pow(-1.0)

    def __rtruediv__(self, other):
        return self.pow(-1.0) * other

    # -- elementary functions --------------------------------------------------

    def _ode(self, y0, s, a, b):
        """The jet y with y[0] = y0 that solves u^s y' = (a y + b) u' along
        u = self (s = 0 or 1): matching the coefficients of t^(k-1) gives
        k u[0]^s y[k] = sum_{j=1..k} (a j - s (k - j)) u[j] y[k-j] + b k u[k]."""
        u = self.c
        y = np.zeros_like(u, dtype=np.result_type(u.dtype, float))
        y[0] = y0
        for k in range(1, self.order + 1):
            acc = b * k * u[k]
            for j in range(1, k + 1):
                acc = acc + (a * j - s * (k - j)) * u[j] * y[k - j]
            y[k] = acc / (k * u[0] ** s)
        return Jet(y)

    def exp(self):
        return self._ode(np.exp(self.c[0]), 0, 1.0, 0.0)

    def log(self):
        return self._ode(np.log(self.c[0]), 1, 0.0, 1.0)

    def pow(self, a):
        """self**a for real a, u[0] > 0 assumed only for non-integer a; at a = -1
        the reciprocal y[k] = -sum_{j>=1} u[j] y[k-j] / u[0], which divides jets."""
        return self._ode(self.c[0] ** a, 1, a, 0.0)

    def cosh(self):
        return (self.exp() + (-self).exp()) * 0.5

    def compose(self, outer_coeffs):
        """Evaluate sum_j outer_coeffs[j] * (self - self[0])**j as a jet.

        outer_coeffs must be the Taylor coefficients of the outer function at
        the point self.value.
        """
        K = self.order
        d = Jet(self.c.copy())
        d.c[0] = np.zeros_like(d.c[0])
        g = list(outer_coeffs)
        out = Jet.constant(np.asarray(g[-1]), K, self.c.shape[1:])
        for j in range(len(g) - 2, -1, -1):
            out = out * d + g[j]
        return out


def solve_autonomous_ode(jet_of_rate, x0, y0, order):
    """Jet of y(x) at x0 where y' = u(y), given u as a callable y-jet -> y-jet.

    `jet_of_rate(yjet)` must return the jet of u along y; used to build the
    Taylor coefficients of the solution one order at a time.
    """
    y0 = np.asarray(y0, dtype=float)
    c = np.zeros((order + 1,) + y0.shape)
    c[0] = y0
    for k in range(order):
        rate = jet_of_rate(Jet(c[: k + 1]))
        c[k + 1] = rate.c[k] / (k + 1)
    return Jet(c)
