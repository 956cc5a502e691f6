"""Map between the kernel polynomial P and the symbol polynomial Q.

The Hankel kernel P(ln t)/t corresponds to the operator symbol Q through

    q_m = sum_{j=m}^{n} C(j, m) gamma^(j-m)(0) p_j,    gamma(z) = 1/Gamma(1-z),

an upper-triangular map with unit diagonal, hence always invertible by back
substitution.  Coefficients are stored lowest degree first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from math import comb

from .errors import ConfigurationError
from .specfun import recip_gamma_taylor


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial sum_m coeffs[m] X^m, coeffs[-1] != 0 unless zero poly."""

    coeffs: np.ndarray = field(default_factory=lambda: np.array([1.0]))

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ConfigurationError("polynomial needs a 1-D, non-empty coefficient list")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __call__(self, x):
        x = np.asarray(x)
        out = np.zeros_like(x, dtype=np.result_type(x.dtype, float))
        for c in self.coeffs[::-1]:
            out = out * x + c
        return out

    def shifted(self, c):
        """The polynomial X -> self(X + c)."""
        g = [c ** k for k in range(self.coeffs.size)]
        return RealPolynomial(_binomial_map(self.coeffs, g))


def _gamma_derivs(order):
    return recip_gamma_taylor(order).derivative_values()


def _binomial_map(p, g):
    """q_m = sum_{j>=m} C(j, m) g[j-m] p_j; with g[k] = c^k this is the
    expansion of sum_j p_j (X + c)^j."""
    n = len(p) - 1
    q = np.zeros(n + 1)
    for m in range(n + 1):
        q[m] = sum(comb(j, m) * g[j - m] * p[j] for j in range(m, n + 1))
    return q


def p_to_q(P: RealPolynomial) -> RealPolynomial:
    """Symbol polynomial Q from kernel polynomial P (triangular, q_n = p_n)."""
    return RealPolynomial(_binomial_map(P.coeffs, _gamma_derivs(P.degree)))


def q_to_p(Q: RealPolynomial) -> RealPolynomial:
    """Inverse of p_to_q by back-substitution (diagonal entries are 1)."""
    q = Q.coeffs
    n = Q.degree
    g = _gamma_derivs(n)
    p = np.zeros(n + 1)
    for m in range(n, -1, -1):
        tail = sum(comb(j, m) * g[j - m] * p[j] for j in range(m + 1, n + 1))
        p[m] = q[m] - tail
    return RealPolynomial(p)
