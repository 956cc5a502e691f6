"""Map between the kernel polynomial P and the symbol polynomial Q.

The Hankel kernel P(ln t)/t corresponds to the operator symbol Q through

    q_m = sum_{j=m}^{n} C(j, m) gamma^(j-m)(0) p_j,    gamma(z) = 1/Gamma(1-z),

a unit upper-triangular matrix M[m, j] = C(j, m) gamma^(j-m)(0): p_to_q is
M @ p, and q_to_p solves M p = q by back substitution (partial pivoting swaps
no rows).  Coefficients are stored lowest degree first.
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
        return RealPolynomial(_binomial_matrix([c ** k for k in range(self.coeffs.size)])
                              @ self.coeffs)


def _gamma_derivs(order):
    return recip_gamma_taylor(order).derivative_values()


def _binomial_matrix(g):
    """M[m, j] = C(j, m) g[j-m] for j >= m, unit upper triangular if g[0] = 1;
    with g[k] = c^k, M @ p expands sum_j p_j (X + c)^j."""
    n = len(g)
    return np.array([[comb(j, m) * g[j - m] if j >= m else 0.0 for j in range(n)]
                     for m in range(n)])


def p_to_q(P: RealPolynomial) -> RealPolynomial:
    """Symbol polynomial Q from kernel polynomial P (triangular, q_n = p_n)."""
    return RealPolynomial(_binomial_matrix(_gamma_derivs(P.degree)) @ P.coeffs)


def q_to_p(Q: RealPolynomial) -> RealPolynomial:
    """Inverse of p_to_q: the solve of M p = q (module docstring)."""
    return RealPolynomial(np.linalg.solve(_binomial_matrix(_gamma_derivs(Q.degree)),
                                          Q.coeffs))
