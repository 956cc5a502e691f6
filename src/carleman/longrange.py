"""Long-range phase construction: the sigma iteration and the phase theta.

For slowly decaying coefficients the identification operator carries a phase
correction theta(x, k) = int_0^x sigma(y, k) dy, where sigma is built by

    sigma_0 = 0,
    n k^{n-1} sigma_1     = - sum_m b_m(x) k^m,
    n k^{n-1} sigma_{j+1} = - sum_{p=2}^{n} C(n,p) sigma_j^p k^{n-p}
                            - sum_m b_m(x) (k + sigma_j)^m,

and the residual symbol is v(x,k) = n k^{n-1} (sigma_j - sigma_{j+1}).
Consecutive differences decay one power of |x|^rho faster per step, so
j > 1/rho makes the residual short-range.

The coefficients b_m may carry small imaginary parts (they are the ungauged
operator coefficients), so sigma is complex-valued; its imaginary part is
subleading in |x|.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import DomainError
from .liouville import OperatorCoefficients
from .oscquad import gauss_panels, graded_edges


def _sigmas(coeffs: OperatorCoefficients, j: int, x, k: float, gauged: bool, more: int = 0):
    """sigma_j .. sigma_{j+more} at the points x, from one evaluation of the b_m."""
    if k == 0:
        raise DomainError("k = 0: the dispersion factor n k^(n-1) vanishes")
    if j < 0 or j + more > 8:
        raise DomainError("iteration index j must be in 0..8")
    n = coeffs.n
    x = np.asarray(x, dtype=float)
    # b_0 .. b_{n-1}
    b = (coeffs.gauged_values(x) if gauged else coeffs.b_values(x))[:n]
    sigs = [np.zeros(x.shape, dtype=complex)]
    for _ in range(j + more):
        sig, acc = sigs[-1], np.zeros_like(sigs[-1])
        for p in range(2, n + 1):
            acc += comb(n, p) * sig ** p * k ** (n - p)
        for m in range(n):
            acc += b[m] * (k + sig) ** m
        sigs.append(-acc / (n * k ** (n - 1)))
    return sigs[j:]


def sigma_iterate(coeffs: OperatorCoefficients, j: int, x, k: float,
                  gauged: bool = False):
    """sigma_j(x, k) by the exact recursion (vectorized over x).

    gauged=True runs the iteration on the gauged coefficients b~_m (short
    range for the cosh family); default uses the raw b_m of B.
    """
    return _sigmas(coeffs, j, x, k, gauged)[0]


def residual_symbol(coeffs: OperatorCoefficients, j: int, x, k: float,
                    gauged: bool = False):
    """v(x,k) = n k^{n-1} (sigma_j - sigma_{j+1}); the defect of the eikonal solve.

    sigma_{j+1} is one more step from sigma_j, on the same b_m.
    """
    sig, nxt = _sigmas(coeffs, j, x, k, gauged, more=1)
    return coeffs.n * k ** (coeffs.n - 1) * (sig - nxt)


def theta_phase(coeffs: OperatorCoefficients, j: int, x, k: float,
                gauged: bool = False):
    """theta(x,k) = int_0^x sigma_j(y,k) dy by panelwise Gauss quadrature.

    sigma is smooth and non-oscillatory; geometric panels away from the origin
    track its |y|^-rho decay.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    out = np.zeros(xs.shape, dtype=complex)
    for i, xi in enumerate(xs):
        if xi == 0.0:
            continue
        nodes, weights = gauss_panels(graded_edges(0.0, abs(xi), 0.5, 1.6) * np.sign(xi), 16)
        sigma = sigma_iterate(coeffs, j, nodes.ravel(), k, gauged=gauged)
        out[i] = sigma @ weights.ravel()
    return complex(out[0]) if scalar else out
