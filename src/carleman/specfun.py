"""log Gamma, complex Gamma, reciprocal-gamma Taylor coefficients, and the
continuous Mellin-side phase eta(xi).

One Lanczos log Gamma (g = 7, 9 terms) for Re z >= 1/2 serves everything: it
takes numpy arrays or Jets, Gamma is its exponential (with the reflection
formula below the critical line), and eta(xi) = -Im log Gamma(1/2 - i xi) is
its imaginary part on the critical line, derivatives included when xi is a
Jet.  eta is odd with eta(0) = 0 and grows like xi ln xi - xi; it is never
read off Gamma, which underflows there past |xi| ~ 450.
The Taylor series of 1/Gamma(1-z) at 0 is the Jet exponential of its log
series -gamma_E z - sum zeta(k) z^k / k, which needs only zeta(2), ...,
zeta(30), kept as a table of correctly rounded values, so this module runs on
numpy alone.
"""

from __future__ import annotations

import numpy as np

from ._jets import Jet
from .errors import DomainError

# Godfrey/Pugh Lanczos coefficients, g = 7.
_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])

_EULER_GAMMA = 0.5772156649015329

# zeta(2), ..., zeta(30), each the double nearest the exact value
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381,
         1.03692775514337, 1.0173430619844492, 1.008349277381923,
         1.0040773561979444, 1.0020083928260821, 1.000994575127818,
         1.0004941886041194, 1.000246086553308, 1.0001227133475785,
         1.0000612481350588, 1.000030588236307, 1.0000152822594086,
         1.0000076371976379, 1.000003817293265, 1.0000019082127165,
         1.0000009539620338, 1.0000004769329869, 1.0000002384505027,
         1.000000119219926, 1.000000059608189, 1.0000000298035034,
         1.0000000149015549, 1.0000000074507118, 1.000000003725334,
         1.0000000018626598, 1.0000000009313275)


def _log(u):
    return u.log() if isinstance(u, Jet) else np.log(u)


def _log_gamma(z):
    """log Gamma(z) for Re z >= 1/2 from the Lanczos series; z an array or a Jet.

    It sums the principal logs of t = z + 6.5 and of the Lanczos sum.  On
    z = 1/2 - i xi, Re t = 7 and the sum's argument stays in [0, 2.8] for
    xi in [0, 1e4], so the imaginary part is continuous in xi with no
    unwrapping.
    """
    zp = z - 1.0
    a = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], 1):
        a = a + c / (zp + i)
    t = zp + (_LANCZOS_G + 0.5)
    return 0.5 * np.log(2.0 * np.pi) + (zp + 0.5) * _log(t) - t + _log(a)


def complex_gamma(z):
    """Gamma(z) for complex z away from the poles 0, -1, -2, ...

    Accurate to ~1e-13 relative on the strip |Im z| <= 100, Re z in [-10, 10].
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    on_pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.round(z.real))
    if np.any(on_pole):
        raise DomainError("gamma pole at a non-positive integer")
    out = np.empty_like(z)
    right = z.real >= 0.5
    if np.any(right):
        out[right] = np.exp(_log_gamma(z[right]))
    if np.any(~right):
        zl = z[~right]
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        out[~right] = np.pi / (np.sin(np.pi * zl) * np.exp(_log_gamma(1.0 - zl)))
    return out[0] if scalar else out


def recip_gamma_log_series(order):
    """Taylor coefficients of log(1/Gamma(1-z)) = -gamma_E z - sum zeta(k) z^k/k."""
    if order > len(_ZETA) + 1:
        raise DomainError("order > 30 not supported in double precision")
    c = np.zeros(order + 1)
    if order >= 1:
        c[1] = -_EULER_GAMMA
    for k in range(2, order + 1):
        c[k] = -_ZETA[k - 2] / k
    return c


def recip_gamma_taylor(order):
    """Jet of 1/Gamma(1-z) at z = 0, the exponential of its log series;
    c_0 = 1 exactly, c_1 = -gamma_E."""
    if order < 0:
        raise DomainError("order must be >= 0")
    return Jet(recip_gamma_log_series(order)).exp()


def eta_phase(xi):
    """eta(xi) = -Im log Gamma(1/2 - i xi) for real xi, an array or a Jet."""
    if isinstance(xi, Jet):
        return Jet(-_log_gamma(0.5 - 1j * xi).c.imag)
    # 0.0 - Im keeps eta(0) = +0.0
    return 0.0 - _log_gamma(0.5 - 1j * np.asarray(xi, dtype=float)).imag
