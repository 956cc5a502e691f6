"""Complex gamma function, reciprocal-gamma Taylor coefficients, and the
continuous Mellin-side phase eta(xi).

eta is the continuous branch of -arg Gamma(1/2 - i xi) with eta(0) = 0; it is
odd and grows like xi ln xi - xi.  The gamma evaluation is a fixed Lanczos
rational approximation (g = 7, 9 terms) with the reflection formula below the
critical line, which keeps full accuracy on Re z = 1/2 where eta lives.
The reciprocal-gamma series needs only zeta(2), ..., zeta(30), kept as a table
of correctly rounded values, so this module runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _gamma_right(z):
    """Lanczos core, valid for Re z >= 0.5 (vectorized, complex)."""
    zp = z - 1.0
    a = np.full_like(zp, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        a = a + _LANCZOS_C[i] / (zp + i)
    t = zp + _LANCZOS_G + 0.5
    return np.sqrt(2.0 * np.pi) * np.exp((zp + 0.5) * np.log(t) - t) * a


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
        out[right] = _gamma_right(z[right])
    if np.any(~right):
        zl = z[~right]
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        out[~right] = np.pi / (np.sin(np.pi * zl) * _gamma_right(1.0 - zl))
    return out[0] if scalar else out


def _arg_gamma_half_line(xi):
    """Principal arg of Gamma(1/2 - i xi), vectorized over real xi."""
    g = _gamma_right(np.asarray(0.5 - 1j * np.asarray(xi, dtype=float)))
    return np.angle(g)


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


@dataclass(frozen=True)
class RecipGammaSeries:
    """Taylor coefficients c_j of gamma(z) = 1/Gamma(1-z) about z = 0."""

    order: int
    coeffs: np.ndarray

    def __call__(self, z):
        z = np.asarray(z)
        out = np.zeros_like(z, dtype=np.result_type(z.dtype, float))
        for cj in self.coeffs[::-1]:
            out = out * z + cj
        return out

    def derivatives_at_zero(self):
        """gamma^(j)(0) = j! c_j."""
        fact = np.cumprod(np.concatenate(([1.0], np.arange(1, self.order + 1))))
        return self.coeffs * fact


def recip_gamma_taylor(order):
    """Series of 1/Gamma(1-z); c_0 = 1 exactly, c_1 = -gamma_E."""
    if order < 0:
        raise DomainError("order must be >= 0")
    logc = recip_gamma_log_series(order)
    c = np.zeros(order + 1)
    c[0] = 1.0
    for k in range(1, order + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * logc[j] * c[k - j]
        c[k] = acc / k
    return RecipGammaSeries(order=order, coeffs=c)


class _EtaTable:
    """Unwrapped arg-Gamma values on a monotone xi sweep, grown on demand.

    Step 1/32 keeps every increment of eta well below pi (|eta'| ~ ln xi), so
    unwrapping against the nearest table node is unambiguous.
    """

    STEP = 1.0 / 32.0

    def __init__(self):
        self.xi = np.array([0.0])
        self.eta = np.array([0.0])
        self.arg = np.array([_arg_gamma_half_line(0.0)])

    def extend(self, xi_max):
        if self.xi[-1] >= xi_max:
            return
        n_new = int(np.ceil((xi_max - self.xi[-1]) / self.STEP)) + 2
        xs = self.xi[-1] + self.STEP * np.arange(1, n_new + 1)
        args = _arg_gamma_half_line(xs)
        d = np.diff(np.concatenate(([self.arg[-1]], args)))
        d = (d + np.pi) % (2.0 * np.pi) - np.pi
        etas = self.eta[-1] + np.cumsum(-d)
        self.xi = np.concatenate((self.xi, xs))
        self.eta = np.concatenate((self.eta, etas))
        self.arg = np.concatenate((self.arg, args))


_ETA_TABLE = _EtaTable()


def eta_phase(xi):
    """Continuous odd phase with exp(-i eta(xi)) = Gamma(1/2-i xi)/|Gamma(1/2-i xi)|."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    x = np.abs(np.atleast_1d(xi))
    _ETA_TABLE.extend(float(np.max(x, initial=0.0)))
    idx = np.searchsorted(_ETA_TABLE.xi, x, side="right") - 1
    base_eta = _ETA_TABLE.eta[idx]
    base_arg = _ETA_TABLE.arg[idx]
    darg = _arg_gamma_half_line(x) - base_arg
    darg = (darg + np.pi) % (2.0 * np.pi) - np.pi
    out = (base_eta - darg) * np.sign(np.where(xi == 0.0, 1.0, xi))
    # eta computed for |xi|, then odd-extended
    out = np.where(np.atleast_1d(xi) == 0.0, 0.0, out)
    return out[0] if scalar else out
