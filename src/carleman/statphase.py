"""Stationary-phase lemma as executable code.

For J(N) = int_0^inf exp(i N w(y)) g(y) dy with w'(0) = 0, w'' nonzero on the
support [0, a] of g, the leading term is

    J(N) = (1/2) exp(i tau pi/4 + i N w(0)) sqrt(2 pi) |w''(0) N|^(-1/2) g(0) + R(N),
    tau  = sgn(w''(0) N),

and the remainder obeys

    |R(N)| <= C (kappa^(-7/2) w2^(3/2) w3 g0 + kappa^(-2) w2 g1)
              |N|^(-1) (1 + |ln|w0 N||)

with kappa = min|w''|, w_j = max|w^(j)|, g_j = max|g^(j)| on [0, a] and an
absolute constant C.  `verify_remainder` measures the implied constant; the
integral itself is evaluated on theta's Gauss parts (`oscquad.phase_panels`)
up to a budget, plus an integration-by-parts closure, at bounded cost.
The extrema of |w^(j)| and |g^(j)| are read from Chebyshev interpolants of w
and g: each sits at an end of [0, a] or at a real root of the next
derivative, so the module runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from ._jets import _FACTORIALS, Jet
from .errors import ConfigurationError, DomainError
from .oscquad import ibp_boundary, phase_panels, phase_parts

_PANELS = 64              # equal panels of [0, a], before the phase cuts them
_PANEL_BUDGET = 2000      # switch to the IBP closure past this many Gauss parts
_CHEB_DEG = 220


def _cheb(f, a, b, deg=_CHEB_DEG, chop=1e-13):
    """Chebyshev interpolant with the noise tail chopped.

    Trailing coefficients at the rounding floor would otherwise be amplified
    by ~deg^2 per differentiation, wrecking omega''' for polynomial phases.
    """
    ch = Chebyshev.interpolate(lambda t: f(t), deg, domain=[a, b])
    c = ch.coef.copy()
    floor = chop * np.max(np.abs(c))
    c[np.abs(c) < floor] = 0.0
    nz = np.nonzero(c)[0]
    c = c[: nz[-1] + 1] if nz.size else c[:1]
    return Chebyshev(c, domain=[a, b])


def _jet_from_cheb(ch, x, order):
    cs = [ch]
    for _ in range(order):
        cs.append(cs[-1].deriv())
    return Jet(np.array([c(x) / _FACTORIALS[j] for j, c in enumerate(cs)]))


def _check_no_inflection(omega, a):
    y = np.linspace(0.0, a, 2001)
    ch = _cheb(omega, 0.0, a)
    w2 = ch.deriv(2)(y)
    if np.min(np.abs(w2)) < 1e-12 or np.min(w2) * np.max(w2) < 0:
        raise DomainError("omega'' must not vanish on [0, a]")
    return ch


def evaluate_J(omega, g, N, a):
    """High-accuracy J(N) = int_0^a exp(i N omega(y)) g(y) dy.

    The phase rate |N omega'|, from omega's interpolant, is monotone (omega''
    keeps its sign, omega'(0) = 0).  Past the panels that hold the first
    _PANEL_BUDGET Gauss parts, at y_cut, a third-order IBP series closes J.
    """
    N = float(N)
    ch_w = _check_no_inflection(omega, a)
    ch_g = _cheb(g, 0.0, a)
    # equal panels, the first halved 20 times toward the stationary point y = 0
    # so that the budget stops short of it up to N ~ 7e18 (a = 4, omega = y^2)
    edges = a / _PANELS * np.concatenate(([0.0], 0.5 ** np.arange(20, 0, -1),
                                          np.arange(1.0, _PANELS + 1)))
    rate = np.abs(N * ch_w.deriv()(edges))
    i = int(np.searchsorted(np.cumsum(phase_parts(edges, rate)), _PANEL_BUDGET, side="right"))
    if i == 0:
        raise DomainError(f"|N| = {abs(N):g} needs over {_PANEL_BUDGET} Gauss parts next to y = 0")
    nodes, weights = phase_panels(edges[:i + 1], rate[:i + 1])
    y_cut = edges[i]
    val = np.sum(np.asarray(g(nodes)) * np.exp(1j * N * omega(nodes)) * weights)
    if y_cut < a:
        S_hi = ibp_boundary(_jet_from_cheb(ch_g, a, 3),
                            _jet_from_cheb(ch_w, a, 4) * N, order=3)
        S_lo = ibp_boundary(_jet_from_cheb(ch_g, y_cut, 3),
                            _jet_from_cheb(ch_w, y_cut, 4) * N, order=3)
        val = val + (S_hi - S_lo)
    return complex(val)


def leading_term(omega, g, N, a=None, full_line: bool = False):
    """The displayed stationary-phase main term.

    omega(0) and g(0) come from the callables, omega''(0) from the Chebyshev
    interpolant of omega on [0, a] (a = 1 if not given); `full_line` doubles
    the value (integral over R instead of a half-line).
    """
    N = float(N)
    w0 = omega(0.0)
    omega2_0 = _cheb(omega, 0.0, a if a else 1.0).deriv(2)(0.0)
    tau = np.sign(omega2_0 * N)
    val = 0.5 * np.exp(1j * tau * np.pi / 4 + 1j * N * w0) * np.sqrt(2 * np.pi) \
        * abs(omega2_0 * N) ** -0.5 * g(0.0)
    return complex(2.0 * val if full_line else val)


def _abs_at_critical_points(ch, a):
    """|c| at 0, at a and at the real parts of the roots of c' in [0, a].

    max |c| on [0, a] is attained at one of them, and so is min |c| when c
    has no zero there (w'' after the inflection check).  Real parts of
    complex roots only add points inside [0, a], which move neither.
    """
    r = ch.deriv().roots().real
    return np.abs(ch(np.concatenate(([0.0, a], r[(r >= 0.0) & (r <= a)]))))


@dataclass(frozen=True)
class BoundConstants:
    kappa: float
    omega0: float
    omega2: float
    omega3: float
    g0: float
    g1: float

    def bound_shape(self, N):
        """B(N): the displayed remainder envelope without the absolute constant."""
        N = np.abs(np.asarray(N, dtype=float))
        core = (self.kappa ** -3.5 * self.omega2 ** 1.5 * self.omega3 * self.g0
                + self.kappa ** -2 * self.omega2 * self.g1)
        return core / N * (1.0 + np.abs(np.log(self.omega0 * N)))


def bound_constants(omega, g, a) -> BoundConstants:
    """kappa, omega_j, g_j from the Chebyshev interpolants of omega and g."""
    ch_w = _check_no_inflection(omega, a)
    ch_g = _cheb(g, 0.0, a)
    w2 = _abs_at_critical_points(ch_w.deriv(2), a)
    return BoundConstants(
        kappa=np.min(w2),
        omega0=np.max(_abs_at_critical_points(ch_w, a)),
        omega2=np.max(w2),
        omega3=np.max(_abs_at_critical_points(ch_w.deriv(3), a)),
        g0=np.max(_abs_at_critical_points(ch_g, a)),
        g1=np.max(_abs_at_critical_points(ch_g.deriv(1), a)),
    )


def verify_remainder(omega, g, N_list, a):
    """Measured |R(N)| against the bound shape B(N) plus the decay-exponent fit,
    which needs N != 0 at two or more distinct |N|."""
    absN = np.abs(np.asarray(N_list, dtype=float))
    if absN.size == 0 or not absN.all() or np.unique(absN).size < 2:
        raise ConfigurationError("the decay fit needs N != 0 at two or more "
                                 "distinct |N|")
    consts = bound_constants(omega, g, a)
    rows = []
    for N in N_list:
        J = evaluate_J(omega, g, N, a)
        lead = leading_term(omega, g, N, a=a)
        R = abs(J - lead)
        B = float(consts.bound_shape(N))
        rows.append({"N": float(N), "J": J, "leading": lead,
                     "remainder": R, "bound_shape": B,
                     "ratio": R / B if B > 0 else np.inf})
    slope = float(np.polyfit(np.log([abs(r["N"]) for r in rows]),
                             np.log([r["remainder"] for r in rows]), 1)[0])
    return {
        "constants": consts,
        "rows": rows,
        "implied_constant": max(r["ratio"] for r in rows),
        "decay_exponent": -slope,
    }
