"""Large-time evolution profiles: stationary points, phases, and the Y map.

For T -> +/-inf the evolved state localizes near t ~ e^{+/- pi |T|}.  With
N = ln t and xi' even, both branches of stationary points solve one equation,
xi'(n |T| u) |N| = u^{1/(n-1)}, u ~ |N / (pi T)|^{(n-1)/n}.  It is solved once
over the whole N grid in s = log xi, xi = xi(n |T| u), where it is closed-form,
its Newton slope too through the closed-form (log v)' of WeightProfile.dlog_v:

    (2/n) log v(xi) + log|N| - log(x(xi) / (n |T|)) / (n-1) = 0;

then u = x(xi) / (n |T|), y = u on odd n's branch 1 (exactly t < 1) and
y = sgn(N) u on branch 2 (even n, and odd n for t > 1).  The phases are

    Phi   = -xi(nTy) N + (n-1) |y|^{n/(n-1)} T + rho(nTy),
    Phi_1 = -xi(nTy_1) N - (n-1) y_1^{n/(n-1)} T + rho(nTy_1),

and the profile prediction carries the unitary rescaling map

    (Y f)(x) = (n-1)^{-1/2} |x|^{-(n-2)/(2(n-1))} fhat(sgn x |x|^{1/(n-1)}).

The spectral amplitudes f_+/- are caller-supplied (computing them would need
the wave operators); everything is per-point in N, so no floating t beyond
the double range ever materializes.
"""

from __future__ import annotations

import numpy as np

from .coeffmap import RealPolynomial
from .errors import ConfigurationError, DomainError, NumericalError
from .hankelphase import _rho_of_xi
from .profile import ChangeOfVariables


def _stationary_grid(N, T, cov: ChangeOfVariables):
    """y, the signed xi(nTy) and the branch at every N (all 0 at N = 0).

    Newton on the closed forms of the module's equation in s = log xi, whose
    left side falls strictly from +inf (xi -> 0) to -inf, from the seed
    xi(n|T| |N/(pi T)|^{(n-1)/n}) inside a bracket open at both ends.  A step
    at most doubles xi, because the x(xi) cache grows with xi; one that leaves
    the bracket bisects it, or moves its open lower end down by 2^k in s.
    """
    n = cov.n
    if n < 2:
        raise ConfigurationError("the stationary-point equation needs n >= 2")
    N = np.asarray(N, dtype=float)
    if T == 0 or not np.isfinite(T) or not np.all(np.isfinite(N)):
        raise DomainError("need a finite T != 0 and finite N")
    c, p, a = n * abs(T), 1.0 / (n - 1.0), np.abs(N[N != 0])
    s = np.log(cov.xi_of_x(c * (a / (np.pi * abs(T))) ** ((n - 1.0) / n)))
    lo, hi, live = np.full_like(s, -np.inf), np.full_like(s, np.inf), a > 0
    for k in range(100):
        xi = np.exp(s)
        x = cov.x_of_xi(xi)
        if np.any(xi < np.finfo(float).tiny):   # past it, x'(xi) / x overflows
            raise DomainError(f"xi underflows at |ln t| = {a[xi == xi.min()][0]:g}, T = {T:g}")
        if not live.any():
            break
        g = 2.0 / n * cov.profile.log_v(xi) + np.log(a) - p * np.log(x / c)
        dg = xi * (2.0 / n * cov.profile.dlog_v(xi) - p * cov.x_prime(xi) / x)
        lo, hi = np.where(g > 0, s, lo), np.where(g > 0, hi, s)
        new = np.minimum(s - g / dg, s + np.log(2.0))
        new = np.where((new >= lo) & (new <= hi), new, np.where(
            np.isinf(lo), hi - 2.0 ** k, np.minimum(0.5 * (lo + hi), lo + np.log(2.0))))
        moved = np.abs(new - s) > 1e-14 * np.maximum(1.0, np.abs(s))
        s, live = np.where(live, new, s), live & moved   # each point stops on its own step
    else:
        raise NumericalError(f"no stationary point at |ln t| = {a[live][0]:g}")
    branch = np.where(N == 0, 0, np.where((n % 2 == 1) & (N < 0), 1, 2))
    sgn = np.where(branch == 1, 1.0, np.sign(N))
    y, xi_y = np.zeros_like(N), np.zeros_like(N)
    y[N != 0], xi_y[N != 0] = x / c, xi
    return sgn * y, np.sign(T) * sgn * xi_y, branch


def _phase(N, T, xi, y, branch, Q: RealPolynomial, n):
    return (-xi * N + np.where(branch == 1, -1.0, 1.0) * (n - 1.0)
            * np.abs(y) ** (n / (n - 1.0)) * T + _rho_of_xi(xi, Q))


def _point(N, T, cov: ChangeOfVariables, branch):
    if N == 0 or T == 0:
        raise DomainError("need ln t != 0 and T != 0")
    if branch == 1 and cov.n % 2 == 0:
        raise ConfigurationError("branch 1 exists for odd n only")
    y, xi, which = _stationary_grid([N], float(T), cov)
    return (xi[0], float(y[0])) if (branch == 1) == (which[0] == 1) else None


def stationary_point_y(N, T, cov: ChangeOfVariables, branch: int = 2):
    """Solve the stationary-point equation at ln t = N; returns None if absent.

    branch=2 is the principal branch (unique for even n); branch=1 is the odd-n
    companion, which exists only for t < 1 (N < 0).
    """
    point = _point(N, T, cov, branch)
    return None if point is None else point[1]


def stationary_residual(N, T, cov, y, branch: int = 2):
    """|xi'(nTy) ln t - rhs(y)| of the branch equation, with xi(nTy) from the
    inverse map and xi' from log v, independently of the log-xi solver."""
    n = cov.n
    xi_p = np.exp(2.0 / n * cov.profile.log_v(cov.xi_of_x(n * T * y)))
    sgn = -1.0 if branch == 1 else np.sign(y)
    return abs(xi_p * N - sgn * np.abs(y) ** (1.0 / (n - 1)))


def evolution_phase(N, T, Q: RealPolynomial, cov: ChangeOfVariables,
                    branch: int = 2):
    """Phi (branch 2) or Phi_1 (branch 1) at ln t = N; None when no point exists."""
    point = _point(N, T, cov, branch)
    return None if point is None else float(
        _phase(float(N), float(T), *point, branch, Q, cov.n))


def y_map(f_hat, x, n):
    """(Y f)(x) = (n-1)^{-1/2} |x|^{-(n-2)/(2(n-1))} fhat(sgn x |x|^{1/(n-1)})."""
    if n < 2:
        raise ConfigurationError("the rescaling map needs n >= 2")
    x = np.asarray(x, dtype=float)
    u = np.sign(x) * np.abs(x) ** (1.0 / (n - 1.0))
    return (n - 1.0) ** -0.5 * np.abs(x) ** (-(n - 2.0) / (2.0 * (n - 1.0))) \
        * np.asarray(f_hat(u))


def evolution_profile(f_hat, N_grid, T, Q: RealPolynomial,
                      cov: ChangeOfVariables):
    """Predicted (exp(-iHT)u)(t) on a grid of N = ln t.

    f_hat plays the role of the scattering profile f_+/- (synthetic in tests)
    and is called once, on an array.  Returns the complex prediction and the
    branch bookkeeping: 1 for odd n's t < 1, 0 at N = 0, else 2.
    """
    n = cov.n
    N_grid = np.asarray(N_grid, dtype=float)
    y, xi, branch = _stationary_grid(N_grid, float(T), cov)
    live = branch > 0
    N = N_grid[live]
    # the 1/sqrt(t) factor is carried by the caller through N if needed;
    # predictions here are sqrt(t)-scaled like the eigenfunction profiles
    s = np.abs(N / (np.pi * T))
    amp0 = np.sqrt((n - 1.0) / (np.pi * n * abs(T))) * s ** (-1.0 / (2.0 * n))
    pred = np.zeros(N_grid.size, dtype=complex)
    pred[live] = np.exp(1j * _phase(N, T, xi[live], y[live], branch[live], Q, n)) \
        * amp0 * np.asarray(f_hat(np.sign(N) * s ** ((n - 1.0) / n)))
    return {"N": N_grid, "prediction": pred, "branch": branch, "T": T}


def profile_mass(result):
    """int |prediction|^2 dt in the N variable: |pred|^2 here is per unit t,
    so the sqrt(t)-scaled values integrate as sum |pred|^2 dN."""
    N = result["N"]
    p = np.abs(result["prediction"]) ** 2
    return float(np.trapezoid(p, N))
