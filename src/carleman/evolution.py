"""Large-time evolution profiles: stationary points, phases, and the Y map.

For T -> +/-inf the evolved state localizes near t ~ e^{+/- pi |T|}.  With
N = ln t and xi' even, both branches of stationary points solve one equation

    xi'(n |T| u) |N| = u^{1/(n-1)},     u ~ |N / (pi T)|^{(n-1)/n},

once over the whole N grid; y = u on odd n's branch 1 (exactly t < 1) and
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
    """y and branch at every N (both 0 at N = 0): Newton with the exact xi''
    from the seed, inside a bracket [seed/4, 4 seed] widened where g keeps its
    sign; a step that leaves the bracket is replaced by bisection."""
    n = cov.n
    if n < 2:
        raise ConfigurationError("the stationary-point equation needs n >= 2")
    N = np.asarray(N, dtype=float)
    if T == 0 or not np.isfinite(T) or not np.all(np.isfinite(N)):
        raise DomainError("need a finite T != 0 and finite N")
    p, c = 1.0 / (n - 1.0), n * abs(T)
    a = np.abs(N[N != 0])

    def g(v, a):
        xi = cov.xi_jet_of_x(c * v, 2).c
        return xi[1] * a - v ** p, 2.0 * c * a * xi[2] - p * v ** (p - 1.0)

    u = (a / (np.pi * abs(T))) ** ((n - 1.0) / n)
    lo, hi = 0.25 * u, 4.0 * u
    glo, ghi = g(lo, a)[0], g(hi, a)[0]
    for _ in range(60):
        grow = glo * ghi > 0
        if not grow.any():
            break
        lo[grow], hi[grow] = 0.5 * lo[grow], 2.0 * hi[grow]
        glo[grow], ghi[grow] = g(lo[grow], a[grow])[0], g(hi[grow], a[grow])[0]
    grow = glo * ghi > 0
    if grow.any():
        raise NumericalError(f"no stationary point at |ln t| = {a[grow][0]:g}")
    for _ in range(100):
        gu, dgu = g(u, a)
        left = np.sign(gu) == np.sign(glo)
        lo, hi = np.where(left, u, lo), np.where(left, hi, u)
        new = u - gu / dgu
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        u, done = new, np.all(np.abs(new - u) <= 1e-14 * u)
        if done:
            break
    branch = np.where(N == 0, 0, np.where((n % 2 == 1) & (N < 0), 1, 2))
    y = np.zeros_like(N)
    y[N != 0] = u
    return np.where(branch == 1, y, np.sign(N) * y), branch


def _phase(N, T, y, branch, Q: RealPolynomial, cov: ChangeOfVariables):
    n = cov.n
    xi = cov.xi_of_x(n * T * y)
    return (-xi * N + np.where(branch == 1, -1.0, 1.0) * (n - 1.0)
            * np.abs(y) ** (n / (n - 1.0)) * T + _rho_of_xi(xi, Q))


def stationary_point_y(N, T, cov: ChangeOfVariables, branch: int = 2):
    """Solve the stationary-point equation at ln t = N; returns None if absent.

    branch=2 is the principal branch (unique for even n); branch=1 is the odd-n
    companion, which exists only for t < 1 (N < 0).
    """
    if N == 0 or T == 0:
        raise DomainError("need ln t != 0 and T != 0")
    if branch == 1 and cov.n % 2 == 0:
        raise ConfigurationError("branch 1 exists for odd n only")
    y, which = _stationary_grid([N], float(T), cov)
    return float(y[0]) if (branch == 1) == (which[0] == 1) else None


def stationary_residual(N, T, cov, y, branch: int = 2):
    """|xi'(nTy) ln t - rhs(y)| of the branch equation, with xi' taken from
    log v, independently of the solver's jets."""
    n = cov.n
    xi_p = np.exp(2.0 / n * cov.profile.log_v(cov.xi_of_x(n * T * y)))
    sgn = -1.0 if branch == 1 else np.sign(y)
    return abs(xi_p * N - sgn * np.abs(y) ** (1.0 / (n - 1)))


def evolution_phase(N, T, Q: RealPolynomial, cov: ChangeOfVariables,
                    branch: int = 2):
    """Phi (branch 2) or Phi_1 (branch 1) at ln t = N; None when no point exists."""
    y = stationary_point_y(N, T, cov, branch=branch)
    if y is None:
        return None
    return float(_phase(float(N), float(T), y, branch, Q, cov))


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
    y, branch = _stationary_grid(N_grid, float(T), cov)
    live = branch > 0
    N = N_grid[live]
    # the 1/sqrt(t) factor is carried by the caller through N if needed;
    # predictions here are sqrt(t)-scaled like the eigenfunction profiles
    s = np.abs(N / (np.pi * T))
    amp0 = np.sqrt((n - 1.0) / (np.pi * n * abs(T))) * s ** (-1.0 / (2.0 * n))
    pred = np.zeros(N_grid.size, dtype=complex)
    pred[live] = np.exp(1j * _phase(N, T, y[live], branch[live], Q, cov)) \
        * amp0 * np.asarray(f_hat(np.sign(N) * s ** ((n - 1.0) / n)))
    return {"N": N_grid, "prediction": pred, "branch": branch, "T": T}


def profile_mass(result):
    """int |prediction|^2 dt in the N variable: |pred|^2 here is per unit t,
    so the sqrt(t)-scaled values integrate as sum |pred|^2 dN."""
    N = result["N"]
    p = np.abs(result["prediction"]) ** 2
    return float(np.trapezoid(p, N))
