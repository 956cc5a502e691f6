"""Free kernels, Lippmann-Schwinger solves, and scattering matrices.

The eigenfunctions of B~ = D^n + sum b~_m D^m (psi_minus convention) solve

    psi = e^{ikx} - R0(k^n + i0) V psi,      V = sum_{m<=n-2} b~_m D^m.

We solve the second-kind equation (I + V R0) w = V psi0 for w = V psi on a
core mesh [-X0, X0] of Gauss panels (at most ~4 radians of the fastest
frequency each).  The free kernel is a sum of exponentials
a_b e^{i zeta_b (x-y)}, each on one side of the diagonal: x >= y for the
"upper" roots, x <= y for the "lower" ones.  So the system is never formed.
The edge state s_b(P) is the integral of e^{i zeta_b (e_P - y)} w(y) over the
panels on branch b's far side of panel P, anchored at P's left edge e_P
(upper) or its right edge (lower).  With Filon-type product integration
(moments of exponentials against each panel's Lagrange basis) panel P obeys

    C_P w_P = rhs_P - sum_b a_b sigma_b e^{i zeta_b (x - e_P)} s_b(P),
    C_P     = I + sum_b diag(a_b sigma_b) own_b,P,

with sigma_b = sum_m b~_m zeta_b^m and own_b,P the partial-panel moments
anchored at the nodes.  A state steps to the next panel as
s_b(P +- 1) = e^{+-i zeta_b h_P} s_b(P) + (full-panel moments) . w_P, by
factors of modulus <= 1.  The blocks C_P are inverted in one batched call;
substituting w_P leaves a (branches x panels)-square system in the states,
factored once by LU, whose rcond (or the worst block's, if smaller) must stay
above RCOND_FLOOR.  The outer sides enter it only as its first upper and last
lower states, for real and complex roots alike.

Beyond X0 (where sum|b~_m| ~ 1e-5) w is carried as components E(y) e^{i mu y}
with real mu (incident wave and real roots); the complex-root waves the core
launches past +-X0 die within a few units and enter psi there (`psi_at`), not
the outer Born sources.  Born passes refresh the outer components and
re-solve the core as a new right-hand side until the increment of w is at most
BORN_TOL max(|w|, 1); the X and 2X truncations reuse the one factorization.

Integrals of the solution against e^{i nu y} come from one anchored prefix
table per (mesh, nu) and sweep direction (`_Density`), whose running sums
also only multiply by factors of modulus <= 1; full integrals over the core
use the Nystrom Gauss rule itself.

Scattering entries use the stationary representations: with
I_-(k) = int e^{-iky} w dy and I_+(k) = int e^{+iky} w dy over the line,

    odd n:         s   = 1 - (i/n) k^{1-n} I_-
    even n, k>0:   s11 = 1 - (i/n) k^{1-n} I_-,   s21 = -(i/n) k^{1-n} I_+
    even n, k<0:   s22 = 1 + (i/n) k^{1-n} I_-,   s12 = +(i/n) k^{1-n} I_+
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve, lapack

from .errors import (ConfigurationError, DomainError, NearExceptionalPointError,
                     NumericalError, StiffIntegrationError)
from .oscquad import exp_monomial_moments, gauss_rule, lagrange_coeff_matrix

RCOND_FLOOR = 1e-10    # below this the solve is taken as near-exceptional
BORN_TOL = 1e-12       # Born passes stop at increment <= BORN_TOL max(|w|, 1)
BORN_MAX_PASSES = 12
SHORT_RANGE_TOL = 1e-4  # sum |b~_m| at +-X0 at or above this is long-range

# ---------------------------------------------------------------------------
# roots and free kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootSet:
    """Roots of zeta^n = z with the lambda +/- i0 limit resolved."""

    z: complex
    n: int
    roots: np.ndarray          # counterclockwise from the principal root
    upper: np.ndarray          # indices with Im > 0 strictly
    lower: np.ndarray
    real: np.ndarray           # indices of (numerically) real roots
    real_side: dict            # index -> "upper"/"lower" at the chosen limit

    def group(self, side):
        """Root indices feeding the x>=y ("upper") or x<=y ("lower") branch."""
        strict = self.upper if side == "upper" else self.lower
        tagged = [j for j in self.real if self.real_side[int(j)] == side]
        return np.concatenate((strict, np.asarray(tagged, dtype=int))).astype(int)


def zeta_roots(z, n, side="+") -> RootSet:
    """The n-th roots of z; for real z, `side` picks the +i0 or -i0 limit.

    A real root kr moves into the upper half plane under z -> z + i*eps iff
    kr and z share their sign (d zeta / dz = zeta / (n z)).
    """
    z = complex(z)
    if z == 0:
        raise DomainError("z = 0 is the degenerate spectral point")
    if n < 1:
        raise DomainError("n must be >= 1")
    base = np.exp(2j * np.pi * np.arange(n) / n)
    roots = (z ** (1.0 / n)) * base
    scale = abs(z) ** (1.0 / n)
    tol = 1e-12 * scale
    real_idx = np.where(np.abs(roots.imag) <= tol)[0]
    roots = roots.copy()
    roots[real_idx] = roots[real_idx].real
    upper = np.array([j for j in range(n) if roots[j].imag > tol], dtype=int)
    lower = np.array([j for j in range(n) if roots[j].imag < -tol], dtype=int)
    real_side = {}
    for j in real_idx:
        up = roots[j].real * z.real > 0
        if side == "-":
            up = not up
        real_side[int(j)] = "upper" if up else "lower"
    return RootSet(z=z, n=n, roots=roots, upper=upper, lower=lower,
                   real=real_idx, real_side=real_side)


def _branch_data(rs: RootSet):
    """[(zeta, a, upper)]: the kernel term a e^{i zeta (x-y)} on x >= y (upper)
    or on x <= y, upper branches first."""
    n = rs.n
    return [(complex(rs.roots[j]),
             (1j if upper else -1j) / n * complex(rs.roots[j]) ** (1 - n), upper)
            for upper in (True, False)
            for j in rs.group("upper" if upper else "lower")]


def free_resolvent_kernel(x, y, z, n, side="+", deriv=0):
    """Kernel of d^deriv/dx^deriv of (D^n - z)^{-1}; two-branch formula."""
    rs = zeta_roots(z, n, side=side)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    ge = d >= 0
    for zeta, a, upper in _branch_data(rs):
        on = ge if upper else ~ge
        term = a * (1j * zeta) ** deriv * np.exp(1j * zeta * np.where(on, d, 0.0))
        out = out + np.where(on, term, 0.0)
    if out.ndim == 0:
        return complex(out)
    return out


def eigenvalue_multiplicity_bound(n, sign_lambda=1):
    """Count of decay directions = roots strictly above the real axis."""
    rs = zeta_roots(1.0 if sign_lambda > 0 else -1.0, n)
    return int(len(rs.upper))


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


class PotentialSpec:
    """Short-range coefficients b~_0..b~_{n-2} of a gauged operator.

    funcs[m] must accept numpy arrays.  `support` marks compactly supported
    potentials (the solver then uses no outer region).
    """

    def __init__(self, n, funcs, support=None, label="custom", breakpoints=()):
        if n < 1:
            raise ConfigurationError("n must be >= 1")
        if len(funcs) != max(n - 1, 0):
            raise ConfigurationError("need exactly n-1 coefficient functions")
        self.n = int(n)
        self.funcs = list(funcs)
        self.support = support
        self.label = label
        self.breakpoints = tuple(sorted(abs(b) for b in breakpoints))

    @staticmethod
    def from_operator(op, x_max=2.6e4):
        return PotentialSpec(op.n, op.btilde_splines(x_max), support=None,
                             label=f"gauged n={op.n}")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        if not self.funcs:
            return np.zeros((0,) + x.shape, dtype=complex)
        return np.stack([np.asarray(f(x), dtype=complex) for f in self.funcs])

    def symbol(self, x, zeta):
        """sum_m b~_m(x) zeta^m: the V-symbol collapsed on one exponential."""
        return sum((v * zeta ** m for m, v in enumerate(self.values(x))),
                   np.zeros(np.shape(x), dtype=complex))

    def abs_sum(self, x):
        return np.sum(np.abs(self.values(x)), axis=0)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


@dataclass
class _Mesh:
    edges: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    panel_of: np.ndarray
    p: int
    cmat: np.ndarray  # Lagrange coefficient matrix on the reference nodes

    @property
    def n_panels(self):
        return self.edges.size - 1

    def ref_coord(self, q, x):
        lo, hi = self.edges[q], self.edges[q + 1]
        return (2.0 * x - (lo + hi)) / (hi - lo)

    def locate(self, x):
        """Panel index and reference coordinate of each point (end panels
        extend past the mesh)."""
        q = np.clip(np.searchsorted(self.edges, x, side="right") - 1,
                    0, self.n_panels - 1)
        return q, self.ref_coord(q, x)

    def moments(self, nu, q, t_lo, t_hi, t_anchor):
        """int_{y(t_lo)}^{y(t_hi)} e^{i nu (y - y(t_anchor))} l_j(y) dy on panel q.

        Broadcasts over every argument and returns shape (..., p).  nu may be
        complex; t_anchor must keep the exponential bounded on [t_lo, t_hi].
        """
        s = 0.5 * (self.edges[q + 1] - self.edges[q])
        m = exp_monomial_moments(1j * nu * s, t_anchor, t_lo, t_hi, self.p)
        return s[..., None] * (m @ self.cmat)


def _panelize(edges, p):
    gx, gw = gauss_rule(p)
    lo, hi = edges[:-1], edges[1:]
    c, s = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = (c[:, None] + s[:, None] * gx[None, :]).ravel()
    weights = (s[:, None] * gw[None, :]).ravel()
    panel_of = np.repeat(np.arange(edges.size - 1), p)
    return _Mesh(edges=edges, nodes=nodes, weights=weights, panel_of=panel_of,
                 p=p, cmat=lagrange_coeff_matrix(gx))


def _core_mesh(x0, k, p=10, h_first=0.35, grow=1.3, breaks=()):
    h_max = min(2.0 / max(abs(k), 0.25), 3.0)
    edges = [0.0]
    h = min(h_first, h_max)
    while edges[-1] < x0:
        edges.append(min(edges[-1] + h, x0))
        if edges[-1] > 4.0:
            h = min(h * grow, h_max)
    right = np.array(edges)
    # coefficient discontinuities must be panel edges (product integration
    # interpolates the solution panelwise)
    ins = [b for b in breaks if 0.0 < b < x0]
    if ins:
        right = np.unique(np.concatenate((right, np.asarray(ins))))
        keep = np.concatenate(([True], np.diff(right) > 1e-9))
        right = right[keep]
    return _panelize(np.concatenate((-right[:0:-1], right)), p)


def _outer_mesh(side, x0, x_out, k, p=8, grow=1.35):
    """Signed increasing panels covering [x0, x_out] (side=+1) or the mirror."""
    if x_out <= x0 * (1.0 + 1e-12):
        return None
    edges = [x0]
    h = max(0.5, 0.5 / max(abs(k), 0.25))
    while edges[-1] < x_out:
        edges.append(min(edges[-1] + h, x_out))
        h *= grow
    edges = np.asarray(edges)
    if side < 0:
        edges = -edges[::-1]
    return _panelize(edges, p)


class _Density:
    """sum_c f_c(y) e^{i mu_c y} on one mesh, with its anchored prefix tables.

    The core solution w is one component with mu = 0; an outer side carries
    the real-frequency Born components.  For a frequency nu and a sweep
    direction the prefix table gives the anchored integral

        G(x) = int e^{i nu (y - x)} f(y) dy   over y < x (upper) or y > x,

    where f is the whole density.  Complex nu is allowed when the
    exponential decays along the sweep: Im nu <= 0 upward, >= 0 downward.
    """

    def __init__(self, mesh: _Mesh, mus, fs):
        self.mesh = mesh
        self.mus = np.asarray(mus, dtype=float)
        self.fs = np.asarray(fs, dtype=complex).reshape(
            self.mus.size, mesh.n_panels, mesh.p)
        self._prefix = {}

    def prefix(self, nu, upper):
        """Running sums S[c, q] of component c, anchored at panel q's right
        edge (upper) or left edge."""
        key = (complex(nu), upper)
        if key not in self._prefix:
            mesh = self.mesh
            nus = (self.mus + nu)[:, None]
            moments = mesh.moments(nus, np.arange(mesh.n_panels), -1.0, 1.0,
                                   1.0 if upper else -1.0)
            S = np.einsum("cqj,cqj->cq", moments, self.fs)
            # re-anchor across the next panel of the sweep (modulus <= 1); the
            # downward sweep runs on reversed views
            step = np.exp((-1j if upper else 1j) * nus * np.diff(mesh.edges))
            run, fac = (S, step) if upper else (S[:, ::-1], step[:, ::-1])
            for q in range(1, mesh.n_panels):
                run[:, q] += fac[:, q] * run[:, q - 1]
            self._prefix[key] = S
        return self._prefix[key]

    def anchored(self, nu, x, upper):
        """G(x) at points x of the mesh."""
        mesh = self.mesh
        q, t = mesh.locate(x)
        nus = (self.mus + nu)[:, None]
        S = np.pad(self.prefix(nu, upper), ((0, 0), (1, 1)))  # zero past the ends
        if upper:
            carried = np.exp(1j * nus * (mesh.edges[q] - x)) * S[:, q]
            part = mesh.moments(nus, q, -1.0, t, t)
        else:
            carried = np.exp(1j * nus * (mesh.edges[q + 1] - x)) * S[:, q + 2]
            part = mesh.moments(nus, q, t, 1.0, t)
        F = carried + np.einsum("cij,cij->ci", part, self.fs[:, q])
        return np.sum(np.exp(1j * self.mus[:, None] * x) * F, axis=0)

    def end(self, nu, upper):
        """G at the end of the sweep: the right end upward, the left downward."""
        S = self.prefix(nu, upper)
        b, j = (self.mesh.edges[-1], -1) if upper else (self.mesh.edges[0], 0)
        return np.exp(1j * self.mus * b) @ S[:, j]

    def cumulative(self, nu, x, upper):
        """int e^{i nu y} f(y) dy over y < x (upper) or y > x; real nu."""
        x = np.clip(x, self.mesh.edges[0], self.mesh.edges[-1])
        return np.exp(1j * nu * x) * self.anchored(nu, x, upper)

    def values(self, x):
        """The density at points of the mesh (panelwise Lagrange interpolation)."""
        q, t = self.mesh.locate(x)
        basis = np.polynomial.polynomial.polyval(t, self.mesh.cmat)
        comps = np.einsum("jn,cnj->cn", basis, self.fs[:, q])
        return np.sum(np.exp(1j * self.mus[:, None] * x) * comps, axis=0)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


class EigenfunctionField:
    """Solved continuum eigenfunction at one (lambda, k); see module docstring.

    The field owns its core and outer densities and the prefix tables built
    from them, so later solves on the same solver leave it unchanged.  The
    public surface is evaluation (psi_at / w_at), the r-functions and their
    limits, the raw scattering integrals, and solve diagnostics.
    """

    def __init__(self, solver, w, outer, X, diagnostics=None):
        self.k = solver.k
        self.lam = solver.lam
        self.n = solver.n
        self._branches = solver._branches
        self.w = w
        self.x = solver.mesh.nodes
        self.X0 = solver.x0
        self.X = X
        self._core = _Density(solver.mesh, [0.0], w)
        self._outer = {side: outer.get(side) for side in (+1, -1)}
        self.diagnostics = diagnostics or {}
        self._rlim_cache = None

    def _full(self, region, nu):
        """int e^{i nu y} w dy over the left outer side (-1), the core (0) or
        the right outer side (+1), for real nu; the core uses the Gauss rule."""
        if region == 0:
            mesh = self._core.mesh
            return np.sum(mesh.weights * np.exp(1j * nu * mesh.nodes) * self.w)
        dens = self._outer[region]
        if dens is None:
            return 0.0 + 0.0j
        return np.exp(1j * nu * dens.mesh.edges[-1]) * dens.end(nu, True)

    def half_line_integral(self, xq, nu, up_to=True):
        """int_{-inf}^{xq} e^{i nu y} w(y) dy (or the complement), vectorized."""
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        out = np.empty(xq.size, dtype=complex)
        below = 0.0 + 0.0j  # the regions wholly below the current one
        for region, sel in ((-1, xq < -self.X0), (0, np.abs(xq) <= self.X0),
                            (+1, xq > self.X0)):
            dens = self._core if region == 0 else self._outer[region]
            if np.any(sel):
                out[sel] = below if dens is None else \
                    below + dens.cumulative(nu, xq[sel], True)
            below = below + self._full(region, nu)
        return out if up_to else below - out

    # -- r functions and limits ----------------------------------------------

    def _rcoef(self):
        return 1j / self.n * self.k ** (1 - self.n)

    def r_limits(self):
        """The x -> +/-inf limits of r (odd n) or r_+/- (even n)."""
        if self._rlim_cache is not None:
            return self._rlim_cache
        n, k = self.n, self.k
        Im = self._full(-1, -k) + self._full(0, -k) + self._full(+1, -k)
        Ip = self._full(-1, +k) + self._full(0, +k) + self._full(+1, +k)
        c = self._rcoef()
        if n % 2 == 1:
            lims = {"r-inf": 1.0 + 0.0j, "r+inf": 1.0 - c * Im,
                    "I-": Im, "I+": Ip}
        elif k > 0:
            lims = {"r+-inf": 1.0 + 0.0j, "r++inf": 1.0 - c * Im,
                    "r-+inf": 0.0 + 0.0j, "r--inf": -c * Ip,
                    "I-": Im, "I+": Ip}
        else:
            lims = {"r++inf": 1.0 + 0.0j, "r+-inf": 1.0 + c * Im,
                    "r--inf": 0.0 + 0.0j, "r-+inf": c * Ip,
                    "I-": Im, "I+": Ip}
        self._rlim_cache = lims
        return lims

    def r_plus(self, x):
        """r(x) for odd n; r_+(x) for even n (the e^{+ikx} envelope)."""
        n, k, c = self.n, self.k, self._rcoef()
        if n % 2 == 1 or k > 0:
            return 1.0 - c * self.half_line_integral(x, -k, up_to=True)
        return 1.0 + c * self.half_line_integral(x, -k, up_to=False)

    def r_minus(self, x):
        """r_-(x) for even n (the e^{-ikx} envelope); zero for odd n."""
        n, k, c = self.n, self.k, self._rcoef()
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if n % 2 == 1:
            return np.zeros(x.size, dtype=complex)
        if k > 0:
            return -c * self.half_line_integral(x, +k, up_to=False)
        return c * self.half_line_integral(x, +k, up_to=True)

    # -- field evaluation ------------------------------------------------------

    def psi_at(self, x, deriv=0):
        """D^deriv psi at arbitrary points (core: full kernel; outer: osc+dec)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.size, dtype=complex)
        k = self.k
        inside = np.abs(x) <= self.X0
        if np.any(inside):
            xi = x[inside]
            acc = k ** deriv * np.exp(1j * k * xi)
            for zeta, a, upper in self._branches:
                acc = acc - a * zeta ** deriv * self._kernel(xi, zeta, upper)
            out[inside] = acc
        if np.any(~inside):
            xo = x[~inside]
            acc = k ** deriv * np.exp(1j * k * xo) * self.r_plus(xo) \
                + (-k) ** deriv * np.exp(-1j * k * xo) * self.r_minus(xo)
            # complex-root remnants just beyond X0 (they die within a few units)
            for zeta, a, upper in self._branches:
                if not zeta.imag:
                    continue
                sel = xo > 0 if upper else xo < 0
                edge = self.X0 if upper else -self.X0
                acc[sel] -= a * zeta ** deriv * \
                    np.exp(1j * zeta * (xo[sel] - edge)) * self._core.end(-zeta, upper)
            out[~inside] = acc
        return out

    def _kernel(self, x, zeta, upper):
        """int e^{i zeta (x-y)} w(y) dy over y < x (upper) or y > x at core
        points; the far outer side enters through its end value."""
        out = self._core.anchored(-zeta, x, upper)
        dens = self._outer[-1 if upper else +1]
        if dens is not None:
            edge = -self.X0 if upper else self.X0
            out = out + np.exp(1j * zeta * (x - edge)) * dens.end(-zeta, upper)
        return out

    def w_at(self, x):
        """V psi at arbitrary points (core: Lagrange interp; outer: components)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.size, dtype=complex)
        for dens, sel in ((self._core, np.abs(x) <= self.X0),
                          (self._outer[+1], (x > self.X0) & (x <= self.X)),
                          (self._outer[-1], (x < -self.X0) & (x >= -self.X))):
            if dens is not None and np.any(sel):
                out[sel] = dens.values(x[sel])
        return out


class _CoreSolver:
    """Panel-block inverses and the factored edge-state system for one
    (lambda, k); reusable across X."""

    def __init__(self, pot: PotentialSpec, k, x0):
        if k == 0:
            raise DomainError("k = 0: degenerate spectral point")
        self.pot = pot
        self.n = pot.n
        self.k = float(k)
        self.lam = float(k) ** pot.n
        if pot.n % 2 == 0 and self.lam <= 0:
            raise DomainError("even n has no propagating solutions for lambda <= 0")
        self._branches = _branch_data(zeta_roots(self.lam, self.n, side="+"))
        self._n_up = sum(upper for _, _, upper in self._branches)
        self.x0 = float(x0)
        self.mesh = _core_mesh(self.x0, self.k, breaks=pot.breakpoints)
        self._factor()

    def _real_root(self, upper):
        """(zeta, a) of the real root reaching +inf (upper) or -inf, if any."""
        return next(((zeta.real, a) for zeta, a, up in self._branches
                     if up == upper and not zeta.imag), None)

    def _factor(self):
        """Eliminate w panel by panel; see the module docstring."""
        mesh, p = self.mesh, self.mesh.p
        qs = np.arange(mesh.n_panels)
        x = mesh.nodes.reshape(-1, p)
        t = mesh.ref_coord(qs[:, None], x)
        C = np.tile(np.eye(p, dtype=complex), (mesh.n_panels, 1, 1))
        G, F, step, self._pcoef = [], [], [], []
        for zeta, a, upper in self._branches:
            pcoef = a * self.pot.symbol(x, zeta)
            lo, hi = (-1.0, t) if upper else (t, 1.0)
            C += pcoef[..., None] * mesh.moments(-zeta, qs[:, None], lo, hi, t)
            anchor = (mesh.edges[:-1] if upper else mesh.edges[1:])[:, None]
            G.append(pcoef * np.exp(1j * zeta * (x - anchor)))
            F.append(mesh.moments(-zeta, qs, -1.0, 1.0, 1.0 if upper else -1.0))
            step.append(np.exp((1j if upper else -1j) * zeta * np.diff(mesh.edges)))
            self._pcoef.append(pcoef.ravel())
        try:
            self._Cinv = np.linalg.inv(C)
        except np.linalg.LinAlgError:
            raise NearExceptionalPointError(self.lam, 0.0) from None
        self._H = self._Cinv @ np.stack(G, axis=-1)      # (panels, p, branches)
        self._F = np.stack(F, axis=1)                     # (panels, branches, p)
        # D_P = F_P H_P - diag(step_P) couples the states of neighbouring panels:
        # upper states at P + 1 and lower states at P - 1 read those at P
        D = self._F @ self._H
        nb, up = len(self._branches), self._n_up
        D[:, np.arange(nb), np.arange(nb)] -= np.stack(step, axis=1)
        P = qs[:-1]
        M = np.eye(qs.size * nb, dtype=complex).reshape(qs.size, nb, qs.size, nb)
        M[P + 1, :up, P, :] = D[:-1, :up]
        M[P, up:, P + 1, :] = D[1:, up:]
        M = M.reshape(qs.size * nb, -1)
        anorm = np.linalg.norm(M, 1)
        self._lu = lu_factor(M)
        self.rcond = min(float(lapack.zgecon(self._lu[0], anorm)[0]),
                         float(np.min(1.0 / np.linalg.cond(C, 1))))
        if not self.rcond >= RCOND_FLOOR:
            raise NearExceptionalPointError(self.lam, self.rcond)

    def _core_solve(self, rhs0, outer):
        """w on the core nodes with the outer densities as the first upper and
        the last lower edge states."""
        u = np.einsum("qij,qj->qi", self._Cinv, rhs0.reshape(self._Cinv.shape[:2]))
        Fu = np.einsum("qbj,qj->qb", self._F, u)
        up = self._n_up
        r = np.zeros_like(Fu)
        r[1:, :up], r[:-1, up:] = Fu[:-1, :up], Fu[1:, up:]
        for b, (zeta, _, upper) in enumerate(self._branches):
            dens = outer.get(-1 if upper else +1)
            if dens is not None:
                r[0 if upper else -1, b] = dens.end(-zeta, upper)
        s = lu_solve(self._lu, r.ravel()).reshape(r.shape)
        return (u - np.einsum("qib,qb->qi", self._H, s)).ravel()

    # -- outer iteration ------------------------------------------------------

    def solve(self, X) -> EigenfunctionField:
        """Born passes to convergence with the outer sides out to X.  The
        `residual` diagnostic is the core equation evaluated through the
        field's own prefix tables and outer densities."""
        x = self.mesh.nodes
        X = self.x0 if self.pot.support is not None else float(max(X, self.x0))
        meshes = {side: _outer_mesh(side, self.x0, X, self.k) for side in (+1, -1)}
        rhs0 = self.pot.symbol(x, self.k) * np.exp(1j * self.k * x)
        field = EigenfunctionField(self, self._core_solve(rhs0, {}), {}, X)
        for passes in range(1, BORN_MAX_PASSES + 1):
            outer = self._refresh_outer(field, meshes)
            w = self._core_solve(rhs0, outer)
            increment = float(np.max(np.abs(w - field.w)))
            field = EigenfunctionField(self, w, outer, X)
            if increment <= BORN_TOL * max(float(np.max(np.abs(w))), 1.0):
                break
        else:
            edge = float(np.sum(self.pot.abs_sum(np.array([self.x0, -self.x0]))))
            cause = "" if edge < SHORT_RANGE_TOL else (
                f"; sum|b~_m| at +-X0 = {edge:.3e} >= {SHORT_RANGE_TOL:g}, so the "
                "coefficients are long-range, and the long-range modifier "
                "(longrange.py) is not wired into the solver")
            raise NumericalError(
                f"Born passes not converged at lambda={self.lam!r}: increment "
                f"{increment:.3e} after {BORN_MAX_PASSES} passes{cause}")
        field = EigenfunctionField(self, w, self._refresh_outer(field, meshes), X)
        resid = w - rhs0
        for (zeta, _, upper), pcoef in zip(self._branches, self._pcoef):
            resid = resid + pcoef * field._kernel(x, zeta, upper)
        field.diagnostics = {
            "residual": float(np.max(np.abs(resid))), "rcond": self.rcond,
            "X0": self.x0, "X": X, "mesh_size": int(x.size),
            "abs_sum_at_X0": float(self.pot.abs_sum(np.array([self.x0]))[0]),
            "born_increment": increment, "born_passes": passes}
        return field

    def _refresh_outer(self, field, meshes):
        """Born update of the outer densities from the current state."""
        ru, rd = self._real_root(True), self._real_root(False)
        outer = {}
        for side in (+1, -1):
            mesh_o = meshes[side]
            if mesh_o is None:
                continue
            y = mesh_o.nodes
            incident = [(self.k, np.ones(y.size, dtype=complex))]
            # real-root wave launched toward this side by core + far side
            root = ru if side > 0 else rd
            if root is not None:
                zeta, a = root
                cum = field._full(0, -zeta) + field._full(-side, -zeta)
                incident.append((zeta, -a * cum * np.ones(y.size, dtype=complex)))
            # within-side Born term from the previous components: the up-root
            # kernel integrates from the side's left end, the down-root kernel
            # from its right end
            own = field._outer[side]
            if own is not None:
                for root, upper in ((ru, True), (rd, False)):
                    if root is not None:
                        zeta, a = root
                        incident.append((zeta, -a * own.cumulative(-zeta, y, upper)))
            outer[side] = _Density(mesh_o, [float(np.real(mu)) for mu, _ in incident],
                                   [self.pot.symbol(y, mu) * amp for mu, amp in incident])
        return outer


def default_core_radius(pot: PotentialSpec, X, threshold=SHORT_RANGE_TOL):
    if pot.support is not None:
        return min(pot.support + 2.0, X)
    xs = np.linspace(30.0, 200.0, 343)
    vals = pot.abs_sum(xs) + pot.abs_sum(-xs)
    idx = np.where(vals < threshold)[0]
    x0 = xs[idx[0]] if idx.size else 200.0
    return float(min(max(x0, 40.0), 120.0, X))


def solve_lippmann_schwinger(pot: PotentialSpec, k, X=1.0e4,
                             x_core=None) -> EigenfunctionField:
    """Solve for the continuum eigenfunction at wavenumber k (lambda = k^n)."""
    x0 = default_core_radius(pot, X) if x_core is None else min(x_core, X)
    return _CoreSolver(pot, k, x0).solve(X)


# ---------------------------------------------------------------------------
# scattering matrices
# ---------------------------------------------------------------------------


@dataclass
class SMatrixEntry:
    lam: float
    n: int
    S: np.ndarray              # 1x1 (odd n) or 2x2 (even n), X-extrapolated
    S_X: np.ndarray
    S_2X: np.ndarray
    unitarity_defect: float    # at truncation X
    unitarity_defect_2X: float
    truncation_X: float
    core_radius: float
    rcond: float
    mesh_size: int
    fields: list               # truncation-X EigenfunctionField of each k

    @property
    def extrapolated_defect(self):
        return _unitarity_defect(self.S)


def _unitarity_defect(S):
    return float(np.linalg.norm(S.conj().T @ S - np.eye(S.shape[0]), 2))


def _entries_from_field(field: EigenfunctionField):
    lims = field.r_limits()
    if field.n % 2 == 1:
        return {"s": lims["r+inf"]}
    if field.k > 0:
        return {"s11": lims["r++inf"], "s21": lims["r--inf"]}
    return {"s22": lims["r+-inf"], "s12": lims["r-+inf"]}


_SLOT = {"s": (0, 0), "s11": (0, 0), "s21": (1, 0), "s22": (1, 1), "s12": (0, 1)}


def scattering_matrix(pot: PotentialSpec, lam, X=1.0e4,
                      x_core=None) -> SMatrixEntry:
    """Assemble s(lambda) or S(lambda) with the X / 2X truncation pair."""
    lam = float(lam)
    if lam == 0:
        raise DomainError("lambda = 0 is the degenerate spectral point")
    n = pot.n
    if n % 2 == 1:
        ks = [np.sign(lam) * abs(lam) ** (1.0 / n)]
    elif lam <= 0:
        raise DomainError("even n: lambda must be positive")
    else:
        k = lam ** (1.0 / n)
        ks = [k, -k]
    x0 = default_core_radius(pot, X) if x_core is None else min(x_core, X)
    S_X = np.zeros((len(ks), len(ks)), dtype=complex)
    S_2X = np.zeros((len(ks), len(ks)), dtype=complex)
    fields = []
    for kk in ks:
        solver = _CoreSolver(pot, kk, x0)
        fX = solver.solve(X)
        e1, e2 = _entries_from_field(fX), _entries_from_field(solver.solve(2 * X))
        for key in e1:
            S_X[_SLOT[key]], S_2X[_SLOT[key]] = e1[key], e2[key]
        fields.append(fX)
    d = fields[0].diagnostics
    return SMatrixEntry(lam=lam, n=n, S=2.0 * S_2X - S_X, S_X=S_X, S_2X=S_2X,
                        unitarity_defect=_unitarity_defect(S_X),
                        unitarity_defect_2X=_unitarity_defect(S_2X),
                        truncation_X=X, core_radius=d["X0"], rcond=d["rcond"],
                        mesh_size=d["mesh_size"], fields=fields)


# ---------------------------------------------------------------------------
# independent n = 2 route: envelope ODE shooting
# ---------------------------------------------------------------------------


def ode_cross_check(pot: PotentialSpec, k, X=1.0e4, rtol=1e-11, atol=1e-13):
    """Transmission/reflection for n = 2 by two-sided shooting.

    Integrates psi'' = (b0 - k^2) psi from +X to -X starting from the pure
    transmitted wave and matches plane waves at -X; independent of the
    Nystrom machinery.  Returns {"s11": ..., "s21": ...} for this k > 0.
    """
    from scipy.integrate import solve_ivp

    if pot.n != 2:
        raise ConfigurationError("ode_cross_check is the n = 2 oracle")
    if k <= 0:
        raise ConfigurationError("use k > 0")
    b0 = pot.funcs[0]

    def rhs(x, u):
        pr, pi, dpr, dpi = u
        b = b0(np.array([x]))[0] if pot.support is None or abs(x) <= pot.support \
            else 0.0
        c = (np.real(b) - k * k) + 1j * np.imag(b)
        psi = pr + 1j * pi
        dd = c * psi
        return [dpr, dpi, dd.real, dd.imag]

    x_hi = X if pot.support is None else min(X, pot.support)
    psi0 = np.exp(1j * k * x_hi)
    y0 = [psi0.real, psi0.imag, (1j * k * psi0).real, (1j * k * psi0).imag]
    sol = solve_ivp(rhs, (x_hi, -x_hi), y0, method="DOP853", rtol=rtol,
                    atol=atol, dense_output=False)
    if not sol.success:
        raise StiffIntegrationError(sol.message)
    pr, pi, dpr, dpi = sol.y[:, -1]
    psi, dpsi = pr + 1j * pi, dpr + 1j * dpi
    xm = sol.t[-1]
    alpha = (dpsi + 1j * k * psi) * np.exp(-1j * k * xm) / (2j * k)
    beta = -(dpsi - 1j * k * psi) * np.exp(1j * k * xm) / (2j * k)
    return {"s11": 1.0 / alpha, "s21": beta / alpha}


def square_well_reflection(V0, a, k):
    """Closed-form R, T for the well b0 = -V0 on (-a, a) (textbook oracle)."""
    kappa = np.sqrt(k * k + V0 + 0j)
    den = np.cos(2 * kappa * a) - 0.5j * (k * k + kappa * kappa) / (k * kappa) \
        * np.sin(2 * kappa * a)
    t = np.exp(-2j * k * a) / den
    r = 0.5j * ((kappa ** 2 - k ** 2) / (k * kappa)) * np.sin(2 * kappa * a) \
        * np.exp(-2j * k * a) / den
    return {"s11": t, "s21": r}
