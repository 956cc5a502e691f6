"""Free kernels, Lippmann-Schwinger solves, and scattering matrices.

The eigenfunctions of B~ = D^n + sum b~_m D^m (psi_minus convention) solve

    psi = e^{ikx} - R0(k^n + i0) V psi,      V = sum_{m<=n-2} b~_m D^m.

We solve the second-kind equation (I + V R0) w = V psi0 for w = V psi on
[-X, X]: a core [-X0, X0] and two outer sides, each a mesh of Gauss panels.
The core's widen x1.3 from 0.06 at x = 0, as b~ is singular at x = +-i d_n
(d_n ~ 0.2-0.35) and panels must shrink toward such a singularity to resolve
it (Trefethen, Approximation Theory and Approximation Practice, ch. 8), up to
min(2 / max(|k|, 1/4), 3).  The free kernel is a sum of exponentials
a_b e^{i zeta_b (x-y)}, each on one side of the diagonal: x >= y for the
"upper" roots, x <= y for the "lower" ones.  So the system is never formed.
The edge state s_b(P) is the integral of e^{i zeta_b (e_P - y)} w(y) over the
panels of the whole line on branch b's far side of panel P, anchored at P's
left edge e_P (upper) or its right edge (lower): Greengard & Rokhlin's
construction for separable kernels.  With Filon-type product integration
(moments of exponentials against each panel's Lagrange basis) panel P obeys

    C_P f_P = rhs_P - sum_b g_b e^{i zeta_b (x - e_P)} s_b(P),
    C_P     = I + sum_b diag(g_b) own_b,P,

with own_b,P the partial-panel moments anchored at the nodes.  On the core
f = w is one component, g_b = a_b sigma_b with sigma_b = sum_m b~_m zeta_b^m,
and rhs = sigma(k) e^{ikx}.  Beyond X0 (CORE_RADIUS: 30 for odd n, whose outer
model is exact; 120 for even n, where sum|b~_m| is 6.3e-5 for P = X^2 on the
cosh weight, 1.3e-3 for X^4) w = sum_w e^{iwky} f_w has one component per
wave.  For odd n that one wave carries all of V psi, f = sigma(k) - sum_b
a_b sigma_b e^{-iky} K_b, so rhs = sigma(k) and every root is a source
there, g_b = a_b sigma_b e^{-iky}.  For even n the complex-root terms, which
die within a few units of +-X0, enter psi but are not sources there:
f_w = sigma(wk) ([w = 1] - a e^{-iwky} K_wk), so rhs_w = sigma(wk) [w = 1],
g = a sigma e^{-iwky} on the wave's own real root, and no other root has a
coefficient there.  Every state steps to the next panel as
s_b(P +- 1) = e^{+-i zeta_b h_P} s_b(P) + F_b,P . f_P (full-panel moments),
by factors of modulus <= 1, so the decaying complex roots share the real
roots' states, and it crosses +-X0 as it crosses any panel edge.
The blocks C_P are inverted in one batched call per region; substituting
f_P = C_P^-1 (rhs_P - G_P s(P)), G_P the state terms above, leaves the
couplings D_P = F_P C_P^-1 G_P - diag(step_P) between the states of
neighbouring panels.  Stacked in x order (left side, core, right side),
with nb branches of which `up` are upper, they form one band with
kl = nb + up - 1 sub- and ku = 2 nb - up - 1 superdiagonals; the states
entering at -X and X are zero.  It is written straight into LAPACK band
storage and factored by a banded LU (zgbtrf) once per lambda and truncation,
shared by +-k.  Its zgbcon rcond (or the worst block's, if smaller) must stay
above RCOND_FLOOR.  The outer sides of every truncation come from one run of
edges grown x1.35 from X0 to the largest X: the right side of X takes the run's
edges below X, then X, and the left side mirrors it.  One batch eliminates the
run's panels and each shorter X's clipped last panel, both mirrored, and each
side is a view of its panels there: one elimination per outer panel.

A panel moment depends only on its key: p, the half-width s (1 at d nu = 0,
whose moment is s times the unit-width one), mu = i d nu s with d = -1 on a
downward sweep (the upward moment at -nu, basis-reversed), and the reference
points along the sweep.  One `_panel_moments` call per elimination, and per
read one for the core's rows and one for both sides', finds the distinct keys
and forms them in one batch and one product: own-node and whole-panel at the
Gauss nodes and t = 1 (a downward branch reads them reversed); a panel-aligned
read (`EigenfunctionField.sample`) at +-t on whole panels.  The line solve
returns its states at every panel edge, with one recursion step past each end
of the line, and each panel's own integral F_P f_P anchored at its far edge,
from which a field reads every kernel integral.  The residual is the defect of
the core's block equation, C_P f_P + G_P s(P) - rhs_P, at the core nodes.  The
b~_m are evaluated once per mesh and solver: a later solve does only the
incident source, the line solve and the residual's products.

A field evaluates one kernel integral per branch on the whole line,
K_b(x) = int e^{i zeta_b (x-y)} w(y) dy over the branch side of x: the state
at the near edge of x's panel carried to x, plus x's partial-panel moments
(past +-X, every panel's own integral carried out).  Then
psi = e^{ikx} - sum_b a_b K_b, and far out psi = sum_w e^{iwkx} r_w over the
waves w = +1 (odd n) or +-1 (even n), with r_w = [w = 1] - a e^{-iwkx} K for
the real root zeta = wk.  The incident wave
has group velocity n k^{n-1}, so it leaves toward d inf with d = sgn(k^{n-1});
wave w leaves toward w d inf, its root is upper iff w d > 0, and
a = d (i/n) k^{1-n}.  With I_w = int e^{-iwky} w dy over the line, the sum of
the panels' own integrals each carried back by e^{-iwk far_P}, r_w tends
to [w = 1] - a I_w on the side it leaves by and to [w = 1] on the other; row
s of the S column is the limit of the wave leaving toward s.

scipy loads only where it is used: scipy.linalg.lapack at the first LU
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigurationError, DomainError, NearExceptionalPointError,
                     NumericalError)
from .oscquad import exp_monomial_moments, gauss_rule, graded_edges, lagrange_coeff_matrix

RCOND_FLOOR = 1e-10    # below this the solve is taken as near-exceptional
CORE_RADIUS = {0: 120.0, 1: 30.0}  # X0 by n % 2 (docstring): odd n's outer model is exact
SHORT_RANGE_SLOPE = -1.5  # sum |b~_m| must fall faster than x^SHORT_RANGE_SLOPE
OUTER_ORDER = 8        # the Gauss order of the outer sides' panels


# scipy.linalg loads at the first factorization, not with the package
def lu_factor(ab, kl, ku):
    """Banded LU (zgbtrf) of the matrix in LAPACK band storage ab: entry
    (i, j) at ab[kl + ku + i - j, j], with kl rows of fill-in space on top."""
    from scipy.linalg import lapack

    lu, piv, info = lapack.zgbtrf(ab, kl, ku)
    if info > 0:
        raise np.linalg.LinAlgError(f"zero pivot U[{info - 1}]")
    return lu, piv, kl, ku


def lu_solve(factors, b):
    from scipy.linalg import lapack

    lu, piv, kl, ku = factors
    return lapack.zgbtrs(lu, kl, ku, b, piv)[0]


# ---------------------------------------------------------------------------
# roots and free kernels
# ---------------------------------------------------------------------------


def zeta_roots(z, n, side="+"):
    """The branches [(zeta, a, upper)] of the free kernel at z: the terms
    a e^{i zeta (x-y)}, zeta over the n-th roots of z counterclockwise from
    the principal one, on x >= y (upper) or x <= y.  A root above the real
    axis is upper; for real z, `side` picks the +i0 or -i0 limit, and a real
    root kr is upper under +i0 iff kr and z share their sign (it moves up
    under z -> z + i eps, as d zeta / dz = zeta / (n z)).  Upper branches
    come first, and in each sweep the strict roots before the real ones.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("z = 0 is the degenerate spectral point")
    if n < 1:
        raise DomainError("n must be >= 1")
    roots = (z ** (1.0 / n)) * np.exp(2j * np.pi * np.arange(n) / n)
    scale = abs(z) ** (1.0 / n)
    real = np.abs(roots.imag) <= 1e-12 * scale
    roots[real] = np.sign(roots[real].real) * scale  # exactly +-|z|^(1/n)
    upper = np.where(real, (roots.real * z.real > 0) == (side != "-"), roots.imag > 0)
    return [(complex(roots[j]), (1j if upper[j] else -1j) / n * complex(roots[j]) ** (1 - n),
             bool(upper[j])) for j in sorted(range(n), key=lambda j: (not upper[j], real[j]))]


def free_resolvent_kernel(x, y, z, n, side="+", deriv=0):
    """Kernel of d^deriv/dx^deriv of (D^n - z)^{-1}; two-branch formula."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    ge = d >= 0
    for zeta, a, upper in zeta_roots(z, n, side=side):
        on = ge if upper else ~ge
        term = a * (1j * zeta) ** deriv * np.exp(1j * zeta * np.where(on, d, 0.0))
        out = out + np.where(on, term, 0.0)
    return complex(out) if out.ndim == 0 else out


def eigenvalue_multiplicity_bound(n, sign_lambda=1):
    """Count of decay directions = roots strictly above the real axis."""
    return sum(upper and zeta.imag > 0
               for zeta, _, upper in zeta_roots(1.0 if sign_lambda > 0 else -1.0, n))


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


class PotentialSpec:
    """Short-range coefficients b~_0..b~_{n-2} of a gauged operator.

    funcs[m] must accept numpy arrays.  `support` marks compactly supported
    potentials (the solver then uses no outer region).  `from_operator`
    specs read the operator's b~ table instead, grown to twice a call's reach.
    """

    def __init__(self, n, funcs, support=None, breakpoints=()):
        if n < 1:
            raise ConfigurationError("n must be >= 1")
        if len(funcs) != max(n - 1, 0):
            raise ConfigurationError("need exactly n-1 coefficient functions")
        self.n = int(n)
        self.funcs = list(funcs)
        self.support = support
        self.breakpoints = tuple(sorted(abs(b) for b in breakpoints))
        self._op = self._table = None

    @staticmethod
    def from_operator(op):
        pot = PotentialSpec(op.n, [lambda x, m=m: pot.values(x)[m] for m in range(op.n - 1)])
        pot._op, pot._table = op, op.btilde_splines(2.6e4)
        return pot

    def values(self, x):
        x = np.asarray(x, dtype=float)
        if self._table is not None:
            e, reach = self._table.edges, float(np.max(np.abs(x), initial=0.0))
            if np.isfinite(reach) and reach > min(-e[0], e[-1]):
                self._table = self._op.btilde_splines(2.0 * reach)
            return self._table(x)
        if not self.funcs:
            return np.zeros((0,) + x.shape, dtype=complex)
        return np.stack([np.asarray(f(x), dtype=complex) for f in self.funcs])

    def abs_sum(self, x):
        return np.sum(np.abs(self.values(x)), axis=0)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Mesh:
    edges: np.ndarray     # the panel edges, or None if the panels need not abut
    lo: np.ndarray        # each panel's left and right end
    hi: np.ndarray
    nodes: np.ndarray
    p: int
    cmat: np.ndarray      # Lagrange coefficient matrix on the reference nodes

    @property
    def n_panels(self):
        return self.lo.size

    def locate(self, x):
        """Panel index and reference coordinate of each point (end panels
        extend past the mesh)."""
        q = np.clip(np.searchsorted(self.edges, x, side="right") - 1,
                    0, self.n_panels - 1)
        lo, hi = self.edges[q], self.edges[q + 1]
        return q, (2.0 * x - (lo + hi)) / (hi - lo)


def _panel_moments(mesh, branches, mus, w, t):
    """Each branch's Lagrange moments of e^{i (mu - zeta) y}, (mus, rows, points,
    p), on rows of half-width w[i] to the points t[b, i] along its sweep, or to
    one t that every row shares; yielded a branch at a time.  The distinct keys
    (module docstring) form one batch."""
    w, mus = np.asarray(w, dtype=float), np.asarray(mus)
    dnu = np.array([(1 if upper else -1) * (mus - zeta) for zeta, _, upper in branches])
    s = np.where(dnu[..., None] == 0, 1.0, w)  # d nu = 0: w times width 1
    mu = 1j * dnu[..., None] * s
    t = np.broadcast_to(t, (len(branches), w.size, np.shape(t)[-1]))[:, None]
    keys = np.concatenate([np.stack([s, mu.real + 0.0, mu.imag + 0.0], axis=-1),
                           np.broadcast_to(t, s.shape + t.shape[-1:])], -1).reshape(s.size, -1)
    order = np.lexsort(keys.T)
    new = np.append(True, np.any(np.diff(keys[order], axis=0) != 0, axis=1))
    of = (np.cumsum(new) - 1)[np.argsort(order)]  # each key's place among the distinct ones
    u = keys[order[new]]
    m = u[:, :1, None] * (exp_monomial_moments(u[:, 1:3].view(complex), u[:, 3:], mesh.p)
                          @ mesh.cmat)
    for b, (_, _, upper) in enumerate(branches):
        out = m[of.reshape(s.shape)[b]]
        out[dnu[b] == 0] *= w[:, None, None]
        yield out[..., ::1 if upper else -1]


def _panelize(edges, p):
    return _panels(edges[:-1], edges[1:], p, edges)


def _panels(lo, hi, p, edges=None):
    """The Gauss-p mesh of the panels [lo, hi], with their `edges` if they abut."""
    x, s = gauss_rule(p)[0], 0.5 * (hi - lo)
    return _Mesh(edges=edges, lo=lo, hi=hi, p=p, cmat=lagrange_coeff_matrix(x),
                 nodes=(0.5 * (lo + hi)[:, None] + s[:, None] * x).ravel())


def _core_mesh(x0, k, breaks=()):
    """Gauss-10 panels on [-x0, x0] graded toward b~'s singularities at x = +-i d_n:
    0.06 wide at x = 0, each 1.3 times the last, up to min(2 / max(|k|, 1/4), 3)."""
    right = graded_edges(0.0, x0, 0.06, 1.3, min(2.0 / max(abs(k), 0.25), 3.0))
    # coefficient discontinuities must be panel edges (product integration
    # interpolates the solution panelwise)
    ins = [b for b in breaks if 0.0 < b < x0]
    if ins:
        right = np.unique(np.concatenate((right, np.asarray(ins))))
        right = right[np.concatenate(([True], np.diff(right) > 1e-9))]
    return _panelize(np.concatenate((-right[:0:-1], right)), 10)


class _Density:
    """sum_c f_c(y) e^{i mu_c y} on one region's mesh, with the line solve's
    states there (module docstring).

    The core solution w is one component with mu = 0; an outer side carries
    one component per wave, mu = wk.  states[q, b] is branch b's integral of
    the line's density over its far side of edge q, anchored at the edge:
    s_b(q) for an upper branch, s_b(q - 1) for a lower one.  totals[q, b] =
    (F_q f_q)_b is panel q's own integral, anchored at its far edge.
    """

    def __init__(self, mesh: _Mesh, mus, fs, states, totals):
        self.mesh = mesh
        self.mus = np.asarray(mus, dtype=float)
        self.fs = np.asarray(fs, dtype=complex).reshape(
            self.mus.size, mesh.n_panels, mesh.p)
        self.states, self.totals = states, totals

    def kernel(self, b, branch, x, q, m):
        """K_b at points x of the mesh, one per panel q or a row each: the state
        at the near edge of x's panel carried to x, plus x's partial-panel moments m."""
        mesh, (zeta, _, upper) = self.mesh, branch
        q, x, m = np.repeat(q, x.size // q.size), x.ravel(), m.reshape(self.mus.size, -1, mesh.p)
        e = q if upper else q + 1
        part = np.einsum("cij,cij->ci", m, self.fs[:, q])
        return np.exp(1j * zeta * (x - mesh.edges[e])) * self.states[e, b] \
            + np.sum(np.exp(1j * self.mus[:, None] * x) * part, axis=0)

    def values(self, x):
        """The density at points of the mesh (panelwise Lagrange interpolation)."""
        q, t = self.mesh.locate(x)
        basis = np.polynomial.polynomial.polyval(t, self.mesh.cmat)
        comps = np.einsum("jn,cnj->cn", basis, self.fs[:, q])
        return np.sum(np.exp(1j * self.mus[:, None] * x) * comps, axis=0)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def _finite(x):
    """x, if every point of it is finite."""
    if not np.all(np.isfinite(x)):
        raise DomainError(f"the field is read at finite points, not at x = {x[~np.isfinite(x)][0]}")
    return x


class EigenfunctionField:
    """Solved continuum eigenfunction at one (lambda, k); see module docstring.

    The field owns its core and outer densities and the line solve's states
    on them, so later solves on the same solver leave it unchanged.  The
    public surface is evaluation (psi_at, sample, w_at; one reader, `_read`),
    the envelopes' limits, the travel direction and wave set, the line's
    panel edges and solve diagnostics.
    """

    def __init__(self, solver, k, dens, X):
        self.k, self.lam, self.n = k, solver.lam, solver.n
        self.direction = 1 if k ** (self.n - 1) > 0 else -1
        self.waves = (1,) if self.n % 2 else (1, -1)
        self._branches = solver._branches
        # wave w travels with the real root zeta = wk, branch b
        self._wave_branch = {int(np.sign(zeta.real * k)): b
                             for b, (zeta, _, _) in enumerate(self._branches) if not zeta.imag}
        self._dens = dens
        self._core = dens[0]
        self.w = self._core.fs[0].ravel()
        self.X0, self.X = solver.x0, X
        self.diagnostics = {}

    @property
    def edges(self):
        """Every panel edge of the line, left side through right side
        (read-only): psi's derivatives jump there."""
        edges = np.unique(np.concatenate([d.mesh.edges for d in self._dens.values()]))
        edges.flags.writeable = False
        return edges

    # -- the kernel integral ---------------------------------------------------

    def _region_of(self, x):
        X0, X = self.X0, self.X
        return np.where(x < -X0, np.where(x < -X, -2, -1),
                        np.where(x > X0, np.where(x > X, 2, 1), 0))

    def _read(self, c, h, t):
        """The points x = c + h t, t along the last axis, and every branch's K_b
        there, (branches, *x.shape).  A row [c - |h|, c + |h|] inside a panel
        of |x| <= X reads its panel's state and its points' moments (module
        docstring); a row wholly past +-X, every panel's own integral carried
        out on the branches whose sweep leaves there, zero on the others.  Any
        other row (by over 1e-12 of a reference coordinate), and any point that
        is not finite, is refused."""
        shape = np.broadcast_shapes(np.shape(c), np.shape(h), np.shape(t))
        c, h, t = (np.ravel(v).astype(float) for v in (c, h, t))
        with np.errstate(all="ignore"):  # a point that is not finite is refused
            x, region = _finite(c[:, None] + h[:, None] * t), self._region_of(c)
        K = np.zeros((len(self._branches),) + x.shape, dtype=complex)
        sweep = np.array([[[1.0 if upper else -1.0]] for _, _, upper in self._branches])
        groups = {}  # the core's rows, both sides': (density, rows, panels, half-widths, points)
        for r in np.unique(region).tolist():
            i, dens = np.flatnonzero(region == r), self._dens.get(max(-1, min(r, 1)), self._core)
            q, alpha = dens.mesh.locate(c[i])
            s = 0.5 * (dens.mesh.hi - dens.mesh.lo)[q]
            a = h[i] / s
            lo, hi = {-2: (-np.inf, -1.0), 2: (1.0, np.inf)}.get(r, (-1.0, 1.0))
            out = (alpha - abs(a) < lo - 1e-12) | (alpha + abs(a) > hi + 1e-12)
            if out.any():
                j = i[np.argmax(out)]
                raise DomainError(f"the row [{c[j] - abs(h[j]):g}, {c[j] + abs(h[j]):g}] is "
                                  f"neither inside one panel of |x| <= {self.X:g} nor past it")
            if abs(r) < 2:
                groups.setdefault(r != 0, []).append(
                    (dens, i, q, s, sweep * (alpha[:, None] + a[:, None] * t)))
                continue
            for b, (zeta, _, upper) in enumerate(self._branches):
                if upper == (r > 0):
                    x0 = (self.X if upper else -self.X) if zeta.imag else 0.0  # as r_limits
                    K[b, i] = np.exp(1j * zeta * (x[i] - x0)) * self._carried(x0, b, zeta, upper)
        for dens, i, q, s, T in (zip(*group) for group in groups.values()):
            moments = _panel_moments(dens[0].mesh, self._branches, dens[0].mus,
                                     np.concatenate(s), np.concatenate(T, axis=1))
            for b, m in enumerate(moments):
                parts = np.split(m, np.cumsum([j.size for j in i])[:-1], axis=1)
                for d, j, qd, md in zip(dens, i, q, parts):
                    K[b, j] = d.kernel(b, self._branches[b], x[j], qd, md).reshape(-1, t.size)
        return x.reshape(shape), K.reshape(K.shape[:1] + shape)

    def _carried(self, x0, b, zeta, upper):  # every panel's own integral of b, carried to x0
        return sum(np.exp(1j * zeta * (x0 - (d.mesh.hi if upper else d.mesh.lo))) @ d.totals[:, b]
                   for d in self._dens.values())

    # -- envelopes and limits ------------------------------------------------

    def r_limits(self):
        """The x -> +/-inf limits of each envelope r_w, keyed (side, w), wave
        by wave: [w = 1] - a int e^{-iwky} w dy on the side the wave leaves
        by and [w = 1] on the other (module docstring)."""
        lims = {}
        for w in self.waves:
            b = self._wave_branch[w]
            zeta, a, upper = self._branches[b]
            I = self._carried(0.0, b, zeta, upper)
            for side in (+1, -1):
                lims[side, w] = complex(w == 1) - (a * I if (side > 0) == upper else 0.0)
        return lims

    def _envelope(self, x, w, K):
        """r_w(x) = [w = 1] - a e^{-iwkx} K_b(x), b the wave's real root zeta = wk:
        the wave's integral over the y it has passed, from every branch's K."""
        b = self._wave_branch[w]
        return float(w == 1) - self._branches[b][1] * np.exp(-1j * w * self.k * x) * K[b]

    # -- field evaluation ------------------------------------------------------

    def _psi(self, x, K, deriv=0):  # D^deriv psi from every branch's K_b at x
        out = self.k ** deriv * np.exp(1j * self.k * x)
        for (zeta, a, _), Kb in zip(self._branches, K):
            out = out - a * zeta ** deriv * Kb
        return out

    def psi_at(self, x, deriv=0):
        """D^deriv psi at any x: k^deriv e^{ikx} - sum_b a_b zeta_b^deriv K_b(x),
        for deriv < n only (D^n R0 w = w + lambda R0 w); rows of zero width."""
        if deriv not in range(self.n):
            raise DomainError(f"deriv = {deriv!r}: psi_at gives D^0..D^{self.n - 1} psi")
        x = np.atleast_1d(np.asarray(x, dtype=float))[..., None]
        return self._psi(*self._read(x, np.zeros_like(x), [0.0]), deriv)[..., 0]

    def sample(self, c, h, t):
        """psi and each wave's envelope r_w (keyed w) at the points c + h t, t
        along the last axis, each [c - |h|, c + |h|] inside a panel of |x| <= X
        or wholly past +-X."""
        x, K = self._read(c, h, t)
        return self._psi(x, K), {w: self._envelope(x, w, K) for w in self.waves}

    def w_at(self, x):
        """V psi at arbitrary points (Lagrange interpolation in each region)."""
        x = _finite(np.atleast_1d(np.asarray(x, dtype=float)))
        region, out = self._region_of(x), np.zeros(x.size, dtype=complex)
        for r in (-1, 0, 1):
            sel, dens = region == r, self._dens.get(r)
            if dens is not None and np.any(sel):
                out[sel] = dens.values(x[sel])
        return out


class _Blocks:
    """Panel-block elimination of f_c + sum_b g_cb e^{-i mu_c y} K_b = rhs_c on
    one region's mesh, K_b being branch b's integral of the whole line's
    density over the branch side of y: the core is one component (mu = 0)
    under every branch, an outer side of odd n one component (mu = k) under
    every branch, and one of even n one component per real root under its
    own root only.  A panel's unknowns are its f_c at the nodes,
    component-major.  Every branch steps its state across every panel; D
    holds the couplings D_P = F_P H_P - diag(step_P) (module docstring).  It
    forms its own panel moments, and keeps the blocks C and state terms G
    of the equation C_P f_P + G_P s(P) = rhs_P for the residual.  It reads
    each panel's own ends, so the panels need not abut, and all but `mesh`,
    `mus` and `up` are per panel, so `join` can give a region its panels out
    of one elimination of many regions' panels (but not C and G: the sides
    need neither)."""

    def __init__(self, lam, mesh, mus, branches, coef):
        n_p, p, nc, nb = mesh.n_panels, mesh.p, len(mus), len(branches)
        self.mesh, self.mus = mesh, np.asarray(mus, dtype=float)
        x, mus, coef = mesh.nodes.reshape(-1, p), self.mus, np.asarray(coef)
        ph = np.exp(1j * mus[:, None, None] * x)
        C = np.tile(np.eye(nc * p, dtype=complex), (n_p, 1, 1)) \
            .reshape(n_p, nc, p, nc, p)
        G = np.zeros((n_p, nc, p, nb), dtype=complex)
        F = np.empty((n_p, nb, nc, p), dtype=complex)
        step = np.empty((n_p, nb), dtype=complex)
        # one batch, own-node and whole-panel (module docstring), a branch at a time
        moments = _panel_moments(mesh, branches, mus, 0.5 * (mesh.hi - mesh.lo),
                                 np.append(gauss_rule(p)[0], 1.0))
        for b, ((zeta, _, upper), m) in enumerate(zip(branches, moments)):
            near, far = (mesh.lo, mesh.hi)[::1 if upper else -1]
            own = slice(p) if upper else slice(p - 1, None, -1)
            F[:, b] = (np.exp(1j * mus[:, None] * far)[..., None]
                       * m[:, :, p]).transpose(1, 0, 2)
            step[:, b] = np.exp((1j if upper else -1j) * zeta * (mesh.hi - mesh.lo))
            g = coef[:, b].reshape(nc, *x.shape) * ph.conj()
            for c in np.flatnonzero(g.any(axis=(1, 2))):
                C[:, c] += np.moveaxis(g[c][..., None] * ph[..., None]
                                       * m[:, :, own], 0, 2)
                G[:, c, :, b] = g[c] * np.exp(1j * zeta * (x - near[:, None]))
        self.C, self.G = C.reshape(n_p, nc * p, nc * p), G.reshape(n_p, nc * p, nb)
        try:
            self.Cinv = np.linalg.inv(self.C)
        except np.linalg.LinAlgError:
            raise NearExceptionalPointError(lam, 0.0) from None
        self.H = self.Cinv @ self.G
        self.F = F.reshape(n_p, nb, nc * p)
        self.up = sum(upper for _, _, upper in branches)
        # each block's 1-norm reciprocal condition number, from the inverse at hand
        self.rconds = 1.0 / (np.linalg.norm(self.C, 1, axis=(-2, -1))
                             * np.linalg.norm(self.Cinv, 1, axis=(-2, -1)))
        self.D = self.F @ self.H
        self.D[:, np.arange(nb), np.arange(nb)] -= step

    def join(self, mesh, q):
        """The region on `mesh` joined from this elimination's panels q, in x
        order."""
        out = _Blocks.__new__(_Blocks)
        out.mesh, out.mus, out.up = mesh, self.mus, self.up
        for name in ("Cinv", "H", "F", "D", "rconds"):
            setattr(out, name, getattr(self, name)[q])
        return out


class _Line:
    """The state system of the whole line out to one truncation: the regions'
    eliminations keyed -1, 0, +1 in x order (the core alone without outer
    sides), their couplings D stacked panel by panel, its banded LU and its
    rcond, the worst of zgbcon's and every block's (module docstring)."""

    def __init__(self, lam, regions):
        from scipy.linalg import lapack

        self.regions = regions
        self.D = D = np.concatenate([blocks.D for blocks in regions.values()])
        n_p, nb, up = D.shape[0], D.shape[1], regions[0].up
        # upper states at P + 1 and lower states at P - 1 read those at P, so
        # I + couplings is banded with kl = nb + up - 1 and ku = 2 nb - up - 1
        kl, ku = nb + up - 1, 2 * nb - up - 1
        ab = np.zeros((2 * kl + ku + 1, n_p, nb), dtype=complex)
        ab[kl + ku] = 1.0
        i, j = np.arange(nb)[:, None], np.arange(nb)
        ab[kl + ku + nb + i[:up] - j, :-1, j] = D[:-1, :up].transpose(1, 2, 0)
        ab[kl + ku - nb + i[up:] - j, 1:, j] = D[1:, up:].transpose(1, 2, 0)
        ab = ab.reshape(ab.shape[0], -1)
        anorm = np.max(np.sum(np.abs(ab), axis=0))
        try:
            self._lu = lu_factor(ab, kl, ku)
        except np.linalg.LinAlgError:
            raise NearExceptionalPointError(lam, 0.0) from None
        self.rcond = min(float(lapack.zgbcon(kl, ku, *self._lu[:2], anorm)[0]),
                         *(float(np.min(blocks.rconds)) for blocks in regions.values()))
        if not self.rcond >= RCOND_FLOOR:
            raise NearExceptionalPointError(lam, self.rcond)

    def solve(self, rhs):
        """Each region's `_Density`, keyed as the regions, for right-hand sides
        of shape (components, nodes), one per region; the residual, the
        largest defect |C_P f_P + G_P s(P) - rhs_P| of the core's block
        equation; and the state residual, the largest row defect
        |s(P +- 1) + D_P s(P) - F_P u_P| of the state system relative to
        max|s|.  The states entering at the ends of the line are zero; the
        recursion s(P +- 1) = F_P u_P - D_P s(P) gives those leaving it."""
        regions = self.regions.values()
        rhs = [r.reshape(b.mus.size, b.mesh.n_panels, -1, 1).swapaxes(0, 1)
               .reshape(b.mesh.n_panels, -1, 1) for b, r in zip(regions, rhs)]
        u = [b.Cinv @ r for b, r in zip(regions, rhs)]
        Fu = np.concatenate([b.F @ v for b, v in zip(regions, u)])[..., 0]
        up, r = self.regions[0].up, np.zeros_like(Fu)
        r[1:, :up], r[:-1, up:] = Fu[:-1, :up], Fu[1:, up:]
        s = lu_solve(self._lu, r.reshape(-1, 1)).reshape(r.shape)
        # the states at the line's edges, upper ones at a panel's left edge and
        # lower ones at its right: recursed from their neighbours, and solved
        # (but for the two recursed past the ends)
        onward = Fu - (self.D @ s[..., None])[..., 0]
        recursed = np.zeros((s.shape[0] + 1, s.shape[1]), dtype=complex)
        recursed[1:, :up], recursed[:-1, up:] = onward[:, :up], onward[:, up:]
        states = recursed.copy()
        states[:-1, :up], states[1:, up:] = s[:, :up], s[:, up:]
        defect, s_max = (float(np.max(np.abs(a))) for a in (states - recursed, states))
        dens, P = {}, 0
        for (key, b), v, rb in zip(self.regions.items(), u, rhs):
            m = b.mesh.n_panels
            f = v - b.H @ s[P:P + m, :, None]
            if key == 0:
                residual = float(np.max(np.abs(b.C @ f + b.G @ s[P:P + m, :, None] - rb)))
            dens[key] = _Density(b.mesh, b.mus, f.reshape(m, b.mus.size, -1).swapaxes(0, 1),
                                 states[P:P + m + 1], (b.F @ f)[..., 0])
            P += m
        return dens, residual, defect / s_max if s_max else defect


class _CoreSolver:
    """The core's panel-block elimination, the outer sides of each truncation
    X and its whole-line system for lambda = k^n; shared by +-k.  The outer
    panels of every truncation declared up front are eliminated together
    when the solver is built; a later X gets its own."""

    def __init__(self, pot: PotentialSpec, k, x0, truncations=()):
        self.pot, self.n, self.k = pot, pot.n, float(k)
        self.lam = float(k) ** pot.n
        self._branches = zeta_roots(self.lam, self.n, side="+")
        # the real roots: one outer component each, at its frequency
        self._mus = [zeta.real for zeta, _, _ in self._branches if not zeta.imag]
        self.x0 = float(x0)
        self.mesh = _core_mesh(self.x0, self.k, breaks=pot.breakpoints)
        # whole-line systems per X and b~ per mesh
        self._lines, self._values = {}, {}
        self.blocks = _Blocks(self.lam, self.mesh, [0.0], self._branches,
                              [self._coef(self.mesh)])
        self._sides = self._outer(truncations if pot.support is None else ())

    def _symbol(self, mesh, zeta):
        """sum_m b~_m zeta^m, the V-symbol collapsed on one exponential, at
        the nodes of one of the solver's meshes; b~ is evaluated once per mesh."""
        if mesh not in self._values:
            self._values[mesh] = self.pot.values(mesh.nodes)
        return sum((v * zeta ** m for m, v in enumerate(self._values[mesh])),
                   np.zeros(mesh.nodes.shape, dtype=complex))

    def _coef(self, mesh):
        """a_b sigma_b at the nodes of a mesh, per branch."""
        return [a * self._symbol(mesh, zeta) for zeta, a, _ in self._branches]

    def _line(self, X):
        """The whole-line system out to X, cached per X; a refused X is not
        cached."""
        if X not in self._lines:
            if X not in self._sides:
                self._sides.update(self._outer((X,)))
            regions = {0: self.blocks, **self._sides[X]}
            self._lines[X] = _Line(self.lam, dict(sorted(regions.items())))
        return self._lines[X]

    def _outer(self, truncations):
        """The outer sides out to each truncation, {X: {side: blocks}}, from one
        edge run (module docstring): each side joins its panels of the union's
        elimination, a view of their nodes and b~ values.  For odd n every root's
        a sigma sits on the one outer component; for even n root zeta's sits on
        mu = zeta only."""
        out = {X: {} for X in map(float, truncations)}
        Xs = sorted(X for X in out if X > self.x0 * (1.0 + 1e-12))
        if not Xs:
            return out
        run = graded_edges(self.x0, Xs[-1], max(0.5, 0.5 / max(abs(self.k), 0.25)), 1.35)
        lo, hi, right = list(run[:-1]), list(run[1:]), {}  # each X's right side
        for X in Xs:
            i = int(np.searchsorted(run, X))  # the run's edges below X
            q = np.arange(i)
            if run[i] != X:  # the last panel, clipped at X
                q[-1], lo, hi = len(lo), lo + [run[i - 1]], hi + [X]
            right[X] = q, np.append(run[:i], X)
        lo, hi = np.array(lo), np.array(hi)
        union = _panels(np.concatenate((-hi, lo)), np.concatenate((-lo, hi)), OUTER_ORDER)
        coef = [[g * (zeta == mu or self.n % 2) for g, (zeta, _, _) in
                 zip(self._coef(union), self._branches)] for mu in self._mus]
        blocks = _Blocks(self.lam, union, self._mus, self._branches, coef)
        for X, (r, e) in right.items():
            for side, q, edges in ((-1, r[::-1], -e[::-1]), (+1, lo.size + r, e)):
                nodes = (q[:, None] * union.p + np.arange(union.p)).ravel()
                mesh = replace(union, edges=edges, lo=union.lo[q], hi=union.hi[q],
                               nodes=union.nodes[nodes])
                self._values[mesh] = self._values[union][:, nodes]
                out[X][side] = blocks.join(mesh, q)
        return out

    def solve(self, X, k=None) -> EigenfunctionField:
        """The field of the wave e^{ikx} (the solver's k by default, or -k for
        even n) with the outer sides out to X, by one solve of the whole-line
        system.  `residual` is the defect of the core's block equation, the
        core equation at the core nodes, `residual_rel` the same relative to
        max|w|, and `state_residual` the state system's own (`_Line.solve`)."""
        k = self.k if k is None else float(k)
        if k ** self.n != self.lam:
            raise ConfigurationError(f"k = {k!r} is not a root of lambda = {self.lam}")
        X = self.x0 if self.pot.support is not None else float(max(X, self.x0))
        line = self._line(X)
        # the incident source sigma(k) e^{iky}: all of it on the core's one
        # component (mu = 0), sigma(k) [w = 1] on an outer wave w (mu = wk)
        dens, resid, state_residual = line.solve([self._symbol(b.mesh, k) * np.where(
            b.mus[:, None] == 0.0, np.exp(1j * k * b.mesh.nodes), b.mus[:, None] * k > 0)
            for b in line.regions.values()])
        field = EigenfunctionField(self, k, dens, X)
        w_max = float(np.max(np.abs(field.w)))
        field.diagnostics = {"residual": resid, "residual_rel": resid / w_max if w_max else resid,
                             "state_residual": state_residual, "rcond": line.rcond,
                             "X0": self.x0, "X": X, "mesh_size": self.mesh.nodes.size}
        return field


def _prepare(pot: PotentialSpec, k, X, x_core):
    """X0 of a solve at k out to X, before any factorization: sum |b~_m| must
    fall faster than x^SHORT_RANGE_SLOPE on [max(X0, 120), X] (on [X0, X] if
    X <= 120) in a log-log fit (cosh, stretched_exp: -2; power_law: -1 to
    -0.7).  k must be finite and nonzero, and X finite and past X0, or past a
    compact support."""
    if not np.isfinite(k) or k == 0:
        raise DomainError(f"k = {float(k)!r} must be finite and nonzero "
                          "(k = 0 is the degenerate spectral point)")
    if not 0.0 < X < np.inf:
        raise DomainError(f"the truncation X = {X!r} must be finite and positive")
    if x_core is None:
        x_core = CORE_RADIUS[pot.n % 2] if pot.support is None else pot.support + 2.0
    x0 = min(x_core, X)
    if (X <= x0) if pot.support is None else (X < pot.support):
        raise DomainError(f"the truncation X = {X:g} " + (
            f"leaves no outer side past X0 = {x_core:g}" if pot.support is None
            else f"cuts the support {pot.support:g}"))
    if pot.support is None:
        x = np.geomspace(max(x0, CORE_RADIUS[0]) if X > CORE_RADIUS[0] else x0, X, 32)
        total = pot.abs_sum(x) + pot.abs_sum(-x)
        slope = np.polyfit(np.log(x), np.log(total), 1)[0] if np.all(total > 0) \
            else -np.inf  # vanishing coefficients are short-range
        if slope > SHORT_RANGE_SLOPE:
            raise NumericalError(
                f"sum|b~_m| falls like x^{slope:.2f} on [{x[0]:g}, {X:g}]: the "
                "coefficients are long-range, and the long-range modifier "
                "(longrange.py) is not wired into the solver")
    return x0


def solve_lippmann_schwinger(pot: PotentialSpec, k, X=1.0e4,
                             x_core=None) -> EigenfunctionField:
    """Solve for the continuum eigenfunction at wavenumber k (lambda = k^n)."""
    return _CoreSolver(pot, k, _prepare(pot, k, X, x_core), (X,)).solve(X)


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
        """The unitarity defect of S = 2 S_2X - S_X, the S that `scatter` prints."""
        return _unitarity_defect(self.S)


def _unitarity_defect(S):
    return float(np.linalg.norm(S.conj().T @ S - np.eye(S.shape[0]), 2))


def _column(field: EigenfunctionField):
    """The column of S read off one field: row s is the limit of the wave
    leaving toward s (s = +1 first; odd n has no row -1)."""
    lims, d = field.r_limits(), field.direction
    return [lims[s, s * d] for s in (+1, -1) if (s, s * d) in lims]


def scattering_matrix(pot: PotentialSpec, lam, X=1.0e4,
                      x_core=None) -> SMatrixEntry:
    """Assemble s(lambda) or S(lambda) with the X / 2X truncation pair."""
    lam, n = float(lam), pot.n
    if n % 2 == 0 and lam < 0:
        raise DomainError("even n: lambda must be positive")
    k = np.sign(lam) * abs(lam) ** (1.0 / n)
    ks = [k] if n % 2 == 1 else [k, -k]
    x0 = _prepare(pot, k, X, x_core)
    S_X, S_2X = (np.zeros((len(ks), len(ks)), dtype=complex) for _ in range(2))
    fields = []
    solver = _CoreSolver(pot, ks[0], x0, (X, 2 * X))  # one factorization for every k
    for j, kk in enumerate(ks):
        fields.append(solver.solve(X, kk))
        S_X[:, j], S_2X[:, j] = _column(fields[-1]), _column(solver.solve(2 * X, kk))
    d = fields[0].diagnostics
    return SMatrixEntry(lam=lam, n=n, S=2.0 * S_2X - S_X, S_X=S_X, S_2X=S_2X,
                        unitarity_defect=_unitarity_defect(S_X),
                        unitarity_defect_2X=_unitarity_defect(S_2X),
                        truncation_X=X, core_radius=d["X0"], rcond=d["rcond"],
                        mesh_size=d["mesh_size"], fields=fields)


# ---------------------------------------------------------------------------
# independent n = 2 route: Magnus shooting
# ---------------------------------------------------------------------------


def ode_cross_check(pot: PotentialSpec, k, X=1.0e4):
    """Transmission/reflection for n = 2 by two-sided shooting.

    Carries (psi, psi') of psi'' = (b0 - k^2) psi from the transmitted wave at
    +X to -X, where it matches plane waves; independent of the Nystrom
    machinery.  Per cell, the fourth-order Magnus exponent of A = [[0, 1],
    [b0 - k^2, 0]] at two Gauss points, Omega = h/2 (A1 + A2) + sqrt(3) h^2/12
    [A2, A1] (Iserles & Norsett 1999), is traceless, so exp(Omega) =
    cosh s I + (sinh s / s) Omega with s^2 = -det Omega.  Cells are 0.005 wide
    on |x| <= 120 and 0.5 beyond, with edges at the breakpoints and the
    support; their product is taken pairwise.  Returns {"s11", "s21"}, k > 0.
    """
    if pot.n != 2:
        raise ConfigurationError("ode_cross_check is the n = 2 oracle")
    if k <= 0:
        raise ConfigurationError("use k > 0")
    x_hi = X if pot.support is None else min(X, pot.support)
    x_in = min(x_hi, 120.0)
    right = np.concatenate((
        np.linspace(0.0, x_in, int(np.ceil(x_in / 0.005)) + 1),
        np.linspace(x_in, x_hi, int(np.ceil(2.0 * (x_hi - x_in))) + 1),
        [b for b in (*pot.breakpoints, pot.support or 0.0) if b < x_hi]))
    edges = np.unique(np.concatenate((right, -right)))[::-1]  # +x_hi to -x_hi
    h = np.diff(edges)
    g = (0.5 - np.sqrt(3.0) / 6.0) * h
    c1, c2 = pot.values(np.concatenate((edges[:-1] + g, edges[1:] - g)))[0] \
        .reshape(2, -1) - k * k
    d, e = (np.sqrt(3.0) / 12.0) * h * h * (c1 - c2), 0.5 * h * (c1 + c2)
    s = np.sqrt(d * d + h * e + 0j)  # Omega = [[d, h], [e, -d]]
    ch, sh = np.cosh(s), np.sinc(1j * s / np.pi)  # sinh(s)/s, 1 at s = 0
    M = np.stack((ch + sh * d, sh * h, sh * e, ch - sh * d), -1).reshape(-1, 2, 2)
    while len(M) > 1:  # ordered product, later cells on the left
        if len(M) % 2:
            M = np.concatenate((M, np.eye(2)[None]))
        M = M[1::2] @ M[0::2]
    psi0 = np.exp(1j * k * x_hi)
    psi, dpsi = M[0] @ np.array([psi0, 1j * k * psi0])
    alpha = (dpsi + 1j * k * psi) * np.exp(1j * k * x_hi) / (2j * k)
    beta = -(dpsi - 1j * k * psi) * np.exp(-1j * k * x_hi) / (2j * k)
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
