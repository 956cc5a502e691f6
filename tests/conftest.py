import numpy as np
import pytest

from carleman.coeffmap import RealPolynomial, p_to_q
from carleman.liouville import OperatorCoefficients
from carleman.oscquad import exp_monomial_moments, gauss_panels
from carleman.profile import ChangeOfVariables, WeightProfile
from carleman.scattering import PotentialSpec, scattering_matrix, solve_lippmann_schwinger


def fornberg_weights(z, x, m):
    """Finite-difference weights for derivatives 0..m at z from nodes x
    (Fornberg's recurrence): the tests' own stencils, kept out of the library."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def equidistribute_edges(x_samples, phase_samples, max_dphase):
    """Panel edges along x_samples so each panel spans <= max_dphase of phase,
    by the phase's arc length on the samples (it need not be monotone): the
    tests' own cut, independent of the library's panel rule."""
    x_samples = np.asarray(x_samples, dtype=float)
    arc = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(phase_samples)))))
    total = arc[-1]
    n_panels = max(int(np.ceil(total / max_dphase)), 1)
    edges = np.interp(np.linspace(0.0, total, n_panels + 1), arc, x_samples)
    edges[0], edges[-1] = x_samples[0], x_samples[-1]
    return np.unique(edges)


def integrate_panels(f, edges, p=12):
    """sum of Gauss-p integrals of f over consecutive [edges[i], edges[i+1]]."""
    nodes, weights = gauss_panels(edges, p)
    return np.sum(f(nodes.ravel()) * weights.ravel())


def direct_moments(mesh, nu, q, t, upper):
    """int e^{i nu (y - y(t))} l_j(y) dy on panel q of mesh over [-1, t]
    (upper) or [t, 1] in reference coordinates, shape (..., p), one point at a
    time: downward, the upward moments at (-nu, -t), basis reversed.  The
    tests' reference for the library's panel moment batches."""
    s, d = 0.5 * (mesh.edges[q + 1] - mesh.edges[q]), 1 if upper else -1
    m = s[..., None] * (exp_monomial_moments(1j * (d * nu) * s, d * t, mesh.p) @ mesh.cmat)
    return m if upper else m[..., ::-1]


def point_read(f, x):
    """Every branch's K_b, shape (branches, x.size), and each wave's envelope
    r_w (keyed w) at the points x, read by the field as rows of zero width:
    each point located on its own panel, with its own moment keys."""
    x = np.ravel(np.asarray(x, dtype=float))[:, None]
    x, K = f._read(x, 0.0 * x, [0.0])
    return K[..., 0], {w: f._envelope(x, w, K)[:, 0] for w in f.waves}


def direct_kernel(f, b, x):
    """K_b at the points x, |x| <= X, as a direct sum over the panels of the
    whole line: each panel's own integral anchored at its far edge, carried to
    the near edge of x's panel and on to x, plus x's partial panel, all from
    direct_moments."""
    zeta, _, upper = f._branches[b]
    regions = [f._dens[r] for r in sorted(f._dens)]
    lo, hi = (np.concatenate([getattr(d.mesh, end) for d in regions]) for end in ("lo", "hi"))
    far = hi if upper else lo

    def moments(d, q, t, y):
        """sum_c e^{i mu_c y} int e^{i (mu_c - zeta) (u - y)} f_c(u) du over
        panels q from their near edge to t."""
        return sum(np.exp(1j * mu * y) * np.einsum(
            "qj,qj->q", direct_moments(d.mesh, mu - zeta, q, t, upper), fc[q])
            for mu, fc in zip(d.mus, d.fs))

    totals = np.concatenate([moments(
        d, np.arange(d.mesh.n_panels), 1.0 if upper else -1.0,
        d.mesh.hi if upper else d.mesh.lo) for d in regions])
    x = np.ravel(np.asarray(x, dtype=float))
    region = np.where(np.abs(x) > f.X0, np.sign(x), 0.0).astype(int)
    out = np.empty(x.size, dtype=complex)
    for r in np.unique(region):
        i, d = np.flatnonzero(region == r), f._dens[r]
        q, t = d.mesh.locate(x[i])
        panels, of = np.unique(q, return_inverse=True)
        e = (d.mesh.lo if upper else d.mesh.hi)[panels]  # each panel's near edge
        side = hi <= e[:, None] if upper else lo >= e[:, None]
        carried = np.exp(1j * zeta * np.where(side, e[:, None] - far, 0.0)) * totals
        state = np.sum(np.where(side, carried, 0.0), axis=1)
        out[i] = np.exp(1j * zeta * (x[i] - e[of])) * state[of] + moments(d, q, t, x[i])
    return out


@pytest.fixture(scope="session")
def cosh_profile():
    return WeightProfile("cosh")


@pytest.fixture(scope="session")
def cov2(cosh_profile):
    return ChangeOfVariables(cosh_profile, 2)


@pytest.fixture(scope="session")
def cov3(cosh_profile):
    return ChangeOfVariables(cosh_profile, 3)


@pytest.fixture(scope="session")
def q_x2():
    return p_to_q(RealPolynomial([0.0, 0.0, 1.0]))


@pytest.fixture(scope="session")
def q_x2m1():
    return p_to_q(RealPolynomial([-1.0, 0.0, 1.0]))


@pytest.fixture(scope="session")
def q_x3():
    return p_to_q(RealPolynomial([0.0, 0.0, 0.0, 1.0]))


@pytest.fixture(scope="session")
def op2(q_x2, cov2):
    return OperatorCoefficients(q_x2, cov2)


@pytest.fixture(scope="session")
def pot2(op2):
    return PotentialSpec.from_operator(op2)


@pytest.fixture(scope="session")
def op2m1(q_x2m1, cov2):
    return OperatorCoefficients(q_x2m1, cov2)


@pytest.fixture(scope="session")
def pot2m1(op2m1):
    return PotentialSpec.from_operator(op2m1)


@pytest.fixture(scope="session")
def op3(q_x3, cov3):
    return OperatorCoefficients(q_x3, cov3)


@pytest.fixture(scope="session")
def pot3(op3):
    return PotentialSpec.from_operator(op3)


@pytest.fixture(scope="session")
def field2(pot2):
    """n=2 cosh eigenfunction at k = 1, X = 1e4."""
    return solve_lippmann_schwinger(pot2, 1.0, X=1.0e4)


@pytest.fixture(scope="session")
def smatrix2(pot2):
    return scattering_matrix(pot2, 1.0, X=1.0e4)


@pytest.fixture(scope="session")
def smatrix2m1(pot2m1):
    return scattering_matrix(pot2m1, 1.0, X=1.0e4)


@pytest.fixture(scope="session")
def entries2m1(smatrix2m1):
    S = smatrix2m1.S
    return {"s11": S[0, 0], "s12": S[0, 1], "s21": S[1, 0], "s22": S[1, 1]}


@pytest.fixture(scope="session")
def field2m1(pot2m1):
    return solve_lippmann_schwinger(pot2m1, 1.0, X=1.0e4)


@pytest.fixture(scope="session")
def field3(pot3):
    return solve_lippmann_schwinger(pot3, 1.0, X=1.0e4)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
